//! Asserts the CSR kernel's zero-allocation contract: once a [`FlowSolver`]'s buffers are
//! warm, repeated value-only solves (`max_flow`, `max_flow_limited`, `min_max_flow` with
//! and without settled sinks) must not touch the heap. A counting global allocator makes
//! any regression an immediate test failure instead of a silent performance cliff.
//!
//! The test harness runs tests on parallel threads, so the count is per thread and only
//! runs while the measuring thread has armed it: another test's allocations never show up
//! in a measurement.

use bmp_flow::{FlowArena, FlowSolver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper counting every allocation (and reallocation) made on an
/// armed thread.
struct CountingAllocator;

thread_local! {
    /// Whether allocations on this thread are counted. Both cells are const-initialised
    /// and free of destructors, so touching them never allocates and never fails during
    /// thread exit.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread while it was armed.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_armed() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Number of allocations `body` makes on the calling thread.
fn allocations_during(body: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    ARMED.with(|armed| armed.set(true));
    body();
    ARMED.with(|armed| armed.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

/// A layered network large enough that a solve exercises BFS, DFS and multiple phases.
fn layered_arena(layers: usize, width: usize) -> FlowArena {
    let node = |layer: usize, index: usize| 2 + layer * width + index;
    let mut edges = Vec::new();
    for i in 0..width {
        edges.push((0, node(0, i), 1.0 + (i % 7) as f64));
        edges.push((node(layers - 1, i), 1, 1.0 + (i % 5) as f64));
    }
    for layer in 0..layers - 1 {
        for i in 0..width {
            for j in 0..width {
                if (i + 3 * j + layer) % 3 != 0 {
                    edges.push((
                        node(layer, i),
                        node(layer + 1, j),
                        0.5 + ((i + j) % 4) as f64,
                    ));
                }
            }
        }
    }
    FlowArena::from_edges(2 + layers * width, &edges)
}

#[test]
fn warm_solver_performs_no_heap_allocation() {
    let arena = layered_arena(5, 8);
    let sinks: Vec<usize> = (2..arena.num_nodes()).collect();
    // Every non-source node is a sink, so this evaluation runs the settle pass.
    let all_sinks: Vec<usize> = (1..arena.num_nodes()).collect();
    let mut solver = FlowSolver::new();

    // Warm-up: sizes every buffer (cap, levels, cursors, queues, sink ordering, the
    // settle pass's component scratch).
    let reference_flow = solver.max_flow(&arena, 0, 1);
    let reference_min = solver.min_max_flow(&arena, 0, &sinks);
    let reference_settled = solver.min_max_flow(&arena, 0, &all_sinks);
    assert!(reference_flow > 0.0);
    assert!(reference_min >= 0.0);
    assert!(reference_settled >= 0.0);

    let allocations = allocations_during(|| {
        for _ in 0..50 {
            let flow = solver.max_flow(&arena, 0, 1);
            assert_eq!(flow, reference_flow);
            let limited = solver.max_flow_limited(&arena, 0, 1, reference_flow / 2.0);
            assert!(limited >= reference_flow / 2.0);
            let minimum = solver.min_max_flow(&arena, 0, &sinks);
            assert_eq!(minimum, reference_min);
            let settled = solver.min_max_flow(&arena, 0, &all_sinks);
            assert_eq!(settled, reference_settled);
        }
    });
    assert_eq!(
        allocations, 0,
        "hot-path solves allocated {allocations} time(s); the workspace must be fully reused"
    );
}

#[test]
fn shrinking_to_a_smaller_arena_allocates_nothing_new() {
    let big = layered_arena(5, 8);
    let small = layered_arena(2, 3);
    let mut solver = FlowSolver::new();
    let big_flow = solver.max_flow(&big, 0, 1);
    let small_flow = solver.max_flow(&small, 0, 1);

    let allocations = allocations_during(|| {
        for _ in 0..20 {
            assert_eq!(solver.max_flow(&small, 0, 1), small_flow);
            assert_eq!(solver.max_flow(&big, 0, 1), big_flow);
        }
    });
    assert_eq!(
        allocations, 0,
        "alternating between warm arenas must not reallocate buffers"
    );
}
