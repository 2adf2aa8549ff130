//! Problem instances: a source, `n` open nodes and `m` guarded nodes with outgoing bandwidths.

use crate::error::PlatformError;
use crate::node::{Node, NodeClass, NodeId};
use serde::Serialize;

/// A problem instance of the bounded multi-port broadcast problem.
///
/// Nodes are indexed as in the paper: `0` is the source `C0`, `1..=n` are the open nodes and
/// `n+1..=n+m` are the guarded nodes. Within each class, nodes are stored by non-increasing
/// outgoing bandwidth (`b_1 ≥ … ≥ b_n` and `b_{n+1} ≥ … ≥ b_{n+m}`); every constructor
/// enforces this normalisation, which all the algorithms of the paper assume
/// ("increasing orders", Lemma 4.2). Deserialization enforces the same invariants as
/// [`Instance::new_presorted`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Instance {
    /// Outgoing bandwidth of every node; index 0 is the source.
    bandwidths: Vec<f64>,
    /// Number of open nodes (excluding the source).
    n: usize,
    /// Number of guarded nodes.
    m: usize,
}

impl serde::Deserialize for Instance {
    /// Reads the serialized fields and rebuilds the instance through
    /// [`Instance::new_presorted`], so a document with a bandwidth list that is not
    /// `1 + n + m` long, an unsorted class, a negative or non-finite bandwidth, or no
    /// receiver is rejected instead of producing an instance that breaks the invariants
    /// every accessor relies on.
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::DeError::expected("map", "Instance"))?;
        let bandwidths: Vec<f64> =
            serde::Deserialize::from_value(serde::field(obj, "bandwidths", "Instance")?)?;
        let n: usize = serde::Deserialize::from_value(serde::field(obj, "n", "Instance")?)?;
        let m: usize = serde::Deserialize::from_value(serde::field(obj, "m", "Instance")?)?;
        if n.checked_add(m).and_then(|r| r.checked_add(1)) != Some(bandwidths.len()) {
            return Err(serde::DeError::custom(format!(
                "instance has {} bandwidths, expected 1 + n + m = 1 + {n} + {m}",
                bandwidths.len()
            )));
        }
        let (source, receivers) = bandwidths.split_first().expect("length checked above");
        let (open, guarded) = receivers.split_at(n);
        Instance::new_presorted(*source, open.to_vec(), guarded.to_vec())
            .map_err(|e| serde::DeError::custom(format!("invalid instance: {e}")))
    }
}

impl Instance {
    /// Builds an instance from the source bandwidth and the open / guarded bandwidth lists.
    ///
    /// The open and guarded lists are each sorted by non-increasing bandwidth. Bandwidths must
    /// be finite and non-negative, and at least one receiver must exist.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidBandwidth`] for a negative / non-finite bandwidth and
    /// [`PlatformError::EmptyInstance`] when both lists are empty.
    pub fn new(
        source_bandwidth: f64,
        open: Vec<f64>,
        guarded: Vec<f64>,
    ) -> Result<Self, PlatformError> {
        let mut open = open;
        let mut guarded = guarded;
        sort_desc(&mut open);
        sort_desc(&mut guarded);
        Self::new_presorted(source_bandwidth, open, guarded)
    }

    /// Builds an instance whose open and guarded lists are *already* sorted by non-increasing
    /// bandwidth. The sortedness is validated.
    ///
    /// # Errors
    ///
    /// Same as [`Instance::new`], plus [`PlatformError::InvalidParameter`] if a list is not
    /// sorted.
    pub fn new_presorted(
        source_bandwidth: f64,
        open: Vec<f64>,
        guarded: Vec<f64>,
    ) -> Result<Self, PlatformError> {
        if !is_sorted_desc(&open) || !is_sorted_desc(&guarded) {
            return Err(PlatformError::InvalidParameter {
                name: "bandwidths",
                reason: "open and guarded bandwidths must be sorted by non-increasing value"
                    .to_string(),
            });
        }
        let n = open.len();
        let m = guarded.len();
        if n + m == 0 {
            return Err(PlatformError::EmptyInstance);
        }
        let mut bandwidths = Vec::with_capacity(1 + n + m);
        bandwidths.push(source_bandwidth);
        bandwidths.extend_from_slice(&open);
        bandwidths.extend_from_slice(&guarded);
        for (index, &value) in bandwidths.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(PlatformError::InvalidBandwidth { index, value });
            }
        }
        Ok(Instance { bandwidths, n, m })
    }

    /// Builds an instance containing only open nodes (the `m = 0` case of the paper).
    ///
    /// # Errors
    ///
    /// Same as [`Instance::new`].
    pub fn open_only(source_bandwidth: f64, open: Vec<f64>) -> Result<Self, PlatformError> {
        Self::new(source_bandwidth, open, Vec::new())
    }

    /// A homogeneous instance: `n` open nodes of bandwidth `open_bw` and `m` guarded nodes of
    /// bandwidth `guarded_bw` (Section VI-A of the paper).
    ///
    /// # Errors
    ///
    /// Same as [`Instance::new`].
    pub fn homogeneous(
        source_bandwidth: f64,
        n: usize,
        open_bw: f64,
        m: usize,
        guarded_bw: f64,
    ) -> Result<Self, PlatformError> {
        Self::new(source_bandwidth, vec![open_bw; n], vec![guarded_bw; m])
    }

    /// Number of open nodes `n` (excluding the source).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of guarded nodes `m`.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total number of nodes, source included (`n + m + 1`).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        1 + self.n + self.m
    }

    /// Number of receivers (`n + m`).
    #[must_use]
    pub fn num_receivers(&self) -> usize {
        self.n + self.m
    }

    /// Outgoing bandwidth of node `i` (0 = source).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bandwidth(&self, i: NodeId) -> f64 {
        self.bandwidths[i]
    }

    /// Outgoing bandwidth of the source `b_0`.
    #[must_use]
    pub fn source_bandwidth(&self) -> f64 {
        self.bandwidths[0]
    }

    /// All outgoing bandwidths, source first.
    #[must_use]
    pub fn bandwidths(&self) -> &[f64] {
        &self.bandwidths
    }

    /// Bandwidths of the open nodes (`b_1, …, b_n`), sorted non-increasingly.
    #[must_use]
    pub fn open_bandwidths(&self) -> &[f64] {
        &self.bandwidths[1..=self.n]
    }

    /// Bandwidths of the guarded nodes (`b_{n+1}, …, b_{n+m}`), sorted non-increasingly.
    #[must_use]
    pub fn guarded_bandwidths(&self) -> &[f64] {
        &self.bandwidths[self.n + 1..]
    }

    /// Class of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn class(&self, i: NodeId) -> NodeClass {
        assert!(i < self.num_nodes(), "node index {i} out of range");
        if i == 0 {
            NodeClass::Source
        } else if i <= self.n {
            NodeClass::Open
        } else {
            NodeClass::Guarded
        }
    }

    /// Whether node `i` is guarded.
    #[must_use]
    pub fn is_guarded(&self, i: NodeId) -> bool {
        self.class(i) == NodeClass::Guarded
    }

    /// Whether node `i` is the source or an open node ("open bandwidth" in the paper).
    #[must_use]
    pub fn is_open_like(&self, i: NodeId) -> bool {
        self.class(i).is_open_like()
    }

    /// Whether the pair `(i, j)` may carry a direct transfer (firewall constraint).
    #[must_use]
    pub fn can_send(&self, i: NodeId, j: NodeId) -> bool {
        self.class(i).can_send_to(self.class(j))
    }

    /// Full description of node `i`.
    #[must_use]
    pub fn node(&self, i: NodeId) -> Node {
        Node::new(i, self.class(i), self.bandwidth(i))
    }

    /// Iterator over all nodes, source first.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        (0..self.num_nodes()).map(move |i| self.node(i))
    }

    /// Iterator over receiver indices (`1..=n+m`).
    pub fn receivers(&self) -> impl Iterator<Item = NodeId> {
        1..self.num_nodes()
    }

    /// Iterator over open node indices (`1..=n`).
    pub fn open_indices(&self) -> impl Iterator<Item = NodeId> {
        1..=self.n
    }

    /// Iterator over guarded node indices (`n+1..=n+m`).
    pub fn guarded_indices(&self) -> impl Iterator<Item = NodeId> {
        self.n + 1..self.num_nodes()
    }

    /// Sum `O = Σ_{i=1}^{n} b_i` of the open-node bandwidths (source excluded).
    #[must_use]
    pub fn open_sum(&self) -> f64 {
        self.open_bandwidths().iter().sum()
    }

    /// Sum `G = Σ_{i=n+1}^{n+m} b_i` of the guarded-node bandwidths.
    #[must_use]
    pub fn guarded_sum(&self) -> f64 {
        self.guarded_bandwidths().iter().sum()
    }

    /// Total outgoing bandwidth of the platform, source included.
    #[must_use]
    pub fn total_bandwidth(&self) -> f64 {
        self.bandwidths.iter().sum()
    }

    /// Prefix sum `S_k = Σ_{i=0}^{k} b_i` used by the open-only analysis (Section III-B).
    ///
    /// Only meaningful for instances without guarded nodes, but defined for any `k` less than
    /// the number of nodes.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ n + m + 1`.
    #[must_use]
    pub fn prefix_sum(&self, k: usize) -> f64 {
        assert!(k < self.num_nodes(), "prefix index {k} out of range");
        self.bandwidths[..=k].iter().sum()
    }

    /// Returns a copy of the instance with the source bandwidth replaced by `b0`.
    ///
    /// This is used by the random generator of the paper's average-case study, which pins the
    /// source bandwidth to the optimal cyclic throughput.
    #[must_use]
    pub fn with_source_bandwidth(&self, b0: f64) -> Instance {
        let mut clone = self.clone();
        clone.bandwidths[0] = b0;
        clone
    }

    /// Returns a copy of the instance where every guarded bandwidth is scaled by `factor`.
    ///
    /// Used when tightening instances (Lemma 11.1 reduces any instance to a *tight* one by
    /// shrinking guarded bandwidths).
    #[must_use]
    pub fn with_scaled_guarded(&self, factor: f64) -> Instance {
        let mut clone = self.clone();
        for i in clone.n + 1..clone.num_nodes() {
            clone.bandwidths[i] *= factor;
        }
        clone
    }

    /// Whether the instance contains at least one guarded node.
    #[must_use]
    pub fn has_guarded(&self) -> bool {
        self.m > 0
    }

    /// The `k`-th open node's index (1-based within the open class): `k ∈ 1..=n` maps to `k`.
    #[must_use]
    pub fn open_id(&self, k: usize) -> NodeId {
        debug_assert!(k >= 1 && k <= self.n);
        k
    }

    /// The `k`-th guarded node's index (1-based within the guarded class): `k ∈ 1..=m` maps to
    /// `n + k`.
    #[must_use]
    pub fn guarded_id(&self, k: usize) -> NodeId {
        debug_assert!(k >= 1 && k <= self.m);
        self.n + k
    }
}

fn sort_desc(values: &mut [f64]) {
    values.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
}

fn is_sorted_desc(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[0] >= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Instance {
        // The Figure 1 instance of the paper: b = [6, 5, 5, 4, 1, 1], n = 2, m = 3.
        Instance::new(6.0, vec![5.0, 5.0], vec![4.0, 1.0, 1.0]).unwrap()
    }

    #[test]
    fn construction_sorts_each_class() {
        let inst = Instance::new(3.0, vec![1.0, 5.0, 2.0], vec![0.5, 4.0]).unwrap();
        assert_eq!(inst.open_bandwidths(), &[5.0, 2.0, 1.0]);
        assert_eq!(inst.guarded_bandwidths(), &[4.0, 0.5]);
        assert_eq!(inst.source_bandwidth(), 3.0);
    }

    #[test]
    fn presorted_rejects_unsorted() {
        let err = Instance::new_presorted(3.0, vec![1.0, 5.0], vec![]).unwrap_err();
        assert!(matches!(err, PlatformError::InvalidParameter { .. }));
    }

    #[test]
    fn rejects_negative_bandwidth() {
        let err = Instance::new(3.0, vec![-1.0], vec![]).unwrap_err();
        assert!(matches!(err, PlatformError::InvalidBandwidth { .. }));
        let err = Instance::new(f64::NAN, vec![1.0], vec![]).unwrap_err();
        assert!(matches!(
            err,
            PlatformError::InvalidBandwidth { index: 0, .. }
        ));
    }

    #[test]
    fn rejects_empty_instance() {
        let err = Instance::new(3.0, vec![], vec![]).unwrap_err();
        assert_eq!(err, PlatformError::EmptyInstance);
    }

    #[test]
    fn counts_and_sums() {
        let inst = sample();
        assert_eq!(inst.n(), 2);
        assert_eq!(inst.m(), 3);
        assert_eq!(inst.num_nodes(), 6);
        assert_eq!(inst.num_receivers(), 5);
        assert!((inst.open_sum() - 10.0).abs() < 1e-12);
        assert!((inst.guarded_sum() - 6.0).abs() < 1e-12);
        assert!((inst.total_bandwidth() - 22.0).abs() < 1e-12);
    }

    #[test]
    fn classes_follow_paper_indexing() {
        let inst = sample();
        assert_eq!(inst.class(0), NodeClass::Source);
        assert_eq!(inst.class(1), NodeClass::Open);
        assert_eq!(inst.class(2), NodeClass::Open);
        assert_eq!(inst.class(3), NodeClass::Guarded);
        assert_eq!(inst.class(5), NodeClass::Guarded);
        assert!(inst.is_guarded(4));
        assert!(inst.is_open_like(0));
        assert!(!inst.is_open_like(3));
    }

    #[test]
    fn firewall_pairs() {
        let inst = sample();
        assert!(inst.can_send(0, 3));
        assert!(inst.can_send(3, 1));
        assert!(!inst.can_send(3, 4));
        assert!(inst.can_send(1, 2));
    }

    #[test]
    fn open_and_guarded_ids() {
        let inst = sample();
        assert_eq!(inst.open_id(1), 1);
        assert_eq!(inst.open_id(2), 2);
        assert_eq!(inst.guarded_id(1), 3);
        assert_eq!(inst.guarded_id(3), 5);
        assert_eq!(inst.open_indices().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(inst.guarded_indices().collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(inst.receivers().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn prefix_sums() {
        let inst = Instance::open_only(6.0, vec![5.0, 4.0, 3.0]).unwrap();
        assert!((inst.prefix_sum(0) - 6.0).abs() < 1e-12);
        assert!((inst.prefix_sum(2) - 15.0).abs() < 1e-12);
        assert!((inst.prefix_sum(3) - 18.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prefix_sum_out_of_range_panics() {
        let inst = sample();
        let _ = inst.prefix_sum(6);
    }

    #[test]
    fn with_source_bandwidth_replaces_b0_only() {
        let inst = sample().with_source_bandwidth(9.5);
        assert_eq!(inst.source_bandwidth(), 9.5);
        assert_eq!(inst.open_bandwidths(), sample().open_bandwidths());
        assert_eq!(inst.guarded_bandwidths(), sample().guarded_bandwidths());
    }

    #[test]
    fn with_scaled_guarded_scales_only_guarded() {
        let inst = sample().with_scaled_guarded(0.5);
        assert_eq!(inst.guarded_bandwidths(), &[2.0, 0.5, 0.5]);
        assert_eq!(inst.open_bandwidths(), &[5.0, 5.0]);
        assert_eq!(inst.source_bandwidth(), 6.0);
    }

    #[test]
    fn homogeneous_builder() {
        let inst = Instance::homogeneous(1.0, 3, 2.0, 2, 0.5).unwrap();
        assert_eq!(inst.open_bandwidths(), &[2.0, 2.0, 2.0]);
        assert_eq!(inst.guarded_bandwidths(), &[0.5, 0.5]);
    }

    #[test]
    fn nodes_iterator_is_consistent() {
        let inst = sample();
        let nodes: Vec<Node> = inst.nodes().collect();
        assert_eq!(nodes.len(), 6);
        assert_eq!(nodes[0].class, NodeClass::Source);
        assert_eq!(nodes[3].bandwidth, 4.0);
        assert_eq!(nodes[5].id, 5);
    }

    #[test]
    fn serde_roundtrip() {
        let inst = sample();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn deserialization_enforces_the_constructor_invariants() {
        for (json, expected) in [
            (
                r#"{"bandwidths":[5.0,1.0],"n":3,"m":0}"#,
                "expected 1 + n + m",
            ),
            (
                r#"{"bandwidths":[5.0,-1.0],"n":1,"m":0}"#,
                "invalid bandwidth -1",
            ),
            (r#"{"bandwidths":[5.0],"n":0,"m":0}"#, "no receiver"),
            (
                r#"{"bandwidths":[5.0,1.0,2.0],"n":2,"m":0}"#,
                "non-increasing",
            ),
            (
                r#"{"bandwidths":[5.0,1.0,1e999],"n":1,"m":1}"#,
                "invalid bandwidth",
            ),
            (
                r#"{"bandwidths":[5.0],"n":18446744073709551615,"m":1}"#,
                "expected 1 + n + m",
            ),
        ] {
            let error = serde_json::from_str::<Instance>(json).unwrap_err();
            assert!(error.to_string().contains(expected), "{json}: {error}");
        }
    }

    #[test]
    fn open_only_has_no_guarded() {
        let inst = Instance::open_only(2.0, vec![1.0, 1.0]).unwrap();
        assert!(!inst.has_guarded());
        assert_eq!(inst.m(), 0);
        assert_eq!(inst.guarded_bandwidths(), &[] as &[f64]);
    }
}
