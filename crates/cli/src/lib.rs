//! Command-line interface to the bounded multi-port broadcast toolkit.
//!
//! The binary (`bmp-cli`) exposes the full pipeline a platform operator would run:
//!
//! ```text
//! bmp-cli generate  --receivers 100 --open-prob 0.7 --dist plab --out platform.json
//! bmp-cli bounds    --instance platform.json
//! bmp-cli solve     --instance platform.json --out overlay.json --dot overlay.dot
//! bmp-cli verify    --scheme overlay.json
//! bmp-cli decompose --scheme overlay.json --message 1000
//! bmp-cli simulate  --scheme overlay.json --chunks 500 --policy rarest
//! bmp-cli export    --scheme overlay.json --format degrees
//! ```
//!
//! Every subcommand lives in its own module and is unit-tested through the same [`run`] entry
//! point the binary uses; the binary itself is a thin wrapper around [`run`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod cmd_bounds;
pub mod cmd_decompose;
pub mod cmd_export;
pub mod cmd_generate;
pub mod cmd_serve;
pub mod cmd_simulate;
pub mod cmd_solve;
pub mod cmd_verify;
pub mod error;
pub mod files;

pub use error::CliError;

use args::ArgList;
use std::io::Write;

/// Flags accepted by `help` (none).
const HELP_FLAGS: args::FlagSpec = args::FlagSpec {
    command: "help",
    flags: &[],
};

/// Every subcommand with its one-line summary and accepted flags, in help order. The
/// flag lists in [`usage`] are rendered from these specs — the same tables each
/// subcommand validates its command line against — so help cannot drift from the
/// flags the CLI actually accepts.
const COMMANDS: [(&args::FlagSpec, &str); 9] = [
    (&cmd_generate::FLAGS, "sample a random platform instance"),
    (
        &cmd_bounds::FLAGS,
        "print closed-form and computed throughput bounds",
    ),
    (&cmd_solve::FLAGS, "compute a low-degree broadcast overlay"),
    (
        &cmd_verify::FLAGS,
        "check a scheme's constraints and degrees",
    ),
    (
        &cmd_decompose::FLAGS,
        "split a scheme into weighted broadcast trees",
    ),
    (
        &cmd_simulate::FLAGS,
        "run the chunk-level streaming simulator and the closed-loop session engine",
    ),
    (
        &cmd_serve::FLAGS,
        "run a sharded multi-session broadcast fleet with admission control",
    ),
    (&cmd_export::FLAGS, "render a scheme as DOT or CSV"),
    (&HELP_FLAGS, "print this message (also `--help` / `-h`)"),
];

/// Column at which command summaries and flag lists start.
const HELP_INDENT: usize = 13;

/// Width the flag lists are wrapped to.
const HELP_WIDTH: usize = 88;

/// Usage text printed by `help`, `--help` and `-h`.
#[must_use]
pub fn usage() -> String {
    let mut text = String::from(
        "bmp-cli — broadcasting under the bounded multi-port model\n\n\
         USAGE: bmp-cli <command> [flags]\n\n\
         COMMANDS:\n",
    );
    let indent = " ".repeat(HELP_INDENT);
    for (spec, summary) in COMMANDS {
        text.push_str(&format!(
            "  {:<width$}{summary}\n",
            spec.command,
            width = HELP_INDENT - 2
        ));
        let mut line = indent.clone();
        for (i, flag) in spec.flags.iter().enumerate() {
            let item = if i + 1 < spec.flags.len() {
                format!("{flag},")
            } else {
                (*flag).to_string()
            };
            if line.len() > HELP_INDENT && line.len() + 1 + item.len() > HELP_WIDTH {
                text.push_str(&line);
                text.push('\n');
                line.clone_from(&indent);
            }
            if line.len() > HELP_INDENT {
                line.push(' ');
            }
            line.push_str(&item);
        }
        if line.len() > HELP_INDENT {
            text.push_str(&line);
            text.push('\n');
        }
    }
    text.push_str(
        "
`solve --algorithm NAME` dispatches any registered solver (acyclic-guarded,
acyclic-open, cyclic-open, exhaustive, omega-word, auto, tree-decomposition);
an unknown NAME lists the registry with one-line descriptions. Unrecognized
flags are rejected with the subcommand's accepted flag list.

`simulate --churn \"5:busiest;12:+3\"` injects scheduled departures/rejoins and
reports delivered goodput; adding `--repair` re-solves the surviving platform
on every membership change and hot-swaps the repaired overlay mid-broadcast.
With `--instance` the command solves and simulates in one shot.
",
    );
    text
}

/// Parses `args` (excluding the binary name) and runs the corresponding subcommand, writing
/// human-readable output to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] describing bad usage, I/O problems or algorithm-level failures; the
/// binary prints it to stderr and exits with a non-zero status.
pub fn run<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        out.write_all(usage().as_bytes())?;
        return Ok(());
    }
    let parsed = ArgList::parse(args)?;
    match parsed.command.as_str() {
        "generate" => cmd_generate::run(&parsed, out),
        "bounds" => cmd_bounds::run(&parsed, out),
        "solve" => cmd_solve::run(&parsed, out),
        "verify" => cmd_verify::run(&parsed, out),
        "decompose" => cmd_decompose::run(&parsed, out),
        "simulate" => cmd_simulate::run(&parsed, out),
        "serve" => cmd_serve::run(&parsed, out),
        "export" => cmd_export::run(&parsed, out),
        "help" | "" => {
            parsed.reject_unknown_flags(&HELP_FLAGS)?;
            out.write_all(usage().as_bytes())?;
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}; run `bmp-cli help` for the command list"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_strings(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn help_is_printed_for_empty_and_help_commands() {
        assert!(run_strings(&[]).unwrap().contains("USAGE"));
        assert!(run_strings(&["help"]).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn help_lists_every_accepted_flag_of_every_command() {
        let help = usage();
        for (spec, _) in COMMANDS {
            assert!(
                help.contains(&format!("\n  {} ", spec.command)),
                "{} missing from help",
                spec.command
            );
            for flag in spec.flags {
                // Match whole flags only: `--checkpoint` must not pass on the
                // strength of `--checkpoint-every`.
                let listed = help
                    .split(|c: char| c.is_whitespace() || c == ',')
                    .any(|word| word == *flag);
                assert!(
                    listed,
                    "`{} {flag}` is accepted but not in the help",
                    spec.command
                );
            }
        }
        // Every dispatched command has a help entry.
        for command in [
            "generate",
            "bounds",
            "solve",
            "verify",
            "decompose",
            "simulate",
            "serve",
            "export",
            "help",
        ] {
            assert!(
                COMMANDS.iter().any(|(spec, _)| spec.command == command),
                "{command} has no help entry"
            );
        }
    }

    #[test]
    fn unknown_command_is_rejected() {
        let err = run_strings(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn full_pipeline_through_the_dispatcher() {
        let dir = std::env::temp_dir().join(format!("bmp-cli-pipeline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let instance = dir.join("instance.json");
        let scheme = dir.join("scheme.json");
        let instance = instance.to_str().unwrap();
        let scheme = scheme.to_str().unwrap();

        run_strings(&[
            "generate",
            "--receivers",
            "15",
            "--open-prob",
            "0.6",
            "--seed",
            "5",
            "--out",
            instance,
        ])
        .unwrap();
        let bounds = run_strings(&["bounds", "--instance", instance]).unwrap();
        assert!(bounds.contains("cyclic optimum"));
        let solve = run_strings(&["solve", "--instance", instance, "--out", scheme]).unwrap();
        assert!(solve.contains("feasible   : true"));
        let verify = run_strings(&["verify", "--scheme", scheme]).unwrap();
        assert!(verify.contains("constraints : satisfied"));
        let decompose = run_strings(&["decompose", "--scheme", scheme]).unwrap();
        assert!(decompose.contains("trees"));
        let export = run_strings(&["export", "--scheme", scheme, "--format", "edges"]).unwrap();
        assert!(export.starts_with("from,to,rate"));
        let simulate = run_strings(&[
            "simulate",
            "--scheme",
            scheme,
            "--chunks",
            "120",
            "--policy",
            "sequential",
        ])
        .unwrap();
        assert!(simulate.contains("all completed"));

        std::fs::remove_dir_all(&dir).ok();
    }
}
