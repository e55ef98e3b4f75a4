//! Shared command-line surface for the experiment binaries:
//! `--jobs N`, `--no-cache`, `--no-graph-artifacts`, `--filter <substr>`, `--timeout-secs N`,
//! `--resume`, `--strict-resume`, `--trace <path>`.
//!
//! Each binary names the harness flags it reads; any other harness
//! flag is left in [`CliArgs::rest`] like an unknown argument, so the
//! binary rejects it instead of silently ignoring it.

use std::path::PathBuf;
use std::time::Duration;

use crate::executor::default_jobs;

/// Parsed harness flags plus whatever positional arguments remain.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// Worker threads (defaults to available cores).
    pub jobs: usize,
    /// Disable the on-disk result cache.
    pub no_cache: bool,
    /// Disable the graph artifact store (mmap'd build-once CSR files).
    /// Graphs are then regenerated in memory per process, exactly as
    /// before the store existed; results are byte-identical either
    /// way, only graph build wall-clock changes.
    pub no_graph_artifacts: bool,
    /// Only run cells whose id contains this substring.
    pub filter: Option<String>,
    /// Per-cell wall-clock budget.
    pub timeout: Option<Duration>,
    /// Resume from the journal of an interrupted sweep instead of
    /// starting fresh.
    pub resume: bool,
    /// Fail (non-zero exit) when a resumed cell re-runs and its
    /// timeline digest disagrees with the journaled one, instead of
    /// only warning. Lets CI treat model/config divergence as an error.
    pub strict_resume: bool,
    /// Write a chrome://tracing JSON file of the run's event timeline
    /// here (binaries that simulate fresh cells honour it; cached
    /// cells have no event stream to export).
    pub trace: Option<PathBuf>,
    /// Positional arguments and flags the binary does not read, in
    /// order.
    pub rest: Vec<String>,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            jobs: default_jobs(),
            no_cache: false,
            no_graph_artifacts: false,
            filter: None,
            timeout: None,
            resume: false,
            strict_resume: false,
            trace: None,
            rest: Vec::new(),
        }
    }
}

/// The usage block describing the shared flags, for `--help` output.
pub const USAGE: &str = "harness options:\n  \
    --jobs N          worker threads (default: available cores)\n  \
    --no-cache        recompute every cell, ignore cached results\n  \
    --no-graph-artifacts  rebuild graphs in memory instead of serving mmap'd\n                    \
artifacts (results are byte-identical either way)\n  \
    --filter SUBSTR   only run cells whose id contains SUBSTR\n  \
    --timeout-secs N  mark cells running longer than N seconds as timed out\n  \
    --resume          resume an interrupted sweep from its journal (the result\n                    \
store's write-ahead log, or results/journal when running\n                    \
uncached)\n  \
    --strict-resume   fail (exit 1) if a resumed cell's timeline digest diverges\n                    \
    from the journaled one, instead of warning\n  \
    --trace PATH      write a chrome://tracing (Perfetto) JSON trace to PATH";

/// Every harness flag, for binaries that read them all.
pub const ALL_FLAGS: &[&str] = &[
    "--jobs",
    "--no-cache",
    "--no-graph-artifacts",
    "--filter",
    "--timeout-secs",
    "--resume",
    "--strict-resume",
    "--trace",
];

impl CliArgs {
    /// Parses `std::env::args().skip(1)`-style arguments, taking only
    /// the harness flags named in `reads`. Unknown flags, harness flags
    /// not in `reads` and positionals are collected into
    /// [`CliArgs::rest`] for the binary to interpret; malformed values
    /// for read flags are errors.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        reads: &[&str],
    ) -> Result<CliArgs, String> {
        let mut out = CliArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            let mut value = |what: &str| -> Result<String, String> {
                inline
                    .clone()
                    .or_else(|| args.next())
                    .ok_or_else(|| format!("{flag} expects {what}"))
            };
            let canonical = if flag == "-j" { "--jobs" } else { &flag };
            match canonical {
                _ if !reads.contains(&canonical) => out.rest.push(arg),
                "--jobs" => {
                    let v = value("a thread count")?;
                    out.jobs =
                        v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--jobs expects a positive integer, got '{v}'")
                        })?;
                }
                "--no-cache" => out.no_cache = true,
                "--no-graph-artifacts" => out.no_graph_artifacts = true,
                "--filter" => out.filter = Some(value("a substring")?),
                "--timeout-secs" => {
                    let v = value("a duration in seconds")?;
                    let secs = v.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(|| {
                        format!("--timeout-secs expects a positive number, got '{v}'")
                    })?;
                    out.timeout = Some(Duration::from_secs_f64(secs));
                }
                "--resume" => out.resume = true,
                "--strict-resume" => out.strict_resume = true,
                "--trace" => out.trace = Some(PathBuf::from(value("a file path")?)),
                _ => out.rest.push(arg),
            }
        }
        Ok(out)
    }

    /// Parses the process's own arguments (see [`CliArgs::parse`]),
    /// exiting with usage on error.
    pub fn from_env(reads: &[&str]) -> CliArgs {
        match CliArgs::parse(std::env::args().skip(1), reads) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CliArgs {
        CliArgs::parse(args.iter().map(|s| s.to_string()), ALL_FLAGS).unwrap()
    }

    fn parse_err(args: &[&str]) -> bool {
        CliArgs::parse(args.iter().map(|s| s.to_string()), ALL_FLAGS).is_err()
    }

    #[test]
    fn defaults_use_all_cores_and_cache() {
        let a = parse(&[]);
        assert!(a.jobs >= 1);
        assert!(!a.no_cache);
        assert!(a.filter.is_none() && a.timeout.is_none());
        assert!(!a.resume);
    }

    #[test]
    fn resume_parses() {
        let a = parse(&["--resume"]);
        assert!(a.resume);
        assert!(!a.strict_resume);
        let s = parse(&["--resume", "--strict-resume"]);
        assert!(s.resume && s.strict_resume);
    }

    #[test]
    fn unread_harness_flags_pass_through_like_unknown_ones() {
        let reads = ["--no-cache", "--trace"];
        let a = CliArgs::parse(
            [
                "--jobs",
                "3",
                "--no-cache",
                "-j=2",
                "--filter",
                "x",
                "--resume",
            ]
            .map(String::from),
            &reads,
        )
        .unwrap();
        assert!(a.no_cache);
        assert!(a.filter.is_none() && !a.resume);
        assert_eq!(a.rest, ["--jobs", "3", "-j=2", "--filter", "x", "--resume"]);
        // A flag the binary does not read is not validated either.
        assert!(CliArgs::parse(["--jobs", "zero"].map(String::from), &reads).is_ok());
    }

    #[test]
    fn no_graph_artifacts_parses_and_defaults_off() {
        assert!(!parse(&[]).no_graph_artifacts);
        let a = parse(&["--no-graph-artifacts"]);
        assert!(a.no_graph_artifacts);
        assert!(!a.no_cache, "independent toggles");
    }

    #[test]
    fn trace_parses_in_both_spellings() {
        let a = parse(&["--trace", "out.json"]);
        assert_eq!(a.trace.as_deref(), Some(std::path::Path::new("out.json")));
        let b = parse(&["--trace=results/trace.json"]);
        assert_eq!(
            b.trace.as_deref(),
            Some(std::path::Path::new("results/trace.json"))
        );
        assert!(parse(&[]).trace.is_none());
        assert!(parse_err(&["--trace"]));
    }

    #[test]
    fn flags_parse_in_both_spellings() {
        let a = parse(&[
            "--jobs",
            "3",
            "--filter=BFS",
            "--no-cache",
            "--timeout-secs",
            "2.5",
        ]);
        assert_eq!(a.jobs, 3);
        assert_eq!(a.filter.as_deref(), Some("BFS"));
        assert!(a.no_cache);
        assert_eq!(a.timeout, Some(Duration::from_secs_f64(2.5)));
        let b = parse(&["-j", "7"]);
        assert_eq!(b.jobs, 7);
    }

    #[test]
    fn positionals_pass_through_in_order() {
        // Unknown flags pass through too; binaries reject them.
        let a = parse(&["BFS", "--jobs=2", "kron", "--bogus=1", "TX1"]);
        assert_eq!(a.rest, vec!["BFS", "kron", "--bogus=1", "TX1"]);
        assert_eq!(a.jobs, 2);
    }

    #[test]
    fn bad_values_error() {
        assert!(parse_err(&["--jobs", "zero"]));
        assert!(parse_err(&["--jobs", "0"]));
        assert!(parse_err(&["--timeout-secs", "-1"]));
        assert!(parse_err(&["--filter"]));
        assert_eq!(parse(&["--retries", "2"]).rest, ["--retries", "2"]);
    }
}
