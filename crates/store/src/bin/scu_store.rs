//! `scu_store` — inspect a result-store directory.
//!
//! ```text
//! scu_store stat DIR
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use scu_store::lsm::Survey;
use scu_store::quarantine;

const USAGE: &str = "usage:
  scu_store stat DIR
      show a store's contents and what opening it would repair,
      without changing the directory";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("stat") => run_stat(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("scu_store: unknown command '{other}'\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_stat(args: &[String]) -> ExitCode {
    let [dir] = args else {
        eprintln!("scu_store stat: exactly one directory expected\n{USAGE}");
        return ExitCode::from(2);
    };
    let dir = PathBuf::from(dir);
    if !dir.is_dir() {
        eprintln!("scu_store stat: {} is not a directory", dir.display());
        return ExitCode::FAILURE;
    }
    let survey = match Survey::read(&dir) {
        Ok(survey) => survey,
        Err(e) => {
            eprintln!("scu_store stat: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    println!("dir:                  {}", dir.display());
    println!("live segments:        {}", survey.segment_count());
    println!("wal records:          {}", survey.wal.records.len());
    println!(
        "resumable cells:      {}",
        survey.resume_state().values.len()
    );
    println!(
        "quarantined (kept):   {}",
        quarantine::retained(&dir.join("quarantine"))
    );
    println!(
        "torn wal tail bytes:  {} (open would cut them)",
        survey.wal.truncated_tail_bytes
    );
    println!(
        "stray segments:       {} (open would delete them)",
        survey.strays.len()
    );
    for path in &survey.strays {
        println!("  {}", path.display());
    }
    if survey.wal.foreign {
        println!("foreign wal.log:      not a write-ahead log (open would quarantine it)");
    }
    if let Some(reason) = &survey.corrupt_manifest {
        println!("corrupt CURRENT:      {reason} (open would quarantine it and rebuild by scan)");
    }
    for (path, reason) in &survey.corrupt_segments {
        println!(
            "corrupt segment:      {} {reason} (open would quarantine it)",
            path.display()
        );
    }
    for path in &survey.missing_segments {
        println!(
            "missing segment:      {} (open would drop it)",
            path.display()
        );
    }
    ExitCode::SUCCESS
}
