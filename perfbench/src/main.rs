//! The repository benchmark. Three closed-loop workloads over an
//! in-process `mad_net::Server` on loopback — `serve_read`,
//! `durable_write` and `mixed_replicated` — measured end to end, and in
//! a separate traced run peeled layer by layer (see `README.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_read --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the
//! human-readable report. The exit code is nonzero when any verification
//! fails.

#![forbid(unsafe_code)]

mod drive;
mod metrics;
mod peel;
mod report;
mod run;
mod verify;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::Kind;

/// Parsed command line.
pub struct Args {
    /// Which workload.
    pub kind: Kind,
    /// The workload seed: fixture and statement streams derive from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

const USAGE: &str = "usage: mad-perfbench --workload <serve_read|durable_write|mixed_replicated> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let kind = Kind::parse(workload).ok_or(format!("unknown workload `{workload}`"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Flush the file systems' dirty data (`sync`, waited for).
fn settle_disk() {
    let _ = std::process::Command::new("sync").status();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // the metrics of the JSON line, read before any work so a bad list
    // fails fast
    let listed = match report::listed(args.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // logs and spans live under the checkout, beside the benchmark
    let out = PathBuf::from("perfbench").join("out");
    let scratch = out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    // An fsync (log creation, the standby's log, the traced run's WAL
    // peel) also waits for whatever else the file system has pending:
    // dirty pages of a build that just ran, or the discards of a previous
    // run's deleted logs. Flushing before and after a run keeps one run's
    // disk work out of the next run's measurements.
    settle_disk();
    let ticks = report::cpu_ticks();
    let outcome = if args.trace {
        peel::traced(&args, &scratch, &out)
    } else {
        run::untraced(&args, &scratch)
    };
    let steal = report::steal_note(ticks, report::cpu_ticks());
    let _ = std::fs::remove_dir_all(&scratch);
    settle_disk();
    match outcome {
        Ok(mut report) => {
            report.notes.push(steal);
            match report.print(&args, &listed) {
                Ok(()) if report.correct() => ExitCode::SUCCESS,
                Ok(()) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("benchmark failed: {e}");
                    ExitCode::from(1)
                }
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}
