//! The repository benchmark: three seeded workloads over the solvers and
//! the serving tier, with end-to-end metrics from untraced runs and
//! per-layer metrics from traced runs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_solve|serve_hot|serve_churn --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record-reference
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  The process exits with status 1
//! when the correctness oracle finds a failure and 2 on bad arguments.
//! `--record-reference` prints the cold_solve pool's optima in the format
//! of `reference/cold_solve.txt`.  Timed figures are host-normalised by
//! the probe in `probe.rs`.  See `METRICS.md` for every metric.

mod churn;
mod cold;
mod hot;
mod names;
mod probe;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// The command-line arguments of one run.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Writes the traced run's spans under `.perfbench_out/` in the working
/// directory (reported on standard error only: the result line stays last).
pub fn write_spans(tracer: &trace::Tracer, args: &RunArgs) {
    let path = PathBuf::from(".perfbench_out")
        .join(format!("{}-seed{}-spans.csv", args.workload, args.seed));
    match tracer.write_csv(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 1 && args[0] == "--record-reference" {
        return match cold::record_reference() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(1)
            }
        };
    }
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut report, tally) = match run.workload.as_str() {
        "cold_solve" => cold::run(&run),
        "serve_hot" => hot::run(&run),
        "serve_churn" => churn::run(&run),
        other => {
            eprintln!("perfbench: unknown workload {other} (cold_solve, serve_hot, serve_churn)");
            return ExitCode::from(2);
        }
    };
    if run.trace {
        report.conform(names::PER_LAYER, true);
    } else {
        report.conform(names::END_TO_END, false);
    }
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    report.print(&tally);
    if tally.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
