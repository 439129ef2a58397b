//! `perfbench`: the clinfl benchmark.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lstm-fedavg|bert-fedavg|fleet-exchange> --seed <n> \
//!     --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Each workload is a closed batch of single-job federations over 8 sites,
//! set up from scratch and run back to back, in one process, until
//! `--seconds` have passed. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` alternates untraced and traced runs, probes each layer, and
//! prints the per-layer metrics. Either way the outputs are checked, and
//! the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a failed check makes
//! the exit status non-zero. Results, traces and the program's own metric
//! artifacts go under `perfbench/out/`.

mod adapter;
mod metrics;
mod trace;
mod workload;

use std::process::ExitCode;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Test-sized inputs.
    pub tiny: bool,
}

const USAGE: &str = "usage: perfbench --workload <lstm-fedavg|bert-fedavg|fleet-exchange> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match workload::run(&args) {
        Ok(report) => {
            print!("{}", report.render());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
