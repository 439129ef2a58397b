//! # clinfl-bench
//!
//! Benchmark harness for the `clinfl` reproduction: one binary per table /
//! figure of the paper, plus the kernel, report, scaling and scenario
//! benches (`bench_kernels`, `bench_report`, `bench_scaling`,
//! `scenario_matrix`).
//!
//! | Paper artifact | Regenerate with |
//! |---|---|
//! | Table I (parameters)        | `cargo run -p clinfl-bench --release --bin table1_parameters` |
//! | Table II (model specs)      | `cargo run -p clinfl-bench --release --bin table2_models` |
//! | Table III (top-1 accuracy)  | `cargo run -p clinfl-bench --release --bin table3_accuracy [--scale N]` |
//! | Fig. 2 (MLM loss)           | `cargo run -p clinfl-bench --release --bin fig2_mlm_loss [--scale N]` |
//! | Fig. 3 (runtime demo)       | `cargo run -p clinfl-bench --release --bin fig3_demo` |
//! | Ablations (extensions)      | `ablation_aggregators`, `ablation_pretrain`; partition, FedProx and privacy axes are `clinfl federated --partition/--fedprox-mu/--dp-*` runs and `scenario_matrix` cells |
//! | Tape allocation pressure    | `cargo run -p clinfl-bench --release --bin alloc_stats` |
//! | Kernel micro-benchmarks     | `cargo run -p clinfl-bench --release --bin bench_kernels -- --run` |
//!
//! `--scale N` divides the paper's data volumes by `N` (default shown per
//! binary); `--scale 1` is full paper scale. `--seed N` reseeds every
//! binary, and the federated ones (`table3_accuracy`,
//! `ablation_aggregators`) also take `--rounds N`. Results are recorded
//! in the repository's `EXPERIMENTS.md`.

/// Parses `--scale N` plus the run keys in `reads` (`"seed"`,
/// `"rounds"`, as the flags `clinfl federated` spells them) over
/// `PipelineConfig::scaled(N)`. Exits with status 2, naming the flag, on
/// a bad `--scale`, an unknown key, a key the binary does not read or a
/// bad value.
pub fn parse_args(default_scale: usize, reads: &[&str]) -> BenchArgs {
    let fail = |why: String| -> ! {
        let keys: String = reads.iter().map(|k| format!(" [--{k} N]")).collect();
        eprintln!("{why}\nusage: [--scale N]{keys}");
        std::process::exit(2)
    };
    let mut scale = default_scale;
    let mut keys = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match (a.as_str(), it.next()) {
            ("--scale", Some(v)) => {
                scale = v
                    .parse()
                    .unwrap_or_else(|_| fail(format!("--scale: invalid value {v:?}")))
            }
            ("--scale", None) => fail("--scale needs a value".to_string()),
            (_, v) => keys.extend([a].into_iter().chain(v)),
        }
    }
    let base = clinfl::RunSpec::new(
        clinfl::PipelineConfig::scaled(scale),
        clinfl::Partition::Imbalanced,
    );
    let excluded: Vec<&str> = clinfl::RUN_KEYS
        .into_iter()
        .filter(|k| !reads.contains(k))
        .collect();
    match base.parse_args(keys, &excluded) {
        Ok(spec) => BenchArgs { scale, spec },
        Err(e) => fail(e),
    }
}

/// Parsed benchmark arguments.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Data-volume divisor relative to paper scale.
    pub scale: usize,
    /// The run the flags describe.
    pub spec: clinfl::RunSpec,
}

impl BenchArgs {
    /// The pipeline config for this scale and these keys.
    pub fn config(&self) -> clinfl::PipelineConfig {
        self.spec.pipeline.clone()
    }
}

/// What a report bench (`bench_report`, `bench_kernels`, `bench_scaling`,
/// `scenario_matrix`) was asked to do.
#[derive(Clone, Debug, PartialEq)]
pub enum ReportMode {
    /// Run the workload and write the report to this path.
    Run(String),
    /// Validate the report at this path, with the gate threshold if one
    /// was given.
    Check(String, Option<f64>),
}

/// Parses `RUN [--out PATH] | --check PATH [GATE X]`, the command line
/// every report bench shares: `run` is its run flag (`--smoke` or
/// `--run`), `gate` its threshold flag, if it has one. Prints `usage`
/// and exits with status 2 on anything else.
pub fn report_args(run: &str, default_out: &str, gate: Option<&str>, usage: &str) -> ReportMode {
    let fail = |why: String| -> ! {
        eprintln!("{why}\nusage: {usage}");
        std::process::exit(2)
    };
    let (mut go, mut out, mut check, mut threshold) = (false, default_out.to_string(), None, None);
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| fail(format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--out" => out = value(),
            "--check" => check = Some(value()),
            a if a == run => go = true,
            a if Some(a) == gate => {
                let v = value();
                threshold = Some(
                    v.parse()
                        .unwrap_or_else(|_| fail(format!("{a}: not a number: {v:?}"))),
                );
            }
            other => fail(format!("unknown argument {other:?}")),
        }
    }
    match (check, go) {
        (Some(path), _) => ReportMode::Check(path, threshold),
        (None, true) => ReportMode::Run(out),
        (None, false) => fail("nothing to do".to_string()),
    }
}

/// Reads the report at `path` for a `--check`, returning it with the
/// schema-stamp violation, if any, as the first error. Exits with status
/// 1 when the file is unreadable or not JSON.
pub fn load_report(path: &str, schema: &str) -> (clinfl_obs::json::Value, Vec<String>) {
    use clinfl_obs::json::Value;
    let report = std::fs::read_to_string(path)
        .map_err(|e| format!("unreadable: {e}"))
        .and_then(|text| Value::parse(&text).map_err(|e| format!("unparsable JSON: {e}")));
    let report = report.unwrap_or_else(|e| {
        eprintln!("FAIL {path}: {e}");
        std::process::exit(1)
    });
    let mut errors = Vec::new();
    if report.get("schema").and_then(Value::as_str) != Some(schema) {
        errors.push(format!("schema field is not {schema:?}"));
    }
    (report, errors)
}

/// Ends a `--check`: prints every violation and exits with status 1, or
/// prints `OK <path>: valid <schema><summary>`.
pub fn finish_check(path: &str, schema: &str, errors: &[String], summary: &str) {
    if errors.is_empty() {
        println!("OK {path}: valid {schema}{summary}");
        return;
    }
    for e in errors {
        eprintln!("FAIL {path}: {e}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    #[test]
    fn seed_key_seeds_training_and_the_cohort() {
        let spec = clinfl::RunSpec::new(
            clinfl::PipelineConfig::scaled(8),
            clinfl::Partition::Imbalanced,
        )
        .parse_args(["--seed".to_string(), "123".to_string()], &[])
        .unwrap();
        let args = super::BenchArgs { scale: 8, spec };
        assert_eq!(args.config().seed, 123);
        assert_eq!(args.config().cohort.seed, 123);
    }
}
