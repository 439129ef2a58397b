//! Scenario-matrix sweep: federated runs across partition skew × client
//! sampling × DP-SGD × personalization, written as a schema-stable
//! `BENCH_scenarios.json` (ROADMAP item 4; DESIGN.md §3k).
//!
//! Modes:
//!
//! * `scenario_matrix --smoke [--out PATH]` — run the 10-cell smoke grid
//!   ({balanced, dirichlet(0.3)} partitions × sample fraction {1.0, 0.5}
//!   × DP {off, on}, plus one personalization + FedProx arm per
//!   partition) at fast-demo scale and write the report (default
//!   `BENCH_scenarios.json`). The baseline cell (balanced, fraction 1.0,
//!   DP off) is re-run through the plain `train_federated_with` path and
//!   must match bit-for-bit: a cell is a `RunSpec` run exactly like
//!   `clinfl federated`, and sampling and DP knobs at their disabled
//!   settings take the exact legacy code path.
//! * `scenario_matrix --check PATH` — validate an existing report
//!   against the `clinfl-bench-scenarios/v1` schema; exits non-zero
//!   (listing every violation) if the file is missing, unparsable, or
//!   incomplete: ≥ 8 cells, both partition kinds present, every accuracy
//!   in `[0, 1]`, and a finite positive ε on every DP cell.
//!
//! CI runs both back to back (`scripts/check.sh scenarios`) and uploads
//! the JSON as a build artifact.

use clinfl::{drivers, ModelSpec, Partition, PipelineConfig, RunSpec};
use clinfl_data::SitePartitioner;
use clinfl_flare::EventLog;
use clinfl_obs::json::Value;

/// Schema identifier stamped into (and required from) every report.
const SCHEMA: &str = "clinfl-bench-scenarios/v1";

/// DP-SGD settings used by every DP-on cell.
const DP_CLIP: f32 = 1.0;
const DP_SIGMA: f32 = 0.8;

/// The shared base every cell perturbs: fast-demo scale with a slightly
/// smaller cohort so the full grid stays CI-friendly.
fn base_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::fast_demo();
    cfg.cohort.n_patients = 160;
    cfg
}

/// The smoke grid, one run spec per cell: the full 2×2×2 core (both
/// partitions × sampling on/off × DP on/off) plus a personalization +
/// FedProx arm per partition.
fn smoke_grid() -> Vec<RunSpec> {
    let mut cells = Vec::new();
    for partition in [Partition::Balanced, Partition::Dirichlet(0.3)] {
        for (fraction, dp, personalize) in [
            (1.0, false, false),
            (1.0, true, false),
            (0.5, false, false),
            (0.5, true, false),
            (0.5, false, true),
        ] {
            let mut spec = RunSpec::new(base_config(), partition);
            let rt = &mut spec.pipeline.runtime;
            rt.client_sample_fraction = fraction;
            if dp {
                rt.dp_clip = Some(DP_CLIP);
                rt.dp_sigma = DP_SIGMA;
            }
            if personalize {
                rt.fedprox_mu = Some(0.01);
                rt.personalize_epochs = 1;
            }
            cells.push(spec);
        }
    }
    cells
}

/// The partition kind as the report names it.
fn partition_kind(cell: &RunSpec) -> &'static str {
    match cell.partition {
        Partition::Dirichlet(_) => "dirichlet",
        _ => "balanced",
    }
}

fn cell_name(cell: &RunSpec) -> String {
    let rt = &cell.pipeline.runtime;
    let mut name = format!("{}/f{:.2}", partition_kind(cell), rt.client_sample_fraction);
    name.push_str(if rt.dp_clip.is_some() {
        "/dp-on"
    } else {
        "/dp-off"
    });
    if rt.personalize_epochs > 0 {
        name.push_str("/personalized");
    }
    name
}

fn cell_value(cell: &RunSpec, outcome: &drivers::TrainOutcome) -> Value {
    let rt = &cell.pipeline.runtime;
    let dp = rt.dp_clip.is_some();
    let (epsilon, delta) = outcome.privacy.unwrap_or((0.0, 0.0));
    let when = |on: bool, v: f64| if on { Value::Float(v) } else { Value::Null };
    let alpha = match cell.partition {
        Partition::Dirichlet(alpha) => Value::Float(alpha),
        _ => Value::Null,
    };
    Value::object(vec![
        ("name", Value::Str(cell_name(cell))),
        ("partition", Value::Str(partition_kind(cell).to_string())),
        ("alpha", alpha),
        ("sample_fraction", Value::Float(rt.client_sample_fraction)),
        ("dp", Value::Bool(dp)),
        ("dp_clip", when(dp, f64::from(DP_CLIP))),
        ("dp_sigma", when(dp, f64::from(DP_SIGMA))),
        (
            "fedprox_mu",
            Value::Float(f64::from(rt.fedprox_mu.unwrap_or(0.0))),
        ),
        (
            "personalize_epochs",
            Value::UInt(u64::from(rt.personalize_epochs)),
        ),
        ("accuracy", Value::Float(outcome.accuracy)),
        ("epsilon", when(dp, epsilon)),
        ("delta", when(dp, delta)),
        (
            "personalized_mean",
            when(
                outcome.personalized_mean.is_some(),
                outcome.personalized_mean.unwrap_or(0.0),
            ),
        ),
    ])
}

fn run_smoke(out: &str) {
    let cfg = base_config();
    let cells = smoke_grid();
    println!(
        "== scenario_matrix: {} cells ({} sites, {} rounds each) ==",
        cells.len(),
        cfg.n_clients,
        cfg.rounds
    );
    let mut rows = Vec::new();
    for cell in &cells {
        let outcome = drivers::train_spec(cell, EventLog::new()).expect("scenario cell failed");
        let mut line = format!("{:<40} accuracy={:.3}", cell_name(cell), outcome.accuracy);
        if let Some((eps, delta)) = outcome.privacy {
            line.push_str(&format!("  (eps={eps:.3}, delta={delta:.0e})"));
        }
        if let Some(mean) = outcome.personalized_mean {
            line.push_str(&format!("  personalized={mean:.3}"));
        }
        println!("{line}");
        rows.push((cell, outcome));
    }

    // The disabled-knob cell must be bit-identical to the plain driver
    // path: fraction >= 1.0 and DP off change no code that touches data.
    let baseline = rows
        .iter()
        .find(|(c, _)| cell_name(c) == "balanced/f1.00/dp-off")
        .expect("grid always contains the baseline cell");
    let cfg = base_config();
    let reference = drivers::train_federated_with(
        &cfg,
        ModelSpec::Lstm,
        &SitePartitioner::Balanced {
            n_sites: cfg.n_clients,
        },
        EventLog::new(),
    )
    .expect("reference run failed");
    assert_eq!(
        baseline.1.accuracy.to_bits(),
        reference.accuracy.to_bits(),
        "baseline cell must be bit-identical to the plain federated path"
    );
    println!("determinism check passed: baseline cell == plain federated run");

    let report = Value::object(vec![
        ("schema", Value::Str(SCHEMA.to_string())),
        (
            "run",
            Value::object(vec![
                ("workload", Value::Str("scenario-matrix-smoke".to_string())),
                ("n_clients", Value::UInt(cfg.n_clients as u64)),
                ("rounds", Value::UInt(u64::from(cfg.rounds))),
                ("seed", Value::UInt(cfg.seed)),
                ("cells", Value::UInt(rows.len() as u64)),
            ]),
        ),
        (
            "cells",
            Value::Array(rows.iter().map(|(c, o)| cell_value(c, o)).collect()),
        ),
    ]);
    std::fs::write(out, report.to_json()).expect("write report");
    println!("report written to {out}");
}

/// Validates `path` against the v1 schema; prints every violation and
/// exits 1 if any is found.
fn run_check(path: &str) {
    let (report, mut errors) = clinfl_bench::load_report(path, SCHEMA);
    let cells = report.get("cells").and_then(Value::as_array).unwrap_or(&[]);
    if cells.len() < 8 {
        errors.push(format!("only {} cells, need >= 8", cells.len()));
    }
    let mut partitions = std::collections::BTreeSet::new();
    let (mut sampled_on, mut sampled_off, mut dp_on, mut dp_off) = (0, 0, 0, 0);
    for (i, cell) in cells.iter().enumerate() {
        let name = cell
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("<unnamed>")
            .to_string();
        match cell.get("partition").and_then(Value::as_str) {
            Some(p) => {
                partitions.insert(p.to_string());
            }
            None => errors.push(format!("cell {i} ({name}): partition missing")),
        }
        match cell.get("accuracy").and_then(Value::as_f64) {
            Some(a) if (0.0..=1.0).contains(&a) => {}
            Some(a) => errors.push(format!("cell {i} ({name}): accuracy {a} outside [0, 1]")),
            None => errors.push(format!("cell {i} ({name}): accuracy missing")),
        }
        match cell.get("sample_fraction").and_then(Value::as_f64) {
            Some(f) if f >= 1.0 => sampled_off += 1,
            Some(f) if f > 0.0 => sampled_on += 1,
            _ => errors.push(format!("cell {i} ({name}): bad sample_fraction")),
        }
        let dp = matches!(cell.get("dp"), Some(Value::Bool(true)));
        if dp {
            dp_on += 1;
            match cell.get("epsilon").and_then(Value::as_f64) {
                Some(eps) if eps > 0.0 && eps.is_finite() => {}
                other => errors.push(format!(
                    "cell {i} ({name}): DP on but epsilon {other:?} is not finite-positive"
                )),
            }
            match cell.get("delta").and_then(Value::as_f64) {
                Some(d) if d > 0.0 && d < 1.0 => {}
                other => errors.push(format!(
                    "cell {i} ({name}): DP on but delta {other:?} outside (0, 1)"
                )),
            }
        } else {
            dp_off += 1;
        }
    }
    for p in ["balanced", "dirichlet"] {
        if !partitions.contains(p) {
            errors.push(format!("no {p:?} partition cell in the grid"));
        }
    }
    for (what, n) in [
        ("sampling-on", sampled_on),
        ("sampling-off", sampled_off),
        ("dp-on", dp_on),
        ("dp-off", dp_off),
    ] {
        if n == 0 {
            errors.push(format!("no {what} cell in the grid"));
        }
    }

    let summary = format!(" ({} cells)", cells.len());
    clinfl_bench::finish_check(path, SCHEMA, &errors, &summary);
}

fn main() {
    let usage = "scenario_matrix --smoke [--out PATH] | --check PATH";
    match clinfl_bench::report_args("--smoke", "BENCH_scenarios.json", None, usage) {
        clinfl_bench::ReportMode::Run(out) => run_smoke(&out),
        clinfl_bench::ReportMode::Check(path, _) => run_check(&path),
    }
}
