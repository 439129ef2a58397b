//! Scaling-curve bench for the event-driven server and aggregation tree:
//! runs the in-process federation at 8 → 64 → 256 → 1024 simulated sites
//! (fan-out 8, auto-sized tree depth) and writes a schema-stable
//! `BENCH_scaling.json` with per-scale root round latency, byte totals at
//! the root vs the interior nodes vs the leaves, and peak session counts.
//!
//! Modes:
//!
//! * `bench_scaling --run [--out PATH]` — run every scale with a trivial
//!   arithmetic executor (no training, no sleeping — the curve isolates
//!   runtime overhead) and write the report (default `BENCH_scaling.json`).
//! * `bench_scaling --check PATH [--max-ratio R]` — validate an existing
//!   report against the `clinfl-bench-scaling/v1` schema and enforce the
//!   scaling gate: root round latency at the largest scale must stay
//!   within `R`× (default 4) of the 64-site latency.
//!
//! "Root round latency" is the root server's measured per-round frame
//! processing time (`flare.server.frame_work_ns` / rounds): the work
//! attributable to the root itself. With tree aggregation that is
//! `O(fanout)` per round instead of `O(n)` — a flat 1024-site fleet
//! funnels every submission through the root and blows the gate, a tree
//! root handles only its children. End-to-end round wall time
//! (`round_mean_ms`, also recorded) is *not* gated: every leaf still
//! trains and serializes each round, so on a fixed-core box total round
//! time grows with n under any topology — the tree flattens the root's
//! share of it, which is exactly what the gate pins.
//!
//! Knobs (recorded in the report, and in the CI cache-key comment):
//! `CLINFL_SCALE_SITES` (comma-separated site counts, default
//! `8,64,256,1024`), `CLINFL_SCALE_ROUNDS` (default 3),
//! `CLINFL_SCALE_FANOUT` (default 8).

use clinfl_flare::aggregator::WeightedFedAvg;
use clinfl_flare::controller::SagConfig;
use clinfl_flare::executor::ArithmeticExecutor;
use clinfl_flare::simulator::{SimulatorConfig, SimulatorRunner, TreeConfig};
use clinfl_flare::{WeightTensor, Weights};
use clinfl_obs::json::Value;
use clinfl_obs::MetricsSnapshot;
use std::time::{Duration, Instant};

/// Schema identifier stamped into (and required from) every report.
const SCHEMA: &str = "clinfl-bench-scaling/v1";

/// Floor for the gate's denominator: sub-millisecond root work is
/// dominated by scheduler noise, not aggregation cost. A flat 1024-site
/// root still burns tens of ms/round on frame handling, so the floor
/// keeps the gate meaningful while absorbing timer jitter.
const LATENCY_FLOOR_MS: f64 = 2.0;

/// Default gate: largest-scale round latency within 4× the 64-site one.
const DEFAULT_MAX_RATIO: f64 = 4.0;

fn main() {
    let usage = "bench_scaling --run [--out PATH] | --check PATH [--max-ratio R]";
    match clinfl_bench::report_args("--run", "BENCH_scaling.json", Some("--max-ratio"), usage) {
        clinfl_bench::ReportMode::Run(out) => run_curve(&out),
        clinfl_bench::ReportMode::Check(path, max) => {
            run_check(&path, max.unwrap_or(DEFAULT_MAX_RATIO))
        }
    }
}

/// Site counts to sweep, from `CLINFL_SCALE_SITES` or the paper-to-fleet
/// default curve.
fn scales_from_env() -> Vec<usize> {
    match std::env::var("CLINFL_SCALE_SITES") {
        Ok(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .expect("CLINFL_SCALE_SITES must be comma-separated site counts")
            })
            .collect(),
        Err(_) => vec![8, 64, 256, 1024],
    }
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{key} must be an integer"))
        })
        .unwrap_or(default)
}

/// A small but non-degenerate model so byte counts are meaningful:
/// four 256-float tensors (4 KiB of payload per exchange).
fn initial_weights() -> Weights {
    let mut w = Weights::new();
    for name in ["embed", "lstm.ih", "lstm.hh", "head"] {
        w.insert(
            name.to_string(),
            WeightTensor::new(vec![256], vec![0.01; 256]),
        );
    }
    w
}

struct ScaleOutcome {
    sites: usize,
    depth: u32,
    fanout: usize,
    rounds: u32,
    wall: Duration,
    delta: MetricsSnapshot,
}

/// Runs one scale point and returns the metrics delta for just that run.
/// Peak-session gauges are high-water marks, so they are re-zeroed before
/// each run to keep the per-scale readings honest.
fn run_scale(sites: usize, rounds: u32, fanout: usize) -> ScaleOutcome {
    for g in ["flare.server.sessions_peak", "flare.tree.sessions_peak"] {
        clinfl_obs::gauge(g).set(0);
    }
    let tree = TreeConfig::auto(sites, fanout);
    let config = SimulatorConfig {
        n_clients: sites,
        sag: SagConfig {
            rounds,
            min_clients: 1,
            round_timeout: Duration::from_secs(300),
            validate_global: false,
            ..SagConfig::default()
        },
        seed: 2023,
        tree: (tree.depth >= 2).then_some(tree),
        ..SimulatorConfig::default()
    };
    let runner = SimulatorRunner::new(config);
    let before = clinfl_obs::snapshot();
    let started = Instant::now();
    let result = runner
        .run_simple(
            initial_weights(),
            |i, _| {
                Box::new(ArithmeticExecutor {
                    delta: 1e-4 * (i % 7 + 1) as f32,
                    n_examples: 50 + (i as u64 % 13),
                })
            },
            &WeightedFedAvg,
        )
        .unwrap_or_else(|e| panic!("{sites}-site run failed: {e}"));
    let wall = started.elapsed();
    let after = clinfl_obs::snapshot();
    assert_eq!(
        result.workflow.rounds.len(),
        rounds as usize,
        "{sites}-site run completed {} of {rounds} rounds",
        result.workflow.rounds.len()
    );
    ScaleOutcome {
        sites,
        depth: tree.depth.max(1),
        fanout,
        rounds,
        wall,
        delta: snapshot_delta(&before, &after),
    }
}

fn run_curve(out: &str) {
    clinfl_obs::set_enabled(true);
    let scales = scales_from_env();
    let rounds = env_usize("CLINFL_SCALE_ROUNDS", 3) as u32;
    let fanout = env_usize("CLINFL_SCALE_FANOUT", 8);
    println!("== bench_scaling: {scales:?} sites, {rounds} rounds, fan-out {fanout} ==");

    let mut outcomes = Vec::new();
    for &sites in &scales {
        let o = run_scale(sites, rounds, fanout);
        println!(
            "{:>5} sites (depth {}): {:>8.1} ms/round end-to-end, \
             root work {:>6.2} ms/round, root {:>6} B/round, wall {:.2}s",
            o.sites,
            o.depth,
            round_mean_ms(&o.delta),
            root_work_ms(&o),
            root_bytes_per_round(&o),
            o.wall.as_secs_f64(),
        );
        outcomes.push(o);
    }

    let report = build_report(&outcomes);
    std::fs::write(out, report.to_json()).expect("write report");
    println!("report written to {out}");
}

fn round_mean_ms(m: &MetricsSnapshot) -> f64 {
    m.histograms
        .get("flare.round.time_ns")
        .map_or(0.0, |h| h.mean() / 1e6)
}

/// Root-attributable processing per round: the root reactor's frame
/// handling time (decrypt, decode, route, submit bookkeeping) divided by
/// the round count. Registration-time frames amortize into this too,
/// which only makes the gate stricter for a root with wide fan-in.
fn root_work_ms(o: &ScaleOutcome) -> f64 {
    o.delta.counter("flare.server.frame_work_ns") as f64 / 1e6 / f64::from(o.rounds.max(1))
}

fn root_bytes_per_round(o: &ScaleOutcome) -> u64 {
    let total = o.delta.counter("flare.server.bytes_tx") + o.delta.counter("flare.server.bytes_rx");
    total / u64::from(o.rounds.max(1))
}

fn build_report(outcomes: &[ScaleOutcome]) -> Value {
    let scales: Vec<Value> = outcomes.iter().map(scale_record).collect();
    // The gate compares the largest scale against the 64-site anchor (or
    // the smallest available scale when the sweep was overridden).
    let anchor = outcomes
        .iter()
        .find(|o| o.sites == 64)
        .or_else(|| outcomes.first())
        .map_or(0.0, root_work_ms);
    let top = outcomes.last().map_or(0.0, root_work_ms);
    let ratio = top / anchor.max(LATENCY_FLOOR_MS);
    Value::object(vec![
        ("schema", Value::Str(SCHEMA.to_string())),
        (
            "run",
            Value::object(vec![
                ("workload", Value::Str("scaling-curve".to_string())),
                (
                    "rounds",
                    Value::UInt(outcomes.first().map_or(0, |o| u64::from(o.rounds))),
                ),
                (
                    "fanout",
                    Value::UInt(outcomes.first().map_or(0, |o| o.fanout as u64)),
                ),
            ]),
        ),
        ("scales", Value::Array(scales)),
        (
            "gate",
            Value::object(vec![
                ("metric", Value::Str("root_round_work_ms".to_string())),
                ("anchor_sites", Value::UInt(64)),
                ("anchor_root_work_ms", Value::Float(anchor)),
                (
                    "top_sites",
                    Value::UInt(outcomes.last().map_or(0, |o| o.sites as u64)),
                ),
                ("top_root_work_ms", Value::Float(top)),
                ("latency_floor_ms", Value::Float(LATENCY_FLOOR_MS)),
                ("ratio", Value::Float(ratio)),
            ]),
        ),
    ])
}

fn scale_record(o: &ScaleOutcome) -> Value {
    let m = &o.delta;
    let round = m
        .histograms
        .get("flare.round.time_ns")
        .cloned()
        .unwrap_or_default();
    let pair = |ns: &str| {
        Value::object(vec![
            (
                "bytes_tx",
                Value::UInt(m.counter(&format!("{ns}.bytes_tx"))),
            ),
            (
                "bytes_rx",
                Value::UInt(m.counter(&format!("{ns}.bytes_rx"))),
            ),
        ])
    };
    Value::object(vec![
        ("sites", Value::UInt(o.sites as u64)),
        ("tree_depth", Value::UInt(u64::from(o.depth))),
        ("fanout", Value::UInt(o.fanout as u64)),
        ("rounds", Value::UInt(u64::from(o.rounds))),
        ("root_round_work_ms", Value::Float(root_work_ms(o))),
        ("round_mean_ms", Value::Float(round.mean() / 1e6)),
        ("round_max_ms", Value::Float(round.max as f64 / 1e6)),
        ("wall_ms", Value::Float(o.wall.as_secs_f64() * 1e3)),
        ("root", pair("flare.server")),
        ("interior", pair("flare.tree")),
        ("interior_uplink", pair("flare.tree.uplink")),
        ("leaves", pair("flare.client")),
        (
            "sessions",
            Value::object(vec![
                (
                    "root_peak",
                    Value::Int(
                        m.gauges
                            .get("flare.server.sessions_peak")
                            .copied()
                            .unwrap_or(0),
                    ),
                ),
                (
                    "interior_peak",
                    Value::Int(
                        m.gauges
                            .get("flare.tree.sessions_peak")
                            .copied()
                            .unwrap_or(0),
                    ),
                ),
            ]),
        ),
    ])
}

/// Per-counter difference `after - before`; gauges are level readings
/// (peaks re-zeroed per scale in `run_scale`), so the latest value wins.
fn snapshot_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    let mut delta = MetricsSnapshot::default();
    for (k, &v) in &after.counters {
        let prev = before.counters.get(k).copied().unwrap_or(0);
        delta.counters.insert(k.clone(), v.saturating_sub(prev));
    }
    delta.gauges = after.gauges.clone();
    for (k, h) in &after.histograms {
        let prev = before.histograms.get(k);
        let mut snap = h.clone();
        snap.count = h.count.saturating_sub(prev.map_or(0, |p| p.count));
        snap.sum = h.sum.saturating_sub(prev.map_or(0, |p| p.sum));
        snap.buckets = h
            .buckets
            .iter()
            .filter_map(|&(i, n)| {
                let p = prev
                    .and_then(|p| p.buckets.iter().find(|&&(pi, _)| pi == i))
                    .map_or(0, |&(_, pn)| pn);
                (n > p).then_some((i, n - p))
            })
            .collect();
        delta.histograms.insert(k.clone(), snap);
    }
    delta
}

/// Validates `path` against the v1 schema and enforces the latency gate;
/// prints every violation and exits 1 if any is found.
fn run_check(path: &str, max_ratio: f64) {
    let (report, mut errors) = clinfl_bench::load_report(path, SCHEMA);
    let scales = report
        .get("scales")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    if scales.is_empty() {
        errors.push("scales array missing or empty".to_string());
    }
    let mut prev_sites = 0u64;
    for (i, s) in scales.iter().enumerate() {
        let sites = s.get("sites").and_then(Value::as_u64).unwrap_or(0);
        if sites <= prev_sites {
            errors.push(format!("scales[{i}].sites not strictly increasing"));
        }
        prev_sites = sites;
        for field in ["root_round_work_ms", "round_mean_ms", "wall_ms"] {
            if s.get(field).and_then(Value::as_f64).is_none() {
                errors.push(format!("scales[{i}].{field} missing"));
            }
        }
        if s.get("tree_depth")
            .and_then(Value::as_u64)
            .is_none_or(|d| d == 0)
        {
            errors.push(format!("scales[{i}].tree_depth missing or zero"));
        }
        for section in ["root", "leaves"] {
            let bytes = s
                .get(section)
                .and_then(|b| b.get("bytes_tx"))
                .and_then(Value::as_u64);
            if bytes.is_none_or(|b| b == 0) {
                errors.push(format!("scales[{i}].{section}.bytes_tx missing or zero"));
            }
        }
        if s.get("sessions")
            .and_then(|v| v.get("root_peak"))
            .and_then(Value::as_i64)
            .is_none_or(|p| p < 1)
        {
            errors.push(format!("scales[{i}].sessions.root_peak missing or < 1"));
        }
        // Deep trees must actually shrink the root's fan-in: with an
        // aggregation tree the root sees its children, not every site.
        let depth = s.get("tree_depth").and_then(Value::as_u64).unwrap_or(1);
        let root_peak = s
            .get("sessions")
            .and_then(|v| v.get("root_peak"))
            .and_then(Value::as_i64)
            .unwrap_or(0);
        if depth >= 2 && root_peak as u64 >= sites && sites > 1 {
            errors.push(format!(
                "scales[{i}]: tree depth {depth} but root held {root_peak} sessions \
                 for {sites} sites (tree not engaged?)"
            ));
        }
    }
    match (
        report
            .get("gate")
            .and_then(|g| g.get("ratio"))
            .and_then(Value::as_f64),
        report
            .get("gate")
            .and_then(|g| g.get("top_root_work_ms"))
            .and_then(Value::as_f64),
    ) {
        (Some(ratio), Some(top)) => {
            if ratio > max_ratio {
                errors.push(format!(
                    "root round latency grew super-logarithmically: root work at \
                     the top scale is {top:.2} ms/round, {ratio:.2}x the 64-site \
                     anchor (allowed {max_ratio}x)"
                ));
            }
        }
        _ => errors.push("gate.ratio / gate.top_root_work_ms missing".to_string()),
    }

    let summary = format!(", scaling gate within {max_ratio}x");
    clinfl_bench::finish_check(path, SCHEMA, &errors, &summary);
}
