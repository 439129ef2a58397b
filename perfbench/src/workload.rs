//! The three workloads: sizes, the measuring loop, the end-to-end and
//! per-layer metrics, and the correctness checks.

use crate::adapter::{self, ClinicalSpec, FleetSpec, LogLine, Model, RepOutcome, N_SITES};
use crate::metrics::{max, median, Report};
use crate::trace::{Event, Recorder, SpanTree};
use crate::Args;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["lstm-fedavg", "bert-fedavg", "fleet-exchange"];

/// Minimum federation runs per invocation, whatever `--seconds` says: the
/// same-seed weight hashes are compared across them and set-up time is
/// their median.
const MIN_REPS: usize = 3;

/// Zero-round federations stood up per invocation; `setup_s` is the
/// median of their set-up times.
const SETUP_REPS: usize = 7;

/// Shortest acceptable child coverage of a round span in the trace.
const MIN_ROUND_COVERAGE: f64 = 0.9;

/// Smallest acceptable wire reduction of the exchange codec.
const MIN_WIRE_REDUCTION: f64 = 10.0;

#[derive(Clone, Debug)]
enum Shape {
    Clinical(ClinicalSpec),
    Fleet(FleetSpec),
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn shape(args: &Args, tag: &str) -> Shape {
    let clinical = |model, n_patients, rounds, local_epochs| {
        Shape::Clinical(ClinicalSpec {
            model,
            n_patients,
            rounds,
            local_epochs,
            seed: args.seed,
        })
    };
    match (args.workload.as_str(), args.tiny) {
        ("lstm-fedavg", false) => clinical(Model::Lstm, 539, 3, 2),
        ("lstm-fedavg", true) => clinical(Model::Lstm, 64, 2, 1),
        ("bert-fedavg", false) => clinical(Model::Bert, 135, 3, 2),
        ("bert-fedavg", true) => clinical(Model::Bert, 64, 2, 1),
        (_, tiny) => Shape::Fleet(FleetSpec {
            rounds: if tiny { 3 } else { 6 },
            seed: args.seed,
            n_examples: 432,
            checkpoint_dir: out_dir().join(format!("ckpt-{tag}")),
        }),
    }
}

/// One federation run; `keep` keeps its final weights.
fn rep(shape: &Shape, rec: Option<&Recorder>, keep: bool) -> Result<RepOutcome, String> {
    let base = rec.map_or_else(Instant::now, Recorder::base);
    match shape {
        Shape::Clinical(spec) => adapter::clinical_rep(spec, base, rec, keep),
        Shape::Fleet(spec) => adapter::fleet_rep(spec, base, rec, keep),
    }
}

/// `lstm-fedavg`: the global model's loss over the pooled training shards
/// falls from the weights round 0 starts from to the final ones. Not
/// applied to `bert-fedavg`, where it does not hold at this size (see
/// `perfbench/README.md`).
fn check_training(report: &mut Report, shape: &Shape, first: &RepOutcome) {
    if let Shape::Clinical(
        spec @ ClinicalSpec {
            model: Model::Lstm, ..
        },
    ) = shape
    {
        let initial = adapter::pooled_loss(spec, None);
        let last = adapter::pooled_loss(spec, first.final_weights.as_ref());
        report.check(
            format!("global model's training loss falls from round 0 ({initial:.4} -> {last:.4})"),
            last < initial,
        );
    }
}

/// Server-side phase boundaries of one round, read from the event log.
#[derive(Clone, Copy, Debug, Default)]
struct RoundLog {
    start: f64,
    scattered: f64,
    aggregating: f64,
    aggregated: f64,
    persist_start: f64,
    persist_end: f64,
    end: f64,
}

fn round_logs(log: &[LogLine]) -> Vec<RoundLog> {
    let mut rounds = Vec::new();
    let mut cur = RoundLog::default();
    for l in log.iter().filter(|l| l.component == "ScatterAndGather") {
        let m = l.message.as_str();
        if m.starts_with("Round ") && m.ends_with(" started.") {
            cur = RoundLog {
                start: l.at,
                ..RoundLog::default()
            };
        } else if m.starts_with("Scattered global model") {
            cur.scattered = l.at;
        } else if m.starts_with("aggregating ") {
            cur.aggregating = l.at;
        } else if m == "End aggregation." {
            cur.aggregated = l.at;
        } else if m == "Start persist model on server." {
            cur.persist_start = l.at;
        } else if m == "End persist model on server." {
            cur.persist_end = l.at;
        } else if m.starts_with("Round ") && m.ends_with(" finished.") {
            cur.end = l.at;
            rounds.push(cur);
        }
    }
    rounds
}

/// Seconds from a run's start until its controller enters the round
/// loop: the `Round 0 started.` entry, or the end of a zero-round run.
fn setup_s(r: &RepOutcome) -> Result<f64, String> {
    r.log
        .iter()
        .find(|l| {
            l.component == "ScatterAndGather"
                && (l.message == "Round 0 started." || l.message.starts_with("Workflow finished"))
        })
        .map(|l| l.at)
        .ok_or_else(|| "the controller never entered its round loop".to_string())
}

/// The same workload stood up for zero rounds.
fn setup_only(shape: &Shape) -> Shape {
    match shape {
        Shape::Clinical(s) => Shape::Clinical(ClinicalSpec { rounds: 0, ..*s }),
        Shape::Fleet(s) => Shape::Fleet(FleetSpec {
            rounds: 0,
            ..s.clone()
        }),
    }
}

/// Per-run figures the end-to-end metrics are medians of.
struct RepFigures {
    run_s: f64,
    round_ms: Vec<f64>,
    samples_per_s: f64,
    wire_mb_per_round: f64,
}

fn figures(r: &RepOutcome) -> Result<RepFigures, String> {
    let rounds = round_logs(&r.log);
    let first = rounds.first().ok_or("no round finished")?;
    let run_s = r.returned_at - first.start;
    let n = rounds.len() as f64;
    Ok(RepFigures {
        run_s,
        round_ms: rounds.iter().map(|x| (x.end - x.start) * 1e3).collect(),
        samples_per_s: r.examples_per_round as f64 * n / run_s,
        wire_mb_per_round: r.counters.wire_bytes as f64 / n / 1e6,
    })
}

fn env_context(report: &mut Report, args: &Args, cleared: &[String]) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    report.context.push(format!(
        "perfbench workload={} seed={} seconds={} trace={} tiny={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.tiny
    ));
    report.context.push(format!(
        "env threads={} nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" cleared={cleared:?}",
        adapter::thread_budget(),
        env!("PERFBENCH_RUSTC_VERSION"),
    ));
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Pins the environment and the thread budget before anything runs.
fn pin_environment(tag: &str) -> Result<Vec<String>, String> {
    let mut cleared = Vec::new();
    for knob in adapter::PROGRAM_ENV_KNOBS {
        if std::env::var_os(knob).is_some() {
            std::env::remove_var(knob);
            cleared.push(knob.to_string());
        }
    }
    let obs = out_dir().join("obs").join(tag);
    let _ = std::fs::remove_dir_all(&obs);
    std::fs::create_dir_all(&obs).map_err(|e| format!("cannot create {obs:?}: {e}"))?;
    std::env::set_var("CLINFL_OBS_DIR", &obs);
    adapter::enable_counters();
    adapter::set_threads(std::thread::available_parallelism().map_or(1, |n| n.get()));
    Ok(cleared)
}

/// Runs one invocation.
pub fn run(args: &Args) -> Result<Report, String> {
    let tag = format!(
        "{}-seed{}-trace{}{}",
        args.workload,
        args.seed,
        args.trace as u8,
        if args.tiny { "-tiny" } else { "" }
    );
    let cleared = pin_environment(&tag)?;
    let mut report = Report::default();
    env_context(&mut report, args, &cleared);
    let shape = shape(args, &tag);
    let mut report = if args.trace {
        traced(args, &shape, report, &tag)?
    } else {
        untraced(args, &shape, report)?
    };
    report.finish();
    let path = out_dir().join(format!("{tag}.txt"));
    std::fs::write(&path, report.render()).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    Ok(report)
}

/// Checks shared by both modes; also sets the attempted and failed
/// site-rounds.
fn check_reps(report: &mut Report, shape: &Shape, reps: &[RepOutcome]) {
    let rounds = match shape {
        Shape::Clinical(s) => s.rounds,
        Shape::Fleet(s) => s.rounds,
    } as u64;
    report.attempted = reps.len() as u64 * rounds * N_SITES as u64;
    let done: u64 = reps
        .iter()
        .flat_map(|r| &r.rounds)
        .map(|x| x.contributors as u64)
        .sum();
    let dropped: u64 = reps
        .iter()
        .flat_map(|r| &r.rounds)
        .map(|x| x.dropped as u64)
        .sum();
    report.failed = report.attempted - done.min(report.attempted);
    report.check(
        format!("every run completed all {rounds} rounds"),
        reps.iter().all(|r| r.rounds.len() as u64 == rounds),
    );
    report.check(format!("no site dropped ({dropped} dropped)"), dropped == 0);
    let hashes: Vec<u64> = reps.iter().map(|r| r.final_hash).collect();
    report.check(
        format!(
            "final weights bit-identical across {} same-seed runs ({:016x})",
            reps.len(),
            hashes[0]
        ),
        hashes.iter().all(|&h| h == hashes[0]),
    );
    report.check("final weights finite", reps.iter().all(|r| r.final_finite));
    if let Shape::Fleet(_) = shape {
        report.check(
            "all 8 sites aggregated in every round",
            reps.iter()
                .flat_map(|r| &r.rounds)
                .all(|x| x.contributors == N_SITES),
        );
        let c = reps[0].counters;
        let reduction = c.wire_raw as f64 / c.wire_encoded.max(1) as f64;
        report.check(
            format!("wire reduction {reduction:.1}x >= {MIN_WIRE_REDUCTION}x"),
            reduction >= MIN_WIRE_REDUCTION,
        );
    }
}

fn untraced(args: &Args, shape: &Shape, mut report: Report) -> Result<Report, String> {
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut rss = f64::NAN;
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        reps.push(rep(shape, None, reps.is_empty())?);
        if reps.len() == 1 {
            // Only this one federation has run in the process so far.
            rss = peak_rss_mb();
        }
    }
    let setup_shape = setup_only(shape);
    let setups = (0..SETUP_REPS)
        .map(|_| setup_s(&rep(&setup_shape, None, false)?))
        .collect::<Result<Vec<_>, _>>()?;
    let figs = reps.iter().map(figures).collect::<Result<Vec<_>, _>>()?;
    let col = |f: fn(&RepFigures) -> f64| figs.iter().map(f).collect::<Vec<_>>();
    let n = reps.len();
    let round_ms: Vec<f64> = figs.iter().flat_map(|f| f.round_ms.clone()).collect();
    report
        .context
        .push(format!("{n} runs of {} rounds", figs[0].round_ms.len()));
    report.metric(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {SETUP_REPS} zero-round runs"),
    );
    report.metric(
        "run_s",
        median(&col(|f| f.run_s)),
        "s",
        format!("median of {n} runs"),
    );
    report.metric(
        "round_ms",
        median(&round_ms),
        "ms",
        format!(
            "median of {} rounds, max {:.1}",
            round_ms.len(),
            max(&round_ms)
        ),
    );
    report.metric(
        "samples_per_s",
        median(&col(|f| f.samples_per_s)),
        "1/s",
        format!("median of {n} runs"),
    );
    report.metric(
        "wire_mb_per_round",
        median(&col(|f| f.wire_mb_per_round)),
        "MB",
        "sent by every endpoint, per round",
    );
    report.metric("peak_rss_mb", rss, "MB", "process peak over its first run");
    for (i, f) in figs.iter().enumerate() {
        let rounds: Vec<String> = f.round_ms.iter().map(|ms| format!("{ms:.0}")).collect();
        report.context.push(format!(
            "run {i}: run {:.3} s, rounds [{}] ms",
            f.run_s,
            rounds.join(", ")
        ));
    }
    let setups: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    report
        .context
        .push(format!("zero-round set-ups [{}] ms", setups.join(", ")));
    check_reps(&mut report, shape, &reps);
    check_training(&mut report, shape, &reps[0]);
    Ok(report)
}

/// Flare-layer figures from the traced runs.
#[derive(Default)]
struct FlareFigures {
    train_ms: Vec<f64>,
    straggler: Vec<f64>,
    idle_share: Vec<f64>,
    scatter_wait_ms: Vec<f64>,
    submit_wait_ms: Vec<f64>,
    aggregate_ms: Vec<f64>,
    partial_ms: Vec<f64>,
    persist_ms: Vec<f64>,
    validate_ms: Vec<f64>,
    overhead_share: Vec<f64>,
    coverage: Vec<f64>,
    self_ms: std::collections::BTreeMap<String, f64>,
}

fn in_round(e: &Event, r: &RoundLog) -> bool {
    e.start >= r.start && e.end <= r.end
}

/// Builds the span tree of one traced run and folds its figures in.
fn analyse(rep: &RepOutcome, events: &[Event], threads: usize, f: &mut FlareFigures) -> SpanTree {
    let rounds = round_logs(&rep.log);
    let mut tree = SpanTree::default();
    let run = tree.add("run", "bench", 0.0, rep.returned_at, None);
    let setup_end = rounds.first().map_or(rep.returned_at, |r| r.start);
    let setup = tree.add("setup", "bench", 0.0, setup_end, Some(run));
    for e in events.iter().filter(|e| e.end <= setup_end) {
        tree.add(e.name, e.lane.clone(), e.start, e.end, Some(setup));
    }
    for (k, r) in rounds.iter().enumerate() {
        let round = tree.add(format!("round.{k}"), "server", r.start, r.end, Some(run));
        tree.add("scatter", "server", r.start, r.scattered, Some(round));
        let gather = tree.add("gather", "server", r.scattered, r.aggregating, Some(round));
        let validate = tree.add(
            "validate",
            "server",
            r.aggregated,
            r.persist_start,
            Some(round),
        );
        tree.add(
            "persist",
            "server",
            r.persist_start,
            r.persist_end,
            Some(round),
        );
        let wall = r.end - r.start;
        let trains: Vec<&Event> = events
            .iter()
            .filter(|e| e.name == "site.train" && e.round == Some(k as u32))
            .collect();
        for e in &trains {
            tree.add(e.name, e.lane.clone(), e.start, e.end, Some(gather));
            f.scatter_wait_ms.push((e.start - r.start) * 1e3);
            f.submit_wait_ms.push((r.aggregating - e.end) * 1e3);
        }
        for e in events
            .iter()
            .filter(|e| e.name == "site.validate" && e.round == Some(k as u32))
        {
            tree.add(e.name, e.lane.clone(), e.start, e.end, Some(validate));
        }
        for e in events
            .iter()
            .filter(|e| e.name == "partial" && in_round(e, r))
        {
            tree.add(e.name, e.lane.clone(), e.start, e.end, Some(gather));
            f.partial_ms.push(e.ms());
        }
        for e in events
            .iter()
            .filter(|e| e.name == "aggregate" && in_round(e, r))
        {
            tree.add(e.name, e.lane.clone(), e.start, e.end, Some(round));
            f.aggregate_ms.push(e.ms());
        }
        let ms: Vec<f64> = trains.iter().map(|e| e.ms()).collect();
        f.train_ms.extend(&ms);
        if !ms.is_empty() {
            f.straggler.push(max(&ms) / median(&ms));
            f.idle_share
                .push(1.0 - ms.iter().sum::<f64>() / 1e3 / (threads as f64 * wall));
        }
        let mut sub = SpanTree::default();
        let whole = sub.add("round", "server", r.start, r.end, None);
        for e in &trains {
            sub.add("train", "site", e.start, e.end, Some(whole));
        }
        f.overhead_share.push(1.0 - sub.coverage(whole));
        f.persist_ms.push((r.persist_end - r.persist_start) * 1e3);
        f.validate_ms.push((r.persist_start - r.aggregated) * 1e3);
        f.coverage.push(tree.coverage(round));
    }
    if let Some(last) = rounds.last() {
        tree.add("teardown", "bench", last.end, rep.returned_at, Some(run));
    }
    for (name, ms) in tree.self_ms_by_name() {
        let key = if name.starts_with("round.") {
            "round".to_string()
        } else {
            name
        };
        *f.self_ms.entry(key).or_default() += ms;
    }
    tree
}

fn traced(args: &Args, shape: &Shape, mut report: Report, tag: &str) -> Result<Report, String> {
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while traced.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        plain.push(rep(shape, None, plain.is_empty())?);
        let rec = Recorder::new(Instant::now());
        let r = rep(shape, Some(&rec), false)?;
        traced.push((r, rec.events()));
    }
    let threads = adapter::thread_budget();
    let mut f = FlareFigures::default();
    let mut trees = Vec::new();
    for (r, events) in &traced {
        trees.push(analyse(r, events, threads, &mut f));
    }
    let all_events: Vec<&Event> = traced.iter().flat_map(|(_, e)| e).collect();
    let event_ms = |name: &str| -> Vec<f64> {
        all_events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.ms())
            .collect()
    };
    let run_s = |reps: &[&RepOutcome]| -> Result<f64, String> {
        Ok(median(
            &reps
                .iter()
                .map(|r| figures(r).map(|x| x.run_s))
                .collect::<Result<Vec<_>, _>>()?,
        ))
    };
    let plain_refs: Vec<&RepOutcome> = plain.iter().collect();
    let traced_refs: Vec<&RepOutcome> = traced.iter().map(|(r, _)| r).collect();
    let overhead_s = run_s(&traced_refs)? - run_s(&plain_refs)?;
    report.context.push(format!(
        "{} untraced + {} traced runs; tracing overhead {overhead_s:+.3} s of run_s",
        plain.len(),
        traced.len()
    ));

    // Checks: the traced run measures the same program.
    let mut all: Vec<RepOutcome> = plain.clone();
    all.extend(traced_refs.iter().map(|r| (*r).clone()));
    check_reps(&mut report, shape, &all);
    check_training(&mut report, shape, &plain[0]);
    let min_cov = f.coverage.iter().copied().fold(f64::INFINITY, f64::min);
    report.check(
        format!("round children cover >= {MIN_ROUND_COVERAGE} of every round (min {min_cov:.4})"),
        min_cov >= MIN_ROUND_COVERAGE,
    );

    // Per-layer probes.
    let (probe_spec, model) = match shape {
        Shape::Clinical(s) => (*s, s.model),
        Shape::Fleet(s) => (
            ClinicalSpec {
                model: Model::Bert,
                n_patients: if args.tiny { 64 } else { 135 },
                rounds: 1,
                local_epochs: 1,
                seed: s.seed,
            },
            Model::Bert,
        ),
    };
    if let Shape::Clinical(spec) = shape {
        let (history, accuracy) = adapter::clinical_driver(spec)?;
        let r = &plain[0];
        report.check(
            "drivers::train_federated_with reproduces the benchmark's federation exactly",
            history == r.history && accuracy.to_bits() == r.accuracy.to_bits(),
        );
    }
    let steps = adapter::step_probe(&probe_spec, if args.tiny { 1 } else { 2 });
    let learner = adapter::learner_probe(&probe_spec, if args.tiny { 1 } else { 3 });
    let codec = adapter::codec_probe(model, args.seed, if args.tiny { 1 } else { 5 })?;
    let gemm_budget = Duration::from_millis(if args.tiny { 5 } else { 150 });

    let med = |v: &[f64]| median(v);
    let n_steps = steps.forward_ms.len();
    // fleet-exchange tokenizes nothing; its figure comes from a probe.
    let tokenize = event_ms("data.tokenize");
    let (tokenize_ms, tokenize_from) = if tokenize.is_empty() {
        (adapter::tokenize_probe(&probe_spec), "probe cohort")
    } else {
        (med(&tokenize), "traced runs")
    };
    report.metric(
        "data.generate_ms",
        med(&event_ms("data.generate")),
        "ms",
        "traced runs",
    );
    report.metric("data.tokenize_ms", tokenize_ms, "ms", tokenize_from);
    report.metric(
        "data.partition_ms",
        med(&event_ms("data.partition")),
        "ms",
        "traced runs",
    );
    report.metric(
        "learner.init_ms",
        med(&event_ms("learner.init")),
        "ms",
        "median Learner::new in traced runs",
    );
    report.metric(
        "models.forward_ms",
        med(&steps.forward_ms),
        "ms",
        format!("median of {n_steps} steps, site-1 shard"),
    );
    report.metric(
        "models.backward_ms",
        med(&steps.backward_ms),
        "ms",
        format!("median of {n_steps} steps"),
    );
    report.metric(
        "models.optim_ms",
        med(&steps.optim_ms),
        "ms",
        format!("median of {n_steps} steps"),
    );
    report.metric(
        "learner.epoch_ms",
        med(&learner.epoch_ms),
        "ms",
        "site-1 shard",
    );
    report.metric(
        "learner.eval_ms",
        med(&learner.eval_ms),
        "ms",
        "validation split",
    );
    report.metric(
        "learner.weights_io_ms",
        med(&learner.weights_io_ms),
        "ms",
        "export + load",
    );
    for shape in adapter::GEMM_SHAPES {
        let name = format!("tensor.gemm_gflops.{}", shape.name);
        report.metric(
            &name,
            adapter::gemm_probe(&shape, gemm_budget),
            "GFLOP/s",
            "wall-clock probe",
        );
    }
    report.metric(
        "tensor.flops_per_step",
        steps.counters.gemm_flops as f64 / n_steps.max(1) as f64,
        "count",
        "GEMM flops per training step",
    );
    let c = steps.counters;
    report.metric(
        "tensor.arena.hit_rate",
        c.arena_hits as f64 / (c.arena_hits + c.arena_misses).max(1) as f64,
        "ratio",
        "tape buffer requests served from the arena",
    );
    report.metric(
        "flare.site.train_ms.p50",
        med(&f.train_ms),
        "ms",
        format!("{} site-rounds", f.train_ms.len()),
    );
    report.metric(
        "flare.site.train_ms.max",
        max(&f.train_ms),
        "ms",
        "slowest site-round",
    );
    report.metric(
        "flare.straggler_ratio",
        med(&f.straggler),
        "ratio",
        "max/median site train per round",
    );
    report.metric(
        "flare.compute_idle_share",
        med(&f.idle_share),
        "ratio",
        format!("1 - site compute / ({threads} threads x round wall)"),
    );
    report.metric(
        "flare.site.scatter_wait_ms",
        med(&f.scatter_wait_ms),
        "ms",
        "round start -> site train start",
    );
    report.metric(
        "flare.site.submit_wait_ms",
        med(&f.submit_wait_ms),
        "ms",
        "site train end -> root aggregates",
    );
    report.metric(
        "flare.aggregate_ms",
        med(&f.aggregate_ms),
        "ms",
        "root Aggregator::aggregate",
    );
    report.metric(
        "flare.partial_ms",
        if f.partial_ms.is_empty() {
            0.0
        } else {
            med(&f.partial_ms)
        },
        "ms",
        format!(
            "interior Aggregator::partial ({} calls)",
            f.partial_ms.len()
        ),
    );
    report.metric("flare.persist_ms", med(&f.persist_ms), "ms", "per round");
    report.metric("flare.validate_ms", med(&f.validate_ms), "ms", "per round");
    report.metric(
        "flare.round_overhead_share",
        med(&f.overhead_share),
        "ratio",
        "round wall not covered by site training",
    );
    report.metric(
        "codec.encode_ms",
        med(&codec.encode_ms),
        "ms",
        "one site update, delta+topk0.05+int8",
    );
    report.metric(
        "codec.decode_ms",
        med(&codec.decode_ms),
        "ms",
        "one site update, delta+topk0.05+int8",
    );
    report.metric(
        "codec.relative_error",
        codec.relative_error,
        "ratio",
        "|decoded - update| / |update - base|",
    );
    report.metric(
        "learner.final_loss",
        adapter::pooled_loss(&probe_spec, plain[0].final_weights.as_ref()),
        "nats",
        "final global model over the pooled training shards",
    );
    let wc = traced[0].0.counters;
    report.metric(
        "flare.wire.reduction",
        if wc.wire_encoded == 0 {
            1.0
        } else {
            wc.wire_raw as f64 / wc.wire_encoded as f64
        },
        "ratio",
        "raw-equivalent / encoded bytes",
    );
    let sum = |g: fn(&RepOutcome) -> u64| traced_refs.iter().map(|r| g(r)).sum::<u64>() as f64;
    report.metric(
        "flare.retries",
        sum(|r| r.counters.retries),
        "count",
        "traced runs",
    );
    report.metric(
        "flare.timeouts",
        sum(|r| r.counters.timeouts),
        "count",
        "traced runs",
    );
    report.metric(
        "flare.dropped",
        sum(|r| r.rounds.iter().map(|x| x.dropped as u64).sum()),
        "count",
        "site-rounds, traced runs",
    );
    report.metric(
        "trace.overhead_s",
        overhead_s,
        "s",
        "traced run_s - untraced run_s",
    );
    report.metric(
        "trace.round_coverage_min",
        min_cov,
        "ratio",
        "children of the least-covered round",
    );
    for (name, ms) in &f.self_ms {
        report.context.push(format!("self_ms {name} {ms:.3}"));
    }

    // Spans are kept in memory until here.
    let mut json = String::from("[\n");
    for (i, t) in trees.iter().enumerate() {
        json.push_str(&t.to_json());
        json.push_str(if i + 1 < trees.len() { ",\n" } else { "\n" });
    }
    json.push(']');
    let path = out_dir().join(format!("{tag}.trace.json"));
    std::fs::write(&path, json).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    report
        .context
        .push(format!("trace written to {}", path.display()));
    Ok(report)
}
