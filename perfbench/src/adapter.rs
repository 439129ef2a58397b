//! The one place the benchmark calls into the program.
//!
//! Every call into the `clinfl` crates goes through this file: how a
//! federation is stood up, the executor and aggregator wrappers the traced
//! run uses, and the per-layer probes. A change to how the program stands
//! up a federation therefore touches only this file.
//!
//! The clinical federations mirror `drivers::train_federated_with` step by
//! step (same data pipeline, seeds, learners, executors, simulator
//! settings and final evaluation) so the benchmark can hash the final
//! weights and wrap the executors; [`clinical_driver`] runs the driver
//! itself so the traced run can check that the mirror reproduces it
//! exactly.

use crate::trace::Recorder;
use clinfl::drivers;
use clinfl::{weights_to_params, ClinicalExecutor, Learner, ModelSpec, PipelineConfig, TrainHyper};
use clinfl_data::{
    allocate_counts, generate_cohort, Batch, ClassifyDataset, CodeSystem, PAPER_IMBALANCED_RATIOS,
};
use clinfl_flare::aggregator::{Aggregator, WeightedFedAvg};
use clinfl_flare::codec::{decode_weights, CodecSpec, UplinkEncoder};
use clinfl_flare::controller::SagConfig;
use clinfl_flare::executor::{Executor, TaskContext};
use clinfl_flare::filters::FilterChain;
use clinfl_flare::simulator::{SimulatorConfig, SimulatorRunner, TreeConfig};
use clinfl_flare::{Dxo, EventLog, FlareError, Weights};
use clinfl_models::TokenBatch;
use clinfl_models::{BertConfig, BertModel, LstmClassifier, LstmConfig, SequenceClassifier};
use clinfl_tensor::{kernels, Adam, GradClip, Graph, Optimizer};
use clinfl_text::ClinicalTokenizer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sites in every workload (the paper's topology).
pub const N_SITES: usize = 8;

/// The wire codec of the exchange workload (the CI wire-codec stack).
pub const FLEET_CODEC: &str = "delta+topk0.05+int8";

/// Environment knobs the program reads at run time. The benchmark clears
/// them so a stray value cannot change what is measured.
pub const PROGRAM_ENV_KNOBS: [&str; 7] = [
    "CLINFL_TREE",
    "CLINFL_FAULTS",
    "CLINFL_WIRE_CODEC",
    "CLINFL_WIRE_QUANT",
    "CLINFL_WIRE_TOPK",
    "CLINFL_THREADS",
    "CLINFL_OBS",
];

/// Which of the paper's models a clinical workload trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// 3-layer LSTM, hidden 128.
    Lstm,
    /// 12-layer BERT, hidden 128, 6 heads.
    Bert,
}

fn model_spec(m: Model) -> ModelSpec {
    match m {
        Model::Lstm => ModelSpec::Lstm,
        Model::Bert => ModelSpec::Bert,
    }
}

/// Size and seed of a clinical federation.
#[derive(Clone, Copy, Debug)]
pub struct ClinicalSpec {
    /// The model every site trains.
    pub model: Model,
    /// Patients in the synthetic cohort (train + validation).
    pub n_patients: usize,
    /// Federation rounds.
    pub rounds: u32,
    /// Local epochs per site per round.
    pub local_epochs: u32,
    /// Seed of the cohort, the split, the partition and the models.
    pub seed: u64,
}

/// Size and seed of the weight-exchange federation.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// Federation rounds.
    pub rounds: u32,
    /// Seed of the initial weights and of the per-site perturbations.
    pub seed: u64,
    /// Examples split over the sites by the paper's imbalanced ratios;
    /// they weight the average.
    pub n_examples: usize,
    /// Fresh directory for on-disk checkpoints (removed after the run).
    pub checkpoint_dir: PathBuf,
}

/// One line of the run's event log, in seconds since the run's base.
#[derive(Clone, Debug)]
pub struct LogLine {
    /// Seconds since the base instant.
    pub at: f64,
    /// Emitting component.
    pub component: String,
    /// Message body.
    pub message: String,
}

/// Program counters moved by one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Bytes sent by every endpoint (site clients, root and interior
    /// servers); each frame counts once, at its sender.
    pub wire_bytes: u64,
    /// Raw-equivalent bytes of the codec-carried payloads.
    pub wire_raw: u64,
    /// Encoded bytes of the same payloads.
    pub wire_encoded: u64,
    /// Client send/receive retries.
    pub retries: u64,
    /// Client receive timeouts.
    pub timeouts: u64,
    /// GEMM floating-point operations.
    pub gemm_flops: u64,
    /// Tape buffer requests served from the arena.
    pub arena_hits: u64,
    /// Tape buffer requests that allocated.
    pub arena_misses: u64,
}

fn counters_now() -> Counters {
    let s = clinfl_obs::snapshot();
    let c = |n: &str| s.counter(n);
    Counters {
        wire_bytes: c("flare.client.bytes_tx")
            + c("flare.server.bytes_tx")
            + c("flare.tree.bytes_tx"),
        wire_raw: c("flare.wire.bytes_tx_raw") + c("flare.wire.bytes_rx_raw"),
        wire_encoded: c("flare.wire.bytes_tx_encoded") + c("flare.wire.bytes_rx_encoded"),
        retries: c("flare.client.retries"),
        timeouts: c("flare.client.timeouts"),
        gemm_flops: c("tensor.matmul.flops")
            + c("tensor.matmul_at_b.flops")
            + c("tensor.matmul_a_bt.flops"),
        arena_hits: c("tensor.arena.hits"),
        arena_misses: c("tensor.arena.misses"),
    }
}

impl Counters {
    fn since(self, before: Counters) -> Counters {
        Counters {
            wire_bytes: self.wire_bytes - before.wire_bytes,
            wire_raw: self.wire_raw - before.wire_raw,
            wire_encoded: self.wire_encoded - before.wire_encoded,
            retries: self.retries - before.retries,
            timeouts: self.timeouts - before.timeouts,
            gemm_flops: self.gemm_flops - before.gemm_flops,
            arena_hits: self.arena_hits - before.arena_hits,
            arena_misses: self.arena_misses - before.arena_misses,
        }
    }
}

/// What the server recorded about one round.
#[derive(Clone, Copy, Debug)]
pub struct RoundResult {
    /// Sites whose update was aggregated.
    pub contributors: usize,
    /// Sites that missed the round.
    pub dropped: usize,
}

/// Everything one federation run leaves behind.
#[derive(Clone, Debug)]
pub struct RepOutcome {
    /// The run's event log, re-based onto the caller's clock.
    pub log: Vec<LogLine>,
    /// When the entry point returned, seconds since the base.
    pub returned_at: f64,
    /// Per-round server records.
    pub rounds: Vec<RoundResult>,
    /// Local-training examples per round (site updates for the exchange
    /// workload, which trains nothing).
    pub examples_per_round: u64,
    /// FNV-1a hash of the final global weights (names, shapes, bits).
    pub final_hash: u64,
    /// Whether every final weight is finite.
    pub final_finite: bool,
    /// The final global weights, when the caller asked to keep them.
    pub final_weights: Option<Weights>,
    /// Per-round `(mean train loss, global validation accuracy)`, as the
    /// driver reports it.
    pub history: Vec<(f64, f64)>,
    /// Final top-1 accuracy on the validation split (clinical only).
    pub accuracy: f64,
    /// Counters the run moved.
    pub counters: Counters,
}

fn timed<R>(rec: Option<&Recorder>, name: &'static str, lane: &str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.time(name, lane, None, f),
        None => f(),
    }
}

/// FNV-1a over tensor names, shapes and value bits.
fn hash_weights(w: &Weights) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (name, t) in w {
        eat(name.as_bytes());
        for &d in &t.dims {
            eat(&(d as u64).to_le_bytes());
        }
        for &v in &t.data {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Pins the program's thread budget (kernel workers and site permits).
pub fn set_threads(n: usize) {
    clinfl_tensor::pool::set_threads(n);
}

/// The program's thread budget as it resolved it.
pub fn thread_budget() -> usize {
    clinfl_tensor::pool::num_threads()
}

/// Turns the program's metric counters on (the byte, flop and arena
/// counts come from them).
pub fn enable_counters() {
    clinfl_obs::set_enabled(true);
}

// ---------------------------------------------------------------------
// Wrappers the traced run puts around the program's executor and
// aggregator. They only time the call; behaviour is unchanged.
// ---------------------------------------------------------------------

struct TracedExecutor {
    inner: Box<dyn Executor>,
    rec: Recorder,
    site: String,
}

impl Executor for TracedExecutor {
    fn train(&mut self, global: &Weights, ctx: &TaskContext) -> Dxo {
        let inner = &mut self.inner;
        self.rec
            .time("site.train", &self.site, Some(ctx.round), || {
                inner.train(global, ctx)
            })
    }

    fn validate(&mut self, global: &Weights, ctx: &TaskContext) -> f64 {
        let inner = &mut self.inner;
        self.rec
            .time("site.validate", &self.site, Some(ctx.round), || {
                inner.validate(global, ctx)
            })
    }
}

fn wrap(inner: Box<dyn Executor>, rec: Option<&Recorder>, site: &str) -> Box<dyn Executor> {
    match rec {
        Some(r) => Box::new(TracedExecutor {
            inner,
            rec: r.clone(),
            site: site.to_string(),
        }),
        None => inner,
    }
}

struct TracedAggregator<'a> {
    inner: &'a dyn Aggregator,
    rec: Recorder,
}

impl Aggregator for TracedAggregator<'_> {
    fn aggregate(
        &self,
        updates: &[(String, Dxo)],
        reference: &Weights,
    ) -> Result<Weights, FlareError> {
        self.rec.time("aggregate", "server", None, || {
            self.inner.aggregate(updates, reference)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn supports_partial(&self) -> bool {
        self.inner.supports_partial()
    }

    fn partial(&self, updates: &[(String, Dxo)], reference: &Weights) -> Result<Dxo, FlareError> {
        self.rec.time("partial", "relay", None, || {
            self.inner.partial(updates, reference)
        })
    }
}

/// Runs `f` against the plain aggregator, or against it wrapped for
/// tracing.
fn with_aggregator<R>(
    inner: &dyn Aggregator,
    rec: Option<&Recorder>,
    f: impl FnOnce(&dyn Aggregator) -> R,
) -> R {
    match rec {
        Some(r) => f(&TracedAggregator {
            inner,
            rec: r.clone(),
        }),
        None => f(inner),
    }
}

fn sim_config(
    cfg: &PipelineConfig,
    wire: CodecSpec,
    tree: Option<TreeConfig>,
    checkpoint_dir: Option<PathBuf>,
    retain: Option<usize>,
) -> SimulatorConfig {
    SimulatorConfig {
        n_clients: cfg.n_clients,
        sag: SagConfig {
            rounds: cfg.rounds,
            min_clients: cfg.runtime.min_clients,
            round_timeout: cfg.runtime.round_timeout,
            validate_global: true,
            quorum_grace: cfg.runtime.quorum_grace,
            resume_from: None,
            client_sample_fraction: cfg.runtime.client_sample_fraction,
        },
        seed: cfg.seed,
        behaviors: BTreeMap::new(),
        faults: cfg.runtime.faults.clone(),
        retry: cfg.runtime.retry,
        checkpoint_dir,
        resume: false,
        retain_checkpoints: retain,
        wire,
        wire_overrides: BTreeMap::new(),
        server_codecs_enabled: true,
        tree,
    }
}

fn log_lines(log: &EventLog, offset: f64) -> Vec<LogLine> {
    log.entries()
        .into_iter()
        .map(|e| LogLine {
            at: e.elapsed_secs + offset,
            component: e.component,
            message: e.message,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Clinical federations (lstm-fedavg, bert-fedavg)
// ---------------------------------------------------------------------

fn pipeline(spec: &ClinicalSpec) -> PipelineConfig {
    // Scale 16 is the paper's configuration at 1/16 of its volume; the
    // benchmark then fixes size, rounds and seed itself.
    let mut cfg = PipelineConfig::scaled(16);
    cfg.cohort.n_patients = spec.n_patients;
    cfg.cohort.seed = spec.seed;
    cfg.seed = spec.seed;
    cfg.rounds = spec.rounds;
    cfg.local_epochs = spec.local_epochs;
    cfg
}

/// The clinical data a federation trains on.
struct ClinicalData {
    vocab_size: usize,
    shards: Vec<ClassifyDataset>,
    valid: ClassifyDataset,
}

fn clinical_data(cfg: &PipelineConfig, rec: Option<&Recorder>) -> ClinicalData {
    // Same steps and seeds as `drivers::build_task_data` followed by the
    // driver's partition call.
    let code_system = CodeSystem::new();
    let cohort = timed(rec, "data.generate", "setup", || {
        generate_cohort(&code_system, &cfg.cohort)
    });
    let (train, valid) = timed(rec, "data.tokenize", "setup", || {
        let tokenizer = ClinicalTokenizer::new(code_system.vocab().clone(), cfg.seq_len);
        ClassifyDataset::from_cohort(&cohort, &tokenizer).split(cfg.train_frac, cfg.seed ^ 0x5917)
    });
    let shards = timed(rec, "data.partition", "setup", || {
        cfg.imbalanced_partitioner()
            .partition(&train, cfg.seed ^ 0xA17)
    });
    ClinicalData {
        vocab_size: code_system.vocab().len(),
        shards,
        valid,
    }
}

/// One clinical federation, set up and run from scratch: the steps of
/// `drivers::train_federated_with` with the paper's imbalanced split, the
/// raw codec and a flat topology. With a recorder, the data pipeline and
/// learner construction are timed and the site executors and the
/// aggregator are wrapped.
pub fn clinical_rep(
    spec: &ClinicalSpec,
    base: Instant,
    rec: Option<&Recorder>,
    keep_weights: bool,
) -> Result<RepOutcome, String> {
    let before = counters_now();
    let log = EventLog::new();
    let offset = base.elapsed().as_secs_f64();
    let cfg = pipeline(spec);
    let model = model_spec(spec.model);
    let hyper = TrainHyper::for_model(model);
    let data = clinical_data(&cfg, rec);
    let vocab_size = data.vocab_size;
    let new_learner = |lane: &str| {
        timed(rec, "learner.init", lane, || {
            Learner::new(model, vocab_size, cfg.seq_len, hyper, cfg.seed)
        })
    };
    let initial = new_learner("setup").export_weights();
    let runner = SimulatorRunner::with_log(
        sim_config(&cfg, CodecSpec::raw(), None, None, None),
        log.clone(),
    );
    let result = with_aggregator(&WeightedFedAvg, rec, |agg| {
        runner.run(
            initial,
            |i, site| {
                let executor = ClinicalExecutor::new(
                    new_learner(site),
                    data.shards[i].clone(),
                    data.valid.clone(),
                    cfg.local_epochs,
                    log.clone(),
                );
                wrap(Box::new(executor), rec, site)
            },
            agg,
            |_| FilterChain::new(),
        )
    })
    .map_err(|e| format!("federation failed: {e}"))?;
    // The driver's server-side final evaluation (a zero-round run, which
    // only stands the federation up, has nothing to evaluate).
    let final_weights = &result.workflow.final_weights;
    let accuracy = if spec.rounds == 0 {
        f64::NAN
    } else {
        let mut eval = Learner::new(model, vocab_size, cfg.seq_len, hyper, cfg.seed);
        eval.load_weights(final_weights);
        eval.evaluate(&data.valid)
    };
    let returned_at = base.elapsed().as_secs_f64();

    let history: Vec<(f64, f64)> = result
        .workflow
        .rounds
        .iter()
        .map(|r| {
            let mean_loss = r
                .client_metrics
                .values()
                .filter_map(|m| m.get("train_loss"))
                .sum::<f64>()
                / r.client_metrics.len().max(1) as f64;
            (mean_loss, r.global_metric.unwrap_or(0.0))
        })
        .collect();
    let rounds = result
        .workflow
        .rounds
        .iter()
        .map(|r| RoundResult {
            contributors: r.contributors.len(),
            dropped: r.dropped.len(),
        })
        .collect();
    let examples: usize = data.shards.iter().map(ClassifyDataset::len).sum();
    Ok(RepOutcome {
        log: log_lines(&log, offset),
        returned_at,
        rounds,
        examples_per_round: examples as u64 * u64::from(cfg.local_epochs),
        final_hash: hash_weights(final_weights),
        final_finite: final_weights.values().all(|t| t.all_finite()),
        final_weights: keep_weights.then(|| final_weights.clone()),
        history,
        accuracy,
        counters: counters_now().since(before),
    })
}

/// Runs `drivers::train_federated_with` itself on the same spec and
/// returns its per-round history and final accuracy.
pub fn clinical_driver(spec: &ClinicalSpec) -> Result<(Vec<(f64, f64)>, f64), String> {
    let cfg = pipeline(spec);
    let out = drivers::train_federated_with(
        &cfg,
        model_spec(spec.model),
        &cfg.imbalanced_partitioner(),
        EventLog::new(),
    )
    .map_err(|e| format!("driver failed: {e}"))?;
    Ok((out.history, out.accuracy))
}

// ---------------------------------------------------------------------
// Weight exchange (fleet-exchange)
// ---------------------------------------------------------------------

/// Offset between the perturbation windows of consecutive rounds.
const ROUND_STRIDE: usize = 7919;

/// Seeded values uniform in `[-0.01, 0.01)` (splitmix64).
fn perturbation(seed: u64, site: usize, len: usize) -> Vec<f32> {
    let mut state = seed ^ (site as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.02
        })
        .collect()
}

/// A site that trains nothing: each round it returns the global model
/// plus its own precomputed perturbation window for that round.
struct FleetExecutor {
    pool: Arc<Vec<f32>>,
    n_examples: u64,
}

impl Executor for FleetExecutor {
    fn train(&mut self, global: &Weights, ctx: &TaskContext) -> Dxo {
        let mut w = global.clone();
        let mut k = ctx.round as usize * ROUND_STRIDE;
        for t in w.values_mut() {
            for (v, p) in t.data.iter_mut().zip(&self.pool[k..]) {
                *v += p;
            }
            k += t.data.len();
        }
        Dxo::from_weights(w, self.n_examples)
    }

    fn validate(&mut self, global: &Weights, _ctx: &TaskContext) -> f64 {
        global.values().next().map_or(0.0, |t| {
            t.data.iter().map(|&v| f64::from(v)).sum::<f64>() / t.data.len().max(1) as f64
        })
    }
}

/// The exchange workload's model: the real BERT weight shapes and values.
fn fleet_initial(seed: u64) -> Weights {
    let cfg = PipelineConfig::scaled(16);
    let vocab_size = CodeSystem::new().vocab().len();
    Learner::new(
        ModelSpec::Bert,
        vocab_size,
        cfg.seq_len,
        TrainHyper::for_model(ModelSpec::Bert),
        seed,
    )
    .export_weights()
}

/// One exchange federation: BERT-shaped weights, 8 sites returning seeded
/// perturbations, the `delta+topk0.05+int8` codec, a depth-2 tree of
/// fan-out 4 and on-disk checkpoints keeping the last two rounds.
pub fn fleet_rep(
    spec: &FleetSpec,
    base: Instant,
    rec: Option<&Recorder>,
    keep_weights: bool,
) -> Result<RepOutcome, String> {
    let before = counters_now();
    let log = EventLog::new();
    let offset = base.elapsed().as_secs_f64();
    let initial = timed(rec, "learner.init", "setup", || fleet_initial(spec.seed));
    let numel: usize = initial.values().map(|t| t.numel()).sum();
    let window = numel + spec.rounds as usize * ROUND_STRIDE;
    let pools: Vec<Arc<Vec<f32>>> = timed(rec, "data.generate", "setup", || {
        (0..N_SITES)
            .map(|s| Arc::new(perturbation(spec.seed, s, window)))
            .collect()
    });
    let counts = timed(rec, "data.partition", "setup", || {
        allocate_counts(spec.n_examples, &PAPER_IMBALANCED_RATIOS)
    });
    let mut cfg = PipelineConfig::scaled(16);
    cfg.seed = spec.seed;
    cfg.rounds = spec.rounds;
    let wire = CodecSpec::parse(FLEET_CODEC).map_err(|e| format!("bad codec: {e}"))?;
    let tree = Some(TreeConfig {
        depth: 2,
        fanout: 4,
    });
    let runner = SimulatorRunner::with_log(
        sim_config(&cfg, wire, tree, Some(spec.checkpoint_dir.clone()), Some(2)),
        log.clone(),
    );
    let result = with_aggregator(&WeightedFedAvg, rec, |agg| {
        runner.run(
            initial,
            |i, site| {
                let executor = FleetExecutor {
                    pool: pools[i].clone(),
                    n_examples: counts[i] as u64,
                };
                wrap(Box::new(executor), rec, site)
            },
            agg,
            |_| FilterChain::new(),
        )
    })
    .map_err(|e| format!("federation failed: {e}"))?;
    let returned_at = base.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&spec.checkpoint_dir);

    let final_weights = &result.workflow.final_weights;
    let rounds = result
        .workflow
        .rounds
        .iter()
        .map(|r| RoundResult {
            contributors: r.contributors.len(),
            dropped: r.dropped.len(),
        })
        .collect();
    Ok(RepOutcome {
        log: log_lines(&log, offset),
        returned_at,
        rounds,
        examples_per_round: N_SITES as u64,
        final_hash: hash_weights(final_weights),
        final_finite: final_weights.values().all(|t| t.all_finite()),
        final_weights: keep_weights.then(|| final_weights.clone()),
        history: Vec::new(),
        accuracy: f64::NAN,
        counters: counters_now().since(before),
    })
}

// ---------------------------------------------------------------------
// Per-layer probes (traced run only)
// ---------------------------------------------------------------------

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The model a learner of `spec`'s kind starts from, built directly.
fn new_model(
    m: Model,
    vocab_size: usize,
    cfg: &PipelineConfig,
) -> Box<dyn SequenceClassifier + Send> {
    match m {
        Model::Lstm => Box::new(LstmClassifier::new(
            &LstmConfig::with_vocab(vocab_size),
            cfg.seed,
        )),
        Model::Bert => Box::new(BertModel::new(
            &BertConfig::bert(vocab_size, cfg.seq_len),
            cfg.seed,
        )),
    }
}

fn tokens(b: &Batch) -> TokenBatch<'_> {
    TokenBatch {
        ids: &b.ids,
        mask: &b.mask,
        batch_size: b.batch_size,
        seq_len: b.seq_len,
    }
}

/// Mean cross-entropy, in evaluation mode, of `spec`'s model over the
/// pooled training shards of `spec`'s cohort: with `weights`, or with the
/// initial weights every site starts round 0 from when `None`.
pub fn pooled_loss(spec: &ClinicalSpec, weights: Option<&Weights>) -> f64 {
    let cfg = pipeline(spec);
    let data = clinical_data(&cfg, None);
    let hyper = TrainHyper::for_model(model_spec(spec.model));
    let mut model = new_model(spec.model, data.vocab_size, &cfg);
    if let Some(w) = weights {
        weights_to_params(w, model.params_mut());
    }
    let mut graph = Graph::new();
    let (mut sum, mut n) = (0.0f64, 0usize);
    for shard in &data.shards {
        for batch in shard.batches(hyper.batch_size, 0) {
            graph.reset();
            graph.set_training(false);
            let loss = model.classification_loss(&mut graph, &tokens(&batch), &batch.labels);
            sum += f64::from(graph.value(loss).item()) * batch.batch_size as f64;
            n += batch.batch_size;
        }
    }
    sum / n.max(1) as f64
}

/// Tokenizer + `ClassifyDataset::from_cohort` + split on `spec`'s cohort,
/// ms.
pub fn tokenize_probe(spec: &ClinicalSpec) -> f64 {
    let rec = Recorder::new(Instant::now());
    clinical_data(&pipeline(spec), Some(&rec));
    rec.events()
        .iter()
        .filter(|e| e.name == "data.tokenize")
        .map(|e| e.ms())
        .sum()
}

/// Per-step timings of the model on site-1's shard, plus counts.
#[derive(Clone, Debug, Default)]
pub struct StepProbe {
    /// `classification_loss` (forward), ms per step.
    pub forward_ms: Vec<f64>,
    /// `Graph::backward`, ms per step.
    pub backward_ms: Vec<f64>,
    /// Gradient copy-out, clipping and the Adam step, ms per step.
    pub optim_ms: Vec<f64>,
    /// Counters moved by the probe.
    pub counters: Counters,
}

/// Model-level timings on site-1's shard: the learner's training step
/// taken apart into forward, backward and optimizer.
pub fn step_probe(spec: &ClinicalSpec, epochs: usize) -> StepProbe {
    let cfg = pipeline(spec);
    let data = clinical_data(&cfg, None);
    let hyper = TrainHyper::for_model(model_spec(spec.model));
    let mut model = new_model(spec.model, data.vocab_size, &cfg);
    let mut graph = Graph::new();
    let mut adam = Adam::with_lr(hyper.lr);
    let mut out = StepProbe::default();
    let before = counters_now();
    for epoch in 0..epochs {
        for (i, batch) in data.shards[0]
            .batches(hyper.batch_size, epoch as u64)
            .enumerate()
        {
            graph.reset_with_seed(i as u64);
            graph.set_training(true);
            let t = Instant::now();
            let loss = model.classification_loss(&mut graph, &tokens(&batch), &batch.labels);
            out.forward_ms.push(ms_since(t));
            let t = Instant::now();
            graph.backward(loss);
            out.backward_ms.push(ms_since(t));
            let t = Instant::now();
            graph.grads_into(model.params_mut());
            GradClip {
                max_norm: hyper.clip_norm,
            }
            .apply(model.params_mut());
            adam.step(model.params_mut());
            out.optim_ms.push(ms_since(t));
        }
    }
    out.counters = counters_now().since(before);
    out
}

/// Learner-level timings on site-1's shard.
#[derive(Clone, Debug, Default)]
pub struct LearnerProbe {
    /// `Learner::train_epoch` over site-1's shard, ms.
    pub epoch_ms: Vec<f64>,
    /// `Learner::evaluate` over the validation split, ms.
    pub eval_ms: Vec<f64>,
    /// `export_weights` + `load_weights`, ms.
    pub weights_io_ms: Vec<f64>,
}

/// Times the learner's entry points, `reps` times each.
pub fn learner_probe(spec: &ClinicalSpec, reps: usize) -> LearnerProbe {
    let cfg = pipeline(spec);
    let data = clinical_data(&cfg, None);
    let model = model_spec(spec.model);
    let hyper = TrainHyper::for_model(model);
    let mut out = LearnerProbe::default();
    let mut learner = Learner::new(model, data.vocab_size, cfg.seq_len, hyper, cfg.seed);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(learner.train_epoch(&data.shards[0]));
        out.epoch_ms.push(ms_since(t));
        let t = Instant::now();
        std::hint::black_box(learner.evaluate(&data.valid));
        out.eval_ms.push(ms_since(t));
        let t = Instant::now();
        let w = learner.export_weights();
        learner.load_weights(&w);
        out.weights_io_ms.push(ms_since(t));
    }
    out
}

/// A GEMM shape the models run hot.
#[derive(Clone, Copy, Debug)]
pub struct GemmShape {
    /// Metric-name suffix.
    pub name: &'static str,
    /// Batch items with their own operands (1 = a single product).
    pub items: usize,
    /// Output rows per item.
    pub m: usize,
    /// Contraction length.
    pub k: usize,
    /// Output columns per item.
    pub n: usize,
    /// `a·bᵀ` (attention scores) instead of `a·b`.
    pub b_transposed: bool,
}

/// The models' hot GEMM shapes at fine-tuning batch 32 and sequence
/// length 26: the LSTM gate product, BERT's projections over all
/// `32·26` token rows, and the per-head attention scores.
pub const GEMM_SHAPES: [GemmShape; 4] = [
    GemmShape {
        name: "lstm_gate_32x128x128",
        items: 1,
        m: 32,
        k: 128,
        n: 128,
        b_transposed: false,
    },
    GemmShape {
        name: "bert_qkv_832x128x132",
        items: 1,
        m: 832,
        k: 128,
        n: 132,
        b_transposed: false,
    },
    GemmShape {
        name: "bert_ffn_832x128x256",
        items: 1,
        m: 832,
        k: 128,
        n: 256,
        b_transposed: false,
    },
    GemmShape {
        name: "attn_scores_192x26x22x26",
        items: 192,
        m: 26,
        k: 22,
        n: 26,
        b_transposed: true,
    },
];

/// Median GFLOP/s of `kernels::matmul*` on one shape, timed by wall
/// clock over about `budget`.
pub fn gemm_probe(shape: &GemmShape, budget: Duration) -> f64 {
    let GemmShape { items, m, k, n, .. } = *shape;
    let fill = |len: usize, salt: u32| -> Vec<f32> {
        (0..len)
            .map(|i| ((i as u32).wrapping_mul(2_654_435_761) ^ salt) as f32 / u32::MAX as f32 - 0.5)
            .collect()
    };
    let a = fill(items * m * k, 1);
    let b = fill(items * k * n, 2);
    let mut c = vec![0.0f32; items * m * n];
    let mut run = || {
        if shape.b_transposed {
            kernels::matmul_a_bt_batch_acc(&a, &b, &mut c, items, m, k, n, false);
        } else {
            kernels::matmul_batch_acc(&a, &b, &mut c, items, m, k, n, false);
        }
        std::hint::black_box(&mut c);
    };
    run();
    let flops = 2.0 * (items * m * k * n) as f64;
    let started = Instant::now();
    let mut samples = Vec::new();
    while started.elapsed() < budget || samples.len() < 5 {
        let t = Instant::now();
        run();
        samples.push(flops / t.elapsed().as_secs_f64() / 1e9);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Encode/decode timings of one site update under the exchange codec.
#[derive(Clone, Debug, Default)]
pub struct CodecProbe {
    /// `encode_weights` (through the client's uplink encoder), ms.
    pub encode_ms: Vec<f64>,
    /// `decode_weights`, ms.
    pub decode_ms: Vec<f64>,
    /// `‖decoded − update‖ / ‖update − base‖` of the first round trip.
    pub relative_error: f64,
}

/// Times the exchange codec on `model`'s weights plus a seeded update,
/// encoded as a delta against those weights.
pub fn codec_probe(model: Model, seed: u64, reps: usize) -> Result<CodecProbe, String> {
    let base = match model {
        Model::Bert => fleet_initial(seed),
        Model::Lstm => {
            let cfg = PipelineConfig::scaled(16);
            let vocab_size = CodeSystem::new().vocab().len();
            let hyper = TrainHyper::for_model(ModelSpec::Lstm);
            Learner::new(ModelSpec::Lstm, vocab_size, cfg.seq_len, hyper, seed).export_weights()
        }
    };
    let numel: usize = base.values().map(|t| t.numel()).sum();
    let pool = perturbation(seed, 0, numel);
    let mut update = base.clone();
    let mut k = 0;
    for t in update.values_mut() {
        for (v, p) in t.data.iter_mut().zip(&pool[k..]) {
            *v += p;
        }
        k += t.data.len();
    }
    let spec = CodecSpec::parse(FLEET_CODEC)?;
    let mut encoder = UplinkEncoder::new(spec);
    let mut out = CodecProbe::default();
    for _ in 0..reps {
        let t = Instant::now();
        let enc = encoder
            .encode(&update, Some((&base, 1)))
            .map_err(|e| format!("encode failed: {e}"))?;
        out.encode_ms.push(ms_since(t));
        let t = Instant::now();
        let dec = decode_weights(&enc, Some(&base)).map_err(|e| format!("decode failed: {e}"))?;
        out.decode_ms.push(ms_since(t));
        if out.decode_ms.len() == 1 {
            let (mut err, mut step) = (0.0f64, 0.0f64);
            for ((d, u), b) in dec.values().zip(update.values()).zip(base.values()) {
                for ((&d, &u), &b) in d.data.iter().zip(&u.data).zip(&b.data) {
                    err += (f64::from(d) - f64::from(u)).powi(2);
                    step += (f64::from(u) - f64::from(b)).powi(2);
                }
            }
            out.relative_error = (err / step).sqrt();
        }
    }
    Ok(out)
}
