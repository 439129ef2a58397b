//! Pipeline configuration (the paper's Table I, with a scale knob).

use clinfl_data::{CohortSpec, PretrainSpec};
use clinfl_flare::client::RetryPolicy;
use clinfl_flare::faults::FaultConfig;
use clinfl_flare::simulator::TreeConfig;
use std::path::PathBuf;
use std::time::Duration;

/// Which of the paper's three models to build (Table II).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelSpec {
    /// BERT: hidden 128, 6 heads, 12 layers.
    Bert,
    /// BERT-mini: hidden 50, 2 heads, 6 layers.
    BertMini,
    /// LSTM: hidden 128, 3 layers.
    Lstm,
}

impl ModelSpec {
    /// All three, in Table II column order.
    pub fn all() -> [ModelSpec; 3] {
        [ModelSpec::Bert, ModelSpec::BertMini, ModelSpec::Lstm]
    }

    /// Display name matching the paper's tables.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelSpec::Bert => "BERT",
            ModelSpec::BertMini => "BERT-mini",
            ModelSpec::Lstm => "LSTM",
        }
    }
}

impl std::fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Optimization hyper-parameters for one training run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainHyper {
    /// Adam learning rate. Table I lists `1e-2`; that is stable for the
    /// LSTM but (as the paper itself notes in §IV-B3, "differences in
    /// optimization methods … learning rate") too aggressive for the
    /// transformers, which default lower here.
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Gradient-clipping max norm (0 disables).
    pub clip_norm: f32,
}

impl TrainHyper {
    /// Defaults for BERT MLM pretraining: smaller batches (more optimizer
    /// steps per pass over a scaled-down corpus) and a higher rate paired
    /// with the `MlmLearner`'s warmup schedule.
    pub fn for_mlm() -> Self {
        TrainHyper {
            lr: 2e-3,
            batch_size: 16,
            clip_norm: 1.0,
        }
    }

    /// Per-model defaults.
    pub fn for_model(model: ModelSpec) -> Self {
        match model {
            ModelSpec::Lstm => TrainHyper {
                // Table I lists Adam 1e-2; on this substrate 1e-2 spends
                // most of training on the majority-class plateau while
                // 3e-3 converges steadily (see EXPERIMENTS.md calibration
                // notes), so the default backs off by ~3x.
                lr: 3e-3,
                batch_size: 32,
                clip_norm: 5.0,
            },
            ModelSpec::Bert | ModelSpec::BertMini => TrainHyper {
                lr: 1e-3,
                batch_size: 32,
                clip_norm: 1.0,
            },
        }
    }
}

/// End-to-end pipeline configuration.
///
/// `paper()` mirrors Table I exactly (8 clients; 8,638-patient cohort split
/// 6,927 / 1,732 ≈ 80/20; pretraining corpus 453,377 / 8,683). Because the
/// reproduction substrate is a single-core CPU rather than the paper's
/// 4×RTX 2080 Ti + p3.8xlarge, `scale` divides the data volumes;
/// experiment records in EXPERIMENTS.md state the scale used per run.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Number of federated sites (paper: 8).
    pub n_clients: usize,
    /// Communication rounds `E` for fine-tuning.
    pub rounds: u32,
    /// Local epochs per round (Fig. 3 shows 10 local epochs).
    pub local_epochs: u32,
    /// Centralized / standalone training epochs (compute-matched to
    /// `rounds * local_epochs`).
    pub epochs: u32,
    /// Tokenizer sequence length.
    pub seq_len: usize,
    /// Train fraction of the cohort (paper: 6,927 / 8,638 ≈ 0.802).
    pub train_frac: f64,
    /// The synthetic cohort spec (scaled).
    pub cohort: CohortSpec,
    /// The synthetic pretraining corpus spec (scaled).
    pub pretrain: PretrainSpec,
    /// MLM pretraining epochs per scheme / rounds in FL pretraining.
    pub pretrain_rounds: u32,
    /// Master seed.
    pub seed: u64,
    /// Runtime fault-tolerance knobs for the federated phases.
    pub runtime: RuntimeConfig,
}

/// Fault-tolerance knobs threaded into the `clinfl-flare` runtime: fault
/// injection, round quorum, and the client retry policy. The defaults
/// (no faults, wait for every client) reproduce the pre-fault-layer
/// behavior exactly.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Deterministic link-fault injection profile.
    pub faults: FaultConfig,
    /// Minimum client updates required to aggregate a round.
    pub min_clients: usize,
    /// Deadline for gathering one round's updates.
    pub round_timeout: Duration,
    /// Once `min_clients` updates arrived, close the round this long
    /// after the last accepted update (`None` waits for everyone).
    pub quorum_grace: Option<Duration>,
    /// Client send/recv retry policy.
    pub retry: RetryPolicy,
    /// Persist round snapshots + the run checkpoint into this directory
    /// (crash-safe atomic writes). `None` disables on-disk checkpoints.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume the federated run from the checkpoint in `checkpoint_dir`
    /// instead of starting at round 0.
    pub resume: bool,
    /// Keep at most this many `round_<n>.cfw` files (oldest pruned
    /// first); `None` keeps all.
    pub retain_checkpoints: Option<usize>,
    /// Wire codec for weight exchange, as a codec string (e.g. `"raw"`,
    /// `"delta"`, `"delta+int8"`, `"delta+topk0.05+int8"`); see
    /// `clinfl_flare::codec::CodecSpec::parse` for the grammar.
    pub wire_codec: String,
    /// Aggregation-tree depth (edges from the root to a leaf). `1` is
    /// the classic flat fleet; `>= 2` inserts layers of interior
    /// aggregator nodes (`clinfl_flare::relay`) so the root round cost
    /// stays `O(log n)` in the site count. `0` leaves the choice to the
    /// `CLINFL_TREE` environment knob (flat when it is unset).
    pub tree_depth: u32,
    /// Maximum children per aggregation-tree node (only meaningful with
    /// `tree_depth >= 2`).
    pub tree_fanout: usize,
    /// Per-round client sampling fraction in `(0, 1]`. Each round the
    /// server seeds a deterministic draw of `ceil(fraction · n)` sites
    /// from `(seed, round)` and only they train; everyone still receives
    /// the validation broadcast. Values `>= 1.0` disable sampling and
    /// take the exact legacy (bit-identical) code path.
    pub client_sample_fraction: f64,
    /// DP-SGD clipping norm: each site's weight delta is clipped to this
    /// global L2 norm before Gaussian noise is added. `None` disables the
    /// DP filter entirely (no clipping, no noise, no accountant).
    pub dp_clip: Option<f32>,
    /// DP-SGD noise multiplier σ (noise std = `dp_sigma · dp_clip` per
    /// coordinate). Only meaningful with `dp_clip` set.
    pub dp_sigma: f32,
    /// Target δ of the (ε, δ) guarantee tracked by
    /// `clinfl_flare::privacy::DpAccountant`.
    pub dp_delta: f64,
    /// FedProx proximal coefficient μ: local training adds
    /// `μ/2 · ‖w − w_global‖²` to anchor sites near the global model
    /// under non-IID drift. `None` keeps plain FedAvg local training.
    pub fedprox_mu: Option<f32>,
    /// Post-FL personalization: each site fine-tunes the final global
    /// model on its own shard for this many local epochs (0 disables).
    pub personalize_epochs: u32,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            faults: FaultConfig::none(),
            min_clients: 1,
            round_timeout: Duration::from_secs(3600),
            quorum_grace: None,
            retry: RetryPolicy::default(),
            checkpoint_dir: None,
            resume: false,
            retain_checkpoints: None,
            wire_codec: "raw".to_string(),
            tree_depth: 0,
            tree_fanout: 8,
            client_sample_fraction: 1.0,
            dp_clip: None,
            dp_sigma: 1.0,
            dp_delta: 1e-5,
            fedprox_mu: None,
            personalize_epochs: 0,
        }
    }
}

impl PipelineConfig {
    /// The paper's full-scale configuration (Table I). Expect hours of CPU
    /// time; use [`PipelineConfig::scaled`] for routine runs.
    pub fn paper() -> Self {
        PipelineConfig {
            n_clients: 8,
            rounds: 10,
            local_epochs: 2,
            epochs: 20,
            seq_len: 26,
            train_frac: 0.802,
            cohort: CohortSpec::default(),
            pretrain: PretrainSpec {
                scale: 1,
                ..PretrainSpec::default()
            },
            pretrain_rounds: 10,
            seed: 20230,
            runtime: RuntimeConfig::default(),
        }
    }

    /// Paper configuration with data volumes divided by `scale` and a
    /// matching compute budget (the default experiment setting; see
    /// EXPERIMENTS.md).
    pub fn scaled(scale: usize) -> Self {
        let scale = scale.max(1);
        let mut cfg = PipelineConfig::paper();
        cfg.cohort.n_patients = (cfg.cohort.n_patients / scale).max(64);
        cfg.pretrain.scale = 16 * scale;
        if scale >= 4 {
            cfg.rounds = 5;
            cfg.local_epochs = 2;
            cfg.epochs = 10;
            cfg.pretrain_rounds = 6;
        }
        cfg
    }

    /// A seconds-scale configuration for tests and the quickstart example.
    pub fn fast_demo() -> Self {
        let mut cfg = PipelineConfig::scaled(32);
        cfg.cohort.n_patients = 240;
        cfg.rounds = 2;
        cfg.local_epochs = 1;
        cfg.epochs = 2;
        cfg.pretrain_rounds = 2;
        cfg.pretrain.scale = 2048;
        cfg
    }

    /// The paper's imbalanced-site partitioner (§IV-B1 ratios).
    pub fn imbalanced_partitioner(&self) -> clinfl_data::SitePartitioner {
        assert_eq!(
            self.n_clients, 8,
            "the paper's imbalanced ratios are defined for 8 clients"
        );
        clinfl_data::SitePartitioner::paper_imbalanced()
    }
}

/// How the training cohort is split across the sites.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Partition {
    /// The paper's 8-site 29%..2% split (§IV-B1).
    Imbalanced,
    /// Equal shares.
    Balanced,
    /// Quantity skew drawn from a symmetric Dirichlet(α).
    Dirichlet(f64),
    /// Label skew with this bias in `[0, 1]`. No key value selects it;
    /// the aggregator ablation sets it in code.
    LabelSkew(f64),
}

/// Returns a [`SpecError`] for `keys` unless `ok` holds. A `match`, not
/// `if !`: a NaN must fail a `> 0.0` check.
macro_rules! ensure {
    ($ok:expr, $keys:expr, $($msg:tt)+) => {
        match $ok {
            true => {}
            false => return Err(SpecError { keys: &$keys, msg: format!($($msg)+) }),
        }
    };
}

impl RuntimeConfig {
    /// The DP settings' ranges, which the DP filter and the ε accountant
    /// need. The federation builder checks them again, so a
    /// [`PipelineConfig`] that bypasses [`RunSpec::validate`] is refused
    /// before training rather than after it.
    pub(crate) fn check_dp(&self) -> Result<(), SpecError> {
        if let Some(clip) = self.dp_clip {
            let (sigma, delta) = (self.dp_sigma, self.dp_delta);
            ensure!(
                clip > 0.0 && clip.is_finite(),
                ["dp_clip"],
                "dp_clip {clip} must be a positive finite norm"
            );
            ensure!(
                sigma > 0.0 && sigma.is_finite(),
                ["dp_sigma", "dp_clip"],
                "dp_sigma {sigma} must be positive"
            );
            ensure!(
                delta > 0.0 && delta < 1.0,
                ["dp_delta", "dp_clip"],
                "dp_delta {delta} must be in (0, 1)"
            );
        }
        Ok(())
    }
}

/// Every key of the run table, in documentation order. `clinfl
/// federated` spells each as a flag (`--min-clients 4`), a job as a line
/// (`min_clients = 4`). A job may not set the last seven: personalization
/// and ε accounting are post-run steps of `clinfl federated`, and the
/// serve host gives every job its own checkpoint directory.
pub const RUN_KEYS: [&str; 22] = [
    "name",
    "model",
    "seed",
    "rounds",
    "clients",
    "min_clients",
    "timeout_s",
    "validate",
    "aggregator",
    "partition",
    "wire_codec",
    "tree_depth",
    "tree_fanout",
    "sample_fraction",
    "fedprox_mu",
    "dp_clip",
    "dp_sigma",
    "dp_delta",
    "personalize_epochs",
    "checkpoint_dir",
    "resume",
    "retain",
];

/// How many keys at the end of [`RUN_KEYS`] a job may not set.
const JOB_EXCLUDED: usize = 7;

/// Bounds on what untrusted job text may ask for: every site is a
/// thread, and deadlines and tree depth feed `Instant` arithmetic and
/// recursion.
const MAX_CLIENTS: usize = 1024;
const MAX_TIMEOUT: Duration = Duration::from_secs(7 * 24 * 3600);
const MAX_TREE_DEPTH: u32 = 16;

/// Why [`RunSpec::validate`] refused a spec: the message and the keys it
/// concerns. A parser points the error at the first of them its input
/// set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// The keys involved, most specific first.
    pub keys: &'static [&'static str],
    /// What is wrong.
    pub msg: String,
}

impl From<SpecError> for clinfl_flare::FlareError {
    fn from(e: SpecError) -> Self {
        clinfl_flare::FlareError::Config(format!("{}: {}", e.keys[0], e.msg))
    }
}

/// One federated run, described the same way by `clinfl federated`
/// flags and by a job submitted to `clinfl serve`: both apply
/// [`RunSpec::set`] over a host-supplied base, then
/// [`RunSpec::validate`].
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Run name (job listings, checkpoint subdirectories).
    pub name: String,
    /// Architecture to train.
    pub model: ModelSpec,
    /// Site split of the training cohort.
    pub partition: Partition,
    /// Server aggregation rule.
    pub aggregator: clinfl_flare::job::AggregatorKind,
    /// Validate the global model on every site after each round (this
    /// also keeps unsampled sites alive).
    pub validate: bool,
    /// Data, training and runtime settings.
    pub pipeline: PipelineConfig,
}

impl RunSpec {
    /// A run of `pipeline`: named `run`, the LSTM, weighted FedAvg and
    /// per-round validation.
    pub fn new(pipeline: PipelineConfig, partition: Partition) -> Self {
        RunSpec {
            name: "run".to_string(),
            model: ModelSpec::Lstm,
            partition,
            aggregator: clinfl_flare::job::AggregatorKind::WeightedFedAvg,
            validate: true,
            pipeline,
        }
    }

    /// Sets one key of [`RUN_KEYS`] from its text value. `seed` seeds
    /// training and cohort generation; `resume` names the checkpoint
    /// directory to continue from.
    ///
    /// # Errors
    ///
    /// A message for an unknown key or an unparseable value.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let bad = || format!("invalid {key}: {value:?}");
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("invalid {key}: {value:?}"))
        }
        let p = &mut self.pipeline;
        let rt = &mut p.runtime;
        match key {
            "name" => self.name = value.to_string(),
            "model" => {
                self.model = match value {
                    "lstm" => ModelSpec::Lstm,
                    "bert" => ModelSpec::Bert,
                    "bert-mini" | "bert_mini" => ModelSpec::BertMini,
                    _ => return Err(format!("{} (expected lstm, bert, bert-mini)", bad())),
                }
            }
            "seed" => {
                p.seed = num(key, value)?;
                p.cohort.seed = p.seed;
            }
            "rounds" => p.rounds = num(key, value)?,
            "clients" => p.n_clients = num(key, value)?,
            "min_clients" => rt.min_clients = num(key, value)?,
            "timeout_s" => rt.round_timeout = Duration::from_secs(num(key, value)?),
            "validate" => {
                self.validate = match value {
                    "true" | "yes" | "1" => true,
                    "false" | "no" | "0" => false,
                    _ => return Err(bad()),
                }
            }
            "aggregator" => self.aggregator = clinfl_flare::job::AggregatorKind::parse(value)?,
            "partition" => {
                let alpha = value.strip_prefix("dirichlet:").map(str::parse);
                self.partition = match (value, alpha) {
                    ("imbalanced", _) => Partition::Imbalanced,
                    ("balanced", _) => Partition::Balanced,
                    (_, Some(Ok(alpha))) => Partition::Dirichlet(alpha),
                    _ => {
                        return Err(format!(
                            "{} (expected imbalanced, balanced or dirichlet:<alpha>)",
                            bad()
                        ))
                    }
                }
            }
            "wire_codec" => rt.wire_codec = value.to_string(),
            "tree_depth" => rt.tree_depth = num(key, value)?,
            "tree_fanout" => rt.tree_fanout = num(key, value)?,
            "sample_fraction" => rt.client_sample_fraction = num(key, value)?,
            "fedprox_mu" => rt.fedprox_mu = Some(num(key, value)?),
            "dp_clip" => rt.dp_clip = Some(num(key, value)?),
            "dp_sigma" => rt.dp_sigma = num(key, value)?,
            "dp_delta" => rt.dp_delta = num(key, value)?,
            "personalize_epochs" => rt.personalize_epochs = num(key, value)?,
            "checkpoint_dir" => rt.checkpoint_dir = Some(value.into()),
            "resume" => {
                rt.checkpoint_dir = Some(value.into());
                rt.resume = true;
            }
            "retain" => rt.retain_checkpoints = Some(num(key, value)?),
            other => return Err(format!("unknown key {other:?}")),
        }
        Ok(())
    }

    /// Refuses every combination the federation builder cannot run as
    /// written, instead of letting it panic or quietly run something
    /// else.
    ///
    /// # Errors
    ///
    /// The first problem found, with the keys it concerns.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.check(TreeConfig::from_env().map(|t| t.depth))
    }

    /// [`RunSpec::validate`] with the `CLINFL_TREE` depth given, so a
    /// spec that leaves `tree_depth` at 0 is checked against the tree the
    /// simulator will stand up for it.
    fn check(&self, env_depth: Option<u32>) -> Result<(), SpecError> {
        use clinfl_flare::job::AggregatorKind;
        let (p, rt) = (&self.pipeline, &self.pipeline.runtime);
        let (n, name, sampling) = (p.n_clients, &self.name, rt.client_sample_fraction < 1.0);
        ensure!(p.rounds >= 1, ["rounds"], "rounds must be at least 1");
        ensure!(
            (1..=MAX_CLIENTS).contains(&n),
            ["clients"],
            "clients must be 1..={MAX_CLIENTS}, got {n}"
        );
        ensure!(
            (1..=64).contains(&name.len())
                && !name.starts_with('.')
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)),
            ["name"],
            "name {name:?} must be 1-64 characters of [A-Za-z0-9._-], not starting with '.'"
        );
        let timeout = rt.round_timeout;
        ensure!(
            !timeout.is_zero() && timeout <= MAX_TIMEOUT,
            ["timeout_s"],
            "timeout_s must be 1..={}, got {}",
            MAX_TIMEOUT.as_secs(),
            timeout.as_secs()
        );
        ensure!(
            (1..=n).contains(&rt.min_clients),
            ["min_clients", "clients"],
            "min_clients {} must be between 1 and clients ({n})",
            rt.min_clients
        );
        ensure!(
            self.partition != Partition::Imbalanced || n == 8,
            ["partition", "clients"],
            "partition imbalanced is the paper's 8-site split; for {n} clients use balanced or dirichlet:<alpha>"
        );
        let in_range = match self.partition {
            Partition::Dirichlet(alpha) => alpha > 0.0 && alpha.is_finite(),
            Partition::LabelSkew(bias) => (0.0..=1.0).contains(&bias),
            Partition::Imbalanced | Partition::Balanced => true,
        };
        ensure!(
            in_range,
            ["partition"],
            "partition {:?} is out of range",
            self.partition
        );
        let wire = clinfl_flare::codec::CodecSpec::parse(&rt.wire_codec);
        ensure!(
            wire.is_ok(),
            ["wire_codec"],
            "invalid wire_codec: {}",
            wire.clone().unwrap_err()
        );
        let depth = Some(rt.tree_depth).filter(|&d| d > 0).or(env_depth);
        let tree = depth.unwrap_or(1) >= 2 && n >= 2;
        ensure!(
            rt.tree_depth <= MAX_TREE_DEPTH,
            ["tree_depth"],
            "tree_depth must be at most {MAX_TREE_DEPTH}"
        );
        ensure!(
            rt.tree_depth < 2 || rt.tree_fanout >= 2,
            ["tree_fanout", "tree_depth"],
            "tree_fanout must be at least 2"
        );
        let aggregator = self.aggregator.build();
        let blocker = TreeConfig::blocker(aggregator.as_ref(), rt.client_sample_fraction);
        ensure!(
            !tree || blocker.is_none(),
            ["aggregator", "sample_fraction", "tree_depth"],
            "{}, so this run cannot use an aggregation tree (tree_depth {}; 0 takes CLINFL_TREE's)",
            blocker.unwrap_or_default(),
            rt.tree_depth
        );
        ensure!(
            rt.client_sample_fraction > 0.0,
            ["sample_fraction"],
            "sample_fraction must be positive, got {}",
            rt.client_sample_fraction
        );
        ensure!(
            !sampling || self.validate,
            ["validate", "sample_fraction"],
            "sampling needs validate = true: the validation broadcast keeps unsampled sites alive"
        );
        let masked = self.aggregator == AggregatorKind::MaskedSum;
        ensure!(
            !masked || !sampling && wire.is_ok_and(|w| w.is_lossless()),
            ["aggregator", "sample_fraction", "wire_codec"],
            "masked_sum needs every site every round and a lossless wire codec, or the masks do not cancel"
        );
        ensure!(
            !masked || rt.min_clients == n,
            ["min_clients", "aggregator"],
            "masked_sum needs min_clients = clients ({n}): a round aggregated without some site keeps that site's masks in the sum"
        );
        let mu = rt.fedprox_mu.unwrap_or(0.0);
        ensure!(
            mu >= 0.0 && mu.is_finite(),
            ["fedprox_mu"],
            "fedprox_mu must be >= 0, got {mu}"
        );
        rt.check_dp()?;
        ensure!(
            rt.retain_checkpoints != Some(0),
            ["retain"],
            "retain must keep at least 1 snapshot"
        );
        Ok(())
    }

    /// Applies job text over this base, refusing the driver-only keys
    /// (personalization, DP accounting, checkpoint placement), and
    /// validates the result.
    ///
    /// # Errors
    ///
    /// A message naming the offending line.
    pub fn parse_job(self, text: &str) -> Result<RunSpec, String> {
        self.parse_text(text, &RUN_KEYS[RUN_KEYS.len() - JOB_EXCLUDED..])
    }

    /// Applies `key = value` text over this base, refusing the keys in
    /// `excluded`, and validates the result.
    fn parse_text(mut self, text: &str, excluded: &[&str]) -> Result<RunSpec, String> {
        let lines = clinfl_flare::job::read_lines(text, |key, value| {
            if excluded.contains(&key) {
                return Err(format!("{key} cannot be set in a job"));
            }
            self.set(key, value)
        })?;
        self.located(|key| lines.get(key).map(|line| format!("line {line}")))
    }

    /// Applies `--some-key value` pairs over this base (each one is
    /// `set("some_key", value)`), refusing the keys in `excluded` (those
    /// the calling command does not read), and validates the result.
    ///
    /// # Errors
    ///
    /// A message naming the offending flag.
    pub fn parse_args(
        mut self,
        args: impl IntoIterator<Item = String>,
        excluded: &[&str],
    ) -> Result<RunSpec, String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let key = flag
                .strip_prefix("--")
                .unwrap_or_default()
                .replace('-', "_");
            if !RUN_KEYS.contains(&key.as_str()) {
                return Err(format!("{flag}: unknown key {key:?}"));
            }
            if excluded.contains(&key.as_str()) {
                return Err(format!("{flag}: this command does not read {key}"));
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            if !seen.insert(key.clone()) {
                return Err(format!("{flag} given twice"));
            }
            self.set(&key, &value).map_err(|e| format!("{flag}: {e}"))?;
        }
        self.located(|key| {
            seen.contains(key)
                .then(|| format!("--{}", key.replace('_', "-")))
        })
    }

    /// Validates, pointing an error at the first of its keys `place`
    /// can locate in the parser's input.
    fn located(self, place: impl Fn(&str) -> Option<String>) -> Result<RunSpec, String> {
        match self.validate() {
            Ok(()) => Ok(self),
            Err(e) => Err(match e.keys.iter().find_map(|k| place(k)) {
                Some(at) => format!("{at}: {}", e.msg),
                None => e.msg,
            }),
        }
    }

    /// The partitioner [`Partition`] names for this run's site count.
    pub fn partitioner(&self) -> clinfl_data::SitePartitioner {
        use clinfl_data::SitePartitioner;
        let n_sites = self.pipeline.n_clients;
        match self.partition {
            Partition::Imbalanced => self.pipeline.imbalanced_partitioner(),
            Partition::Balanced => SitePartitioner::Balanced { n_sites },
            Partition::Dirichlet(alpha) => SitePartitioner::Dirichlet { n_sites, alpha },
            Partition::LabelSkew(bias) => SitePartitioner::LabelSkew { n_sites, bias },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_counts() {
        let cfg = PipelineConfig::paper();
        assert_eq!(cfg.n_clients, 8);
        assert_eq!(cfg.cohort.n_patients, 8_638);
        assert_eq!(cfg.pretrain.n_train(), 453_377);
        assert_eq!(cfg.pretrain.n_valid(), 8_683);
        // 80/20 split reproduces the paper's 6,927 / 1,732 within rounding.
        let train = (8_638.0 * cfg.train_frac).round() as usize;
        assert_eq!(train, 6_928); // vs paper 6,927 (±1 from their rounding)
        assert_eq!(8_638 - train, 1_710);
    }

    #[test]
    fn scaled_reduces_volume() {
        let cfg = PipelineConfig::scaled(4);
        assert_eq!(cfg.cohort.n_patients, 2_159);
        assert!(cfg.pretrain.n_train() < 10_000);
        assert_eq!(cfg.rounds, 5);
    }

    #[test]
    fn hyper_defaults_differ_by_model() {
        assert!(
            TrainHyper::for_model(ModelSpec::Lstm).lr > TrainHyper::for_model(ModelSpec::Bert).lr
        );
    }

    /// Flat unless a test sets `tree_depth`, whatever `CLINFL_TREE` says.
    fn base() -> RunSpec {
        let mut spec = RunSpec::new(PipelineConfig::scaled(16), Partition::Balanced);
        spec.pipeline.runtime.tree_depth = 1;
        spec
    }

    fn text(s: &str) -> Result<RunSpec, String> {
        base().parse_text(s, &[])
    }

    fn argv(s: &str) -> Result<RunSpec, String> {
        base().parse_args(s.split_whitespace().map(String::from), &[])
    }

    #[test]
    fn every_key_reads_the_same_from_text_and_argv() {
        let samples = [
            ("name", "alpha"),
            ("model", "bert"),
            ("seed", "7"),
            ("rounds", "3"),
            ("clients", "4"),
            ("min_clients", "2"),
            ("timeout_s", "60"),
            ("validate", "false"),
            ("aggregator", "median"),
            ("partition", "dirichlet:0.3"),
            ("wire_codec", "delta+int8"),
            ("tree_depth", "2"),
            ("tree_fanout", "4"),
            ("sample_fraction", "0.5"),
            ("fedprox_mu", "0.01"),
            ("dp_clip", "1.5"),
            ("dp_sigma", "0.8"),
            ("dp_delta", "0.001"),
            ("personalize_epochs", "2"),
            ("checkpoint_dir", "runs/a"),
            ("resume", "runs/b"),
            ("retain", "3"),
        ];
        assert_eq!(
            samples.map(|(k, _)| k),
            RUN_KEYS,
            "one sample per key, in order"
        );
        let unchanged = format!("{:?}", base());
        for (key, value) in samples {
            let from_text = text(&format!("{key} = {value}")).unwrap();
            let from_argv = argv(&format!("--{} {value}", key.replace('_', "-"))).unwrap();
            let shown = format!("{from_text:?}");
            assert_eq!(shown, format!("{from_argv:?}"), "key {key}");
            assert_ne!(shown, unchanged, "key {key} changed nothing");
        }
        assert!(text("bogus = 1")
            .unwrap_err()
            .contains("line 1: unknown key"));
        assert!(argv("--bogus 1")
            .unwrap_err()
            .starts_with("--bogus: unknown key"));
    }

    #[test]
    fn seed_key_reseeds_training_and_the_cohort() {
        for spec in [text("seed = 7").unwrap(), argv("--seed 7").unwrap()] {
            assert_eq!(spec.pipeline.seed, 7);
            assert_eq!(spec.pipeline.cohort.seed, 7);
        }
        let job = base().parse_job("seed = 7").unwrap();
        assert_eq!(job.pipeline.cohort.seed, 7);
    }

    #[test]
    fn errors_point_at_the_line_or_flag() {
        let imbalanced = RunSpec::new(PipelineConfig::scaled(16), Partition::Imbalanced);
        let err = imbalanced
            .clone()
            .parse_args(["--clients".to_string(), "4".to_string()], &[])
            .unwrap_err();
        assert!(err.starts_with("--clients: partition imbalanced"), "{err}");
        let err = text("name = a\nclients = 4\npartition = imbalanced\n").unwrap_err();
        assert!(err.starts_with("line 3: partition imbalanced"), "{err}");
        let err = text("rounds = 2\nsample_fraction = 0\n").unwrap_err();
        assert!(err.starts_with("line 2: sample_fraction"), "{err}");
        assert!(argv("--partition dirichlet:0")
            .unwrap_err()
            .starts_with("--partition:"));
        assert!(argv("--partition dirichlet")
            .unwrap_err()
            .starts_with("--partition:"));
    }

    #[test]
    fn jobs_refuse_driver_only_keys() {
        for key in &RUN_KEYS[RUN_KEYS.len() - JOB_EXCLUDED..] {
            let err = base()
                .parse_job(&format!("rounds = 2\n{key} = 1\n"))
                .unwrap_err();
            assert!(
                err.starts_with(&format!("line 2: {key} cannot be set in a job")),
                "{err}"
            );
        }
        assert!(base().parse_text("dp_clip = 1", &[]).is_ok());
    }

    #[test]
    fn impossible_combinations_are_rejected() {
        for bad in [
            "validate = maybe",
            "seed = minus-one",
            "rounds = many",
            "clients = x",
            "rounds = 0",
            "clients = 0",
            "clients = 100000",
            "min_clients = 9",
            "min_clients = 0",
            "timeout_s = 0",
            "timeout_s = 18446744073709551615",
            "name = ../escape",
            "name = ",
            "partition = dirichlet:-1",
            "partition = dirichlet:NaN",
            "wire_codec = delta+bogus",
            "tree_depth = 100",
            "tree_depth = 2\ntree_fanout = 1",
            "tree_depth = 2\naggregator = median",
            "sample_fraction = NaN",
            "sample_fraction = 0.5\nvalidate = false",
            "sample_fraction = 0.5\ntree_depth = 2",
            "aggregator = masked_sum\nsample_fraction = 0.5",
            "aggregator = masked_sum\nwire_codec = int8",
            "aggregator = masked_sum\nclients = 4",
            "aggregator = masked_sum\nclients = 4\nmin_clients = 3",
            "fedprox_mu = -1",
            "dp_clip = -1",
            "dp_clip = 1\ndp_sigma = 0",
            "dp_clip = 1\ndp_delta = 1",
            "retain = 0",
        ] {
            let err = text(bad).expect_err(bad);
            assert!(err.starts_with("line "), "{bad:?}: {err}");
        }
        for bad in ["--rounds", "rounds 3", "--rounds 2 --rounds 3"] {
            assert!(argv(bad).is_err(), "{bad:?}");
        }
        let err = base()
            .parse_args(["--model".into(), "bert".into()], &["model"])
            .unwrap_err();
        assert_eq!(err, "--model: this command does not read model");
        let masked = "aggregator = masked_sum\nclients = 4\nmin_clients = 4\nwire_codec = delta";
        assert!(text(masked).is_ok());
        assert!(text("dp_clip = 1\ndp_sigma = 0.5\ndp_delta = 0.01").is_ok());
    }

    #[test]
    fn tree_depth_zero_is_checked_against_the_env_tree() {
        let mut spec = base();
        spec.pipeline.runtime.tree_depth = 0;
        spec.aggregator = clinfl_flare::job::AggregatorKind::CoordinateMedian;
        assert!(spec.check(None).is_ok());
        assert!(spec.check(Some(1)).is_ok());
        let err = spec.check(Some(2)).unwrap_err();
        assert_eq!(err.keys[0], "aggregator");
        assert!(err.msg.contains("CLINFL_TREE"), "{}", err.msg);
        spec.aggregator = clinfl_flare::job::AggregatorKind::WeightedFedAvg;
        spec.pipeline.runtime.client_sample_fraction = 0.5;
        assert!(spec.check(Some(3)).is_err());
        // An explicit flat depth overrides the env knob.
        spec.pipeline.runtime.tree_depth = 1;
        assert!(spec.check(Some(3)).is_ok());
    }

    #[test]
    fn model_spec_names() {
        assert_eq!(ModelSpec::Bert.to_string(), "BERT");
        assert_eq!(ModelSpec::all().len(), 3);
    }
}
