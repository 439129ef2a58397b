//! The simulator: whole federations in one process (NVFlare's
//! `SimulatorRunner`, the mode the paper's Fig. 3 demonstrates).
//!
//! Every in-process federation stands up through one path. A flat fleet
//! is a depth-1 aggregation tree whose root children are all leaves, and
//! the job runtime ([`crate::jobs`]) runs each job through the same path
//! with the job's own registry, status and abort flag. Every site and
//! relay attaches through a reactor-native session
//! ([`FlServer::serve_session`]), so no server-side thread is spawned
//! per site.

use crate::admin::RunStatus;
use crate::aggregator::Aggregator;
use crate::client::{ClientBehavior, FlClient, RetryPolicy};
use crate::codec::CodecSpec;
use crate::controller::{SagConfig, ScatterAndGather, WorkflowResult};
use crate::dxo::Weights;
use crate::executor::Executor;
use crate::faults::{FaultConfig, FaultPlan};
use crate::filters::FilterChain;
use crate::log::EventLog;
use crate::persistor::{FilePersistor, InMemoryPersistor, Persistor};
use crate::provision::{Project, Provisioned, SitePackage};
use crate::relay::{AggregatorNode, RelayConfig};
use crate::server::FlServer;
use crate::transport::Connection;
use crate::FlareError;
use clinfl_obs::Registry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Shape of the in-process aggregation tree (see [`AggregatorNode`]).
///
/// `depth` counts edges from the root to a leaf: `1` is the classic flat
/// fleet, `2` inserts one layer of interior aggregator nodes, and so on.
/// Each interior node fans out to at most `fanout` children.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeConfig {
    /// Edges from root to leaf (`<= 1` means flat).
    pub depth: u32,
    /// Maximum children per node.
    pub fanout: usize,
}

impl TreeConfig {
    /// Why a tree cannot serve a run, if it cannot: interior nodes must
    /// combine partial updates, and they scatter to their whole shard, so
    /// a per-round site subset cannot be addressed through them.
    /// `clinfl::RunSpec::validate` refuses such a run; the simulator runs
    /// it flat.
    pub fn blocker(aggregator: &dyn Aggregator, sample_fraction: f64) -> Option<String> {
        if !aggregator.supports_partial() {
            Some(format!(
                "{} does not decompose over shards",
                aggregator.name()
            ))
        } else if sample_fraction < 1.0 {
            Some("client sampling does not compose with tree aggregation".to_string())
        } else {
            None
        }
    }

    /// Reads the `CLINFL_TREE` environment knob: `"2"` (depth 2, fanout
    /// 8) or `"2x8"` (`depth x fanout`). Unset, empty, or unparsable
    /// values mean "no override".
    pub fn from_env() -> Option<Self> {
        Self::parse(&std::env::var("CLINFL_TREE").ok()?)
    }

    /// Parses `"<depth>"` or `"<depth>x<fanout>"`.
    pub fn parse(raw: &str) -> Option<Self> {
        let raw = raw.trim();
        if raw.is_empty() {
            return None;
        }
        let (depth, fanout) = match raw.split_once('x') {
            Some((d, f)) => (d.trim().parse().ok()?, f.trim().parse().ok()?),
            None => (raw.parse().ok()?, 8),
        };
        Some(TreeConfig {
            depth,
            fanout: std::cmp::max(fanout, 2),
        })
    }

    /// The smallest depth whose capacity `fanout^depth` covers `n` sites
    /// (so 8 sites at fan-out 8 stay flat, 64 get one interior layer,
    /// 1024 get three).
    pub fn auto(n: usize, fanout: usize) -> Self {
        let fanout = fanout.max(2);
        let mut depth = 1u32;
        let mut capacity = fanout;
        while capacity < n {
            depth += 1;
            capacity = capacity.saturating_mul(fanout);
        }
        TreeConfig { depth, fanout }
    }
}

/// One child slot in the topology: a leaf site (by 0-based index) or an
/// interior aggregator subtree.
enum TreeChild {
    Leaf(usize),
    Node(TreeNodeSpec),
}

struct TreeNodeSpec {
    name: String,
    children: Vec<TreeChild>,
}

/// Chunks name-sorted leaves into contiguous shards, one per child, each
/// sized to the capacity of a subtree of the remaining height. Chunks of
/// one leaf attach directly (an interior node relaying a single site
/// would only add latency).
fn build_children(
    order: &[usize],
    height: u32,
    fanout: usize,
    counter: &mut usize,
) -> Vec<TreeChild> {
    if height <= 1 || order.len() <= 1 {
        return order.iter().map(|&i| TreeChild::Leaf(i)).collect();
    }
    let capacity = fanout.saturating_pow(height - 1).max(1);
    order
        .chunks(capacity)
        .map(|chunk| {
            if chunk.len() == 1 {
                TreeChild::Leaf(chunk[0])
            } else {
                let name = format!("agg-{:03}", *counter);
                *counter += 1;
                TreeChild::Node(TreeNodeSpec {
                    name,
                    children: build_children(chunk, height - 1, fanout, counter),
                })
            }
        })
        .collect()
}

fn child_name<'a>(child: &'a TreeChild, leaf_names: &'a [String]) -> &'a str {
    match child {
        TreeChild::Leaf(i) => &leaf_names[*i],
        TreeChild::Node(spec) => &spec.name,
    }
}

/// Client-side DH secret of leaf site `index` (0-based) or, with
/// `relay`, of relay uplink number `index`. Relay ids carry the high bit
/// so they never collide with a site's; a site's secret depends only on
/// the run seed and its index, whatever the tree shape or host.
fn dh_secret(seed: u64, index: u64, relay: bool) -> u64 {
    let id = if relay {
        0x8000_0000_0000_0000 | index
    } else {
        index + 1
    };
    seed.wrapping_mul(0x9E3779B97F4A7C15) ^ id
}

/// A leaf client ready to spawn: its (fault-wrapped) connection into the
/// parent node plus registration material.
struct LeafJob {
    index: usize,
    package: SitePackage,
    conn: Connection,
}

/// An interior node ready to spawn: a downstream server whose child
/// sessions are already created, plus the uplink registration material.
struct RelayJob {
    name: String,
    server: FlServer,
    conn: Connection,
    package: SitePackage,
    dh_secret: u64,
    n_children: usize,
    n_leaves: usize,
    cfg: RelayConfig,
}

/// Leaf sites covered by a subtree (relay children count their whole
/// subtree, not themselves).
fn subtree_leaves(children: &[TreeChild]) -> usize {
    children
        .iter()
        .map(|c| match c {
            TreeChild::Leaf(_) => 1,
            TreeChild::Node(spec) => subtree_leaves(&spec.children),
        })
        .sum()
}

/// The spawnable pieces of a tree, collected while
/// [`SimulatorRunner::instantiate_children`] walks it.
struct Fleet<'a> {
    plan: &'a FaultPlan,
    leaf_names: &'a [String],
    project: &'a str,
    relay_seq: u64,
    leaves: Vec<LeafJob>,
    relays: Vec<RelayJob>,
}

/// What a host hands [`SimulatorRunner::run_scoped`] beyond the config:
/// where the run's metrics, status and abort flag live and what the run
/// is called. [`SimulatorRunner::run`] uses the process-global registry;
/// the job runtime passes each job's own scope.
pub(crate) struct RunScope<'a> {
    /// Provisioned project name (`simulator_server`, or `job-<id>`).
    pub(crate) project: String,
    /// Registry the root server, leaf clients and controller record into.
    pub(crate) obs: Registry,
    /// Live workflow status for admin observers.
    pub(crate) status: RunStatus,
    /// Operator abort flag, polled between rounds and gather slices.
    pub(crate) abort: Arc<AtomicBool>,
    /// Obs artifact file-name parts: `(run, tag)`.
    pub(crate) artifact: (String, String),
    /// Called once the fleet has registered, right before round 0.
    pub(crate) on_running: Box<dyn FnOnce() + 'a>,
}

/// Configuration of a simulated federation.
#[derive(Clone, Debug)]
pub struct SimulatorConfig {
    /// Number of simulated sites (the paper uses 8).
    pub n_clients: usize,
    /// ScatterAndGather workflow settings.
    pub sag: SagConfig,
    /// Provisioning / session seed.
    pub seed: u64,
    /// Per-client failure injection, keyed by 0-based site index.
    pub behaviors: BTreeMap<usize, ClientBehavior>,
    /// Deterministic link-level fault injection (defaults to none).
    pub faults: FaultConfig,
    /// Client send/recv retry policy.
    pub retry: RetryPolicy,
    /// Persist per-round snapshots and the run checkpoint into this
    /// directory (crash-safe; see `DESIGN.md`). `None` keeps everything in
    /// memory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the checkpoint in `checkpoint_dir` (if one is valid);
    /// the run restarts at round *k+1*. Refused if the checkpoint was
    /// written under a different `seed`.
    pub resume: bool,
    /// Keep at most this many `round_<n>.cfw` files on disk (oldest
    /// pruned first); `None` keeps all.
    pub retain_checkpoints: Option<usize>,
    /// Wire codec every client asks for at registration (see
    /// [`crate::codec`]); raw keeps the full-f32 exchange.
    pub wire: CodecSpec,
    /// Per-site codec overrides keyed by 0-based site index (mixed-fleet
    /// testing: some sites raw, some compressed).
    pub wire_overrides: BTreeMap<usize, CodecSpec>,
    /// When false the server answers every registration with `raw`,
    /// whatever codec the client asked for.
    pub server_codecs_enabled: bool,
    /// Aggregation-tree topology. `None` falls back to the `CLINFL_TREE`
    /// environment knob, and to a flat fleet when that is unset too. A
    /// resumed run restores the topology recorded in its checkpoint
    /// instead. Trees need an aggregation rule with
    /// [`Aggregator::supports_partial`]; others warn and run flat.
    pub tree: Option<TreeConfig>,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        SimulatorConfig {
            n_clients: 8,
            sag: SagConfig::default(),
            seed: 2023,
            behaviors: BTreeMap::new(),
            faults: FaultConfig::none(),
            retry: RetryPolicy::default(),
            checkpoint_dir: None,
            resume: false,
            retain_checkpoints: None,
            wire: CodecSpec::raw(),
            wire_overrides: BTreeMap::new(),
            server_codecs_enabled: true,
            tree: None,
        }
    }
}

impl SimulatorConfig {
    /// A paper-like default: 8 clients, `rounds` rounds, everyone healthy.
    pub fn paper(rounds: u32) -> Self {
        SimulatorConfig {
            sag: SagConfig {
                rounds,
                min_clients: 1,
                ..SagConfig::default()
            },
            ..SimulatorConfig::default()
        }
    }
}

/// Result of a simulator run: the workflow outcome plus the collected
/// event log (the content of the paper's Fig. 3).
#[derive(Debug)]
pub struct SimulationResult {
    /// Workflow result (final weights, per-round summaries).
    pub workflow: WorkflowResult,
    /// Rounds each client completed before exiting.
    pub client_rounds: Vec<u32>,
    /// The run log.
    pub log: EventLog,
}

/// Builds and runs an in-process federation: provision → server → client
/// threads → ScatterAndGather → results.
pub struct SimulatorRunner {
    config: SimulatorConfig,
    log: EventLog,
}

impl std::fmt::Debug for SimulatorRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatorRunner")
            .field("n_clients", &self.config.n_clients)
            .finish_non_exhaustive()
    }
}

impl SimulatorRunner {
    /// Creates a runner with a silent log.
    pub fn new(config: SimulatorConfig) -> Self {
        Self::with_log(config, EventLog::new())
    }

    /// Creates a runner that logs into `log` (use [`EventLog::echoing`]
    /// for live Fig. 3-style output).
    pub fn with_log(config: SimulatorConfig, log: EventLog) -> Self {
        SimulatorRunner { config, log }
    }

    /// The shared event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Runs the federation to completion.
    ///
    /// `make_executor` is called once per site (with its index and name)
    /// on the launching thread; the produced executor moves to that site's
    /// thread. `make_filters` may return a per-site outgoing filter chain.
    ///
    /// # Errors
    ///
    /// Propagates workflow failures (e.g.
    /// [`FlareError::NotEnoughClients`]).
    ///
    /// # Panics
    ///
    /// Panics if a client thread panicked (executor bugs should surface,
    /// not hang the run).
    pub fn run(
        &self,
        initial: Weights,
        mut make_executor: impl FnMut(usize, &str) -> Box<dyn Executor>,
        aggregator: &dyn Aggregator,
        mut make_filters: impl FnMut(usize) -> FilterChain,
    ) -> Result<SimulationResult, FlareError> {
        let c = &self.config;
        let scope = RunScope {
            project: "simulator_server".to_string(),
            obs: Registry::global(),
            status: RunStatus::new(),
            abort: Arc::default(),
            artifact: (
                format!("sim-{}x{}-seed{}", c.n_clients, c.sag.rounds, c.seed),
                String::new(),
            ),
            on_running: Box::new(|| {}),
        };
        self.run_scoped(
            scope,
            initial,
            &mut make_executor,
            aggregator,
            &mut make_filters,
        )
    }

    /// The one federation stand-up behind [`SimulatorRunner::run`] and
    /// the job runtime: checkpoint/resume setup → topology → provision
    /// and attach every node through reactor sessions → one thread per
    /// leaf and relay → ScatterAndGather at the root → teardown.
    /// Aggregation order at every node is name-sorted, so a depth-2 run
    /// is bit-identical to a flat run for rules whose partial
    /// decomposition is exact.
    pub(crate) fn run_scoped(
        &self,
        scope: RunScope<'_>,
        initial: Weights,
        make_executor: &mut dyn FnMut(usize, &str) -> Box<dyn Executor>,
        aggregator: &dyn Aggregator,
        make_filters: &mut dyn FnMut(usize) -> FilterChain,
    ) -> Result<SimulationResult, FlareError> {
        let _run_span = clinfl_obs::span("run");
        let log = self.log.clone();
        let cfg = &self.config;
        let n = cfg.n_clients;
        // Checkpoint/resume setup happens before any client thread spawns,
        // so a refused resume returns an error without leaking threads.
        let mut initial = initial;
        let mut sag_cfg = cfg.sag.clone();
        let mut persistor: Box<dyn Persistor> = match &cfg.checkpoint_dir {
            Some(dir) => {
                let mut fp = FilePersistor::new(dir)?.with_log(log.clone());
                if let Some(keep) = cfg.retain_checkpoints {
                    fp = fp.with_retention(keep);
                }
                if cfg.resume {
                    match fp.load_checkpoint() {
                        Some(ckpt) => {
                            if ckpt.seed != cfg.seed {
                                return Err(FlareError::Checkpoint(format!(
                                    "checkpoint in {dir:?} was written under run seed {}; \
                                     refusing to resume with seed {} (the fault/data \
                                     schedule would diverge)",
                                    ckpt.seed, cfg.seed
                                )));
                            }
                            initial = ckpt.global.clone();
                            sag_cfg.resume_from = Some(ckpt);
                        }
                        None => log.warn(
                            "SimulatorRunner",
                            "resume requested but no valid checkpoint found; starting fresh",
                        ),
                    }
                }
                Box::new(fp)
            }
            None => Box::new(InMemoryPersistor::new()),
        };
        let plan = FaultPlan::new(cfg.faults.clone(), log.clone());
        if plan.config().is_active() {
            log.info(
                "FaultInjector",
                format!("active with seed {}", plan.config().seed),
            );
        }
        let tree = self.topology(&sag_cfg, aggregator);
        log.info("SimulatorRunner", "Create the simulate clients.");
        let leaf_names: Vec<String> = (1..=n).map(|i| format!("site-{i}")).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| leaf_names[a].cmp(&leaf_names[b]));
        let mut counter = 0usize;
        let root_children = build_children(&order, tree.depth, tree.fanout, &mut counter);
        if tree.depth >= 2 {
            log.info(
                "SimulatorRunner",
                format!(
                    "Aggregation tree: depth {}, fan-out {}, {counter} interior node(s), \
                     {} root child(ren) over {n} site(s).",
                    tree.depth,
                    tree.fanout,
                    root_children.len()
                ),
            );
        }
        let RunScope {
            project,
            obs,
            status,
            abort,
            artifact,
            on_running,
        } = scope;
        let root_prov = Project {
            name: project.clone(),
            sites: root_children
                .iter()
                .map(|c| child_name(c, &leaf_names).to_string())
                .collect(),
            seed: cfg.seed,
        }
        .provision();
        let mut server = FlServer::new(root_prov.server.clone(), log.clone(), cfg.seed);
        server.set_registry(obs.clone());
        server.set_quorum(cfg.sag.min_clients, cfg.sag.quorum_grace);
        server.set_wire_codecs_enabled(cfg.server_codecs_enabled);
        let mut fleet = Fleet {
            plan: &plan,
            leaf_names: &leaf_names,
            project: &project,
            relay_seq: 0,
            leaves: Vec::with_capacity(n),
            relays: Vec::new(),
        };
        self.instantiate_children(
            &mut server,
            &root_prov,
            &root_children,
            cfg.sag.round_timeout,
            cfg.sag.quorum_grace,
            &mut fleet,
        );
        let Fleet {
            mut leaves, relays, ..
        } = fleet;
        // client_rounds stays indexed by site, independent of tree shape.
        leaves.sort_by_key(|j| j.index);
        let n_root_children = root_children.len();
        let has_relays = !relays.is_empty();

        let (workflow, client_rounds) = std::thread::scope(|scope| {
            let mut relay_handles = Vec::with_capacity(relays.len());
            for job in relays {
                let clog = log.clone();
                let wire = cfg.wire.clone();
                let retry = cfg.retry;
                relay_handles.push((
                    job.name.clone(),
                    scope.spawn(move || -> Result<u32, FlareError> {
                        let RelayJob {
                            name,
                            server,
                            conn,
                            package,
                            dh_secret,
                            n_children,
                            n_leaves,
                            cfg,
                        } = job;
                        let mut uplink =
                            FlClient::register(conn, &package, dh_secret, &wire, clog.clone())?;
                        uplink.set_retry_policy(retry);
                        let mut node = AggregatorNode::new(
                            name, server, uplink, n_children, n_leaves, cfg, clog,
                        );
                        node.run(aggregator)
                    }),
                ));
            }
            let mut leaf_handles = Vec::with_capacity(n);
            for job in leaves {
                let i = job.index;
                let mut behavior = cfg.behaviors.get(&i).copied().unwrap_or_default();
                if behavior.drop_at_round.is_none() {
                    // The fault plan can schedule mid-round crashes too.
                    behavior.drop_at_round = plan.crash_round(i);
                }
                let mut executor = make_executor(i, &leaf_names[i]);
                let filters = make_filters(i);
                let wire = cfg.wire_overrides.get(&i).unwrap_or(&cfg.wire).clone();
                let (clog, cobs, retry) = (log.clone(), obs.clone(), cfg.retry);
                let secret = dh_secret(cfg.seed, i as u64, false);
                leaf_handles.push(scope.spawn(move || -> Result<u32, FlareError> {
                    let mut client =
                        FlClient::register(job.conn, &job.package, secret, &wire, clog)?;
                    client.set_registry(cobs);
                    client.set_filters(filters);
                    client.set_retry_policy(retry);
                    client.run(executor.as_mut(), behavior)
                }));
            }

            let joined = server.wait_for_clients(n_root_children, Duration::from_secs(30));
            if joined < n_root_children {
                log.warn(
                    "SimulatorRunner",
                    format!("only {joined}/{n_root_children} clients registered"),
                );
            }
            if has_relays {
                // A relay registers before it announces its leaves, so
                // the root also waits for the full leaf population.
                let covered = server.wait_for_leaves(n, Duration::from_secs(30));
                if covered < n {
                    log.warn(
                        "SimulatorRunner",
                        format!("only {covered}/{n} leaf sites announced"),
                    );
                }
            }
            on_running();

            let mut sag = ScatterAndGather::new(sag_cfg, log.clone())
                .with_run_seed(cfg.seed)
                .with_registry(obs.clone())
                .with_status(status)
                .with_abort(abort);
            if tree.depth >= 2 {
                // Flat runs keep recording depth 0 in their checkpoints.
                sag = sag.with_topology(tree.depth, tree.fanout as u32);
            }
            let workflow = sag.run(&mut server, aggregator, persistor.as_mut(), initial);

            // Stop the server BEFORE joining: dropping the server-side
            // connections wakes any client whose Finish frame was lost to
            // an injected fault (buffered frames still deliver, so the
            // healthy goodbye path is unaffected), and relays react by
            // shutting their own servers down, which cascades the wake-up
            // to the leaves. Joining first could deadlock on a client
            // waiting out its full receive-retry budget.
            server.shutdown();
            server.disconnect_all();

            for (name, h) in relay_handles {
                if let Err(e) = h.join().expect("relay thread panicked") {
                    log.warn("SimulatorRunner", format!("{name} exited with error: {e}"));
                }
            }
            let mut client_rounds = Vec::with_capacity(n);
            for h in leaf_handles {
                match h.join().expect("client thread panicked") {
                    Ok(rounds) => client_rounds.push(rounds),
                    Err(e) => {
                        log.warn("SimulatorRunner", format!("client exited with error: {e}"));
                        client_rounds.push(0);
                    }
                }
            }
            (workflow, client_rounds)
        });
        let workflow = workflow?;
        log.info("SimulatorRunner", "Simulation complete.");
        if clinfl_obs::enabled() {
            let (run, tag) = &artifact;
            match obs.snapshot().write_artifact_tagged(run, tag) {
                Ok(path) => log.info(
                    "SimulatorRunner",
                    format!("Metrics artifact: {}", path.display()),
                ),
                Err(e) => log.warn(
                    "SimulatorRunner",
                    format!("metrics artifact write failed: {e}"),
                ),
            }
        }
        Ok(SimulationResult {
            workflow,
            client_rounds,
            log,
        })
    }

    /// The tree this run stands up. A resumed run restores whatever its
    /// checkpoint recorded (a run must not change shape mid-flight);
    /// otherwise the config, then the `CLINFL_TREE` environment knob,
    /// decides. Flat requests, and trees [`TreeConfig::blocker`] refuses,
    /// resolve to depth 1.
    fn topology(&self, sag: &SagConfig, aggregator: &dyn Aggregator) -> TreeConfig {
        let n = self.config.n_clients;
        let flat = TreeConfig {
            depth: 1,
            fanout: n.max(2),
        };
        let requested = match sag
            .resume_from
            .as_ref()
            .map(|c| (c.tree_depth, c.tree_fanout))
        {
            Some((d, f)) if d >= 2 => Some(TreeConfig {
                depth: d,
                fanout: (f as usize).max(2),
            }),
            Some(_) => None,
            None => self.config.tree.or_else(TreeConfig::from_env),
        };
        let Some(tree) = requested.filter(|t| t.depth >= 2 && n >= 2) else {
            return flat;
        };
        if let Some(why) = TreeConfig::blocker(aggregator, sag.client_sample_fraction) {
            self.log.warn(
                "SimulatorRunner",
                format!("{why}; falling back to a flat topology"),
            );
            return flat;
        }
        tree
    }

    /// Recursively provisions an interior node's children: every child
    /// gets a reactor-native session on `parent` (created here, on the
    /// launching thread, so servers can move into their node threads
    /// afterwards); interior children get their own provisioned
    /// [`FlServer`] and recurse. Leaf connections are fault-wrapped;
    /// relay uplinks are not (the paper's faults live on site links), and
    /// each tree level shaves 10% off the round deadline so a stalled
    /// shard resolves below its parent's timeout.
    fn instantiate_children(
        &self,
        parent: &mut FlServer,
        parent_prov: &Provisioned,
        children: &[TreeChild],
        level_timeout: Duration,
        level_grace: Option<Duration>,
        fleet: &mut Fleet<'_>,
    ) {
        for (pos, child) in children.iter().enumerate() {
            let package = parent_prov.sites[pos].clone();
            let conn = parent.serve_session();
            match child {
                TreeChild::Leaf(i) => fleet.leaves.push(LeafJob {
                    index: *i,
                    package,
                    conn: fleet.plan.wrap(&fleet.leaf_names[*i], conn),
                }),
                TreeChild::Node(spec) => {
                    fleet.relay_seq += 1;
                    let seq = fleet.relay_seq;
                    let relay_seed = self.config.seed.wrapping_add(0xC1F7).wrapping_add(seq);
                    let prov = Project {
                        name: fleet.project.to_string(),
                        sites: spec
                            .children
                            .iter()
                            .map(|c| child_name(c, fleet.leaf_names).to_string())
                            .collect(),
                        seed: relay_seed,
                    }
                    .provision();
                    let mut server =
                        FlServer::new(prov.server.clone(), self.log.clone(), relay_seed);
                    // Re-home metrics before any child session exists:
                    // registrations start flowing the moment sessions are
                    // served below, and early frames must not be charged
                    // to the root's `flare.server` namespace.
                    server.set_metric_namespace("flare.tree");
                    server.set_wire_codecs_enabled(self.config.server_codecs_enabled);
                    // Shaving the deadline (and halving the grace) per
                    // level keeps a child's gather strictly inside its
                    // parent's window: a shard always lands before the
                    // parent's own quorum grace or timeout expires.
                    let child_timeout = level_timeout.mul_f32(0.9);
                    let child_grace = level_grace.map(|g| g.mul_f32(0.5));
                    self.instantiate_children(
                        &mut server,
                        &prov,
                        &spec.children,
                        child_timeout,
                        child_grace,
                        fleet,
                    );
                    fleet.relays.push(RelayJob {
                        name: spec.name.clone(),
                        server,
                        conn,
                        package,
                        dh_secret: dh_secret(self.config.seed, seq, true),
                        n_children: spec.children.len(),
                        n_leaves: subtree_leaves(&spec.children),
                        cfg: RelayConfig {
                            registration_timeout: Duration::from_secs(30),
                            round_timeout: child_timeout,
                            quorum_grace: child_grace,
                        },
                    });
                }
            }
        }
    }

    /// Convenience wrapper: healthy clients, no filters.
    ///
    /// # Errors
    ///
    /// Same as [`SimulatorRunner::run`].
    pub fn run_simple(
        &self,
        initial: Weights,
        make_executor: impl FnMut(usize, &str) -> Box<dyn Executor>,
        aggregator: &dyn Aggregator,
    ) -> Result<SimulationResult, FlareError> {
        self.run(initial, make_executor, aggregator, |_| FilterChain::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::WeightedFedAvg;
    use crate::dxo::WeightTensor;
    use crate::executor::ArithmeticExecutor;

    fn initial() -> Weights {
        let mut w = Weights::new();
        w.insert("p".into(), WeightTensor::new(vec![3], vec![0.0; 3]));
        w
    }

    fn sim(n: usize, rounds: u32) -> SimulatorRunner {
        SimulatorRunner::new(SimulatorConfig {
            n_clients: n,
            sag: SagConfig {
                rounds,
                min_clients: 1,
                round_timeout: Duration::from_secs(10),
                validate_global: true,
                ..SagConfig::default()
            },
            seed: 7,
            ..SimulatorConfig::default()
        })
    }

    #[test]
    fn full_simulation_converges_weights() {
        // Clients add 1.0 and 3.0; FedAvg weighted by n (equal) → +2/round.
        let res = sim(2, 3)
            .run_simple(
                initial(),
                |i, _| {
                    Box::new(ArithmeticExecutor {
                        delta: if i == 0 { 1.0 } else { 3.0 },
                        n_examples: 10,
                    })
                },
                &WeightedFedAvg,
            )
            .unwrap();
        let final_w = &res.workflow.final_weights["p"];
        for v in &final_w.data {
            assert!((v - 6.0).abs() < 1e-5, "expected 6.0 got {v}");
        }
        assert_eq!(res.client_rounds, vec![3, 3]);
        assert_eq!(res.workflow.rounds.len(), 3);
    }

    #[test]
    fn log_contains_fig3_structure() {
        let res = sim(2, 1)
            .run_simple(
                initial(),
                |_, _| {
                    Box::new(ArithmeticExecutor {
                        delta: 1.0,
                        n_examples: 1,
                    })
                },
                &WeightedFedAvg,
            )
            .unwrap();
        for phrase in [
            "Create the simulate clients.",
            "New client site-1@127.0.0.1 joined",
            "Successfully registered client:site-2",
            "aggregating 2 update(s) at round 0",
            "Round 0 finished.",
            "Simulation complete.",
        ] {
            assert!(res.log.contains(phrase), "missing phrase {phrase:?}");
        }
    }

    #[test]
    fn dropout_client_tolerated() {
        let mut cfg = SimulatorConfig {
            n_clients: 3,
            sag: SagConfig {
                rounds: 3,
                min_clients: 2,
                round_timeout: Duration::from_millis(1500),
                validate_global: false,
                ..SagConfig::default()
            },
            seed: 11,
            ..SimulatorConfig::default()
        };
        cfg.behaviors.insert(
            2,
            ClientBehavior {
                drop_at_round: Some(1),
                straggle: None,
            },
        );
        let res = SimulatorRunner::new(cfg)
            .run_simple(
                initial(),
                |_, _| {
                    Box::new(ArithmeticExecutor {
                        delta: 1.0,
                        n_examples: 5,
                    })
                },
                &WeightedFedAvg,
            )
            .unwrap();
        assert_eq!(res.workflow.rounds[0].contributors.len(), 3);
        assert_eq!(res.workflow.rounds[1].contributors.len(), 2);
        // The dropped client trained exactly one round.
        assert_eq!(res.client_rounds[2], 1);
    }

    #[test]
    fn straggler_still_contributes() {
        let mut cfg = SimulatorConfig {
            n_clients: 2,
            sag: SagConfig {
                rounds: 2,
                min_clients: 2,
                round_timeout: Duration::from_secs(10),
                validate_global: false,
                ..SagConfig::default()
            },
            seed: 13,
            ..SimulatorConfig::default()
        };
        cfg.behaviors.insert(
            1,
            ClientBehavior {
                drop_at_round: None,
                straggle: Some(Duration::from_millis(100)),
            },
        );
        let res = SimulatorRunner::new(cfg)
            .run_simple(
                initial(),
                |_, _| {
                    Box::new(ArithmeticExecutor {
                        delta: 2.0,
                        n_examples: 5,
                    })
                },
                &WeightedFedAvg,
            )
            .unwrap();
        assert_eq!(res.workflow.rounds.len(), 2);
        assert!(res
            .workflow
            .rounds
            .iter()
            .all(|r| r.contributors.len() == 2));
    }

    #[test]
    fn too_many_dropouts_abort() {
        let mut cfg = SimulatorConfig {
            n_clients: 2,
            sag: SagConfig {
                rounds: 3,
                min_clients: 2,
                round_timeout: Duration::from_millis(800),
                validate_global: false,
                ..SagConfig::default()
            },
            seed: 17,
            ..SimulatorConfig::default()
        };
        cfg.behaviors.insert(
            0,
            ClientBehavior {
                drop_at_round: Some(1),
                straggle: None,
            },
        );
        cfg.behaviors.insert(
            1,
            ClientBehavior {
                drop_at_round: Some(1),
                straggle: None,
            },
        );
        let err = SimulatorRunner::new(cfg)
            .run_simple(
                initial(),
                |_, _| {
                    Box::new(ArithmeticExecutor {
                        delta: 1.0,
                        n_examples: 5,
                    })
                },
                &WeightedFedAvg,
            )
            .unwrap_err();
        assert!(matches!(err, FlareError::NotEnoughClients { .. }));
    }

    fn exec(i: usize, _site: &str) -> Box<dyn Executor> {
        Box::new(ArithmeticExecutor {
            delta: (i + 1) as f32,
            n_examples: 10,
        })
    }

    fn ckpt_cfg(dir: &std::path::Path, rounds: u32, seed: u64) -> SimulatorConfig {
        SimulatorConfig {
            n_clients: 3,
            sag: SagConfig {
                rounds,
                min_clients: 1,
                round_timeout: Duration::from_secs(10),
                validate_global: true,
                ..SagConfig::default()
            },
            seed,
            checkpoint_dir: Some(dir.to_path_buf()),
            ..SimulatorConfig::default()
        }
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("clinfl-sim-resume-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // Reference: uninterrupted 4-round run (no checkpointing at all).
        let full = sim(3, 4)
            .run_simple(initial(), exec, &WeightedFedAvg)
            .unwrap();
        // Interrupted: two rounds land in the checkpoint dir, the process
        // state is dropped, and a fresh runner resumes to round 4.
        SimulatorRunner::new(ckpt_cfg(&dir, 2, 7))
            .run_simple(initial(), exec, &WeightedFedAvg)
            .unwrap();
        let mut resume_cfg = ckpt_cfg(&dir, 4, 7);
        resume_cfg.resume = true;
        let resumed = SimulatorRunner::new(resume_cfg)
            .run_simple(initial(), exec, &WeightedFedAvg)
            .unwrap();
        assert!(resumed.log.contains("Resuming at round 2"));
        assert_eq!(
            resumed.workflow.final_weights, full.workflow.final_weights,
            "resumed weights must be bit-identical to the uninterrupted run"
        );
        assert_eq!(resumed.workflow.rounds.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_wrong_seed_is_refused() {
        let dir = std::env::temp_dir().join(format!("clinfl-sim-badseed-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        SimulatorRunner::new(ckpt_cfg(&dir, 2, 7))
            .run_simple(initial(), exec, &WeightedFedAvg)
            .unwrap();
        let mut resume_cfg = ckpt_cfg(&dir, 4, 8);
        resume_cfg.resume = true;
        let err = SimulatorRunner::new(resume_cfg)
            .run_simple(initial(), exec, &WeightedFedAvg)
            .unwrap_err();
        assert!(
            matches!(&err, FlareError::Checkpoint(m) if m.contains("seed")),
            "unexpected error {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tree_config_parses_and_autosizes() {
        assert_eq!(
            TreeConfig::parse("2"),
            Some(TreeConfig {
                depth: 2,
                fanout: 8
            })
        );
        assert_eq!(
            TreeConfig::parse("3x4"),
            Some(TreeConfig {
                depth: 3,
                fanout: 4
            })
        );
        assert_eq!(TreeConfig::parse(""), None);
        assert_eq!(TreeConfig::parse("abc"), None);
        assert_eq!(TreeConfig::auto(8, 8).depth, 1);
        assert_eq!(TreeConfig::auto(64, 8).depth, 2);
        assert_eq!(TreeConfig::auto(65, 8).depth, 3);
        assert_eq!(TreeConfig::auto(1024, 8).depth, 4);
    }

    #[test]
    fn tree_depth2_bit_identical_to_flat() {
        // Deltas 1..n with equal example counts: every shard mean (2.5
        // and 6.5 at 8 sites) is exact in f32 and recombines to the flat
        // mean, so the two topologies must agree bit-for-bit. At 12 sites
        // name order (site-1, site-10, site-11, site-12, site-2, ...)
        // differs from index order; site-10 drops at the last round (its
        // shard mean stays exact) so `client_rounds` must report its two
        // rounds at index 9 in both shapes.
        for n in [8, 12] {
            let mut cfg = SimulatorConfig {
                n_clients: n,
                sag: SagConfig {
                    rounds: 3,
                    min_clients: 1,
                    round_timeout: Duration::from_secs(10),
                    validate_global: true,
                    ..SagConfig::default()
                },
                seed: 7,
                ..SimulatorConfig::default()
            };
            let mut expected_rounds = vec![3; n];
            if n == 12 {
                cfg.sag.quorum_grace = Some(Duration::from_secs(2));
                cfg.behaviors.insert(
                    9,
                    ClientBehavior {
                        drop_at_round: Some(2),
                        straggle: None,
                    },
                );
                expected_rounds[9] = 2;
            }
            let flat = SimulatorRunner::new(cfg.clone())
                .run_simple(initial(), exec, &WeightedFedAvg)
                .unwrap();
            cfg.tree = Some(TreeConfig {
                depth: 2,
                fanout: 4,
            });
            let tree = SimulatorRunner::new(cfg)
                .run_simple(initial(), exec, &WeightedFedAvg)
                .unwrap();
            assert!(tree.log.contains("Aggregation tree: depth 2"));
            assert!(tree.log.contains("aggregator node covering 4 leaf site(s)"));
            assert_eq!(
                tree.workflow.final_weights, flat.workflow.final_weights,
                "{n} sites: depth-2 tree must be bit-identical to the flat run"
            );
            assert_eq!(flat.client_rounds, expected_rounds, "{n} sites, flat");
            assert_eq!(tree.client_rounds, expected_rounds, "{n} sites, tree");
            for (t, f) in tree.workflow.rounds.iter().zip(&flat.workflow.rounds) {
                assert_eq!(
                    t.contributors, f.contributors,
                    "round summaries must stay leaf-granular"
                );
            }
        }
    }

    #[test]
    fn tree_tolerates_leaf_dropout() {
        let mut cfg = SimulatorConfig {
            n_clients: 4,
            sag: SagConfig {
                rounds: 3,
                min_clients: 2,
                round_timeout: Duration::from_secs(5),
                quorum_grace: Some(Duration::from_millis(300)),
                validate_global: false,
                ..SagConfig::default()
            },
            seed: 11,
            tree: Some(TreeConfig {
                depth: 2,
                fanout: 2,
            }),
            ..SimulatorConfig::default()
        };
        cfg.behaviors.insert(
            3,
            ClientBehavior {
                drop_at_round: Some(1),
                straggle: None,
            },
        );
        let res = SimulatorRunner::new(cfg)
            .run_simple(
                initial(),
                |_, _| {
                    Box::new(ArithmeticExecutor {
                        delta: 1.0,
                        n_examples: 5,
                    })
                },
                &WeightedFedAvg,
            )
            .unwrap();
        assert_eq!(res.workflow.rounds[0].contributors.len(), 4);
        assert_eq!(res.workflow.rounds[1].contributors.len(), 3);
        assert!(res.workflow.rounds[1]
            .dropped
            .contains(&"site-4".to_string()));
        assert_eq!(res.client_rounds[3], 1);
    }

    #[test]
    fn non_decomposable_aggregator_falls_back_to_flat() {
        use crate::aggregator::CoordinateMedian;
        let cfg = SimulatorConfig {
            n_clients: 4,
            sag: SagConfig {
                rounds: 2,
                min_clients: 1,
                round_timeout: Duration::from_secs(10),
                validate_global: false,
                ..SagConfig::default()
            },
            seed: 7,
            tree: Some(TreeConfig {
                depth: 2,
                fanout: 2,
            }),
            ..SimulatorConfig::default()
        };
        let res = SimulatorRunner::new(cfg)
            .run_simple(initial(), exec, &CoordinateMedian)
            .unwrap();
        assert!(res
            .log
            .contains("does not decompose over shards; falling back to a flat topology"));
        assert_eq!(res.workflow.rounds.len(), 2);
    }

    #[test]
    fn secure_aggregation_end_to_end() {
        use crate::aggregator::MaskedSum;
        use crate::filters::SecureAggMask;
        let n = 4;
        let runner = sim(n, 2);
        let res = runner
            .run(
                initial(),
                |_, _| {
                    Box::new(ArithmeticExecutor {
                        delta: 1.0,
                        n_examples: 10,
                    })
                },
                &MaskedSum,
                |i| {
                    let mut chain = FilterChain::new();
                    chain.push(Box::new(SecureAggMask {
                        site_index: i,
                        n_sites: n,
                        session_seed: 42,
                    }));
                    chain
                },
            )
            .unwrap();
        // All clients move +1 per round; masked sum must recover it.
        let final_w = &res.workflow.final_weights["p"];
        for v in &final_w.data {
            assert!((v - 2.0).abs() < 1e-2, "expected ≈2.0 got {v}");
        }
    }
}
