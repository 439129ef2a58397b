//! Cross-crate integration: driving a simulated federation from a
//! declarative job text (NVFlare's config-driven operation), through the
//! same key table and builder `clinfl serve` uses.

use clinfl::{drivers, Partition, PipelineConfig, RunSpec};
use clinfl_flare::client::ClientBehavior;
use clinfl_flare::executor::ArithmeticExecutor;
use clinfl_flare::job::AggregatorKind;
use clinfl_flare::jobs::JobSpec;
use clinfl_flare::simulator::SimulatorRunner;
use clinfl_flare::{WeightTensor, Weights};
use std::time::Duration;

fn initial() -> Weights {
    let mut w = Weights::new();
    w.insert("w".into(), WeightTensor::new(vec![2], vec![0.0, 0.0]));
    w
}

/// The job a `clinfl serve` host would launch for `text`.
fn job(text: &str) -> JobSpec {
    let base = RunSpec::new(PipelineConfig::scaled(256), Partition::Balanced);
    drivers::serve_job_factory(base, None)(text).expect("valid job")
}

#[test]
fn job_config_drives_a_full_simulation() {
    let job = job("name = smoke\n\
         rounds = 3\n\
         clients = 2\n\
         min_clients = 2\n\
         timeout_s = 10\n\
         validate = false\n\
         aggregator = fedavg\n");
    assert_eq!(job.name, "smoke");
    assert_eq!(job.config.n_clients, 2);
    assert_eq!(job.config.sag.round_timeout, Duration::from_secs(10));
    assert!(!job.config.sag.validate_global);
    let res = SimulatorRunner::new(job.config)
        .run_simple(
            initial(),
            |_, _| {
                Box::new(ArithmeticExecutor {
                    delta: 1.0,
                    n_examples: 5,
                })
            },
            job.aggregator.build().as_ref(),
        )
        .expect("simulation runs");
    // +1 per round for 3 rounds.
    assert_eq!(res.workflow.final_weights["w"].data, vec![3.0, 3.0]);
    assert_eq!(res.workflow.rounds.len(), 3);
}

#[test]
fn job_config_median_aggregation_end_to_end() {
    let job = job("rounds = 2\nclients = 3\naggregator = median\n");
    assert_eq!(job.aggregator, AggregatorKind::CoordinateMedian);
    let res = SimulatorRunner::new(job.config)
        .run(
            initial(),
            |i, _| {
                Box::new(ArithmeticExecutor {
                    // One outlier client; the median ignores it.
                    delta: if i == 2 { 1000.0 } else { 2.0 },
                    n_examples: 5,
                })
            },
            job.aggregator.build().as_ref(),
            |_| clinfl_flare::filters::FilterChain::new(),
        )
        .expect("simulation runs");
    assert_eq!(res.workflow.final_weights["w"].data, vec![4.0, 4.0]);
    // Failure injection config type stays exercised.
    let _ = ClientBehavior::default();
}
