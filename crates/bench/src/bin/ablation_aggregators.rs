//! Ablation (extension beyond the paper): aggregation rules under label
//! skew — weighted FedAvg vs coordinate median vs trimmed mean, on the
//! same federated LSTM task with increasingly biased site label
//! distributions. Every cell is an ordinary `clinfl federated` run; only
//! the label-skew partition, which no run key names, is set in code.

use clinfl::{drivers, Partition, RunSpec};
use clinfl_flare::job::AggregatorKind;
use clinfl_flare::EventLog;

fn run_with(base: &RunSpec, bias: f64, aggregator: AggregatorKind) -> f64 {
    let mut spec = base.clone();
    spec.partition = Partition::LabelSkew(bias);
    spec.aggregator = aggregator;
    drivers::train_spec(&spec, EventLog::new())
        .expect("simulation runs")
        .accuracy
}

fn main() {
    let mut base = clinfl_bench::parse_args(12, &["seed", "rounds"]).spec;
    base.validate = false;
    let cfg = &base.pipeline;
    println!(
        "ABLATION — aggregation rule vs label skew (LSTM, {} patients, {} rounds)\n",
        cfg.cohort.n_patients, cfg.rounds
    );
    println!(
        "{:<10} {:>16} {:>18} {:>14}",
        "bias", "WeightedFedAvg", "CoordinateMedian", "TrimmedMean"
    );
    for bias in [0.0, 0.5, 0.9] {
        let fedavg = run_with(&base, bias, AggregatorKind::WeightedFedAvg);
        let median = run_with(&base, bias, AggregatorKind::CoordinateMedian);
        let trimmed = run_with(&base, bias, AggregatorKind::TrimmedMean);
        println!(
            "{bias:<10} {:>15.1}% {:>17.1}% {:>13.1}%",
            100.0 * fedavg,
            100.0 * median,
            100.0 * trimmed
        );
    }
    println!("\n(robust rules trade accuracy under uniform data for stability under skew)");
}
