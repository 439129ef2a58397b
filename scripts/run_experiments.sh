#!/usr/bin/env bash
# Regenerates every table and figure of the paper and archives the outputs
# under results/. Scales are the single-core CPU defaults; pass-through
# arguments are forwarded to each binary.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

run() {
  local name="$1"; shift
  echo "=== $name ==="
  cargo run --release -p clinfl-bench --bin "$name" -- "$@" | tee "results/$name.txt"
}

cargo build --release -p clinfl-bench

run table1_parameters
run table2_models
run table3_accuracy
run fig2_mlm_loss
run fig3_demo
# Ablations (extensions; smaller scales keep the full sweep tractable):
run ablation_aggregators --scale 24
run ablation_pretrain --scale 24

# Partition, FedProx and privacy axes are plain `clinfl federated` runs
# over the run keys (EXPERIMENTS.md "Ablations"):
cargo build --release -p clinfl
federated() {
  local name="$1"; shift
  echo "=== $name ==="
  target/release/clinfl federated --scale 24 "$@" | tee "results/$name.txt"
}
federated partition_imbalanced
federated partition_balanced --partition balanced
federated fedprox_mu0.01 --fedprox-mu 0.01
federated dp_sigma0.01 --dp-clip 10 --dp-sigma 0.01
federated secure_sum --aggregator masked_sum --min-clients 8
