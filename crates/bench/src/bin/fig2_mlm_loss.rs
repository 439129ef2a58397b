//! Regenerates the paper's **Fig. 2** (MLM loss under four pretraining
//! regimes: centralized, small-dataset, FL-imbalanced, FL-balanced).
//!
//! The default divides the paper's 453,377-sequence corpus by 512 (≈ 885
//! sequences, 12 rounds — the single-core CPU budget); pass a lower
//! `--scale` for longer, closer-to-paper runs (corpus divisor = 16 ×
//! scale).
//!
//! ```sh
//! cargo run -p clinfl-bench --release --bin fig2_mlm_loss -- --scale 32
//! ```

use clinfl::drivers::MlmScheme;
use clinfl::experiments::run_fig2_with;
use std::time::Instant;

fn main() {
    let args = clinfl_bench::parse_args(32, &["seed"]); // corpus divisor = 16 × this
    let mut cfg = args.config();
    cfg.pretrain.scale = 16 * args.scale.max(1);
    cfg.pretrain_rounds = 12;
    eprintln!(
        "Fig. 2 at corpus scale 1/{} ({} train sequences, {} rounds)…",
        cfg.pretrain.scale,
        cfg.pretrain.n_train(),
        cfg.pretrain_rounds
    );
    let start = Instant::now();
    let fig = run_fig2_with(&cfg, |scheme| {
        eprintln!(
            "  [{:>6.1}s] pretraining: {scheme}…",
            start.elapsed().as_secs_f64()
        );
    })
    .expect("fig2 runs");
    println!("{fig}");

    // Shape assertions mirrored from the paper's reading of Fig. 2.
    let central = fig.final_loss(MlmScheme::Centralized);
    let small = fig.final_loss(MlmScheme::SmallData);
    let imb = fig.final_loss(MlmScheme::FlImbalanced);
    let bal = fig.final_loss(MlmScheme::FlBalanced);
    println!("Shape check:");
    println!("  centralized final {central:.3} | FL-imbalanced {imb:.3} | FL-balanced {bal:.3} | small-data {small:.3}");
    println!(
        "  paper shape: centralized ≈ FL curves ({}), small-data visibly higher ({})",
        if (central - imb).abs() < 0.5 && (central - bal).abs() < 0.5 {
            "OK"
        } else {
            "DIVERGES"
        },
        if small > central + 0.15 {
            "OK"
        } else {
            "DIVERGES"
        },
    );
    println!(
        "\n(total wall-clock {:.1}s; EXPERIMENTS.md records the archived run)",
        start.elapsed().as_secs_f64()
    );
}
