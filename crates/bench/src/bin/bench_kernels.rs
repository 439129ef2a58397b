//! Kernel-level perf gate: times the packed register-blocked GEMM
//! kernels (DESIGN.md §3j) against the retained naive references across
//! the matrix shapes the smoke run actually hits (LSTM gate products,
//! BERT QKV projections, per-head attention products, the tied MLM
//! decoder) and writes a schema-stable `BENCH_kernels.json`.
//!
//! Modes:
//!
//! * `bench_kernels --run [--out PATH]` — time every shape case and write
//!   the report (default `BENCH_kernels.json`).
//! * `bench_kernels --check PATH [--min-speedup X]` — validate an
//!   existing report against the `clinfl-bench-kernels/v1` schema and
//!   enforce the perf floor: the aggregate packed-vs-reference speedup
//!   over the matmul histogram (total reference time / total packed
//!   time, weighted by the per-case FLOP-proportional iteration counts)
//!   must be at least `X` (default 2.5). This is the CI leg that keeps
//!   the tentpole win of PR 9 from silently evaporating.
//!
//! Both kernels run on the same thread budget (whatever the pool grants;
//! single-threaded on a 1-core CI box, where the references were serial
//! anyway), so the gate measures kernel quality, not parallelism.

use clinfl_obs::json::Value;
use clinfl_tensor::kernels;
use std::time::Instant;

/// Schema identifier stamped into (and required from) every report.
const SCHEMA: &str = "clinfl-bench-kernels/v1";

/// Enforced floor on the aggregate matmul-histogram speedup.
const DEFAULT_MIN_SPEEDUP: f64 = 2.5;

/// Target measurement time per (case, kernel) timing loop, in ns. Long
/// enough that the slowest case runs tens of iterations on the CI box.
const TARGET_NS: u64 = 150_000_000;

/// Which GEMM variant a case exercises.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// `c += a·b`, optionally batched with a broadcast right-hand side.
    Matmul,
    /// `c += aᵀ·b` (weight-gradient shape).
    AtB,
    /// `c += a·bᵀ` (input-gradient / attention-score shape).
    ABt,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Matmul => "matmul",
            Kind::AtB => "matmul_at_b",
            Kind::ABt => "matmul_a_bt",
        }
    }
}

/// One timed shape: `lb` batch items of an `m×k · k×n` product (for
/// `AtB`, `k` is the contraction rows; for `ABt`, the product is
/// `m×k · (n×k)ᵀ` with contraction `k`).
struct Case {
    name: &'static str,
    kind: Kind,
    lb: usize,
    m: usize,
    k: usize,
    n: usize,
    /// Broadcast/shared second operand (batched entry points only).
    broadcast: bool,
}

/// The smoke run's hot shapes: LSTM hidden 128 / batch 32, BERT hidden
/// 128 / 6 heads / head_dim 22 / seq_len 26 / batch 16, vocab 443.
fn cases() -> Vec<Case> {
    let c = |name, kind, lb, m, k, n, broadcast| Case {
        name,
        kind,
        lb,
        m,
        k,
        n,
        broadcast,
    };
    vec![
        // LSTM: per-gate x·W_x and h·W_h products and their dW gradients.
        c("lstm_gate", Kind::Matmul, 1, 32, 128, 128, false),
        c("lstm_gate_dw", Kind::AtB, 1, 128, 32, 128, false),
        c("lstm_gate_dx", Kind::ABt, 1, 32, 128, 128, false),
        // BERT: fused QKV/FFN projections over all batch*seq rows with a
        // broadcast weight — the packing-amortized batched path.
        c("bert_qkv", Kind::Matmul, 16, 26, 128, 128, true),
        c("bert_ffn", Kind::Matmul, 16, 26, 128, 256, true),
        // Attention: per-head q·kᵀ scores and scores·v context, batched
        // over batch*heads items with per-item operands.
        c("attn_scores", Kind::ABt, 96, 26, 22, 26, false),
        c("attn_ctx", Kind::Matmul, 96, 26, 26, 22, false),
        // Tied MLM decoder: h·Eᵀ over the vocab.
        c("mlm_decoder", Kind::ABt, 1, 416, 128, 443, false),
    ]
}

fn main() {
    let usage = "bench_kernels --run [--out PATH] | --check PATH [--min-speedup X]";
    match clinfl_bench::report_args("--run", "BENCH_kernels.json", Some("--min-speedup"), usage) {
        clinfl_bench::ReportMode::Run(out) => run_bench(&out),
        clinfl_bench::ReportMode::Check(path, min) => {
            run_check(&path, min.unwrap_or(DEFAULT_MIN_SPEEDUP))
        }
    }
}

/// Deterministic pseudo-random fill (xorshift) — no RNG dependency, and
/// every run times identical data.
fn fill(buf: &mut [f32], mut state: u64) {
    for v in buf.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
    }
}

/// Sizes of (a, b, c) for a case, accounting for batching and broadcast.
fn buffer_sizes(c: &Case) -> (usize, usize, usize) {
    let (a, b, o) = match c.kind {
        Kind::Matmul => (c.m * c.k, c.k * c.n, c.m * c.n),
        Kind::AtB => (c.k * c.m, c.k * c.n, c.m * c.n),
        Kind::ABt => (c.m * c.k, c.n * c.k, c.m * c.n),
    };
    let b_items = if c.broadcast { 1 } else { c.lb };
    // A shared-accumulator AtB batch still writes one m×n output.
    let o_items = if c.broadcast && c.kind == Kind::AtB {
        1
    } else {
        c.lb
    };
    (c.lb * a, b_items * b, o_items * o)
}

/// Runs the packed (or reference) kernel once over the whole batch.
fn run_case(c: &Case, a: &[f32], b: &[f32], out: &mut [f32], reference: bool) {
    if reference {
        let la = a.len() / c.lb;
        let lbuf = if c.broadcast { b.len() } else { b.len() / c.lb };
        let shared_out = c.broadcast && c.kind == Kind::AtB;
        let lo = if shared_out {
            out.len()
        } else {
            out.len() / c.lb
        };
        for bi in 0..c.lb {
            let ab = &a[bi * la..(bi + 1) * la];
            let bb = if c.broadcast {
                b
            } else {
                &b[bi * lbuf..(bi + 1) * lbuf]
            };
            let ob = if shared_out {
                &mut out[..]
            } else {
                &mut out[bi * lo..(bi + 1) * lo]
            };
            match c.kind {
                Kind::Matmul => kernels::matmul_acc_ref(ab, bb, ob, c.m, c.k, c.n),
                Kind::AtB => kernels::matmul_at_b_acc_ref(ab, bb, ob, c.m, c.k, c.n),
                Kind::ABt => kernels::matmul_a_bt_acc_ref(ab, bb, ob, c.m, c.k, c.n),
            }
        }
    } else {
        match c.kind {
            Kind::Matmul => {
                kernels::matmul_batch_acc(a, b, out, c.lb, c.m, c.k, c.n, c.broadcast);
            }
            Kind::AtB => {
                kernels::matmul_at_b_batch_acc(a, b, out, c.lb, c.k, c.m, c.n, c.broadcast);
            }
            Kind::ABt => {
                kernels::matmul_a_bt_batch_acc(a, b, out, c.lb, c.m, c.k, c.n, c.broadcast);
            }
        }
    }
}

/// Times `iters` whole-batch invocations; returns total ns.
fn time_case(c: &Case, a: &[f32], b: &[f32], out: &mut [f32], iters: u64, reference: bool) -> u64 {
    let started = Instant::now();
    for _ in 0..iters {
        run_case(c, a, b, out, reference);
    }
    started.elapsed().as_nanos() as u64
}

struct Outcome {
    name: &'static str,
    kernel: &'static str,
    lb: usize,
    m: usize,
    k: usize,
    n: usize,
    iters: u64,
    packed_ns: u64,
    ref_ns: u64,
    flops_per_call: u64,
}

fn run_bench(out_path: &str) {
    println!("== bench_kernels: packed vs reference GEMM ==");
    let mut outcomes = Vec::new();
    for case in cases() {
        let (a_len, b_len, o_len) = buffer_sizes(&case);
        let mut a = vec![0.0f32; a_len];
        let mut b = vec![0.0f32; b_len];
        fill(&mut a, 0x9e37_79b9_7f4a_7c15 ^ a_len as u64);
        fill(&mut b, 0x2545_f491_4f6c_dd1d ^ b_len as u64);
        let mut o = vec![0.0f32; o_len];

        // Calibrate the iteration count on the packed kernel, then run
        // both kernels the same number of times. The output buffer keeps
        // accumulating — harmless, the kernels are data-independent in
        // cost — and is re-zeroed between the timed loops only to bound
        // value growth.
        run_case(&case, &a, &b, &mut o, false);
        let probe = time_case(&case, &a, &b, &mut o, 1, false).max(1);
        let iters = (TARGET_NS / probe).clamp(1, 100_000);
        o.iter_mut().for_each(|v| *v = 0.0);
        let packed_ns = time_case(&case, &a, &b, &mut o, iters, false);
        o.iter_mut().for_each(|v| *v = 0.0);
        let ref_ns = time_case(&case, &a, &b, &mut o, iters, true);

        let flops_per_call = 2 * (case.lb * case.m * case.k * case.n) as u64;
        let speedup = ref_ns as f64 / packed_ns.max(1) as f64;
        let gflops = flops_per_call as f64 * iters as f64 / packed_ns.max(1) as f64;
        println!(
            "{:>12} {:>12} lb={:<3} {:>3}x{:<3}x{:<3} {:>6} iters  packed {:>8.3} ms  \
             ref {:>8.3} ms  speedup {:>5.2}x  {:>6.2} GFLOP/s",
            case.name,
            case.kind.name(),
            case.lb,
            case.m,
            case.k,
            case.n,
            iters,
            packed_ns as f64 / 1e6,
            ref_ns as f64 / 1e6,
            speedup,
            gflops,
        );
        outcomes.push(Outcome {
            name: case.name,
            kernel: case.kind.name(),
            lb: case.lb,
            m: case.m,
            k: case.k,
            n: case.n,
            iters,
            packed_ns,
            ref_ns,
            flops_per_call,
        });
    }

    let packed_total: u64 = outcomes.iter().map(|o| o.packed_ns).sum();
    let ref_total: u64 = outcomes.iter().map(|o| o.ref_ns).sum();
    let aggregate = ref_total as f64 / packed_total.max(1) as f64;
    println!(
        "aggregate: packed {:.1} ms, reference {:.1} ms, speedup {aggregate:.2}x",
        packed_total as f64 / 1e6,
        ref_total as f64 / 1e6,
    );

    let report = build_report(&outcomes);
    std::fs::write(out_path, report.to_json()).expect("write report");
    println!("report written to {out_path}");
}

fn build_report(outcomes: &[Outcome]) -> Value {
    let packed_total: u64 = outcomes.iter().map(|o| o.packed_ns).sum();
    let ref_total: u64 = outcomes.iter().map(|o| o.ref_ns).sum();
    let cases: Vec<Value> = outcomes
        .iter()
        .map(|o| {
            Value::object(vec![
                ("name", Value::Str(o.name.to_string())),
                ("kernel", Value::Str(o.kernel.to_string())),
                ("lb", Value::UInt(o.lb as u64)),
                ("m", Value::UInt(o.m as u64)),
                ("k", Value::UInt(o.k as u64)),
                ("n", Value::UInt(o.n as u64)),
                ("iters", Value::UInt(o.iters)),
                ("packed_ms", Value::Float(o.packed_ns as f64 / 1e6)),
                ("ref_ms", Value::Float(o.ref_ns as f64 / 1e6)),
                (
                    "speedup",
                    Value::Float(o.ref_ns as f64 / o.packed_ns.max(1) as f64),
                ),
                (
                    "gflops",
                    Value::Float(
                        o.flops_per_call as f64 * o.iters as f64 / o.packed_ns.max(1) as f64,
                    ),
                ),
            ])
        })
        .collect();
    Value::object(vec![
        ("schema", Value::Str(SCHEMA.to_string())),
        (
            "run",
            Value::object(vec![
                ("workload", Value::Str("gemm-shapes".to_string())),
                (
                    "threads",
                    Value::UInt(clinfl_tensor::pool::num_threads() as u64),
                ),
            ]),
        ),
        ("cases", Value::Array(cases)),
        (
            "aggregate",
            Value::object(vec![
                ("packed_ms", Value::Float(packed_total as f64 / 1e6)),
                ("ref_ms", Value::Float(ref_total as f64 / 1e6)),
                (
                    "speedup",
                    Value::Float(ref_total as f64 / packed_total.max(1) as f64),
                ),
            ]),
        ),
    ])
}

/// Validates `path` against the v1 schema and enforces the speedup
/// floor; prints every violation and exits 1 if any is found.
fn run_check(path: &str, min_speedup: f64) {
    let (report, mut errors) = clinfl_bench::load_report(path, SCHEMA);
    let cases = report.get("cases").and_then(Value::as_array).unwrap_or(&[]);
    if cases.is_empty() {
        errors.push("cases array missing or empty".to_string());
    }
    for (i, c) in cases.iter().enumerate() {
        if c.get("name").and_then(Value::as_str).is_none() {
            errors.push(format!("cases[{i}].name missing"));
        }
        for field in ["packed_ms", "ref_ms", "speedup", "gflops"] {
            if c.get(field)
                .and_then(Value::as_f64)
                .is_none_or(|v| v <= 0.0)
            {
                errors.push(format!("cases[{i}].{field} missing or non-positive"));
            }
        }
        if c.get("iters")
            .and_then(Value::as_u64)
            .is_none_or(|v| v == 0)
        {
            errors.push(format!("cases[{i}].iters missing or zero"));
        }
    }
    match report
        .get("aggregate")
        .and_then(|a| a.get("speedup"))
        .and_then(Value::as_f64)
    {
        Some(speedup) => {
            if speedup < min_speedup {
                errors.push(format!(
                    "packed GEMM speedup regressed: aggregate {speedup:.2}x is below \
                     the enforced {min_speedup}x floor (see DESIGN.md §3j)"
                ));
            }
        }
        None => errors.push("aggregate.speedup missing".to_string()),
    }

    let speedup = report
        .get("aggregate")
        .and_then(|a| a.get("speedup"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let summary = format!(", aggregate speedup {speedup:.2}x >= {min_speedup}x");
    clinfl_bench::finish_check(path, SCHEMA, &errors, &summary);
}
