//! `clinfl` — command-line front end for the clinical federated-learning
//! pipeline.
//!
//! ```text
//! clinfl centralized --model lstm --scale 16
//! clinfl standalone  --model bert-mini --scale 16
//! clinfl federated   --model lstm --scale 16 [--echo] [--<key> VALUE ...]
//! clinfl pretrain    --scale 64 --scheme centralized
//! clinfl table3      --scale 10
//! clinfl fig2        --scale 32
//! clinfl serve       [--addr A] [--addr-file F] [--max-jobs N] [--scale N]
//!                    [--checkpoint-root D]
//! clinfl job submit  [--addr A] [--file F]     # job text on stdin without --file
//! clinfl job list    [--addr A]
//! clinfl job abort   [--addr A] --id N
//! clinfl job metrics [--addr A] --id N [--follow]
//! ```
//!
//! Every training subcommand takes the run table of `clinfl::RunSpec`
//! (README "Run keys"): `--some-key VALUE` sets key `some_key`, exactly
//! as the line `some_key = VALUE` does in a job submitted to `clinfl
//! serve`. For example `--partition dirichlet:0.3`, `--wire-codec
//! delta+int8`, `--tree-depth 2`, `--sample-fraction 0.5`, `--dp-clip 1
//! --dp-sigma 0.8`, `--fedprox-mu 0.01`, `--personalize-epochs 1`,
//! `--checkpoint-dir D`, `--resume D`. Only `--scale` (the data-volume
//! preset the keys apply over), `--scheme` (the MLM pretraining regime)
//! and `--echo` (the Fig. 3-style live federation log) sit outside the
//! table. `clinfl federated` runs over `scaled(--scale)` with the paper's
//! imbalanced partition; `clinfl serve` gives jobs the same preset with
//! the balanced partition. The other subcommands run fixed setups and
//! refuse the keys they do not read: `centralized` and `standalone` read
//! only `--model` and `--seed`; `pretrain`, `table3` and `fig2` read the
//! pipeline keys (not `--name`, `--model`, `--validate`, `--aggregator`
//! or `--partition`), each as far as its run has the step a key sets.
//!
//! Every subcommand runs on the synthetic cohort/corpus at `1/scale` of
//! the paper's data volumes (see DESIGN.md for the substitution rationale).
//!
//! `clinfl serve` turns the process into a multi-tenant job host: a
//! dependency-free HTTP admin API (see `clinfl_flare::admin`) fronting a
//! `JobRuntime` that trains up to `--max-jobs` federations concurrently
//! over the shared worker pool. `--addr 127.0.0.1:0` picks an ephemeral
//! port; `--addr-file` writes the resolved address for scripts to
//! discover. The `clinfl job …` subcommands are the matching HTTP
//! client (README "Running as a service" shows a curl transcript).

use clinfl::drivers::{self, MlmScheme};
use clinfl::experiments;
use clinfl::{Partition, PipelineConfig, RunSpec, RUN_KEYS};
use clinfl_flare::admin::AdminServer;
use clinfl_flare::jobs::JobRuntime;
use clinfl_flare::EventLog;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: clinfl <centralized|standalone|federated|pretrain|table3|fig2> \
         [--scale N] [--scheme centralized|small|fl-imbalanced|fl-balanced] [--echo] [--<key> VALUE ...]\n\
         \x20      keys: {} (centralized/standalone read only model and seed; pretrain/table3/fig2 \
         not name, model, validate, aggregator or partition)\n\
         \x20      clinfl serve [--addr A] [--addr-file F] [--max-jobs N] [--scale N] [--checkpoint-root D]\n\
         \x20      clinfl job <submit|list|abort|metrics> [--addr A] [--file F] [--id N] [--follow]",
        RUN_KEYS.join(" ")
    );
    ExitCode::from(2)
}

// ---------------------------------------------------------------------
// serve / job subcommands (multi-tenant admin API)
// ---------------------------------------------------------------------

/// One zero-dependency HTTP/1.1 exchange; returns `(status, body)`.
fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: clinfl\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Prints an HTTP reply body, returning success only for 2xx statuses.
fn report(result: std::io::Result<(u16, String)>) -> ExitCode {
    match result {
        Ok((status, body)) => {
            println!("{}", body.trim_end());
            if (200..300).contains(&status) {
                ExitCode::SUCCESS
            } else {
                eprintln!("server returned HTTP {status}");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("request failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_serve(mut argv: impl Iterator<Item = String>) -> ExitCode {
    let mut addr = "127.0.0.1:8790".to_string();
    let mut addr_file: Option<std::path::PathBuf> = None;
    let mut max_jobs = 2usize;
    let mut scale = 16usize;
    let mut checkpoint_root: Option<std::path::PathBuf> = None;
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else {
            return usage();
        };
        match (flag.as_str(), value.parse()) {
            ("--addr", _) => addr = value,
            ("--addr-file", _) => addr_file = Some(value.into()),
            ("--max-jobs", Ok(n)) => max_jobs = n,
            ("--scale", Ok(n)) => scale = n,
            ("--checkpoint-root", _) => checkpoint_root = Some(value.into()),
            _ => return usage(),
        }
    }
    // Jobs stay flat whatever `CLINFL_TREE` says unless they set
    // `tree_depth` themselves.
    let mut base = RunSpec::new(PipelineConfig::scaled(scale), Partition::Balanced);
    base.pipeline.runtime.tree_depth = 1;
    let runtime = JobRuntime::new(max_jobs);
    let factory = drivers::serve_job_factory(base, checkpoint_root);
    let server = match AdminServer::bind(&addr, runtime.clone(), factory) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {addr} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = server.local_addr();
    println!("clinfl admin API serving on http://{local} (max {max_jobs} concurrent jobs, scale {scale})");
    if let Some(path) = &addr_file {
        if let Err(e) = std::fs::write(path, local.to_string()) {
            eprintln!("writing --addr-file {} failed: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // Serve until the process is killed; jobs run on their own threads.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_job(mut argv: impl Iterator<Item = String>) -> ExitCode {
    let Some(action) = argv.next() else {
        return usage();
    };
    let mut addr =
        std::env::var("CLINFL_ADMIN_ADDR").unwrap_or_else(|_| "127.0.0.1:8790".to_string());
    let mut file: Option<std::path::PathBuf> = None;
    let mut id: Option<u64> = None;
    let mut follow = false;
    while let Some(flag) = argv.next() {
        if flag == "--follow" {
            follow = true;
            continue;
        }
        let Some(value) = argv.next() else {
            return usage();
        };
        match (flag.as_str(), value.parse()) {
            ("--addr", _) => addr = value,
            ("--file", _) => file = Some(value.into()),
            ("--id", Ok(n)) => id = Some(n),
            _ => return usage(),
        }
    }
    match action.as_str() {
        "submit" => {
            let config = match &file {
                Some(path) => match std::fs::read_to_string(path) {
                    Ok(text) => text,
                    Err(e) => {
                        eprintln!("reading {} failed: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    let mut text = String::new();
                    if std::io::stdin().read_to_string(&mut text).is_err() {
                        eprintln!("reading job config from stdin failed");
                        return ExitCode::FAILURE;
                    }
                    text
                }
            };
            report(http_request(&addr, "POST", "/jobs", &config))
        }
        "list" => report(http_request(&addr, "GET", "/jobs", "")),
        "abort" => {
            let Some(id) = id else { return usage() };
            report(http_request(
                &addr,
                "POST",
                &format!("/jobs/{id}/abort"),
                "",
            ))
        }
        "metrics" => {
            let Some(id) = id else { return usage() };
            if !follow {
                return report(http_request(
                    &addr,
                    "GET",
                    &format!("/jobs/{id}/metrics"),
                    "",
                ));
            }
            // Follow the NDJSON stream, printing each snapshot line as
            // it arrives (chunk framing lines are skipped).
            let mut stream = match TcpStream::connect(&addr) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("request failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if write!(
                stream,
                "GET /jobs/{id}/metrics/stream HTTP/1.1\r\nHost: clinfl\r\nConnection: close\r\n\r\n"
            )
            .is_err()
            {
                eprintln!("request failed");
                return ExitCode::FAILURE;
            }
            let reader = BufReader::new(stream);
            let mut saw_line = false;
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if line.starts_with('{') {
                    saw_line = true;
                    println!("{line}");
                }
            }
            if saw_line {
                ExitCode::SUCCESS
            } else {
                eprintln!("no metrics received (unknown job id?)");
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}

/// Splits the process-level flags (`--scale`, `--scheme`, `--echo`) off
/// the argv; everything else is the run table.
struct Cli {
    command: String,
    scale: usize,
    scheme: MlmScheme,
    echo: bool,
    spec: RunSpec,
}

fn parse_cli() -> Result<Cli, ExitCode> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let (mut scale, mut scheme, mut echo) = (16, MlmScheme::Centralized, false);
    let mut table = Vec::new();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--scale" => scale = argv.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?,
            "--scheme" => {
                scheme = match argv.next().as_deref() {
                    Some("centralized") => MlmScheme::Centralized,
                    Some("small") => MlmScheme::SmallData,
                    Some("fl-imbalanced") => MlmScheme::FlImbalanced,
                    Some("fl-balanced") => MlmScheme::FlBalanced,
                    _ => return Err(usage()),
                }
            }
            "--echo" => echo = true,
            _ => {
                table.push(flag);
                table.extend(argv.next());
            }
        }
    }
    let excluded: Vec<&str> = match command.as_str() {
        "federated" => vec![],
        "centralized" | "standalone" => RUN_KEYS
            .into_iter()
            .filter(|k| !["model", "seed"].contains(k))
            .collect(),
        _ => vec!["name", "model", "validate", "aggregator", "partition"],
    };
    let base = RunSpec::new(PipelineConfig::scaled(scale), Partition::Imbalanced);
    let spec = base.parse_args(table, &excluded).map_err(|e| {
        eprintln!("clinfl {command}: {e}");
        ExitCode::from(2)
    })?;
    Ok(Cli {
        command,
        scale,
        scheme,
        echo,
        spec,
    })
}

fn main() -> ExitCode {
    // The serve/job subcommands have their own flag sets; dispatch
    // before the training-pipeline parser sees the argv.
    {
        let mut argv = std::env::args().skip(1);
        match argv.next().as_deref() {
            Some("serve") => return cmd_serve(argv),
            Some("job") => return cmd_job(argv),
            _ => {}
        }
    }
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(code) => return code,
    };
    let (cfg, model) = (&cli.spec.pipeline, cli.spec.model);
    if cfg.runtime.tree_depth >= 2 {
        println!(
            "aggregation tree: depth {} fan-out {}",
            cfg.runtime.tree_depth, cfg.runtime.tree_fanout
        );
    }
    match clinfl_flare::codec::CodecSpec::parse(&cfg.runtime.wire_codec) {
        Ok(wire) if !wire.is_raw() => println!("wire codec: {wire}"),
        _ => {}
    }
    println!(
        "clinfl: {} at scale {} ({} patients, seq {}, {} sites)",
        cli.command, cli.scale, cfg.cohort.n_patients, cfg.seq_len, cfg.n_clients
    );
    match cli.command.as_str() {
        "centralized" => {
            let out = drivers::train_centralized(cfg, model);
            for (i, (loss, acc)) in out.history.iter().enumerate() {
                println!(
                    "epoch {:>3}: train_loss={loss:.3} valid_acc={acc:.3}",
                    i + 1
                );
            }
            println!(
                "{model} centralized top-1 accuracy: {:.1}%",
                100.0 * out.accuracy
            );
        }
        "standalone" => {
            let out = drivers::train_standalone(cfg, model);
            for (i, acc) in out.per_site.iter().enumerate() {
                println!("site-{}: {:.1}%", i + 1, 100.0 * acc);
            }
            println!(
                "{model} standalone mean accuracy: {:.1}%",
                100.0 * out.mean_accuracy
            );
        }
        "federated" => {
            let log = if cli.echo {
                EventLog::echoing()
            } else {
                EventLog::new()
            };
            match drivers::train_spec(&cli.spec, log) {
                Ok(out) => {
                    for (i, (loss, acc)) in out.history.iter().enumerate() {
                        println!(
                            "round {:>3}: mean_train_loss={loss:.3} global_valid_acc={acc:.3}",
                            i + 1
                        );
                    }
                    println!(
                        "{model} federated top-1 accuracy: {:.1}%",
                        100.0 * out.accuracy
                    );
                    if let Some((eps, delta)) = out.privacy {
                        println!("differential privacy: (ε = {eps:.3}, δ = {delta:.0e})");
                    }
                    if let Some(mean) = out.personalized_mean {
                        for (i, acc) in out.personalized_per_site.iter().enumerate() {
                            println!("personalized site-{}: {:.1}%", i + 1, 100.0 * acc);
                        }
                        println!("personalized mean accuracy: {:.1}%", 100.0 * mean);
                    }
                }
                Err(e) => {
                    eprintln!("federation failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "pretrain" => {
            let data = drivers::build_mlm_data(cfg);
            println!(
                "corpus: {} train / {} valid, vocab {}",
                data.train.len(),
                data.valid.len(),
                data.vocab_size
            );
            match drivers::pretrain_mlm(cfg, cli.scheme, &data) {
                Ok(curve) => {
                    print!("{} MLM valid loss:", cli.scheme);
                    for v in &curve {
                        print!(" {v:.3}");
                    }
                    println!();
                }
                Err(e) => {
                    eprintln!("pretraining failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "table3" => match experiments::run_table3(cfg) {
            Ok(table) => println!("{table}"),
            Err(e) => {
                eprintln!("table3 failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        "fig2" => match experiments::run_fig2(cfg) {
            Ok(fig) => println!("{fig}"),
            Err(e) => {
                eprintln!("fig2 failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
