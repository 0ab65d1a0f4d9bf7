//! The CIPHERMATCH serving-stack benchmark.
//!
//! Drives a live `MatchServer` over loopback TCP through the public
//! `MatchClient` and prints client-observed numbers per workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dna-scan --seed 1 --seconds 10 --trace 0 [--out spans.jsonl]
//! ```
//!
//! Workloads: `dna-scan`, `kv-lookup`, `tenant-churn` (see
//! `workload.rs`). Every input comes from `--seed`, and every answer is
//! checked against the plaintext. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` measures the same loop twice — untraced, then
//! with spans — and reports the per-layer breakdown (`layers.rs`) plus
//! the tracing overhead. `--out` names the only file the benchmark
//! writes: the traced run's spans, one JSON object per line.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod layers;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, quantile, Metric};
use workload::{Deployment, Inputs, Kind, PhaseLog};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Re-uploads after the timed loop of a workload that only reads.
const UPLOAD_PROBES: usize = 12;

const USAGE: &str = "usage: cm_perfbench --workload <dna-scan|kv-lookup|tenant-churn> \
                     --seed <n> --seconds <n> --trace <0|1> [--out <spans.jsonl>]";

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
        out,
    })
}

/// The end-to-end metrics of one phase. `uploads` are the phase's own
/// uploads where its loop writes, else the post-loop upload probes.
fn end_to_end(
    phase: &PhaseLog,
    uploads: &[f64],
    setup_s: &[f64],
    bytes_per_user_byte: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("match_p50_ms", quantile(&phase.match_ms, 0.5), "ms"),
        Metric::new("match_p90_ms", quantile(&phase.match_ms, 0.9), "ms"),
        Metric::new("upload_p50_ms", median(uploads), "ms"),
        Metric::new(
            "ops_per_s",
            phase.completed() as f64 / phase.elapsed_s,
            "1/s",
        ),
        Metric::new("setup_s", median(setup_s), "s"),
        Metric::new("bytes_per_user_byte", bytes_per_user_byte, "ratio"),
        Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
    ]
}

/// The upload latency sample: the phase's own uploads, or the probes.
fn upload_sample<'a>(phase: &'a PhaseLog, probes: &'a PhaseLog) -> &'a [f64] {
    if phase.upload_ms.is_empty() {
        &probes.upload_ms
    } else {
        &phase.upload_ms
    }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let kind = args.kind;
    let inputs = Inputs::generate(kind, args.seed);

    let mut setup_s = Vec::new();
    let mut deployment: Option<Deployment> = None;
    let mut wrong_uploads = 0;
    for _ in 0..SETUPS {
        if let Some(previous) = deployment.take() {
            previous.shutdown();
        }
        let start = Instant::now();
        let d = Deployment::setup(&inputs).map_err(|e| format!("set-up failed: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        wrong_uploads += d.wrong_uploads;
        deployment = Some(d);
    }
    let mut deployment = deployment.ok_or("no set-up ran")?;
    let bytes_per_user_byte = deployment.uploaded_bytes as f64 / inputs.user_bytes() as f64;

    let untraced = workload::run_phase(&mut deployment, &inputs, args.seconds, args.seed, None);
    let probes = if untraced.upload_ms.is_empty() {
        deployment.probe_uploads(UPLOAD_PROBES)
    } else {
        PhaseLog::default()
    };
    let e2e = end_to_end(
        &untraced,
        upload_sample(&untraced, &probes),
        &setup_s,
        bytes_per_user_byte,
    );
    println!(
        "workload {} seed {} seconds {} clients {} cores {}",
        kind.name(),
        args.seed,
        args.seconds,
        kind.clients(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    print_table("end to end (untraced)", &e2e);
    let mut correct = untraced.wrong == 0 && probes.wrong == 0 && wrong_uploads == 0;
    let mut attempted = untraced.attempted + probes.attempted;
    let mut failed = untraced.failed + probes.failed;
    println!(
        "  {:<28} {:>14.4} ratio  ({failed} of {attempted} operations, {} wrong answers)",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        untraced.wrong + probes.wrong
    );
    println!(
        "  samples: {} matches, {} timed uploads, {} probe uploads, {} set-ups",
        untraced.match_ms.len(),
        untraced.upload_ms.len(),
        probes.upload_ms.len(),
        setup_s.len()
    );
    for e in untraced.errors.iter().chain(&probes.errors).take(5) {
        eprintln!("error: {e}");
    }

    let metrics = if args.trace {
        let tracer = trace::Tracer::new();
        let report = layers::traced_run(
            &mut deployment,
            &inputs,
            args.seconds,
            args.seed,
            &tracer,
            &untraced,
        )
        .map_err(|e| format!("traced run failed: {e}"))?;
        correct &= report.correct;
        attempted += report.phase.attempted;
        failed += report.phase.failed;
        let traced_e2e = end_to_end(
            &report.phase,
            upload_sample(&report.phase, &probes),
            &setup_s,
            bytes_per_user_byte,
        );
        print_table("end to end (traced)", &traced_e2e);
        print_table("per layer (traced)", &report.metrics);
        for line in &report.notes {
            println!("{line}");
        }
        if let Some(path) = &args.out {
            tracer
                .write_jsonl(path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("wrote {} spans to {}", tracer.spans().len(), path.display());
        }
        report.metrics
    } else {
        e2e
    };
    deployment.shutdown();
    if !correct {
        eprintln!("error: an answer disagreed with the plaintext");
    }
    Ok((correct, attempted, failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            println!(
                "{}",
                stats::result_json(correct, attempted, failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
