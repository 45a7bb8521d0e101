//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]`
//!
//! Runs one workload for about `--seconds` seconds and prints its
//! metrics as the last line of standard output (see the crate docs).
//! Exits non-zero when a correctness or traced-run check fails.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::ledger;
use perfbench::report::{self, Report};
use perfbench::workload::{Kind, Size, Workload, HELD_OUT_SEED};
use perfbench::{MetricDef, PER_LAYER};

/// Repetitions that also time a setup, so `setup_s` is a median of
/// several; the measured region of a cluster run is its wall-clock
/// minus that median.
const SETUP_REPS: usize = 3;
/// Smallest acceptable share of the traced wall-clock the layer laps
/// must cover.
const MIN_CLOSURE: f64 = 0.95;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    let seeds: Vec<String> = Kind::ALL
        .iter()
        .map(|k| format!("{} {}", k.name(), k.default_seed()))
        .collect();
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]\n\
         default seeds: {}; held-out seed for confirming claims: {HELD_OUT_SEED}",
        names.join("|"),
        seeds.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            size = Size::Smoke;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed: seed.unwrap_or(kind.default_seed()),
        seconds,
        trace,
        size,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = Workload::new(args.kind, args.seed, args.size);
    let budget = Duration::from_secs_f64(args.seconds);
    let result = if args.trace {
        traced(&w, budget)
    } else {
        untraced(&w, budget)
    };
    match result {
        Ok(report) => {
            println!("{}", report.line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Untraced repetitions until the budget is spent: end-to-end metrics.
fn untraced(w: &Workload, budget: Duration) -> Result<Report, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut first = None;
    let mut errors = Vec::new();
    let mut failed = 0;
    while reps.len() < SETUP_REPS || start.elapsed() < budget {
        let (rep, out) = w.rep(reps.len() < SETUP_REPS).map_err(|e| e.to_string())?;
        eprintln!(
            "  repetition {}: setup {}, run {:.4} s",
            reps.len() + 1,
            rep.setup
                .map_or("-".to_string(), |s| format!("{:.4} s", s.as_secs_f64())),
            rep.run.as_secs_f64()
        );
        if !out.conserved() {
            errors.push(format!(
                "conservation: {} completed + {} abandoned + {} rejected != {} attempted",
                out.completed, out.abandoned, out.rejected, out.attempted
            ));
        }
        failed += out.abandoned + out.rejected;
        match &first {
            None => first = Some(out),
            Some(f) if *f != out => errors.push(format!(
                "repetition {} diverged from the first in virtual time",
                reps.len() + 1
            )),
            Some(_) => {}
        }
        reps.push(rep);
    }
    let out = first.expect("at least one repetition");
    let metrics = report::end_to_end(&reps, &out, report::peak_rss_mb()?);
    eprintln!(
        "{} seed {}: {} repetitions of {} requests ({} served, {} front hits, {} sojourn samples)",
        w.kind.name(),
        w.seed,
        reps.len(),
        out.attempted,
        out.completed,
        out.hits,
        out.completed
    );
    for (d, v) in &metrics {
        eprintln!("  {:<18} {:>16.6} {}", d.name, v, d.unit);
    }
    Ok(finish(
        errors,
        out.attempted * reps.len() as u64,
        failed,
        metrics,
    ))
}

/// Traced runs until the budget is spent: per-layer metrics, medians
/// over runs.
fn traced(w: &Workload, budget: Duration) -> Result<Report, String> {
    let start = Instant::now();
    let mut runs: Vec<Vec<(MetricDef, f64)>> = Vec::new();
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    while runs.is_empty() || start.elapsed() < budget {
        let t = ledger::run(w)?;
        let out = &t.reference;
        if !out.conserved() {
            errors.push("conservation failed on the untraced reference".to_string());
        }
        attempted += out.attempted;
        failed += out.abandoned + out.rejected;
        if t.closure() < MIN_CLOSURE {
            errors.push(format!(
                "ledger closure {:.4} below {MIN_CLOSURE}",
                t.closure()
            ));
        }
        eprint!(
            "{} seed {} traced run {}: wall {:.3} s, untraced {:.3} s, closure {:.4}, overhead {:.3}\n{}",
            w.kind.name(),
            w.seed,
            runs.len() + 1,
            t.wall.as_secs_f64(),
            t.untraced_wall.as_secs_f64(),
            t.closure(),
            t.overhead(),
            report::ledger_table(&t)
        );
        runs.push(report::per_layer(&t));
    }
    let metrics: Vec<(MetricDef, f64)> = PER_LAYER
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let values: Vec<f64> = runs.iter().map(|r| r[i].1).collect();
            (*d, report::median(&values))
        })
        .collect();
    for (d, v) in &metrics {
        eprintln!("  {:<32} {:>16.6} {}", d.name, v, d.unit);
    }
    Ok(finish(errors, attempted, failed, metrics))
}

/// The result line: correct when no check failed and every metric is a
/// finite number. Failed checks go to standard error.
fn finish(
    mut errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(MetricDef, f64)>,
) -> Report {
    for (d, v) in &metrics {
        if !v.is_finite() {
            errors.push(format!("{} is not a finite number", d.name));
        }
    }
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    Report {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
    }
}
