//! The multi-workload commands. Each workload runs in a child process
//! of its own — a clean `VmHWM` and a clean global tokio executor per
//! workload — and reports back through the `detail:` line it prints.

use std::process::{Command, ExitCode, Stdio};

use crate::json::{obj, Json};
use crate::{env, Args, Contract, MetricDef};

/// Offered rates of the ungated sweep, messages per second.
const SWEEP_RATES: [f64; 4] = [1_000.0, 2_000.0, 4_000.0, 8_000.0];
/// The sweep's latency limit on the gated percentile, milliseconds.
const SWEEP_P99_LIMIT_MS: f64 = 10.0;

/// Run one workload in a child process and return its `detail` object.
fn child(workload: &str, args: &Args, trace: bool, rate: Option<f64>) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if let Some(rate) = rate {
        cmd.args(["--rate", &rate.to_string()]);
    }
    // `output` waits for the child, so none outlives this command.
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("detail: "))
        .ok_or(format!(
            "the {workload} child ({}) printed no result",
            output.status
        ))?;
    Json::parse(detail).map_err(|e| format!("the {workload} child's result does not parse: {e}"))
}

fn metric(detail: &Json, group: &str, name: &str) -> f64 {
    detail
        .get(group)
        .and_then(|g| g.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn failed_frac(detail: &Json) -> f64 {
    let count = |key| detail.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    count("failed") / count("attempted")
}

fn is_correct(detail: &Json) -> bool {
    detail.get("correct").and_then(Json::as_bool) == Some(true)
}

/// One row per metric, one column per workload.
fn print_table(
    title: &str,
    group: &str,
    defs: &[MetricDef],
    workloads: &[String],
    results: &[Json],
) {
    println!("\n{title}");
    print!("  {:<30} {:<7}", "metric", "unit");
    for w in workloads {
        print!(" {w:>13}");
    }
    println!();
    for def in defs {
        print!("  {:<30} {:<7}", def.name, def.unit);
        for r in results {
            print!(" {:>13.4}", metric(r, group, &def.name));
        }
        println!();
    }
    if group == "end_to_end" {
        print!("  {:<30} {:<7}", "failed_frac", "ratio");
        for r in results {
            print!(" {:>13.6}", failed_frac(r));
        }
        println!();
    }
}

fn run_set<'a>(
    workloads: impl Iterator<Item = &'a String>,
    args: &Args,
    trace: bool,
) -> Result<Vec<Json>, String> {
    workloads
        .map(|w| {
            eprintln!("running {w}{} ...", if trace { " (traced)" } else { "" });
            child(w, args, trace, None)
        })
        .collect()
}

fn write_out(name: String, doc: Json) -> Result<(), String> {
    let path = env::out_dir()
        .map_err(|e| format!("cannot create benchmark/out: {e}"))?
        .join(name);
    std::fs::write(&path, doc.to_line() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    Ok(())
}

/// `run`: every workload once; with `--trace`, once more traced.
pub fn run(contract: &Contract, args: &Args) -> Result<ExitCode, String> {
    let untraced = run_set(contract.workloads.iter(), args, false)?;
    print_table(
        "end-to-end metrics (untraced runs; these are the gated numbers)",
        "end_to_end",
        &contract.end_to_end,
        &contract.workloads,
        &untraced,
    );
    let mut doc = vec![
        ("env", env::record(args.seed)),
        ("untraced", Json::Arr(untraced.clone())),
    ];
    let mut all_correct = untraced.iter().all(is_correct);
    if args.trace {
        let traced = run_set(contract.workloads.iter(), args, true)?;
        all_correct &= traced.iter().all(is_correct);
        print_table(
            "per-layer metrics (traced runs)",
            "per_layer",
            &contract.per_layer,
            &contract.workloads,
            &traced,
        );
        println!("\ntracing overhead (traced vs untraced run of the same seed):");
        for ((w, plain), with_spans) in contract.workloads.iter().zip(&untraced).zip(&traced) {
            let change = |name| {
                let (a, b) = (
                    metric(plain, "end_to_end", name),
                    metric(with_spans, "end_to_end", name),
                );
                format!("{name} {a:.4} -> {b:.4} ({:+.1} %)", 100.0 * (b - a) / a)
            };
            println!(
                "  {w:<13} {}   {}",
                change("msgs_per_s"),
                change("latency_ms_p50")
            );
        }
        println!("  (self-time tables: benchmark/out/trace-<workload>.json)");
        doc.push(("traced", Json::Arr(traced)));
    }
    write_out(format!("run-seed{}.json", args.seed), obj(doc))?;
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `check-noise`: two full sets of the same commit, the second in the
/// opposite order, must agree within every metric's bound.
pub fn check_noise(contract: &Contract, args: &Args) -> Result<ExitCode, String> {
    let a = run_set(contract.workloads.iter(), args, false)?;
    let mut b = run_set(contract.workloads.iter().rev(), args, false)?;
    b.reverse();
    println!("\nrun A vs run B, |A - B| / min(A, B) against each metric's bound:");
    let mut ok = a.iter().chain(&b).all(is_correct);
    for (w, (ra, rb)) in contract.workloads.iter().zip(a.iter().zip(&b)) {
        for def in &contract.end_to_end {
            let (va, vb) = (
                metric(ra, "end_to_end", &def.name),
                metric(rb, "end_to_end", &def.name),
            );
            let apart = (va - vb).abs() / va.min(vb);
            // NaN (a missing value) must fail, so test for "within".
            let within = apart <= def.bound;
            ok &= within;
            println!(
                "  {w:<13} {:<18} A {va:>13.4}  B {vb:>13.4}  apart {:>6.2} %  bound {:>4.0} %  {}",
                def.name,
                100.0 * apart,
                100.0 * def.bound,
                if within { "ok" } else { "OUTSIDE" }
            );
        }
    }
    write_out(
        format!("noise-seed{}.json", args.seed),
        obj([
            ("env", env::record(args.seed)),
            ("a", Json::Arr(a)),
            ("b", Json::Arr(b)),
        ]),
    )?;
    println!(
        "{}",
        if ok {
            "noise check passed"
        } else {
            "noise check FAILED"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `sweep udp_paced`: latency at each of a few fixed offered rates and
/// the highest rate that meets the limit. Ungated, and not part of
/// `run`: it exists so a later change can justify moving the fixed
/// rate the gated workload runs at.
pub fn sweep(_contract: &Contract, args: &Args) -> Result<ExitCode, String> {
    if args.target.as_deref() != Some("udp_paced") {
        return Err("sweep takes the open-loop workload: `sweep udp_paced`".into());
    }
    println!(
        "  {:>9} {:>13} {:>13} {:>11} {:>9} {:>12} {:>12}",
        "rate", "latency_p50", "latency_p99", "failed", "backlog", "lag_p99_ms", "delivered/s"
    );
    let mut best = None;
    let mut rows = Vec::new();
    for rate in SWEEP_RATES {
        let detail = child("udp_paced", args, false, Some(rate))?;
        let note = |key: &str| metric(&detail, "notes", key);
        let p99 = metric(&detail, "end_to_end", "latency_ms_p99");
        let delivered = metric(&detail, "end_to_end", "msgs_per_s");
        let backlog = note("undelivered at stop (backlog)");
        // A backlog that keeps growing shows as deliveries falling
        // behind the offered rate; Little's law bounds a stable one.
        let stable = delivered >= 0.98 * rate && backlog <= 2.0 * rate * SWEEP_P99_LIMIT_MS / 1e3;
        let failed = failed_frac(&detail);
        println!(
            "  {rate:>9.0} {:>13.4} {p99:>13.4} {failed:>11.6} {backlog:>9.0} {:>12.4} {delivered:>12.1}",
            metric(&detail, "end_to_end", "latency_ms_p50"),
            note("generator lag ms p99"),
        );
        if p99 <= SWEEP_P99_LIMIT_MS && stable && failed == 0.0 {
            best = Some(rate);
        }
        rows.push(detail);
    }
    match best {
        Some(rate) => println!(
            "max_rate_under_limit {rate} msg/s (p99 <= {SWEEP_P99_LIMIT_MS} ms, stable backlog, no failures)"
        ),
        None => println!("max_rate_under_limit: no swept rate met the limit"),
    }
    write_out(
        format!("sweep-udp_paced-seed{}.json", args.seed),
        obj([("env", env::record(args.seed)), ("rows", Json::Arr(rows))]),
    )?;
    Ok(ExitCode::SUCCESS)
}
