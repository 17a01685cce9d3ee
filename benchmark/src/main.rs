//! `slicing-benchmark`: the repo's one gated benchmark. See README.md
//! for the metric definitions and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! slicing-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one workload in this process; the last stdout line is the result
//!     (end-to-end metrics untraced, per-layer metrics traced)
//! slicing-benchmark run [--seed N] [--seconds S] [--trace]
//!     every workload, each in its own child process, as one table
//! slicing-benchmark check-noise [--seed N] [--seconds S]
//!     the set twice, in opposite orders; fails if A and B disagree
//! slicing-benchmark sweep udp_paced [--seed N] [--seconds S]
//!     ungated: latency at several offered rates
//! ```

mod engine;
mod env;
mod json;
mod live;
mod outcome;
mod payload;
mod probes;
mod spec;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;

use json::{obj, Json};
use outcome::Measured;
use slicing_core::{DataMode, GraphParams};
use spec::Workload;
use trace::Tracer;

/// Set-ups per run; `setup_s`, `sessions_per_s` and `establish_ms_p50`
/// report the median of them, and the last one carries the timed phase.
const SETUP_REPS: usize = 3;
/// `failed / attempted` above this fails the run. Recode redraws its
/// combinations per hop; a message whose resend also draws singular is
/// possible in principle, so that workload alone gets a non-zero cap.
const RECODE_FAILED_CEILING: f64 = 2e-3;

/// The benchmark contract, compiled in so the binary and the file the
/// driver reads cannot disagree about names.
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// End-to-end metrics only.
    pub bound: f64,
}

impl Contract {
    pub fn load() -> Contract {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .expect("BENCHMARK.json string field")
                .to_string()
        };
        let metrics = |key: &str| {
            doc.get(key)
                .expect("BENCHMARK.json metric list")
                .as_arr()
                .iter()
                .map(|m| MetricDef {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(f64::NAN),
                })
                .collect()
        };
        Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("run_seconds"),
            workloads: doc
                .get("workloads")
                .expect("workloads")
                .as_arr()
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

pub struct Args {
    pub command: Option<String>,
    pub target: Option<String>,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    /// `sweep` only: override the open-loop workload's offered rate.
    pub rate: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        target: None,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        rate: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--rate" => {
                let r: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?;
                if !(r > 0.0 && r <= 1e6) {
                    return Err("--rate must be in (0, 1e6]".into());
                }
                args.rate = Some(r);
            }
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if args.command.is_none() => args.command = Some(arg),
            _ if args.target.is_none() => args.target = Some(arg),
            _ => return Err(format!("unexpected argument {arg}")),
        }
    }
    Ok(args)
}

fn run_driver(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    reps: usize,
    tr: &mut Tracer,
) -> Measured {
    match workload {
        Workload::Engine(spec) => engine::run(spec, seed, seconds, reps, tr),
        Workload::Live(spec) => tokio::runtime::block_on(live::run(*spec, seed, seconds, reps, tr)),
    }
}

fn shape(workload: &Workload) -> (GraphParams, usize) {
    match workload {
        Workload::Engine(spec) => (spec.params, spec.msg_len),
        // A streamed message crosses the engine one chunk at a time.
        Workload::Live(spec) => (
            spec.params,
            spec.msg_len.min(live::stream_chunk_len(spec.params)),
        ),
    }
}

/// The layers the workload itself cannot reach, measured beside it in
/// the traced run: direct-call probes at the workload's shape, and a
/// short pass of the *other* driver (a live workload gets the sans-IO
/// engine at its graph shape and message size, an engine workload gets
/// a small live overlay), so that every per-layer metric is a
/// measurement on every workload.
fn complement(
    workload: &Workload,
    (params, msg_len): (GraphParams, usize),
    seed: u64,
) -> Vec<(&'static str, f64)> {
    let mut tr = Tracer::new(true);
    let other = match workload {
        Workload::Live(_) => Workload::Engine(spec::engine_reference(params, msg_len)),
        Workload::Engine(_) => Workload::Live(spec::live_reference()),
    };
    let mut layers = run_driver(&other, seed, spec::REFERENCE_SECONDS, 1, &mut tr).layers;
    layers.extend(probes::coding(params, msg_len, seed));
    layers.push((
        "overlay.udp.hop_us_p50",
        // One datagram carries one of the message's `d` slices.
        tokio::runtime::block_on(probes::udp_hop_us_p50(msg_len / params.split, seed)),
    ));
    layers
}

fn lookup<S: AsRef<str>>(values: &[(S, f64)], name: &str) -> Option<f64> {
    values
        .iter()
        .find(|(n, _)| n.as_ref() == name)
        .map(|&(_, v)| v)
}

/// Every per-layer metric of the contract for a traced run: the
/// workload's own numbers first, the complement's where it has none.
fn per_layer_metrics(
    contract: &Contract,
    workload: &Workload,
    measured: &Measured,
    empty_span_ns: f64,
    seed: u64,
) -> Vec<(String, f64)> {
    let (params, msg_len) = shape(workload);
    let mut layers = measured.layers.clone();
    for (name, value) in complement(workload, (params, msg_len), seed) {
        if lookup(&layers, name).is_none() {
            layers.push((name, value));
        }
    }
    layers.push(("trace.empty_span_ns", empty_span_ns));
    if let Some(share) = coding_share(&layers, params) {
        layers.push(("coding.est_share", share));
    }
    if let Some(share) = crc_share(&layers) {
        layers.push(("wire.crc_est_share", share));
    }
    contract
        .per_layer
        .iter()
        .map(|def| {
            let value = lookup(&layers, &def.name).unwrap_or_else(|| {
                eprintln!(
                    "warning: per-layer metric {} was not measured; reporting 0",
                    def.name
                );
                0.0
            });
            (def.name.clone(), value)
        })
        .collect()
}

fn print_metrics(values: &[(String, f64)], defs: &[MetricDef]) {
    for (metric, value) in values {
        let unit = defs
            .iter()
            .find(|d| d.name == *metric)
            .map_or("", |d| d.unit.as_str());
        println!("  {metric:<34} {value:>16.4} {unit}");
    }
}

/// Probe cost × calls per message ÷ the engine's time per message: the
/// share of a message's cost that is coding and endpoint crypto. One
/// seal, encode, decode and open per message; in Recode mode every
/// data packet on the wire was produced by one recombination.
fn coding_share(layers: &[(&'static str, f64)], params: GraphParams) -> Option<f64> {
    let get = |name| lookup(layers, name);
    let recombines = match params.data_mode {
        DataMode::Recode => get("engine.packets_per_msg")?,
        DataMode::Map => 0.0,
    };
    let coding_us = get("crypto.seal_us")?
        + get("crypto.open_us")?
        + get("codec.encode_us")?
        + get("codec.decode_us")?
        + recombines * get("codec.recombine_us")?;
    Some(coding_us / get("engine.us_per_msg")?)
}

/// The same estimate for the slot checksums: a relay verifies the CRC
/// of every data slot it receives and writes one on every slot it
/// sends, and each packet is received once and was sent once.
fn crc_share(layers: &[(&'static str, f64)]) -> Option<f64> {
    let get = |name| lookup(layers, name);
    Some(2.0 * get("engine.packets_per_msg")? * get("wire.crc_us")? / get("engine.us_per_msg")?)
}

/// Run one workload in this process and print its result; the last
/// line is the contract's JSON object.
fn measure(contract: &Contract, args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    if !contract.workloads.iter().any(|w| w == name) {
        return Err(format!(
            "unknown workload {name}; BENCHMARK.json lists {:?}",
            contract.workloads
        ));
    }
    let mut workload = spec::workload(name).ok_or(format!("workload {name} has no spec"))?;
    if let (Some(rate), Workload::Live(spec)) = (args.rate, &mut workload) {
        spec.load = live::Load::Open { msgs_per_s: rate };
    }
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    env::check_profile()?;

    let mut tr = Tracer::new(args.trace);
    let measured = run_driver(&workload, args.seed, seconds, SETUP_REPS, &mut tr);
    // Before the complement runs: the peak is the workload's own.
    let peak_rss_mib = stats::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;

    let e = measured.end_to_end;
    let end_to_end: Vec<(String, f64)> = [
        ("setup_s", e.setup_s),
        ("msgs_per_s", e.msgs_per_s),
        ("goodput_mbps", e.goodput_mbps),
        ("sessions_per_s", e.sessions_per_s),
        ("latency_ms_p50", e.latency_ms_p50),
        ("latency_ms_p99", e.latency_ms_p99),
        ("establish_ms_p50", e.establish_ms_p50),
        ("peak_rss_mib", peak_rss_mib),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect();

    let per_layer = if args.trace {
        per_layer_metrics(
            contract,
            &workload,
            &measured,
            tr.empty_span_ns(),
            args.seed,
        )
    } else {
        Vec::new()
    };

    let failed_frac = measured.failed as f64 / measured.attempted.max(1) as f64;
    let params = match &workload {
        Workload::Engine(spec) => spec.params,
        Workload::Live(spec) => spec.params,
    };
    let ceiling = match params.data_mode {
        DataMode::Recode => RECODE_FAILED_CEILING,
        DataMode::Map => 0.0,
    };
    let correct = measured.attempted > 0 && failed_frac <= ceiling;

    // Human-readable report.
    println!(
        "workload {name}  seed {}  seconds {seconds}  traced {}",
        args.seed, args.trace
    );
    println!(
        "end to end{}:",
        if args.trace {
            " (traced run: not the gated numbers)"
        } else {
            ""
        }
    );
    print_metrics(&end_to_end, &contract.end_to_end);
    println!(
        "  {:<34} {failed_frac:>16.6} ratio ({} of {}, ceiling {ceiling})",
        "failed_frac", measured.failed, measured.attempted
    );
    for (label, value) in &measured.notes {
        println!("  {label:<34} {:>16}", value.to_line());
    }
    if args.trace {
        println!("per layer:");
        print_metrics(&per_layer, &contract.per_layer);
        let wall_ns = measured.timed_wall.as_nanos() as u64;
        println!("self time of the harness thread over the timed phase:");
        print!("{}", measured.timed.table(wall_ns));
        let path = env::out_dir()
            .map_err(|e| format!("cannot create benchmark/out: {e}"))?
            .join(format!("trace-{name}.json"));
        let doc = obj([
            ("workload", Json::Str(name.into())),
            ("env", env::record(args.seed)),
            ("timed_wall_ns", Json::Num(wall_ns as f64)),
            ("self_time", measured.timed.as_json(wall_ns)),
            ("spans", tr.spans_json()),
        ]);
        std::fs::write(&path, doc.to_line() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
    }

    let pairs = |values: &[(String, f64)]| {
        Json::Obj(
            values
                .iter()
                .map(|(n, v)| (n.clone(), Json::Num(*v)))
                .collect(),
        )
    };
    let detail = obj([
        ("workload", Json::Str(name.into())),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(args.trace)),
        ("env", env::record(args.seed)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(measured.attempted as f64)),
        ("failed", Json::Num(measured.failed as f64)),
        ("end_to_end", pairs(&end_to_end)),
        ("per_layer", pairs(&per_layer)),
        (
            "notes",
            Json::Obj(
                measured
                    .notes
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
    ]);
    println!("detail: {}", detail.to_line());

    let (reported, defs) = if args.trace {
        (&per_layer, &contract.per_layer)
    } else {
        (&end_to_end, &contract.end_to_end)
    };
    let metrics = Json::Obj(
        defs.iter()
            .map(|def| {
                let value = lookup(reported, &def.name).ok_or(format!(
                    "BENCHMARK.json metric {} is not measured",
                    def.name
                ))?;
                if !value.is_finite() {
                    return Err(format!("metric {} has no finite value", def.name));
                }
                Ok((
                    def.name.clone(),
                    obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(def.unit.clone())),
                    ]),
                ))
            })
            .collect::<Result<_, String>>()?,
    );
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(measured.attempted as f64)),
        ("failed", Json::Num(measured.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_line());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let contract = Contract::load();
    let outcome = parse_args().and_then(|args| match args.command.as_deref() {
        None => measure(&contract, &args),
        Some("run") => suite::run(&contract, &args),
        Some("check-noise") => suite::check_noise(&contract, &args),
        Some("sweep") => suite::sweep(&contract, &args),
        Some(other) => Err(format!("unknown command {other} (run, check-noise, sweep)")),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("slicing-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
