//! `apex-perf` — the serving-life benchmark named in `BENCHMARK.json`.
//!
//! ```text
//! apex-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, prints every metric by name and
//! unit, and ends with the one-line JSON result. Exits non-zero when a
//! run is invalid (too few epochs, a sub-second set-up, an I/O error);
//! wrong answers, unbalanced ledgers and bad recoveries are counted in
//! `failed` and reported with `correct: false`. See `perf/README.md`.

mod cell;
mod json;
mod life;
mod metrics;
mod stack;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use cell::Failure;
use json::Json;
use workload::Spec;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 15.0f64, false);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
    let name = workload.ok_or(format!("--workload <{}> is required", names.join("|")))?;
    let spec = workload::spec(&name).ok_or(format!("no workload {name}; have {names:?}"))?;
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

/// One reported number: name, value, unit, sample count.
struct Metric(&'static str, f64, &'static str, usize);

fn end_to_end(args: &Args, t0: Instant) -> Result<(Vec<Metric>, u64, u64), Failure> {
    let spec = &args.spec;
    let root = life::out_dir().join(format!("run-{}-{}", spec.name, std::process::id()));
    let mut ready = life::setup(spec, args.seed, t0, &root.join("life"))?;
    let mut setups = vec![ready.setup_s];
    let served = life::serve(spec, &mut ready, spec.serve_epochs(args.seconds))?;
    let (mut recover_ms, recovery_failures) = life::recover_check(&ready, &root)?;
    let (oracle_checked, oracle_failures) = life::oracle(&ready, args.seed);

    let durable_bytes: u64 = ready.stack.cells.iter().map(|c| c.durable_bytes()).sum();
    let edges = ready.g.edge_count() as f64;
    let index_rss = ready
        .rss_ready_kib
        .saturating_sub(ready.rss_before_index_kib)
        * 1024;
    let mut lat_us: Vec<f64> = ready
        .clients
        .iter()
        .flat_map(|c| c.lat_ns.iter().map(|&ns| f64::from(ns) / 1e3))
        .collect();
    let (ledgers, mut attempted, mut failed) = life::teardown(ready)?;
    let mut books_balance = ledgers.balanced(0);
    // Queries the measured life acknowledged: what its durable bytes
    // are divided by.
    let acknowledged = attempted;
    let (_, hwm_kib) = life::rss_kib()?;

    // Two more complete set-ups, so `setup_s` is a median of three. They
    // run after the high-water mark is read and share nothing with the
    // measured life but the seed.
    for i in 1..3 {
        let again = life::setup(
            spec,
            args.seed,
            Instant::now(),
            &root.join(format!("setup{i}")),
        )?;
        setups.push(again.setup_s);
        let (ledgers, ops, bad) = life::teardown(again)?;
        attempted += ops;
        failed += bad;
        books_balance &= ledgers.balanced(0);
    }
    std::fs::remove_dir_all(&root)?;

    let wall: f64 = served.epochs.iter().map(|e| e.1).sum();
    println!(
        "{}: seed {} · {} epochs · {} ops in {:.2} s · {} answers re-checked by the naive oracle",
        spec.name,
        args.seed,
        served.epochs.len(),
        lat_us.len(),
        wall,
        oracle_checked
    );
    if served.adapt_ms.len().min(served.checkpoint_ms.len()) < 16 {
        return Err("invalid run: fewer than 16 refresh or checkpoint samples".into());
    }
    if setups.iter().any(|&s| s < 1.0) {
        return Err(format!("invalid run: sub-second set-up {setups:?}").into());
    }
    failed += recovery_failures + oracle_failures;
    if !books_balance {
        eprintln!("perf: surface ledgers do not balance");
        failed += 1;
    }

    let (mut adapt, mut ckpt) = (served.adapt_ms, served.checkpoint_ms);
    // Values and sample counts in the order of `metrics::END_TO_END`.
    let values = [
        (stats::median(&mut setups), setups.len()),
        (stats::median_rate(&served.epochs), served.epochs.len()),
        (stats::median(&mut lat_us), lat_us.len()),
        (stats::median(&mut adapt), adapt.len()),
        (stats::median(&mut ckpt), ckpt.len()),
        (stats::median(&mut recover_ms), recover_ms.len()),
        (
            durable_bytes as f64 / acknowledged as f64,
            acknowledged as usize,
        ),
        (hwm_kib as f64 / 1024.0, 1),
        (index_rss as f64 / edges, 1),
    ];
    let metrics: Vec<Metric> = metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), (value, n))| Metric(name, value, unit, n))
        .collect();
    for Metric(name, value, unit, n) in &metrics {
        println!("{:<12} {name:<28} {value:>14.4} {unit:<4} n={n}", spec.name);
    }
    Ok((metrics, attempted, failed))
}

fn per_layer(args: &Args, t0: Instant) -> Result<(Vec<Metric>, u64, u64), Failure> {
    let traced = trace::run(&args.spec, args.seed, t0)?;
    let unlisted = traced.values.unlisted();
    if !unlisted.is_empty() {
        return Err(format!("metrics set but not listed: {unlisted:?}").into());
    }
    let mut metrics = Vec::new();
    for layer in metrics::PER_LAYER {
        let value = traced.values.get(layer.name);
        println!(
            "{:<12} {:<44} {value:>14.4} {:<5} ({} is better) -> {}",
            args.spec.name, layer.name, layer.unit, layer.better, layer.moves
        );
        metrics.push(Metric(layer.name, value, layer.unit, 0));
    }
    Ok((metrics, traced.attempted, traced.failed))
}

fn run() -> Result<bool, Failure> {
    let t0 = Instant::now();
    let args = parse_args()?;
    let (metrics, attempted, failed) = if args.trace {
        per_layer(&args, t0)?
    } else {
        end_to_end(&args, t0)?
    };
    let correct = failed == 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|Metric(name, value, unit, _)| {
                (
                    *name,
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })),
        ),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("apex-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
