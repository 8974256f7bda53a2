//! `servebench` — drives the real `geobrowse serve` over loopback TCP and
//! reports end-to-end metrics, or (`--trace 1`) per-layer metrics from a
//! traced in-process replay of the same scripts.
//!
//! ```text
//! servebench --server <geobrowse> --workload pan-zoom|catalog-refresh
//!            --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines come first; the last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod stats;
mod trace;
mod wire;
mod workload;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::Duration;

use euler_datagen::Dataset;

use stats::{median, quantile, supported_tail, Metric};
use wire::{Conn, ConnLog, Outcome, Sample, Server};
use workload::{grid, Inputs, Op, Workload, SETUPS};

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("missing value after {flag}"))
    };
    let name = get("--workload")?;
    Ok(Args {
        server: PathBuf::from(get("--server")?),
        workload: Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("bad --seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?}")),
        },
    })
}

/// The end-to-end run's raw results.
struct E2e {
    setups: Vec<Duration>,
    survey: Vec<Sample>,
    logs: Vec<ConnLog>,
    rss_mb: f64,
    /// Server CPU time over the measured phase.
    cpu: Duration,
}

fn run_e2e(args: &Args, inputs: &Inputs, csv: &Path, work: &Path) -> io::Result<E2e> {
    let mut setups = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        let log = work.join(format!("server-{i}.log"));
        let (server, setup) = Server::spawn(&args.server, inputs, csv, &log)?;
        setups.push(setup);
        if i + 1 < SETUPS {
            server.shutdown()?;
        } else {
            last = Some(server);
        }
    }
    let server = last.expect("at least one setup");

    // Connection 0 surveys every viewport before any connection starts
    // its script.
    let mut first = Conn::connect(server.addr)?;
    let survey = wire::survey(&mut first, inputs)?;
    let mut conns = vec![first];
    for _ in 1..inputs.spec.mixes.len() {
        conns.push(Conn::connect(server.addr)?);
    }
    let run_for = Duration::from_secs(args.seconds);
    // The connections and this thread meet once the warm-up rounds are
    // done: the measured phase, and the server CPU it costs, start there.
    let start = Barrier::new(conns.len() + 1);
    let (logs, cpu_from) = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let start = &start;
                s.spawn(move || wire::drive(inputs, i, c, run_for, start))
            })
            .collect();
        start.wait();
        let cpu_from = server.cpu_time();
        let logs = workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect::<io::Result<Vec<ConnLog>>>();
        (logs, cpu_from)
    });
    let cpu = server.cpu_time()?.saturating_sub(cpu_from?);
    let logs = logs?;
    let rss_mb = server.peak_rss_mb();
    server.shutdown()?;
    Ok(E2e {
        setups,
        survey,
        logs,
        rss_mb,
        cpu,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn json_metrics(metrics: &[Metric]) -> String {
    let parts: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn run(args: &Args) -> io::Result<bool> {
    let inputs = Inputs::new(args.workload, args.seed);
    let spec = &inputs.spec;
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work)?;
    let result = run_in(args, &inputs, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    result
}

fn run_in(args: &Args, inputs: &Inputs, work: &Path) -> io::Result<bool> {
    let spec = &inputs.spec;
    let csv = work.join("objects.csv");
    Dataset::new(spec.name, *grid().space(), inputs.base.clone())
        .save_csv(&csv)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let e2e = run_e2e(args, inputs, &csv, work)?;
    let mut verdict = check::check(inputs, &e2e.survey, &e2e.logs);

    // Per-kind accounting and latency samples.
    let samples = || {
        e2e.logs
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|s| !s.warmup)
    };
    // Ok ops of one kind per second: per connection the median over its
    // measured rounds (every round holds the same ops), summed over the
    // connections.
    let rate = |write: bool| -> f64 {
        e2e.logs
            .iter()
            .map(|l| {
                let mut ok = vec![0usize; l.rounds + 1];
                for s in &l.samples {
                    if !s.warmup && s.op.is_write() == write && s.outcome == Outcome::Ok {
                        ok[s.round] += 1;
                    }
                }
                let per_round: Vec<f64> = l
                    .round_times
                    .iter()
                    .enumerate()
                    .map(|(i, t)| ok[i + 1] as f64 / t.as_secs_f64().max(1e-9))
                    .collect();
                median(&per_round)
            })
            .sum()
    };
    let kinds = [("browse", false), ("write", true)];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    println!(
        "workload {} seed {} | {} objects | {} viewports | measured {:?} s | rounds {:?} after 1 warm-up round",
        spec.name,
        args.seed,
        spec.objects,
        inputs.views.len(),
        e2e.logs
            .iter()
            .map(|l| (l.measured.as_secs_f64() * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        e2e.logs.iter().map(|l| l.rounds).collect::<Vec<_>>()
    );
    let mut lat = [Vec::new(), Vec::new()];
    for (k, (kind, write)) in kinds.iter().enumerate() {
        let of_kind: Vec<_> = samples().filter(|s| s.op.is_write() == *write).collect();
        let bad = of_kind.iter().filter(|s| s.outcome != Outcome::Ok).count() as u64;
        let broken = of_kind
            .iter()
            .filter(|s| s.outcome == Outcome::Broken)
            .count();
        attempted += of_kind.len() as u64;
        failed += bad;
        lat[k] = of_kind
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .map(|s| ms(s.latency))
            .collect();
        if !of_kind.is_empty() {
            println!(
                "  {kind}: attempted {} failed {bad} (timeouts/connection errors {broken})",
                of_kind.len()
            );
        }
    }
    for (i, v) in inputs.views.iter().enumerate() {
        // Survey and warm-up replies count here too: no browse may fail.
        let n = e2e
            .logs
            .iter()
            .flat_map(|l| &l.samples)
            .chain(&e2e.survey)
            .filter(|s| matches!(s.op, Op::Browse { view, .. } if view == i))
            .filter(|s| s.outcome != Outcome::Ok)
            .count();
        if n > 0 {
            println!("  failed browses of {}: {n}", v.label());
            verdict
                .errors
                .push(format!("{} failed {n} time(s)", v.label()));
        }
    }
    let ok_ops = samples().filter(|s| s.outcome == Outcome::Ok).count();
    let cpu_us_per_op = e2e.cpu.as_secs_f64() * 1e6 / ok_ops.max(1) as f64;
    println!(
        "  server CPU over the measured phase: {:.2} s, {cpu_us_per_op:.1} us per ok op",
        e2e.cpu.as_secs_f64()
    );
    let hits = samples().filter(|s| s.cache_hit).count();
    let (tail_q, tail) = supported_tail(lat[0].len());
    println!(
        "  browse latency: {} ok samples, p50 {:.3} ms, {tail} {:.3} ms, {:.1}/s",
        lat[0].len(),
        median(&lat[0]),
        quantile(&lat[0], tail_q),
        rate(false)
    );
    let misses: Vec<f64> = samples()
        .filter(|s| !s.op.is_write() && s.outcome == Outcome::Ok && !s.cache_hit)
        .map(|s| ms(s.latency))
        .collect();
    println!(
        "  cache hits {hits}, misses {} (p50 {:.3} ms, max {:.3} ms)",
        misses.len(),
        median(&misses),
        quantile(&misses, 1.0)
    );
    if !lat[1].is_empty() {
        let (wq, wtail) = supported_tail(lat[1].len());
        println!(
            "  write latency: {} ok samples, p50 {:.3} ms, {wtail} {:.3} ms, {:.1}/s",
            lat[1].len(),
            median(&lat[1]),
            quantile(&lat[1], wq),
            rate(true)
        );
    }
    let setups: Vec<f64> = e2e.setups.iter().map(Duration::as_secs_f64).collect();
    println!(
        "  setup: {} spawns, {:?} s | peak server RSS {:.1} MiB",
        setups.len(),
        setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        e2e.rss_mb
    );
    println!(
        "  checks: {} replies, {} tiles against exact counts, survey tile ARE {:.4}, {} error(s)",
        verdict.replies_checked,
        verdict.tiles_checked,
        verdict.tile_are,
        verdict.errors.len()
    );
    for e in verdict.errors.iter().take(10) {
        println!("  CHECK FAILED: {e}");
    }
    if tail != "p99" {
        println!("  note: fewer than ten browse samples lie beyond p99 ({tail} printed)");
    }

    let metrics = if args.trace {
        let metrics = trace::run(
            inputs,
            &csv,
            work,
            // The traced replay runs half as long as the measured
            // phase, and its unwrapped twin repeats the same rounds.
            Duration::from_secs(args.seconds) / 2,
            Duration::from_secs_f64(median(&lat[0]) / 1e3),
        )?;
        for m in &metrics {
            println!("  {:<26} {:>14.4} {}", m.name, m.value, m.unit);
        }
        metrics
    } else {
        vec![
            Metric::new("setup_s", "s", median(&setups)),
            Metric::new("browse_p50_ms", "ms", median(&lat[0])),
            Metric::new("server_rss_mb", "MiB", e2e.rss_mb),
            Metric::new("tile_are", "ratio", verdict.tile_are),
        ]
    };
    println!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {}}}"#,
        verdict.errors.is_empty(),
        json_metrics(&metrics)
    );
    Ok(verdict.errors.is_empty())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
