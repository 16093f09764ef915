//! `qs-perfbench`: the seeded end-to-end and per-layer benchmark of the
//! SCOOP/Qs stack.
//!
//! ```text
//! qs-perfbench --workload <ring|contend|readmostly|chain|bank> --seed N
//!              --seconds S --trace <0|1> [--out DIR]
//! ```
//!
//! It measures what users get: `RuntimeConfig::all_optimizations()` with
//! the default pooled scheduler. The load generator is closed loop, with at
//! most `min(2, nproc)` client threads. A run sets the workload up several
//! times (the median is `setup_s`), calibrates its plan length in two
//! warm-up phases, then measures one phase of about `S` seconds. With
//! `--trace 1` it instead measures an untraced phase and a traced phase
//! (`ObservabilityMode::Full` plus the benchmark's own spans) of `S/2`
//! seconds each and reports the per-layer metrics.
//!
//! Every metric is printed as a `# ` line; the last line of standard
//! output is one JSON object holding the run's record, its op counts and
//! all its metrics. The same object, and the span log of a traced run, are
//! written under `DIR` (default `.bench_out`).

mod harness;
mod plan;
mod procfs;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use qs_obs::ObservabilityMode;
use qs_runtime::{RuntimeConfig, StatsSnapshot};

use harness::{run_phase, PhaseOutcome, PhaseSpec, Stall, Workload};
use report::{json_num, json_str, Metrics};
use stats::{median, percentile, ratio};
use trace::{Kind, Tracer};
use workloads::{bank::Bank, chain::Chain, contend::Contend, readmostly::ReadMostly, ring::Ring};

const USAGE: &str = "usage: qs-perfbench --workload <ring|contend|readmostly|chain|bank> \
                     --seed N --seconds S --trace <0|1> [--out DIR]";

/// Length of the second warm-up phase, which sets the plan length.
const CALIBRATION_SECONDS: f64 = 0.5;

/// Pause before each repeated set-up.
const SETTLE: Duration = Duration::from_millis(10);

/// Ops a progress window should hold for its rate to be worth a median;
/// phases with fewer than three such windows report whole-phase rates.
const OPS_PER_WINDOW: f64 = 500.0;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(".bench_out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = nproc.clamp(1, 2);
    let observability = if args.trace {
        ObservabilityMode::Full
    } else {
        ObservabilityMode::Off
    };
    let config = RuntimeConfig::all_optimizations().with_observability(observability);
    let result = match args.workload.as_str() {
        "ring" => drive(&args, 21, 50, || Ring::setup(config)),
        "contend" => drive(&args, 21, 2_000, || Contend::setup(config, clients)),
        "readmostly" => drive(&args, 21, 5_000, || ReadMostly::setup(config, clients)),
        "chain" => drive(&args, 9, 1, Chain::setup),
        "bank" => drive(&args, 5, 500, || Bank::setup(config, clients)),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let line = result.to_json(&args, nproc, config);
    print!("{}", result.to_text(&args, nproc));
    if let Err(e) = write_outputs(&args, &line, &result.spans) {
        eprintln!("could not write results under {}: {e}", args.out.display());
    }
    println!("{line}");
    // A stalled run leaves client threads stuck inside the runtime; exiting
    // here ends them without tearing the runtime down under them.
    std::process::exit(0);
}

/// Everything a run reports.
struct RunResult {
    /// `measured` or, when a stall cut the run short, the phase it hit.
    phase: &'static str,
    planned: u64,
    failed: u64,
    /// Failed ops that returned a wrong result, and that panicked; the
    /// rest of `failed` stalled or were left unrun by a stall.
    wrong: u64,
    panicked: u64,
    first_failure: Option<String>,
    stall: Option<Stall>,
    e2e: Metrics,
    layer: Metrics,
    /// The traced run's spans.
    spans: Option<Tracer>,
}

/// Sets `W` up, calibrates, measures, and (traced) measures again with
/// spans; then sets `W` up `reps - 1` more times for the median `setup_s`.
/// The extra set-ups come after the measurement so that what they leave
/// behind in the allocator does not count in the measured peak memory.
fn drive<W: Workload>(args: &Args, reps: usize, warm_ops: u64, setup: impl Fn() -> W) -> RunResult {
    let t0 = Instant::now();
    let w = Arc::new(setup());
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    // The reference phases run untraced even in a traced run.
    qs_obs::set_mode(ObservabilityMode::Off);
    let n = w.clients();
    let epoch = Instant::now();
    let mut clients: Vec<W::Client> = (0..n).map(|i| w.client(i)).collect();
    let mut position = 0u64;
    // `expected` is how long the phase should take; it may take three times
    // as long before it counts as stalled.
    let mut phase = |clients: Vec<W::Client>, ops: u64, tracing: bool, expected: f64| {
        let spec = PhaseSpec {
            seed: args.seed,
            start: position,
            ops,
            tracing,
            epoch,
            cap: Duration::from_secs_f64(3.0 * expected + 5.0) + w.deadline(),
            window: Duration::from_secs_f64(expected / 20.0),
        };
        position += ops;
        run_phase(&w, clients, &spec)
    };

    let mut per_client_rate = 0.0;
    for (name, ops) in [("warm-up", warm_ops), ("calibration", 0)] {
        let ops = if ops > 0 {
            ops
        } else {
            ((per_client_rate * CALIBRATION_SECONDS).ceil() as u64).max(warm_ops)
        };
        let out = phase(clients, ops, false, 10.0);
        if out.stall.is_some() || out.clients.len() < n {
            return stalled(name, w, out, &setups);
        }
        per_client_rate = ops as f64 / out.elapsed.as_secs_f64();
        clients = out.clients.into_iter().map(|c| c.client).collect();
    }

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let ops = ((per_client_rate * seconds).ceil() as u64).max(1);
    let measured = phase(clients, ops, false, seconds);
    if measured.stall.is_some() || measured.clients.len() < n {
        return stalled("measured", w, measured, &setups);
    }
    let mut e2e = e2e_metrics(&measured);
    // Per-layer metrics come from the traced phase only.
    w.phase_metrics(
        &measured.sorted_samples(),
        &mut e2e,
        &mut Metrics::default(),
    );
    let mut result = RunResult {
        phase: "measured",
        planned: measured.planned,
        failed: measured.failed(),
        wrong: measured.clients.iter().map(|c| c.wrong).sum(),
        panicked: measured.clients.iter().map(|c| c.panicked).sum(),
        first_failure: measured.first_failure().map(str::to_string),
        stall: None,
        e2e,
        layer: Metrics::default(),
        spans: None,
    };

    if args.trace {
        qs_obs::set_mode(ObservabilityMode::Full);
        qs_obs::registry().reset();
        let before = w.runtime_stats();
        let clients = measured.clients.into_iter().map(|c| c.client).collect();
        let traced = phase(clients, ops, true, seconds);
        let after = w.runtime_stats();
        if traced.stall.is_some() || traced.clients.len() < n {
            return stalled("traced", w, traced, &setups);
        }
        result.planned += traced.planned;
        result.failed += traced.failed();
        result.wrong += traced.clients.iter().map(|c| c.wrong).sum::<u64>();
        result.panicked += traced.clients.iter().map(|c| c.panicked).sum::<u64>();
        if result.first_failure.is_none() {
            result.first_failure = traced.first_failure().map(str::to_string);
        }
        let untraced_throughput = result.e2e.get("throughput_ops_s").map_or(0.0, |m| m.value);
        let stats = before.zip(after).map(|(b, a)| a.since(&b));
        let (layer, spans) =
            layer_metrics(&*w, traced, untraced_throughput, stats, &mut result.e2e);
        result.layer = ordered_layer(&layer);
        result.spans = Some(spans);
    }

    drop(w);
    for _ in 1..reps {
        // Let the previous runtime's teardown finish first, so that it does
        // not compete with the set-up being timed.
        std::thread::sleep(SETTLE);
        let t0 = Instant::now();
        let again = setup();
        setups.push(t0.elapsed().as_secs_f64());
        drop(again);
    }
    result.e2e.push("setup_s", median(&setups), "s");
    result
}

/// A run cut short by a stall: the phase's counts, timings marked
/// unresolved, and the workload leaked (its clients may be stuck in it).
fn stalled<W: Workload>(
    phase: &'static str,
    w: Arc<W>,
    out: PhaseOutcome<W::Client>,
    setups: &[f64],
) -> RunResult {
    std::mem::forget(w);
    let mut e2e = e2e_metrics(&out);
    e2e.push("setup_s", median(setups), "s");
    e2e.caveat_timings("unresolved: a stall ended the run");
    let mut layer = Metrics::default();
    for (name, unit) in LAYER {
        layer.push_with(
            name,
            0.0,
            unit,
            Some("not measured: a stall ended the run".into()),
        );
    }
    RunResult {
        phase,
        planned: out.planned,
        failed: out.failed(),
        wrong: out.clients.iter().map(|c| c.wrong).sum(),
        panicked: out.clients.iter().map(|c| c.panicked).sum(),
        first_failure: out.first_failure().map(str::to_string),
        stall: out.stall.clone(),
        e2e,
        layer,
        spans: None,
    }
}

/// The end-to-end metrics of one phase.
fn e2e_metrics<C>(out: &PhaseOutcome<C>) -> Metrics {
    let mut m = Metrics::default();
    let sorted = out.sorted_samples();
    let ok = out.ok as f64;
    // With enough ops per window, rates are the median over the windows of
    // the phase, which a passing disturbance moves less than the mean.
    let rate_ops = ok / out.windows.len().max(1) as f64;
    let windows = if out.windows.len() >= 3 && rate_ops >= OPS_PER_WINDOW {
        &out.windows[..]
    } else {
        &[]
    };
    let throughput: Vec<f64> = windows
        .iter()
        .map(|w| ratio(w.ok as f64, w.seconds))
        .collect();
    let cpu: Vec<f64> = windows
        .iter()
        .map(|w| ratio(w.cpu_us as f64, w.ok as f64))
        .collect();
    m.push(
        "throughput_ops_s",
        if windows.is_empty() {
            ratio(ok, out.elapsed.as_secs_f64())
        } else {
            median(&throughput)
        },
        "1/s",
    );
    for (name, p) in [
        ("latency_p50_us", 50.0),
        ("latency_p90_us", 90.0),
        ("latency_p99_us", 99.0),
    ] {
        // A percentile is reported only with at least ten samples beyond it.
        if let Some(q) = percentile(&sorted, p).filter(|q| q.reportable()) {
            m.push(name, q.value / 1e3, "us");
        }
    }
    m.push("latency_samples", sorted.len() as f64, "count");
    m.push(
        "error_rate",
        ratio(out.failed() as f64, out.planned as f64),
        "ratio",
    );
    m.push(
        "cpu_us_per_op",
        if windows.is_empty() {
            ratio(out.usage.cpu_us as f64, ok)
        } else {
            median(&cpu)
        },
        "us",
    );
    m.push("peak_rss_mb", out.usage.peak_rss_mb, "MB");
    m.push("steal_share", out.usage.steal_share, "ratio");
    m
}

/// Every per-layer metric, in the order they are reported, with its unit.
/// `us_2x` marks a percentile read from qs-obs's power-of-two histograms
/// (interpolated inside its bucket, so only good to within 2×).
const LAYER: &[(&str, &str)] = &[
    ("runtime.acquire_p50_us", "us"),
    ("runtime.acquire_p99_us", "us"),
    ("runtime.query_p50_us", "us"),
    ("runtime.call_ns", "ns"),
    ("runtime.release_p50_us", "us"),
    ("runtime.guard_wait_p50_us", "us"),
    ("runtime.guard_wait_p99_us", "us"),
    ("runtime.read_acquire_p50_us", "us"),
    ("runtime.writer_waits_per_write", "ratio"),
    ("runtime.peak_concurrent_readers", "count"),
    ("runtime.syncs_per_op", "1/op"),
    ("runtime.syncs_elided_per_op", "1/op"),
    ("runtime.client_queries_per_op", "1/op"),
    ("runtime.private_queues_per_op", "1/op"),
    ("runtime.guard_checks_per_wait", "ratio"),
    ("runtime.guard_useful_wakeup_ratio", "ratio"),
    ("sync.park_resume_p50_us", "us_2x"),
    ("sync.query_round_trip_p50_us", "us_2x"),
    ("sync.client_cpu_share", "ratio"),
    ("queues.mean_batch_size", "count"),
    ("queues.batches_per_op", "1/op"),
    ("queues.enqueue_to_execute_p50_us", "us_2x"),
    ("queues.backpressure_stalls_per_op", "1/op"),
    ("exec.wakeups_per_op", "1/op"),
    ("exec.yields_per_op", "1/op"),
    ("exec.steals_per_op", "1/op"),
    ("exec.pressure_wakes_per_op", "1/op"),
    ("exec.worker_busy_share", "ratio"),
    ("exec.worker_cpu_us_per_op", "us"),
    ("exec.hop_us", "us"),
    ("remote.open_p50_us", "us"),
    ("remote.call_p50_us", "us"),
    ("remote.query_p50_us", "us"),
    ("remote.query_p99_us", "us"),
    ("remote.end_p50_us", "us"),
    ("remote.node_cpu_us_per_op", "us"),
    ("chain.communicate_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("span.op.self_us_per_op", "us"),
    ("span.reserve.self_us_per_op", "us"),
    ("span.acquire.self_us_per_op", "us"),
    ("span.guard_wait.self_us_per_op", "us"),
    ("span.read_acquire.self_us_per_op", "us"),
    ("span.call.self_us_per_op", "us"),
    ("span.query.self_us_per_op", "us"),
    ("span.release.self_us_per_op", "us"),
    ("span.ring_wait.self_us_per_op", "us"),
    ("span.chain.self_us_per_op", "us"),
    ("span.remote_block.self_us_per_op", "us"),
    ("span.remote_open.self_us_per_op", "us"),
    ("span.remote_call.self_us_per_op", "us"),
    ("span.remote_query.self_us_per_op", "us"),
    ("span.remote_end.self_us_per_op", "us"),
    ("span.remote_release.self_us_per_op", "us"),
];

/// `metrics` in [`LAYER`] order, with every metric the workload did not
/// exercise present as 0 and marked so.
fn ordered_layer(metrics: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in LAYER {
        match metrics.get(name) {
            Some(m) => out.push_with(name, m.value, unit, m.caveat.clone()),
            None => out.push_with(
                name,
                0.0,
                unit,
                Some("not exercised by this workload".into()),
            ),
        }
    }
    out
}

/// The per-layer metrics of the traced phase, and its merged spans.
fn layer_metrics<W: Workload>(
    w: &W,
    traced: PhaseOutcome<W::Client>,
    untraced_throughput: f64,
    stats: Option<StatsSnapshot>,
    e2e: &mut Metrics,
) -> (Metrics, Tracer) {
    let mut m = Metrics::default();
    let ops = traced.ok as f64;
    let elapsed = traced.elapsed.as_secs_f64();
    let clients = traced.clients.len() as f64;
    let sorted = traced.sorted_samples();
    let usage = &traced.usage;
    let client_ns: u64 = traced.clients.iter().map(|c| c.cpu_ns).sum();
    let mut spans = Tracer::new(true, Instant::now());
    for c in traced.clients {
        spans.absorb(c.tracer);
    }

    let mut pct = |kind: Kind, p: f64, scale: f64| {
        let durations = spans.durations(kind);
        durations.sort_unstable();
        percentile(durations, p).map(|q| q.value / scale)
    };
    let span_metrics = [
        ("runtime.acquire_p50_us", Kind::Acquire, 50.0, 1e3),
        ("runtime.acquire_p99_us", Kind::Acquire, 99.0, 1e3),
        ("runtime.query_p50_us", Kind::Query, 50.0, 1e3),
        ("runtime.call_ns", Kind::Call, 50.0, 1.0),
        ("runtime.release_p50_us", Kind::Release, 50.0, 1e3),
        ("runtime.guard_wait_p50_us", Kind::GuardWait, 50.0, 1e3),
        ("runtime.guard_wait_p99_us", Kind::GuardWait, 99.0, 1e3),
        ("runtime.read_acquire_p50_us", Kind::ReadAcquire, 50.0, 1e3),
        ("remote.open_p50_us", Kind::RemoteOpen, 50.0, 1e3),
        ("remote.call_p50_us", Kind::RemoteCall, 50.0, 1e3),
        ("remote.query_p50_us", Kind::RemoteQuery, 50.0, 1e3),
        ("remote.query_p99_us", Kind::RemoteQuery, 99.0, 1e3),
        ("remote.end_p50_us", Kind::RemoteEnd, 50.0, 1e3),
    ];
    for (name, kind, p, scale) in span_metrics {
        if let Some(v) = pct(kind, p, scale) {
            m.push(name, v, if scale == 1.0 { "ns" } else { "us" });
        }
    }
    for kind in Kind::ALL {
        if spans.count(kind) > 0 {
            let name = format!("span.{}.self_us_per_op", kind.name());
            m.push(&name, ratio(spans.self_ns(kind) as f64 / 1e3, ops), "us");
        }
    }

    if let Some(s) = stats {
        let exclusive = (spans.count(Kind::Acquire) + spans.count(Kind::GuardWait)) as f64;
        let guarded = spans.count(Kind::GuardWait) as f64;
        let per_op = |v: u64| ratio(v as f64, ops);
        if exclusive > 0.0 && spans.count(Kind::ReadAcquire) > 0 {
            m.push(
                "runtime.writer_waits_per_write",
                ratio(s.writer_waits as f64, exclusive),
                "ratio",
            );
            m.push(
                "runtime.peak_concurrent_readers",
                s.peak_concurrent_readers as f64,
                "count",
            );
        }
        m.push("runtime.syncs_per_op", per_op(s.syncs_performed), "1/op");
        m.push(
            "runtime.syncs_elided_per_op",
            per_op(s.syncs_elided),
            "1/op",
        );
        m.push(
            "runtime.client_queries_per_op",
            per_op(s.queries_client_executed),
            "1/op",
        );
        m.push(
            "runtime.private_queues_per_op",
            per_op(s.private_queues_enqueued),
            "1/op",
        );
        if guarded > 0.0 {
            m.push(
                "runtime.guard_checks_per_wait",
                ratio(s.wait_condition_checks as f64, guarded),
                "ratio",
            );
            let caveat =
                (s.guard_wakeups == 0).then(|| "no guard wakeups: no wait parked".to_string());
            m.push_with(
                "runtime.guard_useful_wakeup_ratio",
                ratio(guarded, s.guard_wakeups as f64),
                "ratio",
                caveat,
            );
        }
        m.push("queues.mean_batch_size", s.mean_batch_size(), "count");
        m.push("queues.batches_per_op", per_op(s.batches_drained), "1/op");
        m.push(
            "queues.backpressure_stalls_per_op",
            per_op(s.backpressure_stalls),
            "1/op",
        );
        m.push("exec.wakeups_per_op", per_op(s.handler_wakeups), "1/op");
        m.push("exec.yields_per_op", per_op(s.handler_yields), "1/op");
        m.push("exec.steals_per_op", per_op(s.scheduler_steals), "1/op");
        m.push(
            "exec.pressure_wakes_per_op",
            per_op(s.pressure_wakes),
            "1/op",
        );
    }

    for (name, histogram) in [
        ("sync.park_resume_p50_us", "guard.park_resume_ns"),
        ("sync.query_round_trip_p50_us", "query.round_trip_ns"),
        (
            "queues.enqueue_to_execute_p50_us",
            "request.enqueue_to_execute_ns",
        ),
    ] {
        if let Some(v) = obs_p50_us(histogram) {
            m.push(name, v, "us_2x");
        }
    }

    let cpu = |prefixes: &[&str]| {
        procfs::cpu_between(&usage.threads_before, &usage.threads_after, prefixes) as f64
    };
    let wall_ns = elapsed * 1e9;
    m.push(
        "sync.client_cpu_share",
        ratio(client_ns as f64, wall_ns * clients),
        "ratio",
    );
    let workers = RuntimeConfig::all_optimizations()
        .scheduler
        .effective_workers()
        .unwrap_or(1) as f64;
    let worker_prefixes = ["qs-hsched-w", "qs-hsched-e"];
    let worker_ns = cpu(&worker_prefixes);
    // CPU of threads that ended during the phase (such as the pool of a
    // runtime created per op) cannot be read back from `/proc`.
    let process_ns = usage.cpu_us as f64 * 1e3;
    let gone = ratio(process_ns - cpu(&[""]) - client_ns as f64, process_ns);
    let caveat = (gone > 0.1).then(|| {
        format!(
            "{:.0}% of the process CPU ran on threads that exited during the phase and is not counted",
            gone * 100.0
        )
    });
    m.push_with(
        "exec.worker_busy_share",
        ratio(worker_ns, wall_ns * workers),
        "ratio",
        caveat.clone(),
    );
    m.push_with(
        "exec.worker_cpu_us_per_op",
        ratio(worker_ns / 1e3, ops),
        "us",
        caveat,
    );
    let node_ns = cpu(&["cluster-", "remote-"]);
    if node_ns > 0.0 {
        m.push("remote.node_cpu_us_per_op", ratio(node_ns / 1e3, ops), "us");
    }
    let traced_throughput = ratio(ops, elapsed);
    m.push(
        "trace.overhead_ratio",
        ratio(traced_throughput, untraced_throughput),
        "ratio",
    );
    let mut unused = Metrics::default();
    w.phase_metrics(&sorted, &mut unused, &mut m);
    e2e.push("traced_throughput_ops_s", traced_throughput, "1/s");
    (m, spans)
}

/// The p50 of a qs-obs histogram in µs, interpolated linearly inside its
/// power-of-two bucket; `None` when it holds no samples.
fn obs_p50_us(name: &str) -> Option<f64> {
    let snap = qs_obs::registry().histogram(name).snapshot();
    let total: u64 = snap.buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = total.div_ceil(2);
    let mut seen = 0u64;
    for (i, &count) in snap.buckets.iter().enumerate() {
        if count > 0 && seen + count >= rank {
            let (low, high) = qs_obs::metrics::bucket_range(i);
            let within = ((rank - seen) as f64 - 0.5) / count as f64;
            let ns = low as f64 + within * (high - low + 1) as f64;
            return Some(ns.min(snap.max as f64) / 1e3);
        }
        seen += count;
    }
    None
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn to_text(&self, args: &Args, nproc: usize) -> String {
        let mut out = format!(
            "# qs-perfbench {} seed={} seconds={} trace={} nproc={nproc} git={} rustc={}\n",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            record_field("QS_PERFBENCH_GIT_SHA"),
            record_field("QS_PERFBENCH_RUSTC"),
        );
        out.push_str(&format!(
            "# ops    planned {} failed {} (wrong {}, panicked {}; {})\n",
            self.planned,
            self.failed,
            self.wrong,
            self.panicked,
            if self.correct() {
                "all correct"
            } else {
                "NOT all correct"
            }
        ));
        if let Some(stall) = &self.stall {
            out.push_str(&format!(
                "# STALL  {}\n",
                stall_text(args, self.phase, stall)
            ));
        }
        if let Some(failure) = &self.first_failure {
            out.push_str(&format!("# first failure: {failure}\n"));
        }
        out.push_str(&self.e2e.to_text("e2e"));
        if args.trace {
            out.push_str(&self.layer.to_text("layer"));
        }
        if let Some(spans) = &self.spans {
            out.push_str(&format!(
                "# spans  {} kept for the span log (at most {} per client)\n",
                spans.logged(),
                trace::SPAN_LOG_CAPACITY
            ));
        }
        out
    }

    fn to_json(&self, args: &Args, nproc: usize, config: RuntimeConfig) -> String {
        let timestamp = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let stall = match &self.stall {
            Some(stall) => json_str(&stall_text(args, self.phase, stall)),
            None => "null".to_string(),
        };
        let metrics = if args.trace { &self.layer } else { &self.e2e };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \
             \"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"git_sha\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"timestamp_unix\": {timestamp}, \
             \"scheduler_workers\": {}, \"phase\": {}, \"wrong\": {}, \"panicked\": {}, \
             \"stall\": {stall}, \"first_failure\": {}}}, \
             \"e2e\": {}}}",
            self.correct(),
            self.planned,
            self.failed,
            metrics.to_json(),
            json_str(&args.workload),
            args.seed,
            json_num(args.seconds),
            u8::from(args.trace),
            json_str(&record_field("QS_PERFBENCH_GIT_SHA")),
            json_str(&record_field("QS_PERFBENCH_RUSTC")),
            config.scheduler.effective_workers().unwrap_or(0),
            json_str(self.phase),
            self.wrong,
            self.panicked,
            self.first_failure
                .as_deref()
                .map_or("null".to_string(), json_str),
            self.e2e.to_json(),
        )
    }
}

fn stall_text(args: &Args, phase: &str, stall: &Stall) -> String {
    format!(
        "workload {} stalled in its {phase} phase: client {} op {} ({}) still running after {:.1} s",
        args.workload,
        stall.client,
        stall.position,
        stall.op,
        stall.waited.as_secs_f64()
    )
}

/// A field of the reproducibility record handed in by the wrapper script.
fn record_field(var: &str) -> String {
    std::env::var(var).unwrap_or_else(|_| "unknown".to_string())
}

fn write_outputs(args: &Args, line: &str, spans: &Option<Tracer>) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(args.out.join(format!("{stem}.json")), format!("{line}\n"))?;
    if let Some(spans) = spans {
        let file = std::fs::File::create(args.out.join(format!("{stem}-spans.csv")))?;
        let mut out = std::io::BufWriter::new(file);
        spans.write_log(&mut out)?;
        std::io::Write::flush(&mut out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests;
