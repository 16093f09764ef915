//! The closed-loop load generator.
//!
//! Each client thread runs its planned ops one after another: an op starts
//! only when the previous one returned. Every op has a deadline. The
//! calling thread is the watchdog: when an op overruns its deadline the
//! phase ends at once, the op is named as stalled, and every planned op
//! that did not complete counts as failed. Clients stuck in a stalled op
//! are left behind rather than joined, so the benchmark itself never
//! hangs; the caller must then exit without tearing the workload down.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use qs_runtime::StatsSnapshot;

use crate::procfs;
use crate::report::Metrics;
use crate::trace::Tracer;

/// A benchmark workload: shared state plus a seeded op plan per client.
pub trait Workload: Send + Sync + 'static {
    /// One planned op.
    type Op: std::fmt::Debug + Send + Sync + 'static;
    /// A client's own state, kept across phases (e.g. its expected values).
    type Client: Send + 'static;

    /// Number of client threads.
    fn clients(&self) -> usize;
    /// Op `position` of `client`'s plan for `seed`.
    fn op(&self, seed: u64, client: usize, position: u64) -> Self::Op;
    /// Fresh state of client `index`.
    fn client(&self, index: usize) -> Self::Client;
    /// Runs one op and checks its result; `Err` names a wrong result.
    fn run_op(
        &self,
        client: &mut Self::Client,
        op: &Self::Op,
        tracer: &mut Tracer,
    ) -> Result<(), String>;
    /// A one-line description of an op, used to name a stalled op.
    fn describe(&self, op: &Self::Op) -> String;
    /// How long one op may take before it counts as stalled.
    fn deadline(&self) -> Duration;
    /// The runtime's counters, when the workload owns its runtime.
    fn runtime_stats(&self) -> Option<StatsSnapshot> {
        None
    }
    /// Adds the workload's own end-to-end and per-layer metrics of the phase
    /// that just ended, given its sorted latency samples (ns), and clears
    /// its per-phase records.
    fn phase_metrics(&self, _sorted_ns: &[u32], _e2e: &mut Metrics, _layer: &mut Metrics) {}
}

/// Per-client progress the watchdog reads.
#[derive(Default)]
struct Progress {
    /// Start of the op in flight, ns since the phase epoch plus one; 0 when
    /// no op is in flight.
    in_flight_since: AtomicU64,
    /// Plan position of the op in flight or last run.
    op: AtomicU64,
    /// Ops that completed with a correct result.
    ok: AtomicU64,
}

/// What one client that finished its phase hands back.
pub struct ClientOutcome<C> {
    /// Client index.
    pub index: usize,
    /// Latency (ns, saturated at `u32::MAX`) of every op that completed
    /// correctly, in plan order.
    pub samples: Vec<u32>,
    /// Ops whose result check failed.
    pub wrong: u64,
    /// Ops that panicked.
    pub panicked: u64,
    /// The first failure, if any.
    pub first_failure: Option<String>,
    /// CPU the client thread used over the phase (ns).
    pub cpu_ns: u64,
    /// The client's state, for the next phase.
    pub client: C,
    /// The client's spans.
    pub tracer: Tracer,
}

/// An op that overran its deadline.
#[derive(Debug, Clone)]
pub struct Stall {
    /// Client that ran it.
    pub client: usize,
    /// Position of the op in the client's plan.
    pub position: u64,
    /// The op, described by the workload.
    pub op: String,
    /// How long it had been running when the watchdog gave up.
    pub waited: Duration,
}

/// Resource use over a phase, read from `/proc`.
pub struct Usage {
    /// Process CPU (user + system) in microseconds.
    pub cpu_us: u64,
    /// Per-thread CPU before the phase.
    pub threads_before: std::collections::BTreeMap<u64, (String, u64)>,
    /// Per-thread CPU after the phase.
    pub threads_after: std::collections::BTreeMap<u64, (String, u64)>,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// phase: noise from outside that no run can control.
    pub steal_share: f64,
    /// Peak RSS during the phase (MiB), less the benchmark's own latency
    /// sample buffers, which are resident from the start and sized by the
    /// number of ops planned.
    pub peak_rss_mb: f64,
}

/// Progress over one window of a phase, while every client was running.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Wall time of the window (s).
    pub seconds: f64,
    /// Ops completed correctly in it.
    pub ok: u64,
    /// Process CPU used in it (µs).
    pub cpu_us: u64,
}

/// The result of one phase.
pub struct PhaseOutcome<C> {
    /// Wall time from the common start to the last client's finish (or to
    /// the stall).
    pub elapsed: Duration,
    /// Ops planned over all clients.
    pub planned: u64,
    /// Ops that completed with a correct result.
    pub ok: u64,
    /// Clients that handed their outcome back, in client order. A client
    /// stuck in a stalled op is missing.
    pub clients: Vec<ClientOutcome<C>>,
    /// The op that stalled the phase, if one did.
    pub stall: Option<Stall>,
    /// Resource use over the phase.
    pub usage: Usage,
    /// Consecutive windows of [`PhaseSpec::window`] each, up to the first
    /// client finishing.
    pub windows: Vec<Window>,
}

impl<C> PhaseOutcome<C> {
    /// Planned ops that did not complete correctly: wrong results, panics,
    /// the stalled op and every op left unrun because of the stall.
    pub fn failed(&self) -> u64 {
        self.planned - self.ok
    }

    /// The first failure any client reported.
    pub fn first_failure(&self) -> Option<&str> {
        self.clients.iter().find_map(|c| c.first_failure.as_deref())
    }

    /// Every latency sample, sorted ascending.
    pub fn sorted_samples(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self
            .clients
            .iter()
            .flat_map(|c| c.samples.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// Settings of one phase.
pub struct PhaseSpec {
    /// The seed the plan is drawn from.
    pub seed: u64,
    /// Plan position of each client's first op (plans continue across
    /// phases).
    pub start: u64,
    /// Ops each client runs.
    pub ops: u64,
    /// Whether the clients record spans.
    pub tracing: bool,
    /// Epoch of span timestamps.
    pub epoch: Instant,
    /// Wall-time limit of the whole phase; hitting it counts as a stall of
    /// the oldest op in flight.
    pub cap: Duration,
    /// Length of the windows progress is sampled in.
    pub window: Duration,
}

/// Runs one phase: every client runs its plan positions `start..start +
/// ops` to the end, unless an op stalls. Ops are drawn from the seed as
/// they run, so the plan takes no memory.
pub fn run_phase<W: Workload>(
    w: &Arc<W>,
    clients: Vec<W::Client>,
    spec: &PhaseSpec,
) -> PhaseOutcome<W::Client> {
    let n = clients.len();
    let planned = spec.ops * n as u64;
    let stop = Arc::new(AtomicBool::new(false));
    let progress: Arc<Vec<Progress>> = Arc::new((0..n).map(|_| Progress::default()).collect());
    let ready = Arc::new(Barrier::new(n + 1));
    let go = Arc::new(Barrier::new(n + 1));
    let phase_epoch = Instant::now();
    let (tx, rx) = mpsc::channel::<ClientOutcome<W::Client>>();
    let mut handles = Vec::with_capacity(n);
    for (index, mut client) in clients.into_iter().enumerate() {
        let (w, stop, progress) = (Arc::clone(w), Arc::clone(&stop), Arc::clone(&progress));
        let (ready, go, tx) = (Arc::clone(&ready), Arc::clone(&go), tx.clone());
        let (seed, start, ops) = (spec.seed, spec.start, spec.ops);
        let (tracing, epoch) = (spec.tracing, spec.epoch);
        let handle = std::thread::Builder::new()
            .name(format!("pb-client-{index}"))
            .spawn(move || {
                let me = &progress[index];
                let mut tracer = Tracer::new(tracing, epoch);
                // Touch the sample buffer before the start, so the phase's
                // peak memory does not grow with the number of ops run.
                let mut samples = vec![u32::MAX; ops as usize];
                let mut kept = 0;
                let (mut wrong, mut panicked, mut first_failure) = (0, 0, None);
                ready.wait();
                go.wait();
                let cpu_start = procfs::this_thread_cpu_ns();
                for position in start..start + ops {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let op = w.op(seed, index, position);
                    me.op.store(position, Ordering::Relaxed);
                    let since = phase_epoch.elapsed().as_nanos() as u64 + 1;
                    me.in_flight_since.store(since, Ordering::Release);
                    tracer.begin_op(((index as u64) << 32) | position);
                    let t0 = Instant::now();
                    let result =
                        catch_unwind(AssertUnwindSafe(|| w.run_op(&mut client, &op, &mut tracer)));
                    let dt = t0.elapsed();
                    tracer.end_all();
                    me.in_flight_since.store(0, Ordering::Release);
                    let failure = match result {
                        Ok(Ok(())) => {
                            samples[kept] = dt.as_nanos().min(u128::from(u32::MAX)) as u32;
                            kept += 1;
                            me.ok.fetch_add(1, Ordering::Relaxed);
                            None
                        }
                        Ok(Err(wrong_result)) => {
                            wrong += 1;
                            Some(wrong_result)
                        }
                        Err(panic) => {
                            panicked += 1;
                            Some(panic_message(&panic))
                        }
                    };
                    if let Some(failure) = failure {
                        first_failure.get_or_insert_with(|| {
                            format!("client {index} op {position}: {failure}")
                        });
                    }
                }
                samples.truncate(kept);
                let _ = tx.send(ClientOutcome {
                    index,
                    samples,
                    wrong,
                    panicked,
                    first_failure,
                    cpu_ns: procfs::this_thread_cpu_ns() - cpu_start,
                    client,
                    tracer,
                });
            })
            .expect("spawn a client thread");
        handles.push(handle);
    }
    drop(tx);

    ready.wait();
    // Without the reset (an old kernel) the peak is the process's own.
    procfs::reset_peak_rss();
    let cpu_before = procfs::process_cpu_us();
    let steal_before = procfs::machine_steal_ticks();
    let threads_before = procfs::thread_cpu_ns();
    let start = Instant::now();
    go.wait();

    let deadline = w.deadline();
    let ok_so_far = || {
        progress
            .iter()
            .map(|p| p.ok.load(Ordering::Relaxed))
            .sum::<u64>()
    };
    let mut marks = vec![(0.0, 0, cpu_before)];
    let mut outcomes: Vec<ClientOutcome<W::Client>> = Vec::with_capacity(n);
    let mut stall = None;
    let mut elapsed = Duration::ZERO;
    while outcomes.len() < n {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(outcome) => {
                elapsed = start.elapsed();
                outcomes.push(outcome);
                continue;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        let now_s = start.elapsed().as_secs_f64();
        if outcomes.is_empty() && now_s >= marks[marks.len() - 1].0 + spec.window.as_secs_f64() {
            marks.push((now_s, ok_so_far(), procfs::process_cpu_us()));
        }
        let now = phase_epoch.elapsed().as_nanos() as u64;
        let overran = start.elapsed() > spec.cap;
        let oldest = (0..n)
            .filter_map(|i| {
                let since = progress[i].in_flight_since.load(Ordering::Acquire);
                (since != 0).then(|| (i, Duration::from_nanos(now.saturating_sub(since - 1))))
            })
            .max_by_key(|&(_, waited)| waited);
        if let Some((i, waited)) = oldest {
            if waited > deadline || overran {
                let position = progress[i].op.load(Ordering::Relaxed);
                stall = Some(Stall {
                    client: i,
                    position,
                    op: w.describe(&w.op(spec.seed, i, position)),
                    waited,
                });
                elapsed = start.elapsed();
                break;
            }
        }
    }
    if stall.is_some() {
        stop.store(true, Ordering::Relaxed);
        // Clients that are not stuck finish their op in flight and report;
        // one stuck behind the stalled op is left behind.
        let grace = Instant::now() + deadline.min(Duration::from_secs(2));
        while outcomes.len() < n {
            let left = grace.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(outcome) => outcomes.push(outcome),
                Err(_) => break,
            }
        }
    }
    let steal_after = procfs::machine_steal_ticks();
    let usage = Usage {
        cpu_us: procfs::process_cpu_us() - cpu_before,
        steal_share: (steal_after.0 - steal_before.0) as f64
            / (steal_after.1 - steal_before.1).max(1) as f64,
        threads_before,
        threads_after: procfs::thread_cpu_ns(),
        peak_rss_mb: procfs::peak_rss_mb() - (planned * 4) as f64 / (1 << 20) as f64,
    };
    let reported: Vec<usize> = outcomes.iter().map(|o| o.index).collect();
    for (i, handle) in handles.into_iter().enumerate() {
        if reported.contains(&i) {
            handle
                .join()
                .expect("a client thread that reported exits cleanly");
        }
        // A client that did not report is stuck in a stalled op: its
        // handle is dropped, detaching it.
    }
    outcomes.sort_by_key(|o| o.index);
    let windows = marks
        .windows(2)
        .map(|pair| Window {
            seconds: pair[1].0 - pair[0].0,
            ok: pair[1].1 - pair[0].1,
            cpu_us: pair[1].2 - pair[0].2,
        })
        .collect();
    PhaseOutcome {
        elapsed,
        planned,
        ok: ok_so_far(),
        clients: outcomes,
        stall,
        usage,
        windows,
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    let text = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string());
    format!("panicked: {text}")
}
