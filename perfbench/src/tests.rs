//! The benchmark's self-tests: seeded plans repeat, every workload's result
//! check fires on a wrong expected value, and a stalled op is counted as
//! failed instead of hanging the run.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use qs_obs::parse_json;

use super::*;
use crate::workloads::bank::BankClient;

fn config() -> RuntimeConfig {
    RuntimeConfig::all_optimizations()
}

fn plan_text<W: Workload>(w: &W, seed: u64) -> Vec<String> {
    (0..w.clients())
        .flat_map(|c| (0..200).map(move |position| (c, position)))
        .map(|(c, position)| format!("{:?}", w.op(seed, c, position)))
        .collect()
}

fn assert_plans_repeat<W: Workload>(w: &W) {
    assert_eq!(plan_text(w, 7), plan_text(w, 7), "same seed, same plan");
    assert_ne!(plan_text(w, 7), plan_text(w, 8), "the seed shapes the plan");
}

/// Runs the first op of client 0's plan with `client`, untraced.
fn first_op<W: Workload>(w: &W, client: &mut W::Client) -> Result<(), String> {
    let op = w.op(1, 0, 0);
    w.run_op(client, &op, &mut Tracer::new(false, Instant::now()))
}

#[test]
fn the_same_seed_gives_the_same_plan() {
    assert_plans_repeat(&Ring::setup(config()));
    assert_plans_repeat(&Contend::setup(config(), 2));
    assert_plans_repeat(&ReadMostly::setup(config(), 2));
    assert_plans_repeat(&Chain::setup());
    assert_plans_repeat(&Bank::setup(config(), 2));
}

#[test]
fn ring_check_fires_on_a_wrong_expectation() {
    let ring = Ring::setup(config());
    let mut good = ring.client(0);
    assert_eq!(first_op(&ring, &mut good), Ok(()));
    let mut wrong = ring.client(0);
    wrong.skew = 1;
    assert!(first_op(&ring, &mut wrong).is_err());
}

#[test]
fn contend_check_fires_on_a_wrong_expectation() {
    let contend = Contend::setup(config(), 2);
    let mut good = contend.client(0);
    assert_eq!(first_op(&contend, &mut good), Ok(()));
    let mut wrong = contend.client(0);
    wrong.skew = 1;
    assert!(first_op(&contend, &mut wrong).is_err());
}

#[test]
fn readmostly_check_fires_on_a_wrong_expectation() {
    let pair = ReadMostly::setup(config(), 2);
    let mut good = pair.client(0);
    assert_eq!(first_op(&pair, &mut good), Ok(()));
    let mut wrong = pair.client(0);
    wrong.skew = 1;
    assert!(first_op(&pair, &mut wrong).is_err());
}

#[test]
fn bank_check_fires_on_a_wrong_expectation() {
    let bank = Bank::setup(config(), 2);
    let mut good: BankClient = bank.client(0);
    assert_eq!(first_op(&bank, &mut good), Ok(()));
    let mut wrong = bank.client(1);
    wrong.skew = 1;
    let op = bank.op(1, 1, 0);
    assert!(bank
        .run_op(&mut wrong, &op, &mut Tracer::new(false, Instant::now()))
        .is_err());
}

#[test]
fn chain_runs_and_checks_itself() {
    // The chain's result check is the oracle assertion inside
    // `run_parallel_scoop`, which panics on a mismatch;
    // `a_failing_or_panicking_op_is_counted_as_failed` shows such a panic
    // counts as a failed op.
    let chain = Chain::setup();
    assert_eq!(first_op(&chain, &mut ()), Ok(()));
}

/// A stand-in workload: op `stall_at` of client 0 blocks until released,
/// op `panic_at` panics, op `wrong_at` returns a wrong result.
struct Fake {
    stall_at: u64,
    panic_at: u64,
    wrong_at: u64,
    released: Mutex<bool>,
    wake: Condvar,
}

impl Fake {
    fn new(stall_at: u64, panic_at: u64, wrong_at: u64) -> Fake {
        Fake {
            stall_at,
            panic_at,
            wrong_at,
            released: Mutex::new(false),
            wake: Condvar::new(),
        }
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.wake.notify_all();
    }
}

impl Workload for Fake {
    type Op = (usize, u64);
    type Client = ();

    fn clients(&self) -> usize {
        2
    }

    fn op(&self, _seed: u64, client: usize, position: u64) -> (usize, u64) {
        (client, position)
    }

    fn client(&self, _index: usize) {}

    fn run_op(
        &self,
        _: &mut (),
        &(client, position): &(usize, u64),
        _: &mut Tracer,
    ) -> Result<(), String> {
        if client == 0 && position == self.stall_at {
            let mut released = self.released.lock().unwrap();
            while !*released {
                released = self.wake.wait(released).unwrap();
            }
        }
        if position == self.panic_at {
            panic!("mismatch against the oracle");
        }
        if position == self.wrong_at {
            return Err("wrong result".to_string());
        }
        Ok(())
    }

    fn describe(&self, op: &(usize, u64)) -> String {
        format!("fake op {op:?}")
    }

    fn deadline(&self) -> Duration {
        Duration::from_millis(200)
    }
}

fn run_fake(fake: &Arc<Fake>, ops: u64) -> PhaseOutcome<()> {
    let spec = PhaseSpec {
        seed: 0,
        start: 0,
        ops,
        tracing: false,
        epoch: Instant::now(),
        cap: Duration::from_secs(30),
        window: Duration::from_millis(100),
    };
    run_phase(fake, vec![(), ()], &spec)
}

#[test]
fn a_stalled_op_is_counted_as_failed_instead_of_hanging() {
    let fake = Arc::new(Fake::new(10, u64::MAX, u64::MAX));
    let started = Instant::now();
    let out = run_fake(&fake, 100);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the phase gave up"
    );
    let stall = out.stall.clone().expect("the stall is reported");
    assert_eq!((stall.client, stall.position), (0, 10));
    assert!(stall.op.contains("fake op (0, 10)"));
    assert_eq!(out.planned, 200);
    // Client 0 completed ops 0..10; client 1 ran on until the stop flag.
    assert!(out.ok >= 10 && out.ok <= 110, "ok = {}", out.ok);
    assert_eq!(out.failed(), out.planned - out.ok);
    assert!(out.failed() >= 90);
    assert!(
        out.clients.iter().all(|c| c.index == 1),
        "client 0 is left behind"
    );
    fake.release();
}

#[test]
fn a_failing_or_panicking_op_is_counted_as_failed() {
    let fake = Arc::new(Fake::new(u64::MAX, 5, 6));
    let out = run_fake(&fake, 20);
    assert!(out.stall.is_none());
    assert_eq!(out.planned, 40);
    assert_eq!(out.failed(), 4, "ops 5 and 6 of both clients");
    assert_eq!(out.clients.iter().map(|c| c.panicked).sum::<u64>(), 2);
    assert_eq!(out.clients.iter().map(|c| c.wrong).sum::<u64>(), 2);
    assert_eq!(
        out.sorted_samples().len(),
        36,
        "failed ops leave no latency sample"
    );
    assert!(out.first_failure().is_some());
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
    let ok = args("--workload ring --seed 3 --seconds 10 --trace 1").unwrap();
    assert_eq!(
        (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
        ("ring", 3, 10.0, true)
    );
    assert!(args("--workload ring --seed 3 --seconds 10").is_err());
    assert!(args("--workload ring --seed x --seconds 10 --trace 0").is_err());
    assert!(args("--workload ring --seed 3 --seconds 0 --trace 0").is_err());
    assert!(args("--workload ring --seed 3 --seconds 10 --trace 2").is_err());
}

#[test]
fn benchmark_json_declares_the_metrics_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    let spec = parse_json(&text).expect("BENCHMARK.json parses");
    let entries = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(|v| v.as_array())
            .expect("a metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let layer: Vec<(String, String)> = LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(entries("per_layer"), layer);

    let fake = Arc::new(Fake::new(u64::MAX, u64::MAX, u64::MAX));
    let mut e2e = e2e_metrics(&run_fake(&fake, 2_000));
    e2e.push("setup_s", 0.5, "s");
    for (name, unit) in entries("end_to_end") {
        let m = e2e
            .get(&name)
            .unwrap_or_else(|| panic!("{name} is reported"));
        assert_eq!(m.unit, unit, "{name}");
    }
}
