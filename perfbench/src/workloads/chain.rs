//! `chain`: the Cowichan chain (winnow → outer → product) through
//! `run_parallel_scoop(Chain, All, ..)` at nr = nw = 1000, p = 1 %, with 2
//! worker handlers. That function checks its result against the sequential
//! oracle and panics on a mismatch. One op is one chain; the seed picks
//! each chain's input matrix.

use std::sync::Mutex;
use std::time::Duration;

use qs_runtime::OptimizationLevel;
use qs_workloads::{run_parallel_scoop, CowichanParams, ParallelTask, TimedRun};

use crate::harness::Workload;
use crate::plan::OpRng;
use crate::report::Metrics;
use crate::stats::{median, ratio};
use crate::trace::{Kind, Tracer};

/// Matrix side and points kept.
pub const SIZE: usize = 1000;
/// Worker handlers.
pub const WORKERS: usize = 2;

/// The chain workload: nothing lives between chains except the timings.
pub struct Chain {
    timings: Mutex<Vec<TimedRun>>,
}

/// One chain: the seed of its input matrix.
#[derive(Debug, Clone, Copy)]
pub struct ChainOp {
    matrix_seed: u64,
}

impl Chain {
    /// `run_parallel_scoop` creates its runtime and worker handlers inside
    /// every call, so nothing can be set up ahead of a chain: the set-up is
    /// one chain on a fixed matrix, which is where work moved out of the
    /// chain and into set-up would show.
    pub fn setup() -> Chain {
        run_parallel_scoop(
            ParallelTask::Chain,
            OptimizationLevel::All,
            &Chain::params(2015),
        );
        Chain {
            timings: Mutex::new(Vec::new()),
        }
    }

    /// The parameters of one chain.
    pub fn params(matrix_seed: u64) -> CowichanParams {
        CowichanParams {
            nr: SIZE,
            p_percent: 1,
            nw: SIZE,
            seed: matrix_seed,
            threads: WORKERS,
        }
    }
}

impl Workload for Chain {
    type Op = ChainOp;
    type Client = ();

    fn clients(&self) -> usize {
        1
    }

    fn op(&self, seed: u64, client: usize, position: u64) -> ChainOp {
        ChainOp {
            matrix_seed: OpRng::new(seed, "chain", client, position).next_u64(),
        }
    }

    fn client(&self, _index: usize) {}

    fn run_op(&self, _: &mut (), op: &ChainOp, tr: &mut Tracer) -> Result<(), String> {
        // A result that differs from the sequential oracle makes
        // `run_parallel_scoop` panic, which the harness counts as a failure.
        tr.begin(Kind::Chain);
        let timed = run_parallel_scoop(
            ParallelTask::Chain,
            OptimizationLevel::All,
            &Chain::params(op.matrix_seed),
        );
        tr.end();
        if timed.total().is_zero() {
            return Err("chain reported no time at all".to_string());
        }
        self.timings.lock().expect("timings lock").push(timed);
        Ok(())
    }

    fn describe(&self, op: &ChainOp) -> String {
        format!("chain on matrix seed {:#x}", op.matrix_seed)
    }

    fn deadline(&self) -> Duration {
        Duration::from_secs(30)
    }

    fn phase_metrics(&self, _sorted_ns: &[u32], e2e: &mut Metrics, layer: &mut Metrics) {
        let timings = std::mem::take(&mut *self.timings.lock().expect("timings lock"));
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let communicate: Vec<f64> = timings.iter().map(|t| ms(t.communicate)).collect();
        let compute: Vec<f64> = timings.iter().map(|t| ms(t.compute)).collect();
        e2e.push("communicate_ms", median(&communicate), "ms");
        e2e.push("compute_ms", median(&compute), "ms");
        let total: f64 = timings.iter().map(|t| ms(t.total())).sum();
        layer.push(
            "chain.communicate_share",
            ratio(communicate.iter().sum(), total),
            "ratio",
        );
    }
}
