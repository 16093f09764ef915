//! `readmostly`: two clients on one hot handler that holds the pair
//! `(a, 2a)`. 49 of every 50 blocks are `.read()` queries that assert the
//! pair is consistent; the 50th is an exclusive write block with a closing
//! query.

use std::time::Duration;

use qs_runtime::{reserve, Handler, Runtime, RuntimeConfig, StatsSnapshot};

use crate::harness::Workload;
use crate::plan::OpRng;
use crate::trace::{Kind, Tracer};

/// Blocks per write block.
pub const PERIOD: u64 = 50;

#[derive(Debug, Default)]
struct Pair {
    a: u64,
    b: u64,
}

/// One block of the plan.
#[derive(Debug, Clone, Copy)]
pub enum Block {
    /// Shared-read block reading the pair.
    Read,
    /// Exclusive block adding `delta` to `a` (and `2·delta` to `b`) with
    /// one `call`, closed by a query.
    Write {
        /// The seeded increment.
        delta: u64,
    },
}

/// The hot handler.
pub struct ReadMostly {
    runtime: Runtime,
    pair: Handler<Pair>,
    clients: usize,
}

/// A client's expectations: `a` never moves backwards.
pub struct ReadClient {
    last_a: u64,
    /// XORed into every expected value: nonzero only in the self-tests,
    /// which check that a wrong expectation is caught.
    pub(crate) skew: u64,
}

impl ReadMostly {
    /// Creates the runtime and the hot handler.
    pub fn setup(config: RuntimeConfig, clients: usize) -> ReadMostly {
        let runtime = Runtime::new(config);
        let pair = runtime.spawn_handler(Pair::default());
        reserve(&pair).run(|s| s.query(|p| p.a));
        ReadMostly {
            runtime,
            pair,
            clients,
        }
    }

    fn check(&self, me: &mut ReadClient, (a, b): (u64, u64)) -> Result<(), String> {
        let twice = a.wrapping_mul(2) ^ me.skew;
        if b != twice || a < me.last_a {
            return Err(format!(
                "read pair ({a}, {b}): expected b = {twice} and a >= {}",
                me.last_a
            ));
        }
        me.last_a = a;
        Ok(())
    }
}

impl Workload for ReadMostly {
    type Op = Block;
    type Client = ReadClient;

    fn clients(&self) -> usize {
        self.clients
    }

    fn op(&self, seed: u64, client: usize, position: u64) -> Block {
        if position % PERIOD == PERIOD - 1 {
            Block::Write {
                delta: OpRng::new(seed, "readmostly", client, position).range(1, 1000),
            }
        } else {
            Block::Read
        }
    }

    fn client(&self, _index: usize) -> ReadClient {
        ReadClient { last_a: 0, skew: 0 }
    }

    fn run_op(&self, me: &mut ReadClient, op: &Block, tr: &mut Tracer) -> Result<(), String> {
        tr.begin(Kind::Reserve);
        let seen = match *op {
            Block::Read => {
                tr.begin(Kind::ReadAcquire);
                reserve(&self.pair).read().run(|r| {
                    tr.end();
                    tr.begin(Kind::Query);
                    let seen = r.query(|p| (p.a, p.b));
                    tr.end();
                    tr.begin(Kind::Release);
                    seen
                })
            }
            Block::Write { delta } => {
                tr.begin(Kind::Acquire);
                reserve(&self.pair).run(|s| {
                    tr.end();
                    tr.begin(Kind::Call);
                    s.call(move |p| {
                        p.a += delta;
                        p.b = 2 * p.a;
                    });
                    tr.end();
                    tr.begin(Kind::Query);
                    let seen = s.query(|p| (p.a, p.b));
                    tr.end();
                    tr.begin(Kind::Release);
                    seen
                })
            }
        };
        tr.end();
        tr.end();
        self.check(me, seen)
    }

    fn describe(&self, op: &Block) -> String {
        match op {
            Block::Read => "shared-read block".to_string(),
            Block::Write { delta } => format!("exclusive write block (+{delta})"),
        }
    }

    fn deadline(&self) -> Duration {
        Duration::from_secs(2)
    }

    fn runtime_stats(&self) -> Option<StatsSnapshot> {
        Some(self.runtime.stats_snapshot())
    }
}
