//! `contend`: two clients on one hot handler (the paper's mutex and
//! condition tasks). Most blocks are exclusive writes: 1–8 seeded `call`s,
//! then a closing `query` that checks the count. Every 4th block is a
//! guarded `.when` block that runs only on its client's parity turn; both
//! clients run the same plan positions, so they get the same number of
//! guarded blocks and the alternation always completes.

use std::time::Duration;

use qs_runtime::{reserve, Handler, Runtime, RuntimeConfig, StatsSnapshot};

use crate::harness::Workload;
use crate::plan::OpRng;
use crate::trace::{Kind, Tracer};

/// Most clients the hot handler is shared by.
pub const MAX_CLIENTS: usize = 2;

#[derive(Debug, Default)]
struct Hot {
    /// What each client added.
    per_client: [u64; MAX_CLIENTS],
    /// Sum of all additions.
    total: u64,
    /// Guarded blocks run so far; client `c` runs when `turn % clients == c`.
    turn: u64,
}

/// One block of the plan.
#[derive(Debug, Clone)]
pub enum Block {
    /// Exclusive block adding each of the first `calls` amounts with one
    /// `call`, closed by a checking `query`.
    Write { amounts: [u8; 8], calls: u8 },
    /// Guarded block on the client's parity turn.
    Guarded,
}

/// The hot handler.
pub struct Contend {
    runtime: Runtime,
    hot: Handler<Hot>,
    clients: usize,
}

/// A client's expectations.
pub struct ContendClient {
    index: usize,
    added: u64,
    guarded: u64,
    /// XORed into every expected value: nonzero only in the self-tests,
    /// which check that a wrong expectation is caught.
    pub(crate) skew: u64,
}

impl Contend {
    /// Creates the runtime and the hot handler for `clients` clients.
    pub fn setup(config: RuntimeConfig, clients: usize) -> Contend {
        assert!((1..=MAX_CLIENTS).contains(&clients));
        let runtime = Runtime::new(config);
        let hot = runtime.spawn_handler(Hot::default());
        reserve(&hot).run(|s| s.query(|h| h.total));
        Contend {
            runtime,
            hot,
            clients,
        }
    }
}

impl Workload for Contend {
    type Op = Block;
    type Client = ContendClient;

    fn clients(&self) -> usize {
        self.clients
    }

    fn op(&self, seed: u64, client: usize, position: u64) -> Block {
        if position % 4 == 3 {
            return Block::Guarded;
        }
        let mut rng = OpRng::new(seed, "contend", client, position);
        let calls = rng.range(1, 8) as u8;
        let mut amounts = [0u8; 8];
        for amount in &mut amounts[..usize::from(calls)] {
            *amount = rng.range(1, 100) as u8;
        }
        Block::Write { amounts, calls }
    }

    fn client(&self, index: usize) -> ContendClient {
        ContendClient {
            index,
            added: 0,
            guarded: 0,
            skew: 0,
        }
    }

    fn run_op(&self, me: &mut ContendClient, op: &Block, tr: &mut Tracer) -> Result<(), String> {
        let c = me.index;
        match op {
            Block::Write { amounts, calls } => {
                let amounts = &amounts[..usize::from(*calls)];
                me.added += amounts.iter().map(|&a| u64::from(a)).sum::<u64>();
                tr.begin(Kind::Reserve);
                tr.begin(Kind::Acquire);
                let (mine, total, sum) = reserve(&self.hot).run(|s| {
                    tr.end();
                    for &amount in amounts {
                        let amount = u64::from(amount);
                        tr.begin(Kind::Call);
                        s.call(move |h| {
                            h.per_client[c] += amount;
                            h.total += amount;
                        });
                        tr.end();
                    }
                    tr.begin(Kind::Query);
                    let seen =
                        s.query(move |h| (h.per_client[c], h.total, h.per_client.iter().sum()));
                    tr.end();
                    tr.begin(Kind::Release);
                    seen
                });
                tr.end();
                tr.end();
                let expected = me.added ^ me.skew;
                if mine != expected || total != sum {
                    return Err(format!(
                        "client {c} saw its count {mine} (expected {expected}), total {total} (parts sum to {sum})"
                    ));
                }
            }
            Block::Guarded => {
                let clients = self.clients as u64;
                let expected_turn = me.guarded * clients + c as u64 + 1;
                me.guarded += 1;
                tr.begin(Kind::Reserve);
                tr.begin(Kind::GuardWait);
                let turn = reserve(&self.hot)
                    .when(move |h: &Hot| h.turn % clients == c as u64)
                    .run(|s| {
                        tr.end();
                        tr.begin(Kind::Call);
                        s.call(|h| h.turn += 1);
                        tr.end();
                        tr.begin(Kind::Query);
                        let turn = s.query(|h| h.turn);
                        tr.end();
                        tr.begin(Kind::Release);
                        turn
                    });
                tr.end();
                tr.end();
                let expected_turn = expected_turn ^ me.skew;
                if turn != expected_turn {
                    return Err(format!(
                        "client {c} ran guarded block at turn {turn}, expected {expected_turn}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn describe(&self, op: &Block) -> String {
        match op {
            Block::Write { calls, .. } => format!("write block of {calls} calls"),
            Block::Guarded => "guarded parity-turn block".to_string(),
        }
    }

    fn deadline(&self) -> Duration {
        Duration::from_secs(2)
    }

    fn runtime_stats(&self) -> Option<StatsSnapshot> {
        Some(self.runtime.stats_snapshot())
    }
}
