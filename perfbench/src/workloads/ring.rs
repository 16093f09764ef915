//! `ring`: one client and 64 handlers wired in a ring (the paper's
//! threadring task). One op is one lap: the client injects a token, 64
//! asynchronous handler→handler calls forward it, and the client waits for
//! it to come back.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

use qs_runtime::{reserve, Handler, Runtime, RuntimeConfig, StatsSnapshot};

use crate::harness::Workload;
use crate::plan::{mix, OpRng};
use crate::report::Metrics;
use crate::stats::percentile;
use crate::trace::{Kind, Tracer};

/// Handlers in the ring, and handler→handler calls per lap.
pub const RING: u64 = 64;

/// A token in flight: the lap it belongs to, the hops still to go, and a
/// running hash of the handlers it visited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    lap: u64,
    hops_left: u64,
    acc: u64,
}

struct Node {
    index: u64,
    next: Option<Handler<Node>>,
    /// Set on handler 0 only: where a finished lap reports back.
    done: Option<Mutex<Sender<Token>>>,
}

/// Visits `node` with `token` and forwards it, or reports the finished lap.
fn forward(node: &mut Node, mut token: Token) {
    if token.hops_left == 0 {
        if let Some(done) = &node.done {
            let _ = done.lock().expect("ring reply lock").send(token);
        }
        return;
    }
    token.acc = visit(token.acc, node.index);
    token.hops_left -= 1;
    let next = node.next.as_ref().expect("the ring is wired in set-up");
    reserve(next).run(|s| s.call(move |n| forward(n, token)));
}

fn visit(acc: u64, index: u64) -> u64 {
    mix(acc ^ index)
}

/// The ring and the client's end of its reply channel.
pub struct Ring {
    runtime: Runtime,
    nodes: Vec<Handler<Node>>,
    replies: Mutex<Receiver<Token>>,
}

/// One lap: the token's starting hash, drawn from the seed.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    start: u64,
}

/// The ring client's state.
pub struct RingClient {
    lap: u64,
    /// XORed into every expected value: nonzero only in the self-tests,
    /// which check that a wrong expectation is caught.
    pub(crate) skew: u64,
}

impl Ring {
    /// Creates the runtime, spawns the handlers and wires the ring.
    pub fn setup(config: RuntimeConfig) -> Ring {
        let runtime = Runtime::new(config);
        let (tx, rx) = channel();
        let mut done = Some(Mutex::new(tx));
        let nodes: Vec<Handler<Node>> = (0..RING)
            .map(|index| {
                runtime.spawn_handler(Node {
                    index,
                    next: None,
                    done: done.take(),
                })
            })
            .collect();
        for (i, node) in nodes.iter().enumerate() {
            let next = nodes[(i + 1) % nodes.len()].clone();
            let wired = reserve(node).run(|s| {
                s.call(move |n| n.next = Some(next));
                s.query(|n| n.next.is_some())
            });
            assert!(wired, "handler {i} wired");
        }
        Ring {
            runtime,
            nodes,
            replies: Mutex::new(rx),
        }
    }
}

impl Workload for Ring {
    type Op = Lap;
    type Client = RingClient;

    fn clients(&self) -> usize {
        1
    }

    fn op(&self, seed: u64, client: usize, position: u64) -> Lap {
        Lap {
            start: OpRng::new(seed, "ring", client, position).next_u64(),
        }
    }

    fn client(&self, _index: usize) -> RingClient {
        RingClient { lap: 0, skew: 0 }
    }

    fn run_op(&self, client: &mut RingClient, op: &Lap, tr: &mut Tracer) -> Result<(), String> {
        let token = Token {
            lap: client.lap,
            hops_left: RING,
            acc: op.start,
        };
        client.lap += 1;
        tr.begin(Kind::Reserve);
        tr.begin(Kind::Acquire);
        reserve(&self.nodes[0]).run(|s| {
            tr.end();
            tr.begin(Kind::Call);
            s.call(move |n| forward(n, token));
            tr.end();
            tr.begin(Kind::Release);
        });
        tr.end();
        tr.end();
        tr.begin(Kind::RingWait);
        let back = self
            .replies
            .lock()
            .expect("one ring client")
            .recv()
            .map_err(|_| "the ring dropped its reply channel".to_string())?;
        tr.end();
        let expected = Token {
            lap: token.lap,
            hops_left: 0,
            acc: (0..RING).fold(op.start, visit) ^ client.skew,
        };
        if back == expected {
            Ok(())
        } else {
            Err(format!("lap came back as {back:?}, expected {expected:?}"))
        }
    }

    fn describe(&self, op: &Lap) -> String {
        format!("lap from {:#x}", op.start)
    }

    fn deadline(&self) -> Duration {
        Duration::from_secs(2)
    }

    fn runtime_stats(&self) -> Option<StatsSnapshot> {
        Some(self.runtime.stats_snapshot())
    }

    fn phase_metrics(&self, sorted_ns: &[u32], _e2e: &mut Metrics, layer: &mut Metrics) {
        if let Some(lap) = percentile(sorted_ns, 50.0) {
            layer.push("exec.hop_us", lap.value / 1e3 / RING as f64, "us");
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        for node in &self.nodes {
            // Break the ring's reference cycle so the handlers can finish.
            reserve(node).run(|s| s.call(|n| n.next = None));
            node.stop();
        }
    }
}
