//! `bank`: one in-process `NodeServer` running `bank_service` on loopback
//! TCP, with 10 000 accounts each touched once during set-up. Each client
//! has its own `ClusterClient` (one connection, since a closed loop never
//! has two blocks in flight) and owns the accounts `id % clients ==
//! client`. One op is one remote block of 3 deposits and a `balance`
//! query, checked against the client's own expected balance.

use std::time::Duration;

use qs_cluster::{bank_service, Account, ClusterClient, NodeConfig, NodeServer};
use qs_remote::{NodeAddr, RemoteError, WireValue};
use qs_runtime::RuntimeConfig;

use crate::harness::Workload;
use crate::plan::OpRng;
use crate::trace::{Kind, Tracer};

/// Accounts on the node.
pub const ACCOUNTS: u64 = 10_000;

/// The node and one routing client per load-generator client.
pub struct Bank {
    // Field order is drop order: connections close before the node stops.
    conns: Vec<ClusterClient>,
    node: NodeServer<Account>,
}

/// One block: three deposits into one of the client's accounts.
#[derive(Debug, Clone, Copy)]
pub struct Deposits {
    account: u64,
    amounts: [u16; 3],
}

/// A client's expected balance of each account it owns.
pub struct BankClient {
    index: usize,
    clients: u64,
    balances: Vec<i64>,
    /// XORed into every expected value: nonzero only in the self-tests,
    /// which check that a wrong expectation is caught.
    pub(crate) skew: i64,
}

impl Bank {
    /// Starts the node and touches every account once, split across the
    /// clients' connections.
    pub fn setup(runtime: RuntimeConfig, clients: usize) -> Bank {
        let listen = NodeAddr::parse("tcp:127.0.0.1:0").expect("a loopback address");
        let node = NodeServer::start(
            bank_service(),
            NodeConfig {
                runtime,
                ..NodeConfig::at(listen)
            },
        )
        .expect("start the bank node on loopback");
        let conns: Vec<ClusterClient> = (0..clients)
            .map(|c| {
                ClusterClient::new(&format!("perfbench-{c}"), &[node.addr().clone()])
                    .with_response_timeout(Duration::from_secs(10))
            })
            .collect();
        std::thread::scope(|scope| {
            for (c, conn) in conns.iter().enumerate() {
                scope.spawn(move || {
                    for account in (c as u64..ACCOUNTS).step_by(clients) {
                        let balance = conn
                            .query(account, "balance", vec![])
                            .expect("touch an account in set-up");
                        assert_eq!(balance, WireValue::Int(0), "fresh account {account}");
                    }
                });
            }
        });
        assert_eq!(
            node.handlers_live() as u64,
            ACCOUNTS,
            "every account is live"
        );
        Bank { conns, node }
    }

    fn block(
        &self,
        me: &BankClient,
        op: &Deposits,
        tr: &mut Tracer,
    ) -> Result<WireValue, RemoteError> {
        let conn = &self.conns[me.index];
        tr.begin(Kind::RemoteBlock);
        tr.begin(Kind::RemoteOpen);
        let result = conn.separate(op.account, |s| {
            tr.end();
            for amount in op.amounts {
                tr.begin(Kind::RemoteCall);
                s.call("deposit", vec![WireValue::Int(i64::from(amount))])?;
                tr.end();
            }
            tr.begin(Kind::RemoteQuery);
            let balance = s.query("balance", vec![])?;
            tr.end();
            tr.begin(Kind::RemoteEnd);
            s.end();
            tr.end();
            tr.begin(Kind::RemoteRelease);
            Ok(balance)
        });
        tr.end();
        tr.end();
        result?
    }
}

impl Workload for Bank {
    type Op = Deposits;
    type Client = BankClient;

    fn clients(&self) -> usize {
        self.conns.len()
    }

    fn op(&self, seed: u64, client: usize, position: u64) -> Deposits {
        let clients = self.conns.len() as u64;
        let mut rng = OpRng::new(seed, "bank", client, position);
        let owned = (ACCOUNTS - client as u64).div_ceil(clients);
        Deposits {
            account: client as u64 + rng.range(0, owned - 1) * clients,
            amounts: [0; 3].map(|_: u16| rng.range(1, 1000) as u16),
        }
    }

    fn client(&self, index: usize) -> BankClient {
        let clients = self.conns.len() as u64;
        BankClient {
            index,
            clients,
            balances: vec![0; (ACCOUNTS - index as u64).div_ceil(clients) as usize],
            skew: 0,
        }
    }

    fn run_op(&self, me: &mut BankClient, op: &Deposits, tr: &mut Tracer) -> Result<(), String> {
        let slot = (op.account / me.clients) as usize;
        me.balances[slot] += op.amounts.iter().map(|&a| i64::from(a)).sum::<i64>();
        let expected = me.balances[slot] ^ me.skew;
        match self.block(me, op, tr) {
            Ok(WireValue::Int(balance)) if balance == expected => Ok(()),
            Ok(other) => Err(format!(
                "account {} balance {other:?}, expected {expected}",
                op.account
            )),
            Err(error) => Err(format!("account {}: {error}", op.account)),
        }
    }

    fn describe(&self, op: &Deposits) -> String {
        format!("remote block of 3 deposits on account {}", op.account)
    }

    fn deadline(&self) -> Duration {
        Duration::from_secs(5)
    }
}

impl Drop for Bank {
    fn drop(&mut self) {
        self.conns.clear();
        self.node.shutdown();
    }
}
