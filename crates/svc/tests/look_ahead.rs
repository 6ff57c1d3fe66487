//! The shard's look-ahead is only a hint: on a table deep enough for it
//! to run, a one-shard service answers exactly as a bare `LeaseServer`
//! does.
//!
//! The shard prefetches the index buckets of the input 16 ahead and the
//! first holder's record of the input 8 ahead, but only once the lease
//! table's index holds 2^14 buckets or more — a size `batch_equiv`'s 12
//! resources never reach. Here both stores hold 2^15 files, and client 0
//! leases every one of them before the mixed stream starts. Then a
//! seeded stream of fetches and writes runs in rounds, and every
//! approval request one round produces is approved in the next. The same
//! inputs go through the service (64-input batches, look-ahead on) and
//! through `LeaseServer::handle` one at a time. Both must send each
//! client the same replies and end with the same `ServerCounters`.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use lease_clock::{Dur, Time};
use lease_core::{
    ClientId, LeaseServer, MemStorage, ReqId, ServerConfig, ServerInput, ServerOutput, Storage,
    ToClient, ToServer, WriteId,
};
use lease_svc::{BatchBuf, ClientSink, LeaseService, SvcConfig, SvcHooks, WorkerSink};

const FILES: u64 = 1 << 15;
const CLIENTS: u32 = 3;
const ROUNDS: usize = 12;
const OPS_PER_ROUND: usize = 600;
/// Inputs per `try_send_batch` between stats barriers: well under a
/// lane's 1024 slots, so nothing is refused.
const CHUNK: usize = 512;

type Msg = (ClientId, ToClient<u64, u64>);
type Input = (ClientId, ToServer<u64, u64>);

struct ChanSink(Sender<Msg>);
impl ClientSink<u64, u64> for ChanSink {
    fn attach_worker(&self) -> Box<dyn WorkerSink<u64, u64>> {
        Box::new(ChanSink(self.0.clone()))
    }
}
impl WorkerSink<u64, u64> for ChanSink {
    fn deliver_batch(&mut self, msgs: &mut Vec<Msg>) {
        for m in msgs.drain(..) {
            let _ = self.0.send(m);
        }
    }
}

fn server() -> LeaseServer<u64, u64> {
    LeaseServer::new(ServerConfig::fixed(Dur::from_secs(3600)))
}

fn store() -> MemStorage<u64, u64> {
    let mut store = MemStorage::new();
    for f in 0..FILES {
        store.insert(f, f);
    }
    store
}

/// A small deterministic generator (xorshift64*).
struct Rng(u64);
impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// One round of fetches and writes. Half the ops go to 64 hot files, so
/// writes find other holders to ask; the rest spread over every file.
fn ops(rng: &mut Rng, next_req: &mut u64) -> Vec<Input> {
    (0..OPS_PER_ROUND)
        .map(|_| {
            let from = ClientId(rng.below(u64::from(CLIENTS)) as u32);
            let resource = if rng.below(2) == 0 {
                rng.below(64)
            } else {
                rng.below(FILES)
            };
            *next_req += 1;
            let req = ReqId(*next_req);
            let msg = if rng.below(8) == 0 {
                ToServer::Write {
                    req,
                    resource,
                    data: *next_req,
                }
            } else {
                ToServer::Fetch {
                    req,
                    resource,
                    cached: None,
                    also_extend: Vec::new(),
                }
            };
            (from, msg)
        })
        .collect()
}

/// One system under test: takes a round's inputs, returns each client's
/// replies to them in the order they were sent.
trait System {
    fn round(&mut self, inputs: &[Input]) -> BTreeMap<u32, Vec<ToClient<u64, u64>>>;
}

struct Bare {
    server: LeaseServer<u64, u64>,
    store: MemStorage<u64, u64>,
}

impl System for Bare {
    fn round(&mut self, inputs: &[Input]) -> BTreeMap<u32, Vec<ToClient<u64, u64>>> {
        let mut replies: BTreeMap<u32, Vec<_>> = BTreeMap::new();
        let now = Time::from_secs(1);
        for (from, msg) in inputs {
            let input = ServerInput::Msg {
                from: *from,
                msg: msg.clone(),
            };
            for o in self.server.handle(now, input, &mut self.store) {
                match o {
                    ServerOutput::Send { to, msg } => replies.entry(to.0).or_default().push(msg),
                    ServerOutput::Multicast { to, msg } => {
                        for c in to {
                            replies.entry(c.0).or_default().push(msg.clone());
                        }
                    }
                    _ => {}
                }
            }
        }
        replies
    }
}

struct Service {
    svc: LeaseService<u64, u64>,
    rx: Receiver<Msg>,
}

impl System for Service {
    fn round(&mut self, inputs: &[Input]) -> BTreeMap<u32, Vec<ToClient<u64, u64>>> {
        let h = self.svc.handle();
        let mut buf: BatchBuf<u64, u64> = BatchBuf::new();
        for chunk in inputs.chunks(CHUNK) {
            for (from, msg) in chunk {
                buf.push(*from, msg.clone());
            }
            h.try_send_batch(&mut buf).unwrap();
            assert!(buf.is_empty(), "refused with room to spare");
            // Egress barrier: the shard flushes before it answers.
            self.svc.stats().expect("stats");
        }
        let mut replies: BTreeMap<u32, Vec<_>> = BTreeMap::new();
        while let Ok((to, msg)) = self.rx.try_recv() {
            replies.entry(to.0).or_default().push(msg);
        }
        replies
    }
}

/// The approvals each client sends for the approval requests it was just
/// sent, in the order it got them.
fn approvals(replies: &BTreeMap<u32, Vec<ToClient<u64, u64>>>) -> Vec<Input> {
    let mut out = Vec::new();
    for (c, msgs) in replies {
        for m in msgs {
            if let ToClient::ApprovalRequest { write_id, .. } = m {
                let msg = ToServer::Approve {
                    write_id: *write_id,
                };
                out.push((ClientId(*c), msg));
            }
        }
    }
    out
}

/// Each client's replies as a sorted multiset, write ids blanked (the
/// service tags them with its shard and epoch).
fn multiset(replies: &BTreeMap<u32, Vec<ToClient<u64, u64>>>) -> BTreeMap<u32, Vec<String>> {
    replies
        .iter()
        .map(|(c, msgs)| {
            let mut v: Vec<String> = msgs
                .iter()
                .map(|m| {
                    let mut m = m.clone();
                    if let ToClient::ApprovalRequest { write_id, .. } = &mut m {
                        *write_id = WriteId(0);
                    }
                    format!("{m:?}")
                })
                .collect();
            v.sort_unstable();
            (*c, v)
        })
        .collect()
}

#[test]
fn a_deep_table_answers_the_same_with_and_without_look_ahead() {
    let (tx, rx) = channel();
    let svc = LeaseService::spawn(
        SvcConfig::default(),
        Arc::new(ChanSink(tx)),
        SvcHooks::default(),
        |_| {
            let store: Box<dyn Storage<u64, u64> + Send> = Box::new(store());
            (server(), store)
        },
    );
    let mut service = Service { svc, rx };
    let mut bare = Bare {
        server: server(),
        store: store(),
    };

    let mut next_req = 0;
    // Client 0 leases every file: the index grows to 2^16 buckets.
    let warm: Vec<Input> = (0..FILES)
        .map(|resource| {
            next_req += 1;
            let msg = ToServer::Fetch {
                req: ReqId(next_req),
                resource,
                cached: None,
                also_extend: Vec::new(),
            };
            (ClientId(0), msg)
        })
        .collect();
    assert_eq!(
        multiset(&service.round(&warm)),
        multiset(&bare.round(&warm))
    );

    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let (mut svc_approve, mut bare_approve) = (Vec::new(), Vec::new());
    let mut approval_requests = 0;
    for round in 0..ROUNDS {
        let ops = ops(&mut rng, &mut next_req);
        let svc_in: Vec<Input> = svc_approve.drain(..).chain(ops.iter().cloned()).collect();
        let bare_in: Vec<Input> = bare_approve.drain(..).chain(ops).collect();
        let (s, b) = (service.round(&svc_in), bare.round(&bare_in));
        assert_eq!(multiset(&s), multiset(&b), "round {round}");
        svc_approve = approvals(&s);
        bare_approve = approvals(&b);
        approval_requests += bare_approve.len();
    }
    assert!(approval_requests > 0, "no write asked for an approval");

    let stats = service.svc.stats().expect("stats");
    assert_eq!(stats.counters, bare.server.counters);
    assert!(
        stats.gauges.leases_live >= FILES,
        "the table never got deep"
    );
    service.svc.shutdown();
}
