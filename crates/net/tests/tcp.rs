//! The TCP transport against a live sharded service, in-process but over
//! real loopback sockets: the grant path, batching, Shed, deadline
//! propagation across the socket boundary, and reconnection.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lease_clock::{Clock, Dur, WallClock};
use lease_core::{
    ClientId, ErrorReason, LeaseServer, MemStorage, ReqId, ServerConfig, Storage, ToClient,
    ToServer,
};
use lease_net::tcp::FrameAccum;
use lease_net::{connect_as, NetServer};
use lease_svc::{Egress, EgressSink, LeaseService, SvcConfig, SvcHooks};
use lease_wire::{frame_len, frame_messages, Dir, FrameBuilder};

type R = u64;
type D = u64;

struct Harness {
    service: LeaseService<R, D>,
    net: NetServer,
    clock: Arc<dyn Clock>,
}

fn start(shards: usize, clients: usize, files: u64) -> Harness {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let egress: Egress<R, D> = Egress::new(clients, 1024);
    let sink = Arc::new(EgressSink::new(egress.clone()));
    let service = LeaseService::spawn(
        SvcConfig {
            shards,
            ..SvcConfig::default()
        },
        sink,
        SvcHooks {
            clock: Some(Arc::clone(&clock)),
            ..SvcHooks::default()
        },
        move |_| {
            let mut store: MemStorage<R, D> = MemStorage::new();
            for r in 0..files {
                store.insert(r, r);
            }
            (
                LeaseServer::new(ServerConfig::fixed(Dur::from_secs(5))),
                Box::new(store) as Box<dyn Storage<R, D> + Send>,
            )
        },
    );
    let net = NetServer::bind("127.0.0.1:0", service.handle(), &egress, Arc::clone(&clock))
        .expect("bind loopback");
    Harness {
        service,
        net,
        clock,
    }
}

/// A minimal blocking wire client: one socket, synchronous RPC.
struct WireClient {
    stream: std::net::TcpStream,
    accum: FrameAccum,
    out: Vec<u8>,
    who: ClientId,
}

impl WireClient {
    fn connect(h: &Harness, who: ClientId) -> WireClient {
        let stream = connect_as(&h.net.local_addr(), who).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .expect("set timeout");
        WireClient {
            stream,
            accum: FrameAccum::new(),
            out: Vec::new(),
            who,
        }
    }

    fn send(&mut self, msgs: &[(ToServer<R, D>, Option<Dur>)]) {
        self.out.clear();
        let mut fb = FrameBuilder::begin(&mut self.out, Dir::C2s, self.who);
        for (m, d) in msgs {
            fb.push_c2s(&mut self.out, m, *d);
        }
        fb.finish(&mut self.out);
        self.stream.write_all(&self.out).expect("write frame");
    }

    /// Receives replies until `n` messages have arrived or 5s pass.
    fn recv(&mut self, n: usize) -> Vec<ToClient<R, D>> {
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < n && Instant::now() < deadline {
            while let Ok(Some(len)) = frame_len(self.accum.bytes()) {
                if self.accum.bytes().len() < len {
                    break;
                }
                {
                    let frame = &self.accum.bytes()[..len];
                    let (_, mut it) = frame_messages(frame).expect("valid reply frame");
                    while let Some(m) = it.next_s2c::<R, D>().expect("decode reply") {
                        got.push(m);
                    }
                }
                self.accum.consume(len);
            }
            if got.len() >= n {
                break;
            }
            match self.accum.fill(&mut self.stream) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => panic!("read: {e}"),
            }
        }
        got
    }
}

#[test]
fn fetch_over_tcp_grants() {
    let h = start(2, 2, 16);
    let mut c = WireClient::connect(&h, ClientId(0));
    c.send(&[(
        ToServer::Fetch {
            req: ReqId(1),
            resource: 3,
            cached: None,
            also_extend: Vec::new(),
        },
        None,
    )]);
    let replies = c.recv(1);
    match &replies[..] {
        [ToClient::Grants { req, grants }] => {
            assert_eq!(*req, ReqId(1));
            assert_eq!(grants.len(), 1);
            assert_eq!(grants[0].resource, 3);
            assert_eq!(grants[0].data, Some(3));
            assert!(grants[0].term > Dur::ZERO);
        }
        other => panic!("expected one grant, got {other:?}"),
    }
    // The writer counts a reply after its `write` returns, so the reply
    // can be in our hands first.
    let t0 = Instant::now();
    while h.net.counters().snapshot().msgs_out < 1 && t0.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let snap = h.net.counters().snapshot();
    assert!(snap.msgs_in >= 1 && snap.msgs_out >= 1);
    h.net.shutdown();
    h.service.shutdown();
}

#[test]
fn batched_fetches_coalesce_on_the_wire() {
    let h = start(2, 1, 64);
    let mut c = WireClient::connect(&h, ClientId(0));
    // One frame carrying 32 fetches; replies must arrive in far fewer
    // writes than messages (the writer coalesces per wakeup).
    let batch: Vec<(ToServer<R, D>, Option<Dur>)> = (0..32)
        .map(|i| {
            (
                ToServer::Fetch {
                    req: ReqId(i),
                    resource: i,
                    cached: None,
                    also_extend: Vec::new(),
                },
                None,
            )
        })
        .collect();
    c.send(&batch);
    let replies = c.recv(32);
    assert_eq!(replies.len(), 32, "all 32 fetches answered");
    // The writer bumps its counters after the `write` returns, so the last
    // reply can be in our hands before it is counted.
    let t0 = Instant::now();
    while h.net.counters().snapshot().msgs_out < 32 && t0.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let snap = h.net.counters().snapshot();
    assert_eq!(snap.msgs_out, 32);
    assert!(
        snap.write_calls < 32,
        "replies must coalesce: {} writes for {} msgs",
        snap.write_calls,
        snap.msgs_out
    );
    h.net.shutdown();
    h.service.shutdown();
}

/// The satellite test: an op whose deadline expires in flight is dropped
/// server-side — counted, never granted.
#[test]
fn expired_deadline_is_dropped_never_granted() {
    let h = start(1, 1, 8);
    let mut c = WireClient::connect(&h, ClientId(0));

    // Remaining = 0: by the time the reader anchors it and the shard
    // (or the door check) looks again, it has expired. The op must die
    // server-side.
    c.send(&[(
        ToServer::Fetch {
            req: ReqId(7),
            resource: 1,
            cached: None,
            also_extend: Vec::new(),
        },
        Some(Dur::ZERO),
    )]);
    // A live op behind it, so we can bound the wait by its reply.
    c.send(&[(
        ToServer::Fetch {
            req: ReqId(8),
            resource: 2,
            cached: None,
            also_extend: Vec::new(),
        },
        Some(Dur::from_secs(30)),
    )]);

    let replies = c.recv(1);
    for r in &replies {
        if let ToClient::Grants { req, .. } = r {
            assert_ne!(*req, ReqId(7), "expired op must never be granted");
        }
    }
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, ToClient::Grants { req, .. } if *req == ReqId(8))),
        "live op must be granted; got {replies:?}"
    );

    let door = h.net.counters().snapshot().expired_at_door;
    let shard = h.service.stats().expect("stats").counters.expired_drops;
    assert_eq!(
        door + shard,
        1,
        "the dead op must be counted exactly once (door={door}, shard={shard})"
    );
    h.net.shutdown();
    h.service.shutdown();
}

/// Shed must cross the wire like any reply: admission control refuses,
/// the client sees `ErrorReason::Shed` with a retry hint.
#[test]
fn shed_crosses_the_wire() {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let egress: Egress<R, D> = Egress::new(1, 1024);
    let sink = Arc::new(EgressSink::new(egress.clone()));
    let service = LeaseService::spawn(
        SvcConfig {
            shards: 1,
            // Watermark 0: every cold fetch is shed.
            admission: Some(lease_svc::AdmissionControl {
                shed_watermark: 0.0,
                ..lease_svc::AdmissionControl::default()
            }),
            ..SvcConfig::default()
        },
        sink,
        SvcHooks {
            clock: Some(Arc::clone(&clock)),
            ..SvcHooks::default()
        },
        move |_| {
            let mut store: MemStorage<R, D> = MemStorage::new();
            store.insert(1, 1);
            (
                LeaseServer::new(ServerConfig::fixed(Dur::from_secs(5))),
                Box::new(store) as Box<dyn Storage<R, D> + Send>,
            )
        },
    );
    let net = NetServer::bind("127.0.0.1:0", service.handle(), &egress, Arc::clone(&clock))
        .expect("bind");
    let h = Harness {
        service,
        net,
        clock,
    };
    let mut c = WireClient::connect(&h, ClientId(0));
    c.send(&[(
        ToServer::Fetch {
            req: ReqId(1),
            resource: 1,
            cached: None,
            also_extend: Vec::new(),
        },
        None,
    )]);
    let replies = c.recv(1);
    match &replies[..] {
        [ToClient::Error {
            req,
            reason: ErrorReason::Shed { retry_after },
        }] => {
            assert_eq!(*req, ReqId(1));
            assert!(*retry_after > Dur::ZERO);
        }
        other => panic!("expected Shed over TCP, got {other:?}"),
    }
    h.net.shutdown();
    h.service.shutdown();
}

/// A client that disconnects and reconnects picks its replies back up;
/// replies sent while it was gone are discarded (not stalled on), and
/// retransmission recovers them.
#[test]
fn reconnect_resumes_replies() {
    let h = start(1, 1, 8);
    let fetch = |req: u64| {
        (
            ToServer::Fetch {
                req: ReqId(req),
                resource: 1,
                cached: None,
                also_extend: Vec::new(),
            },
            None,
        )
    };

    let mut c1 = WireClient::connect(&h, ClientId(0));
    c1.send(&[fetch(1)]);
    assert_eq!(c1.recv(1).len(), 1);
    drop(c1);

    // Reconnect with the same id; retransmit (the reply to a request
    // sent while disconnected would have been discarded).
    let mut c2 = WireClient::connect(&h, ClientId(0));
    c2.send(&[fetch(2)]);
    let replies = c2.recv(1);
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, ToClient::Grants { req, .. } if *req == ReqId(2))),
        "reply after reconnect; got {replies:?}"
    );
    h.net.shutdown();
    h.service.shutdown();
}

/// Corrupt bytes drop the connection (counted), they never panic the
/// server, and other clients are unaffected.
#[test]
fn garbage_drops_connection_not_server() {
    let h = start(1, 2, 8);
    let bad = connect_as(&h.net.local_addr(), ClientId(0)).expect("connect");
    (&bad).write_all(b"GARBAGEGARBAGEGARBAGE").expect("write");
    // Give the reader a moment to refuse.
    let t0 = Instant::now();
    while h.net.counters().snapshot().bad_frames == 0 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(h.net.counters().snapshot().bad_frames, 1);

    // The server still serves a well-behaved client.
    let mut good = WireClient::connect(&h, ClientId(1));
    good.send(&[(
        ToServer::Fetch {
            req: ReqId(9),
            resource: 2,
            cached: None,
            also_extend: Vec::new(),
        },
        None,
    )]);
    assert_eq!(good.recv(1).len(), 1);
    h.net.shutdown();
    h.service.shutdown();
}

/// A connection speaks for the client its hello named, and only for it:
/// a frame claiming another sender — a real client, or an id the server
/// has no lanes for — and a second hello are each counted as one bad
/// frame and close the connection. Nothing reaches a shard, so no lease
/// is granted to a holder nobody can reach and no shard trips over one.
#[test]
fn a_connection_speaks_only_for_its_hello() {
    let h = start(1, 2, 8);
    let fetch = (
        ToServer::Fetch {
            req: ReqId(1),
            resource: 1,
            cached: None,
            also_extend: Vec::new(),
        },
        None,
    );
    for (n, who) in [(1, Some(ClientId(1))), (2, Some(ClientId(99))), (3, None)] {
        let mut c = WireClient::connect(&h, ClientId(0));
        match who {
            Some(who) => {
                c.who = who;
                c.send(std::slice::from_ref(&fetch));
            }
            None => {
                let mut hello = Vec::new();
                lease_wire::hello_frame(&mut hello, ClientId(1));
                c.stream.write_all(&hello).expect("second hello");
            }
        }
        let t0 = Instant::now();
        while h.net.counters().snapshot().bad_frames < n && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(h.net.counters().snapshot().bad_frames, n, "case {who:?}");
        assert!(c.recv(1).is_empty(), "the connection is closed: {who:?}");
    }
    let stats = h.service.stats().expect("stats");
    assert_eq!(stats.counters.fetch_rx, 0);
    assert_eq!(stats.restarts, [0]);
    h.net.shutdown();
    h.service.shutdown();
}

/// The deadline actually uses the server's clock: a remaining of 30s on
/// an op that is processed immediately is *not* dropped — guarding
/// against an accidental absolute-time interpretation of the wire field.
#[test]
fn generous_remaining_is_not_dropped() {
    let h = start(1, 1, 8);
    // Sanity-anchor: the harness clock has advanced well past zero, so a
    // mistaken "deadline = remaining as absolute time" reading would drop.
    assert!(h.clock.now().as_nanos() > 0);
    let mut c = WireClient::connect(&h, ClientId(0));
    c.send(&[(
        ToServer::Fetch {
            req: ReqId(1),
            resource: 1,
            cached: None,
            also_extend: Vec::new(),
        },
        Some(Dur::from_micros(1)),
    )]);
    c.send(&[(
        ToServer::Fetch {
            req: ReqId(2),
            resource: 1,
            cached: None,
            also_extend: Vec::new(),
        },
        Some(Dur::from_secs(30)),
    )]);
    let replies = c.recv(1);
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, ToClient::Grants { req, .. } if *req == ReqId(2))),
        "30s-remaining op must be granted; got {replies:?}"
    );
    h.net.shutdown();
    h.service.shutdown();
}
