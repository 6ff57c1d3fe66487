//! Ladder probes: a workload's own op stream replayed single-threaded
//! against progressively larger slices of the program — table and wheel,
//! the sans-IO server, a ring, the codec — so that the difference
//! between two rungs prices the layer that was added, with its base
//! stated. The in-process service and loopback rungs are the workloads
//! themselves.
//!
//! Probes pass synthetic time, so expiry can be measured without waiting
//! for it and without the op mix depending on the machine's speed.

use std::time::Instant;

use lease_clock::{Dur, Time};
use lease_core::ring::spsc;
use lease_core::{
    ClientConfig, ClientId, ClientInput, ClientOutput, LeaseClient, LeaseHandle, LeaseServer,
    MemStorage, Op as CacheOp, OpId, ReqId, ServerConfig, ServerInput, ServerOutput, SlabTable,
    TimerWheel, ToClient, ToServer,
};
use lease_wire::{frame_messages, Dir, FrameBuilder};

use crate::alloc;
use crate::gen::Op;
use crate::harness::time_ns_per;
use crate::report::Outcome;
use crate::service::datum;

/// Messages per frame and per ring publish in the probes: the batch the
/// workloads use.
const BATCH: usize = 128;

/// `core.table.*` and `core.wheel.*` at `leases` live leases (two
/// holders per file), driven by the files the op stream names.
pub fn put_table_and_wheel(out: &mut Outcome, leases: u64, ops: &[Op]) {
    let holders = 2u64;
    let files = leases / holders;
    let far = Time::from_secs(600);

    alloc::set_counting(true);
    let before = alloc::stats();
    let mut table: SlabTable<u64> = SlabTable::new();
    let t0 = Instant::now();
    for f in 0..files {
        for c in 0..holders {
            table.grant(f, ClientId(c as u32), far);
        }
    }
    out.put_value(
        "core.table.grant_ns",
        t0.elapsed().as_nanos() as f64 / leases as f64,
    );
    let held = alloc::stats().since(before).live_bytes();
    alloc::set_counting(false);
    out.put_value("core.table.bytes_per_lease", held as f64 / leases as f64);

    // What a fetch of a held lease does: a keyed extension.
    let mut expiry = far;
    out.put_value(
        "core.table.extend_ns",
        time_ns_per(ops.len() as u64, 1, || {
            for (i, op) in ops.iter().enumerate() {
                expiry = Time(expiry.0 + 1);
                std::hint::black_box(table.extend(
                    LeaseHandle::NULL,
                    op.file() % files,
                    ClientId((i as u64 % holders) as u32),
                    expiry,
                ));
            }
        }),
    );

    // What an approval does, at depth: the victims are a sixteenth of
    // the stream, a few percent of the table.
    let victims: Vec<(u64, ClientId)> = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.is_write())
        .map(|(i, op)| (op.file() % files, ClientId((i as u64 % holders) as u32)))
        .collect();
    let t0 = Instant::now();
    for &(f, c) in &victims {
        table.release(f, c);
    }
    out.put_value(
        "core.table.release_ns",
        t0.elapsed().as_nanos() as f64 / victims.len().max(1) as f64,
    );
    drop(table);

    // Expiry: the same number of leases, due over one synthetic minute,
    // pruned a millisecond at a time.
    let mut table: SlabTable<u64> = SlabTable::new();
    let minute_ns = 60_000_000_000u64;
    for f in 0..files {
        for c in 0..holders {
            let i = f * holders + c;
            let due = Time(1_000_000 + i * minute_ns / leases);
            table.grant(f, ClientId(c as u32), due);
        }
    }
    let t0 = Instant::now();
    let mut pruned = 0;
    let mut now = Time::ZERO;
    while !table.is_empty() {
        now = now.saturating_add(Dur::from_millis(1));
        pruned += table.prune(now);
    }
    out.put_value(
        "core.table.prune_ns_per_expiry",
        t0.elapsed().as_nanos() as f64 / pruned.max(1) as f64,
    );
    drop(table);

    let mut wheel: TimerWheel<u64> = TimerWheel::new(Dur::from_millis(1), Time::ZERO);
    let t0 = Instant::now();
    for i in 0..leases {
        wheel.schedule(Time(1_000_000 + i * minute_ns / leases), i);
    }
    out.put_value(
        "core.wheel.schedule_ns",
        t0.elapsed().as_nanos() as f64 / leases as f64,
    );
    let mut fired = Vec::new();
    let mut total = 0usize;
    let mut now = Time::ZERO;
    let t0 = Instant::now();
    while !wheel.is_empty() {
        now = now.saturating_add(Dur::from_millis(1));
        fired.clear();
        wheel.advance_into(now, &mut fired);
        total += fired.len();
    }
    out.put_value(
        "core.wheel.advance_ns_per_expiry",
        t0.elapsed().as_nanos() as f64 / total.max(1) as f64,
    );
}

/// The sans-IO server rung: what it cost, and the traffic it produced
/// for the rungs above to carry.
pub struct CoreRung {
    pub ns_per_op: f64,
    pub requests: Vec<(ClientId, ToServer<u64, u64>)>,
    pub replies: Vec<ToClient<u64, u64>>,
}

/// Replays `ops` (alternating over `clients` ids) through
/// `LeaseServer::handle` over a `MemStorage`, every file leased to every
/// client beforehand, approvals answered on the spot. Synthetic time
/// advances `step` per message and the table is pruned every synthetic
/// millisecond, as the shard worker's timer would.
pub fn server_handle(files: u64, term: Dur, ops: &[Op], clients: usize, step: Dur) -> CoreRung {
    let mut store: MemStorage<u64, u64> = MemStorage::new();
    for f in 0..files {
        store.insert(f, datum(0, f));
    }
    let mut server: LeaseServer<u64, u64> = LeaseServer::new(ServerConfig::fixed(term));
    // Request ids never repeat: the server remembers recent writes by id.
    let request = |i: usize| {
        let op = ops[i % ops.len()];
        let req = ReqId(i as u64);
        let msg = if op.is_write() {
            ToServer::Write {
                req,
                resource: op.file(),
                data: datum(i as u64 + 1, op.file()),
            }
        } else {
            ToServer::Fetch {
                req,
                resource: op.file(),
                cached: None,
                also_extend: Vec::new(),
            }
        };
        (ClientId((i % clients) as u32), msg)
    };

    let mut now = Time::from_secs(1);
    let mut next_prune = now;
    let mut replies = Vec::new();
    let mut todo: Vec<(ClientId, ToServer<u64, u64>)> = Vec::new();
    let mut drive = |first: (ClientId, ToServer<u64, u64>), keep: bool| {
        todo.push(first);
        while let Some((from, msg)) = todo.pop() {
            now = now.saturating_add(step);
            if now >= next_prune {
                server.prune(now);
                next_prune = now.saturating_add(Dur::from_millis(1));
            }
            for o in server.handle(now, ServerInput::Msg { from, msg }, &mut store) {
                let (to, msg) = match o {
                    ServerOutput::Send { to, msg } => (vec![to], msg),
                    ServerOutput::Multicast { to, msg } => (to, msg),
                    _ => continue,
                };
                for to in to {
                    if let ToClient::ApprovalRequest { write_id, .. } = &msg {
                        todo.push((
                            to,
                            ToServer::Approve {
                                write_id: *write_id,
                            },
                        ));
                    }
                    if keep {
                        replies.push(msg.clone());
                    }
                }
            }
        }
    };

    let every_lease = files as usize * clients;
    for i in 0..every_lease {
        let fetch = ToServer::Fetch {
            req: ReqId(i as u64),
            resource: (i / clients) as u64,
            cached: None,
            also_extend: Vec::new(),
        };
        drive((ClientId((i % clients) as u32), fetch), false);
    }
    let requests: Vec<_> = (every_lease..every_lease + ops.len())
        .map(request)
        .collect();
    let t0 = Instant::now();
    for r in &requests {
        drive(r.clone(), true);
    }
    let ns_per_op = t0.elapsed().as_nanos() as f64 / ops.len().max(1) as f64;
    CoreRung {
        ns_per_op,
        requests,
        replies,
    }
}

/// One SPSC ring, one thread: publish a batch, drain it.
pub fn ring_transfer_ns_per_msg(replies: &[ToClient<u64, u64>]) -> f64 {
    let (tx, rx) = spsc::<ToClient<u64, u64>>(1024);
    let mut stage: Vec<ToClient<u64, u64>> = Vec::with_capacity(BATCH);
    let mut got: Vec<ToClient<u64, u64>> = Vec::with_capacity(BATCH);
    let mut moved = 0u64;
    let mut spent = 0u128;
    for chunk in replies.chunks(BATCH) {
        stage.extend(chunk.iter().cloned());
        let t0 = Instant::now();
        tx.push_from(&mut stage);
        moved += rx.drain_into(&mut got, usize::MAX) as u64;
        spent += t0.elapsed().as_nanos();
        got.clear();
    }
    spent as f64 / moved.max(1) as f64
}

/// What the codec costs on this traffic, in `BATCH`-message frames.
pub struct Codec {
    pub encode_c2s_ns: f64,
    pub decode_c2s_ns: f64,
    pub encode_s2c_ns: f64,
    pub decode_s2c_ns: f64,
    pub bytes_c2s: f64,
    pub bytes_s2c: f64,
}

impl Codec {
    /// Codec time per op: each op is encoded and decoded once in each
    /// direction, plus its share of the approval traffic.
    pub fn ns_per_op(&self, c2s_per_op: f64, s2c_per_op: f64) -> f64 {
        (self.encode_c2s_ns + self.decode_c2s_ns) * c2s_per_op
            + (self.encode_s2c_ns + self.decode_s2c_ns) * s2c_per_op
    }
}

/// Encodes `items` into `BATCH`-message frames of direction `dir`, one
/// after the other into the reused `wire`, handing each to `each`.
fn encode_frames<T>(
    wire: &mut Vec<u8>,
    dir: Dir,
    items: &[T],
    push: impl Fn(&mut FrameBuilder, &mut Vec<u8>, &T),
    mut each: impl FnMut(&[u8]),
) {
    for chunk in items.chunks(BATCH) {
        wire.clear();
        let mut fb = FrameBuilder::begin(wire, dir, ClientId(0));
        for item in chunk {
            push(&mut fb, wire, item);
        }
        fb.finish(wire);
        each(wire);
    }
}

/// Times one direction: encoding, then decoding what was encoded.
/// Returns (encode ns/msg, decode ns/msg, bytes/msg).
fn codec_one_way<T>(
    dir: Dir,
    items: &[T],
    push: impl Fn(&mut FrameBuilder, &mut Vec<u8>, &T),
    decode_all: impl Fn(&[u8]),
) -> (f64, f64, f64) {
    let n = items.len() as u64;
    let mut wire = Vec::new();
    let encode_ns = time_ns_per(n, 1, || {
        encode_frames(&mut wire, dir, items, &push, |f| {
            std::hint::black_box(f);
        });
    });
    let mut frames: Vec<Vec<u8>> = Vec::new();
    encode_frames(&mut wire, dir, items, &push, |f| frames.push(f.to_vec()));
    let bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / n.max(1) as f64;
    let decode_ns = time_ns_per(n, 1, || frames.iter().for_each(|f| decode_all(f)));
    (encode_ns, decode_ns, bytes)
}

pub fn codec(rung: &CoreRung) -> Codec {
    let (encode_c2s_ns, decode_c2s_ns, bytes_c2s) = codec_one_way(
        Dir::C2s,
        &rung.requests,
        |fb, wire, (_, m)| fb.push_c2s(wire, m, None),
        |f| {
            let (_, mut it) = frame_messages(f).expect("a frame we encoded");
            while let Some(m) = it.next_c2s::<u64, u64>().expect("a frame we encoded") {
                std::hint::black_box(m);
            }
        },
    );
    let (encode_s2c_ns, decode_s2c_ns, bytes_s2c) = codec_one_way(
        Dir::S2c,
        &rung.replies,
        |fb, wire, m| fb.push_s2c(wire, m),
        |f| {
            let (_, mut it) = frame_messages(f).expect("a frame we encoded");
            while let Some(m) = it.next_s2c::<u64, u64>().expect("a frame we encoded") {
                std::hint::black_box(m);
            }
        },
    );
    Codec {
        encode_c2s_ns,
        decode_c2s_ns,
        encode_s2c_ns,
        decode_s2c_ns,
        bytes_c2s,
        bytes_s2c,
    }
}

/// The sans-IO client cache under `cache_mix`'s shape: `files` entries
/// of `data`, all under a valid lease.
pub struct ClientProbe {
    pub hit_ns: f64,
    pub miss_handle_ns: f64,
}

pub fn client_cache<D: Clone>(files: u64, data: D, ops: &[Op]) -> ClientProbe {
    let term = Dur::from_secs(600);
    let mut cache: LeaseClient<u64, D> = LeaseClient::new(ClientId(0), ClientConfig::default());
    let now = Time::from_secs(1);
    let grant_for = |req: ReqId, file: u64, version: u64| ToClient::Grants {
        req,
        grants: vec![lease_core::Grant {
            resource: file,
            version: lease_core::Version(version),
            data: Some(data.clone()),
            term,
            handle: LeaseHandle::NULL,
        }],
    };
    // Fill: one miss per file.
    for f in 0..files {
        let out = cache.handle(
            now,
            ClientInput::Op {
                op: OpId(f),
                kind: CacheOp::Read(f),
            },
        );
        let req = out
            .iter()
            .find_map(|o| match o {
                ClientOutput::Send(m) => m.req(),
                _ => None,
            })
            .expect("a cold read sends a fetch");
        cache.handle(now, ClientInput::Msg(grant_for(req, f, 1)));
    }

    let hit_ns = time_ns_per(ops.len() as u64, 1, || {
        for (i, op) in ops.iter().enumerate() {
            std::hint::black_box(cache.handle(
                now,
                ClientInput::Op {
                    op: OpId(i as u64),
                    kind: CacheOp::Read(op.file() % files),
                },
            ));
        }
    });

    // A miss as the cache sees it: an approval takes the entry away, the
    // next read builds a fetch (extending every other held lease), and
    // the grant puts it back.
    let misses = 512.min(ops.len());
    let t0 = Instant::now();
    for (i, op) in ops.iter().take(misses).enumerate() {
        let f = op.file() % files;
        cache.handle(
            now,
            ClientInput::Msg(ToClient::ApprovalRequest {
                write_id: lease_core::WriteId(i as u64),
                resource: f,
                replaces: lease_core::Version(i as u64 + 1),
            }),
        );
        let out = cache.handle(
            now,
            ClientInput::Op {
                op: OpId(i as u64),
                kind: CacheOp::Read(f),
            },
        );
        let req = out
            .iter()
            .find_map(|o| match o {
                ClientOutput::Send(m) => m.req(),
                _ => None,
            })
            .expect("a read of an invalidated entry sends a fetch");
        std::hint::black_box(cache.handle(now, ClientInput::Msg(grant_for(req, f, i as u64 + 2))));
    }
    ClientProbe {
        hit_ns,
        miss_handle_ns: t0.elapsed().as_nanos() as f64 / misses.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{op_stream, Mix};

    const MIX: Mix = Mix {
        files: 64,
        write_one_in: 8,
    };

    #[test]
    fn server_rung_answers_every_op_and_every_approval() {
        let ops = op_stream(1, 0, MIX, 2048);
        let rung = server_handle(64, Dur::from_secs(600), &ops, 2, Dur::from_micros(1));
        assert_eq!(rung.requests.len(), ops.len());
        let done = rung
            .replies
            .iter()
            .filter(|m| matches!(m, ToClient::Grants { .. } | ToClient::WriteDone { .. }))
            .count();
        assert_eq!(done, ops.len(), "every op got its reply");
        assert!(rung
            .replies
            .iter()
            .any(|m| matches!(m, ToClient::ApprovalRequest { .. })));
        assert!(rung.ns_per_op > 0.0);
    }

    #[test]
    fn codec_and_ring_probes_measure_something() {
        let ops = op_stream(2, 0, MIX, 1024);
        let rung = server_handle(64, Dur::from_secs(600), &ops, 2, Dur::from_micros(1));
        let c = codec(&rung);
        assert!(c.bytes_c2s > 16.0 && c.bytes_s2c > 16.0);
        assert!(c.ns_per_op(1.0, 1.0) > 0.0);
        assert!(ring_transfer_ns_per_msg(&rung.replies) > 0.0);
    }

    #[test]
    fn table_probe_fills_every_metric() {
        let ops = op_stream(3, 0, MIX, 1024);
        let mut out = Outcome::new("svc_depth", 3, 1.0, true);
        put_table_and_wheel(&mut out, 128, &ops);
        for name in [
            "core.table.grant_ns",
            "core.table.extend_ns",
            "core.table.release_ns",
            "core.table.prune_ns_per_expiry",
            "core.table.bytes_per_lease",
            "core.wheel.schedule_ns",
            "core.wheel.advance_ns_per_expiry",
        ] {
            assert!(out.metrics[name].median > 0.0, "{name}");
        }
    }

    #[test]
    fn client_probe_hits_and_misses() {
        let ops = op_stream(4, 0, MIX, 1024);
        let p = client_cache(64, 7u64, &ops);
        assert!(p.hit_ns > 0.0 && p.miss_handle_ns > p.hit_ns);
    }
}
