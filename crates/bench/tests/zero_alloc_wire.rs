//! Acceptance check for the wire codec's receive path: zero heap
//! allocations on the decode → stage → publish round trip once the
//! buffers are warm.
//!
//! This is the tentpole claim of the socket transport: a frame that
//! arrives in a reused receive buffer is decoded **in place**
//! (`frame_messages` borrows the buffer; `next_c2s` slices it), each
//! message's deadline is re-anchored on the local clock (the T-Lease
//! rule: the wire carries remaining durations, never remote absolute
//! times), the burst is staged into a reused buffer, and published into
//! the same SPSC ring the in-process path uses. After warm-up, a full
//! round performs **zero** heap allocations — the socket boundary adds
//! syscalls, not allocator traffic.
//!
//! Only built with `--features alloc-count` (which swaps in the counting
//! global allocator); run it as
//!
//! ```text
//! cargo test -p lease-bench --features alloc-count --test zero_alloc_wire
//! ```
//!
//! The test lives alone in this file on purpose: integration tests in
//! one file share a process, and a concurrently running test allocating
//! on another thread would charge its allocations to our window. For the
//! same reason decode and drain run on this one thread.

#![cfg(feature = "alloc-count")]

use lease_bench::allocations;
use lease_clock::{Clock, Dur, Time, WallClock};
use lease_core::ring::{spsc, Consumer, Doorbell, Producer};
use lease_core::{ClientId, ReqId, ToServer, Version};
use lease_wire::{frame_messages, Dir, FrameBuilder};

const BURST: usize = 256;
const CAPACITY: usize = 1024;

type Msg = ToServer<u64, u64>;
/// What the transport stages per message: sender, message, re-anchored
/// deadline — the same triple `BatchBuf::push_deadline` carries.
type Staged = (ClientId, Msg, Option<Time>);

/// Encode one C2S frame the way a generator would: a burst of fetches
/// and writes, most carrying a propagated deadline.
fn encode_frame() -> Vec<u8> {
    let mut wire = Vec::new();
    let mut fb = FrameBuilder::begin(&mut wire, Dir::C2s, ClientId(7));
    for i in 0..BURST as u64 {
        let deadline = if i % 4 == 0 {
            None
        } else {
            Some(Dur::from_millis(250 + i))
        };
        if i % 8 == 0 {
            fb.push_c2s(
                &mut wire,
                &Msg::Write {
                    req: ReqId(i),
                    resource: i % 32,
                    data: i,
                },
                deadline,
            );
        } else {
            fb.push_c2s(
                &mut wire,
                &Msg::Fetch {
                    req: ReqId(i),
                    resource: i % 32,
                    cached: Some(Version(1)),
                    also_extend: Vec::new(),
                },
                deadline,
            );
        }
    }
    fb.finish(&mut wire);
    wire
}

/// One steady-state round: decode the frame in place, re-anchor every
/// deadline on the local clock, stage the burst, publish it through the
/// ring with `push_from`, ring the doorbell, and drain it back. Returns
/// the heap allocations the round performed.
fn round(
    frame: &[u8],
    clock: &WallClock,
    tx: &mut Producer<Staged>,
    rx: &mut Consumer<Staged>,
    bell: &Doorbell,
    stage: &mut Vec<Staged>,
    batch: &mut Vec<Staged>,
) -> u64 {
    let before = allocations().expect("alloc-count feature is on");
    let (h, mut it) = frame_messages(frame).expect("well-formed frame");
    assert_eq!(h.dir, Dir::C2s);
    let now = clock.now();
    stage.clear();
    while let Some((msg, remaining)) = it.next_c2s::<u64, u64>().expect("decode") {
        let deadline = remaining.map(|rem| now.saturating_add(rem));
        stage.push((h.from, msg, deadline));
    }
    // The consumer's park path, in a worker's order: ticket first, then
    // the publish lands, then the final poll — so the wait below sees the
    // count moved and skips the sleep. (A real worker parks only when the
    // poll finds nothing.)
    let ticket = bell.ticket();
    let mut sent = 0usize;
    while !stage.is_empty() {
        let pushed = tx.push_from(stage);
        assert!(pushed > 0, "ring full with an empty consumer side");
        sent += pushed;
        bell.ring();
    }
    batch.clear();
    let mut got = 0usize;
    while got < sent {
        got += rx.drain_into(batch, BURST);
    }
    assert!(
        bell.wait(ticket, std::time::Duration::ZERO),
        "wait() must return without parking once the seq advanced"
    );
    assert_eq!(got, BURST);
    allocations().expect("alloc-count feature is on") - before
}

#[test]
fn steady_state_decode_stage_publish_is_allocation_free() {
    let frame = encode_frame();
    let clock = WallClock::new();
    let (mut tx, mut rx) = spsc::<Staged>(CAPACITY);
    let bell = Doorbell::new();
    let mut stage: Vec<Staged> = Vec::new();
    let mut batch: Vec<Staged> = Vec::new();

    // Warm-up rounds grow the stage and drain buffers to their
    // high-water marks (the ring preallocates every slot up front; the
    // decode itself borrows the frame and owns nothing).
    let mut per_round = Vec::new();
    for _ in 0..16 {
        per_round.push(round(
            &frame, &clock, &mut tx, &mut rx, &bell, &mut stage, &mut batch,
        ));
    }
    // ...after which the hot loop must not touch the allocator at all.
    let tail = &per_round[per_round.len() - 8..];
    assert!(
        tail.iter().all(|&a| a == 0),
        "steady-state decode rounds still allocate: {per_round:?}"
    );

    // The staged deadlines really were re-anchored: every deadline the
    // wire carried as "remaining" is now an absolute local time at or
    // after `now`.
    let (_, mut it) = frame_messages(&frame).expect("frame");
    let mut wire_deadlines = 0usize;
    while let Some((_, rem)) = it.next_c2s::<u64, u64>().expect("decode") {
        wire_deadlines += usize::from(rem.is_some());
    }
    let staged_deadlines = batch.iter().filter(|(_, _, d)| d.is_some()).count();
    assert_eq!(staged_deadlines, wire_deadlines);
    assert!(rx.is_empty() && tx.is_empty());
}
