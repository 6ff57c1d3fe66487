//! Property coverage for the wire format (the fuzz family from ISSUE 10):
//!
//! 1. encode ≡ decode for every message type, in mixed batches, for both
//!    fixed (`u64`) and variable (`Bytes`) datum types;
//! 2. truncated, garbage, and oversized inputs error cleanly — never a
//!    panic, never an over-read, never an attacker-sized allocation.

use bytes::Bytes;
use lease_clock::{Dur, Time};
use lease_core::{
    ClientId, ErrorReason, Grant, LeaseHandle, ReqId, ToClient, ToServer, Version, WriteId,
};
use lease_wire::{
    decode_header, frame_len, frame_messages, Dir, FrameBuilder, WireError, WireValue, HEADER_LEN,
};
use proptest::prelude::*;

// ----------------------------------------------------------- strategies --

fn handle() -> impl Strategy<Value = LeaseHandle> {
    prop_oneof![
        Just(LeaseHandle::NULL),
        (any::<u32>(), any::<u32>()).prop_map(|(i, g)| LeaseHandle::from_raw(i, g)),
    ]
}

fn triple() -> impl Strategy<Value = (u64, Version, LeaseHandle)> {
    (any::<u64>(), any::<u64>(), handle()).prop_map(|(r, v, h)| (r, Version(v), h))
}

fn c2s() -> impl Strategy<Value = ToServer<u64, u64>> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u64>(),
            proptest::option::of(any::<u64>()),
            proptest::collection::vec(triple(), 0..5)
        )
            .prop_map(|(req, resource, cached, also_extend)| ToServer::Fetch {
                req: ReqId(req),
                resource,
                cached: cached.map(Version),
                also_extend,
            }),
        (any::<u64>(), proptest::collection::vec(triple(), 0..8)).prop_map(|(req, resources)| {
            ToServer::Renew {
                req: ReqId(req),
                resources,
            }
        }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(req, resource, data)| {
            ToServer::Write {
                req: ReqId(req),
                resource,
                data,
            }
        }),
        any::<u64>().prop_map(|w| ToServer::Approve {
            write_id: WriteId(w)
        }),
        proptest::collection::vec(any::<u64>(), 0..8)
            .prop_map(|resources| ToServer::Relinquish { resources }),
    ]
}

fn grant() -> impl Strategy<Value = Grant<u64, u64>> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::option::of(any::<u64>()),
        any::<u64>(),
        handle(),
    )
        .prop_map(|(resource, version, data, term, h)| Grant {
            resource,
            version: Version(version),
            data,
            term: Dur(term),
            handle: h,
        })
}

fn s2c() -> impl Strategy<Value = ToClient<u64, u64>> {
    prop_oneof![
        (any::<u64>(), proptest::collection::vec(grant(), 0..5)).prop_map(|(req, grants)| {
            ToClient::Grants {
                req: ReqId(req),
                grants,
            }
        }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(req, resource, version, term)| ToClient::WriteDone {
                req: ReqId(req),
                resource,
                version: Version(version),
                term: Dur(term),
            }
        ),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(w, resource, replaces)| {
            ToClient::ApprovalRequest {
                write_id: WriteId(w),
                resource,
                replaces: Version(replaces),
            }
        }),
        (
            proptest::collection::vec((any::<u64>(), any::<u64>()), 0..6),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(rs, term, sent)| ToClient::InstalledExtend {
                resources: rs.into_iter().map(|(r, v)| (r, Version(v))).collect(),
                term: Dur(term),
                sent_at: Time(sent),
            }),
        (any::<u64>(), proptest::option::of(any::<u64>())).prop_map(|(req, shed)| {
            ToClient::Error {
                req: ReqId(req),
                reason: match shed {
                    None => ErrorReason::NoSuchResource,
                    Some(d) => ErrorReason::Shed {
                        retry_after: Dur(d),
                    },
                },
            }
        }),
    ]
}

/// Deadlines cross the wire at microsecond resolution in a u32, so the
/// roundtrip-exact domain is [0, u32::MAX) whole microseconds.
fn deadline() -> impl Strategy<Value = Option<Dur>> {
    proptest::option::of((0u64..u64::from(u32::MAX - 1)).prop_map(Dur::from_micros))
}

// ------------------------------------------------------------ roundtrip --

proptest! {
    /// Every client→server batch decodes to exactly what was encoded,
    /// message for message, deadline for deadline.
    #[test]
    fn c2s_roundtrip(
        from in any::<u32>(),
        batch in proptest::collection::vec((c2s(), deadline()), 1..20),
    ) {
        let mut buf = Vec::new();
        let mut fb = FrameBuilder::begin(&mut buf, Dir::C2s, ClientId(from));
        for (m, d) in &batch {
            fb.push_c2s(&mut buf, m, *d);
        }
        fb.finish(&mut buf);

        prop_assert_eq!(frame_len(&buf).unwrap(), Some(buf.len()));
        let (h, mut it) = frame_messages(&buf).unwrap();
        prop_assert_eq!(h.dir, Dir::C2s);
        prop_assert_eq!(h.from, ClientId(from));
        prop_assert_eq!(h.count as usize, batch.len());
        let mut got = Vec::new();
        while let Some(pair) = it.next_c2s::<u64, u64>().unwrap() {
            got.push(pair);
        }
        prop_assert_eq!(got, batch);
    }

    /// Same for server→client batches.
    #[test]
    fn s2c_roundtrip(batch in proptest::collection::vec(s2c(), 1..20)) {
        let mut buf = Vec::new();
        let mut fb = FrameBuilder::begin(&mut buf, Dir::S2c, ClientId(0));
        for m in &batch {
            fb.push_s2c(&mut buf, m);
        }
        fb.finish(&mut buf);

        let (h, mut it) = frame_messages(&buf).unwrap();
        prop_assert_eq!(h.count as usize, batch.len());
        let mut got = Vec::new();
        while let Some(m) = it.next_s2c::<u64, u64>().unwrap() {
            got.push(m);
        }
        prop_assert_eq!(got, batch);
    }

    /// Variable-size data (`Bytes`) roundtrips through writes and grants.
    #[test]
    fn bytes_roundtrip(
        req in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
        gdata in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..256)),
    ) {
        let w: ToServer<u64, Bytes> = ToServer::Write {
            req: ReqId(req),
            resource: 1,
            data: Bytes::from(data),
        };
        let mut buf = Vec::new();
        let mut fb = FrameBuilder::begin(&mut buf, Dir::C2s, ClientId(1));
        fb.push_c2s(&mut buf, &w, None);
        fb.finish(&mut buf);
        let (_, mut it) = frame_messages(&buf).unwrap();
        let (got, _) = it.next_c2s::<u64, Bytes>().unwrap().unwrap();
        prop_assert_eq!(got, w);

        let g: ToClient<u64, Bytes> = ToClient::Grants {
            req: ReqId(req),
            grants: vec![Grant {
                resource: 2,
                version: Version(3),
                data: gdata.map(Bytes::from),
                term: Dur::from_secs(5),
                handle: LeaseHandle::NULL,
            }],
        };
        let mut buf = Vec::new();
        let mut fb = FrameBuilder::begin(&mut buf, Dir::S2c, ClientId(0));
        fb.push_s2c(&mut buf, &g);
        fb.finish(&mut buf);
        let (_, mut it) = frame_messages(&buf).unwrap();
        let got = it.next_s2c::<u64, Bytes>().unwrap().unwrap();
        prop_assert_eq!(got, g);
    }
}

/// One grant encoded from where a lane slot holds it
/// (`push_grants(req, slice::from_ref(g))`) is the same frame, byte for
/// byte, as the one-grant `ToClient::Grants` encoded by `push_s2c`, and
/// decodes back to that message.
fn inline_grant_frame_is_the_boxed_one<D>(req: ReqId, g: &Grant<u64, D>) -> TestCaseResult
where
    D: WireValue + Clone + PartialEq + std::fmt::Debug,
{
    let msg = ToClient::Grants {
        req,
        grants: vec![g.clone()],
    };
    let mut inline = Vec::new();
    let mut fb = FrameBuilder::begin(&mut inline, Dir::S2c, ClientId(0));
    fb.push_grants(&mut inline, req, std::slice::from_ref(g));
    fb.finish(&mut inline);
    let mut boxed = Vec::new();
    let mut fb = FrameBuilder::begin(&mut boxed, Dir::S2c, ClientId(0));
    fb.push_s2c(&mut boxed, &msg);
    fb.finish(&mut boxed);
    prop_assert_eq!(&inline, &boxed);
    let (h, mut it) = frame_messages(&inline).unwrap();
    prop_assert_eq!(h.count, 1);
    prop_assert_eq!(it.next_s2c::<u64, D>().unwrap(), Some(msg));
    prop_assert_eq!(it.next_s2c::<u64, D>().unwrap(), None);
    Ok(())
}

proptest! {
    /// `push_grants` ≡ `push_s2c` for a one-grant reply, `D = u64`, with
    /// data and without.
    #[test]
    fn push_grants_matches_push_s2c(req in any::<u64>(), g in grant()) {
        inline_grant_frame_is_the_boxed_one(ReqId(req), &g)?;
        let bare = Grant { data: None, ..g.clone() };
        inline_grant_frame_is_the_boxed_one(ReqId(req), &bare)?;
        let full = Grant { data: Some(g.data.unwrap_or(req)), ..g };
        inline_grant_frame_is_the_boxed_one(ReqId(req), &full)?;
    }

    /// The same for `D = Bytes`, with data (empty included) and without.
    #[test]
    fn push_grants_matches_push_s2c_bytes(
        req in any::<u64>(),
        g in grant(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let with = Grant {
            resource: g.resource,
            version: g.version,
            data: Some(Bytes::from(data)),
            term: g.term,
            handle: g.handle,
        };
        inline_grant_frame_is_the_boxed_one(ReqId(req), &with)?;
        let without = Grant { data: None, ..with };
        inline_grant_frame_is_the_boxed_one(ReqId(req), &without)?;
    }
}

// ------------------------------------------------- malformed-input fuzz --

/// Fully decodes whatever `buf` claims to be, in both directions and both
/// datum types, discarding results. The property under test is "no panic,
/// no over-read": every path must return a clean `Result`.
fn exhaust(buf: &[u8]) {
    let _ = frame_len(buf);
    let _ = decode_header(buf);
    if let Ok((h, mut it)) = frame_messages(buf) {
        match h.dir {
            Dir::C2s | Dir::Hello => while let Ok(Some(_)) = it.next_c2s::<u64, u64>() {},
            Dir::S2c => while let Ok(Some(_)) = it.next_s2c::<u64, u64>() {},
        }
    }
    if let Ok((h, mut it)) = frame_messages(buf) {
        match h.dir {
            Dir::C2s | Dir::Hello => while let Ok(Some(_)) = it.next_c2s::<u64, Bytes>() {},
            Dir::S2c => while let Ok(Some(_)) = it.next_s2c::<u64, Bytes>() {},
        }
    }
}

proptest! {
    /// Pure garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(buf in proptest::collection::vec(any::<u8>(), 0..512)) {
        exhaust(&buf);
    }

    /// A valid frame truncated at every possible length, with the header
    /// re-patched so the payload length matches, never panics and never
    /// decodes to more messages than survive intact.
    #[test]
    fn truncations_never_panic(
        batch in proptest::collection::vec((c2s(), deadline()), 1..10),
        cut_seed in any::<u64>(),
    ) {
        let mut buf = Vec::new();
        let mut fb = FrameBuilder::begin(&mut buf, Dir::C2s, ClientId(9));
        for (m, d) in &batch {
            fb.push_c2s(&mut buf, m, *d);
        }
        fb.finish(&mut buf);

        // Raw truncation (header claims more payload than present).
        let cut = (cut_seed as usize) % buf.len();
        exhaust(&buf[..cut]);

        // Patched truncation (header consistent with the shorter buffer,
        // so the damage is inside the message stream).
        if cut >= HEADER_LEN {
            let mut short = buf[..cut].to_vec();
            let payload = (cut - HEADER_LEN) as u32;
            short[8..12].copy_from_slice(&payload.to_le_bytes());
            exhaust(&short);
        }
    }

    /// A valid frame with random single-byte corruption never panics.
    #[test]
    fn bitflips_never_panic(
        batch in proptest::collection::vec(s2c(), 1..10),
        pos_seed in any::<u64>(),
        xor in 1u8..255,
    ) {
        let mut buf = Vec::new();
        let mut fb = FrameBuilder::begin(&mut buf, Dir::S2c, ClientId(0));
        for m in &batch {
            fb.push_s2c(&mut buf, m);
        }
        fb.finish(&mut buf);
        let pos = (pos_seed as usize) % buf.len();
        buf[pos] ^= xor;
        exhaust(&buf);
    }
}

// --------------------------------------------------- targeted refusals --

#[test]
fn oversized_header_is_refused_without_allocating() {
    let mut buf = vec![0u8; HEADER_LEN];
    buf[..4].copy_from_slice(b"LEAS");
    buf[4] = lease_wire::VERSION;
    buf[5] = 0;
    buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(frame_len(&buf), Err(WireError::Oversized(u32::MAX)));
    assert_eq!(decode_header(&buf), Err(WireError::Oversized(u32::MAX)));
}

#[test]
fn adversarial_inner_counts_are_bounded_by_payload() {
    // A Renew claiming 2^32-1 entries inside a tiny payload must refuse
    // with Truncated after at most payload-many bytes of work — the
    // decoder sizes nothing from the count alone.
    let mut buf = Vec::new();
    let mut fb = FrameBuilder::begin(&mut buf, Dir::C2s, ClientId(0));
    fb.push_c2s::<u64, u64>(
        &mut buf,
        &ToServer::Renew {
            req: ReqId(1),
            resources: Vec::new(),
        },
        None,
    );
    fb.finish(&mut buf);
    let off = HEADER_LEN + 1 + 4 + 8; // tag, deadline, req
    buf[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let (_, mut it) = frame_messages(&buf).unwrap();
    assert_eq!(it.next_c2s::<u64, u64>().unwrap_err(), WireError::Truncated);
}

#[test]
fn bytes_length_prefix_is_bounded_by_payload() {
    // A Bytes datum claiming 2^32-1 length inside a short payload.
    let w: ToServer<u64, Bytes> = ToServer::Write {
        req: ReqId(1),
        resource: 2,
        data: Bytes::from(&b"xy"[..]),
    };
    let mut buf = Vec::new();
    let mut fb = FrameBuilder::begin(&mut buf, Dir::C2s, ClientId(0));
    fb.push_c2s(&mut buf, &w, None);
    fb.finish(&mut buf);
    let off = HEADER_LEN + 1 + 4 + 8 + 8; // tag, deadline, req, resource
    buf[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let (_, mut it) = frame_messages(&buf).unwrap();
    assert_eq!(
        it.next_c2s::<u64, Bytes>().unwrap_err(),
        WireError::Truncated
    );
}
