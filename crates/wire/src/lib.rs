#![warn(missing_docs)]

//! The lease protocol's wire format: compact little-endian binary frames.
//!
//! Everything in-process rides typed channels and SPSC rings; this crate
//! is the process boundary. A **frame** is a fixed 16-byte header followed
//! by a batch of N messages, so one socket write (and one read) carries a
//! whole `BatchBuf`-worth of requests or a whole egress-flush-worth of
//! replies — wire syscalls track the measured wakes/op of the ring paths,
//! not the message count.
//!
//! Design rules:
//!
//! * **Fixed little-endian headers, no varints.** Every integer is a
//!   plain LE `u8`/`u16`/`u32`/`u64` at a statically known offset from
//!   the start of its message, so decoding is bounds-checked slicing —
//!   no bit fiddling, no allocation, no copy of payload integers.
//! * **Zero-copy decode.** [`Messages`] iterates a frame *in place* over
//!   the receive buffer. Decoding a `Fetch`/`Write`/`Approve` with a
//!   fixed-size datum (`D = u64`) performs **zero** heap allocations;
//!   variable parts (`also_extend`, grant lists, `Bytes` data) allocate
//!   only when actually present.
//! * **Durations, never remote timestamps.** Deadlines cross the wire as
//!   *remaining microseconds at send time* (the T-Lease rule: a remote
//!   absolute clock reading is meaningless here). The receiver anchors
//!   the remainder to its own clock. Lease terms are already durations
//!   and cross as-is. The one exception is
//!   [`ToClient::InstalledExtend`]'s `sent_at`, whose semantics (§4
//!   multicast, clocks synchronized within ε) inherently require a
//!   shared clock; it round-trips verbatim and the TCP transport simply
//!   never sends it.
//! * **Versioned and refusal-friendly.** Byte 4 of every frame is a
//!   format version; decoders refuse unknown versions, directions, tags,
//!   truncated frames and oversized frames with a typed [`WireError`] —
//!   never a panic, never an over-read (pinned by fuzz/property tests).
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"LEAS"
//!      4     1  format version (currently 1)
//!      5     1  direction: 0 = client→server, 1 = server→client, 2 = hello
//!      6     2  message count (u16 LE)
//!      8     4  payload length in bytes (u32 LE, excludes this header)
//!     12     4  sender ClientId (u32 LE; 0 for server→client frames)
//! ```
//!
//! A **hello** frame (direction 2, count 0, empty payload) opens every
//! client connection and names the client; the server routes replies by
//! it. See `DESIGN.md` §2f for the per-message layouts.

use bytes::Bytes;
use lease_clock::Dur;
use lease_core::{
    ClientId, ErrorReason, Grant, LeaseHandle, ReqId, ToClient, ToServer, Version, WriteId,
};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"LEAS";

/// The wire-format version this crate encodes (header byte 4).
pub const VERSION: u8 = 1;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 16;

/// Upper bound on a frame's payload; larger frames are refused at the
/// header ([`WireError::Oversized`]) before any buffer is sized by
/// attacker-controlled input.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 24;

/// Wire encoding of "no deadline" in the 4-byte remaining-micros field.
const NO_DEADLINE: u32 = u32::MAX;

/// A frame's direction (header byte 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Client → server: a batch of [`ToServer`] messages.
    C2s,
    /// Server → client: a batch of [`ToClient`] messages.
    S2c,
    /// Connection opener: names the sending client, carries no messages.
    Hello,
}

impl Dir {
    fn to_byte(self) -> u8 {
        match self {
            Dir::C2s => 0,
            Dir::S2c => 1,
            Dir::Hello => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Dir, WireError> {
        match b {
            0 => Ok(Dir::C2s),
            1 => Ok(Dir::S2c),
            2 => Ok(Dir::Hello),
            other => Err(WireError::BadDir(other)),
        }
    }
}

/// Why a buffer failed to decode. Every variant is a clean refusal: the
/// decoder never panics and never reads past the slice it was given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended inside a header, message, or field.
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The frame's format version is not [`VERSION`].
    BadVersion(u8),
    /// The direction byte names no known direction.
    BadDir(u8),
    /// A message tag byte names no message in this direction.
    BadTag(u8),
    /// The header declares a payload larger than [`MAX_FRAME_PAYLOAD`].
    Oversized(u32),
    /// The payload holds bytes beyond the last declared message.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unknown wire version {v}"),
            WireError::BadDir(d) => write!(f, "unknown frame direction {d}"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Oversized(n) => write!(f, "frame payload {n} bytes exceeds limit"),
            WireError::TrailingBytes => write!(f, "trailing bytes after last message"),
        }
    }
}

impl std::error::Error for WireError {}

/// A value that can ride the wire as a resource key or datum.
///
/// Implemented for `u64` (fixed 8 bytes, the benchmarks' resource and
/// datum type — decodes with zero allocations) and [`Bytes`]
/// (length-prefixed; decode copies into a fresh `Bytes`, the real-time
/// runtime's cold-path datum).
pub trait WireValue: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value, advancing the reader.
    fn decode(rd: &mut Reader<'_>) -> Result<Self, WireError>;
}

impl WireValue for u64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn decode(rd: &mut Reader<'_>) -> Result<u64, WireError> {
        rd.u64()
    }
}

impl WireValue for Bytes {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(self);
    }

    fn decode(rd: &mut Reader<'_>) -> Result<Bytes, WireError> {
        let n = rd.u32()? as usize;
        let raw = rd.take(n)?;
        Ok(Bytes::copy_from_slice(raw))
    }
}

/// A bounds-checked cursor over a received byte slice. All accessors
/// return [`WireError::Truncated`] instead of reading past the end.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes as a slice of the underlying buffer
    /// (the zero-copy primitive every accessor builds on).
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Next LE u16.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Next LE u32.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Next LE u64.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// An in-progress frame inside a caller-owned output buffer.
///
/// [`FrameBuilder::begin`] reserves the header, `push_*` appends
/// messages, and [`FrameBuilder::finish`] patches the count and payload
/// length. The buffer is never shrunk or copied, so a steady-state
/// sender reuses one `Vec<u8>` indefinitely (encode is allocation-free
/// once the buffer reaches its high-water mark).
pub struct FrameBuilder {
    start: usize,
    count: u16,
    dir: Dir,
}

impl FrameBuilder {
    /// Reserves a header for a frame of direction `dir` from `from` at
    /// the current end of `out`.
    pub fn begin(out: &mut Vec<u8>, dir: Dir, from: ClientId) -> FrameBuilder {
        let start = out.len();
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(dir.to_byte());
        out.extend_from_slice(&0u16.to_le_bytes()); // count, patched later
        out.extend_from_slice(&0u32.to_le_bytes()); // payload len, patched later
        out.extend_from_slice(&from.0.to_le_bytes());
        FrameBuilder {
            start,
            count: 0,
            dir,
        }
    }

    /// Messages pushed so far. A frame holds at most `u16::MAX`; callers
    /// batching more must finish the frame and begin another.
    pub fn count(&self) -> u16 {
        self.count
    }

    /// Appends one client→server message. `deadline_remaining` is the
    /// originating op's time-to-live *as of this send* (the receiver
    /// re-anchors it to its own clock); `None` means no deadline.
    pub fn push_c2s<R: WireValue, D: WireValue>(
        &mut self,
        out: &mut Vec<u8>,
        msg: &ToServer<R, D>,
        deadline_remaining: Option<Dur>,
    ) {
        debug_assert_eq!(self.dir, Dir::C2s, "c2s message in a {:?} frame", self.dir);
        let rem = match deadline_remaining {
            None => NO_DEADLINE,
            Some(d) => {
                let us = d.as_nanos() / 1_000;
                u32::try_from(us)
                    .unwrap_or(NO_DEADLINE - 1)
                    .min(NO_DEADLINE - 1)
            }
        };
        match msg {
            ToServer::Fetch {
                req,
                resource,
                cached,
                also_extend,
            } => {
                out.push(0);
                out.extend_from_slice(&rem.to_le_bytes());
                out.extend_from_slice(&req.0.to_le_bytes());
                resource.encode(out);
                match cached {
                    None => out.push(0),
                    Some(v) => {
                        out.push(1);
                        out.extend_from_slice(&v.0.to_le_bytes());
                    }
                }
                out.extend_from_slice(&(also_extend.len() as u32).to_le_bytes());
                for (r, v, h) in also_extend {
                    r.encode(out);
                    out.extend_from_slice(&v.0.to_le_bytes());
                    encode_handle(out, *h);
                }
            }
            ToServer::Renew { req, resources } => {
                out.push(1);
                out.extend_from_slice(&rem.to_le_bytes());
                out.extend_from_slice(&req.0.to_le_bytes());
                out.extend_from_slice(&(resources.len() as u32).to_le_bytes());
                for (r, v, h) in resources {
                    r.encode(out);
                    out.extend_from_slice(&v.0.to_le_bytes());
                    encode_handle(out, *h);
                }
            }
            ToServer::Write {
                req,
                resource,
                data,
            } => {
                out.push(2);
                out.extend_from_slice(&rem.to_le_bytes());
                out.extend_from_slice(&req.0.to_le_bytes());
                resource.encode(out);
                data.encode(out);
            }
            ToServer::Approve { write_id } => {
                out.push(3);
                out.extend_from_slice(&rem.to_le_bytes());
                out.extend_from_slice(&write_id.0.to_le_bytes());
            }
            ToServer::Relinquish { resources } => {
                out.push(4);
                out.extend_from_slice(&rem.to_le_bytes());
                out.extend_from_slice(&(resources.len() as u32).to_le_bytes());
                for r in resources {
                    r.encode(out);
                }
            }
        }
        self.count += 1;
    }

    /// Appends one server→client message.
    pub fn push_s2c<R: WireValue, D: WireValue>(
        &mut self,
        out: &mut Vec<u8>,
        msg: &ToClient<R, D>,
    ) {
        debug_assert_eq!(self.dir, Dir::S2c, "s2c message in a {:?} frame", self.dir);
        match msg {
            ToClient::Grants { req, grants } => return self.push_grants(out, *req, grants),
            ToClient::WriteDone {
                req,
                resource,
                version,
                term,
            } => {
                out.push(1);
                out.extend_from_slice(&req.0.to_le_bytes());
                resource.encode(out);
                out.extend_from_slice(&version.0.to_le_bytes());
                out.extend_from_slice(&term.as_nanos().to_le_bytes());
            }
            ToClient::ApprovalRequest {
                write_id,
                resource,
                replaces,
            } => {
                out.push(2);
                out.extend_from_slice(&write_id.0.to_le_bytes());
                resource.encode(out);
                out.extend_from_slice(&replaces.0.to_le_bytes());
            }
            ToClient::InstalledExtend {
                resources,
                term,
                sent_at,
            } => {
                out.push(3);
                out.extend_from_slice(&(resources.len() as u32).to_le_bytes());
                for (r, v) in resources {
                    r.encode(out);
                    out.extend_from_slice(&v.0.to_le_bytes());
                }
                out.extend_from_slice(&term.as_nanos().to_le_bytes());
                out.extend_from_slice(&sent_at.as_nanos().to_le_bytes());
            }
            ToClient::Error { req, reason } => {
                out.push(4);
                out.extend_from_slice(&req.0.to_le_bytes());
                match reason {
                    ErrorReason::NoSuchResource => out.push(0),
                    ErrorReason::Shed { retry_after } => {
                        out.push(1);
                        out.extend_from_slice(&retry_after.as_nanos().to_le_bytes());
                    }
                }
            }
        }
        self.count += 1;
    }

    /// Appends one [`ToClient::Grants`] reply to `req` from its grants
    /// wherever they are held — the bytes [`FrameBuilder::push_s2c`]
    /// writes for `Grants { req, grants: grants.to_vec() }`, without the
    /// `Vec` (a socket writer encodes a lane slot's one inline grant with
    /// `std::slice::from_ref`).
    pub fn push_grants<R: WireValue, D: WireValue>(
        &mut self,
        out: &mut Vec<u8>,
        req: ReqId,
        grants: &[Grant<R, D>],
    ) {
        debug_assert_eq!(self.dir, Dir::S2c, "s2c message in a {:?} frame", self.dir);
        out.push(0);
        out.extend_from_slice(&req.0.to_le_bytes());
        out.extend_from_slice(&(grants.len() as u32).to_le_bytes());
        for g in grants {
            g.resource.encode(out);
            out.extend_from_slice(&g.version.0.to_le_bytes());
            match &g.data {
                None => out.push(0),
                Some(d) => {
                    out.push(1);
                    d.encode(out);
                }
            }
            out.extend_from_slice(&g.term.as_nanos().to_le_bytes());
            encode_handle(out, g.handle);
        }
        self.count += 1;
    }

    /// Patches the header's count and payload length. Call exactly once,
    /// after the last message.
    pub fn finish(self, out: &mut [u8]) {
        let payload = out.len() - self.start - HEADER_LEN;
        debug_assert!(
            payload <= MAX_FRAME_PAYLOAD,
            "frame payload {payload} too large"
        );
        out[self.start + 6..self.start + 8].copy_from_slice(&self.count.to_le_bytes());
        out[self.start + 8..self.start + 12].copy_from_slice(&(payload as u32).to_le_bytes());
    }
}

/// Appends a complete hello frame naming `from` (a connection's first
/// frame).
pub fn hello_frame(out: &mut Vec<u8>, from: ClientId) {
    FrameBuilder::begin(out, Dir::Hello, from).finish(out);
}

fn encode_handle(out: &mut Vec<u8>, h: LeaseHandle) {
    let (idx, gen) = h.to_raw();
    out.extend_from_slice(&idx.to_le_bytes());
    out.extend_from_slice(&gen.to_le_bytes());
}

fn decode_handle(rd: &mut Reader<'_>) -> Result<LeaseHandle, WireError> {
    let idx = rd.u32()?;
    let gen = rd.u32()?;
    Ok(LeaseHandle::from_raw(idx, gen))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The frame's direction.
    pub dir: Dir,
    /// How many messages the payload holds.
    pub count: u16,
    /// Payload length in bytes (the frame is `HEADER_LEN + payload_len`
    /// bytes total).
    pub payload_len: usize,
    /// The sending client (meaningful for [`Dir::C2s`] and
    /// [`Dir::Hello`]).
    pub from: ClientId,
}

/// Parses and validates the 16-byte header at the start of `buf`.
pub fn decode_header(buf: &[u8]) -> Result<FrameHeader, WireError> {
    let mut rd = Reader::new(buf);
    let magic = rd.take(4)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = rd.u8()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let dir = Dir::from_byte(rd.u8()?)?;
    let count = rd.u16()?;
    let payload_len = rd.u32()?;
    if payload_len as usize > MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversized(payload_len));
    }
    let from = ClientId(rd.u32()?);
    Ok(FrameHeader {
        dir,
        count,
        payload_len: payload_len as usize,
        from,
    })
}

/// Streaming helper: how many bytes the frame starting at `buf[0]`
/// occupies in total, `Ok(None)` while fewer than [`HEADER_LEN`] bytes
/// have arrived. Errors are permanent (corrupt stream).
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let h = decode_header(buf)?;
    Ok(Some(HEADER_LEN + h.payload_len))
}

/// A decoded client→server message paired with the remaining
/// time-to-live its deadline crossed the wire with (`None` = no
/// deadline). The receiver re-anchors the remainder on its own clock.
pub type DecodedC2s<R, D> = (ToServer<R, D>, Option<Dur>);

/// An in-place iterator over one frame's messages. Created by
/// [`frame_messages`]; call the `next_*` matching the frame's direction
/// until it yields `Ok(None)` (which also verifies the payload was
/// consumed exactly).
pub struct Messages<'a> {
    rd: Reader<'a>,
    left: u16,
}

impl<'a> Messages<'a> {
    fn done(&mut self) -> Result<(), WireError> {
        if self.rd.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(())
    }

    /// Decodes the next client→server message and the remaining
    /// time-to-live its deadline crossed the wire with.
    pub fn next_c2s<R: WireValue, D: WireValue>(
        &mut self,
    ) -> Result<Option<DecodedC2s<R, D>>, WireError> {
        if self.left == 0 {
            self.done()?;
            return Ok(None);
        }
        self.left -= 1;
        let rd = &mut self.rd;
        let tag = rd.u8()?;
        let rem = rd.u32()?;
        let deadline = (rem != NO_DEADLINE).then(|| Dur::from_micros(u64::from(rem)));
        let msg = match tag {
            0 => {
                let req = ReqId(rd.u64()?);
                let resource = R::decode(rd)?;
                let cached = match rd.u8()? {
                    0 => None,
                    _ => Some(Version(rd.u64()?)),
                };
                let n = rd.u32()?;
                let mut also_extend = Vec::new();
                for _ in 0..n {
                    let r = R::decode(rd)?;
                    let v = Version(rd.u64()?);
                    let h = decode_handle(rd)?;
                    also_extend.push((r, v, h));
                }
                ToServer::Fetch {
                    req,
                    resource,
                    cached,
                    also_extend,
                }
            }
            1 => {
                let req = ReqId(rd.u64()?);
                let n = rd.u32()?;
                let mut resources = Vec::new();
                for _ in 0..n {
                    let r = R::decode(rd)?;
                    let v = Version(rd.u64()?);
                    let h = decode_handle(rd)?;
                    resources.push((r, v, h));
                }
                ToServer::Renew { req, resources }
            }
            2 => ToServer::Write {
                req: ReqId(rd.u64()?),
                resource: R::decode(rd)?,
                data: D::decode(rd)?,
            },
            3 => ToServer::Approve {
                write_id: WriteId(rd.u64()?),
            },
            4 => {
                let n = rd.u32()?;
                let mut resources = Vec::new();
                for _ in 0..n {
                    resources.push(R::decode(rd)?);
                }
                ToServer::Relinquish { resources }
            }
            other => return Err(WireError::BadTag(other)),
        };
        Ok(Some((msg, deadline)))
    }

    /// Decodes the next server→client message.
    pub fn next_s2c<R: WireValue, D: WireValue>(
        &mut self,
    ) -> Result<Option<ToClient<R, D>>, WireError> {
        if self.left == 0 {
            self.done()?;
            return Ok(None);
        }
        self.left -= 1;
        let rd = &mut self.rd;
        let msg = match rd.u8()? {
            0 => {
                let req = ReqId(rd.u64()?);
                let n = rd.u32()?;
                let mut grants = Vec::new();
                for _ in 0..n {
                    let resource = R::decode(rd)?;
                    let version = Version(rd.u64()?);
                    let data = match rd.u8()? {
                        0 => None,
                        _ => Some(D::decode(rd)?),
                    };
                    let term = Dur(rd.u64()?);
                    let handle = decode_handle(rd)?;
                    grants.push(Grant {
                        resource,
                        version,
                        data,
                        term,
                        handle,
                    });
                }
                ToClient::Grants { req, grants }
            }
            1 => ToClient::WriteDone {
                req: ReqId(rd.u64()?),
                resource: R::decode(rd)?,
                version: Version(rd.u64()?),
                term: Dur(rd.u64()?),
            },
            2 => ToClient::ApprovalRequest {
                write_id: WriteId(rd.u64()?),
                resource: R::decode(rd)?,
                replaces: Version(rd.u64()?),
            },
            3 => {
                let n = rd.u32()?;
                let mut resources = Vec::new();
                for _ in 0..n {
                    let r = R::decode(rd)?;
                    let v = Version(rd.u64()?);
                    resources.push((r, v));
                }
                let term = Dur(rd.u64()?);
                let sent_at = lease_clock::Time(rd.u64()?);
                ToClient::InstalledExtend {
                    resources,
                    term,
                    sent_at,
                }
            }
            4 => {
                let req = ReqId(rd.u64()?);
                let reason = match rd.u8()? {
                    0 => ErrorReason::NoSuchResource,
                    _ => ErrorReason::Shed {
                        retry_after: Dur(rd.u64()?),
                    },
                };
                ToClient::Error { req, reason }
            }
            other => return Err(WireError::BadTag(other)),
        };
        Ok(Some(msg))
    }
}

/// Validates the header of the complete frame in `frame`
/// (`HEADER_LEN + payload_len` bytes, as sized by [`frame_len`]) and
/// returns it with an in-place message iterator over the payload.
pub fn frame_messages(frame: &[u8]) -> Result<(FrameHeader, Messages<'_>), WireError> {
    let h = decode_header(frame)?;
    let end = HEADER_LEN
        .checked_add(h.payload_len)
        .ok_or(WireError::Truncated)?;
    if frame.len() < end {
        return Err(WireError::Truncated);
    }
    if frame.len() > end {
        return Err(WireError::TrailingBytes);
    }
    Ok((
        h,
        Messages {
            rd: Reader::new(&frame[HEADER_LEN..end]),
            left: h.count,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_c2s(msg: &ToServer<u64, u64>, deadline: Option<Dur>) -> Vec<u8> {
        let mut out = Vec::new();
        let mut fb = FrameBuilder::begin(&mut out, Dir::C2s, ClientId(7));
        fb.push_c2s(&mut out, msg, deadline);
        fb.finish(&mut out);
        out
    }

    #[test]
    fn fetch_roundtrip_with_deadline() {
        let msg = ToServer::Fetch {
            req: ReqId(42),
            resource: 9u64,
            cached: Some(Version(3)),
            also_extend: vec![(1, Version(2), LeaseHandle::NULL)],
        };
        let buf = one_c2s(&msg, Some(Dur::from_micros(1500)));
        assert_eq!(frame_len(&buf).unwrap(), Some(buf.len()));
        let (h, mut it) = frame_messages(&buf).unwrap();
        assert_eq!(h.dir, Dir::C2s);
        assert_eq!(h.from, ClientId(7));
        assert_eq!(h.count, 1);
        let (got, rem) = it.next_c2s::<u64, u64>().unwrap().unwrap();
        assert_eq!(got, msg);
        assert_eq!(rem, Some(Dur::from_micros(1500)));
        assert!(it.next_c2s::<u64, u64>().unwrap().is_none());
    }

    #[test]
    fn hello_roundtrip() {
        let mut buf = Vec::new();
        hello_frame(&mut buf, ClientId(3));
        let (h, mut it) = frame_messages(&buf).unwrap();
        assert_eq!(h.dir, Dir::Hello);
        assert_eq!(h.from, ClientId(3));
        assert_eq!(h.count, 0);
        assert!(it.next_c2s::<u64, u64>().unwrap().is_none());
    }

    #[test]
    fn s2c_batch_roundtrip() {
        let msgs: Vec<ToClient<u64, u64>> = vec![
            ToClient::Grants {
                req: ReqId(1),
                grants: vec![Grant {
                    resource: 5,
                    version: Version(2),
                    data: Some(99),
                    term: Dur::from_secs(5),
                    handle: LeaseHandle::from_raw(3, 9),
                }],
            },
            ToClient::Error {
                req: ReqId(2),
                reason: ErrorReason::Shed {
                    retry_after: Dur::from_millis(2),
                },
            },
        ];
        let mut buf = Vec::new();
        let mut fb = FrameBuilder::begin(&mut buf, Dir::S2c, ClientId(0));
        for m in &msgs {
            fb.push_s2c(&mut buf, m);
        }
        fb.finish(&mut buf);
        let (h, mut it) = frame_messages(&buf).unwrap();
        assert_eq!(h.count, 2);
        let mut got = Vec::new();
        while let Some(m) = it.next_s2c::<u64, u64>().unwrap() {
            got.push(m);
        }
        assert_eq!(got, msgs);
    }

    #[test]
    fn bytes_datum_roundtrip() {
        let msg: ToServer<u64, Bytes> = ToServer::Write {
            req: ReqId(8),
            resource: 1,
            data: Bytes::copy_from_slice(b"hello leases"),
        };
        let mut out = Vec::new();
        let mut fb = FrameBuilder::begin(&mut out, Dir::C2s, ClientId(0));
        fb.push_c2s(&mut out, &msg, None);
        fb.finish(&mut out);
        let (_, mut it) = frame_messages(&out).unwrap();
        let (got, rem) = it.next_c2s::<u64, Bytes>().unwrap().unwrap();
        assert_eq!(got, msg);
        assert_eq!(rem, None);
    }

    #[test]
    fn header_refusals() {
        let mut buf = one_c2s(
            &ToServer::Approve {
                write_id: WriteId(1),
            },
            None,
        );
        assert_eq!(frame_len(&buf[..4]).unwrap(), None, "short header: wait");
        buf[0] = b'X';
        assert_eq!(decode_header(&buf), Err(WireError::BadMagic));
        buf[0] = b'L';
        buf[4] = 99;
        assert_eq!(decode_header(&buf), Err(WireError::BadVersion(99)));
        buf[4] = VERSION;
        buf[5] = 7;
        assert_eq!(decode_header(&buf), Err(WireError::BadDir(7)));
        buf[5] = 0;
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_header(&buf), Err(WireError::Oversized(u32::MAX)));
    }

    #[test]
    fn truncation_and_trailing_refused() {
        let buf = one_c2s(
            &ToServer::Fetch {
                req: ReqId(1),
                resource: 2u64,
                cached: None,
                also_extend: Vec::new(),
            },
            None,
        );
        // Whole-frame truncation at every prefix length.
        for cut in HEADER_LEN..buf.len() {
            let mut short = buf[..cut].to_vec();
            // Patch the payload length down so the header itself parses.
            let payload = (cut - HEADER_LEN) as u32;
            short[8..12].copy_from_slice(&payload.to_le_bytes());
            let (_, mut it) = frame_messages(&short).unwrap();
            assert!(
                it.next_c2s::<u64, u64>().is_err(),
                "cut at {cut} must refuse, not panic"
            );
        }
        // Trailing garbage after the last message.
        let mut long = buf.clone();
        long.push(0xAB);
        let padded = (long.len() - HEADER_LEN) as u32;
        long[8..12].copy_from_slice(&padded.to_le_bytes());
        let (_, mut it) = frame_messages(&long).unwrap();
        let first = it.next_c2s::<u64, u64>().unwrap();
        assert!(first.is_some());
        assert_eq!(
            it.next_c2s::<u64, u64>().unwrap_err(),
            WireError::TrailingBytes
        );
    }

    #[test]
    fn adversarial_count_does_not_preallocate() {
        // A Relinquish claiming u32::MAX resources in a 5-byte payload
        // must fail with Truncated (bounds checks fire long before any
        // giant buffer could be built).
        let mut buf = Vec::new();
        let mut fb = FrameBuilder::begin(&mut buf, Dir::C2s, ClientId(0));
        fb.push_c2s::<u64, u64>(
            &mut buf,
            &ToServer::Relinquish {
                resources: Vec::new(),
            },
            None,
        );
        fb.finish(&mut buf);
        // Patch the inner count to u32::MAX (offset: header + tag + rem).
        let off = HEADER_LEN + 1 + 4;
        buf[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (_, mut it) = frame_messages(&buf).unwrap();
        assert_eq!(it.next_c2s::<u64, u64>().unwrap_err(), WireError::Truncated);
    }
}
