//! Real sockets: the TCP transport that carries `lease-wire` frames
//! between processes.
//!
//! [`NetServer`] is the server half. It bridges a socket's byte stream
//! onto the in-process fast paths **without adding a queue of its own**:
//!
//! * **Ingress** — each connection's reader thread accumulates bytes in
//!   one reusable buffer, decodes complete frames *in place*
//!   (`lease_wire::frame_messages` slices, it does not copy), stages the
//!   messages into a [`BatchBuf`] and publishes them with
//!   `SvcHandle::try_send_batch_at` — the same shard-affine,
//!   one-Release-store-per-shard ring ingress the in-process benchmarks
//!   use. Zero allocations per message in steady state for fixed-size
//!   datum types (pinned by `zero_alloc_wire`). Backpressure from a full
//!   shard lane stops the reader *before* it reads more bytes, so TCP's
//!   own flow control propagates the stall back to the client.
//! * **Deadlines** — frames carry each op's *remaining* time-to-live
//!   (never a remote clock reading); the reader re-anchors it on the
//!   server's clock at decode time. Already-dead ops are dropped at the
//!   door (`expired_at_door`), in-flight expiry is dropped by the owning
//!   shard into `expired_drops` — exactly the in-process contract.
//! * **Egress** — one *perpetual* writer thread per client id owns that
//!   client's [`EgressRx`] lanes and parks on its doorbell. A wakeup
//!   drains every lane in its lane form ([`Reply`]: a one-grant reply is
//!   encoded straight from its slot, no `ToClient` rebuilt), encodes the
//!   whole run into one frame batch, and issues **one** `write_all` on
//!   the (Nagle-off) socket — so write syscalls per op track the measured
//!   wakes/op of the ring path, not the message count. The writer
//!   outlives connections: while its client is disconnected it keeps
//!   draining and discards (clients recover by retransmission, and a full
//!   lane nobody drains would stall shard workers); a reconnect just
//!   installs a new stream.
//!
//! The client half lives where the clients live: `lease-rt`'s
//! `NetClient` (real caches over a socket).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use lease_clock::Clock;
use lease_core::{ClientId, Resource};
use lease_svc::{BatchBuf, Egress, EgressRx, Reply, SvcError, SvcHandle};
use lease_wire::{frame_len, frame_messages, Dir, FrameBuilder, WireError, WireValue};

/// How long blocked socket reads and parked writers wait before
/// re-checking the shutdown flag.
const POLL: Duration = Duration::from_millis(100);

/// Read chunk size: how much the reader tries to pull per syscall.
const READ_CHUNK: usize = 256 * 1024;

/// Transport-level counters, shared by every connection. All relaxed:
/// they are measurements, not synchronization.
#[derive(Debug, Default)]
pub struct NetCounters {
    /// `read(2)` calls that returned data.
    pub read_calls: AtomicU64,
    /// Bytes received.
    pub bytes_in: AtomicU64,
    /// Messages decoded from received frames.
    pub msgs_in: AtomicU64,
    /// `write(2)`/`writev`-equivalent flushes issued by writer threads.
    pub write_calls: AtomicU64,
    /// Bytes sent.
    pub bytes_out: AtomicU64,
    /// Messages encoded into sent frames.
    pub msgs_out: AtomicU64,
    /// Ops whose propagated deadline had already passed when the reader
    /// staged them (dropped before reaching a shard; the shard-side
    /// count for ops that die later in flight is
    /// `ServerCounters::expired_drops`).
    pub expired_at_door: AtomicU64,
    /// Frames refused — corrupt, or out of turn for the connection's
    /// hello — each of which drops its connection.
    pub bad_frames: AtomicU64,
}

/// A point-in-time copy of [`NetCounters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCountersSnapshot {
    /// See [`NetCounters::read_calls`].
    pub read_calls: u64,
    /// See [`NetCounters::bytes_in`].
    pub bytes_in: u64,
    /// See [`NetCounters::msgs_in`].
    pub msgs_in: u64,
    /// See [`NetCounters::write_calls`].
    pub write_calls: u64,
    /// See [`NetCounters::bytes_out`].
    pub bytes_out: u64,
    /// See [`NetCounters::msgs_out`].
    pub msgs_out: u64,
    /// See [`NetCounters::expired_at_door`].
    pub expired_at_door: u64,
    /// See [`NetCounters::bad_frames`].
    pub bad_frames: u64,
}

impl NetCounters {
    /// Reads every counter (relaxed).
    pub fn snapshot(&self) -> NetCountersSnapshot {
        NetCountersSnapshot {
            read_calls: self.read_calls.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            msgs_in: self.msgs_in.load(Ordering::Relaxed),
            write_calls: self.write_calls.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            msgs_out: self.msgs_out.load(Ordering::Relaxed),
            expired_at_door: self.expired_at_door.load(Ordering::Relaxed),
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
        }
    }
}

/// The TCP server: accepts connections, feeds decoded frames into a
/// running `lease-svc` service, and streams its egress back out.
///
/// Client identity is by [`ClientId`], established by the connection's
/// opening hello frame; ids must be `< egress.clients()`. Every message
/// on the connection is that client's: a frame naming another sender, or
/// a second hello, is counted in `bad_frames` and closes the connection,
/// like a corrupt one. A client that reconnects (same id, new socket)
/// resumes exactly where retransmission puts it — the server keeps no
/// per-connection protocol state.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    threads: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `svc`.
    ///
    /// `egress` must be the same registry the service's `EgressSink` was
    /// built over, with one slot per client id, and `clock` must be the
    /// clock the service's shards compare deadlines against — the reader
    /// anchors wire deadlines on it. Takes over the registry's receiving
    /// half: one perpetual writer thread per client id is spawned here
    /// (each calls [`Egress::rx`], so nothing else may).
    pub fn bind<R, D>(
        addr: &str,
        svc: SvcHandle<R, D>,
        egress: &Egress<R, D>,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<NetServer>
    where
        R: Resource + WireValue,
        D: Clone + Send + WireValue + 'static,
    {
        let sockaddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "no address"))?;
        let listener = bind_reuse(sockaddr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::default());
        let mut threads = Vec::new();

        // Perpetual writers: one per client id, for the server's
        // lifetime. Draining unconditionally is what keeps a dead
        // client's lanes from stalling shard workers.
        let slots: Vec<Arc<Mutex<Option<TcpStream>>>> = (0..egress.clients())
            .map(|_| Arc::new(Mutex::new(None)))
            .collect();
        for (c, slot) in slots.iter().enumerate() {
            let rx = egress.rx(c);
            let slot = Arc::clone(slot);
            let stop2 = Arc::clone(&stop);
            let ctrs = Arc::clone(&counters);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("net-writer-{c}"))
                    .spawn(move || writer_loop(rx, slot, stop2, ctrs))
                    .expect("spawn net writer"),
            );
        }

        // The accept loop owns the SvcHandle and clones it per
        // connection (a clone registers a fresh set of ingress lanes —
        // one producer per reader thread, as the ring contract wants).
        let stop2 = Arc::clone(&stop);
        let ctrs = Arc::clone(&counters);
        threads.push(
            std::thread::Builder::new()
                .name("net-accept".into())
                .spawn(move || accept_loop(listener, svc, slots, clock, stop2, ctrs))
                .expect("spawn net accept"),
        );

        Ok(NetServer {
            addr,
            stop,
            counters,
            threads,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared transport counters.
    pub fn counters(&self) -> &NetCounters {
        &self.counters
    }

    /// Stops accepting, closes writers, and joins every thread.
    /// Connected readers exit at their next poll tick.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; a connection to ourselves
        // is what wakes it to see the flag. If the connect fails the
        // listener is already gone and so is the loop.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds a listener with `SO_REUSEADDR` set (Linux; a plain bind
/// elsewhere). A restarted server must re-bind its old port *now*: §5
/// budgets the persisted max term for the outage, and a kernel
/// `TIME_WAIT` timer left behind by the killed process's accepted
/// connections must not stretch that window to a minute. Declared raw to
/// stay dependency-free, like `lease_core::affinity`.
#[cfg(target_os = "linux")]
fn bind_reuse(addr: SocketAddr) -> std::io::Result<TcpListener> {
    use std::os::fd::FromRawFd;
    let SocketAddr::V4(v4) = addr else {
        return TcpListener::bind(addr); // v6: std path, no reuse
    };
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    // SAFETY: plain syscalls on an fd we own until `from_raw_fd` adopts
    // it; the 16-byte sockaddr_in buffer outlives the bind call.
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let fail = |fd: i32| {
            let e = std::io::Error::last_os_error();
            close(fd);
            e
        };
        let one: i32 = 1;
        if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) != 0 {
            return Err(fail(fd));
        }
        // struct sockaddr_in: family, port (BE), addr (BE), 8 pad bytes.
        let mut sa = [0u8; 16];
        sa[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
        sa[2..4].copy_from_slice(&v4.port().to_be_bytes());
        sa[4..8].copy_from_slice(&v4.ip().octets());
        if bind(fd, sa.as_ptr(), sa.len() as u32) != 0 || listen(fd, 1024) != 0 {
            return Err(fail(fd));
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

/// Fallback for non-Linux hosts: a plain bind, no `SO_REUSEADDR`.
#[cfg(not(target_os = "linux"))]
fn bind_reuse(addr: SocketAddr) -> std::io::Result<TcpListener> {
    TcpListener::bind(addr)
}

fn accept_loop<R, D>(
    listener: TcpListener,
    svc: SvcHandle<R, D>,
    slots: Vec<Arc<Mutex<Option<TcpStream>>>>,
    clock: Arc<dyn Clock>,
    stop: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
) where
    R: Resource + WireValue,
    D: Clone + Send + WireValue + 'static,
{
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break; // Shutdown's wake-up connection, or a client racing it.
        }
        match conn {
            Ok((stream, _peer)) => {
                let svc = svc.clone();
                let slots = slots.clone();
                let clock = Arc::clone(&clock);
                let stop = Arc::clone(&stop);
                let ctrs = Arc::clone(&counters);
                readers.push(
                    std::thread::Builder::new()
                        .name("net-reader".into())
                        .spawn(move || {
                            let _ = serve_conn(stream, svc, &slots, &clock, &stop, &ctrs);
                        })
                        .expect("spawn net reader"),
                );
            }
            // Out of descriptors, say: do not spin on it.
            Err(_) => std::thread::sleep(POLL),
        }
    }
    for r in readers {
        let _ = r.join();
    }
}

/// One connection's receive loop: hello, then frames until EOF/stop.
fn serve_conn<R, D>(
    mut stream: TcpStream,
    svc: SvcHandle<R, D>,
    slots: &[Arc<Mutex<Option<TcpStream>>>],
    clock: &Arc<dyn Clock>,
    stop: &AtomicBool,
    counters: &NetCounters,
) -> std::io::Result<()>
where
    R: Resource + WireValue,
    D: Clone + Send + WireValue + 'static,
{
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL))?;

    let mut rd = FrameAccum::new();
    let mut batch: BatchBuf<R, D> = BatchBuf::new();
    let mut who: Option<ClientId> = None;

    'conn: while !stop.load(Ordering::SeqCst) {
        // Decode every complete frame currently buffered.
        loop {
            let frame = match rd.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => {
                    counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                    break 'conn;
                }
            };
            match decode_into(frame, who, clock, &mut batch, counters) {
                Ok(DecodedFrame::Hello(from)) if (from.0 as usize) < slots.len() => {
                    who = Some(from);
                    // Install the write half with the client's writer
                    // (replacing any stale stream from a prior
                    // connection).
                    let out = stream.try_clone()?;
                    *slots[from.0 as usize].lock().expect("writer slot poisoned") = Some(out);
                }
                Ok(DecodedFrame::Batch) => {}
                // An unknown client id, an impostor, or a corrupt frame.
                _ => {
                    counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                    break 'conn;
                }
            }

            // Publish before reading more: a full shard lane must stall
            // the socket, not grow a buffer.
            while !batch.is_empty() {
                match svc.try_send_batch_at(&mut batch, Some(clock.now())) {
                    Ok(_) => {
                        if !batch.is_empty() {
                            std::thread::yield_now();
                        }
                    }
                    Err(SvcError::Closed) => break 'conn,
                    Err(_) => std::thread::yield_now(),
                }
            }
            if batch.expired > 0 {
                counters
                    .expired_at_door
                    .fetch_add(batch.expired, Ordering::Relaxed);
                batch.expired = 0;
            }
        }

        match rd.fill(&mut stream) {
            Ok(0) => break, // EOF: client closed
            Ok(n) => {
                counters.read_calls.fetch_add(1, Ordering::Relaxed);
                counters.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }

    // Drop our installed write half so the writer stops writing into a
    // dead socket — unless the client's reconnection already replaced it
    // with its own, which is not ours to drop. (One whose address cannot
    // be read is left to the writer, which drops it at its first failed
    // write.)
    if let Some(c) = who {
        let mut slot = slots[c.0 as usize].lock().expect("writer slot poisoned");
        let ours = stream.peer_addr().ok();
        if slot.as_ref().is_some_and(|s| s.peer_addr().ok() == ours) {
            *slot = None;
        }
    }
    Ok(())
}

enum DecodedFrame {
    /// The connection's hello, naming its client.
    Hello(ClientId),
    /// Messages staged into the batch.
    Batch,
    /// Out of turn: messages before the hello, a second hello, or a frame
    /// from another client than the one the hello named. Nothing staged.
    Impostor,
}

/// Decodes one complete frame into `batch`, re-anchoring wire deadlines
/// (remaining time-to-live) on the server's clock. `who` is the client
/// the connection said hello as, if it has: its messages are attributed
/// to that client, never to whatever a frame header claims.
fn decode_into<R, D>(
    frame: &[u8],
    who: Option<ClientId>,
    clock: &Arc<dyn Clock>,
    batch: &mut BatchBuf<R, D>,
    counters: &NetCounters,
) -> Result<DecodedFrame, WireError>
where
    R: Resource + WireValue,
    D: Clone + Send + WireValue + 'static,
{
    let (h, mut it) = frame_messages(frame)?;
    match (h.dir, who) {
        (Dir::Hello, None) => Ok(DecodedFrame::Hello(h.from)),
        (Dir::C2s, Some(who)) if h.from == who => {
            let now = clock.now();
            let mut n = 0u64;
            while let Some((msg, remaining)) = it.next_c2s::<R, D>()? {
                let deadline = remaining.map(|rem| now.saturating_add(rem));
                batch.push_deadline(who, msg, deadline);
                n += 1;
            }
            counters.msgs_in.fetch_add(n, Ordering::Relaxed);
            Ok(DecodedFrame::Batch)
        }
        (Dir::S2c, _) => Err(WireError::BadDir(1)), // servers don't receive replies
        _ => Ok(DecodedFrame::Impostor),
    }
}

/// One client's perpetual writer: drain lanes → encode one frame batch
/// from the lane slots → one corked write. Runs for the server's
/// lifetime; while the client is disconnected it drains and discards.
fn writer_loop<R, D>(
    mut rx: EgressRx<R, D>,
    slot: Arc<Mutex<Option<TcpStream>>>,
    stop: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
) where
    R: Resource + WireValue,
    D: Clone + Send + WireValue + 'static,
{
    let mut msgs: Vec<Reply<R, D>> = Vec::new();
    let mut wire: Vec<u8> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let ticket = rx.bell().ticket();
        if rx.drain_replies_into(&mut msgs, usize::MAX) == 0 {
            rx.bell().wait(ticket, POLL);
            continue;
        }
        // Keep draining until the burst is over: every message that
        // arrives while we're here rides the same write.
        while rx.drain_replies_into(&mut msgs, usize::MAX) > 0 {}

        let mut guard = slot.lock().expect("writer slot poisoned");
        let Some(stream) = guard.as_mut() else {
            msgs.clear(); // disconnected: discard, client will retransmit
            continue;
        };
        wire.clear();
        // A frame holds at most u16::MAX messages; a larger burst rides
        // the same write as several back-to-back frames.
        for chunk in msgs.chunks(u16::MAX as usize) {
            let mut fb = FrameBuilder::begin(&mut wire, Dir::S2c, ClientId(0));
            for m in chunk {
                match m {
                    Reply::Grant { req, grant } => {
                        fb.push_grants(&mut wire, *req, std::slice::from_ref(grant))
                    }
                    Reply::Msg(m) => fb.push_s2c(&mut wire, m),
                }
            }
            fb.finish(&mut wire);
        }
        let n = msgs.len() as u64;
        msgs.clear();
        match stream.write_all(&wire) {
            Ok(()) => {
                counters.write_calls.fetch_add(1, Ordering::Relaxed);
                counters
                    .bytes_out
                    .fetch_add(wire.len() as u64, Ordering::Relaxed);
                counters.msgs_out.fetch_add(n, Ordering::Relaxed);
            }
            Err(_) => *guard = None, // dead socket: discard until reconnect
        }
    }
}

/// A reusable receive buffer: bytes accumulate at the tail, complete
/// frames are consumed from the head by advancing a cursor, and the
/// unread remainder slides to the front only when the tail runs out of
/// room — no per-read allocation once warm, no per-frame memmove.
pub struct FrameAccum {
    buf: Vec<u8>,
    /// Start of the unread bytes.
    head: usize,
    /// End of the unread bytes.
    filled: usize,
}

impl Default for FrameAccum {
    fn default() -> FrameAccum {
        FrameAccum::new()
    }
}

impl FrameAccum {
    /// An empty accumulator.
    pub fn new() -> FrameAccum {
        FrameAccum {
            buf: Vec::new(),
            head: 0,
            filled: 0,
        }
    }

    /// The buffered, not-yet-consumed bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[self.head..self.filled]
    }

    /// Discards `n` consumed bytes from the head.
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.filled - self.head);
        self.head += n;
    }

    /// The next complete frame, already consumed: `Ok(None)` until a
    /// whole frame is buffered, `Err` when the bytes at the head cannot
    /// start one (a corrupt stream — drop the connection). The slice
    /// stays valid until the next call that adds bytes.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let len = match frame_len(self.bytes())? {
            Some(len) if self.bytes().len() >= len => len,
            _ => return Ok(None),
        };
        let start = self.head;
        self.consume(len);
        Ok(Some(&self.buf[start..start + len]))
    }

    /// Makes the tail at least `n` bytes long: slides the unread bytes to
    /// the front, and grows the buffer if that is still not enough.
    fn make_room(&mut self, n: usize) {
        if self.buf.len() - self.filled >= n {
            return;
        }
        self.buf.copy_within(self.head..self.filled, 0);
        self.filled -= self.head;
        self.head = 0;
        if self.buf.len() < self.filled + n {
            self.buf.resize(self.filled + n, 0);
        }
    }

    /// One `read(2)` into the tail. Returns the byte count (0 = EOF).
    pub fn fill<S: Read>(&mut self, stream: &mut S) -> std::io::Result<usize> {
        self.make_room(READ_CHUNK);
        let n = stream.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// Appends bytes directly (tests, non-socket sources).
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.filled..self.filled + bytes.len()].copy_from_slice(bytes);
        self.filled += bytes.len();
    }
}

/// Client-side connection helper: connects, sets Nagle off, and sends
/// the hello frame that names `who`. Used by `lease-rt`'s `NetClient`
/// and the bench generators.
pub fn connect_as(addr: &SocketAddr, who: ClientId) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut hello = Vec::with_capacity(lease_wire::HEADER_LEN);
    lease_wire::hello_frame(&mut hello, who);
    (&stream).write_all(&hello)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source that hands out its bytes a few at a time.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.1.min(self.0.len()).min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// Frames arriving in arbitrary slices — so most fills end mid-frame
    /// and the unread tail is carried across the slide to the front —
    /// come out of `next_frame` whole, in order, byte for byte.
    #[test]
    fn next_frame_reassembles_frames_split_across_fills() {
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for c in 0..50u32 {
            let mut f = Vec::new();
            lease_wire::hello_frame(&mut f, ClientId(c));
            frames.push(f);
        }
        let stream: Vec<u8> = frames.concat();
        for step in [1, 7, lease_wire::HEADER_LEN + 3, stream.len()] {
            let mut src = Trickle(&stream, step);
            let mut accum = FrameAccum::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            while accum.fill(&mut src).expect("read") > 0 {
                while let Some(frame) = accum.next_frame().expect("well-formed") {
                    got.push(frame.to_vec());
                }
            }
            assert_eq!(got, frames, "step {step}");
            assert!(accum.bytes().is_empty());
        }
    }

    #[test]
    fn next_frame_refuses_a_corrupt_head() {
        let mut accum = FrameAccum::new();
        accum.extend_from_slice(&[0xff; 64]);
        assert!(accum.next_frame().is_err());
    }
}
