//! Real caching clients over real sockets.
//!
//! [`NetClient`] runs N of this crate's client workers — the same
//! `spawn_client` driver the in-process [`RtSystem`] uses, with its
//! inline hits, retransmission backoff, retry budgets, per-op deadlines
//! and Shed pacing **unchanged** — against a remote
//! `lease_net::NetServer` instead of an in-process service handle. The
//! only moving parts added here are the transport edges:
//!
//! * [`TcpPort`] implements the client transport seam ([`Port`]): a
//!   submission encodes one `lease-wire` frame and writes it to the
//!   socket, on whichever thread holds the client's driver lock — the
//!   application thread for a miss or a write, the reader for an
//!   approval, the client's IO thread for a retransmission; the lock
//!   makes them one sender. Deadlines cross as *remaining* time-to-live,
//!   computed against this client's clock at send time — the T-Lease
//!   rule: no absolute clock reading of ours means anything to the
//!   server. A write to a dead or absent socket is a lost message —
//!   exactly the lost-datagram case §2's retransmission machinery already
//!   recovers, so a server crash needs no client-side handling at all.
//! * A reader thread per client decodes reply frames and resolves them
//!   itself: per frame it takes the client's driver lock and feeds the
//!   cache, so a reply fills its parked caller's completion from the
//!   reader, with no hand-off to the IO thread (which is left with
//!   timers alone). A cache slower than the socket holds the reader at
//!   the lock, and TCP flow control carries the stall back to the
//!   server. It reconnects (with the hello handshake) whenever the
//!   connection dies, and once a new one is installed it takes the lock
//!   and retransmits every pending op into it at once instead of a retry
//!   interval later.
//!
//! [`RtSystem`]: crate::system::RtSystem

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use lease_clock::{Clock, Dur, Time, WallClock};
use lease_core::ring::Inbox;
use lease_core::{Backoff, ClientConfig, ClientId, RetryBudget, ToClient, ToServer};
use lease_net::connect_as;
use lease_net::tcp::FrameAccum;
use lease_wire::{frame_messages, Dir, FrameBuilder, WireError};

use crate::client::{spawn_client, Feed, RtClientHandle};
use crate::record::Recorder;
use crate::server::{Port, Res};

/// How often parked socket reads re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(100);

/// Pause before a reconnection attempt after a refused/dead connection.
const RECONNECT_PAUSE: Duration = Duration::from_millis(50);

/// Configuration for a [`NetClient`] fleet.
pub struct NetClientConfig {
    /// The server's address.
    pub addr: SocketAddr,
    /// How many client workers to run ([`ClientId`]s `0..clients`).
    pub clients: u32,
    /// The client's clock allowance ε.
    pub epsilon: Dur,
    /// Retransmission interval (backoff base).
    pub retry_interval: Dur,
    /// Retransmission budget per op.
    pub max_retries: u32,
    /// Backoff policy on top of the interval.
    pub backoff: Backoff,
    /// Per-op deadline, propagated to the server with every submission.
    pub op_deadline: Option<Dur>,
    /// Token-bucket retry budget.
    pub retry_budget: Option<RetryBudget>,
    /// The true-time clock operations are recorded against (and that
    /// deadlines are computed with). `None` uses a fresh process-local
    /// [`WallClock`]; the multi-process harness passes a
    /// [`SysClock`](lease_clock::SysClock) sharing the parent's epoch.
    pub clock: Option<Arc<dyn Clock>>,
}

impl NetClientConfig {
    /// Defaults for a socket: 50 ms epsilon, 100 ms retransmission, 10
    /// retries — wider and more patient than `RtSystemBuilder`'s
    /// in-process 10 ms / 50 ms / 40.
    pub fn new(addr: SocketAddr, clients: u32) -> NetClientConfig {
        NetClientConfig {
            addr,
            clients,
            epsilon: Dur::from_millis(50),
            retry_interval: Dur::from_millis(100),
            max_retries: 10,
            backoff: Backoff::default(),
            op_deadline: None,
            retry_budget: None,
            clock: None,
        }
    }
}

/// N real client workers talking to a remote lease server over TCP.
pub struct NetClient {
    handles: Vec<RtClientHandle>,
    recorder: Arc<Recorder>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl NetClient {
    /// Spawns the workers and their reader threads. Connections are
    /// established (and re-established) in the background; nothing here
    /// blocks on the server being up — a client whose socket is down
    /// simply retransmits until it isn't.
    pub fn connect(cfg: NetClientConfig) -> NetClient {
        let clock: Arc<dyn Clock> = cfg.clock.unwrap_or_else(|| Arc::new(WallClock::new()));
        let recorder = Arc::new(Recorder::with_clock(Arc::clone(&clock)));
        let stop = Arc::new(AtomicBool::new(false));
        let client_cfg = ClientConfig {
            epsilon: cfg.epsilon,
            retry_interval: cfg.retry_interval,
            max_retries: cfg.max_retries,
            backoff: cfg.backoff,
            op_deadline: cfg.op_deadline,
            retry_budget: cfg.retry_budget,
            ..ClientConfig::default()
        };
        let mut handles = Vec::new();
        let mut threads = Vec::new();

        for i in 0..cfg.clients {
            let conn = Arc::new(Conn::default());
            let port = TcpPort {
                conn: Arc::clone(&conn),
                clock: Arc::clone(&clock),
                buf: Mutex::new(Vec::new()),
                who: ClientId(i),
            };
            // No lanes: the reader resolves replies, so the IO thread's
            // inbox only carries the doorbell for timers.
            let (handle, thread) = spawn_client(
                ClientId(i),
                client_cfg.clone(),
                Arc::new(Inbox::new()),
                Box::new(port),
                Arc::clone(&clock),
                Arc::clone(&recorder),
            );
            threads.push(thread);
            threads.push(spawn_reader(
                cfg.addr,
                ClientId(i),
                conn,
                handle.feed(),
                Arc::clone(&stop),
            ));
            handles.push(handle);
        }

        NetClient {
            handles,
            recorder,
            stop,
            threads,
        }
    }

    /// Client `i`'s handle (blocking read/write/open operations).
    pub fn client(&self, i: usize) -> &RtClientHandle {
        &self.handles[i]
    }

    /// The shared operation recorder (true-time history for the oracle).
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// Stops every worker and reader and joins them. A caller parked on
    /// an operation gets [`RtError::Closed`](crate::RtError::Closed).
    /// Dropping the fleet does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        for h in &self.handles {
            h.close();
        }
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// What a client's port and its reader thread share: the write half of
/// the live connection, `None` while there is none. Taken after the
/// driver lock, never before it.
type Conn = Mutex<Option<TcpStream>>;

fn lock(conn: &Conn) -> MutexGuard<'_, Option<TcpStream>> {
    conn.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The TCP-backed client transport: one frame per submission, written
/// synchronously on the sending thread.
pub struct TcpPort {
    conn: Arc<Conn>,
    clock: Arc<dyn Clock>,
    /// Reusable encode buffer. Senders come one at a time — `send` runs
    /// only under the owning client's driver lock — so the mutex is
    /// uncontended and only satisfies `&self`.
    buf: Mutex<Vec<u8>>,
    who: ClientId,
}

impl Port for TcpPort {
    fn send(&self, from: ClientId, msg: ToServer<Res, Bytes>, deadline: Option<Time>) {
        debug_assert_eq!(from, self.who);
        // Absolute deadline → remaining time-to-live at this send. An
        // already-dead op still crosses (remaining 0): the server drops
        // and counts it, keeping the two sides' books consistent.
        let remaining = deadline.map(|d| d.saturating_since(self.clock.now()));
        let mut buf = self.buf.lock().unwrap_or_else(PoisonError::into_inner);
        buf.clear();
        let mut fb = FrameBuilder::begin(&mut buf, Dir::C2s, from);
        fb.push_c2s(&mut buf, &msg, remaining);
        fb.finish(&mut buf);

        let mut guard = lock(&self.conn);
        let Some(stream) = guard.as_mut() else {
            return; // disconnected: retransmission recovers
        };
        if std::io::Write::write_all(stream, &buf).is_err() {
            *guard = None; // dead socket; the reader reconnects
        }
    }
}

/// The per-client reader: owns the connect/reconnect loop, decodes reply
/// frames, and resolves them on its own thread through `feed`.
fn spawn_reader(
    addr: SocketAddr,
    who: ClientId,
    conn: Arc<Conn>,
    feed: Feed,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("lease-net-reader-{}", who.0))
        .spawn(move || {
            let mut run: Vec<ToClient<Res, Bytes>> = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                // (Re)connect, with the hello handshake that names us.
                let mut stream = match connect_as(&addr, who) {
                    Ok(s) => s,
                    Err(_) => {
                        std::thread::sleep(RECONNECT_PAUSE);
                        continue;
                    }
                };
                if stream.set_read_timeout(Some(POLL)).is_err() {
                    continue;
                }
                let writer = stream.try_clone().ok();
                let up = writer.is_some();
                *lock(&conn) = writer;
                if up {
                    // Whatever was submitted while there was no connection
                    // went nowhere: retransmit it now (lock released).
                    feed.connected();
                }
                // A fresh byte stream gets a fresh accumulator: no stale
                // prefix from the previous connection.
                let mut accum = FrameAccum::new();

                while !stop.load(Ordering::SeqCst) {
                    // A corrupt stream means reconnect.
                    if deliver_frames(&mut accum, &feed, &mut run).is_err() {
                        break;
                    }
                    match accum.fill(&mut stream) {
                        Ok(0) => break, // server closed: reconnect
                        Ok(_) => {}
                        Err(e)
                            if e.kind() == ErrorKind::WouldBlock
                                || e.kind() == ErrorKind::TimedOut => {}
                        Err(_) => break,
                    }
                }
                *lock(&conn) = None;
                if !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(RECONNECT_PAUSE);
                }
            }
        })
        .expect("spawn net reader")
}

/// Decodes every complete frame buffered in `accum` and feeds each reply
/// frame's messages to the cache under one take of the driver lock. A
/// busy driver holds the reader here. `run` is the caller's reusable
/// scratch, left empty.
fn deliver_frames(
    accum: &mut FrameAccum,
    feed: &Feed,
    run: &mut Vec<ToClient<Res, Bytes>>,
) -> Result<(), WireError> {
    run.clear();
    while let Some(frame) = accum.next_frame()? {
        let (h, mut it) = frame_messages(frame)?;
        if h.dir != Dir::S2c {
            continue;
        }
        while let Some(m) = it.next_s2c::<Res, Bytes>()? {
            run.push(m);
        }
        if !run.is_empty() {
            feed.deliver(run);
        }
    }
    Ok(())
}
