//! A sharded `lease-svc` service behind `lease_net::NetServer`, as a
//! process of its own: the victim of `tests/net_chaos.rs`.
//!
//! It prints `PORT <n>` once it is listening and serves until its stdin
//! closes (or it is killed). It can persist its max granted term
//! (`--term-file`, §5), append every commit to a log the oracle merges
//! (`--commit-log`), and timestamp those commits on a shared unix-epoch
//! clock (`--epoch-unix-ns`), so killing and restarting the *process* is
//! judged by the same consistency oracle as the in-process chaos sweeps.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use bytes::Bytes;

use lease_bench::term_file::{read_term_file, term_file_hook};
use lease_clock::{Clock, Dur, SysClock, WallClock};
use lease_core::{LeaseServer, MemStorage, ServerConfig, Storage, Version};
use lease_net::NetServer;
use lease_svc::{Egress, EgressSink, LeaseService, SvcConfig, SvcHooks};

const HELP: &str = "\
net_server: one lease server process on 127.0.0.1; prints `PORT <n>`,
serves until stdin closes

  --shards N          shard workers (default 1)
  --clients N         client ids served, 0..N (default 4)
  --files N           resources 0..N preloaded into the store (default 256)
  --port N            port to bind, 0 = any (default 0)
  --term-ms N         lease term in ms (default 5000)
  --term-file PATH    persist the max granted term here and honour it on
                      restart (paper §5)
  --commit-log PATH   append `resource version at_ns xHEX` per commit,
                      flushed per line; replayed on restart
  --epoch-unix-ns N   stamp commits on a clock with this unix epoch
                      instead of a process-local one";

struct ServerOpts {
    shards: usize,
    clients: usize,
    files: u64,
    port: u16,
    term: Dur,
    term_file: Option<String>,
    commit_log: Option<String>,
    epoch_unix_ns: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<ServerOpts, String> {
    let mut o = ServerOpts {
        shards: 1,
        clients: 4,
        files: 256,
        port: 0,
        term: Dur::from_millis(5_000),
        term_file: None,
        commit_log: None,
        epoch_unix_ns: None,
    };
    let mut it = args.iter();
    while let Some(name) = it.next() {
        let v = it.next().ok_or_else(|| format!("{name} wants a value"))?;
        let bad = |_| format!("{name} wants a number, got {v}");
        match name.as_str() {
            "--shards" => o.shards = v.parse().map_err(bad)?,
            "--clients" => o.clients = v.parse().map_err(bad)?,
            "--files" => o.files = v.parse().map_err(bad)?,
            "--port" => o.port = v.parse().map_err(bad)?,
            "--term-ms" => o.term = Dur::from_millis(v.parse().map_err(bad)?),
            "--term-file" => o.term_file = Some(v.clone()),
            "--commit-log" => o.commit_log = Some(v.clone()),
            "--epoch-unix-ns" => o.epoch_unix_ns = Some(v.parse().map_err(bad)?),
            _ => return Err(format!("unknown flag {name}")),
        }
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        println!("{HELP}");
        return;
    }
    let o = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("net_server: {e} (see --help)");
        std::process::exit(2);
    });
    serve(&o);
}

/// Wraps a shard's storage to append every commit (resource, version,
/// true time, payload) to a shared log file, flushed per line so a
/// `kill -9` loses nothing the client may have been told about. The
/// multi-process oracle merges these lines into the recorded history.
struct CommitLogStore {
    inner: MemStorage<u64, Bytes>,
    log: Arc<Mutex<std::io::BufWriter<std::fs::File>>>,
    clock: Arc<dyn Clock>,
}

impl Storage<u64, Bytes> for CommitLogStore {
    fn read(&self, resource: &u64) -> Option<(Bytes, Version)> {
        self.inner.read(resource)
    }

    fn version(&self, resource: &u64) -> Option<Version> {
        self.inner.version(resource)
    }

    fn write(&mut self, resource: &u64, data: Bytes) -> Version {
        let payload = hex(&data);
        let v = self.inner.write(resource, data);
        let at = self.clock.now();
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(log, "{} {} {} {}", resource, v.0, at.0, payload);
        let _ = log.flush();
        v
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2 + 1);
    s.push('x'); // never empty, so the line always splits into 4 fields
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn unhex(s: &str) -> Vec<u8> {
    let s = s.strip_prefix('x').unwrap_or(s);
    (0..s.len() / 2)
        .filter_map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok())
        .collect()
}

/// Serves byte payloads: resource `r` starts as its little-endian bytes.
fn serve(o: &ServerOpts) {
    let clock: Arc<dyn Clock> = match o.epoch_unix_ns {
        Some(epoch) => Arc::new(SysClock::new(epoch)),
        None => Arc::new(WallClock::new()),
    };

    // §5 persistence: the max granted term survives the process, so a
    // restart can refuse grants / defer writes for exactly that long.
    let mut hooks = SvcHooks {
        clock: Some(Arc::clone(&clock)),
        ..SvcHooks::default()
    };
    if let Some(path) = &o.term_file {
        let path = PathBuf::from(path);
        hooks.persist_max_term = Some(term_file_hook(&path));
        hooks.recover_max_term = Some(Arc::new(move || read_term_file(&path)));
    }

    // A prior incarnation's commits replay into every shard's store
    // (each preloads the full set; the router partitions), *without*
    // re-logging, so versions and payloads continue where the killed
    // process left off.
    let mut replay: HashMap<u64, (Version, Vec<u8>)> = HashMap::new();
    let log = o.commit_log.as_ref().map(|path| {
        if let Ok(text) = std::fs::read_to_string(path) {
            for line in text.lines() {
                let mut f = line.split_whitespace();
                if let (Some(r), Some(v), Some(_at), Some(hx)) =
                    (f.next(), f.next(), f.next(), f.next())
                {
                    if let (Ok(r), Ok(v)) = (r.parse::<u64>(), v.parse::<u64>()) {
                        let e = replay.entry(r).or_insert((Version(0), Vec::new()));
                        if Version(v) > e.0 {
                            *e = (Version(v), unhex(hx));
                        }
                    }
                }
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open commit log");
        Arc::new(Mutex::new(std::io::BufWriter::new(file)))
    });

    let egress: Egress<u64, Bytes> = Egress::new(o.clients, 1024);
    let sink = Arc::new(EgressSink::new(egress.clone()));
    let files = o.files;
    let term = o.term;
    let store_clock = Arc::clone(&clock);
    let replay = Arc::new(replay);
    let service = LeaseService::spawn(
        SvcConfig {
            shards: o.shards,
            ..SvcConfig::default()
        },
        sink,
        hooks,
        move |_| {
            let mut store: MemStorage<u64, Bytes> = MemStorage::new();
            for r in 0..files {
                store.insert(r, Bytes::from(r.to_le_bytes().to_vec()));
            }
            for (&r, (v, payload)) in replay.iter() {
                if v.0 > 1 {
                    store.set(r, Bytes::from(payload.clone()), *v);
                }
            }
            let storage: Box<dyn Storage<u64, Bytes> + Send> = match &log {
                Some(log) => Box::new(CommitLogStore {
                    inner: store,
                    log: Arc::clone(log),
                    clock: Arc::clone(&store_clock),
                }),
                None => Box::new(store),
            };
            (LeaseServer::new(ServerConfig::fixed(term)), storage)
        },
    );

    let net = NetServer::bind(
        &format!("127.0.0.1:{}", o.port),
        service.handle(),
        &egress,
        Arc::clone(&clock),
    )
    .expect("bind net server");
    println!("PORT {}", net.local_addr().port());
    let _ = std::io::stdout().flush();

    // Serve until the parent closes our stdin (or we are killed).
    let mut sink = String::new();
    while matches!(std::io::stdin().read_line(&mut sink), Ok(n) if n > 0) {
        sink.clear();
    }
    net.shutdown();
    service.shutdown();
}
