//! Renewal work does not grow with what a cache holds.
//!
//! Two `NetClient` clients against an in-process `NetServer`, 10 s terms,
//! each client first reading every one of 256, then 4 096, then 16 384
//! files, then two seconds of a 31 : 1 read / write mix over them (the
//! outside benchmark's `cache_mix`, which is frozen at 256 files). A miss
//! piggybacks the held leases that are *due* — at most 8 extensions per
//! lease per term — so the request stays small at any cache size; when it
//! carried every held lease, a miss at 4 096 files was a 100 KB request
//! and ops timed out within ten seconds.
//!
//! Everything asserted is a count, taken from counters snapshotted after
//! the fill, and none depends on how many ops the host gets through; the
//! miss latency and the bytes per fetch are printed for each size, not
//! judged. Run it in release (`cargo test --release -p lease-rt --test
//! renewal_scale`): the fill at 16 384 files is 32 768 round trips.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::{history_with_commits, CommitLog, RecordingStore};
use lease_clock::{Clock, Dur, WallClock};
use lease_core::{LeaseServer, MemStorage, ServerConfig, Storage};
use lease_faults::check_history;
use lease_net::NetServer;
use lease_rt::{NetClient, NetClientConfig, RtClientHandle};
use lease_svc::{Egress, EgressSink, LeaseService, SvcConfig, SvcHooks};

const CLIENTS: usize = 2;
const TERM: Dur = Dur::from_secs(10);
const WINDOW: Duration = Duration::from_secs(2);
const WRITE_ONE_IN: u64 = 32;
/// The longest request frame of the mix that piggybacks nothing: a write
/// (16-byte header, tag, deadline, request, file, length, 64-byte payload).
const FRAME_BYTES: u64 = 105;
/// What one piggybacked lease adds to a fetch: file, version, handle.
const RENEWAL_BYTES: u64 = 24;

/// 64 bytes naming their file.
fn payload(file: u64) -> Bytes {
    Bytes::from(file.to_le_bytes().repeat(8))
}

/// What one application thread saw in the window.
#[derive(Default)]
struct Share {
    ops: u64,
    failed: u64,
    miss_us: Vec<f64>,
}

/// Closed loop, one op outstanding, a SplitMix64 stream of uniformly
/// chosen files, one write in 32.
fn run_mix(client: &RtClientHandle, id: u64, files: u64, until: Instant) -> Share {
    let mut share = Share::default();
    let mut x = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    while Instant::now() < until {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let file = (z >> 8) % files;
        share.ops += 1;
        let t0 = Instant::now();
        if z.is_multiple_of(WRITE_ONE_IN) {
            if client.write(file, payload(file)).is_err() {
                share.failed += 1;
            }
            continue;
        }
        match client.read_detailed(file) {
            Ok((data, _, from_cache)) => {
                assert_eq!(&data[..8], &file.to_le_bytes(), "file {file}'s bytes");
                if !from_cache {
                    share.miss_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
            Err(_) => share.failed += 1,
        }
    }
    share
}

fn run_size(files: u64) {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let egress: Egress<u64, Bytes> = Egress::new(CLIENTS, 4096);
    let commits: CommitLog = Arc::default();
    let (log, store_clock) = (Arc::clone(&commits), Arc::clone(&clock));
    let service = LeaseService::spawn(
        SvcConfig {
            shards: 1,
            ..SvcConfig::default()
        },
        Arc::new(EgressSink::new(egress.clone())),
        SvcHooks {
            clock: Some(Arc::clone(&clock)),
            ..SvcHooks::default()
        },
        move |_| {
            let mut inner: MemStorage<u64, Bytes> = MemStorage::new();
            for f in 0..files {
                inner.insert(f, payload(f));
            }
            let store = RecordingStore {
                inner,
                clock: Arc::clone(&store_clock),
                commits: Arc::clone(&log),
            };
            (
                LeaseServer::new(ServerConfig::fixed(TERM)),
                Box::new(store) as Box<dyn Storage<u64, Bytes> + Send>,
            )
        },
    );
    let net = NetServer::bind("127.0.0.1:0", service.handle(), &egress, Arc::clone(&clock))
        .expect("bind a loopback port");
    let mut cfg = NetClientConfig::new(net.local_addr(), CLIENTS as u32);
    cfg.clock = Some(Arc::clone(&clock));
    let fleet = NetClient::connect(cfg);

    // The fill: each client comes to hold every file.
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let client = fleet.client(c);
            s.spawn(move || {
                for f in 0..files {
                    client.read(f).expect("a fill read is answered");
                }
            });
        }
    });

    let piggybacked = |c: usize| {
        let stats = fleet.client(c).stats().expect("client stats");
        stats.renewals_piggybacked
    };
    let server_side = || {
        let fetches = service.stats().expect("shard stats").counters.fetch_rx;
        let net = net.counters().snapshot();
        (net.bytes_in, net.msgs_in, fetches)
    };
    let before: Vec<u64> = (0..CLIENTS).map(piggybacked).collect();
    let (bytes_before, msgs_before, fetches_before) = server_side();

    let until = Instant::now() + WINDOW;
    let shares: Vec<Share> = std::thread::scope(|s| {
        let apps: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = fleet.client(c);
                s.spawn(move || run_mix(client, c as u64 + 1, files, until))
            })
            .collect();
        apps.into_iter().map(|a| a.join().unwrap()).collect()
    });

    let ops: u64 = shares.iter().map(|s| s.ops).sum();
    let failed: u64 = shares.iter().map(|s| s.failed).sum();
    assert_eq!(failed, 0, "{files} files: {failed} of {ops} ops failed");

    let (bytes_after, msgs_after, fetches_after) = server_side();
    let fetches = fetches_after - fetches_before;
    assert!(fetches > 0, "{files} files: the mix never missed");
    let bytes = bytes_after - bytes_before;

    // 8 extensions per lease per term, and one for the window's edges.
    let window_terms = WINDOW.as_secs_f64() / TERM.as_secs_f64();
    let bound = (files as f64 * (8.0 * window_terms + 1.0)) as u64;
    let mut renewals = 0;
    for (c, before) in before.iter().enumerate() {
        let n = piggybacked(c) - before;
        assert!(
            n <= bound,
            "{files} files: client {c} piggybacked {n} renewals, bound {bound}"
        );
        renewals += n;
    }
    // And the renewals counted are all that makes a request long.
    let msgs = msgs_after - msgs_before;
    assert!(
        bytes <= msgs * FRAME_BYTES + renewals * RENEWAL_BYTES,
        "{files} files: {bytes} bytes reached the server in {msgs} messages with {renewals} renewals"
    );

    if let Err(violations) = check_history(&history_with_commits(&fleet, &commits)) {
        panic!(
            "{files} files: oracle: {:?}",
            &violations[..violations.len().min(5)]
        );
    }

    let mut miss_us: Vec<f64> = shares.into_iter().flat_map(|s| s.miss_us).collect();
    miss_us.sort_by(f64::total_cmp);
    println!(
        "renewal_scale: files={files} ops={ops} misses={} miss_p50_us={:.1} bytes_in_per_fetch={}",
        miss_us.len(),
        miss_us.get(miss_us.len() / 2).copied().unwrap_or(f64::NAN),
        bytes / fetches,
    );

    fleet.shutdown();
    net.shutdown();
    service.shutdown();
}

#[test]
#[cfg_attr(debug_assertions, ignore = "the fill is sized for --release")]
fn a_miss_stays_small_at_any_cache_size() {
    for files in [256, 4_096, 16_384] {
        run_size(files);
    }
}
