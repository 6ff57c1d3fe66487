//! Real client workers against a real TCP server: the full rt client
//! loop (retransmission, deadlines, approvals) crossing loopback sockets.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lease_clock::{Clock, Dur, WallClock};
use lease_core::{LeaseServer, MemStorage, ServerConfig, Storage};
use lease_net::NetServer;
use lease_rt::{NetClient, NetClientConfig};
use lease_svc::{Egress, EgressSink, LeaseService, SvcConfig, SvcHooks};
use lease_vsys::HistoryEvent;

type R = u64;
type D = Bytes;

fn start_server(
    shards: usize,
    clients: usize,
    files: u64,
) -> (LeaseService<R, D>, NetServer, Arc<dyn Clock>) {
    start_server_at("127.0.0.1:0", shards, clients, files)
}

fn start_server_at(
    addr: &str,
    shards: usize,
    clients: usize,
    files: u64,
) -> (LeaseService<R, D>, NetServer, Arc<dyn Clock>) {
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
                store.insert(r, Bytes::from(r.to_le_bytes().to_vec()));
            }
            (
                LeaseServer::new(ServerConfig::fixed(Dur::from_secs(5))),
                Box::new(store) as Box<dyn Storage<R, D> + Send>,
            )
        },
    );
    let net = NetServer::bind(addr, service.handle(), &egress, Arc::clone(&clock)).expect("bind");
    (service, net, clock)
}

#[test]
fn reads_and_writes_over_loopback() {
    let (service, net, _clock) = start_server(2, 2, 16);
    let fleet = NetClient::connect(NetClientConfig::new(net.local_addr(), 2));

    // Cold read: fetch over the wire, grant comes back with data.
    let got = fleet.client(0).read(3).expect("read file 3");
    assert_eq!(&got[..], &3u64.to_le_bytes());

    // Cached read: served locally under the lease (no server round trip
    // needed, but correctness is what we assert here).
    let again = fleet.client(0).read(3).expect("cached read");
    assert_eq!(&again[..], &3u64.to_le_bytes());

    // A write from the other client: approval machinery (client 0 holds
    // a read lease on 3) must run over the sockets.
    let v = fleet
        .client(1)
        .write(3, Bytes::from(&b"updated"[..]))
        .expect("write file 3");
    assert!(v.0 >= 1);

    // Client 0 reads again: must observe the new version, not its
    // now-invalid cache entry.
    let fresh = fleet.client(0).read(3).expect("read after write");
    assert_eq!(&fresh[..], b"updated");

    // The recorder captured the ops on one timeline.
    let hist = fleet.recorder().snapshot();
    assert!(
        hist.events
            .iter()
            .any(|e| matches!(e, HistoryEvent::ReadDone { .. })),
        "recorder must log reads"
    );

    fleet.shutdown();
    net.shutdown();
    service.shutdown();
}

#[test]
fn client_survives_server_silence_by_retransmission() {
    // Connect the fleet *before* the server exists: every op must park
    // in retransmission until a server appears... which is the same code
    // path as a server crash mid-op. Here we just verify the bounded
    // failure mode: with a finite retry budget and no server, the op
    // fails cleanly (Timeout/Unreachable), it does not hang or panic.
    let addr: std::net::SocketAddr = "127.0.0.1:1".parse().expect("addr"); // port 1: refused
    let mut cfg = NetClientConfig::new(addr, 1);
    cfg.client.retry_interval = Dur::from_millis(10);
    cfg.client.max_retries = 3;
    cfg.client.op_deadline = Some(Dur::from_millis(500));
    let fleet = NetClient::connect(cfg);
    let err = fleet.client(0).read(1);
    assert!(err.is_err(), "no server: the op must fail, got {err:?}");
    fleet.shutdown();
}

#[test]
fn an_op_parked_on_a_dead_port_goes_out_when_the_connection_comes_up() {
    // A port nobody listens on yet: the read's first transmission finds
    // no connection and is dropped. With a 2 s retry interval only the
    // reader's news of the connection can bring it out in under a second.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("a free port");
    let mut cfg = NetClientConfig::new(addr, 1);
    cfg.client.retry_interval = Dur::from_secs(2);
    let fleet = NetClient::connect(cfg);

    let client = fleet.client(0).clone();
    let parked = std::thread::spawn(move || {
        let start = Instant::now();
        let got = client.read(3);
        (got, start.elapsed())
    });
    // Bind only once the read is parked (its miss is counted under the
    // same lock that sent it), then a little later still.
    while fleet.client(0).stats().expect("stats").misses_cold == 0 {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(150));
    let (service, net, _clock) = start_server_at(&addr.to_string(), 1, 1, 16);

    let (got, took) = parked.join().expect("reader thread");
    assert_eq!(&got.expect("read file 3")[..], &3u64.to_le_bytes());
    assert!(
        took < Duration::from_secs(1),
        "the read waited {took:?}: a whole retry interval, not the reconnection"
    );
    // It went out as a retransmission: the attempt is counted as one.
    assert_eq!(fleet.client(0).stats().expect("stats").retries, 1);

    fleet.shutdown();
    net.shutdown();
    service.shutdown();
}
