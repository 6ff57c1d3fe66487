//! Dropping a `NetClient` fleet without `shutdown` stops its threads:
//! the socket readers leave, and their connections close. Its own test
//! binary, because it counts every reader thread in the process.

use std::io::Read;
use std::net::TcpListener;
use std::time::Duration;

use lease_rt::{NetClient, NetClientConfig};

/// Names of this process's threads (truncated by the kernel to 15 bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .map(|name| name.trim_end().to_string())
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn a_dropped_fleet_stops_its_readers_and_closes_its_connections() {
    // A listener that accepts and then says nothing.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let fleet = NetClient::connect(NetClientConfig::new(
        listener.local_addr().expect("addr"),
        2,
    ));
    let mut conns: Vec<_> = (0..2)
        .map(|_| listener.accept().expect("accept").0)
        .collect();
    let readers = || {
        thread_names()
            .iter()
            .filter(|n| n.starts_with("lease-net-read"))
            .count()
    };
    if cfg!(target_os = "linux") {
        assert_eq!(readers(), 2, "one reader per client while connected");
    }

    drop(fleet);

    for conn in &mut conns {
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut rest = Vec::new();
        // The hello, then EOF: a still-open connection fails this with a
        // timeout instead.
        conn.read_to_end(&mut rest)
            .expect("EOF from the dropped client");
    }
    if cfg!(target_os = "linux") {
        assert_eq!(readers(), 0, "a reader outlived its fleet");
    }
}
