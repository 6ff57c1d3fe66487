//! Under a fixed term the server keeps, per resource, what its lease
//! table keeps and nothing else.
//!
//! One client is granted 2^16 distinct resources through
//! `LeaseServer::handle`; the heap bytes the server retains must stay
//! within 1.25x of what a bare `SlabTable` retains for the same grants.
//! Per-resource access statistics held beside the table (a map entry per
//! resource ever granted) would put the server at 2-3x.
//!
//! Only built with `--features alloc-count` (the counting allocator also
//! keeps live bytes); run it as
//!
//! ```text
//! cargo test -p lease-bench --features alloc-count --test server_bytes
//! ```
//!
//! Alone in its file: the allocator's counters are process-wide, and
//! another test of the same binary allocating on another thread would be
//! charged to this window.
#![cfg(feature = "alloc-count")]

use lease_bench::live_bytes;
use lease_clock::{Dur, Time};
use lease_core::{
    ClientId, LeaseServer, MemStorage, ReqId, ServerConfig, ServerInput, SlabTable, ToServer,
};

const RESOURCES: u64 = 1 << 16;
const TERM: Dur = Dur::from_secs(10);
const CLIENT: ClientId = ClientId(0);

/// The instant of the `i`-th grant.
fn at(i: u64) -> Time {
    Time::from_micros(i)
}

/// Heap bytes live after `build` returns, less those live before it; the
/// built value is dropped only after the count is taken.
fn retained<T>(build: impl FnOnce() -> T) -> i64 {
    let before = live_bytes().expect("alloc-count feature is on");
    let value = build();
    let held = live_bytes().expect("alloc-count feature is on") - before;
    drop(value);
    held
}

#[test]
fn a_fixed_term_server_retains_what_its_lease_table_does() {
    let mut store: MemStorage<u64, u64> = MemStorage::new();
    for r in 0..RESOURCES {
        store.insert(r, r);
    }

    let server = retained(|| {
        let mut server: LeaseServer<u64, u64> = LeaseServer::new(ServerConfig::fixed(TERM));
        for r in 0..RESOURCES {
            let fetch = ToServer::Fetch {
                req: ReqId(r),
                resource: r,
                cached: None,
                also_extend: Vec::new(),
            };
            let out = server.handle(
                at(r),
                ServerInput::Msg {
                    from: CLIENT,
                    msg: fetch,
                },
                &mut store,
            );
            assert!(!out.is_empty(), "resource {r} was not granted");
        }
        assert_eq!(server.table().len(), RESOURCES as usize);
        server
    });

    let table = retained(|| {
        let mut table: SlabTable<u64> = SlabTable::new();
        for r in 0..RESOURCES {
            table.grant(r, CLIENT, at(r) + TERM);
        }
        table
    });

    println!(
        "{RESOURCES} grants: server {server} B, bare table {table} B ({:.2}x)",
        server as f64 / table as f64
    );
    assert!(table > 0, "the bare table retained nothing: {table} B");
    assert!(
        server as f64 <= 1.25 * table as f64,
        "server retains {server} B for {RESOURCES} grants, its table alone {table} B"
    );
}
