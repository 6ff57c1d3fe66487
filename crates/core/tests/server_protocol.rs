//! Protocol tests for the lease server state machine.
//!
//! These drive `LeaseServer` directly with hand-built inputs, checking the
//! §2 write-approval protocol, the footnote-1 starvation guard, the §4
//! installed-file optimization, and the §2/§5 crash-recovery behaviour.

use lease_clock::{Dur, Time};
use lease_core::{
    AdaptiveTerm, ClientId, Grant, LeaseHandle, LeaseServer, MemStorage, RecoveryMode, ReqId,
    ServerConfig, ServerInput, ServerOutput, ServerTimer, Storage, ToClient, ToServer, Version,
    WriteId,
};

type Server = LeaseServer<u64, String>;
type Out = Vec<ServerOutput<u64, String>>;

const C0: ClientId = ClientId(0);
const C1: ClientId = ClientId(1);
const C2: ClientId = ClientId(2);

fn t(ms: u64) -> Time {
    Time::from_millis(ms)
}

fn setup(term_secs: u64) -> (Server, MemStorage<u64, String>) {
    let server = LeaseServer::new(ServerConfig::fixed(Dur::from_secs(term_secs)));
    let mut store = MemStorage::new();
    store.insert(7, "seven".into());
    store.insert(8, "eight".into());
    (server, store)
}

fn fetch(
    server: &mut Server,
    store: &mut MemStorage<u64, String>,
    now: Time,
    from: ClientId,
    req: u64,
    resource: u64,
) -> Out {
    server.handle(
        now,
        ServerInput::Msg {
            from,
            msg: ToServer::Fetch {
                req: ReqId(req),
                resource,
                cached: None,
                also_extend: vec![],
            },
        },
        store,
    )
}

fn write(
    server: &mut Server,
    store: &mut MemStorage<u64, String>,
    now: Time,
    from: ClientId,
    req: u64,
    resource: u64,
    data: &str,
) -> Out {
    server.handle(
        now,
        ServerInput::Msg {
            from,
            msg: ToServer::Write {
                req: ReqId(req),
                resource,
                data: data.into(),
            },
        },
        store,
    )
}

fn approve(
    server: &mut Server,
    store: &mut MemStorage<u64, String>,
    now: Time,
    from: ClientId,
    write_id: WriteId,
) -> Out {
    server.handle(
        now,
        ServerInput::Msg {
            from,
            msg: ToServer::Approve { write_id },
        },
        store,
    )
}

fn first_grant(out: &Out) -> Option<Grant<u64, String>> {
    out.iter().find_map(|o| match o {
        ServerOutput::Send {
            msg: ToClient::Grants { grants, .. },
            ..
        } => grants.first().cloned(),
        _ => None,
    })
}

fn write_done(out: &Out) -> Option<(ClientId, Version)> {
    out.iter().find_map(|o| match o {
        ServerOutput::Send {
            to,
            msg: ToClient::WriteDone { version, .. },
        } => Some((*to, *version)),
        _ => None,
    })
}

fn approval_multicast(out: &Out) -> Option<(Vec<ClientId>, WriteId)> {
    out.iter().find_map(|o| match o {
        ServerOutput::Multicast {
            to,
            msg: ToClient::ApprovalRequest { write_id, .. },
        } => Some((to.clone(), *write_id)),
        _ => None,
    })
}

fn committed(out: &Out) -> Option<Version> {
    out.iter().find_map(|o| match o {
        ServerOutput::Committed { version, .. } => Some(*version),
        _ => None,
    })
}

#[test]
fn fetch_grants_lease_with_data() {
    let (mut s, mut store) = setup(10);
    let out = fetch(&mut s, &mut store, t(0), C0, 1, 7);
    let g = first_grant(&out).expect("grant");
    assert_eq!(g.resource, 7);
    assert_eq!(g.version, Version(1));
    assert_eq!(g.data.as_deref(), Some("seven"));
    assert_eq!(g.term, Dur::from_secs(10));
    assert_eq!(s.table().holders_at(7, t(0)), vec![C0]);
}

#[test]
fn version_match_omits_data() {
    let (mut s, mut store) = setup(10);
    fetch(&mut s, &mut store, t(0), C0, 1, 7);
    let out = s.handle(
        t(100),
        ServerInput::Msg {
            from: C0,
            msg: ToServer::Fetch {
                req: ReqId(2),
                resource: 7,
                cached: Some(Version(1)),
                also_extend: vec![],
            },
        },
        &mut store,
    );
    let g = first_grant(&out).unwrap();
    assert!(g.data.is_none());
    assert_eq!(s.counters.grants_no_data, 1);
}

#[test]
fn unknown_resource_is_an_error() {
    let (mut s, mut store) = setup(10);
    let out = fetch(&mut s, &mut store, t(0), C0, 1, 999);
    assert!(out.iter().any(|o| matches!(
        o,
        ServerOutput::Send {
            msg: ToClient::Error { .. },
            ..
        }
    )));
    assert_eq!(s.counters.errors, 1);
}

#[test]
fn unshared_write_commits_immediately() {
    let (mut s, mut store) = setup(10);
    // Writer holds the only lease: its request is its implicit approval.
    fetch(&mut s, &mut store, t(0), C0, 1, 7);
    let out = write(&mut s, &mut store, t(100), C0, 2, 7, "new");
    assert_eq!(committed(&out), Some(Version(2)));
    assert_eq!(write_done(&out), Some((C0, Version(2))));
    assert!(approval_multicast(&out).is_none());
    assert_eq!(s.counters.writes_immediate, 1);
    // The writer got a fresh lease.
    assert_eq!(s.table().holders_at(7, t(100)), vec![C0]);
}

#[test]
fn shared_write_waits_for_approvals() {
    let (mut s, mut store) = setup(10);
    fetch(&mut s, &mut store, t(0), C0, 1, 7);
    fetch(&mut s, &mut store, t(0), C1, 1, 7);
    fetch(&mut s, &mut store, t(0), C2, 1, 7);

    let out = write(&mut s, &mut store, t(100), C0, 2, 7, "new");
    assert!(committed(&out).is_none(), "must defer: {out:?}");
    let (holders, wid) = approval_multicast(&out).expect("approval multicast");
    assert_eq!(holders, vec![C1, C2], "writer excluded (implicit approval)");
    assert_eq!(s.counters.writes_deferred, 1);

    // First approval: still waiting.
    let out = approve(&mut s, &mut store, t(101), C1, wid);
    assert!(committed(&out).is_none());
    // C1's lease is gone (approval invalidates the copy).
    assert_eq!(s.table().holders_at(7, t(101)), vec![C0, C2]);

    // Second approval: commit, notify writer.
    let out = approve(&mut s, &mut store, t(102), C2, wid);
    assert_eq!(committed(&out), Some(Version(2)));
    assert_eq!(write_done(&out), Some((C0, Version(2))));
    assert_eq!(store.read(&7).unwrap().0, "new");
}

#[test]
fn write_deadline_commits_when_holder_is_silent() {
    // A crashed or partitioned holder never approves; the write proceeds
    // when its lease expires (§2: "the delay continues until the lease
    // expires").
    let (mut s, mut store) = setup(10);
    fetch(&mut s, &mut store, t(0), C1, 1, 7); // lease until t = 10 s
    let out = write(&mut s, &mut store, t(2000), C0, 1, 7, "new");
    assert!(committed(&out).is_none());
    let deadline = out.iter().find_map(|o| match o {
        ServerOutput::SetTimer {
            at,
            timer: ServerTimer::WriteDeadline(w),
        } => Some((*at, *w)),
        _ => None,
    });
    let (at, wid) = deadline.expect("deadline timer");
    assert_eq!(at, t(10_000), "deadline is the holder's lease expiry");

    // C1 stays silent; the timer fires.
    let out = s.handle(
        at,
        ServerInput::Timer(ServerTimer::WriteDeadline(wid)),
        &mut store,
    );
    assert_eq!(committed(&out), Some(Version(2)));
    assert_eq!(write_done(&out), Some((C0, Version(2))));
}

#[test]
fn starvation_guard_parks_fetches_during_pending_write() {
    let (mut s, mut store) = setup(10);
    fetch(&mut s, &mut store, t(0), C1, 1, 7);
    let out = write(&mut s, &mut store, t(100), C0, 1, 7, "new");
    let (_, wid) = approval_multicast(&out).unwrap();

    // A read arrives while the write is pending: no grant yet.
    let out = fetch(&mut s, &mut store, t(150), C2, 9, 7);
    assert!(
        first_grant(&out).is_none(),
        "guard must park the fetch: {out:?}"
    );

    // The approval lands; the write commits and the parked fetch is served
    // with the *new* version.
    let out = approve(&mut s, &mut store, t(200), C1, wid);
    let grants: Vec<_> = out
        .iter()
        .filter_map(|o| match o {
            ServerOutput::Send {
                to,
                msg: ToClient::Grants { req, grants },
            } => Some((*to, *req, grants.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(grants.len(), 1);
    let (to, req, gs) = &grants[0];
    assert_eq!(*to, C2);
    assert_eq!(*req, ReqId(9));
    assert_eq!(gs[0].version, Version(2));
    assert_eq!(gs[0].data.as_deref(), Some("new"));
}

#[test]
fn queued_writes_commit_in_order() {
    let (mut s, mut store) = setup(10);
    fetch(&mut s, &mut store, t(0), C1, 1, 7);
    let out1 = write(&mut s, &mut store, t(100), C0, 1, 7, "w1");
    let (_, wid1) = approval_multicast(&out1).unwrap();
    // A second write queues behind the first.
    let out2 = write(&mut s, &mut store, t(110), C2, 1, 7, "w2");
    assert!(committed(&out2).is_none());
    assert!(approval_multicast(&out2).is_none(), "not active yet");

    // Approve W1: it commits; W2 activates. W2's blocker is now C0 (the
    // fresh lease W1's writer just received).
    let out = approve(&mut s, &mut store, t(120), C1, wid1);
    assert_eq!(committed(&out), Some(Version(2)));
    let (holders2, wid2) = approval_multicast(&out).expect("W2 activates with callbacks");
    assert_eq!(holders2, vec![C0]);

    let out = approve(&mut s, &mut store, t(130), C0, wid2);
    assert_eq!(committed(&out), Some(Version(3)));
    assert_eq!(store.read(&7).unwrap().0, "w2");
}

#[test]
fn duplicate_write_request_is_deduplicated() {
    let (mut s, mut store) = setup(10);
    let out = write(&mut s, &mut store, t(0), C0, 5, 7, "new");
    assert_eq!(committed(&out), Some(Version(2)));
    // The client retransmits the same request (the reply was lost).
    let out = write(&mut s, &mut store, t(500), C0, 5, 7, "new");
    assert!(committed(&out).is_none(), "must not commit twice");
    assert_eq!(
        write_done(&out),
        Some((C0, Version(2))),
        "replays the reply"
    );
    assert_eq!(store.version(&7), Some(Version(2)));
    assert_eq!(s.counters.dedup_hits, 1);
}

#[test]
fn duplicate_and_late_approvals_are_ignored() {
    let (mut s, mut store) = setup(10);
    fetch(&mut s, &mut store, t(0), C1, 1, 7);
    let out = write(&mut s, &mut store, t(100), C0, 1, 7, "new");
    let (_, wid) = approval_multicast(&out).unwrap();
    let out = approve(&mut s, &mut store, t(101), C1, wid);
    assert_eq!(committed(&out), Some(Version(2)));
    // Same approval again, and one for a bogus id: both no-ops.
    let out = approve(&mut s, &mut store, t(102), C1, wid);
    assert!(out.is_empty());
    let out = approve(&mut s, &mut store, t(103), C1, WriteId(999));
    assert!(out.is_empty());
}

#[test]
fn relinquish_releases_leases() {
    let (mut s, mut store) = setup(10);
    fetch(&mut s, &mut store, t(0), C0, 1, 7);
    fetch(&mut s, &mut store, t(0), C0, 2, 8);
    s.handle(
        t(100),
        ServerInput::Msg {
            from: C0,
            msg: ToServer::Relinquish {
                resources: vec![7, 8],
            },
        },
        &mut store,
    );
    assert!(s.table().is_empty());
    // A write now commits immediately.
    let out = write(&mut s, &mut store, t(200), C1, 1, 7, "new");
    assert_eq!(committed(&out), Some(Version(2)));
}

#[test]
fn zero_term_grants_record_no_holders() {
    let (mut s, mut store) = (
        Server::new(ServerConfig::fixed(Dur::ZERO)),
        MemStorage::new(),
    );
    store.insert(7, "seven".into());
    let out = fetch(&mut s, &mut store, t(0), C0, 1, 7);
    let g = first_grant(&out).unwrap();
    assert_eq!(g.term, Dur::ZERO);
    assert!(s.table().is_empty(), "zero-term leases leave no soft state");
    // Writes by anyone commit immediately.
    let out = write(&mut s, &mut store, t(1), C1, 1, 7, "new");
    assert_eq!(committed(&out), Some(Version(2)));
}

#[test]
fn max_term_is_persisted_once_per_increase() {
    let (mut s, mut store) = setup(10);
    let out = fetch(&mut s, &mut store, t(0), C0, 1, 7);
    let persisted: Vec<Dur> = out
        .iter()
        .filter_map(|o| match o {
            ServerOutput::PersistMaxTerm(d) => Some(*d),
            _ => None,
        })
        .collect();
    assert_eq!(persisted, vec![Dur::from_secs(10)]);
    // Same term again: no new persistence.
    let out = fetch(&mut s, &mut store, t(1), C1, 1, 7);
    assert!(!out
        .iter()
        .any(|o| matches!(o, ServerOutput::PersistMaxTerm(_))));
    assert_eq!(s.max_term_granted(), Dur::from_secs(10));
}

#[test]
fn recovery_max_term_defers_writes_not_reads() {
    let (mut s, mut store) = setup(10);
    fetch(&mut s, &mut store, t(0), C0, 1, 7);

    // Crash wipes the table; recovery honours the persisted max term.
    s.crash();
    assert!(s.table().is_empty());
    s.recover(t(5000), Some(Dur::from_secs(10)), vec![], &store);

    // Reads are served immediately after recovery.
    let out = fetch(&mut s, &mut store, t(5100), C1, 1, 7);
    assert!(first_grant(&out).is_some());

    // Writes wait out the full max term: deadline = 5 s + 10 s = 15 s.
    let out = write(&mut s, &mut store, t(5200), C2, 1, 7, "new");
    assert!(committed(&out).is_none());
    let deadline = out.iter().find_map(|o| match o {
        ServerOutput::SetTimer {
            at,
            timer: ServerTimer::WriteDeadline(w),
        } => Some((*at, *w)),
        _ => None,
    });
    let (at, wid) = deadline.expect("recovery deadline");
    // C1's new 10 s lease (expires 15.1 s) is also a blocker; the recovery
    // window (15 s) and the lease expiry combine.
    assert_eq!(at, t(15_100));
    let out = s.handle(
        at,
        ServerInput::Timer(ServerTimer::WriteDeadline(wid)),
        &mut store,
    );
    assert_eq!(committed(&out), Some(Version(2)));
}

fn adaptive() -> Server {
    let mut cfg = ServerConfig::fixed(Dur::ZERO);
    cfg.policy = Box::new(AdaptiveTerm::default());
    LeaseServer::new(cfg)
}

#[test]
fn a_crash_leaves_an_adaptive_server_granting_what_a_fresh_one_would() {
    let (_, mut store) = setup(10);
    let mut s = adaptive();
    // Ten reads a second for 100 s: the knee term falls to the 1 s clamp.
    let mut term = Dur::ZERO;
    for i in 0..1000 {
        term = first_grant(&fetch(&mut s, &mut store, t(i * 100), C0, i, 7))
            .unwrap()
            .term;
    }
    assert_eq!(term, Dur::from_secs(1));

    let max_term = s.max_term_granted();
    s.crash();
    s.recover(t(110_000), Some(max_term), vec![], &store);
    let after = first_grant(&fetch(&mut s, &mut store, t(110_100), C1, 1, 7)).unwrap();
    let fresh = first_grant(&fetch(&mut adaptive(), &mut store, t(110_100), C1, 1, 7)).unwrap();
    assert_eq!(after.term, fresh.term);
    assert_eq!(
        after.term,
        Dur::from_secs(60),
        "nothing observed: the clamp"
    );
}

#[test]
fn recovery_with_persistent_records_waits_only_on_live_leases() {
    let mut cfg = ServerConfig::fixed(Dur::from_secs(10));
    cfg.recovery = RecoveryMode::PersistentRecords;
    let mut s: Server = LeaseServer::new(cfg);
    let mut store = MemStorage::new();
    store.insert(7, "seven".into());
    store.insert(8, "eight".into());

    // Grants emit PersistLease outputs.
    let out = fetch(&mut s, &mut store, t(0), C1, 1, 7);
    let rec = out.iter().find_map(|o| match o {
        ServerOutput::PersistLease {
            resource,
            client,
            expiry,
        } => Some((*resource, *client, *expiry)),
        _ => None,
    });
    let rec = rec.expect("lease persisted");
    assert_eq!(rec, (7, C1, t(10_000)));

    s.crash();
    // Recover at 5 s with the persisted record (still live) and a dead one.
    s.recover(t(5000), None, vec![rec, (8, C2, t(1000))], &store);

    // A write to 7 must wait for C1's lease...
    let out = write(&mut s, &mut store, t(5100), C0, 1, 7, "new");
    assert!(committed(&out).is_none());
    assert_eq!(approval_multicast(&out).unwrap().0, vec![C1]);
    // ...but a write to 8 commits immediately (its record had expired).
    let out = write(&mut s, &mut store, t(5100), C0, 2, 8, "new");
    assert_eq!(committed(&out), Some(Version(2)));
}

#[test]
fn installed_files_use_multicast_and_delayed_update() {
    let (mut s, mut store) = setup(10);
    store.insert(100, "latex-v1".into());
    s.add_installed(100);
    s.set_installed_group(vec![C0, C1, C2]);

    // Startup emits the first multicast extension and re-arms the tick.
    let out = s.start(t(0), &store);
    let ext = out.iter().find_map(|o| match o {
        ServerOutput::Multicast {
            to,
            msg:
                ToClient::InstalledExtend {
                    resources,
                    term,
                    sent_at,
                },
        } => Some((to.clone(), resources.clone(), *term, *sent_at)),
        _ => None,
    });
    let (to, resources, term, sent_at) = ext.expect("installed multicast");
    assert_eq!(to, vec![C0, C1, C2]);
    assert_eq!(resources, vec![(100, Version(1))]);
    assert_eq!(sent_at, t(0));
    assert!(out.iter().any(|o| matches!(
        o,
        ServerOutput::SetTimer {
            timer: ServerTimer::InstalledTick,
            ..
        }
    )));

    // Fetches of installed files leave no per-client record.
    fetch(&mut s, &mut store, t(100), C0, 1, 100);
    assert!(
        s.table().is_empty(),
        "no leaseholder tracking for installed files"
    );

    // Installing a new version: no approval requests, wait out the term.
    let out = s.handle(
        t(1000),
        ServerInput::LocalWrite {
            resource: 100,
            data: "latex-v2".into(),
        },
        &mut store,
    );
    assert!(
        approval_multicast(&out).is_none(),
        "delayed update, no callbacks"
    );
    assert!(committed(&out).is_none());
    let (at, wid) = out
        .iter()
        .find_map(|o| match o {
            ServerOutput::SetTimer {
                at,
                timer: ServerTimer::WriteDeadline(w),
            } => Some((*at, *w)),
            _ => None,
        })
        .expect("deadline");
    // Covered until max(multicast at 0, fetch at 100 ms) + installed term.
    assert_eq!(at, t(100) + term);

    // While the write pends, the periodic multicast stops covering 100.
    let out = s.handle(
        t(30_000),
        ServerInput::Timer(ServerTimer::InstalledTick),
        &mut store,
    );
    let covered_again = out.iter().any(|o| {
        matches!(
            o,
            ServerOutput::Multicast { msg: ToClient::InstalledExtend { resources, .. }, .. }
                if resources.iter().any(|(r, _)| *r == 100)
        )
    });
    assert!(
        !covered_again,
        "write-pending installed file must drop out of the multicast"
    );

    let out = s.handle(
        at,
        ServerInput::Timer(ServerTimer::WriteDeadline(wid)),
        &mut store,
    );
    assert_eq!(committed(&out), Some(Version(2)));
    assert_eq!(store.read(&100).unwrap().0, "latex-v2");
}

#[test]
fn batched_extension_grants_everything_held() {
    let (mut s, mut store) = setup(10);
    fetch(&mut s, &mut store, t(0), C0, 1, 7);
    fetch(&mut s, &mut store, t(0), C0, 2, 8);
    // A fetch of 7 piggybacks the extension of 8.
    let out = s.handle(
        t(9000),
        ServerInput::Msg {
            from: C0,
            msg: ToServer::Fetch {
                req: ReqId(3),
                resource: 7,
                cached: Some(Version(1)),
                also_extend: vec![(8, Version(1), LeaseHandle::NULL)],
            },
        },
        &mut store,
    );
    let grants = out
        .iter()
        .find_map(|o| match o {
            ServerOutput::Send {
                msg: ToClient::Grants { grants, .. },
                ..
            } => Some(grants.clone()),
            _ => None,
        })
        .unwrap();
    assert_eq!(grants.len(), 2);
    assert!(
        grants.iter().all(|g| g.data.is_none()),
        "versions matched: no data moved"
    );
    // Both leases now run to 19 s.
    assert_eq!(s.table().expiry_of(7, C0, t(9000)), Some(t(19_000)));
    assert_eq!(s.table().expiry_of(8, C0, t(9000)), Some(t(19_000)));
}

#[test]
fn renew_extends_without_completing_ops() {
    let (mut s, mut store) = setup(10);
    fetch(&mut s, &mut store, t(0), C0, 1, 7);
    let out = s.handle(
        t(5000),
        ServerInput::Msg {
            from: C0,
            msg: ToServer::Renew {
                req: ReqId(2),
                resources: vec![(7, Version(1), LeaseHandle::NULL)],
            },
        },
        &mut store,
    );
    let grants = out
        .iter()
        .find_map(|o| match o {
            ServerOutput::Send {
                msg: ToClient::Grants { grants, .. },
                ..
            } => Some(grants.clone()),
            _ => None,
        })
        .unwrap();
    assert_eq!(grants.len(), 1);
    assert_eq!(s.table().expiry_of(7, C0, t(5000)), Some(t(15_000)));
    assert_eq!(s.counters.renew_rx, 1);
}

#[test]
fn extension_skips_resources_with_pending_writes() {
    let (mut s, mut store) = setup(10);
    fetch(&mut s, &mut store, t(0), C1, 1, 7);
    write(&mut s, &mut store, t(100), C0, 1, 7, "new"); // pending on C1
                                                        // C2 renews 7 opportunistically: nothing granted.
    let out = s.handle(
        t(200),
        ServerInput::Msg {
            from: C2,
            msg: ToServer::Renew {
                req: ReqId(9),
                resources: vec![(7, Version(1), LeaseHandle::NULL)],
            },
        },
        &mut store,
    );
    assert!(
        out.is_empty(),
        "no grants while a write is pending: {out:?}"
    );
}

#[test]
fn counters_track_activity() {
    let (mut s, mut store) = setup(10);
    fetch(&mut s, &mut store, t(0), C0, 1, 7);
    fetch(&mut s, &mut store, t(0), C1, 2, 7);
    let out = write(&mut s, &mut store, t(10), C0, 3, 7, "x");
    let (_, wid) = approval_multicast(&out).unwrap();
    approve(&mut s, &mut store, t(11), C1, wid);
    assert_eq!(s.counters.fetch_rx, 2);
    assert_eq!(s.counters.grants, 2);
    assert_eq!(s.counters.grants_with_data, 2);
    assert_eq!(s.counters.writes_rx, 1);
    assert_eq!(s.counters.writes_deferred, 1);
    assert_eq!(s.counters.approval_multicasts, 1);
    assert_eq!(s.counters.approvals_rx, 1);
}

#[test]
fn retransmitted_inflight_write_is_not_queued_twice() {
    // Regression: a Write retransmission arriving while the original is
    // still awaiting approvals must not create a second pending write
    // (which would commit the same logical write twice and stale out the
    // writer's fresh lease).
    let (mut s, mut store) = setup(10);
    fetch(&mut s, &mut store, t(0), C1, 1, 7);
    let out = write(&mut s, &mut store, t(100), C0, 5, 7, "new");
    let (_, wid) = approval_multicast(&out).unwrap();
    // The client retransmits the same write while it is pending.
    let out = write(&mut s, &mut store, t(600), C0, 5, 7, "new");
    assert!(
        out.is_empty(),
        "in-flight duplicate must be ignored: {out:?}"
    );
    assert_eq!(s.counters.writes_rx, 1);
    // Approval commits exactly one version.
    let out = approve(&mut s, &mut store, t(700), C1, wid);
    assert_eq!(committed(&out), Some(Version(2)));
    assert_eq!(store.version(&7), Some(Version(2)));
    // A retransmission after commit replays the reply.
    let out = write(&mut s, &mut store, t(1500), C0, 5, 7, "new");
    assert_eq!(write_done(&out), Some((C0, Version(2))));
    assert_eq!(
        store.version(&7),
        Some(Version(2)),
        "still exactly one commit"
    );
}

#[test]
fn retransmitted_parked_fetch_is_not_queued_twice() {
    let (mut s, mut store) = setup(10);
    fetch(&mut s, &mut store, t(0), C1, 1, 7);
    let out = write(&mut s, &mut store, t(100), C0, 1, 7, "new");
    let (_, wid) = approval_multicast(&out).unwrap();
    // Parked fetch, retransmitted twice.
    fetch(&mut s, &mut store, t(150), C2, 9, 7);
    fetch(&mut s, &mut store, t(650), C2, 9, 7);
    let out = approve(&mut s, &mut store, t(700), C1, wid);
    let grants_to_c2 = out
        .iter()
        .filter(
            |o| matches!(o, ServerOutput::Send { to, msg: ToClient::Grants { .. } } if *to == C2),
        )
        .count();
    assert_eq!(grants_to_c2, 1, "one parked copy, one reply");
}
