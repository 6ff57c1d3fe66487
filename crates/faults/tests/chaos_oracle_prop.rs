//! Property tests pinning down what the oracle must accept and reject
//! around server crashes and clock faults.
//!
//! These histories are fabricated directly (no simulator run): the first
//! family models a §5 MaxTerm crash/restart — writes delayed by up to the
//! max term plus a recovery margin, reads always serving the version
//! current at their instant — and must always pass. The second family
//! models the schedule a *fast server clock* produces — the server
//! expires a lease early and commits a write inside the client's
//! true-time lease, after which the client's cache serves the old
//! version — and must always be caught as a stale read.

use lease_clock::Time;
use lease_core::{ClientId, OpId, Version};
use lease_faults::{check_history, History, HistoryEvent, Violation};
use proptest::prelude::*;

const RES: u64 = 1;

fn commit(h: &mut History, v: u64, at: Time) {
    h.push(HistoryEvent::Commit {
        resource: RES,
        version: Version(v),
        writer: None,
        at,
    });
}

fn write(h: &mut History, client: u32, op: u64, v: u64, start: Time, done: Time) {
    h.push(HistoryEvent::WriteStart {
        client: ClientId(client),
        op: OpId(op),
        resource: RES,
        at: start,
    });
    commit(h, v, done);
    h.push(HistoryEvent::WriteDone {
        client: ClientId(client),
        op: OpId(op),
        resource: RES,
        version: Version(v),
        at: done,
    });
}

fn read(h: &mut History, client: u32, op: u64, v: u64, at: Time) {
    h.push(HistoryEvent::ReadStart {
        client: ClientId(client),
        op: OpId(op),
        resource: RES,
        at,
    });
    h.push(HistoryEvent::ReadDone {
        client: ClientId(client),
        op: OpId(op),
        resource: RES,
        version: Version(v),
        at,
        from_cache: true,
    });
}

proptest! {
    /// Crash/restart schedules are consistent: the server stalls every
    /// write landing in the recovery window `[crash, crash + max_term +
    /// margin)` until the window passes, and readers keep serving the
    /// version that was current when the server went down. The oracle
    /// must accept every such history.
    #[test]
    fn oracle_accepts_crash_restart_histories(
        gap_ms in 50u64..2_000,
        writes in 1usize..12,
        crash_after in 0usize..12,
        max_term_ms in 100u64..5_000,
        margin_ms in 0u64..500,
        read_offsets in proptest::collection::vec(0u64..10_000, 0..20),
    ) {
        let mut h = History::new();
        let gap = gap_ms * 1_000_000;
        let window = (max_term_ms + margin_ms) * 1_000_000;
        let crash_at = (crash_after as u64 + 1) * gap + gap / 2;

        // Writes at a steady cadence; any write due inside the recovery
        // window is delayed to the window's end (§5: a rebooted server
        // defers writes for the persisted max term).
        let mut commits: Vec<(u64, u64)> = vec![(0, 1)]; // (time, version)
        for i in 0..writes {
            let due = (i as u64 + 1) * gap;
            let committed = if due >= crash_at && due < crash_at + window {
                crash_at + window
            } else {
                due
            };
            let v = i as u64 + 2;
            write(&mut h, 0, i as u64, v, Time(due.min(committed)), Time(committed));
            commits.push((committed, v));
        }
        commits.sort_unstable();

        // Readers observe whatever is current at their instant — during
        // the stall that is simply the pre-crash version.
        let horizon = (writes as u64 + 2) * gap + window;
        for (j, off) in read_offsets.iter().enumerate() {
            let at = off % horizon.max(1);
            let v = commits.iter().rev().find(|(t, _)| *t <= at).map(|(_, v)| *v).unwrap_or(1);
            read(&mut h, 1, 1_000 + j as u64, v, Time(at));
        }

        let res = check_history(&h);
        prop_assert!(res.is_ok(), "violations: {:?}", res.err());
    }

    /// The schedule a fast server clock produces is always caught. The
    /// server's clock runs `rho` times too fast, so it believes a lease
    /// granted at `g` for `term` expires at `g + term/rho` of true time
    /// and lets a write commit inside the client's real lease; the
    /// leaseholder's subsequent cache hit serves the superseded version.
    #[test]
    fn oracle_rejects_fast_clock_stale_reads(
        grant_ms in 0u64..5_000,
        term_ms in 100u64..10_000,
        rho in 1.5f64..8.0,
        commit_frac in 0.05f64..0.90,
        read_frac in 0.05f64..0.95,
    ) {
        let g = grant_ms * 1_000_000;
        let term = term_ms * 1_000_000;
        // The server wrongly frees the resource at g + term/rho.
        let early_expiry = g + (term as f64 / rho) as u64;
        let lease_end = g + term;
        prop_assume!(early_expiry + 2 < lease_end);

        // A write commits somewhere in the unprotected gap...
        let gap = lease_end - early_expiry;
        let t_commit = early_expiry + 1 + (gap as f64 * commit_frac) as u64 % gap.max(1);
        // ...and the leaseholder serves its cache strictly after that,
        // still inside its true-time lease.
        let tail = lease_end.saturating_sub(t_commit + 1).max(1);
        let t_read = t_commit + 1 + (tail as f64 * read_frac) as u64 % tail;

        let mut h = History::new();
        read(&mut h, 1, 0, 1, Time(g)); // The grant-time read: version 1.
        write(&mut h, 0, 1, 2, Time(t_commit), Time(t_commit));
        read(&mut h, 1, 2, 1, Time(t_read)); // Stale cache hit.

        let violations = check_history(&h).expect_err("stale read must be flagged");
        prop_assert!(
            violations.iter().any(|v| matches!(v, Violation::StaleRead { .. })),
            "expected StaleRead, got {violations:?}"
        );
    }
}
