//! The single-copy consistency oracle.

use std::collections::HashMap;

use lease_clock::{Dur, Time};
use lease_core::{ClientId, OpId, Version};
use lease_vsys::{History, HistoryEvent, Res};

/// A consistency violation found by the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A read returned a version that was not current at any instant of
    /// the read's lifetime — stale data served under a broken lease.
    StaleRead {
        /// The reader.
        client: ClientId,
        /// The operation.
        op: OpId,
        /// The resource.
        resource: Res,
        /// The version returned.
        version: Version,
        /// Read start (true time).
        start: Time,
        /// Read completion (true time).
        end: Time,
        /// When the returned version stopped being current.
        valid_until: Time,
    },
    /// A read returned a version the server never committed (or one from
    /// the future of its completion).
    UnknownVersion {
        /// The reader.
        client: ClientId,
        /// The operation.
        op: OpId,
        /// The resource.
        resource: Res,
        /// The version returned.
        version: Version,
    },
    /// Commits on a resource were not strictly increasing.
    NonMonotonicCommit {
        /// The resource.
        resource: Res,
        /// The offending version.
        version: Version,
        /// Commit time.
        at: Time,
    },
    /// A write completed at its client without a matching commit —
    /// a lost write, violating write-through durability.
    LostWrite {
        /// The writer.
        client: ClientId,
        /// The operation.
        op: OpId,
        /// The resource.
        resource: Res,
        /// The version the client believed committed.
        version: Version,
    },
    /// Goodput never recovered after an overload burst ended: within the
    /// allowed number of recovery windows, no window's completed-operation
    /// rate reached the required fraction of the pre-overload baseline.
    /// This is the signature of a congestion collapse — retry storms or
    /// unshed queues keeping the server saturated long after offered load
    /// dropped — which graceful degradation (admission control, retry
    /// budgets) exists to prevent.
    GoodputCollapse {
        /// Completed ops/sec over the pre-overload baseline interval.
        baseline: f64,
        /// The best windowed ops/sec observed after the overload ended.
        achieved: f64,
        /// The ops/sec the system had to reach (`recover_frac` × baseline).
        required: f64,
        /// End of the last allowed recovery window.
        deadline: Time,
    },
    /// Two distinct grantor replicas both held a live grantor claim over
    /// the same true-time window — the replicated grantor's analogue of a
    /// broken lease. With two grantors serving at once, each can grant
    /// conflicting file leases, so single-copy semantics are gone even if
    /// no client happened to observe it in this run.
    TwoGrantors {
        /// The replica whose claim started first.
        replica_a: u32,
        /// Its ballot.
        ballot_a: u64,
        /// The other replica.
        replica_b: u32,
        /// Its ballot.
        ballot_b: u64,
        /// Start of the overlap (true time).
        overlap_from: Time,
        /// End of the overlap (true time); [`Time::MAX`] when both claims
        /// were still open at the end of the recorded history.
        overlap_until: Time,
    },
}

/// Checks a recorded execution against single-copy (atomic) semantics.
///
/// For each resource, the committed versions form a timeline: version `v`
/// is *current* from its commit until the next commit (the initial version
/// 1 is current from the beginning). A read that returns `v` is legal iff
/// `v` was current at some instant between the read's start and its
/// completion. This is exactly the paper's definition of consistency:
/// "the behavior is equivalent to there being only a single (uncached)
/// copy of the data except for the performance benefit of the cache" (§1).
///
/// Replicated-grantor histories are additionally checked for the quorum
/// invariant: **at most one valid grantor at any true time**. Serving
/// claims are the half-open intervals `[GrantorAcquired, GrantorCeded)`
/// per `(replica, ballot)`; a claim never ceded stays open to the end of
/// the history. Any true-time overlap between claims of *distinct*
/// replicas is a [`Violation::TwoGrantors`] — flagged even if no client
/// request happened to land in the window, because the hazard (two
/// grantors free to issue conflicting file leases) exists regardless.
pub fn check_history(history: &History) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();

    check_grantor_claims(history, &mut violations);

    // Collect commit timelines and discards (write-back lost writes) per
    // resource.
    let mut commits: HashMap<Res, Vec<(Time, Version)>> = HashMap::new();
    let mut discards: HashMap<Res, Vec<(Time, Version, Version)>> = HashMap::new();
    for e in &history.events {
        match e {
            HistoryEvent::Commit {
                resource,
                version,
                at,
                ..
            } => {
                commits.entry(*resource).or_default().push((*at, *version));
            }
            HistoryEvent::Discard {
                resource,
                last_durable,
                last_lost,
                at,
            } => {
                discards
                    .entry(*resource)
                    .or_default()
                    .push((*at, *last_durable, *last_lost));
            }
            _ => {}
        }
    }
    // A version is discarded if a crash occurred after its commit while it
    // was above the durable high-water mark: it was visible only to its
    // (exclusive) writer, from its commit until the crash.
    let discarded_until = |resource: Res, commit_at: Time, v: Version| -> Option<Time> {
        discards
            .get(&resource)?
            .iter()
            .find_map(|(at, last, lost)| {
                // Exactly the range the discard names, committed strictly
                // before it (another holder's reservation is untouched).
                if v > *last && v <= *lost && commit_at < *at {
                    Some(*at)
                } else {
                    None
                }
            })
    };
    for (resource, list) in commits.iter_mut() {
        list.sort();
        for w in list.windows(2) {
            if w[1].1 <= w[0].1 {
                violations.push(Violation::NonMonotonicCommit {
                    resource: *resource,
                    version: w[1].1,
                    at: w[1].0,
                });
            }
        }
    }

    // Index op starts.
    let mut starts: HashMap<(ClientId, OpId), Time> = HashMap::new();
    for e in &history.events {
        match e {
            HistoryEvent::ReadStart { client, op, at, .. }
            | HistoryEvent::WriteStart { client, op, at, .. } => {
                starts.insert((*client, *op), *at);
            }
            _ => {}
        }
    }

    let empty: Vec<(Time, Version)> = Vec::new();
    for e in &history.events {
        match e {
            HistoryEvent::ReadDone {
                client,
                op,
                resource,
                version,
                at,
                ..
            } => {
                let start = starts.get(&(*client, *op)).copied().unwrap_or(*at);
                let list = commits.get(resource).unwrap_or(&empty);
                // Window of `version`: from its commit (or time zero for
                // the initial version) to the next commit (or forever).
                let valid_from = if version.0 <= 1 {
                    Time::ZERO
                } else {
                    match list.iter().find(|(_, v)| v == version) {
                        Some((t, _)) => *t,
                        None => {
                            violations.push(Violation::UnknownVersion {
                                client: *client,
                                op: *op,
                                resource: *resource,
                                version: *version,
                            });
                            continue;
                        }
                    }
                };
                // A discarded (lost write-back) version is valid only
                // until the crash that destroyed it; an ordinary version
                // until the next non-discarded commit.
                let valid_until = match discarded_until(*resource, valid_from, *version) {
                    Some(crash) => crash,
                    None => list
                        .iter()
                        .find(|(t, v)| {
                            *v > *version && discarded_until(*resource, *t, *v).is_none()
                        })
                        .map(|(t, _)| *t)
                        .unwrap_or(Time::MAX),
                };
                // Overlap test between [start, end] and [valid_from, valid_until).
                let end = *at;
                if valid_from > end || valid_until <= start {
                    violations.push(Violation::StaleRead {
                        client: *client,
                        op: *op,
                        resource: *resource,
                        version: *version,
                        start,
                        end,
                        valid_until,
                    });
                }
            }
            HistoryEvent::WriteDone {
                client,
                op,
                resource,
                version,
                ..
            } => {
                let committed = commits
                    .get(resource)
                    .is_some_and(|l| l.iter().any(|(_, v)| v == version));
                if !committed {
                    violations.push(Violation::LostWrite {
                        client: *client,
                        op: *op,
                        resource: *resource,
                        version: *version,
                    });
                }
            }
            _ => {}
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// What [`check_goodput`] needs to know about the run: when the overload
/// burst sat on the true-time axis and how fast recovery must be.
#[derive(Debug, Clone, Copy)]
pub struct GoodputSpec {
    /// Baseline interval start (usually [`Time::ZERO`]).
    pub baseline_from: Time,
    /// When the overload burst began; the baseline is the completed-op
    /// rate over `[baseline_from, overload_start)`.
    pub overload_start: Time,
    /// When the overload burst ended; recovery windows start here.
    pub overload_end: Time,
    /// Width of one recovery window — the ISSUE's "lease term" unit.
    pub window: Dur,
    /// How many windows recovery may take (K).
    pub windows: u32,
    /// Fraction of baseline goodput that counts as recovered (e.g. 0.9).
    pub recover_frac: f64,
}

/// Checks the liveness half of overload robustness: once an overload
/// burst ends, goodput (completed reads + writes per second) must climb
/// back to `recover_frac` of its pre-overload baseline within
/// `windows` windows of `window` each. A system whose unbudgeted retries
/// keep it saturated after offered load drops fails here with
/// [`Violation::GoodputCollapse`] even though every individual reply it
/// does produce is consistent.
pub fn check_goodput(history: &History, spec: GoodputSpec) -> Result<(), Violation> {
    let done_at = |e: &HistoryEvent| match e {
        HistoryEvent::ReadDone { at, .. } | HistoryEvent::WriteDone { at, .. } => Some(*at),
        _ => None,
    };
    let base_span = spec
        .overload_start
        .saturating_since(spec.baseline_from)
        .as_secs_f64();
    if base_span <= 0.0 {
        return Ok(()); // No baseline interval: nothing to recover to.
    }
    let base_done = history
        .events
        .iter()
        .filter_map(done_at)
        .filter(|t| *t >= spec.baseline_from && *t < spec.overload_start)
        .count();
    let baseline = base_done as f64 / base_span;
    let required = baseline * spec.recover_frac;
    if baseline == 0.0 {
        return Ok(()); // An idle run cannot collapse.
    }
    let mut achieved: f64 = 0.0;
    for k in 0..spec.windows {
        let from = spec.overload_end + spec.window.mul_f64(f64::from(k));
        let until = from + spec.window;
        let done = history
            .events
            .iter()
            .filter_map(done_at)
            .filter(|t| *t >= from && *t < until)
            .count();
        achieved = achieved.max(done as f64 / spec.window.as_secs_f64());
        if achieved >= required {
            return Ok(());
        }
    }
    Err(Violation::GoodputCollapse {
        baseline,
        achieved,
        required,
        deadline: spec.overload_end + spec.window.mul_f64(f64::from(spec.windows)),
    })
}

/// One grantor serving claim: `[from, until)` in true time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    /// The replica that held the claim.
    pub replica: u32,
    /// Its ballot.
    pub ballot: u64,
    /// When the claim was acquired.
    pub from: Time,
    /// When it ended; [`Time::MAX`] if it was never ceded in the history.
    pub until: Time,
}

/// The grantor serving claims of a history, sorted by start: the
/// half-open intervals `[GrantorAcquired, GrantorCeded)` per `(replica,
/// ballot)`. A cede is matched to the earliest open claim with its
/// identity; a cede without one is ignored (a replica may notice expiry
/// of a claim recorded before the recorder attached); a claim never
/// ceded stays open to the end of the history.
pub fn grantor_claims(history: &History) -> Vec<Claim> {
    let mut open: Vec<(u32, u64, Time)> = Vec::new();
    let mut claims: Vec<Claim> = Vec::new();
    for e in &history.events {
        match *e {
            HistoryEvent::GrantorAcquired {
                replica,
                ballot,
                at,
            } => open.push((replica, ballot, at)),
            HistoryEvent::GrantorCeded {
                replica,
                ballot,
                at,
            } => {
                if let Some(pos) = open
                    .iter()
                    .position(|&(r, b, _)| r == replica && b == ballot)
                {
                    let (_, _, from) = open.remove(pos);
                    // Backdated cedes saturate at the acquire instant: an
                    // empty claim is fine, a negative one is not
                    // representable.
                    let until = at.max(from);
                    claims.push(Claim {
                        replica,
                        ballot,
                        from,
                        until,
                    });
                }
            }
            _ => {}
        }
    }
    claims.extend(open.into_iter().map(|(replica, ballot, from)| Claim {
        replica,
        ballot,
        from,
        until: Time::MAX,
    }));
    claims.sort_by_key(|c| (c.from, c.replica, c.ballot));
    claims
}

/// Flags any true-time overlap between grantor claims of distinct
/// replicas.
fn check_grantor_claims(history: &History, violations: &mut Vec<Violation>) {
    let claims = grantor_claims(history);
    for (i, a) in claims.iter().enumerate() {
        for b in &claims[i + 1..] {
            if a.replica == b.replica {
                // One host re-acquiring (renewal, or a fresh ballot after
                // its own claim lapsed) is not a split brain.
                continue;
            }
            let overlap_from = a.from.max(b.from);
            let overlap_until = a.until.min(b.until);
            if overlap_from < overlap_until {
                violations.push(Violation::TwoGrantors {
                    replica_a: a.replica,
                    ballot_a: a.ballot,
                    replica_b: b.replica,
                    ballot_b: b.ballot,
                    overlap_from,
                    overlap_until,
                });
            }
        }
    }
}

/// The staleness of each violating read: how long before the read
/// *completed* its returned version had already been superseded. For
/// [`Violation::TwoGrantors`] the reported span is the length of the
/// split-brain window itself (saturating when a claim was still open at
/// the end of the history).
pub fn staleness_of(violations: &[Violation]) -> Vec<Dur> {
    violations
        .iter()
        .filter_map(|v| match v {
            Violation::StaleRead {
                end, valid_until, ..
            } => Some(end.saturating_since(*valid_until)),
            Violation::TwoGrantors {
                overlap_from,
                overlap_until,
                ..
            } => Some(overlap_until.saturating_since(*overlap_from)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: ClientId = ClientId(0);

    fn read(h: &mut History, op: u64, res: Res, v: u64, start_s: u64, end_s: u64) {
        h.push(HistoryEvent::ReadStart {
            client: C,
            op: OpId(op),
            resource: res,
            at: Time::from_secs(start_s),
        });
        h.push(HistoryEvent::ReadDone {
            client: C,
            op: OpId(op),
            resource: res,
            version: Version(v),
            at: Time::from_secs(end_s),
            from_cache: false,
        });
    }

    fn commit(h: &mut History, res: Res, v: u64, at_s: u64) {
        h.push(HistoryEvent::Commit {
            resource: res,
            version: Version(v),
            writer: None,
            at: Time::from_secs(at_s),
        });
    }

    #[test]
    fn initial_version_reads_are_legal() {
        let mut h = History::new();
        read(&mut h, 1, 1, 1, 1, 2);
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn read_of_current_version_is_legal() {
        let mut h = History::new();
        commit(&mut h, 1, 2, 5);
        read(&mut h, 1, 1, 2, 6, 7);
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn read_overlapping_commit_may_return_either_version() {
        let mut h = History::new();
        commit(&mut h, 1, 2, 5);
        // Read spanning the commit: old version legal...
        read(&mut h, 1, 1, 1, 4, 6);
        // ...and new version legal.
        read(&mut h, 2, 1, 2, 4, 6);
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn stale_read_is_flagged_with_staleness() {
        let mut h = History::new();
        commit(&mut h, 1, 2, 5);
        // Entirely after the commit, yet returned version 1.
        read(&mut h, 1, 1, 1, 8, 9);
        let violations = check_history(&h).unwrap_err();
        assert_eq!(violations.len(), 1);
        assert!(
            matches!(violations[0], Violation::StaleRead { valid_until, .. }
            if valid_until == Time::from_secs(5))
        );
        let st = staleness_of(&violations);
        assert_eq!(st, vec![Dur::from_secs(4)]);
    }

    #[test]
    fn future_version_before_commit_is_flagged() {
        let mut h = History::new();
        commit(&mut h, 1, 2, 10);
        // Read completed at 5 s but returned version 2 (committed at 10 s).
        read(&mut h, 1, 1, 2, 4, 5);
        let violations = check_history(&h).unwrap_err();
        assert!(matches!(violations[0], Violation::StaleRead { .. }));
    }

    #[test]
    fn unknown_version_is_flagged() {
        let mut h = History::new();
        read(&mut h, 1, 1, 7, 1, 2);
        let violations = check_history(&h).unwrap_err();
        assert!(matches!(
            violations[0],
            Violation::UnknownVersion {
                version: Version(7),
                ..
            }
        ));
    }

    #[test]
    fn non_monotonic_commits_flagged() {
        let mut h = History::new();
        commit(&mut h, 1, 3, 5);
        commit(&mut h, 1, 2, 6);
        let violations = check_history(&h).unwrap_err();
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::NonMonotonicCommit {
                version: Version(2),
                ..
            }
        )));
    }

    #[test]
    fn lost_write_is_flagged() {
        let mut h = History::new();
        h.push(HistoryEvent::WriteStart {
            client: C,
            op: OpId(1),
            resource: 1,
            at: Time::from_secs(1),
        });
        h.push(HistoryEvent::WriteDone {
            client: C,
            op: OpId(1),
            resource: 1,
            version: Version(2),
            at: Time::from_secs(2),
        });
        let violations = check_history(&h).unwrap_err();
        assert!(matches!(violations[0], Violation::LostWrite { .. }));
    }

    #[test]
    fn write_with_commit_is_legal() {
        let mut h = History::new();
        h.push(HistoryEvent::WriteStart {
            client: C,
            op: OpId(1),
            resource: 1,
            at: Time::from_secs(1),
        });
        commit(&mut h, 1, 2, 1);
        h.push(HistoryEvent::WriteDone {
            client: C,
            op: OpId(1),
            resource: 1,
            version: Version(2),
            at: Time::from_secs(2),
        });
        assert!(check_history(&h).is_ok());
    }

    fn acquire(h: &mut History, replica: u32, ballot: u64, at_s: u64) {
        h.push(HistoryEvent::GrantorAcquired {
            replica,
            ballot,
            at: Time::from_secs(at_s),
        });
    }

    fn cede(h: &mut History, replica: u32, ballot: u64, at_s: u64) {
        h.push(HistoryEvent::GrantorCeded {
            replica,
            ballot,
            at: Time::from_secs(at_s),
        });
    }

    #[test]
    fn grantor_claims_pair_cedes_with_their_acquires() {
        let mut h = History::new();
        acquire(&mut h, 1, 21, 4);
        acquire(&mut h, 0, 10, 1);
        cede(&mut h, 2, 99, 2); // no matching acquire: ignored
        cede(&mut h, 0, 10, 0); // backdated past its acquire: clamped
        cede(&mut h, 1, 21, 9);
        acquire(&mut h, 2, 32, 12); // never ceded
        let claim = |replica, ballot, from, until| Claim {
            replica,
            ballot,
            from: Time::from_secs(from),
            until,
        };
        assert_eq!(
            grantor_claims(&h),
            vec![
                claim(0, 10, 1, Time::from_secs(1)),
                claim(1, 21, 4, Time::from_secs(9)),
                claim(2, 32, 12, Time::MAX),
            ]
        );
    }

    #[test]
    fn sequential_grantor_handoff_is_legal() {
        let mut h = History::new();
        acquire(&mut h, 0, 10, 1);
        cede(&mut h, 0, 10, 5);
        acquire(&mut h, 1, 21, 5); // back-to-back handoff at the boundary
        cede(&mut h, 1, 21, 9);
        acquire(&mut h, 2, 32, 12);
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn overlapping_grantors_are_flagged_with_the_window() {
        let mut h = History::new();
        acquire(&mut h, 0, 10, 1);
        acquire(&mut h, 1, 21, 4);
        cede(&mut h, 0, 10, 6);
        cede(&mut h, 1, 21, 9);
        let violations = check_history(&h).unwrap_err();
        assert_eq!(violations.len(), 1);
        match &violations[0] {
            Violation::TwoGrantors {
                replica_a,
                replica_b,
                overlap_from,
                overlap_until,
                ..
            } => {
                assert_eq!((*replica_a, *replica_b), (0, 1));
                assert_eq!(*overlap_from, Time::from_secs(4));
                assert_eq!(*overlap_until, Time::from_secs(6));
            }
            other => panic!("expected TwoGrantors, got {other:?}"),
        }
        // staleness_of reports the split-brain window length.
        assert_eq!(staleness_of(&violations), vec![Dur::from_secs(2)]);
    }

    #[test]
    fn unceded_claim_overlaps_everything_after_it() {
        let mut h = History::new();
        acquire(&mut h, 0, 10, 1); // never ceded — e.g. fencing disabled
        acquire(&mut h, 1, 21, 50);
        let violations = check_history(&h).unwrap_err();
        assert!(matches!(
            violations[0],
            Violation::TwoGrantors {
                overlap_until: Time::MAX,
                ..
            }
        ));
    }

    #[test]
    fn same_replica_reacquiring_is_not_split_brain() {
        let mut h = History::new();
        // Renewal under a new ballot before the backdated cede of the old
        // claim lands: one host, no hazard.
        acquire(&mut h, 2, 10, 1);
        acquire(&mut h, 2, 30, 4);
        cede(&mut h, 2, 10, 6);
        cede(&mut h, 2, 30, 9);
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn backdated_cede_before_acquire_clamps_to_empty_claim() {
        let mut h = History::new();
        acquire(&mut h, 0, 10, 5);
        cede(&mut h, 0, 10, 3); // backdated past the acquire: clamps to [5,5)
        acquire(&mut h, 1, 21, 4);
        cede(&mut h, 1, 21, 9);
        assert!(check_history(&h).is_ok());
    }

    /// `n` completed reads spread uniformly over `[from_s, until_s)`.
    fn completions(h: &mut History, n: u64, from_s: u64, until_s: u64) {
        let span = (until_s - from_s) * 1_000; // milliseconds
        for i in 0..n {
            let at = Time::from_secs(from_s) + Dur::from_millis(i * span / n);
            h.push(HistoryEvent::ReadDone {
                client: C,
                op: OpId(i),
                resource: 1,
                version: Version(1),
                at,
                from_cache: true,
            });
        }
    }

    fn spec() -> GoodputSpec {
        GoodputSpec {
            baseline_from: Time::ZERO,
            overload_start: Time::from_secs(10),
            overload_end: Time::from_secs(20),
            window: Dur::from_secs(5),
            windows: 4,
            recover_frac: 0.9,
        }
    }

    #[test]
    fn recovered_goodput_passes() {
        let mut h = History::new();
        completions(&mut h, 100, 0, 10); // baseline: 10 ops/s
        completions(&mut h, 10, 10, 20); // collapse *during* overload is fine
        completions(&mut h, 200, 25, 40); // second window onward: ~13 ops/s
        assert!(check_goodput(&h, spec()).is_ok());
    }

    #[test]
    fn unrecovered_goodput_is_flagged() {
        let mut h = History::new();
        completions(&mut h, 100, 0, 10); // baseline: 10 ops/s
        completions(&mut h, 40, 20, 40); // post-overload: 2 ops/s forever
        let v = check_goodput(&h, spec()).unwrap_err();
        match v {
            Violation::GoodputCollapse {
                baseline,
                achieved,
                required,
                deadline,
            } => {
                assert!((baseline - 10.0).abs() < 0.1);
                assert!(achieved < required, "{achieved} vs {required}");
                assert_eq!(deadline, Time::from_secs(40));
            }
            other => panic!("expected GoodputCollapse, got {other:?}"),
        }
    }

    #[test]
    fn late_recovery_within_k_windows_passes() {
        let mut h = History::new();
        completions(&mut h, 100, 0, 10); // baseline: 10 ops/s
                                         // Dead for three windows, roars back in the fourth.
        completions(&mut h, 60, 35, 40);
        assert!(check_goodput(&h, spec()).is_ok());
    }

    #[test]
    fn idle_baseline_cannot_collapse() {
        let h = History::new();
        assert!(check_goodput(&h, spec()).is_ok());
    }

    #[test]
    fn reads_between_many_commits() {
        let mut h = History::new();
        for (v, t) in [(2u64, 10u64), (3, 20), (4, 30)] {
            commit(&mut h, 1, v, t);
        }
        read(&mut h, 1, 1, 3, 22, 23); // current then: ok
        read(&mut h, 2, 1, 2, 25, 26); // superseded at 20: stale
        read(&mut h, 3, 1, 4, 35, 36); // ok
        let violations = check_history(&h).unwrap_err();
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::StaleRead { op: OpId(2), .. }
        ));
    }
}
