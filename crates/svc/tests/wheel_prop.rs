//! Property: driven by the same randomized grant/extend/relinquish
//! sequence, the timer wheel fires exactly the lease expirations a naive
//! scan of the lease table finds — the same set, in the same order.
//!
//! The wheel is what lets a shard worker drop the table walk; this test is
//! the license for that substitution. The table's expiry index is ordered
//! `(expiry, resource, client)`, so a naive scan yields expired records in
//! exactly that order; the wheel returns its due batch sorted by
//! `(deadline, key)`, which must coincide. The wheel — and the table,
//! whose prune is itself wheel-backed now — runs with a 1-unit tick so
//! quantization cannot blur the comparison; lazy cancellation (extend
//! supersedes, relinquish orphans) is exercised by keeping the
//! caller-side `armed` map the shard workers use.
//!
//! A second property covers `TimerWheel::retain`, the compaction both
//! wheel owners run once orphans outnumber their live entries: what
//! survives it fires exactly as the filtered model says.

use std::collections::HashMap;

use lease_clock::{Dur, Time};
use lease_core::{ClientId, LeaseTable};
use lease_svc::TimerWheel;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Step {
    /// Grant (or extend: the table never shortens) a lease.
    Grant {
        resource: u64,
        client: u32,
        expiry: u64,
    },
    /// Voluntarily release a lease.
    Relinquish { resource: u64, client: u32 },
    /// Advance time and compare what expires.
    Advance { by: u64 },
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..8, 0u32..4, 1u64..500).prop_map(|(resource, client, expiry)| Step::Grant {
            resource,
            client,
            expiry
        }),
        (0u64..8, 0u32..4).prop_map(|(resource, client)| Step::Relinquish { resource, client }),
        (1u64..120).prop_map(|by| Step::Advance { by }),
    ]
}

proptest! {
    #[test]
    fn wheel_matches_naive_scan(steps in proptest::collection::vec(step(), 1..120)) {
        let mut table: LeaseTable<u64> = LeaseTable::with_tick(Dur(1));
        let mut wheel: TimerWheel<(u64, ClientId)> = TimerWheel::new(Dur(1), Time::ZERO);
        let mut armed: HashMap<(u64, ClientId), Time> = HashMap::new();
        let mut now = Time::ZERO;

        for s in steps {
            match s {
                Step::Grant { resource, client, expiry } => {
                    let client = ClientId(client);
                    // Expiries are relative to now and never in the past.
                    let expiry = Time(now.0 + expiry);
                    table.grant(resource, client, expiry);
                    // What the table actually holds (a shorter grant is
                    // ignored); arm the wheel to match.
                    let actual = table
                        .expiry_of(resource, client, now)
                        .expect("just granted in the future");
                    if armed.get(&(resource, client)) != Some(&actual) {
                        armed.insert((resource, client), actual);
                        wheel.schedule(actual, (resource, client));
                    }
                }
                Step::Relinquish { resource, client } => {
                    let client = ClientId(client);
                    table.release(resource, client);
                    // Lazy cancellation: the wheel entry stays and is
                    // dropped when it fires without a matching arm.
                    armed.remove(&(resource, client));
                }
                Step::Advance { by } => {
                    now = Time(now.0 + by);
                    // The naive path: scan the expiry-ordered index.
                    let expired_by_scan: Vec<(Time, u64, ClientId)> = table
                        .iter()
                        .filter(|&(_, _, e)| e <= now)
                        .map(|(r, c, e)| (e, r, c))
                        .collect();
                    table.prune(now);
                    // The wheel path: collect due entries, drop stale ones.
                    let mut fired = Vec::new();
                    for (at, key) in wheel.advance(now) {
                        if armed.get(&key) == Some(&at) {
                            armed.remove(&key);
                            fired.push((at, key.0, key.1));
                        }
                    }
                    prop_assert_eq!(fired, expired_by_scan);
                }
            }
        }

        // Drain everything left so the final state agrees too.
        now = Time(now.0 + 1_000_000);
        let remaining_by_scan: Vec<(Time, u64, ClientId)> =
            table.iter().map(|(r, c, e)| (e, r, c)).collect();
        let mut fired = Vec::new();
        for (at, key) in wheel.advance(now) {
            if armed.get(&key) == Some(&at) {
                armed.remove(&key);
                fired.push((at, key.0, key.1));
            }
        }
        prop_assert_eq!(fired, remaining_by_scan);
        prop_assert!(armed.is_empty());
        prop_assert!(wheel.is_empty());
    }
}

/// Drains `wheel` by wake-ups at [`TimerWheel::next_fire`], the way a
/// shard worker sleeps between them.
fn drain(wheel: &mut TimerWheel<u32>) -> Vec<(Time, u32)> {
    let mut out = Vec::new();
    while let Some(at) = wheel.next_fire() {
        wheel.advance_into(at, &mut out);
    }
    out
}

proptest! {
    /// `retain` drops exactly the entries its predicate rejects, wherever
    /// they sit (due, level 0, outer levels, overflow), and leaves a wheel
    /// that fires the survivors — and whatever is scheduled after — in
    /// `(at, key)` order, as the filtered model does.
    #[test]
    fn retain_matches_filtered_model(
        ats in proptest::collection::vec(0u64..300_000_000, 1..300),
        more in proptest::collection::vec(0u64..300_000_000, 0..100),
        split in 0u64..300_000_000,
        modulus in 1u32..5,
    ) {
        let tick = 1000;
        let mut wheel: TimerWheel<u32> = TimerWheel::new(Dur(tick), Time::ZERO);
        // Keys repeat, so some entries are equal in `(at, key)`.
        let mut model: Vec<(Time, u32)> = ats
            .iter()
            .enumerate()
            .map(|(i, &at)| (Time(at), i as u32 % 64))
            .collect();
        for &(at, key) in &model {
            wheel.schedule(at, key);
        }
        // Part-way first, so the survivors straddle every level.
        let fired = wheel.advance(Time(split));
        let (mut early, rest): (Vec<_>, Vec<_>) = model
            .drain(..)
            .partition(|(at, _)| at.0.div_ceil(tick) <= split / tick);
        early.sort();
        prop_assert_eq!(fired, early);

        let keep = |at: Time, key: &u32| !key.is_multiple_of(modulus) || at.0.is_multiple_of(2);
        wheel.retain(keep);
        let mut model: Vec<(Time, u32)> =
            rest.into_iter().filter(|(at, key)| keep(*at, key)).collect();
        prop_assert_eq!(wheel.len(), model.len());
        for (i, &at) in more.iter().enumerate() {
            let (at, key) = (Time(at.max(split)), 1000 + i as u32);
            wheel.schedule(at, key);
            model.push((at, key));
        }
        model.sort();
        prop_assert_eq!(drain(&mut wheel), model);
        prop_assert!(wheel.is_empty());
    }
}
