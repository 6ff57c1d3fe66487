//! Property: a `MemStorage` under the Fx hasher answers every query the
//! way one under `RandomState` does, through random insert / write / set
//! / read / version scripts.
//!
//! The hasher parameter only picks where an entry lives in the flat map,
//! never what the store answers; the simulator's store (Fx) and every
//! real server's store (`RandomState`) must be the same store. Half the
//! keys are small ids, as a trace's are; the other half are shifted past
//! bit 20, so under Fx they share their home bucket's low bits and build
//! the long probe chains `hash.rs` warns of.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasherDefault;

use lease_core::{FxHasher, MemStorage, Storage, Version};
use proptest::prelude::*;

const KEYS: u64 = 48;

type Fx = BuildHasherDefault<FxHasher>;

/// The `i`-th key of the script's key space.
fn key(i: u64) -> u64 {
    if i.is_multiple_of(2) {
        i
    } else {
        i << 20
    }
}

#[derive(Debug, Clone)]
enum Step {
    Insert(u64, u32),
    Write(u64, u32),
    /// Sets the data at the current version plus `.2` (at least 1), or
    /// at `.2` for an unknown resource.
    Set(u64, u32, u64),
    Read(u64),
    Version(u64),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..KEYS, any::<u32>()).prop_map(|(k, v)| Step::Insert(key(k), v)),
        (0..KEYS, any::<u32>()).prop_map(|(k, v)| Step::Write(key(k), v)),
        (0..KEYS, any::<u32>()).prop_map(|(k, v)| Step::Write(key(k), v)),
        (0..KEYS, any::<u32>(), 1..20u64).prop_map(|(k, v, d)| Step::Set(key(k), v, d)),
        (0..KEYS).prop_map(|k| Step::Read(key(k))),
        (0..KEYS).prop_map(|k| Step::Version(key(k))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
    #[test]
    fn fx_store_matches_random_state_store(steps in proptest::collection::vec(step(), 1..200)) {
        let mut fx: MemStorage<u64, u32, Fx> = MemStorage::default();
        let mut std: MemStorage<u64, u32, RandomState> = MemStorage::new();
        for s in &steps {
            match *s {
                Step::Insert(k, v) => {
                    fx.insert(k, v);
                    std.insert(k, v);
                }
                Step::Write(k, v) => prop_assert_eq!(fx.write(&k, v), std.write(&k, v)),
                Step::Set(k, v, d) => {
                    let at = Version(std.version(&k).map_or(0, |v| v.0) + d);
                    fx.set(k, v, at);
                    std.set(k, v, at);
                }
                Step::Read(k) => prop_assert_eq!(fx.read(&k), std.read(&k)),
                Step::Version(k) => prop_assert_eq!(fx.version(&k), std.version(&k)),
            }
            prop_assert_eq!(fx.len(), std.len());
            for k in (0..KEYS).map(key) {
                prop_assert_eq!(fx.read(&k), std.read(&k));
            }
        }
    }
}
