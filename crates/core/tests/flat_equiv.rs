//! Property: `FlatMap` answers every query the way `std`'s `HashMap`
//! does, through random insert / get / get_mut / remove / clear scripts.
//!
//! Keys are drawn from a small range, so the maps stay at 8–64 buckets
//! and chains form often. Each script runs under three hashers:
//! `RandomState` (the production hasher), `Clump` (four consecutive keys
//! share a home bucket, so long chains form and removals land in their
//! middle) and `Edge` (every other key's home is the last bucket, so
//! chains wrap past it to bucket 0). After every step the two maps must
//! agree on the step's answer, on `len`, on every key's value, and on the
//! whole entry set.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use lease_core::flat::FlatMap;
use proptest::prelude::*;

const KEYS: u64 = 48;

/// Four consecutive keys hash alike.
#[derive(Default)]
struct Clump(u64);
impl Hasher for Clump {
    fn finish(&self) -> u64 {
        self.0 / 4
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("u64 keys only")
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Odd keys hash to the last bucket of any power-of-two map.
#[derive(Default)]
struct Edge(u64);
impl Hasher for Edge {
    fn finish(&self) -> u64 {
        if self.0 % 2 == 1 {
            u64::MAX
        } else {
            self.0
        }
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("u64 keys only")
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

#[derive(Debug, Clone)]
enum Step {
    Insert(u64, u32),
    Get(u64),
    GetMut(u64, u32),
    Remove(u64),
    Clear,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..KEYS, any::<u32>()).prop_map(|(k, v)| Step::Insert(k, v)),
        (0..KEYS, any::<u32>()).prop_map(|(k, v)| Step::Insert(k, v)),
        (0..KEYS).prop_map(Step::Get),
        (0..KEYS, any::<u32>()).prop_map(|(k, v)| Step::GetMut(k, v)),
        (0..KEYS).prop_map(Step::Remove),
        (0..KEYS).prop_map(Step::Remove),
        // Rarely: a clear resets the chains the script has built.
        (0u64..8).prop_map(|k| if k == 0 { Step::Clear } else { Step::Get(k) }),
    ]
}

/// Runs `steps` against a `FlatMap` hashed by `S` and a `HashMap`.
fn same_answers<S: BuildHasher + Default>(steps: &[Step]) -> Result<(), TestCaseError> {
    let mut flat: FlatMap<u64, u32, S> = FlatMap::default();
    let mut std: HashMap<u64, u32> = HashMap::new();
    for s in steps {
        match *s {
            Step::Insert(k, v) => prop_assert_eq!(flat.insert(k, v), std.insert(k, v)),
            Step::Get(k) => prop_assert_eq!(flat.get(&k), std.get(&k)),
            Step::GetMut(k, v) => {
                let (a, b) = (flat.get_mut(&k), std.get_mut(&k));
                prop_assert_eq!(a.is_some(), b.is_some());
                if let (Some(a), Some(b)) = (a, b) {
                    *a = a.wrapping_add(v);
                    *b = b.wrapping_add(v);
                }
            }
            Step::Remove(k) => prop_assert_eq!(flat.remove(&k), std.remove(&k)),
            Step::Clear => {
                flat.clear();
                std.clear();
            }
        }
        prop_assert_eq!(flat.len(), std.len());
        prop_assert!(flat.len() * 8 <= flat.buckets() * 7);
        for k in 0..KEYS {
            prop_assert_eq!(flat.get(&k), std.get(&k));
        }
        let mut a: Vec<(u64, u32)> = flat.iter().map(|(k, v)| (*k, *v)).collect();
        let mut b: Vec<(u64, u32)> = std.iter().map(|(k, v)| (*k, *v)).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
    #[test]
    fn flat_map_matches_std_hash_map(steps in proptest::collection::vec(step(), 1..200)) {
        same_answers::<RandomState>(&steps)?;
        same_answers::<BuildHasherDefault<Clump>>(&steps)?;
        same_answers::<BuildHasherDefault<Edge>>(&steps)?;
    }
}
