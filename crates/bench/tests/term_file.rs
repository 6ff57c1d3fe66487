//! `net_server --term-file`'s write half under contention: several
//! threads call the one hook at once, as a process's shards do, and the
//! file they leave is always whole and holds the maximum term.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use lease_bench::term_file::{read_term_file, term_file_hook};
use lease_clock::Dur;

const THREADS: u64 = 4;
const TERMS: u64 = 64;

/// Thread `t`'s `i`-th term: the threads interleave rising and falling
/// runs, so most calls are below what another thread already wrote.
fn term(t: u64, i: u64) -> Dur {
    Dur::from_millis((i * 37 + t * 11) % 101 + 1)
}

#[test]
fn concurrent_writers_leave_a_whole_file_holding_the_maximum() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("term_file");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("max_term");
    let hook = term_file_hook(&path);
    // Every writer starts at once, so their first writes overlap.
    let start = Arc::new(Barrier::new(THREADS as usize));
    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (hook, path, start) = (hook.clone(), path.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                for i in 0..TERMS {
                    hook(term(t, i));
                    // Whatever another writer is doing, the file reads
                    // whole, at or above this thread's own last term.
                    let now = read_term_file(&path).expect("a whole file");
                    assert!(now >= term(t, i), "{now:?} below {:?}", term(t, i));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    let max = (0..THREADS)
        .flat_map(|t| (0..TERMS).map(move |i| term(t, i)))
        .max()
        .unwrap();
    assert_eq!(read_term_file(&path), Some(max));
    assert!(
        !dir.join("max_term.tmp").exists(),
        "a temporary left behind"
    );

    // A later process's hook starts from the file and never lowers it.
    let again = term_file_hook(&path);
    again(Dur::from_millis(1));
    assert_eq!(read_term_file(&path), Some(max));
    again(max + Dur::from_millis(1));
    assert_eq!(read_term_file(&path), Some(max + Dur::from_millis(1)));
    fs::remove_dir_all(&dir).expect("scratch dir removed");
}
