//! The paper's §2 walkthrough: a diskless workstation producing documents.
//!
//! "When the workstation executes latex for the first time, it obtains a
//! lease on the binary file containing latex for a term of (say) 10
//! seconds. Another access to the same file 5 seconds later can use the
//! cached version of this file without checking with the file server. [...]
//! When a new version of latex is installed, the write is delayed until
//! every leaseholder has approved the write [or the lease expires]."
//!
//! Run with: `cargo run --example diskless_workstation`
//! (takes a few seconds of real time — the leases are real.)

use std::time::{Duration, Instant};

use leases::clock::Dur;
use leases::rt::RtSystem;

fn main() {
    // Scale the paper's 10-second term down to 1 s so the demo is quick.
    let term = Dur::from_millis(1000);
    let sys = RtSystem::builder()
        .term(term)
        .installed_file("/bin/latex", b"latex-v1".as_ref())
        // The §4 optimization: installed files are covered by a periodic
        // multicast extension instead of per-client leases.
        .installed_multicast(Dur::from_millis(400), Dur::from_millis(1200))
        .file("/home/cary/paper.tex", b"\\begin{document}".as_ref())
        .clients(2)
        .start();

    let latex = sys.lookup("/bin/latex").unwrap();
    let paper = sys.lookup("/home/cary/paper.tex").unwrap();
    let ws = sys.client(0);

    // First run of latex: the binary is fetched and leased.
    let t0 = Instant::now();
    let (_, _, cached) = ws.read_detailed(latex).unwrap();
    println!(
        "[{:>6.1?}] load latex          from_cache={cached}",
        t0.elapsed()
    );

    // "Another access to the same file 5 seconds later" (scaled: 500 ms):
    // served from cache, no server contact.
    std::thread::sleep(Duration::from_millis(500));
    let (_, _, cached) = ws.read_detailed(latex).unwrap();
    println!(
        "[{:>6.1?}] run latex again     from_cache={cached} (within the term)",
        t0.elapsed()
    );
    assert!(cached);

    // Keep using it past the base term: the multicast extension keeps the
    // installed-file lease alive without any request from the client.
    std::thread::sleep(Duration::from_millis(1500));
    let (_, _, cached) = ws.read_detailed(latex).unwrap();
    println!(
        "[{:>6.1?}] third run           from_cache={cached} (multicast-extended)",
        t0.elapsed()
    );

    // Edit the paper: an ordinary leased write-through file.
    ws.write(paper, b"\\begin{document} Leases are contracts...".as_ref())
        .unwrap();
    println!("[{:>6.1?}] saved paper.tex", t0.elapsed());

    // Install a new latex. Delayed update: the server drops the file from
    // the multicast, waits out the outstanding term, then applies — no
    // callbacks to (possibly many, possibly dead) workstations.
    let t_install = Instant::now();
    sys.install(latex, b"latex-v2".as_ref());
    println!(
        "[{:>6.1?}] new latex submitted (delayed update in progress)",
        t0.elapsed()
    );

    // Wait for the extension window to lapse and the write to land.
    std::thread::sleep(Duration::from_millis(1800));
    let data = ws.read(latex).unwrap();
    println!(
        "[{:>6.1?}] workstation now runs {} (install visible after {:?})",
        t0.elapsed(),
        String::from_utf8_lossy(&data),
        t_install.elapsed()
    );
    assert_eq!(&data[..], b"latex-v2");

    // §2 also leases the *name-to-file binding*: "In order to support a
    // repeated open, the cache must also hold the name-to-file binding...
    // Similarly, modification of this information, such as renaming the
    // file, would constitute a write."
    let home = sys.dir("/home/cary").unwrap();
    let opened = ws.open(home, "paper.tex").unwrap();
    println!(
        "[{:>6.1?}] open(paper.tex) resolved to {:?}",
        t0.elapsed(),
        opened
    );
    // Repeated opens hit the cached bindings under the name lease.
    for _ in 0..3 {
        assert_eq!(ws.open(home, "paper.tex").unwrap(), opened);
    }
    sys.rename(home, "paper.tex", "sosp89.tex");
    std::thread::sleep(Duration::from_millis(300));
    assert!(ws.open(home, "paper.tex").unwrap().is_none());
    assert_eq!(ws.open(home, "sosp89.tex").unwrap(), opened);
    println!(
        "[{:>6.1?}] renamed to sosp89.tex — the name lease was recalled first",
        t0.elapsed()
    );

    let stats = sys.server_stats().unwrap();
    println!(
        "server: {} grants, {} installed multicasts, {} writes committed",
        stats.counters.grants,
        stats.counters.installed_multicasts,
        sys.writes_committed()
    );
    sys.shutdown();
}
