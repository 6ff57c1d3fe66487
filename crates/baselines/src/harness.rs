//! Running baselines on the shared harness.

use lease_clock::{Dur, Time};
use lease_core::LeaseClient;
use lease_faults::SharedHistory;
use lease_vsys::{assemble, run_trace_with_history, RunReport, SystemConfig, TermSpec};
use lease_workload::Trace;

use crate::andrew::AndrewServerActor;
use crate::nfs::NfsServerActor;

/// A consistency protocol to compare against leases (§6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Baseline {
    /// The lease protocol at a chosen term (the paper's system).
    Leases {
        /// Lease term.
        term: Dur,
    },
    /// Zero-term leases: a consistency check on every open (Sprite, RFS,
    /// the Andrew prototype; Xerox DFS's breakable locks degenerate to
    /// this, §6).
    CheckOnEveryRead,
    /// The revised Andrew file system: infinite-term callback promises,
    /// invalidations that do not wait, an optional client poll bounding
    /// staleness.
    AndrewCallbacks {
        /// Poll interval (Andrew used ten minutes); `None` disables it.
        poll: Option<Dur>,
    },
    /// NFS-style fixed TTL, no invalidations, no guarantees.
    NfsTtl {
        /// Time-to-live for cached data.
        ttl: Dur,
    },
}

impl Baseline {
    /// A short human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            Baseline::Leases { term } => format!("leases({term})"),
            Baseline::CheckOnEveryRead => "check-on-read".into(),
            Baseline::AndrewCallbacks { poll: Some(p) } => format!("andrew(poll {p})"),
            Baseline::AndrewCallbacks { poll: None } => "andrew(no poll)".into(),
            Baseline::NfsTtl { ttl } => format!("nfs(ttl {ttl})"),
        }
    }

    /// Runs the baseline on the shared harness, returning the same report
    /// the lease system produces plus the execution history for the
    /// oracle.
    pub fn run(&self, cfg: &SystemConfig, trace: &Trace) -> (RunReport, SharedHistory) {
        match self {
            Baseline::Leases { term } => {
                let cfg = SystemConfig {
                    term: TermSpec::Fixed(*term),
                    ..cfg.clone()
                };
                let (report, handle) = run_trace_with_history(&cfg, trace);
                (report, handle.history)
            }
            Baseline::CheckOnEveryRead => {
                let cfg = SystemConfig {
                    term: TermSpec::Fixed(Dur::ZERO),
                    ..cfg.clone()
                };
                let (report, handle) = run_trace_with_history(&cfg, trace);
                (report, handle.history)
            }
            Baseline::AndrewCallbacks { poll } => {
                let mut cfg = cfg.clone();
                cfg.client.anticipatory = *poll;
                run_custom(&cfg, trace, ServerKind::Andrew)
            }
            Baseline::NfsTtl { ttl } => run_custom(cfg, trace, ServerKind::Nfs(*ttl)),
        }
    }
}

enum ServerKind {
    Andrew,
    Nfs(Dur),
}

fn run_custom(cfg: &SystemConfig, trace: &Trace, kind: ServerKind) -> (RunReport, SharedHistory) {
    let warmup = Time::ZERO + cfg.warmup;
    let new_cache = |id| LeaseClient::new(id, cfg.client.clone());
    let mut h = assemble(
        cfg,
        trace,
        new_cache,
        |world, storage, clients, hist| match kind {
            ServerKind::Andrew => world.add_actor(AndrewServerActor::new(
                storage,
                clients,
                hist.clone(),
                warmup,
            )),
            ServerKind::Nfs(ttl) => world.add_actor(NfsServerActor::new(
                storage,
                ttl,
                clients,
                hist.clone(),
                warmup,
            )),
        },
    );
    (h.run(cfg.drain), h.history)
}
