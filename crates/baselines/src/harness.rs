//! Running baselines on the shared harness.

use lease_clock::Dur;
use lease_core::{LeaseClient, ToClient, ToServer};
use lease_faults::SharedHistory;
use lease_vsys::{
    assemble, run_trace_with_history, Data, Res, RunReport, SimServer, SystemConfig, TermSpec,
};
use lease_workload::Trace;

use crate::andrew::AndrewServer;
use crate::nfs::NfsServer;

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
        let leases = |term| {
            let cfg = SystemConfig {
                term: TermSpec::Fixed(term),
                ..cfg.clone()
            };
            let (report, handle) = run_trace_with_history(&cfg, trace);
            (report, handle.history)
        };
        match self {
            Baseline::Leases { term } => leases(*term),
            Baseline::CheckOnEveryRead => leases(Dur::ZERO),
            Baseline::AndrewCallbacks { poll } => {
                let mut cfg = cfg.clone();
                cfg.client.anticipatory = *poll;
                run_custom(&cfg, trace, AndrewServer::new())
            }
            Baseline::NfsTtl { ttl } => run_custom(cfg, trace, NfsServer::new(*ttl)),
        }
    }
}

/// Runs `server` against the lease caches on `lease-vsys`'s actors.
fn run_custom(
    cfg: &SystemConfig,
    trace: &Trace,
    server: impl SimServer<Up = ToServer<Res, Data>, Down = ToClient<Res, Data>>,
) -> (RunReport, SharedHistory) {
    let new_cache = |id| LeaseClient::new(id, cfg.client.clone());
    let mut h = assemble(cfg, trace, new_cache, server);
    (h.run(cfg.drain), h.history)
}
