//! System configuration for a simulated run.

use lease_clock::{ClockModel, Dur, Time};
use lease_core::ClientConfig;
use lease_faults::FaultPlan;
use lease_quorum::QuorumConfig;

use crate::params::NetParams;

/// How the server picks lease terms.
#[derive(Debug, Clone, PartialEq)]
pub enum TermSpec {
    /// The same term for every grant (0 = check-on-every-read,
    /// `Dur::MAX` = infinite).
    Fixed(Dur),
    /// The knee rule driven by observed per-file statistics (§4).
    Adaptive {
        /// Target residual extension-traffic fraction.
        theta: f64,
        /// Clamp bounds.
        min: Dur,
        /// Clamp bounds.
        max: Dur,
    },
    /// A fixed base term plus per-client compensation for distant clients
    /// (§4: "a lease given to a distant client could be increased to
    /// compensate"). Entries are `(client id, extra term)`.
    Compensated {
        /// The base term.
        base: Dur,
        /// Per-client additions.
        extra: Vec<(u32, Dur)>,
    },
}

/// How installed files are handled (§4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InstalledMode {
    /// Treat them like any other file: per-client leases.
    PerClient,
    /// The §4 optimization: directory-granularity coverage via periodic
    /// multicast extension, delayed update on write, no per-client records.
    Multicast {
        /// Extension period.
        tick: Dur,
        /// Term each multicast carries.
        term: Dur,
    },
}

/// Which node a fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSel {
    /// The file server.
    Server,
    /// Client `i` (0-based).
    Client(u32),
}

/// A scheduled crash (and optional restart).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    /// Crash instant (true time).
    pub at: Time,
    /// The victim.
    pub node: NodeSel,
    /// Restart instant, if the node comes back.
    pub recover_at: Option<Time>,
}

/// Full configuration of a simulated system run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Lease-term policy.
    pub term: TermSpec,
    /// Every client cache's configuration, handed to each
    /// [`LeaseClient`](lease_core::LeaseClient) unchanged.
    pub client: ClientConfig,
    /// Network timing.
    pub net: NetParams,
    /// Message loss, duplication, delay jitter, cut links, clock faults
    /// and replica kills: the plan the real-time runtime reads. The server
    /// is replica 0. A plan field the simulator cannot honour yet (shard
    /// kills, a slow shard, and without a quorum another replica's kill,
    /// cut or clock) is refused by
    /// [`assemble`](crate::assemble); its random draws come from the
    /// world's stream, seeded by `seed`.
    pub faults: FaultPlan,
    /// Replaces *the* server by `replicas` grantor replicas over the one
    /// primary storage, the right to grant held from a majority of them,
    /// as `RtSystemBuilder::quorum` does in the real-time runtime. `None`
    /// is the paper's single server.
    pub quorum: Option<QuorumConfig>,
    /// Extra one-way propagation per client (distant clients, §3.3/§4):
    /// `(client id, extra delay)`.
    pub extra_prop: Vec<(u32, Dur)>,
    /// Installed-file handling.
    pub installed: InstalledMode,
    /// Use persistent lease records instead of the max-term rule for
    /// server recovery.
    pub persistent_leases: bool,
    /// Measurements before this instant are discarded (cold-start).
    pub warmup: Dur,
    /// Scheduled crashes.
    pub crashes: Vec<CrashEvent>,
    /// RNG seed.
    pub seed: u64,
    /// Extra time to run after the last trace record, letting in-flight
    /// operations drain.
    pub drain: Dur,
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig {
            term: TermSpec::Fixed(Dur::from_secs(10)),
            client: ClientConfig {
                max_retries: 40,
                ..ClientConfig::default()
            },
            net: NetParams::v_lan(),
            faults: FaultPlan::default(),
            quorum: None,
            extra_prop: Vec::new(),
            installed: InstalledMode::PerClient,
            persistent_leases: false,
            warmup: Dur::ZERO,
            crashes: Vec::new(),
            seed: 42,
            drain: Dur::from_secs(120),
        }
    }
}

impl SystemConfig {
    /// The clock model for client `i` (perfect unless the plan sets one).
    pub fn client_clock(&self, i: usize) -> ClockModel {
        self.faults.client_clock(i).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ten_second_leases_on_v_lan() {
        let c = SystemConfig::default();
        assert_eq!(c.term, TermSpec::Fixed(Dur::from_secs(10)));
        assert_eq!(c.net, NetParams::v_lan());
        assert_eq!(c.faults.drop_prob, 0.0);
    }

    #[test]
    fn a_simulated_client_defaults_to_100_500_40() {
        assert_eq!(
            SystemConfig::default().client,
            ClientConfig {
                epsilon: Dur::from_millis(100),
                retry_interval: Dur::from_millis(500),
                max_retries: 40,
                ..ClientConfig::default()
            },
            "backoff, deadline and budget at their defaults"
        );
    }

    #[test]
    fn client_clock_defaults_to_perfect() {
        let mut c = SystemConfig::default();
        assert_eq!(c.client_clock(3), ClockModel::perfect());
        c.faults = c.faults.with_client_clock(0, ClockModel::skewed(5));
        assert_eq!(c.client_clock(0), ClockModel::skewed(5));
        assert_eq!(c.client_clock(1), ClockModel::perfect());
    }
}
