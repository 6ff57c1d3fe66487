//! The grantor election alone in the file-system simulator: a quorum of
//! lease-server replicas, one idle client, and a fault plan.

#![allow(dead_code)] // Each test binary that includes this uses a part.

use lease_clock::{Dur, Time};
use lease_faults::{FaultPlan, History, HistoryEvent};
use lease_quorum::QuorumConfig;
use lease_vsys::{build_world, SystemConfig};
use lease_workload::Trace;

/// What one election-only run produced.
pub struct Outcome {
    /// The grantor claim history, on the true timeline.
    pub history: History,
    /// Election messages the replicas sent, before drops and duplicates.
    pub messages_sent: u64,
    /// Grantor(-lease) acquisitions, renewals included.
    pub acquisitions: usize,
}

/// The run of `quorum` under `plan` for `duration` of true time.
pub fn config(quorum: QuorumConfig, plan: FaultPlan, duration: Dur) -> SystemConfig {
    SystemConfig {
        quorum: Some(quorum),
        faults: plan,
        drain: duration,
        ..SystemConfig::default()
    }
}

/// Runs `cfg` with no file traffic.
pub fn run_cfg(cfg: &SystemConfig) -> Outcome {
    let mut h = build_world(cfg, &Trace::new(Vec::new(), Vec::new()));
    h.run(cfg.drain);
    let history = h.history.borrow().clone();
    let messages_sent = h.tally.borrow().quorum_msgs;
    let acquisitions = history
        .events
        .iter()
        .filter(|e| matches!(e, HistoryEvent::GrantorAcquired { .. }))
        .count();
    Outcome {
        history,
        messages_sent,
        acquisitions,
    }
}

/// Runs `quorum` under `plan` for `duration`.
pub fn run(quorum: QuorumConfig, plan: FaultPlan, duration: Dur) -> Outcome {
    run_cfg(&config(quorum, plan, duration))
}

/// Runs the default quorum under `plan` for `duration`.
pub fn run_default(plan: FaultPlan, duration: Dur) -> Outcome {
    run(QuorumConfig::default(), plan, duration)
}

/// The replicas that acquired a claim after `after`, in order.
pub fn acquired_after(history: &History, after: Time) -> Vec<u32> {
    history
        .events
        .iter()
        .filter_map(|e| match e {
            HistoryEvent::GrantorAcquired { replica, at, .. } if *at > after => Some(*replica),
            _ => None,
        })
        .collect()
}
