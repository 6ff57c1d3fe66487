//! One shard's protocol step, sans-IO: the lease server, the incarnation
//! it runs as and the serving session it answers for.
//!
//! A [`ShardCore`] is what both worlds drive as one shard of a lease
//! server: `lease-svc`'s shard thread and the simulator's server actor.
//! Each owns its clock, its timers and its I/O; the core owns every step
//! that decides *which* incarnation of the server is answering:
//!
//! * **The restart** ([`ShardCore::restart`]): a §5 crash and recovery in
//!   one step. Volatile state and counters go, the epoch moves on, and the
//!   server defers writes for the persisted maximum term. An injected
//!   shard kill is exactly this step.
//! * **The session check** ([`ShardCore::check_session`]): a replicated
//!   grantor's fresh acquisition starts a new serving session that can
//!   trust nothing the server knew before, so a shard that finds the
//!   session moved restarts before it serves.
//! * **The epoch tag.** Every outbound `ApprovalRequest` carries a
//!   service-global write id, `((local << EPOCH_BITS) | epoch) * shards +
//!   index`, so an approval routes back to its shard from anywhere, and an
//!   inbound `Approve` minted by an earlier incarnation approves nothing:
//!   its write died with that incarnation, and the writer retransmits.
//!
//! Timers stay with the host. The core emits `SetTimer` exactly as
//! [`LeaseServer`] does, with shard-local write ids; after a restart the
//! host drops every timer the old incarnation armed.

use lease_clock::{Dur, Time};

use crate::msg::{ToClient, ToServer};
use crate::server::{LeaseServer, ServerCounters, ServerInput, ServerOutput};
use crate::storage::Storage;
use crate::types::{ClientId, Resource, WriteId};

/// Bits of a global write id reserved for the shard's restart epoch: an
/// approval can tell the last 1024 incarnations apart, far more than can
/// be in flight at once.
const EPOCH_BITS: u32 = 10;
const EPOCH_MASK: u64 = (1 << EPOCH_BITS) - 1;

/// What a restart reads back from durable storage (§5): the persisted
/// maximum term and, under `RecoveryMode::PersistentRecords`, the lease
/// records.
pub type Persisted<R> = (Option<Dur>, Vec<(R, ClientId, Time)>);

/// One shard of a lease server: shard `index` of `shards`, in incarnation
/// `epoch`, answering for one serving session. See the
/// [module documentation](self).
pub struct ShardCore<R: Resource, D> {
    /// The lease server. A host reaches it for what it does beside the
    /// protocol: pruning, prefetch hints, the counters it owns.
    pub server: LeaseServer<R, D>,
    index: u64,
    shards: u64,
    epoch: u64,
    session: u64,
}

impl<R: Resource, D: Clone> ShardCore<R, D> {
    /// Shard `index` of `shards` running `server` as incarnation `epoch`,
    /// answering for `session`. The first incarnation starts as its server
    /// does (`LeaseServer::start`: nothing it sends carries a write id). A
    /// host that rebuilds a shard after a panic builds it as the
    /// incarnation that died and restarts it ([`Self::restart`]), so
    /// approvals minted before the panic stay void.
    pub fn new(
        server: LeaseServer<R, D>,
        index: u64,
        shards: u64,
        epoch: u64,
        session: u64,
    ) -> ShardCore<R, D> {
        ShardCore {
            server,
            index,
            shards,
            epoch,
            session,
        }
    }

    /// The incarnation this shard runs as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Crashes and comes back as the next incarnation (§5): the server's
    /// volatile state and counters are wiped, the epoch moves on, and the
    /// server recovers from `persisted`. An injected shard kill is this
    /// step. The host drops every timer the old incarnation armed before
    /// it applies what this returns.
    pub fn restart(
        &mut self,
        now: Time,
        persisted: Persisted<R>,
        store: &dyn Storage<R, D>,
    ) -> Vec<ServerOutput<R, D>> {
        self.server.crash();
        self.server.counters = ServerCounters::default();
        self.epoch = self.epoch.wrapping_add(1);
        let (max_term, leases) = persisted;
        let mut out = self.server.recover(now, max_term, leases, store);
        self.globalize(&mut out);
        out
    }

    /// The session check: once `session` is not the one this incarnation
    /// answers for, the shard restarts into it ([`Self::restart`], reading
    /// `persisted` only then) and returns what the restart asks for.
    /// `None`: the session stands.
    pub fn check_session(
        &mut self,
        now: Time,
        session: u64,
        persisted: impl FnOnce() -> Persisted<R>,
        store: &dyn Storage<R, D>,
    ) -> Option<Vec<ServerOutput<R, D>>> {
        if session == self.session {
            return None;
        }
        self.session = session;
        Some(self.restart(now, persisted(), store))
    }

    /// Handles one input, appending its effects to `out`: an `Approve`'s
    /// global write id is stripped back to the local one (an approval from
    /// another incarnation is dropped), and every `ApprovalRequest` the
    /// input produced leaves with a global one.
    pub fn handle_into(
        &mut self,
        now: Time,
        mut input: ServerInput<R, D>,
        store: &mut dyn Storage<R, D>,
        out: &mut Vec<ServerOutput<R, D>>,
    ) {
        if let ServerInput::Msg {
            msg: ToServer::Approve { write_id },
            ..
        } = &mut input
        {
            if write_id.0 & EPOCH_MASK != self.epoch & EPOCH_MASK {
                return;
            }
            write_id.0 >>= EPOCH_BITS;
        }
        let first = out.len();
        self.server.handle_into(now, input, store, out);
        self.globalize(&mut out[first..]);
    }

    /// Rewrites the write id of every `ApprovalRequest` in `outs` into the
    /// global namespace.
    fn globalize(&self, outs: &mut [ServerOutput<R, D>]) {
        for o in outs {
            if let ServerOutput::Send { msg, .. } | ServerOutput::Multicast { msg, .. } = o {
                if let ToClient::ApprovalRequest { write_id, .. } = msg {
                    let tagged = (write_id.0 << EPOCH_BITS) | (self.epoch & EPOCH_MASK);
                    *write_id = WriteId(tagged * self.shards + self.index);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemStorage, ReqId, ServerConfig};

    const TERM: Dur = Dur::from_secs(10);

    fn core(shards: u64, index: u64) -> (ShardCore<u64, u64>, MemStorage<u64, u64>) {
        let mut store = MemStorage::new();
        store.insert(7, 0);
        let server = LeaseServer::new(ServerConfig::fixed(TERM));
        (ShardCore::new(server, index, shards, 0, 0), store)
    }

    fn msg(from: u32, msg: ToServer<u64, u64>) -> ServerInput<u64, u64> {
        ServerInput::Msg {
            from: ClientId(from),
            msg,
        }
    }

    fn fetch(req: u64) -> ToServer<u64, u64> {
        ToServer::Fetch {
            req: ReqId(req),
            resource: 7,
            cached: None,
            also_extend: vec![],
        }
    }

    fn write(req: u64) -> ToServer<u64, u64> {
        ToServer::Write {
            req: ReqId(req),
            resource: 7,
            data: req,
        }
    }

    /// Steps `input` and returns the global write id it asked approval
    /// for, if any, and whether it committed a write.
    fn step(
        core: &mut ShardCore<u64, u64>,
        store: &mut MemStorage<u64, u64>,
        now: Time,
        input: ServerInput<u64, u64>,
    ) -> (Option<WriteId>, bool) {
        let mut out = Vec::new();
        core.handle_into(now, input, store, &mut out);
        let asked = out.iter().find_map(|o| match o {
            ServerOutput::Multicast {
                msg: ToClient::ApprovalRequest { write_id, .. },
                ..
            } => Some(*write_id),
            _ => None,
        });
        let committed = out
            .iter()
            .any(|o| matches!(o, ServerOutput::Committed { .. }));
        (asked, committed)
    }

    /// Shard 2 of 3 tags its approval requests with its index and epoch,
    /// and the approval that comes back commits the write.
    #[test]
    fn an_approval_routes_home_and_commits() {
        let (mut core, mut store) = core(3, 2);
        step(&mut core, &mut store, Time::ZERO, msg(1, fetch(1)));
        let (asked, _) = step(&mut core, &mut store, Time::ZERO, msg(2, write(2)));
        let global = asked.expect("deferred behind client 1's lease");
        assert_eq!(global.0 % 3, 2, "the shard index rides the id");
        let local = global.0 / 3;
        assert_eq!(local & EPOCH_MASK, 0, "epoch 0");
        let approve = msg(
            1,
            ToServer::Approve {
                write_id: WriteId(local),
            },
        );
        assert_eq!(
            step(&mut core, &mut store, Time::ZERO, approve),
            (None, true)
        );
    }

    /// A restart bumps the epoch: an approval minted before it approves
    /// nothing, and the server defers writes for the persisted term.
    #[test]
    fn a_restart_voids_old_approvals_and_waits_out_the_max_term() {
        let (mut core, mut store) = core(1, 0);
        step(&mut core, &mut store, Time::ZERO, msg(1, fetch(1)));
        let (asked, _) = step(&mut core, &mut store, Time::ZERO, msg(2, write(2)));
        let stale = asked.expect("deferred");
        core.server.counters.sheds = 5;
        let now = Time::from_secs(1);
        core.restart(now, (Some(TERM), Vec::new()), &store);
        assert_eq!(core.epoch(), 1);
        assert_eq!(core.server.counters.sheds, 0, "counters start again");
        let approve = msg(1, ToServer::Approve { write_id: stale });
        assert_eq!(step(&mut core, &mut store, now, approve), (None, false));
        assert_eq!(core.server.counters.approvals_rx, 0, "dropped unseen");
        // The new incarnation knows no lease, yet waits out the term.
        assert!(!step(&mut core, &mut store, now, msg(2, write(3))).1);
        assert!(core.server.write_pending(7));
    }

    /// The session check restarts once per new session, reading what was
    /// persisted only then.
    #[test]
    fn the_session_check_restarts_once_per_session() {
        let (mut core, store) = core(1, 0);
        let mut reads = 0;
        let mut check = |core: &mut ShardCore<u64, u64>, session| {
            let persisted = || {
                reads += 1;
                (Some(TERM), Vec::new())
            };
            core.check_session(Time::ZERO, session, persisted, &store)
                .is_some()
        };
        assert!(!check(&mut core, 0));
        assert!(check(&mut core, 1));
        assert!(!check(&mut core, 1));
        assert_eq!((core.epoch(), reads), (1, 1));
    }
}
