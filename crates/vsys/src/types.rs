//! Shared type aliases and the wire message enum.

use std::hash::BuildHasherDefault;

use lease_core::{FxHasher, MemStorage, ToClient, ToServer};
use lease_quorum::QuorumMsg;

/// The leased resource key: the trace's file id (regular files, installed
/// files, and directories alike — a directory read models the name lookup
/// an `open` needs, §2). The history's own alias, not a second one.
pub use lease_faults::Res;

/// File contents, reduced to an opaque token: the experiments measure
/// message counts and delays, which do not depend on payload bytes. Write
/// tokens are unique per (client, sequence) so the oracle can correlate.
pub type Data = u64;

/// The simulated server's primary storage. Fx-hashed: the simulator picks
/// every key (the trace's file ids), so no peer can aim keys at one
/// bucket, and a piggybacked renewal's store lookup costs a multiply
/// instead of a SipHash (`lease_core::hash`, "who picks the keys decides
/// the hasher"). A real server's store keeps `MemStorage`'s default,
/// `RandomState`.
pub type Store = MemStorage<Res, Data, BuildHasherDefault<FxHasher>>;

/// Everything that crosses the simulated network: one protocol's
/// client-to-server messages `U` and server-to-client messages `D`, and
/// under a quorum the grantor election between the replicas. The defaults
/// are the lease protocol's; the write-back tokens of `lease-wb` fill in
/// their own.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMsg<U = ToServer<Res, Data>, D = ToClient<Res, Data>> {
    /// Client-to-server protocol messages.
    ToServer(U),
    /// Server-to-client protocol messages.
    ToClient(D),
    /// Replica-to-replica grantor election messages.
    Quorum(QuorumMsg),
}

#[cfg(test)]
mod tests {
    use super::*;
    use lease_core::ReqId;

    #[test]
    fn netmsg_wraps_both_directions() {
        let up = NetMsg::ToServer(ToServer::Relinquish { resources: vec![1] });
        let down: NetMsg = NetMsg::ToClient(ToClient::Error {
            req: ReqId(1),
            reason: lease_core::ErrorReason::NoSuchResource,
        });
        assert_ne!(up, down);
    }
}
