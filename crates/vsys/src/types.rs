//! Shared type aliases and the wire message enum.

use lease_core::{ToClient, ToServer};

/// The leased resource key: the trace's file id (regular files, installed
/// files, and directories alike — a directory read models the name lookup
/// an `open` needs, §2).
pub type Res = u64;

/// File contents, reduced to an opaque token: the experiments measure
/// message counts and delays, which do not depend on payload bytes. Write
/// tokens are unique per (client, sequence) so the oracle can correlate.
pub type Data = u64;

/// Everything that crosses the simulated network: one protocol's
/// client-to-server messages `U` and server-to-client messages `D`. The
/// defaults are the lease protocol's; the write-back tokens of `lease-wb`
/// fill in their own.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMsg<U = ToServer<Res, Data>, D = ToClient<Res, Data>> {
    /// Client-to-server protocol messages.
    ToServer(U),
    /// Server-to-client protocol messages.
    ToClient(D),
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
