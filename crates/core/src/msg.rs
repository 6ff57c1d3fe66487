//! Wire messages between client caches and the server.

use lease_clock::{Dur, Time};

use crate::types::{LeaseHandle, ReqId, Version, WriteId};

/// Messages from a client cache to the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ToServer<R, D> {
    /// Fetch or revalidate `resource` and grant a lease on it.
    ///
    /// `cached` carries the client's cached version so the server can reply
    /// without data when nothing changed. `also_extend` piggybacks
    /// extension of every held lease that is due — the batching the paper
    /// recommends ("a cache should extend together all leases over all
    /// files that it still holds", §3.1), minus the leases extended so
    /// recently that doing it again gains nothing. Each entry echoes the
    /// [`LeaseHandle`] from the lease's last grant so the server can renew
    /// with one slab load; [`LeaseHandle::NULL`] means "look it up".
    Fetch {
        /// Request id echoed in the reply.
        req: ReqId,
        /// The resource the client needs now.
        resource: R,
        /// The version the client holds, if any.
        cached: Option<Version>,
        /// Other held leases that are due for extension.
        also_extend: Vec<(R, Version, LeaseHandle)>,
    },
    /// Anticipatory renewal of held leases (§4 option); no op waits on it.
    Renew {
        /// Request id echoed in the reply.
        req: ReqId,
        /// Held leases to extend, each echoing its last grant's handle.
        resources: Vec<(R, Version, LeaseHandle)>,
    },
    /// A write-through write. The request carries the writer's implicit
    /// approval of its own lease (§3.1, footnote 5).
    Write {
        /// Request id echoed in the reply.
        req: ReqId,
        /// The resource to write.
        resource: R,
        /// The new contents.
        data: D,
    },
    /// Approval of a pending write, sent in response to
    /// [`ToClient::ApprovalRequest`]. Granting approval invalidates the
    /// approver's cached copy and releases its lease on the datum.
    Approve {
        /// The write being approved.
        write_id: WriteId,
    },
    /// Voluntary release of leases (cache eviction).
    Relinquish {
        /// The resources released.
        resources: Vec<R>,
    },
}

/// One lease grant inside a [`ToClient::Grants`] reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Grant<R, D> {
    /// The covered resource.
    pub resource: R,
    /// Current version at the server.
    pub version: Version,
    /// Contents, omitted when the client's cached version is current.
    pub data: Option<D>,
    /// Lease term `t_s`, measured at the server from receipt of the
    /// request. A zero term grants the data but no caching rights.
    pub term: Dur,
    /// The server's cookie for this lease record. Echoing it on renewal
    /// (`also_extend` / [`ToServer::Renew`]) lets the server extend with
    /// one slab load; clients may always send [`LeaseHandle::NULL`]
    /// instead, and must treat the value as opaque.
    pub handle: LeaseHandle,
}

/// Messages from the server to a client cache.
#[derive(Debug, Clone, PartialEq)]
pub enum ToClient<R, D> {
    /// Reply to [`ToServer::Fetch`] or [`ToServer::Renew`]: one or more
    /// grants. A fetch whose target is blocked by a pending write may be
    /// answered in two parts: the piggybacked extensions immediately, the
    /// target grant once the write resolves.
    Grants {
        /// The request being answered.
        req: ReqId,
        /// The grants.
        grants: Vec<Grant<R, D>>,
    },
    /// A write committed; the writer also receives a fresh lease.
    WriteDone {
        /// The request being answered.
        req: ReqId,
        /// The written resource.
        resource: R,
        /// The committed version.
        version: Version,
        /// Fresh lease term for the writer's new copy.
        term: Dur,
    },
    /// Callback asking the leaseholder to approve a write (§2).
    ApprovalRequest {
        /// Id to echo in [`ToServer::Approve`].
        write_id: WriteId,
        /// The resource about to be written.
        resource: R,
        /// The version the pending write supersedes: after approving, the
        /// client must treat any copy with `version <= replaces` as stale
        /// (its barrier against in-flight pre-write grants).
        replaces: Version,
    },
    /// Periodic multicast extension of installed-file leases (§4).
    ///
    /// Unlike unicast grants, the client cannot anchor the term to a
    /// request it sent, so the message carries the server's send time and
    /// correctness relies on clocks synchronized within ε (§5).
    InstalledExtend {
        /// Covered resources with their current versions; a client whose
        /// cached version differs must invalidate instead of extending
        /// (the datum changed while its lease was expired).
        resources: Vec<(R, Version)>,
        /// Term measured from `sent_at`.
        term: Dur,
        /// Server-clock send time.
        sent_at: Time,
    },
    /// The server could not serve a request (e.g. unknown resource).
    Error {
        /// The failed request.
        req: ReqId,
        /// Human-readable reason.
        reason: ErrorReason,
    },
}

/// Why the server refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorReason {
    /// The resource does not exist in primary storage.
    NoSuchResource,
    /// The server is overloaded and refused to process the request at all.
    ///
    /// Distinct from transport backpressure (which means "the mailbox was
    /// full, retransmit the same bytes"): a shed request *was* accepted by
    /// the transport and then deliberately refused by admission control,
    /// and the client should pace itself by `retry_after` before trying
    /// again. Shedding a fetch never creates a consistency hazard — no
    /// lease is granted, so the client simply has no caching rights.
    Shed {
        /// Server-suggested pause before retrying.
        retry_after: Dur,
    },
}

impl<R, D> ToServer<R, D> {
    /// The request id, if this message carries one.
    pub fn req(&self) -> Option<ReqId> {
        match self {
            ToServer::Fetch { req, .. }
            | ToServer::Renew { req, .. }
            | ToServer::Write { req, .. } => Some(*req),
            ToServer::Approve { .. } | ToServer::Relinquish { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_extraction() {
        let m: ToServer<u64, Vec<u8>> = ToServer::Fetch {
            req: ReqId(7),
            resource: 1,
            cached: None,
            also_extend: vec![],
        };
        assert_eq!(m.req(), Some(ReqId(7)));
        let a: ToServer<u64, Vec<u8>> = ToServer::Approve {
            write_id: WriteId(1),
        };
        assert_eq!(a.req(), None);
    }
}
