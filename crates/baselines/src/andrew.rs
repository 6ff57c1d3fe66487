//! The revised Andrew file system's callback scheme (§6).
//!
//! "The later Andrew file system basically uses an infinite term, relying
//! on the server to notify the client when cached data is changed. If
//! communication with a client fails (at the transport level), the server
//! allows updates to proceed, possibly leaving the client operating on
//! stale data. [...] polling with a period of ten minutes is used to limit
//! the interval for which inconsistent data may be used."
//!
//! The server speaks the same wire messages as the lease server, so the
//! unmodified `lease-vsys` client cache runs against it: grants carry an
//! infinite term (a callback promise), invalidations reuse the
//! `ApprovalRequest` message (the client invalidates and replies; the
//! reply is ignored), and the Andrew poll is the client's anticipatory
//! renewal timer.

use lease_clock::{Dur, Time};
use lease_core::{
    ClientId, ErrorReason, FxMap, FxSet, Grant, Storage, ToClient, ToServer, Version, WriteId,
};
use lease_vsys::{Data, Res, ServerEffect, ServerEvent, SimServer, Store};

/// The Andrew-style callback server, sans-IO: `lease-vsys`'s
/// `ServerActor` drives it.
#[derive(Debug, Default)]
pub struct AndrewServer {
    /// Callback promises: resource -> clients to notify on write. Keyed
    /// by the trace's file ids, so Fx-hashed, and the multicast's
    /// recipient order is the same in every process.
    callbacks: FxMap<Res, FxSet<ClientId>>,
    next_write: u64,
}

impl AndrewServer {
    /// A server that has promised nothing yet.
    pub fn new() -> AndrewServer {
        AndrewServer::default()
    }

    /// Grants `resource` to `client` with a callback promise, or `None`
    /// if no such file exists.
    fn grant(
        &mut self,
        storage: &Store,
        client: ClientId,
        resource: Res,
        cached: Option<Version>,
    ) -> Option<Grant<Res, Data>> {
        // A callback promise is an infinite-term lease.
        let g = crate::grant(storage, resource, cached, Dur::MAX)?;
        self.callbacks.entry(resource).or_default().insert(client);
        Some(g)
    }
}

impl SimServer for AndrewServer {
    type Up = ToServer<Res, Data>;
    type Down = ToClient<Res, Data>;
    type Output = ServerEffect<Self::Down>;

    fn handle_into(
        &mut self,
        _now: Time,
        event: ServerEvent<Self::Up>,
        storage: &mut Store,
        out: &mut Vec<Self::Output>,
    ) {
        // The callback server sets no timers.
        let ServerEvent::Msg(client, msg) = event else {
            return;
        };
        match msg {
            ToServer::Fetch {
                req,
                resource,
                cached,
                also_extend,
            } => {
                let mut grants = Vec::new();
                for (r, v, _) in also_extend {
                    if let Some(g) = self.grant(storage, client, r, Some(v)) {
                        grants.push(g);
                    }
                }
                let reply = match self.grant(storage, client, resource, cached) {
                    Some(g) => {
                        grants.push(g);
                        ToClient::Grants { req, grants }
                    }
                    None => ToClient::Error {
                        req,
                        reason: ErrorReason::NoSuchResource,
                    },
                };
                out.push(ServerEffect::Send(client, reply));
            }
            ToServer::Renew { req, resources } => {
                // The Andrew poll: revalidate everything the client holds.
                let mut grants = Vec::new();
                for (r, v, _) in resources {
                    if let Some(g) = self.grant(storage, client, r, Some(v)) {
                        grants.push(g);
                    }
                }
                if !grants.is_empty() {
                    out.push(ServerEffect::Send(client, ToClient::Grants { req, grants }));
                }
            }
            ToServer::Write {
                req,
                resource,
                data,
            } => {
                // Commit immediately: the server never waits for anyone.
                let replaces = storage.version(&resource).unwrap_or(Version(0));
                let version = storage.write(&resource, data);
                out.push(ServerEffect::Commit(resource, version, Some(client)));
                // Break callbacks best-effort; a lost message = stale cache.
                let write_id = WriteId(self.next_write);
                self.next_write += 1;
                if let Some(holders) = self.callbacks.remove(&resource) {
                    let others: Vec<ClientId> =
                        holders.into_iter().filter(|c| *c != client).collect();
                    if !others.is_empty() {
                        out.push(ServerEffect::Multicast(
                            others,
                            ToClient::ApprovalRequest {
                                write_id,
                                resource,
                                replaces,
                            },
                        ));
                    }
                }
                // The writer keeps a (new) callback promise on its copy.
                self.callbacks.entry(resource).or_default().insert(client);
                out.push(ServerEffect::Send(
                    client,
                    ToClient::WriteDone {
                        req,
                        resource,
                        version,
                        term: Dur::MAX,
                    },
                ));
            }
            // Invalidations need no acknowledgement here.
            ToServer::Approve { .. } => {}
            ToServer::Relinquish { resources } => {
                for r in resources {
                    if let Some(set) = self.callbacks.get_mut(&r) {
                        set.remove(&client);
                    }
                }
            }
        }
    }

    fn crash(&mut self) {
        // Callback state is volatile — the real Andrew server rebuilt it by
        // breaking all promises on recovery; we simply lose it, which is
        // the unsafe direction and shows up as staleness under the oracle.
        self.callbacks.clear();
    }

    fn recover(
        &mut self,
        _now: Time,
        _max_term: Option<Dur>,
        _leases: Vec<(Res, ClientId, Time)>,
        _storage: &Store,
    ) -> Vec<Self::Output> {
        Vec::new()
    }

    fn effect(out: Self::Output) -> ServerEffect<Self::Down> {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lease_core::ReqId;

    fn store() -> Store {
        let mut s = Store::default();
        s.insert(1, 0);
        s
    }

    fn msg(
        s: &mut AndrewServer,
        storage: &mut Store,
        from: u32,
        m: ToServer<Res, Data>,
    ) -> Vec<ServerEffect<ToClient<Res, Data>>> {
        let mut out = Vec::new();
        s.handle_into(
            Time::ZERO,
            ServerEvent::Msg(ClientId(from), m),
            storage,
            &mut out,
        );
        out
    }

    fn fetch(req: u64) -> ToServer<Res, Data> {
        ToServer::Fetch {
            req: ReqId(req),
            resource: 1,
            cached: None,
            also_extend: Vec::new(),
        }
    }

    fn write(req: u64) -> ToServer<Res, Data> {
        ToServer::Write {
            req: ReqId(req),
            resource: 1,
            data: 9,
        }
    }

    #[test]
    fn a_write_commits_then_invalidates_only_the_other_holders() {
        let (mut s, mut storage) = (AndrewServer::new(), store());
        for c in 0..3 {
            msg(&mut s, &mut storage, c, fetch(1));
        }
        let out = msg(&mut s, &mut storage, 1, write(2));
        let v = Version(2);
        assert_eq!(out.len(), 3, "{out:?}");
        assert_eq!(out[0], ServerEffect::Commit(1, v, Some(ClientId(1))));
        let ServerEffect::Multicast(mut to, ToClient::ApprovalRequest { replaces, .. }) =
            out[1].clone()
        else {
            panic!("expected the invalidation second: {out:?}");
        };
        to.sort();
        assert_eq!(to, vec![ClientId(0), ClientId(2)]);
        assert_eq!(replaces, Version(1));
        assert!(matches!(
            out[2],
            ServerEffect::Send(ClientId(1), ToClient::WriteDone { version, term: Dur::MAX, .. })
                if version == v
        ));
        // Only the writer's promise survives: its next write invalidates
        // nobody.
        let out = msg(&mut s, &mut storage, 1, write(3));
        assert!(!out.iter().any(|e| matches!(e, ServerEffect::Multicast(..))));
    }

    #[test]
    fn crash_forgets_every_promise() {
        let (mut s, mut storage) = (AndrewServer::new(), store());
        msg(&mut s, &mut storage, 0, fetch(1));
        s.crash();
        assert!(s.recover(Time::ZERO, None, Vec::new(), &storage).is_empty());
        let out = msg(&mut s, &mut storage, 1, write(2));
        assert!(
            !out.iter().any(|e| matches!(e, ServerEffect::Multicast(..))),
            "client 0's promise was volatile: {out:?}"
        );
    }
}
