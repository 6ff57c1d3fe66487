//! NFS-style TTL caching (§6): consistency not guaranteed.
//!
//! "Other systems have avoided the consistency problem by either not
//! guaranteeing consistency, as done by NFS [...]". The server is
//! stateless: it answers fetches with the data and a fixed time-to-live,
//! keeps no record of who caches what, and commits writes immediately
//! without invalidating anyone. A client may therefore serve data up to a
//! TTL stale — which the consistency oracle duly reports.

use lease_clock::{Dur, Time};
use lease_core::{ClientId, ErrorReason, FxMap, ReqId, Storage, ToClient, ToServer, Version};
use lease_vsys::{Data, Res, ServerEffect, ServerEvent, SimServer, Store};

/// The stateless TTL server, sans-IO: `lease-vsys`'s `ServerActor`
/// drives it.
#[derive(Debug)]
pub struct NfsServer {
    ttl: Dur,
    /// Duplicate-write suppression (NFS servers kept a reply cache too),
    /// keyed by the simulated clients' own request ids.
    recent_writes: FxMap<(ClientId, ReqId), Version>,
}

impl NfsServer {
    /// A server that grants every read for `ttl`.
    pub fn new(ttl: Dur) -> NfsServer {
        NfsServer {
            ttl,
            recent_writes: FxMap::default(),
        }
    }
}

impl SimServer for NfsServer {
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
        // The TTL server sets no timers.
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
                let mut grants: Vec<_> = also_extend
                    .into_iter()
                    .filter_map(|(r, v, _)| crate::grant(storage, r, Some(v), self.ttl))
                    .collect();
                let reply = match crate::grant(storage, resource, cached, self.ttl) {
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
                let grants: Vec<_> = resources
                    .into_iter()
                    .filter_map(|(r, v, _)| crate::grant(storage, r, Some(v), self.ttl))
                    .collect();
                if !grants.is_empty() {
                    out.push(ServerEffect::Send(client, ToClient::Grants { req, grants }));
                }
            }
            ToServer::Write {
                req,
                resource,
                data,
            } => {
                let version = match self.recent_writes.get(&(client, req)) {
                    Some(v) => *v,
                    None => {
                        let v = storage.write(&resource, data);
                        out.push(ServerEffect::Commit(resource, v, Some(client)));
                        self.recent_writes.insert((client, req), v);
                        v
                    }
                };
                out.push(ServerEffect::Send(
                    client,
                    ToClient::WriteDone {
                        req,
                        resource,
                        version,
                        term: self.ttl,
                    },
                ));
            }
            // No state, nothing to approve or relinquish.
            ToServer::Approve { .. } | ToServer::Relinquish { .. } => {}
        }
    }

    /// Stateless: a crash loses nothing, and the reply cache is kept.
    fn crash(&mut self) {}

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

    const TTL: Dur = Dur::from_secs(30);

    fn store() -> Store {
        let mut s = Store::default();
        s.insert(1, 0);
        s
    }

    fn msg(
        s: &mut NfsServer,
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

    fn write(req: u64) -> ToServer<Res, Data> {
        ToServer::Write {
            req: ReqId(req),
            resource: 1,
            data: 9,
        }
    }

    #[test]
    fn answers_with_its_ttl_and_never_invalidates() {
        let (mut s, mut storage) = (NfsServer::new(TTL), store());
        for c in 0..2 {
            let out = msg(
                &mut s,
                &mut storage,
                c,
                ToServer::Fetch {
                    req: ReqId(1),
                    resource: 1,
                    cached: None,
                    also_extend: Vec::new(),
                },
            );
            let [ServerEffect::Send(to, ToClient::Grants { grants, .. })] = &out[..] else {
                panic!("one grant reply expected: {out:?}");
            };
            assert_eq!(*to, ClientId(c));
            assert_eq!(grants.len(), 1);
            assert_eq!(grants[0].term, TTL);
        }
        let out = msg(&mut s, &mut storage, 1, write(2));
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!(
            out[0],
            ServerEffect::Commit(1, Version(2), Some(ClientId(1)))
        );
        assert!(matches!(
            out[1],
            ServerEffect::Send(ClientId(1), ToClient::WriteDone { term: TTL, .. })
        ));
    }

    #[test]
    fn a_retransmitted_write_commits_once() {
        let (mut s, mut storage) = (NfsServer::new(TTL), store());
        let first = msg(&mut s, &mut storage, 0, write(7));
        let again = msg(&mut s, &mut storage, 0, write(7));
        assert!(matches!(first[0], ServerEffect::Commit(1, Version(2), _)));
        // The retransmission is answered with the first write's version
        // and commits nothing.
        assert_eq!(again.len(), 1, "{again:?}");
        assert_eq!(again[0], first[1]);
        assert_eq!(storage.version(&1), Some(Version(2)));
        // Another client's request with the same id is another write.
        let other = msg(&mut s, &mut storage, 1, write(7));
        assert!(matches!(other[0], ServerEffect::Commit(1, Version(3), _)));
    }
}
