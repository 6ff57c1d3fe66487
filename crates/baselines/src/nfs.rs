//! NFS-style TTL caching (§6): consistency not guaranteed.
//!
//! "Other systems have avoided the consistency problem by either not
//! guaranteeing consistency, as done by NFS [...]". The server is
//! stateless: it answers fetches with the data and a fixed time-to-live,
//! keeps no record of who caches what, and commits writes immediately
//! without invalidating anyone. A client may therefore serve data up to a
//! TTL stale — which the consistency oracle duly reports.

use std::collections::HashMap;

use lease_clock::{Dur, Time};
use lease_core::{ClientId, Grant, LeaseHandle, Storage, ToClient, ToServer, Version};
use lease_faults::{HistoryEvent, SharedHistory};
use lease_sim::{Actor, ActorId, Ctx};
use lease_vsys::{NetMsg, Res, Store};

/// The stateless TTL server.
pub struct NfsServerActor {
    storage: Store,
    ttl: Dur,
    clients: Vec<ActorId>,
    history: SharedHistory,
    warmup: Time,
    /// Duplicate-write suppression (NFS servers kept a reply cache too).
    recent_writes: HashMap<(ClientId, lease_core::ReqId), Version>,
}

impl NfsServerActor {
    /// Creates the server with the given time-to-live.
    pub fn new(
        storage: Store,
        ttl: Dur,
        clients: Vec<ActorId>,
        history: SharedHistory,
        warmup: Time,
    ) -> NfsServerActor {
        NfsServerActor {
            storage,
            ttl,
            clients,
            history,
            warmup,
            recent_writes: HashMap::new(),
        }
    }

    fn client_of(&self, a: ActorId) -> Option<ClientId> {
        self.clients
            .iter()
            .position(|x| *x == a)
            .map(|i| ClientId(i as u32))
    }

    fn grant(&self, resource: Res, cached: Option<Version>) -> Option<Grant<Res, u64>> {
        let (data, version) = self.storage.read(&resource)?;
        let data = if cached == Some(version) {
            None
        } else {
            Some(data)
        };
        Some(Grant {
            resource,
            version,
            data,
            term: self.ttl,
            handle: LeaseHandle::NULL,
        })
    }
}

impl Actor<NetMsg> for NfsServerActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, NetMsg>, from: ActorId, msg: NetMsg) {
        let NetMsg::ToServer(msg) = msg else {
            return;
        };
        let Some(client) = self.client_of(from) else {
            return;
        };
        let measuring = ctx.now() >= self.warmup;
        match msg {
            ToServer::Fetch {
                req,
                resource,
                cached,
                also_extend,
            } => {
                if measuring {
                    ctx.metrics().inc("srv.rx.fetch");
                }
                let mut grants = Vec::new();
                for (r, v, _) in also_extend {
                    if let Some(g) = self.grant(r, Some(v)) {
                        grants.push(g);
                    }
                }
                match self.grant(resource, cached) {
                    Some(g) => {
                        grants.push(g);
                        if measuring {
                            ctx.metrics().inc("srv.tx.grants");
                        }
                        ctx.send(from, NetMsg::ToClient(ToClient::Grants { req, grants }));
                    }
                    None => {
                        if measuring {
                            ctx.metrics().inc("srv.tx.error");
                        }
                        ctx.send(
                            from,
                            NetMsg::ToClient(ToClient::Error {
                                req,
                                reason: lease_core::ErrorReason::NoSuchResource,
                            }),
                        );
                    }
                }
            }
            ToServer::Renew { req, resources } => {
                if measuring {
                    ctx.metrics().inc("srv.rx.renew");
                }
                let grants: Vec<_> = resources
                    .into_iter()
                    .filter_map(|(r, v, _)| self.grant(r, Some(v)))
                    .collect();
                if !grants.is_empty() {
                    if measuring {
                        ctx.metrics().inc("srv.tx.grants");
                    }
                    ctx.send(from, NetMsg::ToClient(ToClient::Grants { req, grants }));
                }
            }
            ToServer::Write {
                req,
                resource,
                data,
            } => {
                let version = if let Some(v) = self.recent_writes.get(&(client, req)) {
                    *v
                } else {
                    if measuring {
                        ctx.metrics().inc("srv.rx.write");
                    }
                    let v = self.storage.write(&resource, data);
                    self.history.borrow_mut().push(HistoryEvent::Commit {
                        resource,
                        version: v,
                        writer: Some(client),
                        at: ctx.now(),
                    });
                    self.recent_writes.insert((client, req), v);
                    v
                };
                if measuring {
                    ctx.metrics().inc("srv.tx.write_done");
                }
                ctx.send(
                    from,
                    NetMsg::ToClient(ToClient::WriteDone {
                        req,
                        resource,
                        version,
                        term: self.ttl,
                    }),
                );
            }
            // No state, nothing to approve or relinquish.
            ToServer::Approve { .. } | ToServer::Relinquish { .. } => {}
        }
    }
}
