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

use std::collections::{HashMap, HashSet};

use lease_clock::{Dur, Time};
use lease_core::{ClientId, Grant, LeaseHandle, Storage, ToClient, ToServer, WriteId};
use lease_sim::{Actor, ActorId, Ctx};
use lease_vsys::{HistoryEvent, NetMsg, Res, SharedHistory, Store};

/// The Andrew-style callback server.
pub struct AndrewServerActor {
    storage: Store,
    /// Callback promises: resource -> clients to notify on write.
    callbacks: HashMap<Res, HashSet<ClientId>>,
    clients: Vec<ActorId>,
    history: SharedHistory,
    warmup: Time,
    next_write: u64,
}

impl AndrewServerActor {
    /// Creates the server. `clients[i]` is client `i`'s actor id.
    pub fn new(
        storage: Store,
        clients: Vec<ActorId>,
        history: SharedHistory,
        warmup: Time,
    ) -> AndrewServerActor {
        AndrewServerActor {
            storage,
            callbacks: HashMap::new(),
            clients,
            history,
            warmup,
            next_write: 0,
        }
    }

    fn client_of(&self, a: ActorId) -> Option<ClientId> {
        self.clients
            .iter()
            .position(|x| *x == a)
            .map(|i| ClientId(i as u32))
    }

    fn grant(
        &mut self,
        client: ClientId,
        resource: Res,
        cached: Option<lease_core::Version>,
    ) -> Option<Grant<Res, u64>> {
        let (data, version) = self.storage.read(&resource)?;
        self.callbacks.entry(resource).or_default().insert(client);
        let data = if cached == Some(version) {
            None
        } else {
            Some(data)
        };
        // A callback promise is an infinite-term lease.
        Some(Grant {
            resource,
            version,
            data,
            term: Dur::MAX,
            handle: LeaseHandle::NULL,
        })
    }
}

impl Actor<NetMsg> for AndrewServerActor {
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
                    if let Some(g) = self.grant(client, r, Some(v)) {
                        grants.push(g);
                    }
                }
                match self.grant(client, resource, cached) {
                    Some(g) => grants.push(g),
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
                        return;
                    }
                }
                if measuring {
                    ctx.metrics().inc("srv.tx.grants");
                }
                ctx.send(from, NetMsg::ToClient(ToClient::Grants { req, grants }));
            }
            ToServer::Renew { req, resources } => {
                // The Andrew poll: revalidate everything the client holds.
                if measuring {
                    ctx.metrics().inc("srv.rx.renew");
                }
                let mut grants = Vec::new();
                for (r, v, _) in resources {
                    if let Some(g) = self.grant(client, r, Some(v)) {
                        grants.push(g);
                    }
                }
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
                if measuring {
                    ctx.metrics().inc("srv.rx.write");
                }
                // Commit immediately: the server never waits for anyone.
                let replaced = self
                    .storage
                    .version(&resource)
                    .unwrap_or(lease_core::Version(0));
                let version = self.storage.write(&resource, data);
                self.history.borrow_mut().push(HistoryEvent::Commit {
                    resource,
                    version,
                    writer: Some(client),
                    at: ctx.now(),
                });
                // Break callbacks best-effort; a lost message = stale cache.
                let write_id = WriteId(self.next_write);
                self.next_write += 1;
                if let Some(holders) = self.callbacks.remove(&resource) {
                    let others: Vec<ActorId> = holders
                        .into_iter()
                        .filter(|c| *c != client)
                        .map(|c| self.clients[c.0 as usize])
                        .collect();
                    if !others.is_empty() {
                        if measuring {
                            ctx.metrics().inc("srv.tx.approval_req");
                        }
                        ctx.multicast(
                            others,
                            NetMsg::ToClient(ToClient::ApprovalRequest {
                                write_id,
                                resource,
                                replaces: replaced,
                            }),
                        );
                    }
                }
                // The writer keeps a (new) callback promise on its copy.
                self.callbacks.entry(resource).or_default().insert(client);
                if measuring {
                    ctx.metrics().inc("srv.tx.write_done");
                }
                ctx.send(
                    from,
                    NetMsg::ToClient(ToClient::WriteDone {
                        req,
                        resource,
                        version,
                        term: Dur::MAX,
                    }),
                );
            }
            ToServer::Approve { .. } => {
                // Invalidations need no acknowledgement here.
                if measuring {
                    ctx.metrics().inc("srv.rx.approve");
                }
            }
            ToServer::Relinquish { resources } => {
                if measuring {
                    ctx.metrics().inc("srv.rx.relinquish");
                }
                for r in resources {
                    if let Some(set) = self.callbacks.get_mut(&r) {
                        set.remove(&client);
                    }
                }
            }
        }
    }

    fn on_crash(&mut self, _at: Time) {
        // Callback state is volatile — the real Andrew server rebuilt it by
        // breaking all promises on recovery; we simply lose it, which is
        // the unsafe direction and shows up as staleness under the oracle.
        self.callbacks.clear();
    }
}
