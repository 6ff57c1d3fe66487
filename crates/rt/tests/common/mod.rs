//! What the `NetClient` tests that go through the oracle share: a store
//! that logs its commits on the recorder's clock, and the merge of that
//! log into the recorded history.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use lease_clock::{Clock, Time};
use lease_core::{MemStorage, Storage, Version};
use lease_rt::NetClient;
use lease_vsys::{History, HistoryEvent};

pub type CommitLog = Arc<Mutex<Vec<(u64, Version, Time)>>>;

/// A store that notes every commit on the clock the clients' recorder
/// uses, so the oracle sees one timeline.
pub struct RecordingStore {
    pub inner: MemStorage<u64, Bytes>,
    pub clock: Arc<dyn Clock>,
    pub commits: CommitLog,
}

impl Storage<u64, Bytes> for RecordingStore {
    fn read(&self, resource: &u64) -> Option<(Bytes, Version)> {
        self.inner.read(resource)
    }

    fn version(&self, resource: &u64) -> Option<Version> {
        self.inner.version(resource)
    }

    fn write(&mut self, resource: &u64, data: Bytes) -> Version {
        let v = self.inner.write(resource, data);
        let at = self.clock.now();
        self.commits.lock().unwrap().push((*resource, v, at));
        v
    }
}

/// The fleet's recorded operations plus the store's commits: what
/// `lease_faults::check_history` judges.
pub fn history_with_commits(fleet: &NetClient, commits: &CommitLog) -> History {
    let mut history = fleet.recorder().snapshot();
    for &(resource, version, at) in commits.lock().unwrap().iter() {
        history.push(HistoryEvent::Commit {
            resource,
            version,
            writer: None,
            at,
        });
    }
    history
}
