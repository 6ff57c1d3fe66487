//! The maximum granted term in one file (§5): what `net_server
//! --term-file` persists so that a restarted process can wait out every
//! lease its predecessor may have granted.
//!
//! [`term_file_hook`] is the write half. A process builds it once and
//! hands it to every shard as `SvcHooks::persist_max_term`, so one writer,
//! behind one lock, owns the file and its temporary. The file only ever
//! rises, and each write is crash-atomic: write the temporary, `fsync` it,
//! `rename` it over the file, then `fsync` the directory. After a crash
//! the file holds either the old term or the new one, never a torn one.

use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use lease_clock::Dur;

/// The term `path` holds: eight little-endian bytes of nanoseconds.
/// `None` if the file is missing or not eight bytes long.
pub fn read_term_file(path: &Path) -> Option<Dur> {
    let bytes = std::fs::read(path).ok()?;
    Some(Dur(u64::from_le_bytes(bytes.try_into().ok()?)))
}

/// A `persist_max_term` hook that keeps the maximum granted term in the
/// file at `path`; build one per process (see the
/// [module documentation](self)). A term at or below the one the file
/// holds is not written.
///
/// A term the hook cannot make durable ends the process: the grant that
/// asked for it must not go out, since no restart could honour it.
pub fn term_file_hook(path: &Path) -> Arc<dyn Fn(Dur) + Send + Sync> {
    let file = TermFile {
        path: path.to_path_buf(),
        tmp: PathBuf::from(format!("{}.tmp", path.display())),
        held: Mutex::new(read_term_file(path).unwrap_or(Dur::ZERO)),
    };
    Arc::new(move |d: Dur| {
        if let Err(e) = file.raise(d) {
            eprintln!(
                "term file {}: {e}; exiting rather than grant a term no restart could honour",
                file.path.display()
            );
            std::process::exit(1);
        }
    })
}

/// The one writer of a term file.
struct TermFile {
    path: PathBuf,
    tmp: PathBuf,
    /// The term the file holds. The lock is held across a write.
    held: Mutex<Dur>,
}

impl TermFile {
    /// Makes `d` the file's term if it is above the one the file holds.
    fn raise(&self, d: Dur) -> io::Result<()> {
        let mut held = self.held.lock().unwrap_or_else(PoisonError::into_inner);
        if d <= *held {
            return Ok(());
        }
        let mut tmp = File::create(&self.tmp)?;
        tmp.write_all(&d.as_nanos().to_le_bytes())?;
        tmp.sync_all()?;
        std::fs::rename(&self.tmp, &self.path)?;
        let dir = match self.path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
        *held = d;
        Ok(())
    }
}
