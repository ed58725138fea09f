//! Pluggable persistence backends.
//!
//! [`Persistence`] is the narrow waist between the durability layer and
//! the outside world: named byte blobs with append, whole-blob read,
//! atomic replace, listing and removal. The WAL builds on `append`, the
//! snapshot store on `write_atomic`. Keeping the trait this small makes
//! the fault-injecting wrapper ([`crate::fault::TornWritePersistence`])
//! and the in-memory test backend trivial, and means the in-memory
//! serving path pays nothing: a runtime without a `Persistence` simply
//! has no durability code on its hot path.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use smdb_common::{Error, Result};

/// Named-blob storage: the durability layer's only I/O interface.
pub trait Persistence: Send + Sync {
    /// Appends `data` to blob `name`, creating it if absent.
    fn append(&self, name: &str, data: &[u8]) -> Result<()>;

    /// Reads blob `name` in full; `Ok(None)` when it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>>;

    /// Replaces blob `name` with `data` atomically: a reader never
    /// observes a partial write of the *new* content.
    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<()>;

    /// All blob names, sorted.
    fn list(&self) -> Result<Vec<String>>;

    /// Removes blob `name` (no-op when absent).
    fn remove(&self, name: &str) -> Result<()>;
}

fn io_err(op: &str, name: &str, e: std::io::Error) -> Error {
    Error::invalid(format!("persistence {op} '{name}': {e}"))
}

/// Checks a blob name is a plain file name (no path traversal).
fn check_name(name: &str) -> Result<()> {
    if name.is_empty() || name.contains('/') || name.contains('\\') || name == "." || name == ".." {
        return Err(Error::invalid(format!("invalid blob name '{name}'")));
    }
    Ok(())
}

/// Directory-backed persistence: one file per blob.
#[derive(Debug)]
pub struct DirPersistence {
    root: PathBuf,
}

impl DirPersistence {
    /// Opens (creating if needed) a directory as the blob root.
    pub fn open(root: impl AsRef<Path>) -> Result<DirPersistence> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)
            .map_err(|e| io_err("create root", &root.display().to_string(), e))?;
        Ok(DirPersistence { root })
    }

    fn path(&self, name: &str) -> Result<PathBuf> {
        check_name(name)?;
        Ok(self.root.join(name))
    }

    /// Makes a name just created or renamed under the root survive a
    /// crash: the file's own sync covers its bytes, not its directory
    /// entry.
    fn sync_root(&self) -> Result<()> {
        std::fs::File::open(&self.root)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| io_err("sync root", &self.root.display().to_string(), e))
    }
}

impl Persistence for DirPersistence {
    fn append(&self, name: &str, data: &[u8]) -> Result<()> {
        let path = self.path(name)?;
        let created = !path.exists();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open", name, e))?;
        file.write_all(data)
            .map_err(|e| io_err("append", name, e))?;
        // Durability of the *data* matters for the WAL contract; fsync
        // cost is irrelevant at the simulation's scale.
        file.sync_data().map_err(|e| io_err("sync", name, e))?;
        if created {
            self.sync_root()?;
        }
        Ok(())
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        let path = self.path(name)?;
        match std::fs::read(&path) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", name, e)),
        }
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<()> {
        let path = self.path(name)?;
        let tmp = self.root.join(format!("{name}.tmp"));
        {
            let mut file =
                std::fs::File::create(&tmp).map_err(|e| io_err("create tmp", name, e))?;
            file.write_all(data)
                .map_err(|e| io_err("write tmp", name, e))?;
            file.sync_data().map_err(|e| io_err("sync tmp", name, e))?;
        }
        std::fs::rename(&tmp, &path).map_err(|e| io_err("rename", name, e))?;
        // A caller that writes blob B after blob A returned relies on A's
        // name being durable first (a state snapshot names its base).
        self.sync_root()
    }

    fn list(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| io_err("list", &self.root.display().to_string(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list entry", "", e))?;
            if let Some(name) = entry.file_name().to_str() {
                if !name.ends_with(".tmp") {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn remove(&self, name: &str) -> Result<()> {
        let path = self.path(name)?;
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", name, e)),
        }
    }
}

/// In-memory persistence for tests: a mutex-guarded map of blobs.
#[derive(Debug, Default)]
pub struct MemPersistence {
    blobs: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemPersistence {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemPersistence::default()
    }

    fn lock(&self) -> Result<std::sync::MutexGuard<'_, BTreeMap<String, Vec<u8>>>> {
        self.blobs
            .lock()
            .map_err(|_| Error::invalid("mem persistence poisoned"))
    }

    /// Direct mutable access to a blob's bytes, for tests that corrupt
    /// durable state in place (torn-write fixtures). `Ok(None)` when
    /// the blob does not exist.
    pub fn mutate(&self, name: &str, f: impl FnOnce(&mut Vec<u8>)) -> Result<bool> {
        let mut blobs = self.lock()?;
        match blobs.get_mut(name) {
            Some(data) => {
                f(data);
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

impl Persistence for MemPersistence {
    fn append(&self, name: &str, data: &[u8]) -> Result<()> {
        check_name(name)?;
        self.lock()?
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        check_name(name)?;
        Ok(self.lock()?.get(name).cloned())
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<()> {
        check_name(name)?;
        self.lock()?.insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>> {
        Ok(self.lock()?.keys().cloned().collect())
    }

    fn remove(&self, name: &str) -> Result<()> {
        check_name(name)?;
        self.lock()?.remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(p: &dyn Persistence) {
        assert_eq!(p.read("wal").unwrap(), None);
        p.append("wal", b"ab").unwrap();
        p.append("wal", b"cd").unwrap();
        assert_eq!(p.read("wal").unwrap().unwrap(), b"abcd");
        p.write_atomic("snap-1", b"state").unwrap();
        p.write_atomic("snap-1", b"state2").unwrap();
        assert_eq!(p.read("snap-1").unwrap().unwrap(), b"state2");
        let names = p.list().unwrap();
        assert_eq!(names, vec!["snap-1".to_string(), "wal".to_string()]);
        p.remove("snap-1").unwrap();
        p.remove("snap-1").unwrap(); // idempotent
        assert_eq!(p.list().unwrap(), vec!["wal".to_string()]);
    }

    #[test]
    fn mem_persistence_contract() {
        exercise(&MemPersistence::new());
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smdb-durable-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dir_persistence_contract() {
        let dir = temp_dir("contract");
        let p = DirPersistence::open(&dir).unwrap();
        exercise(&p);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_writes_are_visible_to_a_fresh_handle() {
        let dir = temp_dir("reopen");
        let p = DirPersistence::open(&dir).unwrap();
        p.write_atomic("base-1", b"tables").unwrap();
        p.write_atomic("base-1", b"tables2").unwrap();
        p.append("wal", b"ab").unwrap();
        p.append("wal", b"cd").unwrap();
        // A temp file a crashed write left behind is not a blob.
        std::fs::write(dir.join("snap-1.tmp"), b"half").unwrap();
        drop(p);
        let reopened = DirPersistence::open(&dir).unwrap();
        assert_eq!(reopened.list().unwrap(), ["base-1", "wal"]);
        assert_eq!(reopened.read("base-1").unwrap().unwrap(), b"tables2");
        assert_eq!(reopened.read("wal").unwrap().unwrap(), b"abcd");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn path_traversal_names_are_rejected() {
        let p = MemPersistence::new();
        for bad in ["", "..", "a/b", "a\\b"] {
            assert!(p.read(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn mem_mutate_edits_in_place() {
        let p = MemPersistence::new();
        assert!(!p.mutate("wal", |_| {}).unwrap());
        p.append("wal", b"abc").unwrap();
        assert!(p.mutate("wal", |b| b.truncate(1)).unwrap());
        assert_eq!(p.read("wal").unwrap().unwrap(), b"a");
    }
}
