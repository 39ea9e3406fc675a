//! A plain in-memory [`Vfs`] for the durable workload.
//!
//! Storage is in memory on purpose: the disk of a shared sandbox is
//! not this program's behaviour, while WAL encoding, appends,
//! checkpoint serialisation and reload are. `FaultFs` is not used
//! because it is a fault *recorder*: it journals a copy of every write
//! and keeps every replaced file forever, which would grow without
//! bound over a ten-second window and land in `mem_bytes_per_sub`.
//! This one keeps exactly the live files and counts the bytes that
//! cross the boundary.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ens_service::{Vfs, VfsFile};

type Content = Arc<Mutex<Vec<u8>>>;

#[derive(Debug, Default)]
struct State {
    dirs: BTreeSet<PathBuf>,
    files: BTreeMap<PathBuf, Content>,
}

/// Cloning shares the filesystem (a handle, like `FaultFs`);
/// [`MemFs::image`] copies it.
#[derive(Debug, Clone, Default)]
pub struct MemFs {
    state: Arc<Mutex<State>>,
    /// Bytes appended through any file handle since creation (a
    /// statistic, so `Relaxed`).
    appended: Arc<AtomicU64>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update below leaves the data valid at each step, so a
    // poisoned lock (a panicking bench thread) is still readable.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file or directory", path.display()),
    )
}

impl MemFs {
    pub fn new() -> Self {
        MemFs::default()
    }

    /// An independent copy of the current contents — what a process
    /// restarting on the same disk image would find.
    pub fn image(&self) -> MemFs {
        let st = lock(&self.state);
        let files = st
            .files
            .iter()
            .map(|(p, c)| (p.clone(), Arc::new(Mutex::new(lock(c).clone()))))
            .collect();
        MemFs {
            state: Arc::new(Mutex::new(State {
                dirs: st.dirs.clone(),
                files,
            })),
            appended: Arc::default(),
        }
    }

    pub fn appended_bytes(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }
}

struct MemFile {
    content: Content,
    appended: Arc<AtomicU64>,
}

impl VfsFile for MemFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        lock(&self.content).extend_from_slice(buf);
        self.appended.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "length overflow"))?;
        lock(&self.content).resize(len, 0);
        Ok(())
    }

    fn byte_len(&self) -> io::Result<u64> {
        Ok(lock(&self.content).len() as u64)
    }
}

impl Vfs for MemFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        lock(&self.state).dirs.insert(dir.to_path_buf());
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = lock(&self.state);
        let content = st.files.get(path).ok_or_else(|| not_found(path))?;
        let bytes = lock(content).clone();
        Ok(bytes)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut st = lock(&self.state);
        let parent = path.parent().unwrap_or(Path::new(""));
        if !st.dirs.contains(parent) {
            return Err(not_found(parent));
        }
        // A fresh node: handles on a replaced file keep their own.
        let content = Content::default();
        st.files.insert(path.to_path_buf(), Arc::clone(&content));
        Ok(Box::new(MemFile {
            content,
            appended: Arc::clone(&self.appended),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let existing = lock(&self.state).files.get(path).cloned();
        match existing {
            Some(content) => Ok(Box::new(MemFile {
                content,
                appended: Arc::clone(&self.appended),
            })),
            None => self.create(path),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        let content = st.files.remove(from).ok_or_else(|| not_found(from))?;
        st.files.insert(to.to_path_buf(), content);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        lock(&self.state)
            .files
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let st = lock(&self.state);
        if !st.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        Ok(st
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .collect())
    }

    fn exists(&self, path: &Path) -> bool {
        lock(&self.state).files.contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_survive_rename_and_images_are_independent() {
        let fs = MemFs::new();
        let dir = Path::new("/state");
        fs.create_dir_all(dir).unwrap();
        assert!(fs.create(Path::new("/elsewhere/x")).is_err());
        let mut f = fs.create(&dir.join("a.tmp")).unwrap();
        f.append(b"hello").unwrap();
        fs.rename(&dir.join("a.tmp"), &dir.join("a")).unwrap();
        f.append(b" world").unwrap();
        assert_eq!(fs.read(&dir.join("a")).unwrap(), b"hello world");
        assert_eq!(fs.list(dir).unwrap(), vec!["a".to_string()]);
        assert_eq!(fs.appended_bytes(), 11);

        let image = fs.image();
        f.append(b"!").unwrap();
        assert_eq!(image.read(&dir.join("a")).unwrap(), b"hello world");
        let mut g = image.open_append(&dir.join("a")).unwrap();
        g.set_len(5).unwrap();
        assert_eq!(g.byte_len().unwrap(), 5);
        assert_eq!(fs.read(&dir.join("a")).unwrap(), b"hello world!");

        fs.remove_file(&dir.join("a")).unwrap();
        assert!(!fs.exists(&dir.join("a")));
        assert!(fs.read(&dir.join("a")).is_err());
    }
}
