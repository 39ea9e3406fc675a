//! Storage virtual filesystem: the seam between the durability layer
//! and the bytes that actually reach disk.
//!
//! Everything the broker persists — WAL appends, checkpoint staging,
//! renames, directory fsyncs, the federation node's state log — goes
//! through the [`Vfs`] trait instead of `std::fs`, for the same reason
//! the federation layer routes every packet through its `Transport`
//! seam: the interesting failures live *below* the API. Two backends:
//!
//! * [`OsFs`] — the real filesystem (production).
//! * [`FaultFs`] — an in-memory filesystem that records every mutation
//!   in an append-only journal and can replay any prefix of it into a
//!   **crash image**: the state a real disk could legally be in if the
//!   machine lost power at that journal boundary. Unsynced writes may
//!   be dropped, reordered or torn at an arbitrary byte offset, and
//!   unsynced directory entries (a just-created WAL, a just-renamed
//!   checkpoint) may vanish — exactly the artifacts POSIX permits
//!   until `fsync` of the file *and of its parent directory*. It also
//!   injects live faults: ENOSPC-style append failures, `EIO` reads,
//!   short reads, and bit rot.
//!
//! The crash model, precisely: data reaches *durable* state only via
//! `sync_data` on the file (for its bytes) or [`Vfs::sync_dir`] on the
//! parent directory (for its name — creations, renames, removals).
//! A crash image starts from the durable state and then lets each
//! pending (unsynced) operation survive or vanish according to a
//! seeded [`FaultPlan`]: file writes independently (reordering) or as
//! a prefix, with the last survivor optionally torn mid-buffer;
//! directory operations only as a prefix (directory metadata is
//! journalled in order by real filesystems). A surviving write whose
//! predecessor vanished lands past the durable end of file — the gap
//! is zero-filled, which is what WAL salvage has to chew through.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// A filesystem backend for the durability layer. All paths are
/// interpreted by the backend; [`OsFs`] maps them to the host
/// filesystem, [`FaultFs`] to its in-memory namespace.
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Creates `dir` and any missing ancestors.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Reads the entire file at `path`.
    ///
    /// # Errors
    ///
    /// `NotFound` if no such file; injected `EIO`/short reads on
    /// [`FaultFs`]; other backend I/O failures.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Creates `path` as a fresh empty file, replacing any existing
    /// one. The new *name* is durable only after [`Vfs::sync_dir`] on
    /// the parent directory.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures (e.g. missing parent).
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Opens `path` for appending, creating it if missing.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Atomically renames `from` to `to` (same directory), replacing
    /// `to` if present. Durable only after [`Vfs::sync_dir`].
    ///
    /// # Errors
    ///
    /// `NotFound` if `from` does not exist; backend I/O failures.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the file at `path`. Durable after [`Vfs::sync_dir`].
    ///
    /// # Errors
    ///
    /// `NotFound` if no such file; backend I/O failures.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Fsyncs the directory itself, making pending entry changes
    /// (creations, renames, removals) durable. Without this, a crash
    /// can forget a file that was created — or un-rename a checkpoint
    /// — even though the file's *contents* were synced.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// The file names directly inside `dir` (no recursion), sorted.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
}

/// An open writable file handle from a [`Vfs`] backend.
pub trait VfsFile: Send {
    /// Appends `buf` at the end of the file.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures (possibly after a partial —
    /// torn — write, as a real ENOSPC does).
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Flushes the file's *contents* to durable storage (not its
    /// directory entry — see [`Vfs::sync_dir`]).
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures.
    fn sync_data(&mut self) -> io::Result<()>;

    /// Truncates (or zero-extends) the file to `len` bytes.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures.
    fn set_len(&mut self, len: u64) -> io::Result<()>;

    /// The file's current length in bytes.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O failures.
    fn byte_len(&self) -> io::Result<u64>;
}

/// The real filesystem backend.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsFs;

struct OsFile(std::fs::File);

impl VfsFile for OsFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn byte_len(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

impl Vfs for OsFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(OsFile(std::fs::File::create(path)?)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(OsFile(file)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening the directory and fsyncing the handle is the POSIX
        // idiom for flushing its entry table.
        std::fs::File::open(dir)?.sync_all()
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// What a simulated power loss does to the operations that were still
/// pending (unsynced) at the crash boundary. Deterministic per
/// `(seed, boundary)` pair, so every failure reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seeds the survival sampling.
    pub seed: u64,
    /// Unsynced file writes may be lost entirely.
    pub drop_unsynced_writes: bool,
    /// Unsynced file writes survive independently (out-of-order disk
    /// scheduling) instead of as an in-order prefix. Only meaningful
    /// with [`FaultPlan::drop_unsynced_writes`].
    pub reorder_unsynced_writes: bool,
    /// The last surviving unsynced write may be torn at an arbitrary
    /// byte offset.
    pub tear_writes: bool,
    /// Unsynced directory entries (creations, renames, removals) may
    /// be lost — the classic missing-parent-fsync artifact.
    pub drop_unsynced_dir_ops: bool,
}

impl FaultPlan {
    /// Everything allowed: drops, reordering, torn writes and lost
    /// directory entries.
    #[must_use]
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_unsynced_writes: true,
            reorder_unsynced_writes: true,
            tear_writes: true,
            drop_unsynced_dir_ops: true,
        }
    }

    /// A well-behaved disk: everything written before the crash
    /// survives, synced or not.
    #[must_use]
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_unsynced_writes: false,
            reorder_unsynced_writes: false,
            tear_writes: false,
            drop_unsynced_dir_ops: false,
        }
    }
}

/// One recorded mutation. Journal indices are the crash boundaries.
#[derive(Debug, Clone)]
enum JournalOp {
    /// A directory entry `name -> file` appeared (create, or the
    /// destination side of an over-writing rename).
    Link {
        dir: PathBuf,
        name: String,
        file: usize,
    },
    /// A directory entry was removed.
    Unlink { dir: PathBuf, name: String },
    /// `from` was atomically renamed to `to` within `dir`.
    Rename {
        dir: PathBuf,
        from: String,
        to: String,
    },
    /// Bytes were written to a file node at an offset.
    Write {
        file: usize,
        offset: usize,
        data: Vec<u8>,
    },
    /// A file node was truncated or zero-extended.
    SetLen { file: usize, len: usize },
    /// The file node's contents were flushed.
    SyncFile { file: usize },
    /// The directory's entry table was flushed.
    SyncDir { dir: PathBuf },
}

/// Live injected faults (affect the running broker, not crash images).
#[derive(Debug, Default)]
struct LiveFaults {
    /// Appends fail (after writing half the buffer — a torn live
    /// write, like a real out-of-space failure).
    fail_appends: bool,
    /// `set_len` fails, leaving the file as it is.
    fail_truncates: bool,
    /// Reads fail with `EIO`.
    fail_reads: bool,
    /// Reads return at most this many bytes.
    short_read: Option<usize>,
}

type DirTable = BTreeMap<PathBuf, BTreeMap<String, usize>>;

#[derive(Debug, Default)]
struct FsState {
    /// Durable-at-construction content per file node (crash images
    /// replay their journal on top of this).
    base_files: Vec<Vec<u8>>,
    base_dirs: DirTable,
    /// Live content per file node, indexed by node id. Nodes are
    /// never reused: a `create` over an existing name allocates a new
    /// node, so a crash image where the rename/creation vanished still
    /// sees the old node's bytes — inode semantics.
    files: Vec<Vec<u8>>,
    dirs: DirTable,
    journal: Vec<JournalOp>,
    faults: LiveFaults,
}

/// The fault-injecting in-memory filesystem. Cloning shares the
/// underlying state (it is a handle, like `Arc`).
#[derive(Clone)]
pub struct FaultFs {
    inner: Arc<Mutex<FsState>>,
}

impl fmt::Debug for FaultFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.lock();
        f.debug_struct("FaultFs")
            .field("files", &st.files.len())
            .field("journal", &st.journal.len())
            .finish()
    }
}

impl Default for FaultFs {
    fn default() -> Self {
        Self::new()
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file", path.display()),
    )
}

/// Splits a path into (parent directory, file name); a bare file name
/// gets parent `.`.
fn split(path: &Path) -> io::Result<(PathBuf, String)> {
    let name = path
        .file_name()
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{}: not a file path", path.display()),
            )
        })?
        .to_string_lossy()
        .into_owned();
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    Ok((parent, name))
}

/// xorshift64* — self-contained so the fault model needs no RNG
/// dependency in the library build.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next() % n as u64) as usize
        }
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn apply_file_op(files: &mut [Vec<u8>], op: &JournalOp) {
    match op {
        JournalOp::Write { file, offset, data } => {
            let content = &mut files[*file];
            if content.len() < *offset {
                // The write that would have extended the file to
                // `offset` vanished: the survivor lands past the
                // durable end and the gap reads back as zeros.
                content.resize(*offset, 0);
            }
            let end = offset + data.len();
            if content.len() < end {
                content.resize(end, 0);
            }
            content[*offset..end].copy_from_slice(data);
        }
        JournalOp::SetLen { file, len } => files[*file].resize(*len, 0),
        _ => {}
    }
}

fn apply_dir_op(dirs: &mut DirTable, op: &JournalOp) {
    match op {
        JournalOp::Link { dir, name, file } => {
            dirs.entry(dir.clone())
                .or_default()
                .insert(name.clone(), *file);
        }
        JournalOp::Unlink { dir, name } => {
            if let Some(entries) = dirs.get_mut(dir) {
                entries.remove(name);
            }
        }
        JournalOp::Rename { dir, from, to } => {
            if let Some(entries) = dirs.get_mut(dir) {
                if let Some(file) = entries.remove(from) {
                    entries.insert(to.clone(), file);
                }
            }
        }
        _ => {}
    }
}

impl FaultFs {
    /// An empty fault-injecting filesystem.
    #[must_use]
    pub fn new() -> Self {
        FaultFs {
            inner: Arc::new(Mutex::new(FsState::default())),
        }
    }

    fn from_parts(files: Vec<Vec<u8>>, dirs: DirTable) -> Self {
        FaultFs {
            inner: Arc::new(Mutex::new(FsState {
                base_files: files.clone(),
                base_dirs: dirs.clone(),
                files,
                dirs,
                journal: Vec::new(),
                faults: LiveFaults::default(),
            })),
        }
    }

    /// The number of crash boundaries recorded so far — one per
    /// journalled mutation. `crash_image(k, _)` simulates power loss
    /// after the first `k` operations.
    #[must_use]
    pub fn boundaries(&self) -> usize {
        self.inner.lock().journal.len()
    }

    /// Enables/disables ENOSPC-style append failures: every append
    /// writes half its buffer, then fails.
    pub fn fail_appends(&self, enabled: bool) {
        self.inner.lock().faults.fail_appends = enabled;
    }

    /// Enables/disables failing every `set_len` — with
    /// [`fail_appends`](Self::fail_appends), a torn append whose
    /// rollback fails too, so the partial bytes stay in the file.
    pub fn fail_truncates(&self, enabled: bool) {
        self.inner.lock().faults.fail_truncates = enabled;
    }

    /// Enables/disables `EIO` on every read.
    pub fn fail_reads(&self, enabled: bool) {
        self.inner.lock().faults.fail_reads = enabled;
    }

    /// Caps every read at `limit` bytes (`None` restores full reads) —
    /// the partial-read fault.
    pub fn short_reads(&self, limit: Option<usize>) {
        self.inner.lock().faults.short_read = limit;
    }

    /// Flips one bit of the live file at `path` (bit rot). Returns
    /// whether a byte at `offset` existed to corrupt.
    pub fn corrupt(&self, path: &Path, offset: usize) -> bool {
        let Ok((parent, name)) = split(path) else {
            return false;
        };
        let mut st = self.inner.lock();
        let Some(&file) = st.dirs.get(&parent).and_then(|d| d.get(&name)) else {
            return false;
        };
        match st.files[file].get_mut(offset) {
            Some(byte) => {
                *byte ^= 1 << (offset % 8);
                true
            }
            None => false,
        }
    }

    /// The live length of the file at `path`, if it exists.
    #[must_use]
    pub fn file_len(&self, path: &Path) -> Option<usize> {
        let (parent, name) = split(path).ok()?;
        let st = self.inner.lock();
        let &file = st.dirs.get(&parent)?.get(&name)?;
        Some(st.files[file].len())
    }

    /// The filesystem state a crash at journal `boundary` could leave
    /// behind under `plan`: durable state plus a seeded sample of the
    /// then-pending (unsynced) operations. Deterministic per
    /// `(plan.seed, boundary)`. The returned filesystem is fully
    /// independent of `self`.
    #[must_use]
    pub fn crash_image(&self, boundary: usize, plan: &FaultPlan) -> FaultFs {
        let st = self.inner.lock();
        let boundary = boundary.min(st.journal.len());
        let mut files = st.base_files.clone();
        files.resize(st.files.len(), Vec::new());
        let mut dirs = st.base_dirs.clone();

        // Replay: synced operations apply, the rest queue per target.
        let mut pending_file: BTreeMap<usize, Vec<&JournalOp>> = BTreeMap::new();
        let mut pending_dir: BTreeMap<PathBuf, Vec<&JournalOp>> = BTreeMap::new();
        for op in &st.journal[..boundary] {
            match op {
                JournalOp::Write { file, .. } | JournalOp::SetLen { file, .. } => {
                    pending_file.entry(*file).or_default().push(op);
                }
                JournalOp::SyncFile { file } => {
                    for op in pending_file.remove(file).unwrap_or_default() {
                        apply_file_op(&mut files, op);
                    }
                }
                JournalOp::Link { dir, .. }
                | JournalOp::Unlink { dir, .. }
                | JournalOp::Rename { dir, .. } => {
                    pending_dir.entry(dir.clone()).or_default().push(op);
                }
                JournalOp::SyncDir { dir } => {
                    for op in pending_dir.remove(dir).unwrap_or_default() {
                        apply_dir_op(&mut dirs, op);
                    }
                }
            }
        }

        // Survival sampling of whatever was still pending.
        let mut rng = Rng::new(plan.seed ^ (boundary as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for (_, ops) in pending_file {
            let survivors: Vec<&JournalOp> = if !plan.drop_unsynced_writes {
                ops
            } else if plan.reorder_unsynced_writes {
                ops.into_iter().filter(|_| rng.coin()).collect()
            } else {
                let keep = rng.below(ops.len() + 1);
                ops.into_iter().take(keep).collect()
            };
            let last = survivors.len().checked_sub(1);
            for (k, op) in survivors.iter().enumerate() {
                if plan.tear_writes && Some(k) == last {
                    if let JournalOp::Write { file, offset, data } = op {
                        let cut = rng.below(data.len() + 1);
                        apply_file_op(
                            &mut files,
                            &JournalOp::Write {
                                file: *file,
                                offset: *offset,
                                data: data[..cut].to_vec(),
                            },
                        );
                        continue;
                    }
                }
                apply_file_op(&mut files, op);
            }
        }
        for (_, ops) in pending_dir {
            let keep = if plan.drop_unsynced_dir_ops {
                rng.below(ops.len() + 1)
            } else {
                ops.len()
            };
            for op in ops.into_iter().take(keep) {
                apply_dir_op(&mut dirs, op);
            }
        }
        FaultFs::from_parts(files, dirs)
    }
}

/// An open append handle into a [`FaultFs`] file node. The handle
/// pins the node, not the name: appends keep landing in the same node
/// even after the name was renamed over or removed.
struct FaultFile {
    fs: FaultFs,
    file: usize,
}

impl VfsFile for FaultFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut st = self.fs.inner.lock();
        let offset = st.files[self.file].len();
        if st.faults.fail_appends {
            let half = buf.len() / 2;
            st.files[self.file].extend_from_slice(&buf[..half]);
            st.journal.push(JournalOp::Write {
                file: self.file,
                offset,
                data: buf[..half].to_vec(),
            });
            return Err(io::Error::other("injected fault: no space left on device"));
        }
        st.files[self.file].extend_from_slice(buf);
        st.journal.push(JournalOp::Write {
            file: self.file,
            offset,
            data: buf.to_vec(),
        });
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.fs
            .inner
            .lock()
            .journal
            .push(JournalOp::SyncFile { file: self.file });
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let mut st = self.fs.inner.lock();
        if st.faults.fail_truncates {
            return Err(io::Error::other("injected fault: truncate failed"));
        }
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "length overflow"))?;
        st.files[self.file].resize(len, 0);
        st.journal.push(JournalOp::SetLen {
            file: self.file,
            len,
        });
        Ok(())
    }

    fn byte_len(&self) -> io::Result<u64> {
        Ok(self.fs.inner.lock().files[self.file].len() as u64)
    }
}

impl Vfs for FaultFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        // Directory creation is modelled as immediately durable — the
        // durability directory exists long before the crash windows
        // under test, and journalling mkdir would only add boundaries
        // where nothing interesting can happen.
        let mut st = self.inner.lock();
        st.dirs.entry(dir.to_path_buf()).or_default();
        st.base_dirs.entry(dir.to_path_buf()).or_default();
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let (parent, name) = split(path)?;
        let st = self.inner.lock();
        if st.faults.fail_reads {
            return Err(io::Error::other(format!(
                "injected fault: I/O error reading {}",
                path.display()
            )));
        }
        let Some(&file) = st.dirs.get(&parent).and_then(|d| d.get(&name)) else {
            return Err(not_found(path));
        };
        let mut data = st.files[file].clone();
        if let Some(limit) = st.faults.short_read {
            data.truncate(limit);
        }
        Ok(data)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let (parent, name) = split(path)?;
        let mut st = self.inner.lock();
        if !st.dirs.contains_key(&parent) {
            return Err(not_found(&parent));
        }
        // A fresh node every time: the old node's content must stay
        // reachable by crash images in which this creation vanished.
        let file = st.files.len();
        st.files.push(Vec::new());
        if let Some(entries) = st.dirs.get_mut(&parent) {
            entries.insert(name.clone(), file);
        }
        st.journal.push(JournalOp::Link {
            dir: parent,
            name,
            file,
        });
        Ok(Box::new(FaultFile {
            fs: self.clone(),
            file,
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let (parent, name) = split(path)?;
        {
            let st = self.inner.lock();
            if let Some(&file) = st.dirs.get(&parent).and_then(|d| d.get(&name)) {
                return Ok(Box::new(FaultFile {
                    fs: self.clone(),
                    file,
                }));
            }
        }
        self.create(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let (from_dir, from_name) = split(from)?;
        let (to_dir, to_name) = split(to)?;
        if from_dir != to_dir {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "FaultFs models same-directory renames only",
            ));
        }
        let mut st = self.inner.lock();
        let Some(&file) = st.dirs.get(&from_dir).and_then(|d| d.get(&from_name)) else {
            return Err(not_found(from));
        };
        if let Some(entries) = st.dirs.get_mut(&from_dir) {
            entries.remove(&from_name);
            entries.insert(to_name.clone(), file);
        }
        st.journal.push(JournalOp::Rename {
            dir: from_dir,
            from: from_name,
            to: to_name,
        });
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let (parent, name) = split(path)?;
        let mut st = self.inner.lock();
        let existed = st
            .dirs
            .get_mut(&parent)
            .is_some_and(|entries| entries.remove(&name).is_some());
        if !existed {
            return Err(not_found(path));
        }
        st.journal.push(JournalOp::Unlink { dir: parent, name });
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.lock().journal.push(JournalOp::SyncDir {
            dir: dir.to_path_buf(),
        });
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let st = self.inner.lock();
        let Some(entries) = st.dirs.get(dir) else {
            return Err(not_found(dir));
        };
        Ok(entries.keys().cloned().collect())
    }

    fn exists(&self, path: &Path) -> bool {
        let Ok((parent, name)) = split(path) else {
            return false;
        };
        let st = self.inner.lock();
        st.dirs.get(&parent).is_some_and(|d| d.contains_key(&name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> PathBuf {
        PathBuf::from("/d")
    }

    fn write_all(fs: &FaultFs, path: &Path, data: &[u8], sync: bool) {
        let mut f = fs.create(path).unwrap();
        f.append(data).unwrap();
        if sync {
            f.sync_data().unwrap();
        }
    }

    #[test]
    fn os_like_basics_round_trip() {
        let fs = FaultFs::new();
        fs.create_dir_all(&dir()).unwrap();
        let p = dir().join("a.txt");
        write_all(&fs, &p, b"hello", true);
        assert!(fs.exists(&p));
        assert_eq!(fs.read(&p).unwrap(), b"hello");
        assert_eq!(fs.list(&dir()).unwrap(), vec!["a.txt".to_string()]);

        let q = dir().join("b.txt");
        fs.rename(&p, &q).unwrap();
        assert!(!fs.exists(&p));
        assert_eq!(fs.read(&q).unwrap(), b"hello");
        fs.remove_file(&q).unwrap();
        assert!(fs.read(&q).is_err());
        assert!(fs.remove_file(&q).is_err());
    }

    #[test]
    fn synced_data_always_survives_a_crash() {
        let fs = FaultFs::new();
        fs.create_dir_all(&dir()).unwrap();
        let p = dir().join("log");
        write_all(&fs, &p, b"durable", true);
        fs.sync_dir(&dir()).unwrap();
        let at = fs.boundaries();
        // Unsynced tail on top.
        let mut f = fs.open_append(&p).unwrap();
        f.append(b"-maybe").unwrap();

        for seed in 0..32 {
            let img = fs.crash_image(fs.boundaries(), &FaultPlan::chaos(seed));
            let data = img.read(&p).unwrap();
            assert!(data.starts_with(b"durable"), "synced prefix lost: {data:?}");
            assert!(data.len() <= b"durable-maybe".len());
            // Crash right at the durable boundary: exactly the prefix.
            let img = fs.crash_image(at, &FaultPlan::chaos(seed));
            assert_eq!(img.read(&p).unwrap(), b"durable");
        }
    }

    #[test]
    fn unsynced_directory_entries_can_vanish() {
        let fs = FaultFs::new();
        fs.create_dir_all(&dir()).unwrap();
        let p = dir().join("new");
        write_all(&fs, &p, b"x", true); // file content synced, name not
        let mut vanished = false;
        for seed in 0..64 {
            let img = fs.crash_image(fs.boundaries(), &FaultPlan::chaos(seed));
            if !img.exists(&p) {
                vanished = true;
            }
        }
        assert!(vanished, "an unsynced creation never vanished");
        // After the directory fsync it always survives.
        fs.sync_dir(&dir()).unwrap();
        for seed in 0..64 {
            let img = fs.crash_image(fs.boundaries(), &FaultPlan::chaos(seed));
            assert_eq!(img.read(&p).unwrap(), b"x");
        }
    }

    #[test]
    fn unsynced_rename_can_unwind_but_old_content_is_preserved() {
        let fs = FaultFs::new();
        fs.create_dir_all(&dir()).unwrap();
        let target = dir().join("cp");
        write_all(&fs, &target, b"old", true);
        fs.sync_dir(&dir()).unwrap();

        let tmp = dir().join("cp.tmp");
        write_all(&fs, &tmp, b"new", true);
        fs.rename(&tmp, &target).unwrap(); // not dir-synced
        let (mut saw_old, mut saw_new) = (false, false);
        for seed in 0..64 {
            let img = fs.crash_image(fs.boundaries(), &FaultPlan::chaos(seed));
            match img.read(&target).unwrap().as_slice() {
                b"old" => saw_old = true,
                b"new" => saw_new = true,
                other => panic!("target is neither old nor new: {other:?}"),
            }
        }
        assert!(
            saw_old && saw_new,
            "rename must be able to unwind (old={saw_old}, new={saw_new})"
        );
    }

    #[test]
    fn dropped_predecessor_write_zero_fills_the_gap() {
        let fs = FaultFs::new();
        fs.create_dir_all(&dir()).unwrap();
        let p = dir().join("log");
        write_all(&fs, &p, b"", true);
        fs.sync_dir(&dir()).unwrap();
        let mut f = fs.open_append(&p).unwrap();
        f.append(&[1; 4]).unwrap();
        f.append(&[2; 4]).unwrap();
        let plan = FaultPlan {
            tear_writes: false,
            ..FaultPlan::chaos(0)
        };
        let mut saw_gap = false;
        for seed in 0..64 {
            let img = fs.crash_image(fs.boundaries(), &FaultPlan { seed, ..plan });
            let data = img.read(&p).unwrap();
            if data.len() == 8 && data[..4] == [0; 4] && data[4..] == [2; 4] {
                saw_gap = true;
            }
        }
        assert!(
            saw_gap,
            "reordered survivor never exposed a zero-filled gap"
        );
    }

    #[test]
    fn crash_images_are_deterministic_and_independent() {
        let fs = FaultFs::new();
        fs.create_dir_all(&dir()).unwrap();
        let p = dir().join("f");
        write_all(&fs, &p, b"abcdef", false);
        let plan = FaultPlan::chaos(7);
        let a = fs.crash_image(fs.boundaries(), &plan);
        let b = fs.crash_image(fs.boundaries(), &plan);
        assert_eq!(
            a.read(&p).unwrap_or_default(),
            b.read(&p).unwrap_or_default(),
            "same (seed, boundary) must replay identically"
        );
        // Mutating the image must not touch the original.
        if a.exists(&p) {
            a.remove_file(&p).unwrap();
        }
        assert!(fs.exists(&p));
    }

    #[test]
    fn live_faults_inject_enospc_eio_short_reads_and_bit_rot() {
        let fs = FaultFs::new();
        fs.create_dir_all(&dir()).unwrap();
        let p = dir().join("f");
        write_all(&fs, &p, b"0123456789", true);

        fs.fail_appends(true);
        let mut f = fs.open_append(&p).unwrap();
        assert!(f.append(b"XXXX").is_err());
        fs.fail_appends(false);
        // The failed append tore: half the buffer landed.
        assert_eq!(fs.read(&p).unwrap(), b"0123456789XX");

        // A rollback of it that fails leaves the torn bytes in place.
        fs.fail_truncates(true);
        assert!(f.set_len(10).is_err());
        fs.fail_truncates(false);
        assert_eq!(f.byte_len().unwrap(), 12);

        fs.fail_reads(true);
        assert!(fs.read(&p).is_err());
        fs.fail_reads(false);

        fs.short_reads(Some(3));
        assert_eq!(fs.read(&p).unwrap(), b"012");
        fs.short_reads(None);

        assert!(fs.corrupt(&p, 0));
        assert_ne!(fs.read(&p).unwrap()[0], b'0');
        assert!(!fs.corrupt(&p, 10_000));
    }
}
