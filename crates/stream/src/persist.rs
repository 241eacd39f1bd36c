//! Durable on-disk archive for suspended tenant state.
//!
//! PR 8's eviction archive parked every suspended tenant's `DeltaV1`
//! bytes in an in-memory map — compact, but gone with the process: one
//! crash, OOM-kill or deploy restart silently destroyed every evicted
//! tenant's personalization. [`StateDir`] is the durable tier behind
//! that archive: **one artifact file per tenant**, written atomically,
//! recovered by a startup scan that tolerates everything a dying
//! process can leave behind.
//!
//! # Layout
//!
//! ```text
//! <state-dir>/
//!   tenant-42.smore              # DeltaV1 container (CRC per section)
//!   tenant-42.smore.quarantine   # a file that failed validation — kept
//!   tenant-99.tmp                # torn write (never renamed) — quarantined
//! ```
//!
//! Every write goes temp file → (fsync) → atomic rename, so a reader
//! never observes a half-written `*.smore` file: a crash mid-write
//! leaves only a `.tmp` orphan, which the next scan quarantines.
//! Rehydrating a tenant ([`StateDir::take`]) reads its file and leaves it
//! on disk; when the session is evicted again unchanged, the store hands
//! that same file back to the index ([`StateDir::reindex`]) instead of
//! writing it anew, so a predict-only visit costs one file read. Files
//! the scan cannot vouch for — bad magic, wrong kind, truncated header
//! — are *renamed* to `*.quarantine`, never deleted: the operator can
//! inspect or repair them, and the tenant simply re-enrols fresh.
//! Unrecognised file names are left untouched.
//!
//! # Flush policy
//!
//! [`FlushPolicy`] decides when durability is paid for:
//!
//! - [`Sync`](FlushPolicy::Sync): every archive write is fsynced (file
//!   and directory) before it returns — a suspended tenant survives a
//!   power cut the moment its eviction completes. A re-indexed file gets
//!   the same two fsyncs, without the write.
//! - [`OnEvict`](FlushPolicy::OnEvict) (default): the file is written
//!   and atomically renamed at eviction, but fsync is deferred to
//!   [`StateDir::flush`] (called by graceful drain). The serving path
//!   never blocks on fsync; an unclean kill can lose writes the OS had
//!   not yet flushed — but never corrupt one, thanks to the rename. A
//!   re-indexed file joins the same deferred set as a written one.
//!
//! # Sharding
//!
//! Serve workers shard tenants and each owns one store; they share one
//! flat state directory. Each worker opens the directory with an
//! ownership filter, so a restart with a *different* worker count still
//! assigns every recovered file to exactly one worker. Ownership of a
//! tenant id is single-writer by construction; this module adds no
//! locking.

use std::collections::{HashMap, HashSet};
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use smore::artifact::{self, ArtifactKind};
use smore::SmoreError;

use crate::Result;

/// When an archive write becomes durable (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// fsync file and directory on every archive write.
    Sync,
    /// Write and rename at eviction; fsync deferred to
    /// [`StateDir::flush`] so the serving path never blocks on fsync.
    #[default]
    OnEvict,
}

impl FlushPolicy {
    /// Parses the CLI spelling (`sync` / `on_evict`).
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::InvalidConfig`] for anything else.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "sync" => Ok(FlushPolicy::Sync),
            "on_evict" | "on-evict" => Ok(FlushPolicy::OnEvict),
            other => Err(SmoreError::InvalidConfig {
                what: format!("unknown flush policy {other:?} (expected sync or on_evict)"),
            }),
        }
    }

    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FlushPolicy::Sync => "sync",
            FlushPolicy::OnEvict => "on_evict",
        }
    }
}

/// Extension of committed per-tenant artifacts.
const STATE_EXT: &str = "smore";
/// Extension of in-flight writes (renamed away on commit).
const TMP_EXT: &str = "tmp";
/// Suffix appended to files that failed validation.
const QUARANTINE_SUFFIX: &str = ".quarantine";

/// A durable per-tenant state directory (see the [module docs](self)).
#[derive(Debug)]
pub struct StateDir {
    dir: PathBuf,
    policy: FlushPolicy,
    /// Committed, validated files owned by this instance: tenant →
    /// artifact bytes on disk.
    index: HashMap<u64, u64>,
    /// Tenants written or re-indexed but not yet fsynced (only under
    /// `OnEvict`). [`Self::take`] keeps a tenant here: its file stays on
    /// disk as the crash fallback.
    unsynced: HashSet<u64>,
    /// Sum of `index` values, maintained incrementally.
    indexed_bytes: u64,
    recovered: u64,
    quarantined: u64,
    write_failures: u64,
}

impl StateDir {
    /// Opens `dir` (creating it if needed) and scans it for previously
    /// archived tenant state. `owns` is the shard-ownership filter: only
    /// files whose tenant id it accepts are indexed or quarantined, so
    /// several workers can share one directory. Use `|_| true` for a
    /// single-owner directory.
    ///
    /// The scan validates each owned `tenant-<id>.smore` file's 16-byte
    /// artifact header (magic, version, kind = delta) with one small
    /// read; files that fail, plus orphaned `tenant-<id>.tmp` files from
    /// torn writes, are quarantined — renamed, counted, never deleted.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::Io`] when the directory cannot be created
    /// or listed. Per-file problems are never errors: they quarantine.
    pub fn open(
        dir: impl Into<PathBuf>,
        policy: FlushPolicy,
        owns: impl Fn(u64) -> bool,
    ) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| SmoreError::io(dir.display().to_string(), &e))?;
        let mut state = StateDir {
            dir,
            policy,
            index: HashMap::new(),
            unsynced: HashSet::new(),
            indexed_bytes: 0,
            recovered: 0,
            quarantined: 0,
            write_failures: 0,
        };
        state.scan(owns)?;
        Ok(state)
    }

    fn scan(&mut self, owns: impl Fn(u64) -> bool) -> Result<()> {
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| SmoreError::io(self.dir.display().to_string(), &e))?;
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if name.ends_with(QUARANTINE_SUFFIX) {
                continue;
            }
            match parse_name(name) {
                Some((tenant, true)) if owns(tenant) => match self.validate_header(&path) {
                    Ok(len) => {
                        self.index_file(tenant, len);
                        self.recovered += 1;
                    }
                    Err(reason) => self.quarantine_path(&path, &reason),
                },
                // An orphaned temp file is a torn write: the rename that
                // would have committed it never happened.
                Some((tenant, false)) if owns(tenant) => {
                    self.quarantine_path(&path, "orphaned temp file (torn write)");
                }
                // Unowned (another shard's) or unrecognised: not ours.
                _ => {}
            }
        }
        Ok(())
    }

    /// Checks the 16-byte artifact header; returns the file length.
    fn validate_header(&self, path: &Path) -> std::result::Result<u64, String> {
        let mut file = File::open(path).map_err(|e| format!("unreadable: {e}"))?;
        let len = file.metadata().map_err(|e| format!("unreadable: {e}"))?.len();
        let mut header = [0u8; artifact::HEADER_LEN];
        file.read_exact(&mut header).map_err(|e| format!("short header: {e}"))?;
        match artifact::kind_of(&header) {
            Ok(ArtifactKind::Delta) => Ok(len),
            Ok(kind) => Err(format!("artifact kind {kind:?} is not a tenant delta")),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Renames `path` aside with the quarantine suffix (best-effort —
    /// a racing owner may have renamed it first) and counts it.
    fn quarantine_path(&mut self, path: &Path, reason: &str) {
        let mut target = path.as_os_str().to_owned();
        target.push(QUARANTINE_SUFFIX);
        let renamed = fs::rename(path, PathBuf::from(&target)).is_ok();
        if renamed {
            self.quarantined += 1;
            smore_obs::warn!(
                "persist",
                "quarantined {} ({reason}); kept for inspection",
                path.display()
            );
        }
    }

    /// The directory files live in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The flush policy writes follow.
    #[must_use]
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Indexed (committed, owned, validated) tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no tenant state is indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Sum of indexed artifact bytes on disk.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.indexed_bytes
    }

    /// Whether `tenant` has committed state on disk.
    #[must_use]
    pub fn contains(&self, tenant: u64) -> bool {
        self.index.contains_key(&tenant)
    }

    /// Files recovered (indexed) by the startup scan.
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Files quarantined — by the scan or by [`Self::quarantine`].
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Archive writes that failed (the caller kept the bytes in memory).
    #[must_use]
    pub fn write_failures(&self) -> u64 {
        self.write_failures
    }

    /// Atomically writes `tenant`'s artifact bytes: temp file → (fsync
    /// under [`FlushPolicy::Sync`]) → rename over the committed name.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::Io`] when any step fails; the temp file is
    /// removed best-effort and the failure is counted in
    /// [`Self::write_failures`]. The previously committed file (if any)
    /// is untouched by a failed write.
    pub fn write(&mut self, tenant: u64, bytes: &[u8]) -> Result<()> {
        let tmp = self.dir.join(format!("tenant-{tenant}.{TMP_EXT}"));
        let committed = self.path_for(tenant);
        let result = Self::write_atomic(&tmp, &committed, bytes, self.policy);
        match result {
            Ok(()) => {
                if self.policy == FlushPolicy::OnEvict {
                    self.unsynced.insert(tenant);
                }
                self.index_file(tenant, bytes.len() as u64);
                Ok(())
            }
            Err(e) => {
                self.write_failures += 1;
                let _ = fs::remove_file(&tmp);
                Err(SmoreError::io(committed.display().to_string(), &e))
            }
        }
    }

    fn write_atomic(
        tmp: &Path,
        committed: &Path,
        bytes: &[u8],
        policy: FlushPolicy,
    ) -> std::io::Result<()> {
        let mut file = File::create(tmp)?;
        file.write_all(bytes)?;
        if policy == FlushPolicy::Sync {
            file.sync_all()?;
        }
        drop(file);
        fs::rename(tmp, committed)?;
        if policy == FlushPolicy::Sync {
            // Make the rename itself durable.
            if let Some(parent) = committed.parent() {
                File::open(parent)?.sync_all()?;
            }
        }
        Ok(())
    }

    /// Reads `tenant`'s committed bytes and drops them from the index —
    /// the archived → resident transition. The *file stays on disk* as
    /// the crash fallback until the next write overwrites it, and a write
    /// still awaiting its deferred fsync stays in the set [`Self::flush`]
    /// syncs. That file is also what [`Self::reindex`] hands back to the
    /// index when the resumed session is evicted unchanged. Callers that
    /// fail to resume from the bytes should [`Self::quarantine`] the file
    /// instead of retrying.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::Io`] when the indexed file cannot be read
    /// (it is dropped from the index — the state is gone).
    pub fn take(&mut self, tenant: u64) -> Result<Option<Vec<u8>>> {
        let Some(len) = self.index.remove(&tenant) else { return Ok(None) };
        self.indexed_bytes = self.indexed_bytes.saturating_sub(len);
        let path = self.path_for(tenant);
        match fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) => Err(SmoreError::io(path.display().to_string(), &e)),
        }
    }

    /// Hands `tenant`'s committed file, `len` bytes long, back to the
    /// index after [`Self::take`] — a clean eviction: the session resumed
    /// from that file has not changed since, so the file already holds
    /// its state and nothing is written. [`Self::len`] and
    /// [`Self::total_bytes`] return to their pre-`take` values. The
    /// durability matches a rewrite of the same bytes: under
    /// [`FlushPolicy::Sync`] the file and the directory are fsynced before
    /// this returns; under [`FlushPolicy::OnEvict`] the tenant joins the
    /// set [`Self::flush`] syncs.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::Io`] when a [`FlushPolicy::Sync`] fsync
    /// fails; the tenant stays unindexed, and the caller falls back to
    /// [`Self::write`].
    pub fn reindex(&mut self, tenant: u64, len: u64) -> Result<()> {
        let path = self.path_for(tenant);
        match self.policy {
            FlushPolicy::Sync => File::open(&path)
                .and_then(|f| f.sync_all())
                .and_then(|()| File::open(&self.dir)?.sync_all())
                .map_err(|e| SmoreError::io(path.display().to_string(), &e))?,
            FlushPolicy::OnEvict => {
                self.unsynced.insert(tenant);
            }
        }
        self.index_file(tenant, len);
        Ok(())
    }

    /// Indexes `tenant`'s committed file at `len` bytes, replacing any
    /// stale entry in the byte total.
    fn index_file(&mut self, tenant: u64, len: u64) {
        if let Some(stale) = self.index.insert(tenant, len) {
            self.indexed_bytes = self.indexed_bytes.saturating_sub(stale);
        }
        self.indexed_bytes += len;
    }

    /// Quarantines `tenant`'s on-disk file (committed name), if present.
    /// Returns whether a file was actually renamed aside.
    pub fn quarantine(&mut self, tenant: u64) -> bool {
        if let Some(len) = self.index.remove(&tenant) {
            self.indexed_bytes = self.indexed_bytes.saturating_sub(len);
        }
        self.unsynced.remove(&tenant);
        let before = self.quarantined;
        let path = self.path_for(tenant);
        self.quarantine_path(&path, "failed to resume");
        self.quarantined > before
    }

    /// Fsyncs every write deferred by [`FlushPolicy::OnEvict`] plus the
    /// directory itself — the drain barrier. A no-op under
    /// [`FlushPolicy::Sync`] or when nothing is outstanding.
    ///
    /// # Errors
    ///
    /// Returns the first [`SmoreError::Io`] hit; every other outstanding
    /// file is still attempted, and failures count in
    /// [`Self::write_failures`].
    pub fn flush(&mut self) -> Result<()> {
        if self.unsynced.is_empty() {
            return Ok(());
        }
        let mut first_err = None;
        for tenant in std::mem::take(&mut self.unsynced) {
            let path = self.path_for(tenant);
            let result = File::open(&path).and_then(|f| f.sync_all());
            if let Err(e) = result {
                // A file that is gone has nothing left to sync; anything
                // else is a real failure.
                if e.kind() != std::io::ErrorKind::NotFound {
                    self.write_failures += 1;
                    first_err.get_or_insert_with(|| SmoreError::io(path.display().to_string(), &e));
                }
            }
        }
        if first_err.is_none() {
            if let Err(e) = File::open(&self.dir).and_then(|f| f.sync_all()) {
                first_err = Some(SmoreError::io(self.dir.display().to_string(), &e));
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn path_for(&self, tenant: u64) -> PathBuf {
        self.dir.join(format!("tenant-{tenant}.{STATE_EXT}"))
    }

    /// Whether `tenant` is in the set [`Self::flush`] fsyncs.
    #[cfg(test)]
    pub(crate) fn awaits_flush(&self, tenant: u64) -> bool {
        self.unsynced.contains(&tenant)
    }
}

/// Parses a directory entry name: `Some((tenant, committed))` for
/// `tenant-<id>.smore` (committed = true) or `tenant-<id>.tmp`
/// (committed = false); `None` for anything else.
fn parse_name(name: &str) -> Option<(u64, bool)> {
    let rest = name.strip_prefix("tenant-")?;
    if let Some(id) = rest.strip_suffix(".smore") {
        return id.parse().ok().map(|t| (t, true));
    }
    if let Some(id) = rest.strip_suffix(".tmp") {
        return id.parse().ok().map(|t| (t, false));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh per-test directory under the OS temp dir.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smore_persist_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Minimal bytes that pass the header sniff as a Delta artifact:
    /// magic, version 1, kind 3, reserved 0, zero sections — plus a
    /// payload marker to tell instances apart.
    fn delta_header_bytes(marker: u8) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&artifact::MAGIC);
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(3);
        bytes.push(0);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.push(marker);
        bytes
    }

    #[test]
    fn flush_policy_parses_cli_spellings() {
        assert_eq!(FlushPolicy::parse("sync").unwrap(), FlushPolicy::Sync);
        assert_eq!(FlushPolicy::parse("on_evict").unwrap(), FlushPolicy::OnEvict);
        assert_eq!(FlushPolicy::parse("on-evict").unwrap(), FlushPolicy::OnEvict);
        let err = FlushPolicy::parse("whenever").unwrap_err();
        assert!(matches!(err, SmoreError::InvalidConfig { .. }), "{err}");
        assert_eq!(FlushPolicy::Sync.name(), "sync");
        assert_eq!(FlushPolicy::default(), FlushPolicy::OnEvict);
    }

    #[test]
    fn write_take_round_trip_survives_reopen() {
        let dir = scratch_dir("roundtrip");
        let payload = delta_header_bytes(0xAB);
        {
            let mut state = StateDir::open(&dir, FlushPolicy::Sync, |_| true).unwrap();
            assert_eq!(state.recovered(), 0);
            state.write(42, &payload).unwrap();
            assert!(state.contains(42));
            assert_eq!(state.total_bytes(), payload.len() as u64);
        }
        // A brand-new instance (new process, conceptually) recovers it.
        let mut state = StateDir::open(&dir, FlushPolicy::Sync, |_| true).unwrap();
        assert_eq!(state.recovered(), 1);
        assert_eq!(state.quarantined(), 0);
        assert_eq!(state.take(42).unwrap().as_deref(), Some(payload.as_slice()));
        assert!(!state.contains(42));
        assert_eq!(state.total_bytes(), 0);
        // take() keeps the file on disk as the crash fallback.
        assert!(dir.join("tenant-42.smore").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_replaces_and_keeps_byte_accounting_exact() {
        let dir = scratch_dir("overwrite");
        let mut state = StateDir::open(&dir, FlushPolicy::OnEvict, |_| true).unwrap();
        state.write(7, &delta_header_bytes(1)).unwrap();
        let bigger: Vec<u8> =
            delta_header_bytes(2).into_iter().chain(std::iter::repeat_n(0u8, 64)).collect();
        state.write(7, &bigger).unwrap();
        assert_eq!(state.len(), 1);
        assert_eq!(state.total_bytes(), bigger.len() as u64);
        assert_eq!(state.take(7).unwrap().unwrap(), bigger);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_quarantines_torn_corrupt_and_foreign_kind_files() {
        let dir = scratch_dir("quarantine");
        fs::create_dir_all(&dir).unwrap();
        // A good file, a torn temp, garbage, a wrong-kind artifact, and
        // a file that is not ours at all.
        fs::write(dir.join("tenant-1.smore"), delta_header_bytes(9)).unwrap();
        fs::write(dir.join("tenant-2.tmp"), b"half a wri").unwrap();
        fs::write(dir.join("tenant-3.smore"), b"not an artifact, far too short?").unwrap();
        let mut quantized = delta_header_bytes(9);
        quantized[10] = 1; // ArtifactKind::Quantized
        fs::write(dir.join("tenant-4.smore"), quantized).unwrap();
        fs::write(dir.join("README.txt"), b"operator notes").unwrap();

        let state = StateDir::open(&dir, FlushPolicy::OnEvict, |_| true).unwrap();
        assert_eq!(state.recovered(), 1);
        assert_eq!(state.quarantined(), 3);
        assert!(state.contains(1));
        assert!(!state.contains(3));
        // Quarantined, not deleted — and the foreign file untouched.
        assert!(dir.join("tenant-2.tmp.quarantine").exists());
        assert!(dir.join("tenant-3.smore.quarantine").exists());
        assert!(dir.join("tenant-4.smore.quarantine").exists());
        assert!(dir.join("README.txt").exists());
        assert!(!dir.join("tenant-3.smore").exists());

        // A rescan must not double-quarantine or resurrect them.
        drop(state);
        let state = StateDir::open(&dir, FlushPolicy::OnEvict, |_| true).unwrap();
        assert_eq!(state.recovered(), 1);
        assert_eq!(state.quarantined(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_filter_partitions_ownership_exactly() {
        let dir = scratch_dir("shards");
        {
            let mut state = StateDir::open(&dir, FlushPolicy::OnEvict, |_| true).unwrap();
            for tenant in 0..10u64 {
                state.write(tenant, &delta_header_bytes(tenant as u8)).unwrap();
            }
        }
        let even = StateDir::open(&dir, FlushPolicy::OnEvict, |t| t % 2 == 0).unwrap();
        let odd = StateDir::open(&dir, FlushPolicy::OnEvict, |t| t % 2 == 1).unwrap();
        assert_eq!(even.len(), 5);
        assert_eq!(odd.len(), 5);
        assert!(even.contains(4) && !even.contains(5));
        assert!(odd.contains(5) && !odd.contains(4));
        assert_eq!(even.quarantined() + odd.quarantined(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_after_failed_resume_renames_the_file() {
        let dir = scratch_dir("resume_fail");
        let mut state = StateDir::open(&dir, FlushPolicy::OnEvict, |_| true).unwrap();
        state.write(5, &delta_header_bytes(5)).unwrap();
        assert!(state.quarantine(5));
        assert!(!state.contains(5));
        assert_eq!(state.quarantined(), 1);
        assert!(dir.join("tenant-5.smore.quarantine").exists());
        assert!(!dir.join("tenant-5.smore").exists());
        // Quarantining an absent tenant is a no-op.
        assert!(!state.quarantine(5));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_clears_the_write_behind_backlog() {
        let dir = scratch_dir("flush");
        let mut state = StateDir::open(&dir, FlushPolicy::OnEvict, |_| true).unwrap();
        state.write(1, &delta_header_bytes(1)).unwrap();
        state.write(2, &delta_header_bytes(2)).unwrap();
        assert_eq!(state.unsynced.len(), 2);
        state.flush().unwrap();
        assert!(state.unsynced.is_empty());
        // Idempotent.
        state.flush().unwrap();
        // Sync policy never defers.
        let mut sync =
            StateDir::open(scratch_dir("flush_sync"), FlushPolicy::Sync, |_| true).unwrap();
        sync.write(1, &delta_header_bytes(1)).unwrap();
        assert!(sync.unsynced.is_empty());
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(sync.dir());
    }

    /// The inode behind `path`: a rewrite renames a new one over it.
    #[cfg(unix)]
    fn inode(path: &Path) -> u64 {
        std::os::unix::fs::MetadataExt::ino(&fs::metadata(path).unwrap())
    }

    /// take → reindex hands the very file back: same inode, no temp
    /// file, the index and byte total as before the take — and under
    /// `OnEvict` a write still awaiting its fsync stays owed to flush().
    #[cfg(unix)]
    #[test]
    fn reindex_after_take_keeps_the_file_and_its_pending_fsync() {
        let dir = scratch_dir("reindex");
        let payload = delta_header_bytes(0x5A);
        let mut state = StateDir::open(&dir, FlushPolicy::OnEvict, |_| true).unwrap();
        state.write(3, &payload).unwrap();
        state.write(4, &delta_header_bytes(4)).unwrap();
        let (len, bytes) = (state.len(), state.total_bytes());
        let path = dir.join("tenant-3.smore");
        let ino = inode(&path);

        assert_eq!(state.take(3).unwrap().as_deref(), Some(payload.as_slice()));
        assert!(state.awaits_flush(3), "take must not forget an unsynced write");
        state.reindex(3, payload.len() as u64).unwrap();
        assert!(state.contains(3));
        assert_eq!((state.len(), state.total_bytes()), (len, bytes));
        assert_eq!(inode(&path), ino, "a clean eviction must not rewrite the file");
        assert!(!dir.join("tenant-3.tmp").exists());
        assert!(state.awaits_flush(3));
        state.flush().unwrap();
        assert!(!state.awaits_flush(3));

        // A synced file re-indexed under OnEvict is owed a flush again,
        // as a rewrite of it would be.
        state.take(3).unwrap().unwrap();
        state.reindex(3, payload.len() as u64).unwrap();
        assert!(state.awaits_flush(3));
        state.flush().unwrap();

        // Sync: the fsyncs run at once and nothing is deferred.
        drop(state);
        let mut sync = StateDir::open(&dir, FlushPolicy::Sync, |_| true).unwrap();
        assert_eq!(sync.take(3).unwrap().as_deref(), Some(payload.as_slice()));
        sync.reindex(3, payload.len() as u64).unwrap();
        assert!(!sync.awaits_flush(3));
        assert_eq!((sync.len(), sync.total_bytes()), (len, bytes));
        assert_eq!(inode(&path), ino);
        drop(sync);
        let reopened = StateDir::open(&dir, FlushPolicy::Sync, |_| true).unwrap();
        assert_eq!((reopened.recovered(), reopened.quarantined()), (2, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A Sync re-index that cannot fsync fails typed and leaves the tenant
    /// unindexed, so the caller falls back to a write.
    #[test]
    fn sync_reindex_of_a_vanished_dir_fails_and_stays_unindexed() {
        let dir = scratch_dir("reindex_gone");
        let payload = delta_header_bytes(8);
        let mut state = StateDir::open(&dir, FlushPolicy::Sync, |_| true).unwrap();
        state.write(8, &payload).unwrap();
        state.take(8).unwrap().unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let err = state.reindex(8, payload.len() as u64).unwrap_err();
        assert!(matches!(err, SmoreError::Io { .. }), "{err}");
        assert!(!state.contains(8));
        assert_eq!(state.total_bytes(), 0);
    }

    #[test]
    fn unwritable_dir_fails_typed_and_counts() {
        let dir = scratch_dir("readonly");
        let mut state = StateDir::open(&dir, FlushPolicy::Sync, |_| true).unwrap();
        // Yank the directory out from under the open instance and park a
        // plain file at its path — every write must now fail, even for
        // root (chmod tricks do not bind uid 0).
        fs::remove_dir_all(&dir).unwrap();
        fs::write(&dir, b"disk gone").unwrap();
        let err = state.write(9, &delta_header_bytes(9)).unwrap_err();
        assert!(matches!(err, SmoreError::Io { .. }), "{err}");
        assert_eq!(state.write_failures(), 1);
        assert!(!state.contains(9));
        let _ = fs::remove_file(&dir);
    }
}
