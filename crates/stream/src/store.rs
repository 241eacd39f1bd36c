//! Bounded resident-session store: LRU eviction to compact delta
//! artifacts, lazy rehydration on the tenant's next request.
//!
//! A serving worker used to keep every [`TenantSession`] it had ever
//! opened in an unbounded map — fine for a demo fleet, an OOM time bomb
//! at the ROADMAP's million-tenant scale. [`SessionStore`] is the
//! replacement: a fixed budget of resident sessions and resident
//! personalized bytes, with everything over budget *suspended* rather
//! than lost.
//!
//! - **Access** goes through [`SessionStore::with_session`]: resident
//!   sessions are served in place; an evicted tenant is transparently
//!   rebuilt from its archived `DeltaV1` bytes
//!   ([`ServeEngine::resume_session`]) before the closure runs; an
//!   unknown tenant gets a fresh session off the shared base.
//! - **Eviction** pops least-recently-used sessions (never the one being
//!   accessed) whenever either cap is exceeded. A personalized session
//!   suspends to its compact delta artifact — KiB against the ~half-MiB a
//!   resident full-model clone used to pin — and a never-personalized
//!   session is simply dropped, because the engine can rebuild it from
//!   nothing. A session rehydrated from a committed state-dir file that
//!   has not ingested since (its `steps()` is unchanged; predicts never
//!   advance it) is evicted *clean*: the file still holds exactly its
//!   state, so it is handed back to the [`StateDir`] index
//!   ([`StateDir::reindex`]) with no suspend and no write. Every other
//!   session — one that ingested or enrolled, a fresh one, one restored
//!   from the in-memory archive — suspends and writes.
//!
//! Every eviction and rehydration is journalled
//! ([`EventKind::SessionEvicted`] / [`EventKind::SessionHydrated`]) when
//! the engine carries a journal, so the serving telemetry sees churn the
//! same way it sees drift.
//!
//! The store is single-owner by design (each serve worker shards tenants
//! and owns one store) — no locks anywhere.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use smore::SmoreError;
use smore_obs::{Event, EventKind};

use crate::engine::{ServeEngine, TenantSession};
use crate::persist::StateDir;
use crate::Result;

/// Duration → whole nanoseconds, saturating.
fn elapsed_nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Where suspended tenant state is parked: an in-memory map, backed by a
/// durable [`StateDir`] when the store persists. With a directory, the
/// map is the overflow for bytes the disk refused (full, unwritable):
/// serving availability beats durability, so a failed archive write
/// keeps the state in memory — counted, never lost silently.
#[derive(Debug)]
struct Archive {
    memory: HashMap<u64, Vec<u8>>,
    /// Sum of `memory` value lengths, maintained incrementally.
    memory_bytes: usize,
    state: Option<StateDir>,
}

impl Archive {
    fn tenants(&self) -> usize {
        self.memory.len() + self.state.as_ref().map_or(0, StateDir::len)
    }

    fn bytes(&self) -> usize {
        let disk = self.state.as_ref().map_or(0, StateDir::total_bytes);
        usize::try_from(disk).unwrap_or(usize::MAX) + self.memory_bytes
    }

    fn contains(&self, tenant: u64) -> bool {
        self.memory.contains_key(&tenant) || self.on_disk(tenant)
    }

    /// Whether `tenant`'s state is committed to the state dir.
    fn on_disk(&self, tenant: u64) -> bool {
        self.state.as_ref().is_some_and(|s| s.contains(tenant))
    }

    /// The archived bytes held in memory for `tenant` — committed
    /// on-disk state is not loaded.
    fn peek(&self, tenant: u64) -> Option<&[u8]> {
        self.memory.get(&tenant).map(Vec::as_slice)
    }

    fn keep_in_memory(&mut self, tenant: u64, bytes: Vec<u8>) {
        self.memory_bytes += bytes.len();
        if let Some(stale) = self.memory.insert(tenant, bytes) {
            self.memory_bytes = self.memory_bytes.saturating_sub(stale.len());
        }
    }

    fn take_from_memory(&mut self, tenant: u64) -> Option<Vec<u8>> {
        let bytes = self.memory.remove(&tenant)?;
        self.memory_bytes = self.memory_bytes.saturating_sub(bytes.len());
        Some(bytes)
    }

    /// Parks `tenant`'s suspended bytes: written to the state dir when
    /// there is one, kept in memory when there is none or the write
    /// fails (counted in [`StateDir::write_failures`]).
    fn insert(&mut self, tenant: u64, bytes: Vec<u8>) {
        self.take_from_memory(tenant);
        if let Some(state) = &mut self.state {
            match state.write(tenant, &bytes) {
                Ok(()) => return,
                Err(e) => smore_obs::warn!(
                    "store",
                    "archive write for tenant {tenant} failed ({e}); keeping state in memory"
                ),
            }
        }
        self.keep_in_memory(tenant, bytes);
    }

    /// Removes and returns `tenant`'s archived bytes, reading through
    /// memory → disk. The flag is true when the bytes are a committed
    /// state-dir file's, which stays on disk for [`Self::reindex`].
    fn take(&mut self, tenant: u64) -> Result<Option<(Vec<u8>, bool)>> {
        if let Some(bytes) = self.take_from_memory(tenant) {
            return Ok(Some((bytes, false)));
        }
        match &mut self.state {
            Some(state) => Ok(state.take(tenant)?.map(|b| (b, true))),
            None => Ok(None),
        }
    }

    /// Hands `tenant`'s committed file, `len` bytes long, back to the disk
    /// index ([`StateDir::reindex`]). Returns false when there is no state
    /// dir or a sync-policy fsync failed: the caller then suspends and
    /// writes, and that write reports a disk that stays faulty.
    fn reindex(&mut self, tenant: u64, len: usize) -> bool {
        self.state.as_mut().is_some_and(|s| s.reindex(tenant, len as u64).is_ok())
    }

    /// Puts `tenant`'s bytes back after a failed resume: the on-disk file
    /// is quarantined when there is one, otherwise the bytes go back to
    /// memory for inspection. Returns whether a file was quarantined (the
    /// caller journals it).
    fn restore_failed(&mut self, tenant: u64, bytes: Vec<u8>) -> bool {
        if self.state.as_mut().is_some_and(|s| s.quarantine(tenant)) {
            return true;
        }
        self.keep_in_memory(tenant, bytes);
        false
    }
}

/// One resident session plus its LRU and byte bookkeeping.
#[derive(Debug)]
struct Entry {
    session: TenantSession,
    /// The monotone access tick keying this entry in the LRU index.
    tick: u64,
    /// Personal-state bytes counted toward the store's byte budget at the
    /// tenant's last access.
    delta_bytes: usize,
    /// The committed state-dir file the session was rehydrated from, if
    /// any; eviction re-indexes it while the session is still clean.
    file: Option<HydratedFile>,
}

/// A committed state-dir file a session was rehydrated from.
#[derive(Debug, Clone, Copy)]
struct HydratedFile {
    /// File length in bytes.
    len: usize,
    /// The session's `steps()` right after rehydration. Only an ingest
    /// advances it, so while it is unchanged the file holds exactly the
    /// session's state.
    steps: usize,
}

/// A bounded, LRU-evicting map from tenant id to resident
/// [`TenantSession`] (see the [module docs](self)).
#[derive(Debug)]
pub struct SessionStore {
    engine: Arc<ServeEngine>,
    max_sessions: usize,
    max_delta_bytes: usize,
    resident: HashMap<u64, Entry>,
    /// LRU index: access tick → tenant. Ticks are unique, so the smallest
    /// key is always the least recently used resident.
    lru: BTreeMap<u64, u64>,
    /// Suspended personal state of evicted tenants, as `DeltaV1` bytes —
    /// in memory, or durable on disk when built with
    /// [`SessionStore::new_persistent`].
    tier: Archive,
    resident_delta_bytes: usize,
    tick: u64,
    evictions: u64,
    hydrations: u64,
}

impl SessionStore {
    /// A store over `engine` holding at most `max_sessions` resident
    /// sessions and at most `max_delta_bytes` of resident personalized
    /// state (both enforced after every access; the session being
    /// accessed is never evicted by its own access).
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::InvalidConfig`] when `max_sessions` is zero.
    pub fn new(
        engine: Arc<ServeEngine>,
        max_sessions: usize,
        max_delta_bytes: usize,
    ) -> Result<Self> {
        Self::with_state(engine, max_sessions, max_delta_bytes, None)
    }

    /// Like [`SessionStore::new`], but with the archive backed by a
    /// durable [`StateDir`]: evicted personalization is written to disk
    /// (surviving the process), rehydration reads through the in-memory
    /// overflow to disk, and the state the directory scan recovered from
    /// a previous process is immediately servable. Use
    /// [`SessionStore::drain`] before exit to also persist the sessions
    /// still resident.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::InvalidConfig`] when `max_sessions` is zero.
    pub fn new_persistent(
        engine: Arc<ServeEngine>,
        max_sessions: usize,
        max_delta_bytes: usize,
        state: StateDir,
    ) -> Result<Self> {
        Self::with_state(engine, max_sessions, max_delta_bytes, Some(state))
    }

    fn with_state(
        engine: Arc<ServeEngine>,
        max_sessions: usize,
        max_delta_bytes: usize,
        state: Option<StateDir>,
    ) -> Result<Self> {
        if max_sessions == 0 {
            return Err(SmoreError::InvalidConfig {
                what: "session store needs max_sessions >= 1".into(),
            });
        }
        Ok(Self {
            engine,
            max_sessions,
            max_delta_bytes,
            resident: HashMap::new(),
            lru: BTreeMap::new(),
            tier: Archive { memory: HashMap::new(), memory_bytes: 0, state },
            resident_delta_bytes: 0,
            tick: 0,
            evictions: 0,
            hydrations: 0,
        })
    }

    /// The shared engine sessions are opened against.
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.engine
    }

    /// Resident sessions right now.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether no session is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// The resident-session cap.
    pub fn max_sessions(&self) -> usize {
        self.max_sessions
    }

    /// The resident personalized-byte cap.
    pub fn max_delta_bytes(&self) -> usize {
        self.max_delta_bytes
    }

    /// Resident personal-state bytes currently counted against the byte
    /// cap.
    pub fn resident_delta_bytes(&self) -> usize {
        self.resident_delta_bytes
    }

    /// Evicted tenants whose personal state is parked as delta bytes.
    pub fn archived_tenants(&self) -> usize {
        self.tier.tenants()
    }

    /// Total archived delta bytes (on disk plus any in-memory overflow
    /// under a persistent store).
    pub fn archived_bytes(&self) -> usize {
        self.tier.bytes()
    }

    /// Sessions evicted since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Sessions rehydrated from archived deltas since creation.
    pub fn hydrations(&self) -> u64 {
        self.hydrations
    }

    /// Whether the archive is backed by a durable [`StateDir`].
    pub fn persists(&self) -> bool {
        self.tier.state.is_some()
    }

    /// Tenant-state files recovered from disk by the startup scan
    /// (0 for an in-memory store).
    pub fn state_recovered(&self) -> u64 {
        self.tier.state.as_ref().map_or(0, StateDir::recovered)
    }

    /// Tenant-state files quarantined — torn, corrupt or unresumable
    /// (0 for an in-memory store).
    pub fn state_quarantined(&self) -> u64 {
        self.tier.state.as_ref().map_or(0, StateDir::quarantined)
    }

    /// Archive writes the disk refused; the state fell back to memory
    /// (0 for an in-memory store).
    pub fn state_write_failures(&self) -> u64 {
        self.tier.state.as_ref().map_or(0, StateDir::write_failures)
    }

    /// Whether `tenant` currently holds a resident session.
    pub fn is_resident(&self, tenant: u64) -> bool {
        self.resident.contains_key(&tenant)
    }

    /// Whether `tenant` is evicted with archived personal state — i.e. it
    /// would rehydrate (not start fresh) on its next access.
    pub fn has_archived(&self, tenant: u64) -> bool {
        self.tier.contains(tenant)
    }

    /// The archived delta bytes held *in memory* for `tenant`, if any —
    /// under a persistent store, state committed to disk is not loaded
    /// by this accessor.
    pub fn archived_delta(&self, tenant: u64) -> Option<&[u8]> {
        self.tier.peek(tenant)
    }

    /// Iterates the resident sessions (unspecified order) — the gauge
    /// scrape surface.
    pub fn sessions(&self) -> impl Iterator<Item = &TenantSession> {
        self.resident.values().map(|e| &e.session)
    }

    /// Peeks at `tenant`'s resident session **without** touching LRU
    /// order or rehydrating — for routing decisions (is this tenant
    /// answerable from the shared base?), not for serving.
    pub fn get(&self, tenant: u64) -> Option<&TenantSession> {
        self.resident.get(&tenant).map(|e| &e.session)
    }

    /// Runs `f` against `tenant`'s session, making it resident first if
    /// needed: rehydrated from its archived delta, or opened fresh off
    /// the shared base. Afterwards the tenant's byte accounting is
    /// refreshed (the closure may have enrolled a domain) and the LRU
    /// caps are enforced against every *other* resident.
    ///
    /// # Errors
    ///
    /// Propagates rehydration failures (corrupt archived bytes, base
    /// mismatch); the archived bytes are kept for inspection and the
    /// closure never runs.
    pub fn with_session<T>(
        &mut self,
        tenant: u64,
        f: impl FnOnce(&mut TenantSession) -> T,
    ) -> Result<T> {
        self.touch(tenant)?;
        // smore-lint: allow(panic_path) touch() either hydrated the tenant or returned an error
        let entry = self.resident.get_mut(&tenant).expect("touched tenant is resident");
        let out = f(&mut entry.session);
        let bytes = entry.session.delta_storage_bytes();
        self.resident_delta_bytes =
            (self.resident_delta_bytes + bytes).saturating_sub(entry.delta_bytes);
        entry.delta_bytes = bytes;
        self.evict_to_caps(tenant);
        Ok(out)
    }

    /// Makes `tenant` resident and most-recently-used.
    fn touch(&mut self, tenant: u64) -> Result<()> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.resident.get_mut(&tenant) {
            self.lru.remove(&entry.tick);
            entry.tick = tick;
            self.lru.insert(tick, tenant);
            return Ok(());
        }
        let mut file = None;
        let session = match self.tier.take(tenant)? {
            Some((bytes, committed)) => {
                let t0 = Instant::now();
                match self.engine.resume_session(tenant, &bytes) {
                    Ok(session) => {
                        self.hydrations += 1;
                        self.emit(Event {
                            kind: EventKind::SessionHydrated,
                            tenant,
                            step: session.steps() as u64,
                            a: bytes.len() as u64,
                            b: session.delta().map_or(0, |d| d.num_domains()) as u64,
                            nanos: elapsed_nanos(t0),
                        });
                        if committed {
                            file = Some(HydratedFile { len: bytes.len(), steps: session.steps() });
                        }
                        session
                    }
                    Err(e) => {
                        // Keep the bytes: the operator can still extract
                        // or repair them; serving just fails typed. An
                        // on-disk file is quarantined; bytes without one
                        // go back to the in-memory archive.
                        let len = bytes.len();
                        if self.tier.restore_failed(tenant, bytes) {
                            self.emit(Event {
                                kind: EventKind::StateQuarantined,
                                tenant,
                                step: 0,
                                a: len as u64,
                                b: 0,
                                nanos: elapsed_nanos(t0),
                            });
                        }
                        return Err(e);
                    }
                }
            }
            None => self.engine.session_for(tenant),
        };
        let delta_bytes = session.delta_storage_bytes();
        self.resident_delta_bytes += delta_bytes;
        self.resident.insert(tenant, Entry { session, tick, delta_bytes, file });
        self.lru.insert(tick, tenant);
        Ok(())
    }

    /// Evicts least-recently-used residents until both caps hold.
    /// `protect` (the tenant just accessed — always the newest tick) is
    /// never evicted; when it is the only resident, a byte budget it
    /// exceeds on its own is tolerated rather than thrashed on.
    fn evict_to_caps(&mut self, protect: u64) {
        while self.resident.len() > self.max_sessions
            || self.resident_delta_bytes > self.max_delta_bytes
        {
            let Some((&tick, &tenant)) = self.lru.iter().next() else { break };
            if tenant == protect {
                break;
            }
            self.evict_entry(tick, tenant);
        }
    }

    /// Removes one resident: a clean rehydrated session hands its file
    /// back to the index, other personalized sessions suspend and archive
    /// their delta bytes, base-only sessions vanish (the engine rebuilds
    /// them from nothing).
    fn evict_entry(&mut self, tick: u64, tenant: u64) {
        self.lru.remove(&tick);
        let Some(entry) = self.resident.remove(&tenant) else { return };
        self.resident_delta_bytes = self.resident_delta_bytes.saturating_sub(entry.delta_bytes);
        let step = entry.session.steps() as u64;
        let clean = entry.file.filter(|f| f.steps == entry.session.steps());
        let (archived_len, nanos) = match clean {
            // Nothing to serialize: the file already holds this state.
            Some(file) if self.tier.reindex(tenant, file.len) => (file.len, 0),
            _ => {
                let t0 = Instant::now();
                let archived = entry.session.suspend();
                let nanos = elapsed_nanos(t0);
                let archived_len = archived.as_ref().map_or(0, Vec::len);
                if let Some(bytes) = archived {
                    self.tier.insert(tenant, bytes);
                }
                (archived_len, nanos)
            }
        };
        self.evictions += 1;
        self.emit(Event {
            kind: EventKind::SessionEvicted,
            tenant,
            step,
            a: archived_len as u64,
            b: self.resident.len() as u64,
            nanos,
        });
    }

    /// Evicts **every** resident session — the graceful-drain phase of a
    /// shutdown — and flushes the durable tier, so a restart over the
    /// same state dir rehydrates each personalized tenant bit-exactly.
    /// Clean rehydrated sessions re-index their files; the rest suspend.
    /// Returns how many personalized sessions it left in the state dir,
    /// written or re-indexed; one whose write failed stays in memory and
    /// is not counted.
    ///
    /// Meaningful for a persistent store; on an in-memory store it only
    /// moves residents to the (equally volatile) archive and returns 0.
    ///
    /// # Errors
    ///
    /// Propagates the first fsync failure from [`StateDir::flush`]; the
    /// sessions are suspended regardless.
    pub fn drain(&mut self) -> Result<usize> {
        let mut persisted = 0usize;
        while let Some((&tick, &tenant)) = self.lru.iter().next() {
            let personalized =
                self.resident.get(&tenant).is_some_and(|e| e.session.is_personalized());
            self.evict_entry(tick, tenant);
            if personalized && self.tier.on_disk(tenant) {
                persisted += 1;
            }
        }
        self.flush()?;
        Ok(persisted)
    }

    /// Fsyncs archive writes deferred by [`FlushPolicy::OnEvict`]
    /// (no-op for an in-memory store).
    ///
    /// [`FlushPolicy::OnEvict`]: crate::persist::FlushPolicy::OnEvict
    ///
    /// # Errors
    ///
    /// Propagates [`StateDir::flush`] failures.
    pub fn flush(&mut self) -> Result<()> {
        self.tier.state.as_mut().map_or(Ok(()), StateDir::flush)
    }

    /// Journals `event` when the engine carries a journal.
    fn emit(&self, event: Event) {
        if let Some(journal) = self.engine.journal() {
            journal.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use smore::{Smore, SmoreConfig};
    use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
    use smore_data::split;
    use smore_data::stream::{concept_drift_stream, DriftSegment, StreamConfig, StreamItem};
    use smore_obs::EventJournal;
    use smore_tensor::Matrix;

    use super::*;
    use crate::{LabelStrategy, StreamingConfig};

    fn shifted_dataset(seed: u64) -> smore_data::Dataset {
        generate(&GeneratorConfig {
            name: "store-test".into(),
            num_classes: 4,
            channels: 3,
            window_len: 24,
            sample_rate_hz: 25.0,
            domains: (0..4)
                .map(|d| DomainSpec { subjects: vec![2 * d, 2 * d + 1], windows: 80 })
                .collect(),
            shift_severity: 1.2,
            seed,
        })
        .unwrap()
    }

    fn engine_config() -> StreamingConfig {
        StreamingConfig {
            buffer_capacity: 128,
            drift_window: 32,
            drift_threshold: 0.5,
            min_enroll: 24,
            cooldown: 32,
            label_strategy: LabelStrategy::Oracle,
            ..StreamingConfig::default()
        }
    }

    fn calibrated_engine(ds: &smore_data::Dataset, train: &[usize]) -> ServeEngine {
        let mut model = Smore::new(
            SmoreConfig::builder()
                .dim(1024)
                .channels(3)
                .num_classes(4)
                .epochs(10)
                .threads(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        model.fit_indices(ds, train).unwrap();
        let mut engine = ServeEngine::new(model, engine_config()).unwrap();
        let (calib_w, _, _) = ds.gather(train);
        engine.calibrate_drift_delta(&calib_w, 0.25).unwrap();
        engine
    }

    /// One calibrated engine + dataset shared by the journal-free tests —
    /// each test opens its own store over it.
    fn fixture() -> &'static (smore_data::Dataset, Arc<ServeEngine>) {
        static FIXTURE: OnceLock<(smore_data::Dataset, Arc<ServeEngine>)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let ds = shifted_dataset(7);
            let (train, _) = split::lodo(&ds, 3).unwrap();
            let engine = calibrated_engine(&ds, &train);
            (ds, Arc::new(engine))
        })
    }

    /// The calibrated 1.5×-gain new-user stream the engine tests pin as
    /// reliably firing the drift detector.
    fn stormy(ds: &smore_data::Dataset) -> Vec<StreamItem> {
        concept_drift_stream(
            ds,
            &StreamConfig {
                segments: vec![
                    DriftSegment::plain(0, 100),
                    DriftSegment {
                        domain: 3,
                        windows: 140,
                        gain_ramp: Some((1.5, 1.5)),
                        dropout_channel: None,
                    },
                ],
                seed: 7 ^ 0xAA,
            },
        )
        .unwrap()
    }

    /// Drives `tenant` through `items` until it personalizes.
    fn personalize(store: &mut SessionStore, tenant: u64, items: &[StreamItem]) {
        for item in items {
            store
                .with_session(tenant, |s| s.ingest_labelled(&item.window, item.label).map(|_| ()))
                .unwrap()
                .unwrap();
        }
        assert!(
            store.with_session(tenant, |s| s.is_personalized()).unwrap(),
            "drift stream must personalize tenant {tenant}"
        );
    }

    #[test]
    fn store_requires_a_positive_session_cap() {
        let (_, engine) = fixture();
        let err = SessionStore::new(Arc::clone(engine), 0, 1024).unwrap_err();
        assert!(matches!(err, SmoreError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("max_sessions"), "{err}");
    }

    /// The leak regression: a worker that meets 10k distinct tenants must
    /// hold at most `max_sessions` of them resident at any point — the old
    /// unbounded `HashMap` kept all 10k alive forever.
    #[test]
    fn churn_of_ten_thousand_tenants_stays_bounded() {
        let (ds, engine) = fixture();
        let cap = 64;
        let mut store = SessionStore::new(Arc::clone(engine), cap, usize::MAX).unwrap();
        let window = ds.window(0);
        for tenant in 0..10_000u64 {
            let label =
                store.with_session(tenant, |s| s.predict_window(window).unwrap().label).unwrap();
            assert!(label < 4);
            assert!(store.len() <= cap, "resident sessions exceeded the cap at tenant {tenant}");
        }
        assert_eq!(store.len(), cap);
        assert_eq!(store.evictions(), 10_000 - cap as u64);
        assert_eq!(store.hydrations(), 0);
        assert_eq!(store.archived_tenants(), 0, "base-only sessions drop, they never archive");
        assert_eq!(store.resident_delta_bytes(), 0);
        assert!(store.is_resident(9_999));
        assert!(!store.is_resident(0));
        // An evicted base-only tenant simply starts fresh off the shared
        // base — nothing was worth keeping.
        assert_eq!(store.with_session(0, |s| s.steps()).unwrap(), 0);
    }

    /// The byte budget is enforced independently of the session cap: an
    /// idle personalized tenant is suspended to its archive as soon as its
    /// resident delta bytes cannot be afforded, while base-only traffic
    /// keeps flowing.
    #[test]
    fn byte_budget_evicts_idle_personalized_tenants() {
        let (ds, engine) = fixture();
        let mut store = SessionStore::new(Arc::clone(engine), 16, 1).unwrap();
        personalize(&mut store, 1, &stormy(ds));

        // The tenant just accessed is protected even while over budget on
        // its own — tolerate, don't thrash.
        assert!(store.is_resident(1));
        assert!(store.resident_delta_bytes() > 1);

        // The next tenant's access makes tenant 1 evictable.
        let window = ds.window(0);
        store.with_session(2, |s| s.predict_window(window).unwrap().label).unwrap();
        assert!(!store.is_resident(1), "over-budget personalized tenant must be suspended");
        assert!(store.has_archived(1), "suspension must archive the personal delta");
        assert_eq!(store.resident_delta_bytes(), 0);
        assert!(store.is_resident(2));
    }

    /// The full churn lifecycle for a personalized tenant: enrol → evict →
    /// rehydrate → enrol again. Serving after rehydration is bit-exact
    /// with serving before eviction, enrolment history survives, and the
    /// second enrolment continues the tag sequence instead of reusing one.
    #[test]
    fn personalized_tenant_survives_eviction_and_reenrols_after_rehydration() {
        let ds = shifted_dataset(7);
        let (train, _) = split::lodo(&ds, 3).unwrap();
        let mut engine = calibrated_engine(&ds, &train);
        let journal = Arc::new(EventJournal::new(4096));
        engine.set_journal(Arc::clone(&journal));
        let mut store = SessionStore::new(Arc::new(engine), 3, usize::MAX).unwrap();

        let items = stormy(&ds);
        personalize(&mut store, 1, &items);
        let eval: Vec<Matrix> =
            items.iter().filter(|i| i.segment == 1).take(24).map(|i| i.window.clone()).collect();
        let (events_before, steps_before, domains_before, before) = store
            .with_session(1, |s| {
                let preds: Vec<_> =
                    eval.iter().map(|w| s.predict_window(w).unwrap().clone()).collect();
                (s.events().to_vec(), s.steps(), s.num_domains(), preds)
            })
            .unwrap();
        assert!(!events_before.is_empty());

        // Three other tenants push tenant 1 over the session cap.
        let window = ds.window(0);
        for tenant in 2..=5 {
            store.with_session(tenant, |s| s.predict_window(window).unwrap().label).unwrap();
        }
        assert!(!store.is_resident(1));
        assert!(store.has_archived(1), "evicting a personalized tenant must keep its delta");
        let archived = store.archived_delta(1).unwrap().len();
        assert!(archived > 0, "personal state serializes to a non-empty artifact");
        assert!(archived < 32 << 10, "delta artifact stays KiB-scale, got {archived} bytes");
        assert_eq!(store.archived_bytes(), archived);

        // Next access transparently rehydrates — nothing moved a bit.
        let (events_after, steps_after, domains_after, after) = store
            .with_session(1, |s| {
                let preds: Vec<_> =
                    eval.iter().map(|w| s.predict_window(w).unwrap().clone()).collect();
                (s.events().to_vec(), s.steps(), s.num_domains(), preds)
            })
            .unwrap();
        assert_eq!(store.hydrations(), 1);
        assert!(!store.has_archived(1));
        assert_eq!(store.archived_bytes(), 0);
        assert_eq!(after, before, "rehydrated serving must be bit-exact with pre-eviction");
        assert_eq!(steps_after, steps_before, "step counter must survive suspension");
        assert_eq!(domains_after, domains_before);
        assert_eq!(events_after.len(), events_before.len());
        for (a, b) in events_after.iter().zip(&events_before) {
            assert_eq!(
                (a.tag, a.step, a.enrolled_windows, a.oracle_labelled),
                (b.tag, b.step, b.enrolled_windows, b.oracle_labelled),
                "enrolment history must survive suspension"
            );
        }

        // A second, different drift (other source domain, harsher gain, a
        // dead channel) must fire again — and its tag must extend the
        // sequence, not reuse one.
        let second = concept_drift_stream(
            &ds,
            &StreamConfig {
                segments: vec![DriftSegment {
                    domain: 2,
                    windows: 140,
                    gain_ramp: Some((2.4, 2.4)),
                    dropout_channel: Some(1),
                }],
                seed: 99,
            },
        )
        .unwrap();
        let mut new_tags = Vec::new();
        for item in &second {
            let adapted = store
                .with_session(1, |s| s.ingest_labelled(&item.window, item.label).map(|o| o.adapted))
                .unwrap()
                .unwrap();
            if let Some(event) = adapted {
                new_tags.push(event.tag);
            }
        }
        assert!(!new_tags.is_empty(), "fresh drift after rehydration must enrol again");
        let prev_max = events_before.iter().map(|e| e.tag).max().unwrap();
        assert!(
            new_tags.iter().all(|t| *t > prev_max),
            "post-rehydration tags {new_tags:?} must continue past {prev_max}"
        );

        // The whole lifecycle is journalled with the tenant's id.
        let snap = journal.snapshot();
        assert!(snap.count_of(EventKind::SessionEvicted) >= 1);
        assert_eq!(snap.count_of(EventKind::SessionHydrated), 1);
        let hydrated = snap.events.iter().find(|e| e.kind == EventKind::SessionHydrated).unwrap();
        assert_eq!(hydrated.tenant, 1);
        assert_eq!(hydrated.a, archived as u64, "hydration event carries the bytes read");
        assert!(hydrated.b >= 1, "hydration event carries the domains restored");
        let evicted = snap
            .events
            .iter()
            .find(|e| e.kind == EventKind::SessionEvicted && e.tenant == 1)
            .unwrap();
        assert_eq!(evicted.a, archived as u64, "eviction event carries the bytes archived");
    }

    /// Corrupt archived bytes fail typed on rehydration and stay archived
    /// for inspection; other tenants keep serving.
    #[test]
    fn corrupt_archive_fails_typed_and_is_kept() {
        let (ds, engine) = fixture();
        let mut store = SessionStore::new(Arc::clone(engine), 2, usize::MAX).unwrap();
        personalize(&mut store, 1, &stormy(ds));

        // Evict tenant 1, then sabotage its archive.
        let window = ds.window(0);
        for tenant in 2..=4 {
            store.with_session(tenant, |s| s.predict_window(window).unwrap().label).unwrap();
        }
        assert!(store.has_archived(1));
        let mut bytes = store.archived_delta(1).unwrap().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        store.tier.insert(1, bytes);

        let err = store.with_session(1, |s| s.steps()).unwrap_err();
        assert!(matches!(err, SmoreError::CorruptArtifact { .. }), "{err}");
        assert!(store.has_archived(1), "failed hydration must keep the bytes for inspection");
        assert!(!store.is_resident(1));
        assert_eq!(store.hydrations(), 0);
        // The store still serves everyone else.
        store.with_session(2, |s| s.predict_window(window).unwrap().label).unwrap();
    }

    // ---- durable archive tier -------------------------------------

    use crate::persist::{FlushPolicy, StateDir};

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("smore_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn persistent_store(
        engine: &Arc<ServeEngine>,
        dir: &std::path::Path,
        cap: usize,
        policy: FlushPolicy,
    ) -> SessionStore {
        let state = StateDir::open(dir, policy, |_| true).unwrap();
        SessionStore::new_persistent(Arc::clone(engine), cap, usize::MAX, state).unwrap()
    }

    /// Base-only traffic from tenants `from..from + 3`: enough to push
    /// every resident out of a two-session store.
    fn push_out(store: &mut SessionStore, ds: &smore_data::Dataset, from: u64) {
        let window = ds.window(0);
        for tenant in from..from + 3 {
            store.with_session(tenant, |s| s.predict_window(window).unwrap().label).unwrap();
        }
    }

    /// Held-out drifted windows to compare `tenant`'s predictions on.
    fn eval_windows(ds: &smore_data::Dataset) -> Vec<Matrix> {
        stormy(ds).iter().filter(|i| i.segment == 1).take(8).map(|i| i.window.clone()).collect()
    }

    /// `tenant`'s predictions on `eval`, in order.
    fn predict_all(
        store: &mut SessionStore,
        tenant: u64,
        eval: &[Matrix],
    ) -> Vec<smore::Prediction> {
        store
            .with_session(tenant, |s| {
                eval.iter().map(|w| s.predict_window(w).unwrap().clone()).collect()
            })
            .unwrap()
    }

    /// Whether `tenant` is in the set the store's next flush fsyncs.
    fn awaits_flush(store: &SessionStore, tenant: u64) -> bool {
        store.tier.state.as_ref().is_some_and(|s| s.awaits_flush(tenant))
    }

    /// Inode of `path`: a rewrite renames a new one over it.
    #[cfg(unix)]
    fn inode(path: &std::path::Path) -> u64 {
        std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(path).unwrap())
    }

    /// A predict-only visit to a tenant rehydrated from its state file
    /// evicts clean: the very file goes back to the index (same inode, no
    /// temp file), the archive gauges read as before the visit, the
    /// eviction is counted and journalled with the file's length, and the
    /// next rehydrate predicts bit-exactly.
    #[cfg(unix)]
    #[test]
    fn predict_only_visit_evicts_clean_without_rewriting_the_file() {
        let ds = shifted_dataset(7);
        let (train, _) = split::lodo(&ds, 3).unwrap();
        let mut engine = calibrated_engine(&ds, &train);
        let journal = Arc::new(EventJournal::new(4096));
        engine.set_journal(Arc::clone(&journal));
        let dir = scratch_dir("clean");
        let mut store = persistent_store(&Arc::new(engine), &dir, 2, FlushPolicy::OnEvict);
        personalize(&mut store, 1, &stormy(&ds));
        push_out(&mut store, &ds, 2);
        let path = dir.join("tenant-1.smore");
        let (ino, len) = (inode(&path), std::fs::metadata(&path).unwrap().len());
        let gauges = (store.archived_tenants(), store.archived_bytes());
        let evictions = store.evictions();

        let eval = eval_windows(&ds);
        let before = predict_all(&mut store, 1, &eval);
        assert!(store.is_resident(1));
        assert_eq!(store.archived_tenants(), gauges.0 - 1);
        push_out(&mut store, &ds, 5);
        assert!(!store.is_resident(1));
        assert!(store.has_archived(1));
        assert_eq!(inode(&path), ino, "a predict-only visit must not rewrite the file");
        assert!(!dir.join("tenant-1.tmp").exists());
        assert_eq!((store.archived_tenants(), store.archived_bytes()), gauges);
        assert_eq!(store.evictions(), evictions + 4, "tenants 3, 4, 1 and 5");
        let evicted: Vec<u64> = journal
            .snapshot()
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SessionEvicted && e.tenant == 1)
            .map(|e| e.a)
            .collect();
        assert_eq!(evicted, [len, len], "the write and the clean eviction both carry its length");

        assert_eq!(predict_all(&mut store, 1, &eval), before);
        assert_eq!(store.hydrations(), 2);
        assert_eq!(store.state_write_failures(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One ingest after rehydration makes the session dirty: its eviction
    /// rewrites the file, and the rewritten state is what comes back.
    #[cfg(unix)]
    #[test]
    fn one_ingest_after_rehydration_rewrites_the_file() {
        let (ds, engine) = fixture();
        let dir = scratch_dir("dirty");
        let mut store = persistent_store(engine, &dir, 2, FlushPolicy::OnEvict);
        personalize(&mut store, 1, &stormy(ds));
        push_out(&mut store, ds, 2);
        let path = dir.join("tenant-1.smore");
        let ino = inode(&path);

        let item = &stormy(ds)[0];
        let steps = store
            .with_session(1, |s| {
                s.ingest_labelled(&item.window, item.label).unwrap();
                s.steps()
            })
            .unwrap();
        push_out(&mut store, ds, 5);
        assert_ne!(inode(&path), ino, "an ingest must make the eviction write");
        assert!(!dir.join("tenant-1.tmp").exists());
        assert_eq!(store.with_session(1, |s| s.steps()).unwrap(), steps);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Under `OnEvict`, a write whose fsync was still deferred when the
    /// tenant rehydrated stays owed to flush() through the clean eviction;
    /// a drain pays it, and a store reopened over the directory serves
    /// bit-exactly.
    #[test]
    fn clean_eviction_keeps_a_deferred_fsync_owed_to_the_drain() {
        let (ds, engine) = fixture();
        let dir = scratch_dir("clean_flush");
        let eval = eval_windows(ds);
        let before;
        {
            let mut store = persistent_store(engine, &dir, 2, FlushPolicy::OnEvict);
            personalize(&mut store, 1, &stormy(ds));
            push_out(&mut store, ds, 2);
            assert!(awaits_flush(&store, 1));
            before = predict_all(&mut store, 1, &eval);
            assert!(awaits_flush(&store, 1), "rehydration must not forget the deferred fsync");
            push_out(&mut store, ds, 5);
            assert!(store.has_archived(1));
            assert!(awaits_flush(&store, 1), "nor may the clean eviction");
            store.drain().unwrap();
            assert!(!awaits_flush(&store, 1));
        }
        let mut store = persistent_store(engine, &dir, 2, FlushPolicy::OnEvict);
        assert_eq!(store.state_recovered(), 1);
        assert_eq!(predict_all(&mut store, 1, &eval), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The PR 8 suspend/resume invariant, now across a (conceptual)
    /// process boundary: evict to disk, drop the store entirely, build a
    /// fresh one over the same directory — the scan recovers the state
    /// and the tenant's predictions have not moved a bit.
    #[test]
    fn evicted_state_survives_a_new_store_over_the_same_dir() {
        let (ds, engine) = fixture();
        let dir = scratch_dir("recover");
        let eval: Vec<Matrix> = stormy(ds)
            .iter()
            .filter(|i| i.segment == 1)
            .take(16)
            .map(|i| i.window.clone())
            .collect();
        let before;
        {
            let mut store = persistent_store(engine, &dir, 2, FlushPolicy::Sync);
            personalize(&mut store, 1, &stormy(ds));
            before = store
                .with_session(1, |s| {
                    eval.iter().map(|w| s.predict_window(w).unwrap().clone()).collect::<Vec<_>>()
                })
                .unwrap();
            // Push tenant 1 out so its delta is committed to disk, then
            // drop the store with no drain — the unclean-death case.
            let window = ds.window(0);
            for tenant in 2..=4 {
                store.with_session(tenant, |s| s.predict_window(window).unwrap().label).unwrap();
            }
            assert!(store.has_archived(1));
            assert_eq!(store.state_recovered(), 0);
        }
        assert!(dir.join("tenant-1.smore").exists(), "eviction must commit a per-tenant file");

        let mut store = persistent_store(engine, &dir, 2, FlushPolicy::Sync);
        assert_eq!(store.state_recovered(), 1);
        assert!(store.has_archived(1), "recovered state must be immediately servable");
        let (after, steps, events) = store
            .with_session(1, |s| {
                let preds: Vec<_> =
                    eval.iter().map(|w| s.predict_window(w).unwrap().clone()).collect();
                (preds, s.steps(), s.events().to_vec())
            })
            .unwrap();
        assert_eq!(after, before, "recovered serving must be bit-exact with pre-crash");
        assert!(steps > 0, "step counter must survive the process boundary");
        assert!(!events.is_empty(), "enrolment history must survive the process boundary");
        assert_eq!(store.hydrations(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `drain()` persists the sessions still *resident* — the graceful
    /// half of shutdown — so nothing relies on eviction having happened.
    #[test]
    fn drain_persists_resident_sessions() {
        let (ds, engine) = fixture();
        let dir = scratch_dir("drain");
        {
            let mut store = persistent_store(engine, &dir, 8, FlushPolicy::OnEvict);
            personalize(&mut store, 1, &stormy(ds));
            assert!(store.is_resident(1), "nothing has evicted tenant 1 yet");
            let persisted = store.drain().unwrap();
            assert_eq!(persisted, 1, "one personalized resident must be archived");
            assert!(store.is_empty());
            assert!(store.has_archived(1));
        }
        let store = persistent_store(engine, &dir, 8, FlushPolicy::OnEvict);
        assert_eq!(store.state_recovered(), 1);
        assert!(store.has_archived(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `drain()` counts only the sessions it leaves in the state dir: with
    /// the directory gone, the personalized resident falls back to memory
    /// and is not counted; once the directory is back, draining it again
    /// writes its file and counts it.
    #[test]
    fn drain_counts_only_sessions_that_reach_the_state_dir() {
        let (ds, engine) = fixture();
        let dir = scratch_dir("drain_nowrite");
        let mut store = persistent_store(engine, &dir, 8, FlushPolicy::Sync);
        personalize(&mut store, 1, &stormy(ds));

        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"disk gone").unwrap();
        assert_eq!(store.drain().unwrap(), 0, "a session kept in memory was not drained to disk");
        assert_eq!(store.state_write_failures(), 1);
        assert!(store.archived_delta(1).is_some(), "the state stays in the memory overflow");

        std::fs::remove_file(&dir).unwrap();
        std::fs::create_dir(&dir).unwrap();
        assert!(store.with_session(1, |s| s.is_personalized()).unwrap());
        assert_eq!(store.drain().unwrap(), 1, "the retried write reaches the state dir");
        assert!(dir.join("tenant-1.smore").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupt on-disk artifact fails typed, is quarantined (kept,
    /// renamed) rather than retried forever, and the tenant simply
    /// starts fresh on the next access.
    #[test]
    fn corrupt_state_file_is_quarantined_and_tenant_restarts_fresh() {
        let (ds, engine) = fixture();
        let dir = scratch_dir("corrupt");
        {
            let mut store = persistent_store(engine, &dir, 8, FlushPolicy::Sync);
            personalize(&mut store, 1, &stormy(ds));
            store.drain().unwrap();
        }
        // Flip a payload bit — the header still sniffs fine, so the scan
        // accepts it and the CRC catches it at resume time.
        let path = dir.join("tenant-1.smore");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let mut store = persistent_store(engine, &dir, 8, FlushPolicy::Sync);
        assert_eq!(store.state_recovered(), 1);
        let err = store.with_session(1, |s| s.steps()).unwrap_err();
        assert!(matches!(err, SmoreError::CorruptArtifact { .. }), "{err}");
        assert_eq!(store.state_quarantined(), 1);
        assert!(dir.join("tenant-1.smore.quarantine").exists(), "kept for inspection");
        assert!(!store.has_archived(1));
        // Next access is a fresh session off the shared base, not an error,
        // and evicting it neither re-indexes nor writes anything.
        assert_eq!(store.with_session(1, |s| s.steps()).unwrap(), 0);
        push_out(&mut store, ds, 2);
        assert!(!store.has_archived(1));
        assert!(!dir.join("tenant-1.smore").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Disk-full / unwritable state dir: eviction falls back to the
    /// in-memory overflow — serving continues, nothing is lost, the
    /// failure is counted — and rehydration from the overflow is
    /// bit-exact.
    #[test]
    fn unwritable_state_dir_degrades_to_memory_overflow() {
        let (ds, engine) = fixture();
        let dir = scratch_dir("nowrite");
        let mut store = persistent_store(engine, &dir, 2, FlushPolicy::Sync);
        personalize(&mut store, 1, &stormy(ds));
        let eval: Vec<Matrix> = stormy(ds)
            .iter()
            .filter(|i| i.segment == 1)
            .take(8)
            .map(|i| i.window.clone())
            .collect();
        let before = store
            .with_session(1, |s| {
                eval.iter().map(|w| s.predict_window(w).unwrap().clone()).collect::<Vec<_>>()
            })
            .unwrap();

        // Yank the directory away and park a plain file at its path —
        // writes fail even for root (chmod does not bind uid 0).
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"disk gone").unwrap();
        let window = ds.window(0);
        for tenant in 2..=4 {
            store.with_session(tenant, |s| s.predict_window(window).unwrap().label).unwrap();
        }
        assert!(!store.is_resident(1));
        assert!(store.has_archived(1), "failed disk write must not lose the state");
        assert_eq!(store.state_write_failures(), 1);
        assert!(store.archived_delta(1).is_some(), "state is parked in the memory overflow");

        let after = store
            .with_session(1, |s| {
                eval.iter().map(|w| s.predict_window(w).unwrap().clone()).collect::<Vec<_>>()
            })
            .unwrap();
        assert_eq!(after, before, "overflow rehydration must stay bit-exact");

        // Bytes restored from the overflow are not a committed file: once
        // the disk is back, the next eviction suspends and retries the write.
        std::fs::remove_file(&dir).unwrap();
        std::fs::create_dir(&dir).unwrap();
        push_out(&mut store, ds, 5);
        assert!(store.has_archived(1));
        assert!(store.archived_delta(1).is_none(), "the retried write left the overflow");
        assert!(dir.join("tenant-1.smore").exists());
        assert_eq!(store.state_write_failures(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
