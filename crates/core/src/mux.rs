//! The Mux file system: VFS Call Processor, FS Multiplexer and VFS Call
//! Maker (paper Figure 1c).
//!
//! `Mux` implements [`FileSystem`] towards applications. Each user request
//! is split along Block Lookup Table extents into per-tier sub-requests,
//! dispatched to the native file systems *through the same trait*, and the
//! results are merged into one response. All file metadata is answered
//! from the collective inode — `getattr` never fans out.
//!
//! Concurrency (see DESIGN.md "Concurrency model"): the file table and the
//! namespace are [`ShardedMap`]s keyed by inode, so operations on distinct
//! files never contend on a Mux-global lock. Per-file ordering is the
//! business of [`MuxFile`]'s `io_lock`/OCC machinery; counters, histograms
//! and the trace ring are atomic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use simdev::VirtualClock;
use tvfs::{
    DirEntry, FileAttr, FileSystem, FileType, InodeNo, SetAttr, StatFs, VfsError, VfsResult,
    ROOT_INO,
};

use crate::autotier::{EpochAction, EpochReport};
use crate::cache::CacheController;
use crate::file::{MuxFile, MuxIno};
use crate::health::{HealthRegistry, HealthSnapshot};
use crate::hist::CACHE_TIER;
use crate::hist::{LatencyRegistry, LatencyReport, OpKind};
use crate::meta::{AttrKind, CollectiveInode};
use crate::occ::MigrationOutcome;
use crate::occ::OccStats;
use crate::policy::MigrationPlan;
use crate::policy::{PlacementCtx, TierStatus, TieringPolicy};
use crate::sched::{thread_tenant, Admission, IoScheduler};
use crate::shard::{RemoveIf, ShardedMap};
use crate::stats::MuxStats;
use crate::trace::{TraceBuffer, TraceEvent, TraceEventKind};
use crate::types::{MuxOptions, TenantId, TierConfig, TierId, BLOCK};

/// Bound on owner-change retries in the read path: how many times one
/// block read chases a concurrent migration commit before giving up.
const READ_REVALIDATE_HOPS: u32 = 4;

/// A registered tier: a native file system plus its description.
pub struct TierHandle {
    /// Tier id (index at registration).
    pub id: TierId,
    /// Static description.
    pub config: TierConfig,
    /// The native file system, spoken to through the VFS trait.
    pub fs: Arc<dyn FileSystem>,
    /// Tier is being removed; no new placements.
    pub draining: AtomicBool,
    /// Timestamp granularity of the native file system in ns (paper §4,
    /// "Feature Imparity": e.g. FAT records timestamps at two-second
    /// granularity). The collective inode keeps full precision; values
    /// lazily pushed to this tier are rounded down to a multiple of this.
    pub timestamp_granularity_ns: AtomicU64,
}

/// One entry in a Mux directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NsEntry {
    /// A regular file.
    File(MuxIno),
    /// A directory.
    Dir(MuxIno),
}

impl NsEntry {
    fn ino(&self) -> MuxIno {
        match self {
            NsEntry::File(i) | NsEntry::Dir(i) => *i,
        }
    }
}

/// A Mux directory node.
pub struct MuxDir {
    /// Parent directory (self for the root).
    pub parent: MuxIno,
    /// Name within the parent.
    pub name: String,
    /// Children.
    pub entries: BTreeMap<String, NsEntry>,
    /// Directory attributes (kept by Mux; directories are not tiered).
    pub attr: FileAttr,
}

/// The uniform namespace (paper §2.1): Mux's own directory tree, mirrored
/// lazily into the native file systems as files materialize on tiers.
///
/// Both tables are sharded by inode, so namespace operations on unrelated
/// directories/files run fully in parallel. Multi-node mutations (create,
/// unlink, rename) are sequences of single-shard steps ordered so that an
/// entry visible in a parent always points at a node that exists —
/// node-first on insert, link-first on removal (transient [`VfsError::Stale`]
/// during an unlink is the one documented exception).
#[derive(Default)]
pub struct Namespace {
    /// Directory nodes by Mux ino.
    pub dirs: ShardedMap<MuxIno, MuxDir>,
    /// File ino → (parent dir, name).
    pub file_loc: ShardedMap<MuxIno, (MuxIno, String)>,
}

impl Namespace {
    fn path_components(&self, dir: MuxIno) -> VfsResult<Vec<String>> {
        let mut comps = Vec::new();
        let mut cur = dir;
        let mut hops = 0;
        while cur != ROOT_INO {
            let (parent, name) = self
                .dirs
                .view(&cur, |d| (d.parent, d.name.clone()))
                .ok_or(VfsError::Stale)?;
            comps.push(name);
            cur = parent;
            hops += 1;
            if hops > 4096 {
                return Err(VfsError::Io("namespace cycle".into()));
            }
        }
        comps.reverse();
        Ok(comps)
    }

    /// The entry `name` in directory `parent`: `Err(NotFound)` if the
    /// parent does not exist, `Ok(None)` if the name is absent.
    fn entry(&self, parent: MuxIno, name: &str) -> VfsResult<Option<NsEntry>> {
        self.dirs
            .view(&parent, |d| d.entries.get(name).copied())
            .ok_or(VfsError::NotFound)
    }
}

/// Index of a device class in per-class cost tables.
pub(crate) fn class_index(c: simdev::DeviceClass) -> usize {
    match c {
        simdev::DeviceClass::Pmem => 0,
        simdev::DeviceClass::CxlSsd => 1,
        simdev::DeviceClass::Ssd => 2,
        simdev::DeviceClass::Hdd => 3,
    }
}

/// The Mux tiered file system.
///
/// # Examples
///
/// Building a two-tier hierarchy from any [`FileSystem`] implementations
/// and writing through the unified namespace:
///
/// ```
/// use std::sync::Arc;
/// use mux::{LruPolicy, Mux, MuxOptions, TierConfig};
/// use simdev::{DeviceClass, VirtualClock};
/// use tvfs::{memfs::MemFs, FileSystem, FileType, ROOT_INO};
///
/// let mux = Mux::new(
///     VirtualClock::new(),
///     Arc::new(LruPolicy::default_watermarks()),
///     MuxOptions::default(),
/// );
/// mux.add_tier(
///     TierConfig { name: "fast".into(), class: DeviceClass::Pmem },
///     Arc::new(MemFs::new("fast", 1 << 24)) as Arc<dyn FileSystem>,
/// );
/// mux.add_tier(
///     TierConfig { name: "slow".into(), class: DeviceClass::Hdd },
///     Arc::new(MemFs::new("slow", 1 << 26)) as Arc<dyn FileSystem>,
/// );
/// let f = mux.create(ROOT_INO, "hello", FileType::Regular, 0o644).unwrap();
/// mux.write(f.ino, 0, b"tiered").unwrap();
/// mux.migrate_file(f.ino, 1).unwrap(); // demote to the slow tier
/// let mut buf = [0u8; 6];
/// mux.read(f.ino, 0, &mut buf).unwrap();
/// assert_eq!(&buf, b"tiered");
/// ```
pub struct Mux {
    pub(crate) opts: MuxOptions,
    pub(crate) clock: VirtualClock,
    pub(crate) policy: RwLock<Arc<dyn TieringPolicy>>,
    pub(crate) tiers: RwLock<Vec<Arc<TierHandle>>>,
    pub(crate) ns: Namespace,
    pub(crate) files: ShardedMap<MuxIno, Arc<MuxFile>>,
    pub(crate) next_ino: AtomicU64,
    pub(crate) stats: MuxStats,
    pub(crate) occ: OccStats,
    pub(crate) cache: RwLock<Option<Arc<CacheController>>>,
    pub(crate) sched: IoScheduler,
    /// Serializes whole-file migrations (one at a time per Mux; per-file
    /// serialization happens via `MuxFile::migrating`).
    pub(crate) meta_mutations: AtomicU64,
    pub(crate) metafile: Mutex<Option<crate::persist::MetafileHandle>>,
    /// Per-tier circuit breaker (see [`crate::health`]).
    pub(crate) health: HealthRegistry,
    /// Per-op×tier latency histograms (see [`crate::hist`]).
    pub(crate) lat: Arc<LatencyRegistry>,
    /// Typed observability event ring (see [`crate::trace`]).
    pub(crate) trace: Arc<TraceBuffer>,
    /// The autonomous background tiering engine (see [`crate::autotier`]),
    /// driven by [`Mux::maintenance_tick`].
    pub(crate) autotier: crate::autotier::Engine,
    /// Background scrubber cursor + pacing (see [`crate::integrity`]),
    /// also driven by [`Mux::maintenance_tick`].
    pub(crate) scrub: Mutex<crate::integrity::ScrubState>,
    /// Lock-free read fast path: seqlock cache of resolved block → tier
    /// mappings (see [`crate::fastpath`] and PERFORMANCE.md).
    pub(crate) fastpath: crate::fastpath::FastPath,
}

impl Mux {
    /// Creates an empty Mux with the given policy. Register tiers with
    /// [`Mux::add_tier`] before use.
    pub fn new(clock: VirtualClock, policy: Arc<dyn TieringPolicy>, opts: MuxOptions) -> Self {
        let ns = Namespace::default();
        ns.dirs.insert(
            ROOT_INO,
            MuxDir {
                parent: ROOT_INO,
                name: String::new(),
                entries: BTreeMap::new(),
                attr: {
                    let mut a = FileAttr::new(ROOT_INO, FileType::Directory, 0o755, 0);
                    a.nlink = 2;
                    a
                },
            },
        );
        let health = HealthRegistry::new(opts.health.clone());
        let trace = Arc::new(TraceBuffer::new(opts.trace_capacity));
        health.attach_tracer(clock.clone(), trace.clone());
        let autotier = crate::autotier::Engine::new(&opts.autotier);
        let scrub = Mutex::new(crate::integrity::ScrubState::new(&opts.integrity));
        let fastpath = crate::fastpath::FastPath::new(opts.fastpath.slots);
        let sched = IoScheduler::with_config(opts.qos.clone());
        Mux {
            opts,
            clock,
            policy: RwLock::new(policy),
            tiers: RwLock::new(Vec::new()),
            ns,
            files: ShardedMap::new(),
            next_ino: AtomicU64::new(ROOT_INO + 1),
            stats: MuxStats::default(),
            occ: OccStats::default(),
            cache: RwLock::new(None),
            sched,
            meta_mutations: AtomicU64::new(0),
            metafile: Mutex::new(None),
            health,
            lat: Arc::new(LatencyRegistry::new()),
            trace,
            autotier,
            scrub,
            fastpath,
        }
    }

    /// Registers a native file system as a tier; "the user only needs to
    /// mount the new file system and register it with Mux" (§2.1). Works
    /// at runtime.
    pub fn add_tier(&self, config: TierConfig, fs: Arc<dyn FileSystem>) -> TierId {
        let mut tiers = self.tiers.write();
        let id = tiers.len() as TierId;
        tiers.push(Arc::new(TierHandle {
            id,
            config,
            fs,
            draining: AtomicBool::new(false),
            timestamp_granularity_ns: AtomicU64::new(1),
        }));
        // The tier table changed shape: retire every cached fast-path
        // mapping at once rather than reasoning about which survive.
        self.fastpath_epoch_bump();
        id
    }

    /// Replaces the tiering policy at runtime.
    pub fn set_policy(&self, policy: Arc<dyn TieringPolicy>) {
        *self.policy.write() = policy;
    }

    /// Declares a tier's native timestamp granularity (§4, Feature
    /// Imparity — e.g. 2 s for a FAT-backed tier). Mux's collective inode
    /// keeps full-precision values; only the copies lazily synchronized to
    /// that tier are rounded.
    pub fn set_tier_timestamp_granularity(
        &self,
        tier: TierId,
        granularity_ns: u64,
    ) -> VfsResult<()> {
        self.tier(tier)?
            .timestamp_granularity_ns
            .store(granularity_ns.max(1), Ordering::Relaxed);
        Ok(())
    }

    /// Attaches the SCM cache controller (and wires it into this Mux's
    /// observability layer: cache hit/miss events and lookup/fill latency
    /// histograms).
    pub fn attach_cache(&self, cache: Arc<CacheController>) {
        cache.attach_observer(self.clock.clone(), self.lat.clone(), self.trace.clone());
        *self.cache.write() = Some(cache);
    }

    /// Mux-level operation counters.
    pub fn stats(&self) -> &MuxStats {
        &self.stats
    }

    /// The latency histogram registry (for recording; snapshots come from
    /// [`Mux::latency_report`]).
    pub fn latency(&self) -> &LatencyRegistry {
        &self.lat
    }

    /// Snapshot of every non-empty latency histogram, one entry per
    /// (operation kind, tier) pair that saw traffic.
    pub fn latency_report(&self) -> LatencyReport {
        self.lat.report()
    }

    /// Snapshot of every non-empty per-tenant latency histogram.
    pub fn tenant_latency_report(&self) -> crate::hist::TenantLatencyReport {
        self.lat.tenant_report()
    }

    /// Tenant a file's background work is charged to (0 for unknown
    /// files).
    pub fn file_tenant(&self, ino: MuxIno) -> TenantId {
        self.files.get(&ino).map_or(0, |f| f.tenant())
    }

    /// The observability event ring.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Copies out the retained trace events, oldest first.
    pub fn trace_snapshot(&self) -> Vec<TraceEvent> {
        self.trace.events()
    }

    /// OCC synchronizer counters.
    pub fn occ_stats(&self) -> &OccStats {
        &self.occ
    }

    /// The background I/O scheduler.
    pub fn scheduler(&self) -> &IoScheduler {
        &self.sched
    }

    /// The per-tier circuit breaker (inspect, reset, or fence tiers).
    pub fn health(&self) -> &HealthRegistry {
        &self.health
    }

    /// Health counters of one tier.
    pub fn tier_health(&self, tier: TierId) -> HealthSnapshot {
        self.health.snapshot(tier)
    }

    /// Current tier table (id, name, class, space) as shown to policies;
    /// draining tiers are excluded.
    pub fn tier_status(&self) -> Vec<TierStatus> {
        self.tiers
            .read()
            .iter()
            .filter(|t| !t.draining.load(Ordering::Acquire))
            .map(|t| {
                let st = t.fs.statfs().unwrap_or(StatFs {
                    total_bytes: 0,
                    free_bytes: 0,
                    inodes: 0,
                    block_size: BLOCK as u32,
                });
                TierStatus {
                    id: t.id,
                    name: t.config.name.clone(),
                    class: t.config.class,
                    free_bytes: st.free_bytes,
                    total_bytes: st.total_bytes,
                    health: self.health.state(t.id),
                }
            })
            .collect()
    }

    /// Fraction of a tier's capacity in use right now (0.0 when the tier
    /// is unknown or reports no capacity). QoS admission reads this per
    /// action so within-tick bursts are visible immediately.
    pub(crate) fn tier_utilization(&self, tier: TierId) -> f64 {
        match self.tier(tier) {
            Ok(t) => match t.fs.statfs() {
                Ok(st) if st.total_bytes > 0 => 1.0 - st.free_bytes as f64 / st.total_bytes as f64,
                _ => 0.0,
            },
            Err(_) => 0.0,
        }
    }

    pub(crate) fn tier(&self, id: TierId) -> VfsResult<Arc<TierHandle>> {
        self.tiers
            .read()
            .get(id as usize)
            .cloned()
            .ok_or_else(|| VfsError::InvalidArgument(format!("no tier {id}")))
    }

    pub(crate) fn charge(&self, ns: u64) {
        self.clock.advance(ns);
    }

    pub(crate) fn now(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Emits one trace event stamped with the current virtual time.
    pub(crate) fn trace_event(
        &self,
        kind: TraceEventKind,
        tier: TierId,
        ino: u64,
        off: u64,
        len: u64,
    ) {
        self.trace.push(self.now(), kind, tier, ino, off, len);
    }

    pub(crate) fn get_file(&self, ino: MuxIno) -> VfsResult<Arc<MuxFile>> {
        self.files.get(&ino).ok_or(VfsError::NotFound)
    }

    /// Publishes a whole-file invalidation into the fast-path cache.
    /// Every mutation that can change a file's block → (tier, native ino)
    /// mapping or its content identity calls this (or the block-ranged
    /// variant) *after* the authoritative state changed — truncate,
    /// `punch_hole`, unlink, OCC migration commit/abort, quarantine.
    pub(crate) fn fastpath_invalidate_file(&self, ino: MuxIno) {
        if self.fastpath.invalidate_file(ino) > 0 {
            MuxStats::add(&self.stats.fastpath_invalidations, 1);
        }
    }

    /// Block-ranged fast-path invalidation (the write path: only the
    /// written blocks change, the rest of the file's mappings stay hot).
    /// Ranges wider than the cache degrade to the whole-file sweep, which
    /// is bounded by the cache size instead of the range.
    pub(crate) fn fastpath_invalidate_blocks(&self, ino: MuxIno, first: u64, nblocks: u64) {
        if nblocks as usize > self.fastpath.capacity() {
            self.fastpath_invalidate_file(ino);
            return;
        }
        if self.fastpath.invalidate_blocks(ino, first, nblocks) > 0 {
            MuxStats::add(&self.stats.fastpath_invalidations, 1);
        }
    }

    /// Tier-filtered block-ranged invalidation: retires only mappings
    /// that point at `tier`, so dropping one residency of a mirrored
    /// block never evicts the other copy's hot entry. The unmirror path
    /// calls this *before* punching a replica — a lock-free reader must
    /// never hold a mapping onto reclaimed bytes.
    pub(crate) fn fastpath_invalidate_blocks_tier(
        &self,
        ino: MuxIno,
        first: u64,
        nblocks: u64,
        tier: TierId,
    ) {
        if nblocks as usize > self.fastpath.capacity() {
            self.fastpath_invalidate_file(ino);
            return;
        }
        if self
            .fastpath
            .invalidate_blocks_tier(ino, first, nblocks, tier)
            > 0
        {
            MuxStats::add(&self.stats.fastpath_invalidations, 1);
        }
    }

    /// Global fast-path invalidation: bump the epoch so every cached
    /// mapping goes stale at once (tier add/remove, crash recovery).
    pub(crate) fn fastpath_epoch_bump(&self) {
        self.fastpath.bump_epoch();
        MuxStats::add(&self.stats.fastpath_invalidations, 1);
    }

    /// Drains deferred fast-path hit bookkeeping into the heat map and
    /// per-file access times, and emits one batched
    /// [`TraceEventKind::FastPathBatch`] event. Called from
    /// [`Mux::maintenance_tick`] (before the planner, so heat is current)
    /// and opportunistically from the read path every
    /// [`crate::FastPathConfig::flush_every`] hits.
    pub(crate) fn fastpath_flush(&self) {
        let drained = self.fastpath.take_pending();
        if drained.is_empty() {
            return;
        }
        let now = self.now();
        let mut total = 0u64;
        for (ino, _block, tier, hits) in drained {
            total += hits;
            self.autotier.heat.record(ino, hits, false);
            if let Some(file) = self.files.get(&ino) {
                file.state.write().meta.on_read(tier, now);
            }
        }
        self.trace_event(
            TraceEventKind::FastPathBatch { hits: total },
            CACHE_TIER,
            0,
            0,
            0,
        );
    }

    /// Attempts to serve a read entirely from the lock-free fast path.
    /// `Some((bytes, tier))` on a hit; `None` sends the caller to the
    /// dispatch path (and counts a fallback). Never returns an error:
    /// retries, failover, repair and strikes are dispatch-path business.
    fn fastpath_read(&self, ino: MuxIno, off: u64, buf: &mut [u8]) -> Option<(usize, TierId)> {
        let r = self.try_fastpath_read(ino, off, buf);
        if r.is_none() {
            MuxStats::add(&self.stats.fastpath_fallbacks, 1);
        }
        r
    }

    fn try_fastpath_read(&self, ino: MuxIno, off: u64, buf: &mut [u8]) -> Option<(usize, TierId)> {
        let len = buf.len() as u64;
        let block = off / BLOCK;
        // One block only: splits, short reads at EOF and holes past the
        // cached size are dispatch-path shapes.
        if off.checked_add(len - 1)? / BLOCK != block {
            return None;
        }
        let (e, slot) = self.fastpath.lookup(ino, block)?;
        if e.epoch != self.fastpath.epoch() || e.gen != self.health.generation() {
            return None; // tier set or tier health moved since insert
        }
        if off + len > e.size {
            // `size` is a conservative lower bound (appends only grow it,
            // truncate invalidates the file): reads past it fall back,
            // which can only cost speed, never correctness.
            return None;
        }
        let handle = self.tier(e.tier).ok()?;
        self.charge(self.opts.cost.fastpath_ns);
        let byte_addressable = matches!(
            handle.config.class,
            simdev::DeviceClass::Pmem | simdev::DeviceClass::CxlSsd
        );
        if off.is_multiple_of(BLOCK) && len == BLOCK || !byte_addressable {
            // Whole-block scratch read: on page-cached tiers it costs the
            // same as the sub-range, and it makes the content
            // CRC-verifiable before a byte reaches the caller.
            let mut page = vec![0u8; BLOCK as usize];
            handle.fs.read(e.nino, block * BLOCK, &mut page).ok()?;
            if e.verified && crate::integrity::crc32c(&page) != e.crc {
                // Rot, or a write racing this read — indistinguishable
                // from here, and striking on ambiguity would fence healthy
                // tiers. Drop the mapping; the dispatch path re-reads,
                // verifies against the live checksum and repairs/strikes
                // with full context.
                self.fastpath.invalidate(ino, block);
                MuxStats::add(&self.stats.fastpath_invalidations, 1);
                return None;
            }
            if !self.fastpath_still_valid(&slot, &e) {
                return None;
            }
            let in_pg = (off % BLOCK) as usize;
            buf.copy_from_slice(&page[in_pg..in_pg + buf.len()]);
        } else {
            // Sub-block read on a byte-addressable (DAX-class) tier: copy
            // exactly the requested bytes. Per-read CRC is deliberately
            // skipped here — verifying would mean reading the whole block
            // and forfeiting byte-addressability, the very overhead this
            // path exists to kill. The background scrubber patrols these
            // blocks instead (PERFORMANCE.md, "What the fast path gives
            // up").
            buf.fill(0); // sparse tails read as zeros
            handle.fs.read(e.nino, off, buf).ok()?;
            if !self.fastpath_still_valid(&slot, &e) {
                // The bytes may be torn mid-write; the dispatch path
                // overwrites `buf` from scratch, so nothing stale leaks.
                return None;
            }
        }
        let pending = self.fastpath.note_hit(&slot);
        MuxStats::add(&self.stats.fastpath_hits, 1);
        MuxStats::add(&self.stats.reads, 1);
        MuxStats::add(&self.stats.bytes_read, len);
        MuxStats::add_tenant(&self.stats.tenant_reads, thread_tenant(), 1);
        if pending >= self.opts.fastpath.flush_every {
            self.fastpath_flush();
        }
        Some((buf.len(), e.tier))
    }

    /// The post-read half of the fast-path protocol: the slot must be
    /// byte-identical to the lookup and both global tokens unmoved,
    /// proving no invalidation was published while the native read was in
    /// flight.
    fn fastpath_still_valid(
        &self,
        slot: &crate::fastpath::SlotRef,
        e: &crate::fastpath::Entry,
    ) -> bool {
        self.fastpath.revalidate(slot)
            && self.fastpath.epoch() == e.epoch
            && self.health.generation() == e.gen
    }

    /// A file's block placement as `(block, n_blocks, tier)` extents in
    /// file order — where the data actually lives after placement,
    /// migration, or fault-driven redirection.
    pub fn file_placement(&self, ino: MuxIno) -> VfsResult<Vec<(u64, u64, TierId)>> {
        let file = self.get_file(ino)?;
        let state = file.state.read();
        Ok(state
            .blt
            .extents()
            .into_iter()
            .map(|e| (e.start, e.len, e.value))
            .collect())
    }

    /// A file's replica placement as `(block, n_blocks, tier)` extents in
    /// file order — the extra full copies beyond [`Mux::file_placement`]
    /// that the mirror machinery maintains.
    pub fn file_replicas(&self, ino: MuxIno) -> VfsResult<Vec<(u64, u64, TierId)>> {
        let file = self.get_file(ino)?;
        let state = file.state.read();
        Ok(state
            .replicas
            .iter()
            .map(|e| (e.start, e.len, e.value))
            .collect())
    }

    /// The autotier engine (heat map and queue inspection).
    pub fn autotier(&self) -> &crate::autotier::Engine {
        &self.autotier
    }

    /// Enqueues one migration for the autotier executor, as if the planner
    /// had emitted it — the direction (promotion vs demotion) is derived
    /// from the destination's device class versus the range's current
    /// placement. Used by tests and crash scenarios that need a
    /// deterministic plan; normal operation lets
    /// [`Mux::maintenance_tick`]'s planner fill the queue.
    pub fn autotier_enqueue(&self, plan: MigrationPlan) -> VfsResult<()> {
        let dest_rank = class_index(self.tier(plan.to)?.config.class);
        let cur_rank = self
            .file_placement(plan.ino)?
            .iter()
            .find(|&&(start, len, _)| {
                start < plan.block + plan.n_blocks && start + len > plan.block
            })
            .map(|&(_, _, tid)| self.tier(tid).map(|t| class_index(t.config.class)))
            .transpose()?
            .unwrap_or(dest_rank);
        let promote = dest_rank < cur_rank;
        self.autotier
            .state
            .lock()
            .queue
            .push_back(EpochAction::Migrate { plan, promote });
        Ok(())
    }

    /// Enqueues an arbitrary epoch action — mirror and unmirror included —
    /// for the autotier executor, bypassing the planner. The crash matrix
    /// uses this to drive the replica lifecycle deterministically.
    pub fn autotier_enqueue_action(&self, action: EpochAction) {
        self.autotier.state.lock().queue.push_back(action);
    }

    /// One deterministic turn of the autotier engine (see
    /// [`crate::autotier`]). Call it from the workload loop on the virtual
    /// clock — there is no hidden background thread, so every migration the
    /// engine performs is attributable to a tick and enumerable by the
    /// crash matrix.
    ///
    /// Each tick: (1) if an epoch boundary has passed, close the previous
    /// epoch, run the planner over current tier occupancy, file placement
    /// and heat scores, and decay the heat map; (2) check the
    /// yield-to-foreground conditions (background queue depth, recent
    /// foreground read p95); (3) unless yielding, drain queued plans
    /// through the OCC migration path under the token-bucket byte-rate
    /// limit, backing off to the next tick when a migration loses an OCC
    /// race ([`VfsError::Busy`]); (4) advance the integrity scrubber
    /// ([`crate::integrity`]) under its own token bucket — the scrubber
    /// shares the yield decision, so a busy foreground pauses both
    /// background consumers. Steps (1)–(3) run only when autotier is
    /// enabled; the scrubber runs whenever checksums are on.
    pub fn maintenance_tick(&self) -> EpochReport {
        let cfg = &self.opts.autotier;
        let mut report = EpochReport::default();
        let mut fg_busy = false;
        // (0) Fold deferred fast-path hit bookkeeping into the heat map
        // first, so the planner below sees current access frequencies.
        self.fastpath_flush();
        if cfg.enabled {
            self.autotier_tick(&mut report, &mut fg_busy);
            // (3½) Lazy resync: writes absorbed on the fast copy leave the
            // slower ex-replica owing a fresh copy; repay the debt in the
            // background, bounded per tick, unless the foreground is busy.
            if !fg_busy {
                report.resynced = self.resync_tick();
            }
        } else {
            // Still sense foreground pressure so the scrubber yields too.
            let n_tiers = self.tiers.read().len();
            let queue_depth = (0..n_tiers as TierId)
                .map(|t| self.sched.pending(t))
                .max()
                .unwrap_or(0);
            fg_busy = queue_depth > cfg.yield_queue_depth;
        }
        // (4) Scrubber.
        if !fg_busy {
            report.scrubbed = self.scrub_tick();
        }
        report
    }

    /// Steps (1)–(3) of [`Mux::maintenance_tick`]; sets `fg_busy` when the
    /// yield-to-foreground conditions hold.
    fn autotier_tick(&self, report: &mut EpochReport, fg_busy: &mut bool) {
        let cfg = &self.opts.autotier;
        let mut state = self.autotier.state.lock();

        // (1) Planner, at most once per epoch.
        let now = self.now();
        let due = match state.last_plan_ns {
            None => true,
            Some(t) => now.saturating_sub(t) >= cfg.epoch_ns,
        };
        if due {
            if state.epoch > 0 {
                self.trace_event(
                    TraceEventKind::EpochEnd {
                        epoch: state.epoch,
                        moved: state.epoch_moved,
                    },
                    CACHE_TIER,
                    0,
                    0,
                    0,
                );
            }
            state.epoch += 1;
            state.epoch_moved = 0;
            state.last_plan_ns = Some(now);
            report.planned_epoch = true;
            self.trace_event(
                TraceEventKind::EpochStart { epoch: state.epoch },
                CACHE_TIER,
                0,
                0,
                0,
            );
            let tiers = self.tier_status();
            let files = self.file_views();
            let scores = self.autotier.heat.scores();
            let read_frac = self.autotier.heat.read_fractions();
            let policy = self.policy.read().clone();
            // QoS plan-time fencing: plan_epoch hands all headroom to the
            // hottest files, so a hot antagonist tenant would consume
            // every epoch's budget and starve colder tenants forever.
            // When any tier is at or past the admission threshold, tenants
            // over their fair share of recent background bytes there are
            // excluded from this epoch's plan (via the pinned predicate),
            // leaving the headroom to under-share tenants.
            let mut blocked_tenants: Vec<TenantId> = Vec::new();
            let mut file_tenant: BTreeMap<MuxIno, TenantId> = BTreeMap::new();
            if self.sched.config().enabled {
                self.files.for_each(|_, f| {
                    file_tenant.insert(f.ino, f.tenant());
                });
                let mut tenants: Vec<TenantId> = file_tenant.values().copied().collect();
                tenants.sort_unstable();
                tenants.dedup();
                for t in &tiers {
                    if t.total_bytes == 0 {
                        continue;
                    }
                    let util = 1.0 - t.free_bytes as f64 / t.total_bytes as f64;
                    if util < self.sched.config().admit_utilization {
                        continue;
                    }
                    for &tn in &tenants {
                        // Judged against every tenant that owns files —
                        // not just the ledger-active set — so a first
                        // mover that filled the tier before anyone else
                        // was served still counts as over its share.
                        if !blocked_tenants.contains(&tn)
                            && self.sched.over_fair_share_among(t.id, tn, &tenants, now)
                        {
                            blocked_tenants.push(tn);
                        }
                    }
                }
                if !blocked_tenants.is_empty() {
                    let excluded = file_tenant
                        .values()
                        .filter(|tn| blocked_tenants.contains(tn))
                        .count() as u64;
                    MuxStats::add(&self.stats.qos_plan_exclusions, excluded);
                }
            }
            let plan =
                crate::autotier::plan_epoch(cfg, &tiers, &files, &scores, &read_frac, &|ino| {
                    policy.is_pinned(ino)
                        || file_tenant
                            .get(&ino)
                            .is_some_and(|tn| blocked_tenants.contains(tn))
                });
            self.autotier.heat.decay(cfg.decay);
            report.vetoes = plan.vetoes;
            MuxStats::add(&self.stats.planner_vetoes, plan.vetoes);
            report.planned = plan.actions.len();
            for action in &plan.actions {
                if let Some((p, promote)) = action.migrate() {
                    self.trace_event(
                        TraceEventKind::PlanEmitted { promote },
                        p.to,
                        p.ino,
                        p.block * BLOCK,
                        p.n_blocks * BLOCK,
                    );
                }
            }
            state.queue.extend(plan.actions);
        }
        report.epoch = state.epoch;

        // (2) Yield to foreground I/O: if any tier's background queue is
        // deep, or the foreground read p95 since the previous tick is past
        // the threshold, leave the queue for a calmer tick.
        let n_tiers = self.tiers.read().len();
        let queue_depth = (0..n_tiers as TierId)
            .map(|t| self.sched.pending(t))
            .max()
            .unwrap_or(0);
        let mut worst_p95 = 0u64;
        let mut snaps = Vec::with_capacity(n_tiers);
        for t in 0..n_tiers {
            // End-to-end user reads (MuxRead): fast-path hits never record
            // an OpKind::Read dispatch, so watching Read here would go
            // blind exactly when the foreground is busiest.
            let snap = self.lat.hist(OpKind::MuxRead, t as TierId).snapshot();
            if let Some(prev) = state.last_read_hist.get(t).and_then(|s| s.as_ref()) {
                worst_p95 = worst_p95.max(snap.delta_since(prev).p95());
            }
            snaps.push(Some(snap));
        }
        state.last_read_hist = snaps;
        *fg_busy = queue_depth > cfg.yield_queue_depth
            || (cfg.yield_read_p95_ns > 0 && worst_p95 > cfg.yield_read_p95_ns);
        if !state.queue.is_empty() && *fg_busy {
            report.yielded = true;
            self.trace_event(
                TraceEventKind::MigrationSkipped {
                    queue_depth: queue_depth as u64,
                },
                CACHE_TIER,
                0,
                0,
                0,
            );
        }

        // (3) Executor: drain under the byte-rate limit. Migrations and
        // mirror copies both move bytes and pay the token bucket; an
        // unmirror is an instant hole punch that frees space, so it runs
        // for free (throttling reclamation would be self-defeating under
        // watermark pressure).
        while !report.yielded {
            let Some(action) = state.queue.front().cloned() else {
                break;
            };
            let p = match &action {
                EpochAction::Migrate { plan, .. } => plan.clone(),
                EpochAction::Mirror(p) | EpochAction::Unmirror(p) => p.clone(),
            };
            let bytes = p.n_blocks * BLOCK;
            let tenant = self.files.get(&p.ino).map_or(0, |f| f.tenant());
            // QoS admission for actions that consume space on a
            // destination tier (promotions and mirror copies). The tier's
            // occupancy is re-read per action, so a burst admitted
            // earlier in this same tick is visible to the next decision.
            // Defer and Shed both *drop* the action — the planner
            // re-plans survivors next epoch (same precedent as the lazy
            // resync pass) — so a fenced tenant's backlog cannot pile up
            // in the queue and head-of-line-block other tenants.
            let consumes_space = matches!(
                &action,
                EpochAction::Migrate { promote: true, .. } | EpochAction::Mirror(_)
            );
            if consumes_space {
                match self.sched.admit_background(
                    p.to,
                    tenant,
                    bytes,
                    self.tier_utilization(p.to),
                    self.now(),
                ) {
                    Admission::Admit => {}
                    Admission::Defer => {
                        state.queue.pop_front();
                        MuxStats::add(&self.stats.qos_deferrals, 1);
                        self.trace_event(
                            TraceEventKind::QosDeferred { tenant },
                            p.to,
                            p.ino,
                            p.block * BLOCK,
                            bytes,
                        );
                        continue;
                    }
                    Admission::Shed => {
                        state.queue.pop_front();
                        MuxStats::add(&self.stats.qos_sheds, 1);
                        self.trace_event(
                            TraceEventKind::QosShed { tenant },
                            p.to,
                            p.ino,
                            p.block * BLOCK,
                            bytes,
                        );
                        continue;
                    }
                }
            }
            // Per-tenant pacing: a tenant whose private bucket is dry
            // drops its action (re-planned next epoch) instead of
            // breaking the loop, so it cannot stall other tenants queued
            // behind it the way the shared bucket below does.
            if action.unmirror().is_none() && !self.sched.tenant_try_take(tenant, bytes, self.now())
            {
                state.queue.pop_front();
                MuxStats::add(&self.stats.qos_tenant_throttled_bytes, bytes);
                self.trace_event(
                    TraceEventKind::QosThrottled { tenant },
                    p.to,
                    p.ino,
                    p.block * BLOCK,
                    bytes,
                );
                continue;
            }
            if action.unmirror().is_none() && !state.bucket.try_take(bytes, self.now()) {
                MuxStats::add(&self.stats.throttled_bytes, bytes);
                report.throttled_bytes += bytes;
                self.trace_event(
                    TraceEventKind::MigrationThrottled,
                    p.to,
                    p.ino,
                    p.block * BLOCK,
                    bytes,
                );
                break;
            }
            state.queue.pop_front();
            match action {
                EpochAction::Migrate { plan: p, promote } => {
                    match self.migrate_range(p.ino, p.block, p.n_blocks, p.to) {
                        Ok(MigrationOutcome::NothingToDo) => report.executed += 1,
                        Ok(_) => {
                            report.executed += 1;
                            report.blocks_moved += p.n_blocks;
                            state.epoch_moved += p.n_blocks;
                            let counter = if promote {
                                &self.stats.auto_promotions
                            } else {
                                &self.stats.auto_demotions
                            };
                            MuxStats::add(counter, p.n_blocks);
                        }
                        Err(VfsError::Busy) => {
                            // A foreground writer holds the migration flag;
                            // retrying now would spin. Requeue and back off
                            // to the next tick.
                            state
                                .queue
                                .push_back(EpochAction::Migrate { plan: p, promote });
                            break;
                        }
                        Err(_) => report.failed += 1,
                    }
                }
                EpochAction::Mirror(p) => {
                    match self.mirror_range(p.ino, p.block, p.n_blocks, p.to) {
                        Ok(n) => {
                            report.executed += 1;
                            report.mirrored += n;
                            state.epoch_moved += n;
                        }
                        Err(VfsError::Busy) => {
                            state.queue.push_back(EpochAction::Mirror(p));
                            break;
                        }
                        Err(_) => report.failed += 1,
                    }
                }
                EpochAction::Unmirror(p) => {
                    match self.unmirror_range(p.ino, p.block, p.n_blocks, p.to) {
                        Ok(n) => {
                            report.executed += 1;
                            report.unmirrored += n;
                        }
                        Err(VfsError::Busy) => {
                            state.queue.push_back(EpochAction::Unmirror(p));
                            break;
                        }
                        Err(_) => report.failed += 1,
                    }
                }
            }
        }
        report.queued = state.queue.len();
    }

    /// One paced lazy-resync step (stage (3½) of
    /// [`Mux::maintenance_tick`]): walks files in deterministic inode
    /// order and re-mirrors ranges parked in `resync_pending` — replica
    /// copies a write invalidated (or a role swap displaced) — through the
    /// full fault-atomic [`Mux::mirror_range`] protocol, bounded by
    /// `resync_bytes_per_tick`. The debt map is transient: a crash simply
    /// forgets it and the planner re-plans the mirror next epoch. Returns
    /// replica blocks re-established this tick.
    fn resync_tick(&self) -> u64 {
        let cfg = &self.opts.autotier;
        if !cfg.mirror_enabled || cfg.resync_bytes_per_tick == 0 {
            return 0;
        }
        let mut budget_blocks = cfg.resync_bytes_per_tick / BLOCK;
        let mut resynced = 0u64;
        let mut inos = self.files.keys();
        inos.sort_unstable();
        'files: for ino in inos {
            let Some(file) = self.files.get(&ino) else {
                continue;
            };
            loop {
                if budget_blocks == 0 {
                    break 'files;
                }
                let Some((start, len, to)) = file
                    .state
                    .read()
                    .resync_pending
                    .iter()
                    .next()
                    .map(|e| (e.start, e.len.min(budget_blocks), e.value))
                else {
                    break;
                };
                // Retire the debt before copying: if the copy fails the
                // planner re-plans, and a write racing this resync
                // re-parks its own range rather than fighting over one.
                file.state.write().resync_pending.remove(start, len);
                if !self.health.can_write(to) {
                    continue; // sick destination: drop, replan later
                }
                match self.mirror_range(ino, start, len, to) {
                    Ok(n) => {
                        budget_blocks = budget_blocks.saturating_sub(len);
                        if n > 0 {
                            resynced += n;
                            MuxStats::add(&self.stats.lazy_resyncs, 1);
                            self.trace_event(
                                TraceEventKind::LazyResync,
                                to,
                                ino,
                                start * BLOCK,
                                len * BLOCK,
                            );
                        }
                    }
                    Err(VfsError::Busy) => {
                        // A migration holds the flag: re-park and move on.
                        file.state.write().resync_pending.insert(start, len, to);
                        break;
                    }
                    Err(_) => {} // dropped; the planner re-plans if still hot
                }
            }
        }
        resynced
    }

    /// Runs one native-tier dispatch through the bounded
    /// retry-with-backoff loop, feeding the outcome to the circuit
    /// breaker. Only transient [`VfsError::Io`] errors are retried —
    /// `NoSpace`, `InvalidArgument`, etc. surface immediately. Backoff is
    /// charged on the shared virtual clock, so retry schedules are
    /// deterministic. Retrying stops early if the breaker latches the tier
    /// `Offline` mid-loop.
    ///
    /// This is the dispatch boundary: the whole loop's virtual-time
    /// duration (native service + device time + any backoff) is recorded
    /// into the `(kind, tier)` latency histogram, and every retry emits a
    /// [`TraceEventKind::Retry`] event.
    pub(crate) fn tier_io<T>(
        &self,
        kind: OpKind,
        tier: TierId,
        mut op: impl FnMut() -> VfsResult<T>,
    ) -> VfsResult<T> {
        let cfg = self.health.config();
        let t0 = self.now();
        let mut attempt = 0u32;
        let result = loop {
            match op() {
                Ok(v) => {
                    self.health.record_success(tier);
                    break Ok(v);
                }
                Err(VfsError::Io(e)) => {
                    MuxStats::add(&self.stats.io_errors, 1);
                    self.health.record_error(tier);
                    if attempt >= cfg.io_retries || !self.health.can_read(tier) {
                        break Err(VfsError::Io(e));
                    }
                    attempt += 1;
                    MuxStats::add(&self.stats.io_retries, 1);
                    self.health.record_retry(tier);
                    self.sched.note_retry(tier, self.now());
                    self.trace_event(TraceEventKind::Retry { attempt }, tier, 0, 0, 0);
                    self.charge(cfg.backoff_ns(attempt));
                }
                Err(e) => break Err(e),
            }
        };
        self.lat.record(kind, tier, self.now() - t0);
        result
    }

    /// The best tier that can accept `need` bytes of new data right now:
    /// healthier before sicker, then faster class, then most free space.
    /// `exclude` additionally vetoes one tier (the one being avoided).
    pub(crate) fn healthiest_writable_tier(
        &self,
        need: u64,
        exclude: Option<TierId>,
    ) -> VfsResult<TierId> {
        self.tier_status()
            .into_iter()
            .filter(|t| Some(t.id) != exclude && t.is_writable() && t.free_bytes > need)
            .min_by_key(|t| (t.health, t.class, u64::MAX - t.free_bytes))
            .map(|t| t.id)
            .ok_or_else(|| VfsError::Io("no writable tier with space left".into()))
    }

    /// Reads one full block by any means available: the owning tier (with
    /// retries) if it is not offline, else the block's replica. Used for
    /// redirect merges and for evacuating sick tiers.
    pub(crate) fn read_block_anyhow(
        &self,
        file: &MuxFile,
        tier: TierId,
        block: u64,
        page: &mut [u8],
    ) -> VfsResult<usize> {
        if self.health.can_read(tier) {
            let handle = self.tier(tier)?;
            let nino = self.ensure_native(file, tier)?;
            match self.tier_io(OpKind::Read, tier, || {
                handle.fs.read(nino, block * BLOCK, &mut *page)
            }) {
                Ok(got) => return Ok(got),
                Err(VfsError::Io(_)) => {} // fall through to the replica
                Err(e) => return Err(e),
            }
        }
        let rep = file.state.read().replicas.get(block);
        match rep.filter(|&rt| rt != tier) {
            Some(rt) => {
                let rh = self.tier(rt)?;
                let rino = self.ensure_native(file, rt)?;
                MuxStats::add(&self.stats.replica_failovers, 1);
                self.tier_io(OpKind::Read, rt, || {
                    rh.fs.read(rino, block * BLOCK, &mut *page)
                })
            }
            None => Err(VfsError::Io(format!(
                "tier {tier} unreadable and block {block} has no replica"
            ))),
        }
    }

    /// The native file system backing a tier. The bench's fault-injection
    /// harness uses this to touch blocks *beneath* Mux — device faults
    /// tick per native access, so corrupting exactly N stored blocks
    /// requires going around the dispatch layer.
    pub fn tier_fs(&self, tier: TierId) -> VfsResult<Arc<dyn FileSystem>> {
        Ok(self.tier(tier)?.fs.clone())
    }

    /// Where one file block physically lives right now: the owning tier
    /// and the file's native inode there (materializing the file on that
    /// tier if needed). Errors if the block is unmapped.
    pub fn native_location(&self, ino: MuxIno, block: u64) -> VfsResult<(TierId, InodeNo)> {
        let file = self.get_file(ino)?;
        let tier = file
            .state
            .read()
            .blt
            .tier_of(block)
            .ok_or_else(|| VfsError::InvalidArgument(format!("block {block} is unmapped")))?;
        let nino = self.ensure_native(&file, tier)?;
        Ok((tier, nino))
    }

    /// Verifies a full-block `page` against the file's checksum table and,
    /// on a trusted mismatch, runs the repair chain (see
    /// [`crate::integrity`]):
    ///
    /// 1. count + trace the detection and strike `tier`'s breaker;
    /// 2. bounded re-read of the same tier — transfer-path flukes settle
    ///    back to the expected checksum;
    /// 3. a replica on another tier, *itself verified* against the
    ///    expected checksum before it is trusted — served to the caller
    ///    and rewritten over the rotten primary copy;
    /// 4. no healthy copy anywhere: quarantine the block and fail with a
    ///    located [`VfsError::Corrupt`], so not one corrupt byte reaches
    ///    the caller.
    ///
    /// On success `page` holds verified content.
    ///
    /// `read_version` is the caller's [`MuxFile::version_now`] snapshot
    /// from before it read `page`, when it has one: a mismatch whose
    /// window contains a completed write is a race, not rot.
    pub(crate) fn verify_and_repair(
        &self,
        file: &MuxFile,
        tier: TierId,
        block: u64,
        page: &mut [u8],
        read_version: Option<u64>,
    ) -> VfsResult<()> {
        use crate::integrity::{crc32c, VerifyOutcome};
        if !self.opts.integrity.checksums {
            return Ok(());
        }
        let actual = crc32c(page);
        let expected = match file.state.write().checksums.verify(block, actual) {
            VerifyOutcome::Unknown => return Ok(()),
            VerifyOutcome::Match => {
                self.health.record_verified(tier);
                return Ok(());
            }
            VerifyOutcome::Dropped => {
                MuxStats::add(&self.stats.checksums_dropped, 1);
                return Ok(());
            }
            VerifyOutcome::Mismatch { expected, .. } => expected,
        };
        // A mismatch is only evidence of rot if no user write could have
        // swapped the block under us. The write path dispatches its
        // native data before it records the new checksum, so a read
        // overlapping that window legitimately holds new bytes against
        // the old checksum — or, if the write completed between our
        // version check and here, old bytes against the new one. Either
        // copy is real data: serve the page as-is and leave re-verifying
        // to the scrubber once the dust settles.
        if file.writes_in_flight.load(Ordering::SeqCst) != 0
            || read_version.is_some_and(|v| file.version_now() != v)
        {
            return Ok(());
        }
        // Trusted mismatch: the device acked this read and served wrong
        // bytes. Count it, trace it, strike the breaker.
        MuxStats::add(&self.stats.corruptions_detected, 1);
        self.trace_event(
            TraceEventKind::CorruptionDetected { expected, actual },
            tier,
            file.ino,
            block * BLOCK,
            BLOCK,
        );
        self.health.record_corruption(tier);
        // (2) Bounded re-read of the primary.
        if self.health.can_read(tier) {
            if let (Ok(handle), Ok(nino)) = (self.tier(tier), self.ensure_native(file, tier)) {
                for _ in 0..self.opts.integrity.reread_retries {
                    let mut fresh = vec![0u8; BLOCK as usize];
                    let reread = self.tier_io(OpKind::Scrub, tier, || {
                        handle.fs.read(nino, block * BLOCK, &mut fresh)
                    });
                    if reread.is_err() {
                        break;
                    }
                    if crc32c(&fresh) == expected {
                        page.copy_from_slice(&fresh);
                        file.state.write().checksums.unquarantine(block);
                        MuxStats::add(&self.stats.corruptions_repaired, 1);
                        self.trace_event(
                            TraceEventKind::CorruptionRepaired {
                                from_replica: false,
                            },
                            tier,
                            file.ino,
                            block * BLOCK,
                            BLOCK,
                        );
                        return Ok(());
                    }
                }
            }
        }
        // (3) A verified replica.
        let rep = file
            .state
            .read()
            .replicas
            .get(block)
            .filter(|&rt| rt != tier);
        if let Some(rt) = rep {
            if self.health.can_read(rt) {
                if let (Ok(rh), Ok(rino)) = (self.tier(rt), self.ensure_native(file, rt)) {
                    let mut fresh = vec![0u8; BLOCK as usize];
                    let rread = self.tier_io(OpKind::Scrub, rt, || {
                        rh.fs.read(rino, block * BLOCK, &mut fresh)
                    });
                    if rread.is_ok() && crc32c(&fresh) == expected {
                        page.copy_from_slice(&fresh);
                        // Scrub the rot off the primary, best-effort: the
                        // content is already safe in the caller's hands.
                        if self.health.can_write(tier) {
                            if let (Ok(handle), Ok(nino)) =
                                (self.tier(tier), self.ensure_native(file, tier))
                            {
                                let _ = self.tier_io(OpKind::Write, tier, || {
                                    handle.fs.write(nino, block * BLOCK, &fresh)
                                });
                            }
                        }
                        file.state.write().checksums.unquarantine(block);
                        MuxStats::add(&self.stats.corruptions_repaired, 1);
                        self.trace_event(
                            TraceEventKind::CorruptionRepaired { from_replica: true },
                            rt,
                            file.ino,
                            block * BLOCK,
                            BLOCK,
                        );
                        return Ok(());
                    }
                }
            }
        }
        // (4) Unrepairable: fence the block from callers.
        if file.state.write().checksums.quarantine(block) {
            // A quarantined block must never be served by the fast path.
            self.fastpath_invalidate_blocks(file.ino, block, 1);
            MuxStats::add(&self.stats.blocks_quarantined, 1);
            self.trace_event(
                TraceEventKind::BlockQuarantined,
                tier,
                file.ino,
                block * BLOCK,
                BLOCK,
            );
        }
        Err(VfsError::corrupt_at(
            format!(
                "block {block} failed CRC-32C verification \
                 (expected {expected:#010x}, got {actual:#010x}) and no healthy copy exists"
            ),
            tier,
            file.ino,
            block * BLOCK,
        ))
    }

    /// Re-checksums one block by reading it back from its owning tier —
    /// the write path uses this for boundary blocks that merged new bytes
    /// with old content it never saw. A read-back that fails, races a
    /// write, or races a migration leaves the block unchecksummed rather
    /// than wrongly checksummed.
    fn readback_checksum(&self, file: &MuxFile, block: u64) {
        let Some(tier) = file.state.read().blt.tier_of(block) else {
            return;
        };
        if !self.health.can_read(tier) {
            return;
        }
        let (Ok(handle), Ok(nino)) = (self.tier(tier), self.ensure_native(file, tier)) else {
            return;
        };
        let v0 = file.version_now();
        let mut page = vec![0u8; BLOCK as usize];
        if self
            .tier_io(OpKind::Scrub, tier, || {
                handle.fs.read(nino, block * BLOCK, &mut page)
            })
            .is_err()
        {
            return;
        }
        let mut st = file.state.write();
        if file.version_now() == v0 && st.blt.tier_of(block) == Some(tier) {
            st.checksums.record(block, crate::integrity::crc32c(&page));
        } else {
            st.checksums.invalidate(block);
        }
    }

    /// Reads and verifies one checksummed block where it currently lives.
    /// Returns `true` when the block verified (clean or repaired); `false`
    /// when it was skipped (unmapped, unreadable tier, racing write or
    /// migration) or quarantined.
    fn scrub_block(&self, file: &MuxFile, block: u64) -> bool {
        let Some(tier) = file.state.read().blt.tier_of(block) else {
            return false;
        };
        if !self.health.can_read(tier) {
            return false;
        }
        let (Ok(handle), Ok(nino)) = (self.tier(tier), self.ensure_native(file, tier)) else {
            return false;
        };
        let v0 = file.version_now();
        let mut page = vec![0u8; BLOCK as usize];
        if self
            .tier_io(OpKind::Scrub, tier, || {
                handle.fs.read(nino, block * BLOCK, &mut page)
            })
            .is_err()
        {
            return false;
        }
        // A write or migration racing the scrub read makes any mismatch
        // meaningless; those paths keep the table consistent themselves.
        if file.version_now() != v0 || file.state.read().blt.tier_of(block) != Some(tier) {
            return false;
        }
        self.verify_and_repair(file, tier, block, &mut page, Some(v0))
            .is_ok()
    }

    /// One paced scrubber step (stage (4) of [`Mux::maintenance_tick`]):
    /// walks checksummed blocks in deterministic `(ino, block)` order under
    /// the token bucket and per-tick block budget, verifying and repairing
    /// each. Emits a [`TraceEventKind::ScrubPass`] every time the cursor
    /// wraps past the last inode. Returns blocks verified this tick.
    fn scrub_tick(&self) -> u64 {
        let icfg = &self.opts.integrity;
        if !icfg.checksums || !icfg.scrub_enabled {
            return 0;
        }
        let mut scrub = self.scrub.lock();
        let mut inos = self.files.keys();
        if inos.is_empty() {
            return 0;
        }
        inos.sort_unstable();
        let (cur_ino, cur_block) = scrub.cursor.unwrap_or((0, 0));
        let mut idx = inos.partition_point(|&i| i < cur_ino);
        let mut next_block = if inos.get(idx) == Some(&cur_ino) {
            cur_block
        } else {
            0
        };
        let mut verified = 0u64;
        let mut budget = icfg.scrub_blocks_per_tick;
        let mut saw_entries = false;
        let mut wrapped = false;
        'walk: loop {
            if idx >= inos.len() {
                wrapped = true;
                scrub.cursor = None;
                break;
            }
            if let Some(file) = self.files.get(&inos[idx]) {
                let entries = file.state.read().checksums.entries();
                saw_entries |= !entries.is_empty();
                for (block, _) in entries {
                    if block < next_block {
                        continue;
                    }
                    if budget == 0 || !scrub.bucket.try_take(BLOCK, self.now()) {
                        scrub.cursor = Some((inos[idx], block));
                        break 'walk;
                    }
                    budget -= 1;
                    if self.scrub_block(&file, block) {
                        verified += 1;
                    }
                }
            }
            idx += 1;
            next_block = 0;
        }
        scrub.pass_verified += verified;
        if wrapped && (saw_entries || scrub.pass_verified > 0) {
            scrub.passes += 1;
            let pass = scrub.passes;
            let total = scrub.pass_verified;
            scrub.pass_verified = 0;
            MuxStats::add(&self.stats.scrub_passes, 1);
            self.trace_event(
                TraceEventKind::ScrubPass {
                    pass,
                    verified: total,
                },
                CACHE_TIER,
                0,
                0,
                0,
            );
        }
        MuxStats::add(&self.stats.scrub_blocks_verified, verified);
        verified
    }

    /// Verifies every checksummed block of every file once, ignoring the
    /// scrubber's pacing — tests and the `integrity` experiment use this
    /// for a deterministic full pass without driving maintenance ticks.
    /// Counts as a completed pass (cursor reset, `scrub_passes` bumped,
    /// `scrub_pass` trace event). Returns the number of blocks verified.
    pub fn scrub_everything(&self) -> u64 {
        if !self.opts.integrity.checksums {
            return 0;
        }
        let mut inos = self.files.keys();
        inos.sort_unstable();
        let mut verified = 0u64;
        for ino in inos {
            let Some(file) = self.files.get(&ino) else {
                continue;
            };
            let entries = file.state.read().checksums.entries();
            for (block, _) in entries {
                if self.scrub_block(&file, block) {
                    verified += 1;
                }
            }
        }
        MuxStats::add(&self.stats.scrub_blocks_verified, verified);
        // A forced full walk is still a completed pass: reset the paced
        // cursor (everything it would visit was just visited) and account
        // for it exactly like a wrap.
        let mut scrub = self.scrub.lock();
        scrub.cursor = None;
        let total = scrub.pass_verified + verified;
        scrub.pass_verified = 0;
        scrub.passes += 1;
        let pass = scrub.passes;
        drop(scrub);
        MuxStats::add(&self.stats.scrub_passes, 1);
        self.trace_event(
            TraceEventKind::ScrubPass {
                pass,
                verified: total,
            },
            CACHE_TIER,
            0,
            0,
            0,
        );
        verified
    }

    /// Prepares redirecting an overwrite of `[seg_off, seg_off+seg_len)`
    /// from sick tier `from` to tier `to`: any partially-covered boundary
    /// block has its *old* content copied to `to` first, so swinging the
    /// whole block's BLT entry to `to` never loses the bytes outside the
    /// user's write.
    fn merge_boundary_blocks(
        &self,
        file: &MuxFile,
        from: TierId,
        to: TierId,
        seg_off: u64,
        seg_len: u64,
    ) -> VfsResult<()> {
        let seg_end = seg_off + seg_len;
        let b0 = seg_off / BLOCK;
        let b1 = (seg_end - 1) / BLOCK;
        let mut partial = Vec::new();
        if !seg_off.is_multiple_of(BLOCK) {
            partial.push(b0);
        }
        if !seg_end.is_multiple_of(BLOCK) && !partial.contains(&b1) {
            partial.push(b1);
        }
        for block in partial {
            let mut page = vec![0u8; BLOCK as usize];
            // Short native reads leave trailing zeros, which is the
            // correct sparse content.
            self.read_block_anyhow(file, from, block, &mut page)?;
            let handle = self.tier(to)?;
            let nino = self.ensure_native(file, to)?;
            self.charge(self.opts.cost.dispatch_ns);
            let wrote = self.tier_io(OpKind::Write, to, || {
                handle.fs.write(nino, block * BLOCK, &page)
            })?;
            if wrote != page.len() {
                return Err(VfsError::Io("short redirect write".into()));
            }
        }
        Ok(())
    }

    pub(crate) fn note_meta_mutation(&self) {
        let n = self.meta_mutations.fetch_add(1, Ordering::Relaxed) + 1;
        if self.opts.snapshot_every > 0 && n.is_multiple_of(self.opts.snapshot_every) {
            let _ = self.snapshot_metafile();
        }
    }

    /// Looks up `name` in the native directory `parent`, creating it if
    /// absent. Two threads materializing the same path race benignly: the
    /// loser's create returns [`VfsError::Exists`] and loops back to the
    /// lookup, so both observe the same native inode.
    fn native_lookup_or_create(
        &self,
        tier: TierId,
        handle: &TierHandle,
        parent: InodeNo,
        name: &str,
        kind: FileType,
        mode: u32,
    ) -> VfsResult<FileAttr> {
        loop {
            match self.tier_io(OpKind::Meta, tier, || handle.fs.lookup(parent, name)) {
                Ok(a) => return Ok(a),
                Err(VfsError::NotFound) => {}
                Err(e) => return Err(e),
            }
            match self.tier_io(OpKind::Meta, tier, || {
                handle.fs.create(parent, name, kind, mode)
            }) {
                Ok(a) => return Ok(a),
                Err(VfsError::Exists) => continue, // lost the create race
                Err(e) => return Err(e),
            }
        }
    }

    /// Materializes the file on `tier` (creating parent directories and a
    /// sparse file as needed) and returns the native inode.
    pub(crate) fn ensure_native(&self, file: &MuxFile, tier: TierId) -> VfsResult<InodeNo> {
        if let Some(&nino) = file.state.read().native.get(&tier) {
            return Ok(nino);
        }
        let handle = self.tier(tier)?;
        let (comps, name) = {
            let (parent, name) = self.ns.file_loc.get(&file.ino).ok_or(VfsError::Stale)?;
            (self.ns.path_components(parent)?, name)
        };
        let mut cur = handle.fs.root_ino();
        for comp in &comps {
            let a =
                self.native_lookup_or_create(tier, &handle, cur, comp, FileType::Directory, 0o755)?;
            if !a.is_dir() {
                return Err(VfsError::NotDir);
            }
            cur = a.ino;
        }
        let nino = self
            .native_lookup_or_create(tier, &handle, cur, &name, FileType::Regular, 0o644)?
            .ino;
        file.state.write().native.insert(tier, nino);
        Ok(nino)
    }

    /// Splits `[off, off+len)` at block and `max_dispatch_bytes`
    /// boundaries, calling `f(sub_off, sub_len)` per dispatch.
    fn for_each_dispatch(
        &self,
        off: u64,
        len: u64,
        mut f: impl FnMut(u64, u64) -> VfsResult<()>,
    ) -> VfsResult<()> {
        let max = self.opts.cost.max_dispatch_bytes.max(BLOCK);
        let mut cur = off;
        let end = off + len;
        while cur < end {
            let n = max.min(end - cur);
            f(cur, n)?;
            cur += n;
        }
        Ok(())
    }

    /// The write dispatch plan for `[off, off+len)`: `(tier, byte_off,
    /// byte_len, newly_placed)` runs in file order.
    fn plan_write(
        &self,
        file: &MuxFile,
        off: u64,
        len: u64,
        sync: bool,
    ) -> VfsResult<Vec<(TierId, u64, u64, bool)>> {
        let first = off / BLOCK;
        let last = (off + len - 1) / BLOCK;
        let n_blocks = last - first + 1;
        self.charge(self.opts.cost.blt_lookup_ns);
        let state = file.state.read();
        let file_size = state.meta.attr.size;
        let mapped = state.blt.plan(first, n_blocks);
        drop(state);
        let tier_status = self.tier_status();
        if tier_status.is_empty() {
            return Err(VfsError::Io("mux has no tiers".into()));
        }
        let policy = self.policy.read().clone();
        let heat = self.autotier.heat.score(file.ino);
        let mut out: Vec<(TierId, u64, u64, bool)> = Vec::new();
        let mut cursor = first;
        let push = |tier: TierId, b0: u64, nb: u64, fresh: bool, out: &mut Vec<_>| {
            // Convert block run to the byte range clipped to the request.
            let seg_start = (b0 * BLOCK).max(off);
            let seg_end = ((b0 + nb) * BLOCK).min(off + len);
            if seg_start < seg_end {
                out.push((tier, seg_start, seg_end - seg_start, fresh));
            }
        };
        let place_hole = |b0: u64, nb: u64, out: &mut Vec<_>| {
            let ctx = PlacementCtx {
                ino: file.ino,
                off: b0 * BLOCK,
                len: nb * BLOCK,
                file_size,
                is_append: b0 * BLOCK >= file_size,
                sync,
                tiers: &tier_status,
                heat,
            };
            // `place_run` may stripe the run across tiers.
            let mut b = b0;
            for (piece_bytes, tier) in policy.place_run(&ctx) {
                let piece_blocks = piece_bytes.div_ceil(BLOCK);
                push(tier, b, piece_blocks.min(b0 + nb - b), true, out);
                b += piece_blocks;
                if b >= b0 + nb {
                    break;
                }
            }
        };
        for e in &mapped {
            if e.start > cursor {
                place_hole(cursor, e.start - cursor, &mut out);
            }
            push(e.value, e.start, e.len, false, &mut out);
            cursor = e.start + e.len;
        }
        if cursor <= last {
            place_hole(cursor, last - cursor + 1, &mut out);
        }
        Ok(out)
    }
}

impl FileSystem for Mux {
    fn fs_name(&self) -> &str {
        "mux"
    }

    fn lookup(&self, parent: InodeNo, name: &str) -> VfsResult<FileAttr> {
        self.charge(self.opts.cost.call_processor_ns);
        let entry = self.ns.entry(parent, name)?.ok_or(VfsError::NotFound)?;
        match entry {
            NsEntry::Dir(i) => self.ns.dirs.view(&i, |d| d.attr).ok_or(VfsError::Stale),
            NsEntry::File(i) => self
                .files
                .view(&i, |f| f.state.read().meta.attr)
                .ok_or(VfsError::Stale),
        }
    }

    fn getattr(&self, ino: InodeNo) -> VfsResult<FileAttr> {
        self.charge(self.opts.cost.call_processor_ns);
        // Served entirely from the collective inode — no native calls.
        if let Some(a) = self.ns.dirs.view(&ino, |d| d.attr) {
            return Ok(a);
        }
        Ok(self.get_file(ino)?.state.read().meta.attr)
    }

    fn setattr(&self, ino: InodeNo, set: &SetAttr) -> VfsResult<FileAttr> {
        self.charge(self.opts.cost.call_processor_ns + self.opts.cost.meta_update_ns);
        let now = self.now();
        let dir_result = self.ns.dirs.update(&ino, |d| {
            if set.size.is_some() {
                return Err(VfsError::IsDir);
            }
            if let Some(m) = set.mode {
                d.attr.mode = m;
            }
            if let Some(u) = set.uid {
                d.attr.uid = u;
            }
            if let Some(g) = set.gid {
                d.attr.gid = g;
            }
            d.attr.ctime_ns = now;
            Ok(d.attr)
        });
        if let Some(res) = dir_result {
            return res;
        }
        let file = self.get_file(ino)?;
        let _io = file.io_lock.write(); // exclude concurrent writes
                                        // Truncate zeroes native tails before it clears their checksums —
                                        // same data/checksum skew as a write, same window.
        let _ww = file.write_window();
        if let Some(new_size) = set.size {
            let old_size = file.state.read().meta.attr.size;
            if new_size < old_size {
                // Fan out the truncate to every tier materializing the
                // file, then clear the BLT tail.
                let natives: Vec<(TierId, InodeNo)> = {
                    let st = file.state.read();
                    st.native.iter().map(|(&t, &n)| (t, n)).collect()
                };
                for (tid, nino) in natives {
                    self.charge(self.opts.cost.dispatch_ns);
                    let handle = self.tier(tid)?;
                    // Native sparse files may be shorter than the logical
                    // size; only shrink those that extend past the cut.
                    let nsize = handle.fs.getattr(nino)?.size;
                    if nsize > new_size {
                        handle.fs.setattr(nino, &SetAttr::truncate(new_size))?;
                    }
                }
                let first_dead = new_size.div_ceil(BLOCK);
                let mut st = file.state.write();
                let end = st.blt.end();
                if end > first_dead {
                    st.blt.clear(first_dead, end - first_dead);
                }
                // Dead blocks lose their checksums, and the boundary block
                // changed stored content (natives zero the cut tail), so
                // its old checksum no longer applies either.
                st.checksums.clear_range(first_dead, u64::MAX - first_dead);
                if !new_size.is_multiple_of(BLOCK) {
                    st.checksums.invalidate(new_size / BLOCK);
                }
                st.meta.attr.size = new_size;
                st.meta.attr.mtime_ns = now;
                drop(st);
                if let Some(cache) = self.cache.read().clone() {
                    cache.invalidate(ino, first_dead, u64::MAX / BLOCK - first_dead);
                }
                // Shrinking breaks the fast path's size-lower-bound
                // invariant (growth never does): drop every block the
                // file could have cached — all of them sit below the old
                // size, because every shrink path invalidates.
                self.fastpath_invalidate_blocks(ino, 0, old_size.div_ceil(BLOCK));
            } else {
                file.state.write().meta.attr.size = new_size;
            }
            file.note_write(new_size / BLOCK, 1);
        }
        let mut st = file.state.write();
        if let Some(m) = set.mode {
            st.meta.attr.mode = m;
            let owner = st.meta.owner(AttrKind::Mode);
            st.meta.set_owner(AttrKind::Mode, owner); // unchanged owner
        }
        if let Some(u) = set.uid {
            st.meta.attr.uid = u;
        }
        if let Some(g) = set.gid {
            st.meta.attr.gid = g;
        }
        if let Some(t) = set.atime_ns {
            st.meta.attr.atime_ns = t;
        }
        if let Some(t) = set.mtime_ns {
            st.meta.attr.mtime_ns = t;
        }
        st.meta.attr.ctime_ns = now;
        let attr = st.meta.attr;
        drop(st);
        self.note_meta_mutation();
        Ok(attr)
    }

    fn create(
        &self,
        parent: InodeNo,
        name: &str,
        kind: FileType,
        mode: u32,
    ) -> VfsResult<FileAttr> {
        if name.is_empty() || name.contains('/') {
            return Err(VfsError::InvalidArgument("bad name".into()));
        }
        self.charge(self.opts.cost.call_processor_ns + self.opts.cost.meta_update_ns);
        let now = self.now();
        let ino = self.next_ino.fetch_add(1, Ordering::Relaxed);
        let attr = FileAttr::new(ino, kind, mode, now);
        // Node-first, link-second: the new node becomes reachable only
        // once the parent's shard lock has atomically checked the name
        // and inserted the entry, so a concurrent lookup never finds an
        // entry whose node is missing. On a lost name race the node is
        // unwound and `Exists` surfaces, exactly as under the old global
        // namespace lock.
        match kind {
            FileType::Directory => {
                let mut dattr = attr;
                dattr.nlink = 2;
                self.ns.dirs.insert(
                    ino,
                    MuxDir {
                        parent,
                        name: name.to_string(),
                        entries: BTreeMap::new(),
                        attr: dattr,
                    },
                );
                let linked = self.ns.dirs.update(&parent, |dir| {
                    if dir.entries.contains_key(name) {
                        return Err(VfsError::Exists);
                    }
                    dir.entries.insert(name.to_string(), NsEntry::Dir(ino));
                    dir.attr.nlink += 1;
                    Ok(())
                });
                match linked {
                    Some(Ok(())) => {}
                    Some(Err(e)) => {
                        self.ns.dirs.remove(&ino);
                        return Err(e);
                    }
                    None => {
                        self.ns.dirs.remove(&ino);
                        return Err(VfsError::NotFound);
                    }
                }
            }
            FileType::Regular => {
                // The host file system (initial affinity owner for all
                // metadata, §2.3) is whatever the policy would pick for the
                // first byte.
                let tier_status = self.tier_status();
                let host = if tier_status.is_empty() {
                    0
                } else {
                    let policy = self.policy.read().clone();
                    policy.place(&PlacementCtx {
                        ino,
                        off: 0,
                        len: 0,
                        file_size: 0,
                        is_append: true,
                        sync: false,
                        tiers: &tier_status,
                        heat: self.autotier.heat.score(ino),
                    })
                };
                let file = Arc::new(MuxFile::new(ino, CollectiveInode::new(attr, host)));
                // Stamp the creating thread's tenant: all background work
                // on this file is charged to it (runtime-only; remounted
                // files default to tenant 0).
                file.set_tenant(thread_tenant());
                self.files.insert(ino, file);
                self.ns.file_loc.insert(ino, (parent, name.to_string()));
                let linked = self.ns.dirs.update(&parent, |dir| {
                    if dir.entries.contains_key(name) {
                        return Err(VfsError::Exists);
                    }
                    dir.entries.insert(name.to_string(), NsEntry::File(ino));
                    Ok(())
                });
                match linked {
                    Some(Ok(())) => {}
                    other => {
                        self.ns.file_loc.remove(&ino);
                        self.files.remove(&ino);
                        return Err(match other {
                            Some(Err(e)) => e,
                            _ => VfsError::NotFound,
                        });
                    }
                }
            }
        }
        self.note_meta_mutation();
        let mut out = attr;
        if kind == FileType::Directory {
            out.nlink = 2;
        }
        Ok(out)
    }

    fn unlink(&self, parent: InodeNo, name: &str) -> VfsResult<()> {
        self.charge(self.opts.cost.call_processor_ns + self.opts.cost.meta_update_ns);
        let entry = self.ns.entry(parent, name)?.ok_or(VfsError::NotFound)?;
        match entry {
            NsEntry::Dir(ino) => {
                // Detach the node atomically with the emptiness check, so
                // a concurrent create inside the dying directory either
                // happens-before (vetoing the removal) or fails NotFound.
                match self.ns.dirs.remove_if(&ino, |d| d.entries.is_empty()) {
                    RemoveIf::Removed(_) => {}
                    RemoveIf::Vetoed => return Err(VfsError::NotEmpty),
                    RemoveIf::Missing => return Err(VfsError::Stale),
                }
                self.ns.dirs.update(&parent, |p| {
                    p.entries.remove(name);
                    p.attr.nlink = p.attr.nlink.saturating_sub(1);
                });
                // Native mirrors of the directory are garbage-collected
                // lazily; empty dirs on tiers are harmless.
            }
            NsEntry::File(ino) => {
                let file = self.get_file(ino)?;
                let _io = file.io_lock.write();
                // Fan out the unlink to every tier materializing it.
                let natives: Vec<TierId> = {
                    let st = file.state.read();
                    st.native.keys().copied().collect()
                };
                for tid in natives {
                    self.charge(self.opts.cost.dispatch_ns);
                    let handle = self.tier(tid)?;
                    // Resolve the native parent by path and unlink there.
                    let (comps, fname) = {
                        let (p, n) = self.ns.file_loc.get(&ino).ok_or(VfsError::Stale)?;
                        (self.ns.path_components(p)?, n)
                    };
                    let mut cur = handle.fs.root_ino();
                    let mut ok = true;
                    for comp in &comps {
                        match handle.fs.lookup(cur, comp) {
                            Ok(a) => cur = a.ino,
                            Err(_) => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        match handle.fs.unlink(cur, &fname) {
                            Ok(()) | Err(VfsError::NotFound) => {}
                            Err(e) => return Err(e),
                        }
                    }
                }
                if let Some(cache) = self.cache.read().clone() {
                    cache.invalidate_file(ino);
                }
                // Native inodes can be reused after the fan-out above: a
                // stale fast-path mapping could hand another file's bytes
                // to a racing reader. Retire the file's cached blocks
                // (all below the current size — shrink paths invalidate)
                // before the node disappears.
                let nb = file.state.read().meta.attr.size.div_ceil(BLOCK);
                self.fastpath_invalidate_blocks(ino, 0, nb);
                // Link-first removal: once the entry leaves the parent, new
                // lookups fail NotFound; the node tables are cleaned after.
                self.ns.dirs.update(&parent, |p| {
                    p.entries.remove(name);
                });
                self.ns.file_loc.remove(&ino);
                self.files.remove(&ino);
                self.autotier.heat.forget(ino);
            }
        }
        self.note_meta_mutation();
        Ok(())
    }

    fn rename(
        &self,
        parent: InodeNo,
        name: &str,
        new_parent: InodeNo,
        new_name: &str,
    ) -> VfsResult<()> {
        self.charge(self.opts.cost.call_processor_ns + self.opts.cost.meta_update_ns);
        let entry = self.ns.entry(parent, name)?.ok_or(VfsError::NotFound)?;
        // Replace target if it exists.
        let existing = self
            .ns
            .dirs
            .view(&new_parent, |d| d.entries.get(new_name).copied())
            .ok_or(VfsError::NotFound)?;
        match existing {
            Some(NsEntry::Dir(d)) => {
                if self
                    .ns
                    .dirs
                    .view(&d, |dd| !dd.entries.is_empty())
                    .unwrap_or(false)
                {
                    return Err(VfsError::NotEmpty);
                }
                self.unlink(new_parent, new_name)?;
            }
            Some(NsEntry::File(f)) if NsEntry::File(f) != entry => {
                self.unlink(new_parent, new_name)?;
            }
            _ => {}
        }
        // Fan out the rename to tiers that materialize the file, so native
        // paths stay congruent with the Mux namespace.
        if let NsEntry::File(ino) = entry {
            let file = self.get_file(ino)?;
            let natives: Vec<(TierId, InodeNo)> = {
                let st = file.state.read();
                st.native.iter().map(|(&t, &n)| (t, n)).collect()
            };
            for (tid, _nino) in natives {
                self.charge(self.opts.cost.dispatch_ns);
                let handle = self.tier(tid)?;
                let (old_comps, old_name) = {
                    let (p, n) = self.ns.file_loc.get(&ino).ok_or(VfsError::Stale)?;
                    (self.ns.path_components(p)?, n)
                };
                let new_comps = self.ns.path_components(new_parent)?;
                // Resolve old parent.
                let mut cur = handle.fs.root_ino();
                let mut found = true;
                for comp in &old_comps {
                    match handle.fs.lookup(cur, comp) {
                        Ok(a) => cur = a.ino,
                        Err(_) => {
                            found = false;
                            break;
                        }
                    }
                }
                if !found {
                    continue;
                }
                let old_parent_native = cur;
                // Resolve/create new parent chain.
                let mut cur = handle.fs.root_ino();
                for comp in &new_comps {
                    cur = match handle.fs.lookup(cur, comp) {
                        Ok(a) => a.ino,
                        Err(VfsError::NotFound) => {
                            handle.fs.create(cur, comp, FileType::Directory, 0o755)?.ino
                        }
                        Err(e) => return Err(e),
                    };
                }
                match handle
                    .fs
                    .rename(old_parent_native, &old_name, cur, new_name)
                {
                    Ok(()) | Err(VfsError::NotFound) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        // Unlink-then-relink across two shard steps. The entry is briefly
        // in neither directory; a racing lookup during that window sees
        // NotFound (documented rename anomaly — never double-visibility).
        let taken = self
            .ns
            .dirs
            .update(&parent, |d| d.entries.remove(name))
            .ok_or(VfsError::NotFound)?
            .ok_or(VfsError::NotFound)?;
        let inserted = self
            .ns
            .dirs
            .update(&new_parent, |d| {
                d.entries.insert(new_name.to_string(), taken);
            })
            .is_some();
        if !inserted {
            // New parent vanished mid-rename: restore the old link.
            self.ns.dirs.update(&parent, |d| {
                d.entries.insert(name.to_string(), taken);
            });
            return Err(VfsError::NotFound);
        }
        match taken {
            NsEntry::File(ino) => {
                self.ns
                    .file_loc
                    .insert(ino, (new_parent, new_name.to_string()));
            }
            NsEntry::Dir(d) => {
                self.ns.dirs.update(&d, |dd| {
                    dd.parent = new_parent;
                    dd.name = new_name.to_string();
                });
            }
        }
        self.note_meta_mutation();
        Ok(())
    }

    fn readdir(&self, ino: InodeNo) -> VfsResult<Vec<DirEntry>> {
        self.charge(self.opts.cost.call_processor_ns);
        self.ns
            .dirs
            .view(&ino, |dir| {
                dir.entries
                    .iter()
                    .map(|(name, e)| DirEntry {
                        name: name.clone(),
                        ino: e.ino(),
                        kind: match e {
                            NsEntry::Dir(_) => FileType::Directory,
                            NsEntry::File(_) => FileType::Regular,
                        },
                    })
                    .collect()
            })
            .ok_or(VfsError::NotFound)
    }

    fn read(&self, ino: InodeNo, off: u64, buf: &mut [u8]) -> VfsResult<usize> {
        let t0 = self.now();
        // Fast path first: a cached, still-valid block → tier mapping
        // serves the read with no shard lock, no BLT walk and no retry
        // machinery (see crate::fastpath and PERFORMANCE.md). Anything
        // surprising falls through to the dispatch path below.
        if self.opts.fastpath.enabled && !buf.is_empty() {
            if let Some((n, tier)) = self.fastpath_read(ino, off, buf) {
                let dt = self.now().saturating_sub(t0);
                self.lat.record(OpKind::MuxRead, tier, dt);
                self.lat.record_tenant(OpKind::MuxRead, thread_tenant(), dt);
                return Ok(n);
            }
        }
        let cost = &self.opts.cost;
        // Sampled before the BLT resolves anything: a mapping inserted
        // below is stamped with these values, so any epoch bump or health
        // transition that races this read invalidates the entry instead
        // of racing it.
        let fp_epoch = self.fastpath.epoch();
        let fp_gen = self.health.generation();
        self.charge(cost.call_processor_ns + cost.blt_lookup_ns + cost.occ_check_ns);
        let file = self.get_file(ino)?;
        let now = self.now();
        let size = file.state.read().meta.attr.size;
        if off >= size {
            return Ok(0);
        }
        let n = buf.len().min((size - off) as usize);
        let first = off / BLOCK;
        let last = (off + n as u64 - 1) / BLOCK;
        let plan = file.state.read().blt.plan(first, last - first + 1);
        let cache = self.cache.read().clone();
        let mut last_tier: Option<TierId> = None;
        let mut split_tiers = std::collections::HashSet::new();
        // Zero-fill; mapped segments overwrite.
        buf[..n].fill(0);
        for seg in &plan {
            split_tiers.insert(seg.value);
            last_tier = Some(seg.value);
            let handle = self.tier(seg.value)?;
            let seg_start = (seg.start * BLOCK).max(off);
            let seg_end = ((seg.start + seg.len) * BLOCK).min(off + n as u64);
            // Per-block cache check, then dispatch the uncached remainder.
            let mut cur = seg_start;
            while cur < seg_end {
                let block = cur / BLOCK;
                let block_end = ((block + 1) * BLOCK).min(seg_end);
                let dst = &mut buf[(cur - off) as usize..(block_end - off) as usize];
                let mut served = false;
                if let Some(c) = &cache {
                    if c.should_cache(handle.config.class) {
                        let mut page = vec![0u8; BLOCK as usize];
                        // The cache is best-effort: a backend error is a miss.
                        if c.lookup(ino, block, &mut page).unwrap_or(false) {
                            // The cache device can rot too: a hit whose
                            // content no longer matches a trusted checksum
                            // is dropped and re-fetched from the owning
                            // tier (which verifies and repairs) — no strike,
                            // since a racing write is indistinguishable
                            // from rot here.
                            let clean = !self.opts.integrity.checksums || {
                                let st = file.state.read();
                                !st.checksums.is_trusted(block)
                                    || st.checksums.get(block)
                                        == Some(crate::integrity::crc32c(&page))
                            };
                            if clean {
                                let in_pg = (cur % BLOCK) as usize;
                                dst.copy_from_slice(&page[in_pg..in_pg + dst.len()]);
                                MuxStats::add(&self.stats.cache_hits, 1);
                                served = true;
                            } else {
                                c.invalidate(ino, block, 1);
                                MuxStats::add(&self.stats.cache_misses, 1);
                            }
                        } else {
                            MuxStats::add(&self.stats.cache_misses, 1);
                        }
                    }
                }
                if !served {
                    // An OCC migration may commit (swinging the BLT) and
                    // punch the source while this dispatch is in flight.
                    // The commit protocol orders BLT-swing before punch,
                    // so re-checking the owner *after* the read makes the
                    // torn case detectable: chase the new owner, bounded
                    // by READ_REVALIDATE_HOPS.
                    //
                    // Reads go through a full-block scratch page so the
                    // content can be CRC-verified (and repaired) before a
                    // single byte is copied toward the caller; the verified
                    // page then feeds the SCM cache fill for free.
                    // The BLT owner this read validates against; a chase
                    // after a concurrent migration commit updates it.
                    let mut expect = seg.value;
                    let mut hops = 0u32;
                    loop {
                        // Mirror-aware source selection (§4, replicas as
                        // first-class placement): a block whose Healthy
                        // replica sits on a strictly faster device class
                        // is served from the replica. A merely sick (but
                        // readable) primary still serves — it must keep
                        // feeding the breaker and the repair chain — and
                        // an offline primary fails over in the error path
                        // below.
                        let mut read_tier = expect;
                        if let Some(rt) = file
                            .state
                            .read()
                            .replicas
                            .get(block)
                            .filter(|&rt| rt != expect)
                        {
                            if self.health.state(rt) == crate::health::TierHealthState::Healthy
                                && class_index(self.tier(rt)?.config.class)
                                    < class_index(self.tier(expect)?.config.class)
                            {
                                read_tier = rt;
                                if self.health.state(expect)
                                    == crate::health::TierHealthState::Healthy
                                {
                                    MuxStats::add(&self.stats.mirror_reads_fast, 1);
                                }
                            }
                        }
                        let rhandle = self.tier(read_tier)?;
                        let mut primary_nino = None;
                        let mut served_tier = read_tier;
                        let v0 = file.version_now();
                        let mut page = vec![0u8; BLOCK as usize];
                        let primary = if self.health.can_read(read_tier) {
                            let nino = self.ensure_native(&file, read_tier)?;
                            primary_nino = Some(nino);
                            self.charge(cost.dispatch_ns);
                            MuxStats::add(&self.stats.dispatches, 1);
                            self.trace_event(
                                TraceEventKind::Dispatch { op: OpKind::Read },
                                read_tier,
                                ino,
                                cur,
                                dst.len() as u64,
                            );
                            self.tier_io(OpKind::Read, read_tier, || {
                                rhandle.fs.read(nino, block * BLOCK, &mut page)
                            })
                        } else {
                            // Offline tier: don't dispatch, go straight to
                            // the replica (or error) below.
                            Err(VfsError::Io(format!("tier {read_tier} is offline")))
                        };
                        let got = match primary {
                            Ok(got) => got,
                            Err(VfsError::Io(primary_err)) => {
                                // The chosen copy failed: fail over to the
                                // block's other copy — the replica when the
                                // primary was serving, the primary when a
                                // replica was (§4 replication).
                                let rep = if read_tier == expect {
                                    file.state.read().replicas.get(block)
                                } else {
                                    Some(expect).filter(|&t| self.health.can_read(t))
                                };
                                match rep {
                                    Some(rt) if rt != read_tier => {
                                        let rh = self.tier(rt)?;
                                        let rino = self.ensure_native(&file, rt)?;
                                        self.charge(cost.dispatch_ns);
                                        MuxStats::add(&self.stats.dispatches, 1);
                                        self.trace_event(
                                            TraceEventKind::Dispatch { op: OpKind::Read },
                                            rt,
                                            ino,
                                            cur,
                                            dst.len() as u64,
                                        );
                                        let got = self.tier_io(OpKind::Read, rt, || {
                                            rh.fs.read(rino, block * BLOCK, &mut page)
                                        })?;
                                        MuxStats::add(&self.stats.replica_failovers, 1);
                                        primary_nino = None; // don't cache-fill off the sick tier
                                        served_tier = rt;
                                        got
                                    }
                                    _ => return Err(VfsError::Io(primary_err)),
                                }
                            }
                            Err(e) => return Err(e),
                        };
                        let owner_now = file.state.read().blt.tier_of(block);
                        if let Some(t) = owner_now {
                            if t != expect && hops < READ_REVALIDATE_HOPS {
                                hops += 1;
                                expect = t;
                                MuxStats::add(&self.stats.read_revalidations, 1);
                                continue;
                            }
                        }
                        // Verify before serving — but only when the block
                        // demonstrably still lives where it was read from
                        // and no write landed mid-read; either race makes a
                        // mismatch meaningless (the write and migration
                        // paths keep the table consistent on their own).
                        if owner_now == Some(expect) && file.version_now() == v0 {
                            self.verify_and_repair(&file, served_tier, block, &mut page, Some(v0))?;
                        }
                        // The page is zero-filled past a short native read,
                        // which is the correct sparse content.
                        let in_pg = (cur % BLOCK) as usize;
                        dst.copy_from_slice(&page[in_pg..in_pg + dst.len()]);
                        if let (Some(_), Some(c)) = (primary_nino, &cache) {
                            // Publish the verified page (page-granular
                            // cache), best-effort — fill failures must not
                            // fail the read. Only if the block still lives
                            // where it was read from: a commit+punch since
                            // the read would cache stale zeros otherwise.
                            if c.should_cache(rhandle.config.class)
                                && got > 0
                                && file.state.read().blt.tier_of(block) == Some(expect)
                            {
                                let _ = c.fill(ino, block, &page);
                            }
                        }
                        // Publish the resolved mapping to the lock-free
                        // fast path: only off a deliberately chosen copy —
                        // primary or fast replica; sick-tier failovers must
                        // keep feeding the breaker through the dispatch
                        // path — only from a Healthy non-HDD tier
                        // (HDD seeks dwarf the dispatch tax, and a cold
                        // tier should keep heat-visible dispatches), and
                        // never for a tier the SCM cache fronts (a
                        // fast-path hit would bypass the cache and starve
                        // it).
                        if self.opts.fastpath.enabled
                            && primary_nino.is_some()
                            && owner_now == Some(expect)
                            && file.version_now() == v0
                            && self.health.state(read_tier)
                                == crate::health::TierHealthState::Healthy
                            && rhandle.config.class != simdev::DeviceClass::Hdd
                            && !cache
                                .as_ref()
                                .is_some_and(|c| c.should_cache(rhandle.config.class))
                        {
                            let (fsize, crc, crc_verified) = {
                                let st = file.state.read();
                                let trusted =
                                    self.opts.integrity.checksums && st.checksums.is_trusted(block);
                                (
                                    st.meta.attr.size,
                                    if trusted {
                                        st.checksums.get(block).unwrap_or(0)
                                    } else {
                                        0
                                    },
                                    trusted,
                                )
                            };
                            self.fastpath.insert(
                                ino,
                                block,
                                read_tier,
                                primary_nino.unwrap_or(0),
                                fsize,
                                crc,
                                crc_verified,
                                fp_epoch,
                                fp_gen,
                            );
                            // Close the insert-after-invalidate race: a
                            // migration that committed while this insert
                            // was in flight may have already swept the
                            // slot. The BLT swings before the sweep runs,
                            // so re-checking owner + version here catches
                            // it; on mismatch, self-invalidate.
                            if file.state.read().blt.tier_of(block) != Some(expect)
                                || file.version_now() != v0
                            {
                                self.fastpath.invalidate(ino, block);
                            }
                        }
                        break;
                    }
                }
                cur = block_end;
            }
        }
        self.charge(cost.merge_ns);
        MuxStats::add(&self.stats.reads, 1);
        MuxStats::add(&self.stats.bytes_read, n as u64);
        MuxStats::add_tenant(&self.stats.tenant_reads, thread_tenant(), 1);
        if split_tiers.len() > 1 {
            MuxStats::add(&self.stats.split_reads, 1);
            self.trace_event(
                TraceEventKind::Split {
                    parts: plan.len() as u32,
                    write: false,
                },
                last_tier.unwrap_or(0),
                ino,
                off,
                n as u64,
            );
        }
        // Metadata affinity: the tier serving the final block owns atime.
        if let Some(t) = last_tier {
            let mut st = file.state.write();
            st.meta.on_read(t, now);
            drop(st);
            self.autotier.heat.record(ino, last - first + 1, false);
        }
        let dt = self.now().saturating_sub(t0);
        self.lat
            .record(OpKind::MuxRead, last_tier.unwrap_or(CACHE_TIER), dt);
        self.lat.record_tenant(OpKind::MuxRead, thread_tenant(), dt);
        Ok(n)
    }

    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> VfsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let cost = &self.opts.cost;
        self.charge(cost.call_processor_ns + cost.occ_check_ns);
        let file = self.get_file(ino)?;
        let now = self.now();
        let _io = file.io_lock.read();
        // Open the write window before the first native dispatch: until
        // the checksum bookkeeping below lands, stored data and stored
        // checksums may disagree, and the verify path must know that.
        let _ww = file.write_window();
        let old_size = file.state.read().meta.attr.size;
        let mut plan = self.plan_write(&file, off, data.len() as u64, false)?;
        // Write absorption on the fast copy (§4, mirrors): a written range
        // whose replica sits on a strictly faster Healthy tier — or whose
        // primary the breaker has fenced — swings the primary role to the
        // replica *before* dispatch. The write then lands once, on the
        // fast device, and the slower ex-primary is re-mirrored lazily by
        // the maintenance tick instead of being rewritten synchronously.
        // The role change is journaled as an unmirror first: recovery must
        // never resurrect the written-over copy as a replica.
        if self.opts.autotier.mirror_enabled && !file.migrating.load(Ordering::Acquire) {
            for entry in plan.iter_mut() {
                let (tier, seg_off, seg_len, fresh) = *entry;
                if fresh {
                    continue;
                }
                let b0 = seg_off / BLOCK;
                let nb = (seg_off + seg_len - 1) / BLOCK - b0 + 1;
                let rep = {
                    let st = file.state.read();
                    match st.replicas.overlapping(b0, nb).as_slice() {
                        // Swap only when one replica covers the whole
                        // segment: partial coverage would tear the block
                        // range across owners mid-write.
                        [e] if e.start <= b0 && e.start + e.len >= b0 + nb => Some(e.value),
                        _ => None,
                    }
                };
                let Some(rt) = rep else {
                    continue;
                };
                if rt == tier || self.health.state(rt) != crate::health::TierHealthState::Healthy {
                    continue;
                }
                let faster = class_index(self.tier(rt)?.config.class)
                    < class_index(self.tier(tier)?.config.class);
                if !faster && self.health.can_write(tier) {
                    continue;
                }
                self.journal_unmirror(ino, b0, nb, rt)?;
                {
                    let mut st = file.state.write();
                    st.replicas.remove(b0, nb);
                    st.blt.assign(b0, nb, rt);
                    st.resync_pending.insert(b0, nb, tier);
                }
                // The owner changed under any cached mapping for these
                // blocks; both residencies are about to diverge anyway.
                self.fastpath_invalidate_blocks(ino, b0, nb);
                MuxStats::add(&self.stats.mirrors_retired, nb);
                self.trace_event(
                    TraceEventKind::MirrorRetired,
                    rt,
                    ino,
                    b0 * BLOCK,
                    nb * BLOCK,
                );
                *entry = (rt, seg_off, seg_len, false);
            }
        }
        // Graceful degradation backstop: segments aimed at a tier the
        // circuit breaker has fenced (ReadOnly/Offline) — typically
        // already-mapped blocks the policy cannot re-place — are
        // redirected to the healthiest tier with room. Boundary blocks
        // only partially covered by the write have their old content
        // merged over first, then the BLT swings the whole block.
        for entry in plan.iter_mut() {
            let (tier, seg_off, seg_len, fresh) = *entry;
            if self.health.can_write(tier) {
                continue;
            }
            let to = self.healthiest_writable_tier(seg_len, Some(tier))?;
            if !fresh {
                self.merge_boundary_blocks(&file, tier, to, seg_off, seg_len)?;
            }
            *entry = (to, seg_off, seg_len, true);
            MuxStats::add(&self.stats.redirected_writes, 1);
            self.trace_event(
                TraceEventKind::Redirect { from: tier },
                to,
                ino,
                seg_off,
                seg_len,
            );
        }
        let mut split_tiers = std::collections::HashSet::new();
        let mut last_tier = 0;
        for &(tier, seg_off, seg_len, _fresh) in &plan {
            split_tiers.insert(tier);
            last_tier = tier;
            let handle = self.tier(tier)?;
            let extra_per_kib =
                cost.write_dispatch_extra_ns_per_kib[class_index(handle.config.class)];
            let nino = self.ensure_native(&file, tier)?;
            self.for_each_dispatch(seg_off, seg_len, |sub_off, sub_len| {
                self.charge(cost.dispatch_ns + extra_per_kib * sub_len.div_ceil(1024));
                MuxStats::add(&self.stats.dispatches, 1);
                self.trace_event(
                    TraceEventKind::Dispatch { op: OpKind::Write },
                    tier,
                    ino,
                    sub_off,
                    sub_len,
                );
                let src = &data[(sub_off - off) as usize..(sub_off - off + sub_len) as usize];
                let wrote =
                    self.tier_io(OpKind::Write, tier, || handle.fs.write(nino, sub_off, src))?;
                if wrote != src.len() {
                    return Err(VfsError::Io("short native write".into()));
                }
                Ok(())
            })?;
        }
        // Bookkeeping: BLT for fresh placements, affinity, version.
        let first = off / BLOCK;
        let last = (off + data.len() as u64 - 1) / BLOCK;
        let end = off + data.len() as u64;
        let mut readback: Vec<u64> = Vec::new();
        // Overwritten blocks invalidate their replicas (§4): the write
        // landed on the primary only, so every overlapped replica range is
        // now stale. Journal the invalidation *before* dropping the
        // entries — recovery replaying against an older snapshot must not
        // resurrect a divergent copy — and park the ranges in
        // `resync_pending` so the maintenance tick re-mirrors them lazily.
        let stale_reps: Vec<(u64, u64, TierId)> = {
            let st = file.state.read();
            st.replicas
                .overlapping(first, last - first + 1)
                .into_iter()
                .map(|e| (e.start, e.len, e.value))
                .collect()
        };
        for &(s, l, rt) in &stale_reps {
            self.journal_unmirror(ino, s, l, rt)?;
        }
        {
            let mut st = file.state.write();
            for &(tier, seg_off, seg_len, fresh) in &plan {
                if fresh {
                    let b0 = seg_off / BLOCK;
                    let b1 = (seg_off + seg_len - 1) / BLOCK;
                    st.blt.assign(b0, b1 - b0 + 1, tier);
                }
            }
            st.meta.on_write(last_tier, end, now);
            st.meta.attr.blocks_bytes = st.blt.mapped_blocks() * BLOCK;
            for &(s, l, rt) in &stale_reps {
                st.replicas.remove(s, l);
                st.resync_pending.insert(s, l, rt);
            }
            // Checksum maintenance (see [`crate::integrity`]): a block
            // whose entire stored content is determined by this write —
            // covered from its start, and either covered to its end or
            // running past the old EOF (so the stored tail is sparse
            // zeros) — is checksummed straight from the user buffer.
            // Boundary blocks that merged with old bytes are read back
            // below, outside the lock.
            if self.opts.integrity.checksums {
                for b in first..=last {
                    let bs = b * BLOCK;
                    let be = bs + BLOCK;
                    if bs >= off && (be <= end || end >= old_size) {
                        let mut page = [0u8; BLOCK as usize];
                        let s = (bs - off) as usize;
                        let e = (end.min(be) - off) as usize;
                        page[..e - s].copy_from_slice(&data[s..e]);
                        st.checksums.record(b, crate::integrity::crc32c(&page));
                    } else {
                        st.checksums.invalidate(b);
                        readback.push(b);
                    }
                }
            }
        }
        for b in readback {
            self.readback_checksum(&file, b);
        }
        self.charge(cost.meta_update_ns + cost.merge_ns);
        file.note_write(first, last - first + 1);
        if let Some(cache) = self.cache.read().clone() {
            cache.invalidate(ino, first, last - first + 1);
        }
        self.fastpath_invalidate_blocks(ino, first, last - first + 1);
        MuxStats::add(&self.stats.writes, 1);
        MuxStats::add(&self.stats.bytes_written, data.len() as u64);
        MuxStats::add_tenant(&self.stats.tenant_writes, thread_tenant(), 1);
        if split_tiers.len() > 1 {
            MuxStats::add(&self.stats.split_writes, 1);
            self.trace_event(
                TraceEventKind::Split {
                    parts: plan.len() as u32,
                    write: true,
                },
                last_tier,
                ino,
                off,
                data.len() as u64,
            );
        }
        self.autotier.heat.record(ino, last - first + 1, true);
        Ok(data.len())
    }

    fn punch_hole(&self, ino: InodeNo, off: u64, len: u64) -> VfsResult<()> {
        if len == 0 {
            return Ok(());
        }
        self.charge(self.opts.cost.call_processor_ns + self.opts.cost.blt_lookup_ns);
        let file = self.get_file(ino)?;
        let _io = file.io_lock.read();
        let first = off / BLOCK;
        let end = off + len;
        let plan = file
            .state
            .read()
            .blt
            .plan(first, end.div_ceil(BLOCK) - first);
        for seg in &plan {
            let handle = self.tier(seg.value)?;
            let nino = self.ensure_native(&file, seg.value)?;
            let seg_start = (seg.start * BLOCK).max(off);
            let seg_end = ((seg.start + seg.len) * BLOCK).min(end);
            self.charge(self.opts.cost.dispatch_ns);
            handle.fs.punch_hole(nino, seg_start, seg_end - seg_start)?;
        }
        // Whole blocks leave the BLT (and the checksum table); punched
        // boundary blocks keep their mapping but changed stored content,
        // so their checksums are dropped rather than left to mismatch.
        let first_full = off.div_ceil(BLOCK);
        let last_full = end / BLOCK;
        {
            let mut st = file.state.write();
            if last_full > first_full {
                st.blt.clear(first_full, last_full - first_full);
                st.checksums.clear_range(first_full, last_full - first_full);
            }
            if !off.is_multiple_of(BLOCK) {
                st.checksums.invalidate(off / BLOCK);
            }
            if !end.is_multiple_of(BLOCK) && end / BLOCK != off / BLOCK {
                st.checksums.invalidate(end / BLOCK);
            }
        }
        if last_full > first_full {
            if let Some(cache) = self.cache.read().clone() {
                cache.invalidate(ino, first_full, last_full - first_full);
            }
        }
        file.note_write(first, end.div_ceil(BLOCK) - first);
        self.fastpath_invalidate_blocks(ino, first, end.div_ceil(BLOCK) - first);
        self.note_meta_mutation();
        Ok(())
    }

    fn next_data(&self, ino: InodeNo, off: u64) -> VfsResult<Option<(u64, u64)>> {
        self.charge(self.opts.cost.call_processor_ns + self.opts.cost.blt_lookup_ns);
        let file = self.get_file(ino)?;
        let st = file.state.read();
        let size = st.meta.attr.size;
        if off >= size {
            return Ok(None);
        }
        match st.blt.next_mapped(off / BLOCK) {
            Some(e) => {
                let start = (e.start * BLOCK).max(off);
                let end = ((e.start + e.len) * BLOCK).min(size);
                if start >= size {
                    return Ok(None);
                }
                Ok(Some((start, end - start)))
            }
            None => Ok(None),
        }
    }

    fn fsync(&self, ino: InodeNo) -> VfsResult<()> {
        self.charge(self.opts.cost.call_processor_ns);
        if self.ns.dirs.contains(&ino) {
            // Directory fsync: persist the Mux metafile.
            return self.snapshot_metafile();
        }
        let file = self.get_file(ino)?;
        MuxStats::add(&self.stats.fsyncs, 1);
        // Fan out to every participating file system and synchronize their
        // completion (paper §4).
        let mut natives: Vec<(TierId, InodeNo)> = {
            let st = file.state.read();
            st.native.iter().map(|(&t, &n)| (t, n)).collect()
        };
        // HashMap order would make the fan-out (and virtual-time charges)
        // run-to-run nondeterministic.
        natives.sort_unstable();
        for (tid, nino) in &natives {
            if !self.health.can_read(*tid) {
                // Offline tier: nothing reachable to flush; surviving
                // tiers still synchronize rather than wedging every fsync.
                continue;
            }
            self.charge(self.opts.cost.dispatch_ns);
            let handle = self.tier(*tid)?;
            self.trace_event(
                TraceEventKind::Dispatch { op: OpKind::Fsync },
                *tid,
                ino,
                0,
                0,
            );
            self.tier_io(OpKind::Fsync, *tid, || handle.fs.fsync(*nino))?;
        }
        // Lazy metadata sync: push collective-inode values to tiers whose
        // native copies went stale when affinity moved.
        let (stale, attr) = {
            let mut st = file.state.write();
            (st.meta.take_stale(), st.meta.attr)
        };
        for tid in stale {
            if let Some(&nino) = file.state.read().native.get(&tid) {
                let handle = self.tier(tid)?;
                // Respect the tier's native timestamp semantics (§4): a
                // FAT-granularity tier only ever sees rounded values.
                let gran = handle
                    .timestamp_granularity_ns
                    .load(Ordering::Relaxed)
                    .max(1);
                let _ = handle.fs.setattr(
                    nino,
                    &SetAttr {
                        atime_ns: Some(attr.atime_ns / gran * gran),
                        mtime_ns: Some(attr.mtime_ns / gran * gran),
                        mode: Some(attr.mode),
                        ..Default::default()
                    },
                );
            }
        }
        self.snapshot_metafile()
    }

    fn sync(&self) -> VfsResult<()> {
        self.charge(self.opts.cost.call_processor_ns);
        for t in self.tiers.read().iter() {
            if !self.health.can_read(t.id) {
                continue; // offline: skip rather than wedge global sync
            }
            self.tier_io(OpKind::Fsync, t.id, || t.fs.sync())?;
        }
        self.snapshot_metafile()
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        // Aggregated across tiers: the hierarchy is "a single device to the
        // host" (§1).
        let mut total = 0;
        let mut free = 0;
        for t in self.tiers.read().iter() {
            if let Ok(st) = t.fs.statfs() {
                total += st.total_bytes;
                free += st.free_bytes;
            }
        }
        Ok(StatFs {
            total_bytes: total,
            free_bytes: free,
            inodes: self.files.len() as u64,
            block_size: BLOCK as u32,
        })
    }
}
