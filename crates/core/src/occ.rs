//! The OCC Synchronizer (paper §2.4).
//!
//! Data movement between file systems cannot use a shared lock — "no
//! universal lock among them exists" — so Mux uses optimistic concurrency
//! control: "data movement does not change the content of the data; so, a
//! data movement process is considered successful if the content of the
//! data remains unchanged throughout the process."
//!
//! Protocol per migrated range:
//!
//! 1. **Begin** — set the file's migration flag, snapshot the version
//!    counter, clear the dirty-range list (writers append to it while the
//!    flag is up).
//! 2. **Copy** — read the range from the source file system(s), write it
//!    into the destination's sparse file at the same offsets. No lock is
//!    held; user I/O proceeds concurrently.
//! 3. **Validate + commit** — take the file's `io_lock` exclusively for an
//!    instant (this only waits out writes already in flight): if no dirty
//!    range intersects the migrated range, swing the Block Lookup Table —
//!    the copied blocks become visible atomically. Otherwise retry just
//!    the conflicting blocks, up to `migration_retries` times.
//! 4. **Fallback** — if retries exhaust, hold `io_lock` exclusively while
//!    copying the remaining conflicted blocks (lock-based migration), so
//!    the process "will be completed in a finite amount of time" and the
//!    replication lag is bounded.
//! 5. **Reclaim** — punch the moved blocks out of the source file systems.

use std::sync::atomic::{AtomicU64, Ordering};

use tvfs::{VfsError, VfsResult};

use crate::file::{clip_ranges, ranges_intersect, subtract_ranges, MuxFile, MuxIno};
use crate::hist::OpKind;
use crate::mux::Mux;
use crate::policy::FileView;
use crate::sched::IoRequest;
use crate::trace::TraceEventKind;
use crate::types::{TierId, BLOCK};

/// Counters for the OCC synchronizer.
#[derive(Debug, Default)]
pub struct OccStats {
    /// Migration attempts started.
    pub migrations: AtomicU64,
    /// Copy rounds that found conflicting writes at validation.
    pub conflicts: AtomicU64,
    /// Optimistic retry rounds executed.
    pub retries: AtomicU64,
    /// Migrations that fell back to lock-based copying.
    pub fallbacks: AtomicU64,
    /// Blocks whose ownership moved.
    pub blocks_moved: AtomicU64,
    /// Virtual nanoseconds the per-file `io_lock` was held *exclusively*
    /// by migration code — the §2.4 "critical path" that OCC minimizes
    /// (user writes stall only while this lock is held).
    pub lock_hold_vns: AtomicU64,
    /// Migrations aborted by a device fault (cleanly: source authoritative
    /// for uncommitted blocks, destination debris punched).
    pub aborts: AtomicU64,
    /// Aborts that still committed the blocks validated before the fault.
    pub partial_commits: AtomicU64,
}

impl OccStats {
    fn bump(c: &AtomicU64, n: u64) {
        c.fetch_add(n, Ordering::Relaxed);
    }

    /// `(migrations, conflicts, retries, fallbacks, blocks_moved)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.migrations.load(Ordering::Relaxed),
            self.conflicts.load(Ordering::Relaxed),
            self.retries.load(Ordering::Relaxed),
            self.fallbacks.load(Ordering::Relaxed),
            self.blocks_moved.load(Ordering::Relaxed),
        )
    }

    /// Virtual ns migrations spent holding the per-file write lock.
    pub fn lock_hold_vns(&self) -> u64 {
        self.lock_hold_vns.load(Ordering::Relaxed)
    }

    /// Fault-aborted migrations.
    pub fn aborts(&self) -> u64 {
        self.aborts.load(Ordering::Relaxed)
    }

    /// Aborts that partially committed validated blocks.
    pub fn partial_commits(&self) -> u64 {
        self.partial_commits.load(Ordering::Relaxed)
    }
}

/// How a migration concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationOutcome {
    /// Nothing needed to move (already on the destination / holes only).
    NothingToDo,
    /// Committed optimistically after `retries` conflict-retry rounds.
    Committed {
        /// Conflict-retry rounds that ran before the commit.
        retries: u32,
    },
    /// Committed, but only after falling back to lock-based copying.
    LockFallback,
}

/// Drops replica entries of `[block, block+n)` recorded on `to`: the
/// caller just swung (or replayed) the range's Block Lookup Table
/// ownership onto `to`, so any replica there is now the primary's own
/// tier shadowing itself. The bytes stay — they *are* the primary copy —
/// only the aliasing map entries go. Returns the number of absorbed
/// blocks. Must run under the same state write lock as the BLT swing so
/// no reader observes the shadowed window.
pub(crate) fn absorb_shadowed_replicas(
    st: &mut crate::file::FileState,
    block: u64,
    n: u64,
    to: TierId,
) -> u64 {
    // Clip to the swung window: the extent may extend past it, and the
    // part outside is still a valid replica of an elsewhere-primary.
    let shadowed: Vec<(u64, u64)> = st
        .replicas
        .overlapping(block, n)
        .iter()
        .filter(|e| e.value == to)
        .map(|e| {
            let s = e.start.max(block);
            (s, (e.start + e.len).min(block + n) - s)
        })
        .collect();
    let mut absorbed = 0;
    for (s, l) in shadowed {
        st.replicas.remove(s, l);
        absorbed += l;
    }
    absorbed
}

/// Result of one policy-driven migration pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationSummary {
    /// Plans the policy produced.
    pub planned: usize,
    /// Plans executed (source differed from destination).
    pub executed: usize,
    /// Total blocks moved.
    pub blocks_moved: u64,
    /// Plans that failed (e.g. destination out of space).
    pub failed: usize,
}

impl Mux {
    /// Copies `[block, block+n)` of `file` into tier `to` (no commit).
    /// Returns the number of blocks copied. Copies flow through the I/O
    /// scheduler so seek-bound sources are read in elevator order.
    fn copy_range(&self, file: &MuxFile, block: u64, n: u64, to: TierId) -> VfsResult<u64> {
        let plan = file.state.read().blt.plan(block, n);
        let dst = self.tier(to)?;
        let dst_ino = self.ensure_native(file, to)?;
        let mut copied = 0u64;
        // Queue per-source reads and drain in device order.
        let mut by_tier: Vec<(TierId, Vec<IoRequest>)> = Vec::new();
        // Small enough that a native file system's internal locking
        // never stalls foreground I/O for long; large enough to amortize
        // per-request overheads.
        const COPY_CHUNK: u64 = 256 << 10;
        for seg in &plan {
            if seg.value == to {
                continue;
            }
            // Bound buffer sizes: split large extents into copy chunks.
            let mut off = seg.start * BLOCK;
            let end = (seg.start + seg.len) * BLOCK;
            while off < end {
                let len = COPY_CHUNK.min(end - off);
                let req = IoRequest {
                    ino: file.ino,
                    off,
                    len,
                    write: false,
                    tenant: file.tenant(),
                };
                match by_tier.iter_mut().find(|(t, _)| *t == seg.value) {
                    Some((_, v)) => v.push(req),
                    None => by_tier.push((seg.value, vec![req])),
                }
                off += len;
            }
        }
        for (tier, reqs) in by_tier {
            let src = self.tier(tier)?;
            let src_ino = self.ensure_native(file, tier)?;
            for r in reqs {
                self.sched.submit(tier, r);
            }
            // Determine drain order from the source device class via the
            // registered profile-ish heuristic: seek-bound tiers are
            // elevator-ordered inside the scheduler.
            let profile = match src.config.class {
                simdev::DeviceClass::Hdd => simdev::hdd(),
                simdev::DeviceClass::Ssd => simdev::nvme_ssd(),
                simdev::DeviceClass::CxlSsd => simdev::cxl_ssd(),
                simdev::DeviceClass::Pmem => simdev::pmem(),
            };
            // Drain only this file's requests: concurrent migrations of
            // other files share the per-tier queue, and stealing their
            // requests would leave their copies short (committed holes).
            for r in self.sched.drain_for(tier, &profile, file.ino) {
                let mut buf = vec![0u8; r.len as usize];
                let chunk = if self.health.can_read(tier) {
                    self.tier_io(OpKind::MigrationCopy, tier, || {
                        src.fs.read(src_ino, r.off, &mut buf[..])
                    })
                } else {
                    Err(VfsError::Io(format!("tier {tier} is offline")))
                };
                match chunk {
                    Ok(got) => {
                        // Sparse shorter file: the tail reads as zeros.
                        buf[got..].fill(0);
                    }
                    Err(VfsError::Io(_)) => {
                        // Source is failing: salvage block by block — a
                        // replica can serve blocks the primary cannot,
                        // which is what lets a sick tier be evacuated.
                        for (i, page) in buf.chunks_mut(BLOCK as usize).enumerate() {
                            self.read_block_anyhow(file, tier, r.off / BLOCK + i as u64, page)?;
                        }
                    }
                    Err(e) => return Err(e),
                }
                let wrote = self.tier_io(OpKind::MigrationCopy, to, || {
                    dst.fs.write(dst_ino, r.off, &buf)
                })?;
                if wrote != buf.len() {
                    return Err(VfsError::Io("short migration write".into()));
                }
                copied += r.len / BLOCK;
            }
        }
        Ok(copied)
    }

    /// Punches the moved range out of every source file system. Best
    /// effort: the Block Lookup Table no longer maps these blocks to the
    /// sources, so a failed punch (e.g. a dying source device) only leaves
    /// invisible debris — it must not fail a committed migration.
    fn reclaim_sources(&self, file: &MuxFile, moved: &[(TierId, u64, u64)]) -> VfsResult<()> {
        for &(tier, b0, nb) in moved {
            let handle = self.tier(tier)?;
            if let Some(&nino) = file.state.read().native.get(&tier) {
                let _ = handle.fs.punch_hole(nino, b0 * BLOCK, nb * BLOCK);
            }
        }
        Ok(())
    }

    /// Migrates `[block, block+n)` of file `ino` to tier `to` using the
    /// OCC synchronizer.
    pub fn migrate_range(
        &self,
        ino: MuxIno,
        block: u64,
        n: u64,
        to: TierId,
    ) -> VfsResult<MigrationOutcome> {
        let file = self.get_file(ino)?;
        let dst = self.tier(to)?; // validate destination
        if dst.draining.load(Ordering::Acquire) {
            return Err(VfsError::InvalidArgument(
                "destination tier is being removed".into(),
            ));
        }
        if !self.health.can_write(to) {
            return Err(VfsError::Io(format!(
                "destination tier {to} is {}",
                self.health.state(to).label()
            )));
        }
        // Anything to do?
        let sources: Vec<(TierId, u64, u64)> = file
            .state
            .read()
            .blt
            .plan(block, n)
            .iter()
            .filter(|e| e.value != to)
            .map(|e| (e.value, e.start, e.len))
            .collect();
        if sources.is_empty() {
            return Ok(MigrationOutcome::NothingToDo);
        }
        // One migration at a time per file.
        if file.migrating.swap(true, Ordering::AcqRel) {
            return Err(VfsError::Busy);
        }
        OccStats::bump(&self.occ.migrations, 1);
        self.trace_event(
            TraceEventKind::MigrationBegin,
            to,
            ino,
            block * BLOCK,
            n * BLOCK,
        );
        // Journal the intent before any copy lands in the destination, so
        // crash recovery can tell migration debris from real data.
        self.journal_migration_intent(ino, block, n, to)?;
        let partials_before = self.occ.partial_commits();
        let result = self.migrate_locked_out(&file, block, n, to);
        // The flag is cleared inside commit paths via end_migration; make
        // sure a failure also clears it.
        file.migrating.store(false, Ordering::Release);
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                // Fault-atomic abort: the BLT is authoritative. Any blocks
                // a partial commit swung to `to` get journaled and their
                // source copies reclaimed; everything else on `to` is
                // debris and gets punched. Never lost, never double-owned.
                OccStats::bump(&self.occ.aborts, 1);
                self.trace_event(
                    TraceEventKind::MigrationAbort {
                        partial: self.occ.partial_commits() > partials_before,
                    },
                    to,
                    ino,
                    block * BLOCK,
                    n * BLOCK,
                );
                self.abort_migration_cleanup(&file, block, n, to, &sources);
                return Err(e);
            }
        };
        // The destination is a (possibly new) participant whose native
        // metadata has never seen the collective inode: queue lazy sync.
        file.state.write().meta.mark_stale(to);
        self.journal_migration_commit(ino, block, n, to)?;
        self.reclaim_sources(&file, &sources)?;
        self.note_blocks_moved(sources.iter().map(|s| s.2).sum());
        self.note_meta_mutation();
        Ok(outcome)
    }

    /// The OCC attempt/retry/fallback loop. The migration flag is already
    /// set; `begin_migration`'s dirty window tracks concurrent writers.
    ///
    /// Invariant across rounds: every block of `[block, block+n)` outside
    /// `remaining` has a fresh copy on the destination (any write that
    /// could have staled it was folded into `remaining` by a later
    /// round). Commit therefore validates the *whole* range against the
    /// current dirty window and swings the entire Block Lookup Table
    /// range at once.
    fn migrate_locked_out(
        &self,
        file: &MuxFile,
        block: u64,
        n: u64,
        to: TierId,
    ) -> VfsResult<MigrationOutcome> {
        let cost = &self.opts.cost;
        let mut remaining: Vec<(u64, u64)> = vec![(block, n)];
        let mut retries = 0u32;
        let commit = |file: &MuxFile| {
            let mut st = file.state.write();
            let mapped: Vec<(u64, u64)> = st
                .blt
                .plan(block, n)
                .iter()
                .map(|e| (e.start, e.len))
                .collect();
            for (mb, ml) in mapped {
                st.blt.assign(mb, ml, to);
            }
            let absorbed = absorb_shadowed_replicas(&mut st, block, n, to);
            drop(st);
            if absorbed > 0 {
                crate::stats::MuxStats::add(&self.stats.mirrors_retired, absorbed);
            }
            // Publish into the fast path *after* the BLT swing and
            // *before* reclaim punches the sources: a fast read that
            // raced the swing fails its post-read slot recheck, and no
            // stale mapping survives into the punch window. Only the
            // migrated range changed owner; the rest of the file's
            // mappings stay hot.
            self.fastpath_invalidate_blocks(file.ino, block, n);
        };
        // Partially commits a failed migration's salvage: blocks of the
        // range outside `holes` were copied and validated by earlier
        // rounds (the loop invariant) and their destination copies are
        // durable from those rounds' fsyncs — swing just their BLT
        // entries. Caller holds `io_lock` exclusively.
        let partial_commit = |file: &MuxFile, holes: &[(u64, u64)]| {
            let keep = subtract_ranges(block, n, holes);
            if keep.is_empty() {
                return;
            }
            let mut st = file.state.write();
            let mut swung = false;
            let mut absorbed = 0;
            for &(kb, kl) in &keep {
                let mapped: Vec<(u64, u64)> = st
                    .blt
                    .plan(kb, kl)
                    .iter()
                    .map(|e| (e.start, e.len))
                    .collect();
                for (mb, ml) in mapped {
                    st.blt.assign(mb, ml, to);
                    swung = true;
                }
                absorbed += absorb_shadowed_replicas(&mut st, kb, kl, to);
            }
            drop(st);
            if absorbed > 0 {
                crate::stats::MuxStats::add(&self.stats.mirrors_retired, absorbed);
            }
            if swung {
                OccStats::bump(&self.occ.partial_commits, 1);
                self.fastpath_invalidate_blocks(file.ino, block, n);
            }
        };
        loop {
            file.begin_migration();
            let round: VfsResult<()> = (|| {
                for &(b, l) in &remaining {
                    self.copy_range(file, b, l, to)?;
                }
                // Make the copies durable on the destination before they
                // can become visible through the Block Lookup Table.
                if let Some(&dst_ino) = file.state.read().native.get(&to) {
                    let dst = self.tier(to)?;
                    self.tier_io(OpKind::MigrationCopy, to, || dst.fs.fsync(dst_ino))?;
                }
                Ok(())
            })();
            if let Err(e) = round {
                // Device fault mid-copy: abort this migration cleanly.
                // Blocks still in `remaining` (or dirtied this round)
                // stay owned by their sources; everything else validated
                // in earlier rounds gets committed.
                let io = file.io_lock.write();
                let t0 = self.clock.now_ns();
                let mut holes = remaining.clone();
                holes.extend(file.peek_dirty());
                partial_commit(file, &holes);
                file.end_migration();
                OccStats::bump(&self.occ.lock_hold_vns, self.clock.now_ns() - t0);
                self.lat
                    .record(OpKind::MigrationCommit, to, self.clock.now_ns() - t0);
                drop(io);
                return Err(e);
            }
            self.charge(cost.occ_check_ns);
            // Validate against the whole migrated range: any write during
            // this round staled whatever it touched.
            if !ranges_intersect(&file.peek_dirty(), block, n) {
                // Commit: exclusive instant, recheck, swing the BLT.
                let io = file.io_lock.write();
                let t0 = self.clock.now_ns();
                let dirty = file.peek_dirty();
                if !ranges_intersect(&dirty, block, n) {
                    // The only work on the user-visible critical path: the
                    // revalidation plus the BLT swing.
                    self.charge(cost.occ_check_ns + cost.blt_lookup_ns + cost.meta_update_ns);
                    commit(file);
                    file.end_migration();
                    OccStats::bump(&self.occ.lock_hold_vns, self.clock.now_ns() - t0);
                    self.lat
                        .record(OpKind::MigrationCommit, to, self.clock.now_ns() - t0);
                    drop(io);
                    self.trace_event(
                        TraceEventKind::MigrationValidate { conflicted: false },
                        to,
                        file.ino,
                        block * BLOCK,
                        n * BLOCK,
                    );
                    self.trace_event(
                        TraceEventKind::MigrationCommit { retries },
                        to,
                        file.ino,
                        block * BLOCK,
                        n * BLOCK,
                    );
                    return Ok(MigrationOutcome::Committed { retries });
                }
                OccStats::bump(&self.occ.lock_hold_vns, self.clock.now_ns() - t0);
                self.lat
                    .record(OpKind::MigrationCommit, to, self.clock.now_ns() - t0);
                drop(io);
                // A write slipped in between validate and commit.
            }
            OccStats::bump(&self.occ.conflicts, 1);
            self.trace_event(
                TraceEventKind::MigrationValidate { conflicted: true },
                to,
                file.ino,
                block * BLOCK,
                n * BLOCK,
            );
            // Retry only the conflicted blocks.
            let dirty = file.end_migration();
            remaining = clip_ranges(&dirty, block, n);
            debug_assert!(!remaining.is_empty());
            retries += 1;
            OccStats::bump(&self.occ.retries, 1);
            if retries > self.opts.migration_retries {
                // Lock-based fallback: block writers while re-copying the
                // conflicted remainder, then commit everything.
                OccStats::bump(&self.occ.fallbacks, 1);
                let io = file.io_lock.write();
                let t0 = self.clock.now_ns();
                file.begin_migration();
                let fb: VfsResult<()> = (|| {
                    for &(b, l) in &remaining {
                        self.copy_range(file, b, l, to)?;
                    }
                    if let Some(&dst_ino) = file.state.read().native.get(&to) {
                        let dst = self.tier(to)?;
                        self.tier_io(OpKind::MigrationCopy, to, || dst.fs.fsync(dst_ino))?;
                    }
                    Ok(())
                })();
                match fb {
                    Ok(()) => {
                        commit(file);
                        file.end_migration();
                        OccStats::bump(&self.occ.lock_hold_vns, self.clock.now_ns() - t0);
                        self.lat
                            .record(OpKind::MigrationCommit, to, self.clock.now_ns() - t0);
                        drop(io);
                        self.trace_event(
                            TraceEventKind::MigrationCommit { retries },
                            to,
                            file.ino,
                            block * BLOCK,
                            n * BLOCK,
                        );
                        return Ok(MigrationOutcome::LockFallback);
                    }
                    Err(e) => {
                        // Fault under the lock: no writers ran, so only
                        // `remaining` is unsalvageable.
                        partial_commit(file, &remaining);
                        file.end_migration();
                        OccStats::bump(&self.occ.lock_hold_vns, self.clock.now_ns() - t0);
                        self.lat
                            .record(OpKind::MigrationCommit, to, self.clock.now_ns() - t0);
                        drop(io);
                        return Err(e);
                    }
                }
            }
        }
    }

    /// Migrates `[block, block+n)` holding the file's `io_lock`
    /// exclusively for the *entire* copy — the traditional pessimistic
    /// scheme the OCC ablation compares against. Writers stall for the
    /// whole migration instead of only the commit instant.
    pub fn migrate_range_lock_based(
        &self,
        ino: MuxIno,
        block: u64,
        n: u64,
        to: TierId,
    ) -> VfsResult<MigrationOutcome> {
        let file = self.get_file(ino)?;
        self.tier(to)?;
        let sources: Vec<(TierId, u64, u64)> = file
            .state
            .read()
            .blt
            .plan(block, n)
            .iter()
            .filter(|e| e.value != to)
            .map(|e| (e.value, e.start, e.len))
            .collect();
        if sources.is_empty() {
            return Ok(MigrationOutcome::NothingToDo);
        }
        if file.migrating.swap(true, Ordering::AcqRel) {
            return Err(VfsError::Busy);
        }
        OccStats::bump(&self.occ.migrations, 1);
        OccStats::bump(&self.occ.fallbacks, 1);
        self.trace_event(
            TraceEventKind::MigrationBegin,
            to,
            ino,
            block * BLOCK,
            n * BLOCK,
        );
        self.journal_migration_intent(ino, block, n, to)?;
        let res = {
            let _io = file.io_lock.write();
            let t0 = self.clock.now_ns();
            let res = self.copy_range(&file, block, n, to).and_then(|c| {
                if let Some(&dst_ino) = file.state.read().native.get(&to) {
                    let dst = self.tier(to)?;
                    self.tier_io(OpKind::MigrationCopy, to, || dst.fs.fsync(dst_ino))?;
                }
                Ok(c)
            });
            OccStats::bump(&self.occ.lock_hold_vns, self.clock.now_ns() - t0);
            self.lat
                .record(OpKind::MigrationCommit, to, self.clock.now_ns() - t0);
            if res.is_ok() {
                let mut st = file.state.write();
                let mapped: Vec<(u64, u64)> = st
                    .blt
                    .plan(block, n)
                    .iter()
                    .map(|e| (e.start, e.len))
                    .collect();
                for (mb, ml) in mapped {
                    st.blt.assign(mb, ml, to);
                }
                let absorbed = absorb_shadowed_replicas(&mut st, block, n, to);
                drop(st);
                if absorbed > 0 {
                    crate::stats::MuxStats::add(&self.stats.mirrors_retired, absorbed);
                }
                // Same ordering as the OCC commit: swing, then publish,
                // then (after return) reclaim the sources.
                self.fastpath_invalidate_blocks(file.ino, block, n);
            }
            file.migrating.store(false, Ordering::Release);
            res
        };
        if let Err(e) = res {
            // All-or-nothing under the lock: the BLT was never touched, so
            // everything on the destination is debris.
            OccStats::bump(&self.occ.aborts, 1);
            self.trace_event(
                TraceEventKind::MigrationAbort { partial: false },
                to,
                ino,
                block * BLOCK,
                n * BLOCK,
            );
            self.abort_migration_cleanup(&file, block, n, to, &sources);
            return Err(e);
        }
        file.state.write().meta.mark_stale(to);
        self.trace_event(
            TraceEventKind::MigrationCommit { retries: 0 },
            to,
            ino,
            block * BLOCK,
            n * BLOCK,
        );
        self.journal_migration_commit(ino, block, n, to)?;
        self.reclaim_sources(&file, &sources)?;
        self.note_blocks_moved(sources.iter().map(|s| s.2).sum());
        self.note_meta_mutation();
        Ok(MigrationOutcome::LockFallback)
    }

    /// Best-effort cleanup after a fault-aborted migration. The Block
    /// Lookup Table is authoritative at this point: sub-ranges it maps to
    /// `to` were (partially) committed — journal them and reclaim their
    /// source copies; everything else written to `to` during the failed
    /// copy is invisible debris — punch it. Blocks a concurrent writer
    /// freshly placed on `to` are mapped to `to`, so they are never
    /// punched. Secondary errors (e.g. punching a dead device) are
    /// swallowed: they only leave more invisible debris.
    fn abort_migration_cleanup(
        &self,
        file: &MuxFile,
        block: u64,
        n: u64,
        to: TierId,
        sources: &[(TierId, u64, u64)],
    ) {
        // The BLT may have partially swung before the abort: retire the
        // range's fast-path mappings before any punch below can expose a
        // stale (tier, native ino) pair to a lock-free reader.
        self.fastpath_invalidate_blocks(file.ino, block, n);
        let committed: Vec<(u64, u64)> = file
            .state
            .read()
            .blt
            .plan(block, n)
            .iter()
            .filter(|e| e.value == to)
            .map(|e| (e.start, e.len))
            .collect();
        // 1. Punch destination debris (the range minus committed blocks).
        let debris = subtract_ranges(block, n, &committed);
        if !debris.is_empty() {
            let nino = file.state.read().native.get(&to).copied();
            if let (Ok(handle), Some(nino)) = (self.tier(to), nino) {
                for &(db, dl) in &debris {
                    let _ = handle.fs.punch_hole(nino, db * BLOCK, dl * BLOCK);
                }
            }
        }
        // 2. Journal the committed sub-ranges (recovery must treat them as
        //    real data, not intent debris), then reclaim their now-stale
        //    source copies.
        for &(cb, cl) in &committed {
            let _ = self.journal_migration_commit(file.ino, cb, cl, to);
        }
        for &(src_tier, sb, sl) in sources {
            if src_tier == to {
                continue;
            }
            for &(cb, cl) in &committed {
                let a = cb.max(sb);
                let b = (cb + cl).min(sb + sl);
                if a >= b {
                    continue;
                }
                let nino = file.state.read().native.get(&src_tier).copied();
                if let (Ok(handle), Some(nino)) = (self.tier(src_tier), nino) {
                    let _ = handle.fs.punch_hole(nino, a * BLOCK, (b - a) * BLOCK);
                }
            }
        }
        if !committed.is_empty() {
            file.state.write().meta.mark_stale(to);
            self.note_blocks_moved(committed.iter().map(|c| c.1).sum());
        }
        self.note_meta_mutation();
    }

    /// Counts blocks whose authority switched tiers, in both the OCC
    /// counters and [`crate::MuxStats::blocks_migrated`].
    fn note_blocks_moved(&self, n: u64) {
        OccStats::bump(&self.occ.blocks_moved, n);
        crate::stats::MuxStats::add(&self.stats.blocks_migrated, n);
    }

    /// Mirrors `[block, block+n)` onto tier `to` — the MOST-style deliberate
    /// placement primitive (and still the paper-§4 replication seam). The
    /// Block Lookup Table is unchanged — the primary copy keeps serving
    /// writes — but the replica is recorded and the read path serves
    /// whichever healthy copy is fastest. Fault-atomic: the intent is
    /// journaled before any byte lands on `to`, the replica-map entries are
    /// inserted only after the destination fsync (a snapshot that names a
    /// replica therefore promises a complete durable copy), and the commit
    /// is journaled last — a crash at any point leaves either zero or one
    /// fully-checksummed extra copy, never torn debris (recovery punches
    /// uncommitted mirror bytes). Returns the number of blocks copied.
    pub fn mirror_range(&self, ino: MuxIno, block: u64, n: u64, to: TierId) -> VfsResult<u64> {
        let file = self.get_file(ino)?;
        let dst = self.tier(to)?;
        if dst.draining.load(Ordering::Acquire) {
            return Err(VfsError::InvalidArgument(
                "mirror destination tier is being removed".into(),
            ));
        }
        if !self.health.can_write(to) {
            return Err(VfsError::Io(format!(
                "mirror destination tier {to} is {}",
                self.health.state(to).label()
            )));
        }
        // Mutual exclusion with migrations of the same file: a BLT swing
        // mid-copy could leave the replica shadowing its own primary.
        if file.migrating.swap(true, Ordering::AcqRel) {
            return Err(VfsError::Busy);
        }
        // Journal before any byte can land on the destination, so crash
        // recovery can tell mirror debris from real data.
        let result = self
            .journal_mirror_intent(ino, block, n, to)
            .and_then(|()| self.mirror_copy(&file, block, n, to));
        file.migrating.store(false, Ordering::Release);
        let copied = match result {
            Ok(c) => c,
            Err(e) => {
                self.unwind_mirror_debris(&file, block, n, to);
                return Err(e);
            }
        };
        if copied > 0 {
            // Re-resolve the range: fast-path readers should reconsider
            // which copy is fastest now that a second one exists.
            self.fastpath_invalidate_blocks(ino, block, n);
            crate::stats::MuxStats::add(&self.stats.mirrors_created, copied);
        }
        self.journal_mirror_commit(ino, block, n, to)?;
        self.note_meta_mutation();
        Ok(copied)
    }

    /// The copy body of [`Mux::mirror_range`]: excludes writers for the
    /// duration (mirroring is a paced background job, not a hot path),
    /// copies every block of the range that has no copy on `to` yet,
    /// CRC-verifies the source bytes, fsyncs the destination, and only then
    /// records the replica extents.
    fn mirror_copy(&self, file: &MuxFile, block: u64, n: u64, to: TierId) -> VfsResult<u64> {
        let _io = file.io_lock.write();
        // Blocks that already have a copy on `to` — as primary or as an
        // already-recorded replica — are skipped (and never punched by the
        // error path).
        let todo: Vec<(u64, u64, TierId)> = {
            let st = file.state.read();
            let covered: Vec<(u64, u64)> = st
                .replicas
                .overlapping(block, n)
                .iter()
                .filter(|e| e.value == to)
                .map(|e| (e.start, e.len))
                .collect();
            let mut todo = Vec::new();
            for (s, l) in subtract_ranges(block, n, &covered) {
                for seg in st.blt.plan(s, l) {
                    if seg.value != to {
                        todo.push((seg.start, seg.len, seg.value));
                    }
                }
            }
            todo
        };
        if todo.is_empty() {
            return Ok(0);
        }
        let dst = self.tier(to)?;
        let dst_ino = self.ensure_native(file, to)?;
        let mut copied = 0u64;
        for &(s0, l0, src_tier) in &todo {
            let src = self.tier(src_tier)?;
            let src_ino = self.ensure_native(file, src_tier)?;
            let mut off = s0 * BLOCK;
            let end = (s0 + l0) * BLOCK;
            while off < end {
                let len = (4u64 << 20).min(end - off);
                let mut buf = vec![0u8; len as usize];
                let got = self.tier_io(OpKind::MigrationCopy, src_tier, || {
                    src.fs.read(src_ino, off, &mut buf[..])
                })?;
                buf[got..].fill(0);
                // The replica is the repair source for the read path and
                // the scrubber — mirroring silently-rotted source data
                // would defeat both. Verify every trusted block before it
                // is copied, and abort the job on a mismatch rather than
                // propagate bad bytes.
                if self.opts.integrity.checksums {
                    for b in off / BLOCK..(off + len) / BLOCK {
                        let s = ((b - off / BLOCK) * BLOCK) as usize;
                        let actual = crate::integrity::crc32c(&buf[s..s + BLOCK as usize]);
                        let outcome = file.state.write().checksums.verify(b, actual);
                        if let crate::integrity::VerifyOutcome::Mismatch { expected, actual } =
                            outcome
                        {
                            crate::stats::MuxStats::add(&self.stats.corruptions_detected, 1);
                            self.trace_event(
                                TraceEventKind::CorruptionDetected { expected, actual },
                                src_tier,
                                file.ino,
                                b * BLOCK,
                                BLOCK,
                            );
                            self.health.record_corruption(src_tier);
                            return Err(VfsError::corrupt_at(
                                format!(
                                    "refusing to mirror block {b}: source copy on \
                                     tier {src_tier} failed CRC-32C verification"
                                ),
                                src_tier,
                                file.ino,
                                b * BLOCK,
                            ));
                        }
                    }
                }
                self.tier_io(OpKind::MigrationCopy, to, || {
                    dst.fs.write(dst_ino, off, &buf)
                })?;
                off += len;
            }
            copied += l0;
        }
        // Durable before visible: the replica map may be snapshotted the
        // instant it is updated, and a snapshot that names a replica
        // promises a complete on-device copy.
        self.tier_io(OpKind::MigrationCopy, to, || dst.fs.fsync(dst_ino))?;
        {
            let mut st = file.state.write();
            for &(s0, l0, _) in &todo {
                st.replicas.insert(s0, l0, to);
            }
        }
        for &(s0, l0, src_tier) in &todo {
            self.trace_event(
                TraceEventKind::MirrorCreated { primary: src_tier },
                to,
                file.ino,
                s0 * BLOCK,
                l0 * BLOCK,
            );
        }
        Ok(copied)
    }

    /// Best-effort cleanup after a failed mirror copy: punch everything the
    /// copy may have written to `to` — the range minus blocks the BLT maps
    /// to `to` and minus previously-committed replica extents (nothing from
    /// the failed attempt was recorded, so every recorded extent predates
    /// it). Secondary errors are swallowed: they only leave invisible
    /// debris that recovery or a later mirror overwrites.
    fn unwind_mirror_debris(&self, file: &MuxFile, block: u64, n: u64, to: TierId) {
        let (keep, nino) = {
            let st = file.state.read();
            let mut keep: Vec<(u64, u64)> = st
                .blt
                .plan(block, n)
                .iter()
                .filter(|s| s.value == to)
                .map(|s| (s.start, s.len))
                .collect();
            keep.extend(
                st.replicas
                    .overlapping(block, n)
                    .iter()
                    .filter(|e| e.value == to)
                    .map(|e| (e.start, e.len)),
            );
            (keep, st.native.get(&to).copied())
        };
        if let (Ok(handle), Some(nino)) = (self.tier(to), nino) {
            for (db, dl) in subtract_ranges(block, n, &keep) {
                let _ = handle.fs.punch_hole(nino, db * BLOCK, dl * BLOCK);
            }
        }
    }

    /// Retires the replicas of `[block, block+n)` that live on tier `to`:
    /// journals the retirement (recovery replays against the last
    /// snapshot's replica map, which may still record them), removes the
    /// replica extents, punches the backing blocks the BLT does not own,
    /// and invalidates the range's fast-path mappings on `to` only — the
    /// primary's stay hot. Returns the number of replica blocks retired.
    pub fn unmirror_range(&self, ino: MuxIno, block: u64, n: u64, to: TierId) -> VfsResult<u64> {
        let file = self.get_file(ino)?;
        let victims: Vec<(u64, u64)> = file
            .state
            .read()
            .replicas
            .overlapping(block, n)
            .iter()
            .filter(|e| e.value == to)
            .map(|e| (e.start, e.len))
            .collect();
        if victims.is_empty() {
            return Ok(0);
        }
        // Journal before any state change: a crash after the punch below
        // must not resurrect the replica entry from the older snapshot.
        self.journal_unmirror(ino, block, n, to)?;
        {
            let mut st = file.state.write();
            for &(s, l) in &victims {
                st.replicas.remove(s, l);
            }
        }
        // Tier-filtered invalidation *before* the punch: a lock-free reader
        // must never hold a mapping onto bytes the punch is reclaiming.
        self.fastpath_invalidate_blocks_tier(ino, block, n, to);
        let (owned, nino) = {
            let st = file.state.read();
            let owned: Vec<(u64, u64)> = st
                .blt
                .plan(block, n)
                .iter()
                .filter(|s| s.value == to)
                .map(|s| (s.start, s.len))
                .collect();
            (owned, st.native.get(&to).copied())
        };
        if let (Ok(handle), Some(nino)) = (self.tier(to), nino) {
            for &(vb, vl) in &victims {
                for (db, dl) in subtract_ranges(vb, vl, &owned) {
                    let _ = handle.fs.punch_hole(nino, db * BLOCK, dl * BLOCK);
                }
            }
        }
        let retired: u64 = victims.iter().map(|v| v.1).sum();
        crate::stats::MuxStats::add(&self.stats.mirrors_retired, retired);
        for &(vb, vl) in &victims {
            self.trace_event(
                TraceEventKind::MirrorRetired,
                to,
                ino,
                vb * BLOCK,
                vl * BLOCK,
            );
        }
        self.note_meta_mutation();
        Ok(retired)
    }

    /// Migrates an entire file to `to`.
    pub fn migrate_file(&self, ino: MuxIno, to: TierId) -> VfsResult<MigrationOutcome> {
        let file = self.get_file(ino)?;
        let end = file.state.read().blt.end();
        if end == 0 {
            return Ok(MigrationOutcome::NothingToDo);
        }
        self.migrate_range(ino, 0, end, to)
    }

    /// Snapshot of every file's block placement, sorted by inode — the
    /// input of the autotier planner ([`crate::Mux::maintenance_tick`]).
    pub(crate) fn file_views(&self) -> Vec<FileView> {
        let mut files: Vec<FileView> = Vec::new();
        self.files.for_each(|_, f| {
            let st = f.state.read();
            files.push(FileView {
                ino: f.ino,
                extents: st
                    .blt
                    .extents()
                    .iter()
                    .map(|e| (e.start, e.len, e.value))
                    .collect(),
                replicas: st
                    .replicas
                    .iter()
                    .map(|e| (e.start, e.len, e.value))
                    .collect(),
            });
        });
        // Shard iteration order is hash-dependent; sort so policy plans
        // (and the virtual-time costs of executing them) are deterministic.
        files.sort_unstable_by_key(|f| f.ino);
        files
    }

    /// Drains every block off a (typically sick) tier onto the healthiest
    /// writable tiers, reusing the OCC migrator — the graceful-degradation
    /// sweep to run after a circuit breaker trips `ReadOnly`. Unlike
    /// [`Mux::remove_tier`] the tier stays registered (it may be reset via
    /// [`crate::HealthRegistry::reset`] and re-admitted later), and
    /// per-range failures are tallied in the summary instead of aborting
    /// the sweep — under live faults some ranges may only move on a later
    /// attempt (or from their replicas).
    pub fn evacuate_tier(&self, tier: TierId) -> VfsResult<MigrationSummary> {
        self.tier(tier)?;
        let mut summary = MigrationSummary::default();
        let mut inos: Vec<MuxIno> = self.files.keys();
        inos.sort_unstable();
        for ino in inos {
            let Ok(file) = self.get_file(ino) else {
                continue;
            };
            let on_tier: Vec<(u64, u64)> = file
                .state
                .read()
                .blt
                .extents()
                .iter()
                .filter(|e| e.value == tier)
                .map(|e| (e.start, e.len))
                .collect();
            for (b, l) in on_tier {
                summary.planned += 1;
                let Ok(dest) = self.healthiest_writable_tier(l * BLOCK, Some(tier)) else {
                    summary.failed += 1;
                    continue;
                };
                match self.migrate_range(ino, b, l, dest) {
                    Ok(MigrationOutcome::NothingToDo) => {}
                    Ok(_) => {
                        summary.executed += 1;
                        summary.blocks_moved += l;
                    }
                    Err(_) => summary.failed += 1,
                }
            }
        }
        Ok(summary)
    }

    /// Removes a tier: drains every block off it, then drops the handle.
    /// "To remove a device, data must be migrated first" (§2.1).
    pub fn remove_tier(&self, tier: TierId) -> VfsResult<()> {
        let handle = self.tier(tier)?;
        handle.draining.store(true, Ordering::Release);
        // Destination: the policy's choice among remaining tiers, per file.
        let remaining = self.tier_status();
        if remaining.is_empty() {
            handle.draining.store(false, Ordering::Release);
            return Err(VfsError::Busy);
        }
        let mut inos: Vec<MuxIno> = self.files.keys();
        inos.sort_unstable();
        for ino in inos {
            let file = match self.get_file(ino) {
                Ok(f) => f,
                Err(_) => continue,
            };
            let on_tier: Vec<(u64, u64)> = file
                .state
                .read()
                .blt
                .extents()
                .iter()
                .filter(|e| e.value == tier)
                .map(|e| (e.start, e.len))
                .collect();
            for (b, l) in on_tier {
                // Place per the policy, excluding the draining tier
                // (tier_status already filters it).
                let policy = self.policy.read().clone();
                let dest = policy.place(&crate::policy::PlacementCtx {
                    ino,
                    off: b * BLOCK,
                    len: l * BLOCK,
                    file_size: file.state.read().meta.attr.size,
                    is_append: false,
                    sync: false,
                    tiers: &remaining,
                    heat: self.autotier.heat.score(ino),
                });
                if dest == tier {
                    handle.draining.store(false, Ordering::Release);
                    return Err(VfsError::InvalidArgument(
                        "policy keeps placing on the draining tier".into(),
                    ));
                }
                if let Err(e) = self.migrate_range(ino, b, l, dest) {
                    handle.draining.store(false, Ordering::Release);
                    return Err(e);
                }
            }
            // Forget the native handle on the drained tier.
            file.state.write().native.remove(&tier);
        }
        // Every fast-path mapping referencing the drained tier's native
        // inodes is now dead; the migrations above invalidated per file,
        // but an epoch bump retires any straggler wholesale.
        self.fastpath_epoch_bump();
        // Keep the slot (ids are indexes) but mark it permanently drained.
        Ok(())
    }
}
