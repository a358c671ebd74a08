//! The client: set-up, the closed loop, counters and the final read-back.

use std::collections::BTreeMap;
use std::time::Instant;

use tvfs::{FileType, InodeNo, VfsError, ROOT_INO};

use crate::oracle::Oracle;
use crate::span;
use crate::stack::Stack;
use crate::workload::{Gen, Op, Spec};

/// A stack after set-up, with the model of what it holds.
pub struct Client {
    stack: Stack,
    gen: Gen,
    oracle: Oracle,
    /// Native ino of each file uid (0: never created or create failed).
    inos: Vec<InodeNo>,
    wd: InodeNo,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    seq: u64,
    /// Virtual ns the client itself let pass (tier-shift's epoch waits).
    idle_ns: u64,
}

/// What one op did.
struct Outcome {
    ok: bool,
    /// The error variant, when the call returned `Err`.
    err: Option<String>,
    /// Wrong output returned as success, described.
    wrong: Option<String>,
    host_ns: u64,
    virt_ns: u64,
    bytes_read: u64,
    bytes_written: u64,
    fastpath_hit: bool,
}

/// Everything the timed phase measured.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    /// Generator steps taken, ticks included.
    pub steps: u64,
    /// Client ops issued (ticks excluded).
    pub ops: u64,
    /// Ops that returned `Err`.
    pub errors: u64,
    /// `Err`s by op kind and error variant.
    pub error_kinds: BTreeMap<String, u64>,
    /// Ops that returned wrong output as success.
    pub wrong: u64,
    /// The first wrong output, described.
    pub first_wrong: Option<String>,
    /// Host ns spent inside calls into the system, ticks included.
    pub call_ns: u64,
    /// Host latency samples per op kind, ns.
    pub host: BTreeMap<&'static str, Vec<u64>>,
    /// Virtual latency samples per op kind, ns.
    pub virt: BTreeMap<&'static str, Vec<u64>>,
    /// Host latency of the reads during which the fast-path hit count rose.
    pub hit_host: Vec<u64>,
    /// Host latency of every client op in issue order, ticks excluded, ns.
    pub op_host: Vec<u64>,
    /// User bytes read so far.
    pub bytes_read: u64,
    /// User bytes written so far.
    pub bytes_written: u64,
    /// Virtual elapsed time of the timed phase, client waits excluded.
    pub virt_elapsed_ns: u64,
    /// Counter deltas over the timed phase.
    pub counters: BTreeMap<String, u64>,
    /// Bytes in use per native file system at the end.
    pub used: BTreeMap<&'static str, u64>,
    /// Live user bytes at the end.
    pub live_bytes: u64,
    /// Hot-set blocks sampled on a non-HDD tier, and sampled in all.
    pub hot_fast: (u64, u64),
    /// Traced run: per-op-kind span totals and per-layer span counts.
    pub spans: Option<span::Recording>,
    /// Metafile intent-log bytes written (traced run).
    pub journal_bytes: u64,
    /// Native calls the traced run could not attribute to a client op.
    pub stray_calls: u64,
    /// Read-back: reads issued, `Err`s, wrong outputs.
    pub readback: (u64, u64, u64),
}

impl Measured {
    /// The virtual-plane results and counters, which must repeat exactly
    /// for the same op stream whatever the host did.
    pub fn fingerprint(&self) -> BTreeMap<String, u64> {
        let mut f = self.counters.clone();
        for (k, v) in &self.virt {
            f.insert(format!("virt.{k}.n"), v.len() as u64);
            f.insert(format!("virt.{k}.sum"), v.iter().sum());
            f.insert(
                format!("virt.{k}.hash"),
                v.iter()
                    .fold(0u64, |h, &x| h.rotate_left(5) ^ x.wrapping_mul(0x9E37_79B9)),
            );
        }
        f.insert("steps".into(), self.steps);
        f.insert("errors".into(), self.errors);
        for (k, v) in &self.error_kinds {
            f.insert(format!("errors.{k}"), *v);
        }
        f.insert("bytes_read".into(), self.bytes_read);
        f.insert("bytes_written".into(), self.bytes_written);
        f.insert("virt_elapsed_ns".into(), self.virt_elapsed_ns);
        f.insert("live_bytes".into(), self.live_bytes);
        for (k, v) in &self.used {
            f.insert(format!("used.{k}"), *v);
        }
        f
    }
}

fn fs_err(e: impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

/// The variant name of an error, e.g. `Corrupt`.
fn variant(e: &VfsError) -> String {
    let s = format!("{e:?}");
    s.split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or_default()
        .to_string()
}

impl Outcome {
    fn fail(&mut self, e: &VfsError) {
        self.ok = false;
        self.err = Some(variant(e));
    }
}

impl Client {
    /// Builds the stack and runs the prefill (untimed).
    pub fn setup(spec: Spec, seed: u64, traced: bool) -> Result<Client, String> {
        let stack = spec.build(traced);
        let wd = match spec.workdir() {
            None => ROOT_INO,
            Some(name) => {
                stack
                    .fs
                    .create(ROOT_INO, name, FileType::Directory, 0o755)
                    .map_err(fs_err)?
                    .ino
            }
        };
        let mut c = Client {
            stack,
            gen: Gen::new(spec, seed),
            oracle: Oracle::new(seed),
            inos: Vec::new(),
            wd,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            seq: 0,
            idle_ns: 0,
        };
        for op in c.gen.prefill() {
            let out = c.exec(op);
            if !out.ok || out.wrong.is_some() {
                return Err(format!("prefill op {op:?} failed: {:?}", out.wrong));
            }
        }
        Ok(c)
    }

    fn name(f: u32) -> String {
        format!("f{f}")
    }

    fn ino(&self, f: u32) -> InodeNo {
        self.inos.get(f as usize).copied().unwrap_or(0)
    }

    fn fastpath_hits(&self) -> u64 {
        self.stack
            .muxes
            .iter()
            .map(|m| {
                m.stats()
                    .fastpath_hits
                    .load(std::sync::atomic::Ordering::Relaxed)
            })
            .sum()
    }

    /// Runs one op inside a root span, the call itself inside a child span.
    fn exec(&mut self, op: Op) -> Outcome {
        let root = span::root();
        if self.stack.cluster.is_some() {
            // Each op comes from the next of the client's streams, which
            // enter the cluster through the nodes in turn.
            cluster::set_thread_home(self.seq as usize % self.stack.muxes.len());
        }
        self.seq += 1;
        let mut out = Outcome {
            ok: true,
            err: None,
            wrong: None,
            host_ns: 0,
            virt_ns: 0,
            bytes_read: 0,
            bytes_written: 0,
            fastpath_hit: false,
        };
        let fs = self.stack.fs.clone();
        macro_rules! timed {
            ($layer:expr, $call:expr) => {{
                let v0 = self.stack.vnow();
                let h0 = Instant::now();
                let r = {
                    let _s = span::enter($layer);
                    $call
                };
                out.host_ns = h0.elapsed().as_nanos() as u64;
                out.virt_ns = self.stack.vnow() - v0;
                r
            }};
        }
        match op {
            Op::Read { f, off, len } => {
                let ino = self.ino(f);
                let mut buf = std::mem::take(&mut self.rbuf);
                buf.resize(len as usize, 0);
                let hits = self.fastpath_hits();
                let r = timed!("mux", fs.read(ino, off, &mut buf));
                out.fastpath_hit = self.fastpath_hits() > hits;
                match r {
                    Ok(n) => {
                        out.bytes_read = n as u64;
                        let want = self.oracle.expected_len(f, off, len as usize);
                        if self.oracle.is_known(f) && n != want {
                            out.wrong =
                                Some(format!("read f{f}@{off}+{len}: {n} bytes, expected {want}"));
                        } else if let Err(m) = self.oracle.check(f, off, &buf[..n]) {
                            out.wrong = Some(format!("read f{f}@{off}+{len}: {m:?}"));
                        }
                    }
                    Err(e) => out.fail(&e),
                }
                self.rbuf = buf;
            }
            Op::Write { f, off, len } => {
                let ino = self.ino(f);
                let mut data = std::mem::take(&mut self.wbuf);
                data.resize(len as usize, 0);
                self.oracle.write(f, off, &mut data);
                let r = timed!("mux", fs.write(ino, off, &data));
                match r {
                    Ok(n) if n == len as usize => out.bytes_written = n as u64,
                    Ok(n) => {
                        out.ok = false;
                        out.err = Some(format!("ShortWrite{n}"));
                        self.oracle.forget(f);
                    }
                    Err(e) => {
                        out.fail(&e);
                        self.oracle.forget(f);
                    }
                }
                self.wbuf = data;
            }
            Op::Fsync { f } => {
                let ino = self.ino(f);
                if let Err(e) = timed!("mux", fs.fsync(ino)) {
                    out.fail(&e);
                }
            }
            Op::Create { f } => {
                let name = Self::name(f);
                let r = timed!("mux", fs.create(self.wd, &name, FileType::Regular, 0o644));
                if self.inos.len() <= f as usize {
                    self.inos.resize(f as usize + 1, 0);
                }
                self.oracle.create(f);
                match r {
                    Ok(attr) => self.inos[f as usize] = attr.ino,
                    Err(e) => {
                        out.fail(&e);
                        self.oracle.forget(f);
                    }
                }
            }
            Op::Unlink { f } => {
                let name = Self::name(f);
                if let Err(e) = timed!("mux", fs.unlink(self.wd, &name)) {
                    out.fail(&e);
                }
                self.oracle.unlink(f);
                self.inos[f as usize] = 0;
            }
            Op::Stat { f } => {
                let ino = self.ino(f);
                match timed!("mux", fs.getattr(ino)) {
                    Ok(attr) => {
                        let want = self.oracle.size(f);
                        if self.oracle.is_known(f) && attr.size != want {
                            out.wrong =
                                Some(format!("stat f{f}: size {}, expected {want}", attr.size));
                        }
                    }
                    Err(e) => out.fail(&e),
                }
            }
            Op::Tick => {
                let m = self.stack.muxes[0].clone();
                let epoch_ns = mux::AutotierConfig::default().epoch_ns;
                self.stack.clocks[0].advance(epoch_ns);
                self.idle_ns += epoch_ns;
                timed!("autotier", m.maintenance_tick());
            }
        }
        drop(root);
        span::finish_op(op.kind());
        out
    }

    /// Every counter the per-layer metrics are derived from.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut c: BTreeMap<String, u64> = BTreeMap::new();
        let mut add = |k: &str, v: u64| *c.entry(k.to_string()).or_default() += v;
        for (i, m) in self.stack.muxes.iter().enumerate() {
            let s = m.stats().snapshot();
            for (k, v) in [
                ("reads", s.reads),
                ("writes", s.writes),
                ("dispatches", s.dispatches),
                ("split_reads", s.split_reads),
                ("split_writes", s.split_writes),
                ("io_retries", s.io_retries),
                ("io_errors", s.io_errors),
                ("blocks_migrated", s.blocks_migrated),
                ("fastpath_hits", s.fastpath_hits),
                ("fastpath_fallbacks", s.fastpath_fallbacks),
                ("fastpath_invalidations", s.fastpath_invalidations),
                ("corruptions_detected", s.corruptions_detected),
                ("corruptions_repaired", s.corruptions_repaired),
                ("scrub_blocks_verified", s.scrub_blocks_verified),
                ("auto_promotions", s.auto_promotions),
                ("auto_demotions", s.auto_demotions),
                ("mirrors_created", s.mirrors_created),
                ("planner_vetoes", s.planner_vetoes),
                ("throttled_bytes", s.throttled_bytes),
            ] {
                add(&format!("mux.{k}"), v);
            }
            if self.stack.cluster.is_some() {
                add(&format!("node{i}.ops"), s.reads + s.writes);
            }
            let o = m.occ_stats();
            let (migrations, conflicts, retries, fallbacks, moved) = o.snapshot();
            let aborts = o.aborts.load(std::sync::atomic::Ordering::Relaxed);
            for (k, v) in [
                ("migrations", migrations),
                ("conflicts", conflicts),
                ("retries", retries),
                ("fallbacks", fallbacks),
                ("blocks_moved", moved),
                ("aborts", aborts),
                ("lock_hold_vns", o.lock_hold_vns()),
            ] {
                add(&format!("occ.{k}"), v);
            }
        }
        for (tag, d) in &self.stack.devices {
            let s = d.stats().snapshot();
            for (k, v) in [
                ("busy_ns", s.busy_ns),
                ("bytes_read", s.bytes_read),
                ("bytes_written", s.bytes_written),
                ("flushes", s.flushes),
                ("seeks", s.seeks),
            ] {
                add(&format!("dev.{tag}.{k}"), v);
            }
        }
        if let Some(cl) = &self.stack.cluster {
            let s = cl.stats().snapshot();
            add("cluster.routed_local", s.routed_local);
            add("cluster.routed_remote", s.routed_remote);
            add("cluster.rpc_failures", s.rpc_failures);
            for l in cl.link_reports() {
                add("link.bytes", l.stats.bytes());
                add("link.messages", l.stats.messages());
                add("link.dropped_messages", l.stats.dropped_messages);
                add("link.busy_ns", l.busy_ns);
            }
        }
        c
    }

    /// Share of the current hot set's blocks on a non-HDD tier, as
    /// (on fast tiers, sampled).
    fn sample_hot_set(&self) -> (u64, u64) {
        let m = &self.stack.muxes[0];
        let hdd: Vec<_> = m
            .tier_status()
            .into_iter()
            .filter(|t| t.class == simdev::DeviceClass::Hdd)
            .map(|t| t.id)
            .collect();
        let mut placement: BTreeMap<u32, Vec<(u64, u64, u32)>> = BTreeMap::new();
        let (mut fast, mut all) = (0, 0);
        for (f, off) in self.gen.hot_blocks() {
            let ext = placement
                .entry(f)
                .or_insert_with(|| m.file_placement(self.ino(f)).unwrap_or_default());
            let blk = off / crate::oracle::BLOCK;
            if let Some(&(_, _, t)) = ext.iter().find(|&&(s, n, _)| s <= blk && blk < s + n) {
                all += 1;
                if !hdd.contains(&t) {
                    fast += 1;
                }
            }
        }
        (fast, all)
    }

    /// The timed phase of `steps` generator steps (ticks included), then
    /// a sync and the untimed read-back of every live file.
    pub fn run(&mut self, steps: u64, traced: bool) -> Measured {
        let mut m = Measured::default();
        // The metafile intent log, found through `tier_fs(0)`. The lookup
        // charges virtual time, so both runs make it, before the base.
        let intents = self.stack.muxes[0]
            .tier_fs(0)
            .and_then(|fs| fs.lookup(ROOT_INO, ".mux.intents"))
            .map_or(u64::MAX, |a| a.ino);
        if let (true, Some(t)) = (traced, self.stack.timed.first()) {
            t.watch(intents);
        }
        let counters0 = self.counters();
        let vnow0 = self.stack.vnow();
        let cluster0 = self.stack.cluster.as_ref().map(|c| c.instant());
        let idle0 = self.idle_ns;
        if traced {
            span::start();
            self.stack.arm_timed(true);
        }
        let start = Instant::now();
        while m.steps < steps {
            let op = self.gen.next_op();
            m.steps += 1;
            let out = self.exec(op);
            m.call_ns += out.host_ns;
            let kind = op.kind();
            m.host.entry(kind).or_default().push(out.host_ns);
            m.virt.entry(kind).or_default().push(out.virt_ns);
            if op == Op::Tick {
                if traced {
                    // The sampling is the benchmark's own (`tier_status`
                    // calls `statfs`), not a client op's: not stray.
                    self.stack.arm_timed(false);
                    let (f, a) = self.sample_hot_set();
                    self.stack.arm_timed(true);
                    m.hot_fast.0 += f;
                    m.hot_fast.1 += a;
                }
                continue;
            }
            m.ops += 1;
            m.op_host.push(out.host_ns);
            m.errors += u64::from(!out.ok);
            if let Some(e) = out.err {
                *m.error_kinds.entry(format!("{kind}:{e}")).or_default() += 1;
            }
            if let Some(w) = out.wrong {
                m.wrong += 1;
                m.first_wrong.get_or_insert(w);
            }
            if out.fastpath_hit {
                m.hit_host.push(out.host_ns);
            }
            m.bytes_read += out.bytes_read;
            m.bytes_written += out.bytes_written;
        }
        if traced {
            self.stack.arm_timed(false);
            m.stray_calls = self.stack.timed.iter().map(|t| t.stray_calls()).sum();
            m.spans = Some(span::stop());
            m.journal_bytes = self.stack.timed.first().map_or(0, |t| t.watched_bytes());
        }
        m.virt_elapsed_ns = match (&self.stack.cluster, &cluster0) {
            (Some(c), Some(t0)) => c.elapsed_since(t0),
            _ => self.stack.vnow() - vnow0 - (self.idle_ns - idle0),
        };
        m.counters = self
            .counters()
            .into_iter()
            .map(|(k, v)| {
                let d = v - counters0.get(&k).copied().unwrap_or(0);
                (k, d)
            })
            .collect();
        for (layer, u) in self.stack.used_bytes() {
            *m.used.entry(layer).or_default() += u;
        }
        m.live_bytes = self.oracle.live_bytes();
        let loop_s = start.elapsed().as_secs_f64();
        let t_rb = Instant::now();
        // Reading dirty data back through 256 KiB page caches is very slow
        // on the host (see README.md), so the read-back follows a sync.
        let synced = self.stack.fs.sync();
        m.readback = self.read_back(&mut m.error_kinds);
        if let Err(e) = synced {
            m.readback.1 += 1;
            *m.error_kinds
                .entry(format!("sync:{}", variant(&e)))
                .or_default() += 1;
        }
        eprintln!(
            "timed loop {loop_s:.2} s, sync and read-back {:.2} s",
            t_rb.elapsed().as_secs_f64()
        );
        m
    }

    /// Reads every live file back in full and checks it; returns (reads,
    /// errors, wrong outputs) and tallies errors into `kinds`. Untimed.
    fn read_back(&mut self, kinds: &mut BTreeMap<String, u64>) -> (u64, u64, u64) {
        const CHUNK: u64 = 1 << 22;
        if self.stack.cluster.is_some() {
            cluster::set_thread_home(0);
        }
        let (mut reads, mut errors, mut wrong) = (0, 0, 0);
        let mut buf = vec![0u8; CHUNK as usize];
        for f in self.oracle.live_uids() {
            let size = self.oracle.size(f);
            let ino = self.ino(f);
            let mut off = 0;
            while off < size {
                let len = (size - off).min(CHUNK) as usize;
                reads += 1;
                match self.stack.fs.read(ino, off, &mut buf[..len]) {
                    Ok(n) => {
                        let bad = self.oracle.is_known(f) && n != len;
                        if bad || self.oracle.check(f, off, &buf[..n]).is_err() {
                            wrong += 1;
                        }
                    }
                    Err(e) => {
                        errors += 1;
                        *kinds
                            .entry(format!("readback:{}", variant(&e)))
                            .or_default() += 1;
                    }
                }
                off += len as u64;
            }
        }
        (reads, errors, wrong)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::NAMES;

    fn run(name: &str, seed: u64, traced: bool, steps: u64) -> Measured {
        let spec = Spec::small(name).unwrap();
        let mut c = Client::setup(spec, seed, traced).unwrap();
        c.run(steps, traced)
    }

    fn steps(name: &str) -> u64 {
        // tier-shift: enough for several ticks and one hot-set shift.
        if name == "tier-shift" {
            1_500
        } else {
            3_000
        }
    }

    #[test]
    fn same_seed_repeats_the_virtual_plane_exactly() {
        for name in NAMES {
            let a = run(name, 7, false, steps(name));
            let b = run(name, 7, false, steps(name));
            assert_eq!(a.fingerprint(), b.fingerprint(), "{name}");
            assert_eq!(a.wrong + a.readback.2, 0, "{name}: {:?}", a.first_wrong);
        }
    }

    #[test]
    fn traced_run_matches_the_untraced_run() {
        for name in NAMES {
            let plain = run(name, 3, false, steps(name));
            let traced = run(name, 3, true, steps(name));
            assert_eq!(plain.fingerprint(), traced.fingerprint(), "{name}");
            let (kinds, calls) = traced.spans.as_ref().unwrap();
            assert!(calls["novafs"] > 0, "{name}: no native spans");
            assert_eq!(traced.stray_calls, 0, "{name}");
            for (kind, t) in kinds {
                let sum: u64 = t.self_ns.values().sum();
                assert_eq!(sum, t.root_ns, "{name}/{kind}");
            }
        }
    }

    #[test]
    fn another_seed_changes_the_run() {
        for name in NAMES {
            let a = run(name, 1, false, steps(name));
            let b = run(name, 2, false, steps(name));
            assert_ne!(a.fingerprint(), b.fingerprint(), "{name}");
        }
    }

    #[test]
    fn tier_shift_migrates_and_samples_its_hot_set() {
        let m = run("tier-shift", 5, true, steps("tier-shift"));
        assert!(m.counters["occ.blocks_moved"] > 0);
        assert!(m.hot_fast.1 > 0);
        assert!(m.host["tick"].len() >= 5);
    }
}
