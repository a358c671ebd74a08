//! The four workloads: sizes, stacks and seed-driven op generators.
//!
//! Every workload is a closed loop with one client thread: the next op is
//! issued only after the previous one returned. The op stream depends on
//! the seed alone, never on what the system returned, so a run can be
//! replayed op for op.

use std::collections::VecDeque;
use std::sync::Arc;

use mux::{LruPolicy, PinnedPolicy};
use workloads::Zipfian;

use crate::oracle::BLOCK;
use crate::stack::{Stack, ThreeTier};

const MIB: u64 = 1 << 20;

/// Every workload's name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["zipf-read", "mail-spool", "tier-shift", "cluster-mix"];

/// One client op. Files are named by a uid that is never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read `len` bytes at `off`.
    Read { f: u32, off: u64, len: u32 },
    /// Write `len` bytes at `off`.
    Write { f: u32, off: u64, len: u32 },
    /// `fsync` the file.
    Fsync { f: u32 },
    /// Create the file (empty) in the working directory.
    Create { f: u32 },
    /// Unlink the file.
    Unlink { f: u32 },
    /// `getattr` the file.
    Stat { f: u32 },
    /// Advance the clock by one autotier epoch and run `maintenance_tick`.
    Tick,
}

impl Op {
    /// The op kind, as metrics and spans name it.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Read { .. } => "read",
            Op::Write { .. } => "write",
            Op::Fsync { .. } => "fsync",
            Op::Create { .. } => "create",
            Op::Unlink { .. } => "unlink",
            Op::Stat { .. } => "stat",
            Op::Tick => "tick",
        }
    }
}

/// Which generator a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Zipf block reads and overwrites over a PM-resident prefill.
    ZipfRead,
    /// Create / write / fsync, then read / stat / unlink, over a live set.
    MailSpool,
    /// A shifting Zipf hot set over an HDD-resident prefill, with ticks.
    TierShift,
    /// Zipf block I/O and small-file churn over a four-node cluster.
    ClusterMix,
}

/// A workload's sizes. `full` is what the benchmark runs; `small` keeps
/// the same shape for the benchmark's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Generator.
    pub kind: Kind,
    /// Prefilled files (mail-spool: the steady live set).
    pub files: u32,
    /// Bytes per prefilled file (mail-spool: unused).
    pub file_bytes: u64,
    /// Zipf skew over blocks.
    pub theta: f64,
    /// Share of ops that read (the rest of the mix is split below).
    pub read_frac: f64,
    /// Share of ops that overwrite one block (cluster-mix churns small
    /// files with the rest).
    pub write_frac: f64,
    /// Ops per autotier epoch (tier-shift).
    pub epoch_ops: u64,
    /// Epochs between hot-set shifts (tier-shift).
    pub shift_epochs: u64,
    /// Ops between hot-set moves (cluster-mix; 0: never).
    pub move_every: u64,
    /// Generator steps per requested second. A run issues a fixed amount
    /// of work, `--seconds` × this, so that every run of a seed measures
    /// the same ops; the rate is set so a run takes about `--seconds` on
    /// a 2-core x86-64 VM.
    pub steps_per_s: u64,
    /// Three-tier sizes (unused on the cluster).
    pub tiers: ThreeTier,
    /// Cluster nodes and PM bytes per node.
    pub nodes: usize,
    /// PM bytes per cluster node.
    pub node_pm: u64,
}

impl Spec {
    /// The sizes the benchmark runs.
    pub fn full(name: &str) -> Option<Spec> {
        let three = ThreeTier {
            pm: 256 * MIB,
            ssd: 1024 * MIB,
            hdd: 4096 * MIB,
            page_cache: 64 * MIB,
        };
        let base = Spec {
            kind: Kind::ZipfRead,
            files: 64,
            file_bytes: MIB,
            theta: 0.99,
            read_frac: 0.95,
            write_frac: 0.05,
            epoch_ops: 0,
            shift_epochs: 0,
            move_every: 0,
            steps_per_s: 20_000,
            tiers: three,
            nodes: 0,
            node_pm: 0,
        };
        Some(match name {
            "zipf-read" => base,
            "mail-spool" => Spec {
                kind: Kind::MailSpool,
                files: 1000,
                file_bytes: 0,
                steps_per_s: 6_000,
                ..base
            },
            "tier-shift" => Spec {
                kind: Kind::TierShift,
                files: 96,
                file_bytes: 4 * MIB,
                read_frac: 0.80,
                write_frac: 0.20,
                epoch_ops: 1000,
                shift_epochs: 2,
                steps_per_s: 8_008,
                tiers: ThreeTier {
                    pm: 64 * MIB,
                    ssd: 512 * MIB,
                    hdd: 4096 * MIB,
                    page_cache: 256 << 10,
                },
                ..base
            },
            "cluster-mix" => Spec {
                kind: Kind::ClusterMix,
                theta: 0.9,
                read_frac: 0.85,
                write_frac: 0.10,
                // Which node owns the hottest blocks decides the cluster's
                // makespan; moving the hot set averages that over many
                // placements in one run instead of leaving it to the seed.
                move_every: 10_000,
                steps_per_s: 30_000,
                nodes: 4,
                node_pm: 128 * MIB,
                ..base
            },
            _ => return None,
        })
    }

    /// The same workload shrunk for tests.
    #[cfg(test)]
    pub fn small(name: &str) -> Option<Spec> {
        let mut s = Spec::full(name)?;
        match s.kind {
            Kind::ZipfRead => s.files = 8,
            Kind::MailSpool => s.files = 40,
            Kind::TierShift => {
                s.files = 12;
                s.file_bytes = MIB;
                s.epoch_ops = 200;
                s.shift_epochs = 2;
                s.tiers.pm = 8 * MIB;
                s.tiers.ssd = 32 * MIB;
                s.tiers.hdd = 128 * MIB;
            }
            Kind::ClusterMix => {
                s.files = 8;
                s.node_pm = 32 * MIB;
            }
        }
        if s.kind != Kind::TierShift {
            s.tiers.pm = 32 * MIB;
            s.tiers.ssd = 64 * MIB;
            s.tiers.hdd = 128 * MIB;
            s.tiers.page_cache = 4 * MIB;
        }
        Some(s)
    }

    /// Builds this workload's stack.
    pub fn build(&self, traced: bool) -> Stack {
        match self.kind {
            Kind::ClusterMix => Stack::cluster(self.nodes, self.node_pm, traced),
            // Prefill starts on the HDD: a placement preference, not a pin.
            Kind::TierShift => {
                Stack::three_tier(self.tiers, Arc::new(PinnedPolicy::new(2)), traced)
            }
            _ => Stack::three_tier(
                self.tiers,
                Arc::new(LruPolicy::default_watermarks()),
                traced,
            ),
        }
    }

    /// The working directory files live in (`None`: the root). Cluster
    /// files stay at the top level, where names are hash-placed over nodes.
    pub fn workdir(&self) -> Option<&'static str> {
        match self.kind {
            Kind::MailSpool => Some("spool"),
            _ => None,
        }
    }

    /// Blocks across the prefilled files.
    fn blocks(&self) -> u64 {
        self.files as u64 * self.file_bytes / BLOCK
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output for state `x`: a well-mixed hash of `x`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.0);
        self.0 = self.0.wrapping_add(GOLDEN);
        z
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A bijection of `[0, n)` mapping Zipf ranks to blocks, so that the hot
/// blocks are scattered over files instead of packed at the start.
#[derive(Debug, Clone, Copy)]
struct Scatter {
    n: u64,
    mult: u64,
    add: u64,
}

impl Scatter {
    fn new(n: u64, rng: &mut Rng) -> Self {
        let mut mult = rng.range(1, n.max(2) - 1) | 1;
        while gcd(mult, n) != 1 {
            mult += 2;
        }
        Scatter {
            n,
            mult: mult % n.max(1),
            add: rng.next_u64() % n.max(1),
        }
    }

    fn block(&self, rank: u64) -> u64 {
        ((rank as u128 * self.mult as u128 + self.add as u128) % self.n as u128) as u64
    }
}

/// The seed-driven op stream of one workload.
pub struct Gen {
    spec: Spec,
    rng: Rng,
    zipf: Option<Zipfian>,
    scatter: Option<Scatter>,
    next_uid: u32,
    /// Live files with their sizes (mail-spool, cluster small files).
    live: VecDeque<(u32, u64)>,
    queued: VecDeque<Op>,
    steps: u64,
}

/// Small files the cluster workload keeps alive while it churns.
const SMALL_FILES: usize = 64;

impl Gen {
    /// The generator for `spec` with `seed`.
    pub fn new(spec: Spec, seed: u64) -> Gen {
        let mut rng = Rng::new(seed);
        let blocks = spec.blocks();
        let (zipf, scatter) = if blocks > 0 {
            let z = Zipfian::new(blocks, spec.theta, rng.next_u64());
            (Some(z), Some(Scatter::new(blocks, &mut rng)))
        } else {
            (None, None)
        };
        Gen {
            spec,
            rng,
            zipf,
            scatter,
            next_uid: 0,
            live: VecDeque::new(),
            queued: VecDeque::new(),
            steps: 0,
        }
    }

    /// The untimed set-up ops: the prefill.
    pub fn prefill(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        if self.spec.kind == Kind::MailSpool {
            for _ in 0..self.spec.files {
                self.spool_create(&mut ops);
            }
            return ops;
        }
        let chunk = self.spec.file_bytes.min(MIB);
        for _ in 0..self.spec.files {
            let f = self.new_uid();
            ops.push(Op::Create { f });
            for k in 0..self.spec.file_bytes / chunk {
                ops.push(Op::Write {
                    f,
                    off: k * chunk,
                    len: chunk as u32,
                });
            }
            ops.push(Op::Fsync { f });
        }
        ops
    }

    fn new_uid(&mut self) -> u32 {
        self.next_uid += 1;
        self.next_uid - 1
    }

    fn spool_create(&mut self, out: &mut Vec<Op>) {
        let f = self.new_uid();
        let len = self.rng.range(4096, 16384);
        out.push(Op::Create { f });
        out.push(Op::Write {
            f,
            off: 0,
            len: len as u32,
        });
        out.push(Op::Fsync { f });
        self.live.push_back((f, len));
    }

    /// Blocks per prefilled file.
    fn file_blocks(&self) -> u64 {
        self.spec.file_bytes / BLOCK
    }

    fn zipf_block(&mut self) -> (u32, u64) {
        let rank = self.zipf.as_mut().expect("prefilled blocks").next_item();
        let b = self.scatter.expect("prefilled blocks").block(rank);
        let fb = self.file_blocks();
        ((b / fb) as u32, (b % fb) * BLOCK)
    }

    /// The (file, offset) of every block in the current hot set: the top
    /// tenth of Zipf ranks under the current scatter.
    pub fn hot_blocks(&self) -> Vec<(u32, u64)> {
        let Some(sc) = self.scatter else {
            return Vec::new();
        };
        let fb = self.file_blocks();
        (0..(sc.n / 10).max(1))
            .map(|r| {
                let b = sc.block(r);
                ((b / fb) as u32, (b % fb) * BLOCK)
            })
            .collect()
    }

    /// The next op of the timed phase.
    pub fn next_op(&mut self) -> Op {
        self.steps += 1;
        if self.spec.kind == Kind::TierShift && self.steps.is_multiple_of(self.spec.epoch_ops + 1) {
            let epoch = self.steps / (self.spec.epoch_ops + 1);
            if epoch.is_multiple_of(self.spec.shift_epochs) {
                self.scatter = Some(Scatter::new(self.spec.blocks(), &mut self.rng));
            }
            return Op::Tick;
        }
        if let Some(op) = self.queued.pop_front() {
            return op;
        }
        if self.spec.move_every > 0 && self.steps.is_multiple_of(self.spec.move_every) {
            self.scatter = Some(Scatter::new(self.spec.blocks(), &mut self.rng));
        }
        match self.spec.kind {
            Kind::MailSpool => self.next_spool(),
            _ => self.next_block_op(),
        }
    }

    fn next_spool(&mut self) -> Op {
        let mut ops = Vec::new();
        let i = self.rng.range(0, self.live.len() as u64 - 1) as usize;
        let (f, len) = self.live.swap_remove_back(i).expect("live set is full");
        ops.push(Op::Read {
            f,
            off: 0,
            len: len as u32,
        });
        ops.push(Op::Stat { f });
        ops.push(Op::Unlink { f });
        self.spool_create(&mut ops);
        let first = ops[0];
        self.queued.extend(ops.into_iter().skip(1));
        first
    }

    fn next_block_op(&mut self) -> Op {
        let u = self.rng.unit();
        let s = self.spec;
        if u < s.read_frac {
            let (f, off) = self.zipf_block();
            return Op::Read {
                f,
                off,
                len: BLOCK as u32,
            };
        }
        if u < s.read_frac + s.write_frac || s.kind != Kind::ClusterMix {
            let (f, off) = self.zipf_block();
            return Op::Write {
                f,
                off,
                len: BLOCK as u32,
            };
        }
        // Cluster small-file churn: create-and-write until the pool is
        // full, then alternate unlinking the oldest and creating anew.
        if self.live.len() >= SMALL_FILES {
            let (f, _) = self.live.pop_front().expect("pool is full");
            return Op::Unlink { f };
        }
        let f = self.new_uid();
        let len = self.rng.range(512, 4096);
        self.live.push_back((f, len));
        self.queued.push_back(Op::Write {
            f,
            off: 0,
            len: len as u32,
        });
        Op::Create { f }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashSet};

    fn mix(name: &str, steps: usize) -> (BTreeMap<&'static str, usize>, Gen) {
        let spec = Spec::full(name).unwrap();
        let mut g = Gen::new(spec, 42);
        g.prefill();
        let mut counts = BTreeMap::new();
        for _ in 0..steps {
            *counts.entry(g.next_op().kind()).or_default() += 1;
        }
        (counts, g)
    }

    fn frac(c: &BTreeMap<&str, usize>, k: &str) -> f64 {
        let total: usize = c.values().sum();
        *c.get(k).unwrap_or(&0) as f64 / total as f64
    }

    #[test]
    fn zipf_read_keeps_its_mix() {
        let (c, _) = mix("zipf-read", 200_000);
        assert!((frac(&c, "read") - 0.95).abs() < 0.005, "{c:?}");
        assert!((frac(&c, "write") - 0.05).abs() < 0.005, "{c:?}");
        assert_eq!(c.len(), 2, "{c:?}");
    }

    #[test]
    fn mail_spool_keeps_its_live_set() {
        let spec = Spec::full("mail-spool").unwrap();
        let mut g = Gen::new(spec, 1);
        let pre = g.prefill();
        assert_eq!(pre.len(), 3 * 1000);
        let mut live: HashSet<u32> = pre
            .iter()
            .filter_map(|op| match op {
                Op::Create { f } => Some(*f),
                _ => None,
            })
            .collect();
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for _ in 0..60_000 {
            let op = g.next_op();
            *counts.entry(op.kind()).or_default() += 1;
            match op {
                Op::Create { f } => assert!(live.insert(f)),
                Op::Unlink { f } => assert!(live.remove(&f)),
                Op::Read { f, off, len } => {
                    assert!(live.contains(&f));
                    assert_eq!(off, 0);
                    assert!((4096..=16384).contains(&len));
                }
                _ => {}
            }
            assert!((999..=1001).contains(&live.len()));
        }
        // Each round is create, write, fsync, read, stat, unlink.
        for k in ["create", "write", "fsync", "read", "stat", "unlink"] {
            assert_eq!(counts[k], 10_000, "{counts:?}");
        }
    }

    #[test]
    fn tier_shift_ticks_once_per_epoch_and_shifts_its_hot_set() {
        let spec = Spec::full("tier-shift").unwrap();
        let (c, g) = mix("tier-shift", 30_030);
        assert_eq!(c["tick"], 30);
        let ops = 30_030 - 30;
        assert!((c["read"] as f64 / ops as f64 - 0.80).abs() < 0.01, "{c:?}");
        assert_eq!(c["read"] + c["write"], ops, "{c:?}");
        assert!(
            (c["write"] as f64 / ops as f64 - 0.20).abs() < 0.01,
            "{c:?}"
        );
        // Working set is six times the PM tier.
        assert_eq!(spec.blocks() * BLOCK, 6 * spec.tiers.pm);
        let hot = g.hot_blocks();
        assert_eq!(hot.len() as u64, spec.blocks() / 10);
        let mut g2 = Gen::new(spec, 42);
        g2.prefill();
        let before = g2.hot_blocks();
        for _ in 0..(spec.epoch_ops + 1) * spec.shift_epochs + 1 {
            g2.next_op();
        }
        assert_ne!(before, g2.hot_blocks());
    }

    #[test]
    fn cluster_mix_keeps_its_mix_and_small_file_pool() {
        let (c, g) = mix("cluster-mix", 200_000);
        // Per draw: 0.85 read, 0.10 write, 0.05 churn, of which the
        // creates (half) bring a write along.
        let per_draw = 0.85 + 0.10 + 0.05 * 1.5;
        assert!((frac(&c, "read") - 0.85 / per_draw).abs() < 0.01, "{c:?}");
        assert!((SMALL_FILES - 1..=SMALL_FILES).contains(&g.live.len()));
        let churn = frac(&c, "create") + frac(&c, "unlink");
        assert!((churn - 0.05 / per_draw).abs() < 0.005, "{c:?}");
    }

    #[test]
    fn seeds_change_the_op_stream_and_repeat_it() {
        for name in NAMES {
            let spec = Spec::full(name).unwrap();
            let stream = |seed| {
                let mut g = Gen::new(spec, seed);
                let mut v = g.prefill();
                v.extend((0..2000).map(|_| g.next_op()));
                v
            };
            assert_eq!(stream(1), stream(1), "{name}");
            assert_ne!(stream(1), stream(2), "{name}");
        }
    }
}
