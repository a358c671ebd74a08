//! The stacks under test, built from the public constructors with default
//! `MuxOptions`.

use std::sync::Arc;

use cluster::{ClusterConfig, ClusterMux, ClusterNode};
use e4fs::{E4Fs, E4Options};
use mux::{Mux, MuxOptions, TierConfig, TieringPolicy};
use novafs::{NovaFs, NovaOptions};
use simdev::{hdd, nvme_ssd, pmem, Device, DeviceClass, DeviceConfig, DeviceProfile, VirtualClock};
use tvfs::FileSystem;
use xefs::{XeFs, XeOptions};

use crate::timed::TimedFs;

/// A built stack: the file system the client talks to, and every handle
/// the benchmark reads its counters from.
pub struct Stack {
    /// `Mux` or `ClusterMux`, as the client sees it.
    pub fs: Arc<dyn FileSystem>,
    /// Every `Mux` instance (one per cluster node).
    pub muxes: Vec<Arc<Mux>>,
    /// The cluster frontend, for the cluster workload.
    pub cluster: Option<Arc<ClusterMux>>,
    /// The virtual clock of each `Mux`.
    pub clocks: Vec<VirtualClock>,
    /// Every simulated device, tagged `pm`, `ssd` or `hdd`.
    pub devices: Vec<(&'static str, Device)>,
    /// Timing decorators around the native file systems (traced run only).
    pub timed: Vec<Arc<TimedFs>>,
}

/// Tier sizes and native page-cache size of a three-tier stack.
#[derive(Debug, Clone, Copy)]
pub struct ThreeTier {
    /// PM device bytes.
    pub pm: u64,
    /// SSD device bytes.
    pub ssd: u64,
    /// HDD device bytes.
    pub hdd: u64,
    /// xefs / e4fs page-cache bytes.
    pub page_cache: u64,
}

fn device(profile: DeviceProfile, capacity: u64, clock: &VirtualClock) -> Device {
    Device::new(
        DeviceConfig {
            profile,
            capacity,
            // The benchmark never crashes a device; skip undo logging.
            track_durability: false,
        },
        clock.clone(),
    )
}

/// Wraps `fs` in a timing decorator when `traced`.
fn tier(
    fs: Arc<dyn FileSystem>,
    layer: &'static str,
    traced: bool,
    timed: &mut Vec<Arc<TimedFs>>,
) -> Arc<dyn FileSystem> {
    if !traced {
        return fs;
    }
    let t = Arc::new(TimedFs::new(fs, layer));
    timed.push(t.clone());
    t
}

impl Stack {
    /// PM/novafs + SSD/xefs + HDD/e4fs under one Mux with `policy`, and the
    /// Mux metafile on PM.
    pub fn three_tier(sizes: ThreeTier, policy: Arc<dyn TieringPolicy>, traced: bool) -> Stack {
        let clock = VirtualClock::new();
        let pm = device(pmem(), sizes.pm, &clock);
        let ssd = device(nvme_ssd(), sizes.ssd, &clock);
        let hd = device(hdd(), sizes.hdd, &clock);
        let mut timed = Vec::new();
        let nova = NovaFs::format(pm.clone(), NovaOptions::default()).expect("format novafs");
        let xe = XeFs::format(
            ssd.clone(),
            XeOptions {
                page_cache_bytes: sizes.page_cache,
                ..Default::default()
            },
        )
        .expect("format xefs");
        let e4 = E4Fs::format(
            hd.clone(),
            E4Options {
                page_cache_bytes: sizes.page_cache,
                ..Default::default()
            },
        )
        .expect("format e4fs");
        let m = Arc::new(Mux::new(clock.clone(), policy, MuxOptions::default()));
        let tiers: [(&str, DeviceClass, Arc<dyn FileSystem>, &'static str); 3] = [
            ("pm-nova", DeviceClass::Pmem, Arc::new(nova), "novafs"),
            ("ssd-xefs", DeviceClass::Ssd, Arc::new(xe), "xefs"),
            ("hdd-e4fs", DeviceClass::Hdd, Arc::new(e4), "e4fs"),
        ];
        for (name, class, fs, layer) in tiers {
            m.add_tier(
                TierConfig {
                    name: name.into(),
                    class,
                },
                tier(fs, layer, traced, &mut timed),
            );
        }
        m.enable_metafile(0).expect("enable metafile on PM");
        Stack {
            fs: m.clone(),
            muxes: vec![m],
            cluster: None,
            clocks: vec![clock],
            devices: vec![("pm", pm), ("ssd", ssd), ("hdd", hd)],
            timed,
        }
    }

    /// `n` nodes, each a Mux over novafs on its own `pm_bytes` PM device
    /// and clock, behind one `ClusterMux` with datacenter links.
    pub fn cluster(n: usize, pm_bytes: u64, traced: bool) -> Stack {
        let mut timed = Vec::new();
        let mut muxes = Vec::new();
        let mut clocks = Vec::new();
        let mut devices = Vec::new();
        let nodes = (0..n)
            .map(|i| {
                let clock = VirtualClock::new();
                let dev = device(pmem(), pm_bytes, &clock);
                let nova =
                    NovaFs::format(dev.clone(), NovaOptions::default()).expect("format novafs");
                let m = Arc::new(Mux::new(
                    clock.clone(),
                    Arc::new(mux::LruPolicy::default_watermarks()),
                    MuxOptions::default(),
                ));
                m.add_tier(
                    TierConfig {
                        name: format!("node{i}-pm"),
                        class: DeviceClass::Pmem,
                    },
                    tier(Arc::new(nova), "novafs", traced, &mut timed),
                );
                muxes.push(m.clone());
                clocks.push(clock.clone());
                devices.push(("pm", dev));
                ClusterNode {
                    name: format!("node{i}"),
                    mux: m,
                    clock,
                }
            })
            .collect();
        let c = ClusterMux::new(nodes, ClusterConfig::default());
        Stack {
            fs: c.clone(),
            muxes,
            cluster: Some(c),
            clocks,
            devices,
            timed,
        }
    }

    /// Virtual time the stack has charged so far: the clock of a single
    /// Mux, or on a cluster the sum over node clocks and link ledgers (the
    /// single client's ops run one after another).
    pub fn vnow(&self) -> u64 {
        match &self.cluster {
            None => self.clocks[0].now_ns(),
            Some(c) => {
                let i = c.instant();
                i.node_ns.iter().sum::<u64>() + i.link_ns.iter().sum::<u64>()
            }
        }
    }

    /// Arms (`true`) or disarms every timing decorator's stray-call count.
    pub fn arm_timed(&self, on: bool) {
        for t in &self.timed {
            t.arm(on);
        }
    }

    /// Bytes in use across every tier's `statfs`, per native file system.
    pub fn used_bytes(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        for m in &self.muxes {
            for t in m.tier_status() {
                let fs = m.tier_fs(t.id).expect("registered tier");
                let used = fs.statfs().map_or(0, |s| s.used_bytes());
                out.push((layer_of(fs.fs_name()), used));
            }
        }
        out
    }
}

/// The static layer name of a native file system.
pub fn layer_of(fs_name: &str) -> &'static str {
    match fs_name {
        "novafs" => "novafs",
        "xefs" => "xefs",
        "e4fs" => "e4fs",
        _ => "other",
    }
}
