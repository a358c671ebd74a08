//! Chaos suite: sustained silent-corruption storms and how the rest of
//! the system reacts to them.
//!
//! The circuit breaker treats a *corruption strike* differently from an
//! I/O error: the device acks a rotten read, so the dispatch itself
//! counts as a success and would launder an error streak. The separate
//! corruption streak (see `mux::health`) is cleared only by a *verified*
//! read — so a device that keeps lying gets fenced exactly like one that
//! keeps failing, and the autotier planner then refuses to move new data
//! onto it.

use std::sync::Arc;

use mux::autotier::AutotierConfig;
use mux::{Mux, MuxOptions, PinnedPolicy, TierConfig, TierHealthState, BLOCK};
use simdev::{Device, DeviceClass, FaultMode, VirtualClock};
use tvfs::memfs::MemFs;
use tvfs::{FileSystem, FileType, ROOT_INO};
use workloads::{pattern_at, pattern_check};

/// Tier 0 = NovaFs on a rot-injectable device (the storm target), tier 1
/// = MemFs. Writes are pinned to tier 1; data reaches tier 0 only by
/// explicit migration. Health thresholds are the defaults — fencing is
/// the point here.
fn rig() -> (Arc<Mux>, VirtualClock, Device) {
    let clock = VirtualClock::new();
    let dev = Device::with_profile(simdev::pmem(), 64 << 20, clock.clone());
    let nova =
        Arc::new(novafs::NovaFs::format(dev.clone(), novafs::NovaOptions::default()).unwrap());
    let mem = Arc::new(MemFs::new("stable", 1 << 28));
    let mux = Arc::new(Mux::new(
        clock.clone(),
        Arc::new(PinnedPolicy::new(1)),
        MuxOptions::default(),
    ));
    mux.add_tier(
        TierConfig {
            name: "rotting".into(),
            class: DeviceClass::Pmem,
        },
        nova as Arc<dyn FileSystem>,
    );
    mux.add_tier(
        TierConfig {
            name: "stable".into(),
            class: DeviceClass::Ssd,
        },
        mem as Arc<dyn FileSystem>,
    );
    (mux, clock, dev)
}

#[test]
fn bit_rot_storm_fences_the_tier_and_the_planner_routes_around_it() {
    let (mux, clock, dev) = rig();
    // A file whose blocks live on the soon-to-rot tier…
    const SICK_BLOCKS: u64 = 20;
    let sick = mux
        .create(ROOT_INO, "sick", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    mux.write(sick, 0, &pattern_at(0, (SICK_BLOCKS * BLOCK) as usize))
        .unwrap();
    mux.migrate_file(sick, 0).unwrap();
    // …and a hot one on the stable tier the planner will want to promote.
    let hot = mux
        .create(ROOT_INO, "hot", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    mux.write(hot, 0, &pattern_at(0, (8 * BLOCK) as usize))
        .unwrap();

    // The storm: every device read flips a bit. No replica exists, so
    // every read is a detection without a repair — a corruption strike.
    // Dispatch successes between strikes must NOT launder the streak:
    // the breaker walks Degraded → ReadOnly → Offline on corruption
    // strikes alone.
    dev.set_fault_mode(FaultMode::BitRot {
        period: 1,
        seed: 17,
    });
    let mut buf = vec![0u8; BLOCK as usize];
    let mut storm_reads = 0u64;
    while mux.tier_health(0).state != TierHealthState::Offline {
        let b = storm_reads % SICK_BLOCKS;
        assert!(
            mux.read(sick, b * BLOCK, &mut buf).is_err(),
            "a rotten read must never return Ok without repair"
        );
        storm_reads += 1;
        assert!(storm_reads < 64, "corruption strikes never fenced the tier");
    }
    let h = mux.tier_health(0);
    assert_eq!(h.state, TierHealthState::Offline);
    assert!(h.corruptions >= 16, "one strike per rotten read");
    let s = mux.stats().snapshot();
    assert!(s.corruptions_detected >= 16);
    assert_eq!(s.corruptions_repaired, 0, "nothing to repair from");
    assert!(s.blocks_quarantined > 0);

    // The device heals, but the breaker stays latched — only an operator
    // reset re-admits a tier that lied this persistently.
    dev.set_fault_mode(FaultMode::None);
    assert_eq!(mux.tier_health(0).state, TierHealthState::Offline);

    // Heat the stable file and run an epoch: its only promotion target
    // is the fenced tier, so the planner vetoes the move and nothing is
    // promoted onto the liar.
    for _ in 0..32 {
        mux.read(hot, 0, &mut buf).unwrap();
    }
    clock.advance(AutotierConfig::default().epoch_ns);
    let r = mux.maintenance_tick();
    assert!(
        r.vetoes > 0,
        "promotion onto the fenced tier must be vetoed"
    );
    assert!(
        mux.file_placement(hot)
            .unwrap()
            .iter()
            .all(|&(_, _, t)| t == 1),
        "hot file must stay off the fenced tier: {:?}",
        mux.file_placement(hot).unwrap()
    );
    assert_eq!(mux.stats().snapshot().auto_promotions, 0);

    // Foreground service continues on the stable tier throughout.
    mux.read(hot, 0, &mut buf).unwrap();
    assert!(pattern_check(0, &buf));
    mux.write(hot, 8 * BLOCK, &pattern_at(8 * BLOCK, BLOCK as usize))
        .unwrap();
}

#[test]
fn replicated_data_survives_the_storm_without_fencing_noise_to_callers() {
    let (mux, _clock, dev) = rig();
    const N: u64 = 12;
    let f = mux
        .create(ROOT_INO, "f", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    mux.write(f, 0, &pattern_at(0, (N * BLOCK) as usize))
        .unwrap();
    mux.migrate_file(f, 0).unwrap();
    // Replicate onto the stable tier *before* the storm: the read path
    // now has a healthy copy for every block.
    assert_eq!(mux.mirror_range(f, 0, N, 1).unwrap(), N);
    dev.set_fault_mode(FaultMode::BitRot { period: 1, seed: 5 });
    let mut buf = vec![0u8; BLOCK as usize];
    for b in 0..N {
        mux.read(f, b * BLOCK, &mut buf)
            .unwrap_or_else(|e| panic!("block {b}: repairable read failed: {e:?}"));
        assert!(
            pattern_check(b * BLOCK, &buf),
            "block {b}: corrupt bytes reached the caller"
        );
    }
    let s = mux.stats().snapshot();
    assert_eq!(s.corruptions_detected, N);
    assert_eq!(s.corruptions_repaired, N);
    assert_eq!(s.blocks_quarantined, 0);
    // Strikes still accrue — repairability does not make the device
    // honest — so the storm is visible to the operator even though no
    // caller ever saw an error.
    assert!(mux.tier_health(0).corruptions >= N);
}
