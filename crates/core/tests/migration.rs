//! Protocol-level tests of block migration, including races with in-flight
//! traffic — the scenario the NIC forwarding tombstones exist for.

mod common;

use agas::migrate::migrate_block;
use agas::ops::{memget, memput, pin, unpin};
use agas::{alloc_array, Distribution, GasMode, SimEv, SimWorld};
use common::{assert_consistent, engine};
use netsim::OpId;
use netsim::{Engine, NetConfig};

fn mig_done(eng: &Engine<SimWorld>, ctx: u64) -> bool {
    eng.state
        .events()
        .iter()
        .any(|(_, _, e)| matches!(e, SimEv::MigDone(c, _) if *c == ctx))
}

fn get_data(eng: &Engine<SimWorld>, ctx: u64) -> Option<Vec<u8>> {
    eng.state.events().iter().find_map(|(_, _, e)| match e {
        SimEv::GetDone(c, d) if *c == ctx => Some(d.clone()),
        _ => None,
    })
}

#[test]
fn migration_preserves_data_and_consistency() {
    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        let mut eng = engine(4, mode);
        let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
        let gva = arr.block(1); // homed/owned at 1
        memput(&mut eng, 0, gva, vec![0xAB; 4096], OpId::from_raw(1));
        eng.run();
        migrate_block(&mut eng, 0, gva, 3, OpId::from_raw(2));
        eng.run();
        assert!(mig_done(&eng, 2), "{mode:?}");
        // New owner is 3; directory agrees; data intact.
        assert!(
            eng.state.data.gas[3].btt.is_resident(gva.block_key()),
            "{mode:?}"
        );
        assert!(
            !eng.state.data.gas[1].btt.is_resident(gva.block_key()),
            "{mode:?}"
        );
        assert_consistent(&eng, &arr.blocks);
        memget(&mut eng, 2, gva, 4096, OpId::from_raw(3));
        eng.run();
        assert_eq!(get_data(&eng, 3).unwrap(), vec![0xAB; 4096], "{mode:?}");
    }
}

#[test]
fn migration_bumps_generation() {
    let mut eng = engine(3, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 3, 10, Distribution::Cyclic);
    let gva = arr.block(0);
    migrate_block(&mut eng, 0, gva, 1, OpId::from_raw(1));
    eng.run();
    migrate_block(&mut eng, 0, gva, 2, OpId::from_raw(2));
    eng.run();
    migrate_block(&mut eng, 0, gva, 0, OpId::from_raw(3));
    eng.run();
    assert!(mig_done(&eng, 1) && mig_done(&eng, 2) && mig_done(&eng, 3));
    let e = eng.state.data.gas[0].btt.lookup(gva.block_key()).unwrap();
    assert_eq!(e.generation, 4); // 1 + three migrations
    assert_consistent(&eng, &arr.blocks);
}

#[test]
fn migrate_to_current_owner_is_trivial() {
    let mut eng = engine(3, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 3, 10, Distribution::Cyclic);
    migrate_block(&mut eng, 0, arr.block(1), 1, OpId::from_raw(9));
    eng.run();
    assert!(mig_done(&eng, 9));
    assert!(eng.state.data.gas[1]
        .btt
        .is_resident(arr.block(1).block_key()));
    assert_eq!(eng.state.total_counters().migrations_out, 0);
}

#[test]
fn puts_racing_migration_are_applied_exactly_once() {
    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        let mut eng = engine(4, mode);
        let arr = alloc_array(&mut eng, 2, 14, Distribution::Cyclic); // 16 KiB blocks
        let gva = arr.block(1);
        // Launch 64 puts to distinct offsets and a migration mid-stream.
        for i in 0..32u64 {
            memput(
                &mut eng,
                0,
                gva.with_offset(i * 64),
                vec![(i + 1) as u8; 64],
                OpId::from_raw(i),
            );
        }
        migrate_block(&mut eng, 2, gva, 3, OpId::from_raw(1000));
        for i in 32..64u64 {
            memput(
                &mut eng,
                0,
                gva.with_offset(i * 64),
                vec![(i + 1) as u8; 64],
                OpId::from_raw(i),
            );
        }
        eng.run();
        assert!(mig_done(&eng, 1000), "{mode:?}");
        let puts_done = eng
            .state
            .events()
            .iter()
            .filter(|(_, _, e)| matches!(e, SimEv::PutDone(_)))
            .count();
        assert_eq!(puts_done, 64, "{mode:?}: lost put completions");
        // Every offset readable with its value at the new owner.
        for i in 0..64u64 {
            memget(
                &mut eng,
                1,
                gva.with_offset(i * 64),
                64,
                OpId::from_raw(2000 + i),
            );
            eng.run();
            assert_eq!(
                get_data(&eng, 2000 + i).unwrap(),
                vec![(i + 1) as u8; 64],
                "{mode:?}: offset {i} corrupted"
            );
        }
        assert_consistent(&eng, &arr.blocks);
    }
}

#[test]
fn forwarding_rescues_in_flight_puts() {
    // NET mode: verify the forwarding tombstone actually fires during the
    // migration window.
    let mut eng = engine(4, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 2, 20, Distribution::Cyclic); // 1 MiB block: long handoff
    let gva = arr.block(1);
    migrate_block(&mut eng, 1, gva, 2, OpId::from_raw(1));
    // While MigData is in flight, hit the old owner.
    for i in 0..8u64 {
        memput(
            &mut eng,
            0,
            gva.with_offset(i * 8),
            vec![i as u8 + 1; 8],
            OpId::from_raw(10 + i),
        );
    }
    eng.run();
    assert!(mig_done(&eng, 1));
    let total = eng.state.total_counters();
    assert!(
        total.xlate_forwards > 0 || total.nacks_sent > 0,
        "migration window never exercised"
    );
    for i in 0..8u64 {
        memget(
            &mut eng,
            3,
            gva.with_offset(i * 8),
            8,
            OpId::from_raw(100 + i),
        );
        eng.run();
        assert_eq!(get_data(&eng, 100 + i).unwrap(), vec![i as u8 + 1; 8]);
    }
}

#[test]
fn forwarding_disabled_still_converges_via_home() {
    // Ablation A3: NACK-only recovery (a zero forwarding TTL).
    let net = NetConfig {
        forward_ttl: 0,
        ..NetConfig::ideal()
    };
    let mut eng = Engine::new(SimWorld::new(4, GasMode::AgasNetwork, net), 42);
    let arr = alloc_array(&mut eng, 2, 20, Distribution::Cyclic);
    let gva = arr.block(1);
    migrate_block(&mut eng, 1, gva, 2, OpId::from_raw(1));
    for i in 0..8u64 {
        memput(
            &mut eng,
            0,
            gva.with_offset(i * 8),
            vec![i as u8 + 1; 8],
            OpId::from_raw(10 + i),
        );
    }
    eng.run();
    assert!(mig_done(&eng, 1));
    let total = eng.state.total_counters();
    assert_eq!(total.xlate_forwards, 0);
    for i in 0..8u64 {
        memget(
            &mut eng,
            3,
            gva.with_offset(i * 8),
            8,
            OpId::from_raw(100 + i),
        );
        eng.run();
        assert_eq!(get_data(&eng, 100 + i).unwrap(), vec![i as u8 + 1; 8]);
    }
}

#[test]
fn pinned_block_defers_migration_until_unpin() {
    let mut eng = engine(3, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 3, 10, Distribution::Cyclic);
    let gva = arr.block(1);
    // Pin at the owner (as an executing handler would).
    assert!(pin(&mut eng.state.data, 1, gva).is_some());
    migrate_block(&mut eng, 0, gva, 2, OpId::from_raw(7));
    eng.run();
    assert!(!mig_done(&eng, 7), "migration must wait for the pin");
    assert!(eng.state.data.gas[1].btt.is_resident(gva.block_key()));
    unpin(&mut eng, 1, gva);
    eng.run();
    assert!(mig_done(&eng, 7));
    assert!(eng.state.data.gas[2].btt.is_resident(gva.block_key()));
    assert_consistent(&eng, &arr.blocks);
}

#[test]
fn stale_readers_after_migration_recover() {
    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        let mut eng = engine(4, mode);
        let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
        let gva = arr.block(2);
        memput(&mut eng, 0, gva, vec![0x5A; 128], OpId::from_raw(1));
        eng.run();
        // Locality 0 now caches owner=2. Migrate to 3 behind its back.
        migrate_block(&mut eng, 1, gva, 3, OpId::from_raw(2));
        eng.run();
        // The stale cache entry forces a bounce + directory re-resolve.
        memget(&mut eng, 0, gva, 128, OpId::from_raw(3));
        eng.run();
        assert_eq!(get_data(&eng, 3).unwrap(), vec![0x5A; 128], "{mode:?}");
        assert_consistent(&eng, &arr.blocks);
    }
}

#[test]
fn migration_counters_track_moves() {
    let mut eng = engine(3, GasMode::AgasSoftware);
    let arr = alloc_array(&mut eng, 6, 10, Distribution::Cyclic);
    for (i, gva) in arr.blocks.iter().enumerate() {
        migrate_block(
            &mut eng,
            0,
            *gva,
            (gva.home() + 1) % 3,
            OpId::from_raw(i as u64),
        );
    }
    eng.run();
    let total = eng.state.total_counters();
    assert_eq!(total.migrations_out, 6);
    assert_eq!(total.migrations_in, 6);
    assert_consistent(&eng, &arr.blocks);
}

#[test]
fn forward_chains_of_depth_k_resolve_with_exactly_k_hops() {
    // Build a k-deep NIC forwarding chain (the block hops 1 → 2 → … → 1+k
    // while locality 0 keeps its original owner hint) and verify a single
    // stale get traverses exactly k Forward tombstones before committing.
    for k in 0..=4usize {
        let net = NetConfig {
            forward_ttl: 5, // chain depth 4 needs ttl ≥ 4 to avoid NACKs
            ..NetConfig::ideal()
        };
        let mut eng = Engine::new(SimWorld::new(6, GasMode::AgasNetwork, net), 42);
        let arr = alloc_array(&mut eng, 6, 12, Distribution::Cyclic);
        let gva = arr.block(1); // homed and initially owned at 1
        memput(&mut eng, 0, gva, vec![0x77; 64], OpId::from_raw(1));
        eng.run(); // locality 0 now caches owner = 1
        for i in 0..k {
            migrate_block(
                &mut eng,
                1,
                gva,
                2 + i as u32,
                OpId::from_raw(10 + i as u64),
            );
            eng.run();
            assert!(mig_done(&eng, 10 + i as u64), "k={k} hop {i}");
        }
        let before = eng.state.total_counters().xlate_forwards;
        memget(&mut eng, 0, gva, 64, OpId::from_raw(99));
        eng.run();
        assert_eq!(get_data(&eng, 99).unwrap(), vec![0x77; 64], "k={k}");
        let forwards = eng.state.total_counters().xlate_forwards - before;
        assert_eq!(forwards, k as u64, "k={k}: wrong forwarding-chain depth");
        assert_consistent(&eng, &arr.blocks);
    }
}

#[test]
fn expired_forward_tombstone_recovers_via_directory() {
    // Ghost-slot expiry: the old owner reclaimed its Forward tombstone
    // (capacity pressure) before a stale reader arrived. The reader must
    // get a Miss NACK and recover through the home directory.
    let mut eng = engine(4, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 4, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    memput(&mut eng, 0, gva, vec![0x3C; 32], OpId::from_raw(1));
    eng.run();
    migrate_block(&mut eng, 1, gva, 2, OpId::from_raw(2));
    eng.run();
    assert!(mig_done(&eng, 2));
    assert!(
        eng.state
            .data
            .cluster
            .loc_mut(1)
            .nic
            .xlate
            .expire_forward(gva.block_key()),
        "old owner should hold a live tombstone"
    );
    let nacks_before = eng.state.total_counters().nacks_sent;
    let retries_before = eng.state.data.gas[0].stats.retries;
    memget(&mut eng, 0, gva, 32, OpId::from_raw(3)); // stale hint → locality 1
    eng.run();
    assert_eq!(get_data(&eng, 3).unwrap(), vec![0x3C; 32]);
    assert!(
        eng.state.total_counters().nacks_sent > nacks_before,
        "expired tombstone must NACK rather than forward"
    );
    assert!(
        eng.state.data.gas[0].stats.retries > retries_before,
        "recovery must go through the bounce path"
    );
    assert_consistent(&eng, &arr.blocks);
}

#[test]
fn get_racing_a_second_migration_returns_fresh_data() {
    for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
        let mut eng = engine(4, mode);
        let arr = alloc_array(&mut eng, 2, 16, Distribution::Cyclic); // 64 KiB: long handoff
        let gva = arr.block(1);
        memput(&mut eng, 0, gva, vec![0x9D; 256], OpId::from_raw(1));
        eng.run();
        // First migration; a get and a *second* migration are injected while
        // the first handoff is still in flight.
        migrate_block(&mut eng, 0, gva, 2, OpId::from_raw(2));
        eng.run_steps(30);
        memget(&mut eng, 3, gva, 256, OpId::from_raw(3));
        migrate_block(&mut eng, 0, gva, 1, OpId::from_raw(4));
        eng.run();
        assert!(mig_done(&eng, 2) && mig_done(&eng, 4), "{mode:?}");
        assert_eq!(get_data(&eng, 3).unwrap(), vec![0x9D; 256], "{mode:?}");
        assert_consistent(&eng, &arr.blocks);
    }
}

#[test]
fn concurrent_migrations_of_same_block_serialize() {
    let mut eng = engine(4, GasMode::AgasNetwork);
    let arr = alloc_array(&mut eng, 2, 12, Distribution::Cyclic);
    let gva = arr.block(1);
    migrate_block(&mut eng, 0, gva, 2, OpId::from_raw(1));
    migrate_block(&mut eng, 0, gva, 3, OpId::from_raw(2));
    migrate_block(&mut eng, 2, gva, 0, OpId::from_raw(3));
    eng.run();
    assert!(mig_done(&eng, 1) && mig_done(&eng, 2) && mig_done(&eng, 3));
    assert_consistent(&eng, &arr.blocks);
    // Exactly one resident copy somewhere.
    let owners = (0..4)
        .filter(|&l| {
            eng.state.data.gas[l as usize]
                .btt
                .is_resident(gva.block_key())
        })
        .count();
    assert_eq!(owners, 1);
}
