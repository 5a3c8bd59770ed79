//! The golden pins: `(trace_hash, final ps, events executed)` of the pinned
//! scenarios, one table for `trace_pin.rs` (sequential engine),
//! `shard_pin.rs` (the same programs at 1 / 2 / 4 / 8 lanes) and
//! `faults_shadow.rs` (a lossless fault plane must land on them too).
//!
//! If a *deliberate* protocol change moves a pin, re-capture with
//! `cargo test -p agas --test trace_pin -- --nocapture` (each test prints
//! its observed triple on failure) and record old → new with the one cause
//! in CHANGES.md.
#![allow(dead_code)] // not every test binary checks every pin

pub type Pin = (u64, u64, u64);

pub const GOLDEN_JITTER_PGAS: Pin = (0x9a84_f477_584d_ba7c, 2_155_000, 202);
pub const GOLDEN_JITTER_SW: Pin = (0x22ae_86f4_f612_031b, 6_591_400, 220);
pub const GOLDEN_JITTER_NET: Pin = (0xcedf_9e26_a041_86c9, 2_165_000, 202);
pub const GOLDEN_MIG_SW: Pin = (0x4624_af3f_7f39_c307, 109_546_200, 560);
pub const GOLDEN_MIG_NET: Pin = (0xd890_e6c2_ec6c_76c8, 105_152_800, 509);
pub const GOLDEN_DEADLINE_11: Pin = (0x3459_22fe_c37c_b2de, 58_836_000, 125);
pub const GOLDEN_DEADLINE_23: Pin = (0x59d1_ae84_385b_5540, 58_827_000, 125);
pub const GOLDEN_CAPACITY: Pin = (0xa0b7_009b_d139_80a3, 312_092_600, 1269);
pub const GOLDEN_FLUSH: Pin = (0xf701_c8b1_72d7_8c15, 21_260_000, 336);
pub const GOLDEN_AMO_PGAS: Pin = (0x7b45_4c1f_022e_d80c, 16_428_800, 121);
pub const GOLDEN_AMO_SW: Pin = (0xdde6_ea4a_402b_8c9e, 38_448_400, 210);
pub const GOLDEN_AMO_NET: Pin = (0x9739_9f19_b96f_195d, 24_746_800, 141);
pub const GOLDEN_MEMBER_PGAS: Pin = (0xc316_b8ec_efb4_a270, 21_898_800, 169);
pub const GOLDEN_MEMBER_SW: Pin = (0x6bde_edc7_3e25_1f5d, 59_989_200, 268);
pub const GOLDEN_MEMBER_NET: Pin = (0xefd7_496f_a678_f6c3, 47_268_200, 250);
