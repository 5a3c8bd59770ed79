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

pub const GOLDEN_JITTER_PGAS: Pin = (0xa4e5_b83c_4078_39bb, 2_155_000, 162);
pub const GOLDEN_JITTER_SW: Pin = (0x22ae_86f4_f612_031b, 6_591_400, 220);
pub const GOLDEN_JITTER_NET: Pin = (0x4b70_994a_cbd8_001a, 2_165_000, 162);
pub const GOLDEN_MIG_SW: Pin = (0x4624_af3f_7f39_c307, 109_546_200, 560);
pub const GOLDEN_MIG_NET: Pin = (0x36aa_077f_9c82_c1e6, 109_514_800, 494);
pub const GOLDEN_DEADLINE_11: Pin = (0x238b_6abe_3c79_34ad, 58_836_000, 113);
pub const GOLDEN_DEADLINE_23: Pin = (0x78f0_426f_9c80_b6f6, 58_827_000, 113);
pub const GOLDEN_CAPACITY: Pin = (0xd71c_1496_4b10_bb22, 316_233_600, 1083);
pub const GOLDEN_FLUSH: Pin = (0xddf6_7c78_c167_b773, 22_953_000, 268);
pub const GOLDEN_AMO_PGAS: Pin = (0x7b45_4c1f_022e_d80c, 16_428_800, 121);
pub const GOLDEN_AMO_SW: Pin = (0xdde6_ea4a_402b_8c9e, 38_448_400, 210);
pub const GOLDEN_AMO_NET: Pin = (0x9739_9f19_b96f_195d, 24_746_800, 141);
pub const GOLDEN_MEMBER_PGAS: Pin = (0xeedf_ab2d_0377_c12c, 21_898_800, 143);
pub const GOLDEN_MEMBER_SW: Pin = (0x6bde_edc7_3e25_1f5d, 59_989_200, 268);
pub const GOLDEN_MEMBER_NET: Pin = (0x7d37_c235_1f96_940e, 47_320_200, 220);
