//! The golden pins: `(trace_hash, final ps, events executed)` of the pinned
//! scenarios in `pins.rs`, one table for `shard_pin.rs` (the sequential
//! engine and 1 / 2 / 4 / 8 lanes; `GOLDEN_FREE_PGAS` on the sequential
//! engine only) and `faults_shadow.rs` (a lossless fault plane must land on
//! them too).
//!
//! If a *deliberate* protocol change moves a pin, re-capture with
//! `cargo test -p agas --test shard_pin -- --nocapture` (each test prints
//! its observed triple on failure, the sequential row first) and record
//! old → new with the one cause in CHANGES.md.
#![allow(dead_code)] // not every test binary checks every pin

pub type Pin = (u64, u64, u64);

pub const GOLDEN_JITTER_PGAS: Pin = (0x80f9_2e06_7073_a19f, 2_157_000, 162);
pub const GOLDEN_JITTER_SW: Pin = (0xb831_c346_7e6b_691e, 6_637_400, 220);
pub const GOLDEN_JITTER_NET: Pin = (0x76a2_88a3_a46e_eb66, 2_172_000, 162);
pub const GOLDEN_MIG_SW: Pin = (0x291e_42a0_de64_f9f5, 101_999_600, 557);
pub const GOLDEN_MIG_NET: Pin = (0x3923_5fd8_b2a3_779b, 171_691_800, 508);
pub const GOLDEN_DEADLINE_11: Pin = (0xf464_4c92_98e5_f4d0, 58_730_000, 218);
pub const GOLDEN_DEADLINE_23: Pin = (0x97df_585e_44b2_e496, 58_831_000, 218);
pub const GOLDEN_CAPACITY: Pin = (0x4fbd_c903_69b7_9ea7, 316_233_600, 1083);
pub const GOLDEN_FLUSH: Pin = (0xdb5e_ebab_2cfb_5f57, 22_953_000, 268);
pub const GOLDEN_AMO_PGAS: Pin = (0xe2ee_84ee_cc52_1852, 17_025_800, 121);
pub const GOLDEN_AMO_SW: Pin = (0xcf7a_761a_75f3_0d55, 38_219_600, 210);
pub const GOLDEN_AMO_NET: Pin = (0x6be9_dbae_6c3a_0418, 24_681_800, 141);
pub const GOLDEN_MEMBER_PGAS: Pin = (0x2a3b_86b6_3bcd_b953, 22_274_800, 143);
pub const GOLDEN_MEMBER_SW: Pin = (0xab7a_5c91_f2f5_d1e3, 61_046_200, 268);
pub const GOLDEN_MEMBER_NET: Pin = (0x4136_753e_43d6_1c44, 48_286_200, 220);
pub const GOLDEN_FREE_PGAS: Pin = (0xf7d4_a909_e9ee_a527, 18_154_000, 96);
pub const GOLDEN_FREE_SW: Pin = (0xcb9a_0339_bfb1_2c4e, 74_072_600, 222);
pub const GOLDEN_FREE_NET: Pin = (0x77e9_9bbf_8e38_8e5e, 65_691_800, 190);
/// `shard_pin.rs::send_queue_burst_is_lane_invariant` (sequential engine).
pub const GOLDEN_SEND_QUEUE: Pin = (0xfacb_4a76_1b7a_a529, 23_548_000, 10_752);
