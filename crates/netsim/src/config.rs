//! Cost-model parameters for the simulated cluster.
//!
//! The network follows the LogGP family: per-message wire latency `L`, CPU
//! send/receive overheads `o`, an inter-message injection gap `g`, and a
//! per-byte gap `G` (the reciprocal of link bandwidth). On top of LogGP the
//! NIC model adds the parameters specific to this paper's contribution: the
//! cost of one NIC-resident virtual-address translation (`xlate_ns`), the
//! capacity of the NIC translation table, and whether a NIC holding a
//! forwarding entry for a migrated block retransmits in-flight operations or
//! NACKs them back to the initiator.

use crate::time::{Time, NS};

/// Picoseconds per byte at a given bandwidth in GB/s (decimal gigabytes).
///
/// `G = 1000 / GBps` ps/B, e.g. 6.9 GB/s ⇒ ~145 ps/B.
pub const fn ps_per_byte_from_gbps(gb_per_s_times_10: u64) -> u64 {
    // Argument is GB/s × 10 so presets can express e.g. 6.9 GB/s exactly.
    10_000 / gb_per_s_times_10
}

/// A shared-memory domain: groups of co-located localities whose
/// intra-domain puts/gets/AMOs bypass the NIC entirely.
///
/// Localities are grouped by index: localities `[k·size, (k+1)·size)` share
/// domain `k` (the usual rank-to-node mapping of `size` ranks per node).
/// An intra-domain operation pays a fixed load/store cost plus a per-byte
/// memory-copy cost and sends **zero wire messages** — the MPI-3
/// shared-memory short-circuit applied to the GAS issue path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShmDomain {
    /// Localities per domain (co-located ranks per node). `size <= 1`
    /// means every locality is alone and nothing short-circuits.
    pub size: u32,
    /// Fixed cost of one cross-process load/store access (mapping lookup +
    /// cache-coherent access), paid once per intra-domain operation.
    pub load_store: Time,
    /// Per-byte cost of the shared-memory copy, in picoseconds per byte.
    pub per_byte_ps: u64,
}

impl ShmDomain {
    /// A DDR4-class intra-node model: ~90 ns access, ~12 GB/s effective
    /// cross-socket copy bandwidth.
    pub fn node(size: u32) -> ShmDomain {
        ShmDomain {
            size,
            load_store: Time::from_ns(90),
            per_byte_ps: 83, // ~12 GB/s
        }
    }

    /// Are `a` and `b` in the same domain (and distinct processes that can
    /// still reach each other through the mapping)?
    #[inline]
    pub fn same_domain(&self, a: u32, b: u32) -> bool {
        self.size > 1 && a / self.size == b / self.size
    }

    /// Time for one intra-domain access of `n` payload bytes.
    #[inline]
    pub fn access(&self, n: u32) -> Time {
        self.load_store + Time::from_ps(n as u64 * self.per_byte_ps)
    }
}

impl Default for ShmDomain {
    fn default() -> ShmDomain {
        ShmDomain::node(4)
    }
}

/// When a locality's per-peer parcel batch leaves as one wire message.
///
/// `None` at the embedding layer (`parcel_rt::RtConfig::ring`) means every
/// parcel is its own message — the schedules the golden trace pins are
/// built on. A batch flushes when it reaches `doorbell_batch` parcels or
/// `max_bytes` wire bytes; otherwise the timer its first parcel armed
/// flushes it `doorbell_delay` later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingConfig {
    /// Parcel count that flushes a batch.
    pub doorbell_batch: usize,
    /// Longest a partial batch waits before it is sent anyway.
    pub doorbell_delay: Time,
    /// Byte budget per batch: a push that brings its wire bytes to or
    /// above this flushes, bounding added latency for bulk traffic.
    pub max_bytes: u32,
}

impl Default for RingConfig {
    fn default() -> RingConfig {
        RingConfig {
            doorbell_batch: 16,
            doorbell_delay: Time::from_us(5),
            max_bytes: 8192,
        }
    }
}

/// Parameters of the simulated network, NICs, and per-locality CPU model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetConfig {
    /// One-way wire latency `L`.
    pub latency: Time,
    /// Initiator-side CPU overhead `o_send` to post any network operation.
    pub o_send: Time,
    /// Target-side CPU overhead `o_recv` charged when software handles a
    /// message (two-sided path only; one-sided RDMA never pays it).
    pub o_recv: Time,
    /// Per-message NIC injection gap `g` (serialization of the descriptor).
    pub msg_gap: Time,
    /// Per-byte gap `G`, in picoseconds per byte (reciprocal bandwidth).
    pub gap_per_byte_ps: u64,
    /// Wire size of a control message (acks, NACKs, RTS/CTS, directory ops).
    pub ctrl_bytes: u32,
    /// Header bytes added to every user message on the wire.
    pub header_bytes: u32,
    /// Latency of a loop-back delivery (same locality, no NIC involved).
    pub loopback: Time,
    /// One NIC translation-table lookup (the network-managed AGAS adder).
    pub xlate_ns: Time,
    /// Capacity of the NIC translation table, in entries. Sweeping this is
    /// experiment E6; `usize::MAX` models an unbounded table.
    pub xlate_capacity: usize,
    /// When an operation reaches a NIC holding a forwarding entry for a
    /// migrated block: retransmit toward the new owner (`true`, one extra
    /// hop) or NACK back to the initiator (`false`, ablation A3).
    pub nic_forwarding: bool,
    /// Maximum forwarding hops before the NIC gives up and NACKs.
    pub forward_ttl: u8,
    /// DMA engine cost per byte at the target (ps/B), modeling PCIe/memory
    /// copy bandwidth; applied to RDMA payloads and eager copies.
    pub dma_per_byte_ps: u64,
    /// NIC queue pairs per direction: messages occupy the earliest-free
    /// port, so rates scale with ports until the wire itself binds.
    pub nic_ports: usize,
    /// Fabric oversubscription factor `k`: the switch core's aggregate
    /// bandwidth is `n/k ×` one link (0 or 1 = full bisection, not
    /// modeled). Every non-loopback transit also reserves the shared core.
    pub oversubscription: u64,
    /// Maximum random extra wire latency per transit, in nanoseconds
    /// (0 = none). Nonzero jitter **reorders deliveries between pairs** —
    /// the failure-injection knob the protocol property tests use. Drawn
    /// from the engine's deterministic PRNG, so runs stay reproducible.
    pub jitter_ns: u64,
    /// Shared-memory domains of co-located localities (`None` = every
    /// locality is its own node and all remote traffic takes the NIC).
    /// Intra-domain puts/gets/AMOs short-circuit the fabric entirely.
    pub shm: Option<ShmDomain>,
}

impl NetConfig {
    /// 2016-era FDR InfiniBand-like fabric (the paper's testbed class):
    /// ~1 µs latency, ~6.9 GB/s per link, 150 ns CPU overheads.
    pub fn ib_fdr() -> NetConfig {
        NetConfig {
            latency: Time::from_ns(1_000),
            o_send: Time::from_ns(150),
            o_recv: Time::from_ns(200),
            msg_gap: Time::from_ns(40),
            gap_per_byte_ps: ps_per_byte_from_gbps(69), // 6.9 GB/s
            ctrl_bytes: 64,
            header_bytes: 40,
            loopback: Time::from_ns(120),
            xlate_ns: Time::from_ns(60),
            xlate_capacity: usize::MAX,
            nic_forwarding: true,
            forward_ttl: 2,
            // Placement overlaps reception on real NICs; this is only the
            // residual memory-side cost beyond the rx serialization.
            dma_per_byte_ps: 8, // ~125 GB/s
            nic_ports: 1,
            oversubscription: 1,
            jitter_ns: 0,
            shm: None,
        }
    }

    /// Commodity 10 GbE-like fabric: higher latency, lower bandwidth.
    pub fn ethernet_10g() -> NetConfig {
        NetConfig {
            latency: Time::from_ns(12_000),
            o_send: Time::from_ns(900),
            o_recv: Time::from_ns(1_200),
            msg_gap: Time::from_ns(300),
            gap_per_byte_ps: ps_per_byte_from_gbps(12), // 1.2 GB/s
            ctrl_bytes: 64,
            header_bytes: 66,
            loopback: Time::from_ns(250),
            xlate_ns: Time::from_ns(120),
            xlate_capacity: usize::MAX,
            nic_forwarding: true,
            forward_ttl: 2,
            dma_per_byte_ps: 12,
            nic_ports: 1,
            oversubscription: 1,
            jitter_ns: 0,
            shm: None,
        }
    }

    /// Cray Gemini/uGNI-class fabric (the paper group's other testbed):
    /// sub-microsecond latency, ~8 GB/s links, cheap small messages.
    pub fn cray_gemini() -> NetConfig {
        NetConfig {
            latency: Time::from_ns(700),
            o_send: Time::from_ns(120),
            o_recv: Time::from_ns(160),
            msg_gap: Time::from_ns(25),
            gap_per_byte_ps: ps_per_byte_from_gbps(80), // 8 GB/s
            ctrl_bytes: 64,
            header_bytes: 32,
            loopback: Time::from_ns(100),
            xlate_ns: Time::from_ns(60),
            xlate_capacity: usize::MAX,
            nic_forwarding: true,
            forward_ttl: 2,
            dma_per_byte_ps: 8,
            nic_ports: 1,
            oversubscription: 1,
            jitter_ns: 0,
            shm: None,
        }
    }

    /// An idealized fabric with tiny constants — useful in unit tests where
    /// hand-computing expected timestamps must stay tractable.
    pub fn ideal() -> NetConfig {
        NetConfig {
            latency: Time::from_ns(100),
            o_send: Time::from_ns(10),
            o_recv: Time::from_ns(10),
            msg_gap: Time::from_ns(10),
            gap_per_byte_ps: NS, // 1 ns/B = 1 GB/s
            ctrl_bytes: 8,
            header_bytes: 0,
            loopback: Time::from_ns(20),
            xlate_ns: Time::from_ns(5),
            xlate_capacity: usize::MAX,
            nic_forwarding: true,
            forward_ttl: 2,
            dma_per_byte_ps: 0,
            nic_ports: 1,
            oversubscription: 1,
            jitter_ns: 0,
            shm: None,
        }
    }

    /// Wire serialization time of `n` payload bytes plus per-message costs,
    /// i.e. the period a NIC port is busy injecting or extracting a message.
    #[inline]
    pub fn serialize(&self, n: u32) -> Time {
        let bytes = n as u64 + self.header_bytes as u64;
        self.msg_gap + Time::from_ps(bytes * self.gap_per_byte_ps)
    }

    /// Target-side DMA time for `n` bytes.
    #[inline]
    pub fn dma(&self, n: u32) -> Time {
        Time::from_ps(n as u64 * self.dma_per_byte_ps)
    }

    /// Asymptotic link bandwidth in bytes per second.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        1e12 / self.gap_per_byte_ps as f64
    }
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig::ib_fdr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_config_defaults_mirror_the_old_coalescer() {
        let c = RingConfig::default();
        assert_eq!(c.doorbell_batch, 16);
        assert_eq!(c.doorbell_delay, Time::from_us(5));
        assert_eq!(c.max_bytes, 8192);
    }

    #[test]
    fn gbps_conversion() {
        // 6.9 GB/s => 10000/69 = 144 ps/B (integer floor).
        assert_eq!(ps_per_byte_from_gbps(69), 144);
        // 1 GB/s => 1000 ps/B.
        assert_eq!(ps_per_byte_from_gbps(10), 1000);
    }

    #[test]
    fn serialize_accounts_for_header_and_gap() {
        let cfg = NetConfig::ideal();
        // ideal: header 0, gap 10ns, 1 ns/B.
        assert_eq!(cfg.serialize(0), Time::from_ns(10));
        assert_eq!(cfg.serialize(100), Time::from_ns(110));
    }

    #[test]
    fn fdr_is_faster_than_ethernet() {
        let ib = NetConfig::ib_fdr();
        let eth = NetConfig::ethernet_10g();
        assert!(ib.latency < eth.latency);
        assert!(ib.serialize(4096) < eth.serialize(4096));
        assert!(ib.bandwidth_bytes_per_sec() > eth.bandwidth_bytes_per_sec());
    }

    #[test]
    fn dma_scales_linearly() {
        let cfg = NetConfig::ib_fdr();
        assert_eq!(cfg.dma(0), Time::ZERO);
        assert_eq!(cfg.dma(2000).ps(), 2 * cfg.dma(1000).ps());
    }

    #[test]
    fn gemini_is_lower_latency_higher_bandwidth_than_fdr() {
        let ib = NetConfig::ib_fdr();
        let cray = NetConfig::cray_gemini();
        assert!(cray.latency < ib.latency);
        assert!(cray.bandwidth_bytes_per_sec() > ib.bandwidth_bytes_per_sec());
    }

    #[test]
    fn default_is_fdr() {
        assert_eq!(NetConfig::default(), NetConfig::ib_fdr());
    }
}
