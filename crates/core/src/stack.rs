//! The per-locality state the GAS runs on, written once. Both concrete
//! worlds — [`crate::SimData`] and the runtime's world — embed one
//! [`Stack`] and hand it to the GAS through [`crate::GasWorld::stack`].
//! The vectors are indexed by locality.

use crate::{GasConfig, GasLocal, GasMode, GasStats, Gva, PgasMap};
use netsim::{Cluster, LocalityId, NetConfig, PhysAddr, RdmaTarget, ServerPool, Time};
use photon::{PhotonConfig, PhotonEndpoint};

/// The GAS stack of a simulated cluster.
pub struct Stack {
    /// The simulated cluster: wire, NICs, arenas and counters.
    pub cluster: Cluster,
    /// Photon endpoints, one per locality.
    pub eps: Vec<PhotonEndpoint>,
    /// GAS state, one per locality.
    pub gas: Vec<GasLocal>,
    /// CPU worker pools, one per locality: GAS software handlers contend
    /// there with the runtime's actions.
    pub cpus: Vec<ServerPool>,
    /// The PGAS initiators' address table, written by allocation and, under
    /// PGAS, by a runtime free. Targets resolve blocks through their BTTs.
    pub pgas: PgasMap,
    /// The active GAS mode (uniform across the cluster).
    pub mode: GasMode,
}

impl Stack {
    /// A stack of `n` localities. The fabric is `net` as `mode` runs it
    /// ([`GasMode::net`]: no NIC table but under AGAS-NET); each locality
    /// gets an arena of `mem_limit` bytes and a pool of `workers` cores.
    pub fn new(
        n: usize,
        mode: GasMode,
        net: NetConfig,
        photon_cfg: PhotonConfig,
        gas_cfg: GasConfig,
        workers: usize,
        mem_limit: usize,
    ) -> Stack {
        Stack {
            cluster: Cluster::new(n, mode.net(net), mem_limit),
            eps: (0..n).map(|_| PhotonEndpoint::new(photon_cfg)).collect(),
            gas: (0..n).map(|_| GasLocal::new(gas_cfg)).collect(),
            cpus: (0..n).map(|_| ServerPool::new(workers)).collect(),
            pgas: PgasMap::new(),
            mode,
        }
    }

    /// Number of localities.
    pub fn n_localities(&self) -> u32 {
        self.cluster.len() as u32
    }

    /// Does this cluster translate in the NIC? Not over a fabric without a
    /// table (`xlate_capacity: 0`, [`GasMode::net`]): PGAS and AGAS-SW.
    pub fn nic_table(&self) -> bool {
        self.cluster.config.xlate_capacity > 0
    }

    /// Aggregate GAS stats across localities.
    pub fn total_gas_stats(&self) -> GasStats {
        let mut total = GasStats::default();
        self.gas.iter().for_each(|g| total.merge(&g.stats));
        total
    }

    /// Where block `gva` lives now: the locality whose BTT holds it
    /// resident and its base there, in every GAS mode. The driver-side
    /// answer to "which locality holds this block, and at what address"
    /// (setup, inspection, and the stencil's face reads); the GAS protocol
    /// itself never asks it. Panics on an unknown block, or one resident
    /// nowhere (mid-migration).
    pub fn locate(&self, gva: Gva) -> (LocalityId, PhysAddr) {
        let key = gva.block_key();
        let owner = (0..self.n_localities())
            .find(|&l| self.gas[l as usize].btt.is_resident(key))
            .expect("no resident owner");
        let entry = self.gas[owner as usize].btt.lookup(key);
        (owner, entry.expect("a resident block has a BTT entry").base)
    }

    /// Every in-flight record, one `locality {l}: …` line each: GAS ops
    /// ([`GasLocal::op_snapshots`], aged at `now`) and the send-queue line;
    /// with `wire` (quiescence checks), also outstanding PWC ops and
    /// requests parked at the NIC. Empty when the stack is quiescent.
    pub fn in_flight_report(&self, now: Time, wire: bool) -> Vec<String> {
        let mut out = Vec::new();
        for (l, g) in (0u32..).zip(&self.gas) {
            let mut line = |s: String| out.push(format!("locality {l}: {s}"));
            g.op_snapshots().iter().for_each(|s| line(s.render(now)));
            if let Some(s) = g.send_queue_report() {
                line(s);
            }
            if !wire {
                continue;
            }
            let pwc = self.eps[l as usize].outstanding_ops();
            if pwc != 0 {
                line(format!("{pwc} outstanding PWC op(s)"));
            }
            for (initiator, req) in self.cluster.loc(l).nic.parked.iter() {
                let at = match req.at() {
                    RdmaTarget::Virt { block, offset } => {
                        format!("gva={}", Gva(block).with_offset(offset))
                    }
                    RdmaTarget::Phys(addr) => format!("phys={addr:#x}"),
                };
                line(format!(
                    "parked request {} from locality {initiator} {at}",
                    req.op
                ));
            }
        }
        out
    }
}
