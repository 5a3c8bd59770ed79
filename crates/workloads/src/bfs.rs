//! Message-driven breadth-first search — the irregular-application class
//! (distributed graph algorithms) that motivated HPX-5's runtime group.
//!
//! Label-correcting BFS in the message-driven idiom: a `relax(v, depth)`
//! parcel is sent *to vertex v's label* (a cell in a distributed GAS
//! array). The action compares-and-lowers the label and, on improvement,
//! spawns relax parcels to every neighbor. No barriers, no frontier
//! structure: termination is network quiescence (the engine running dry),
//! exactly how a message-driven runtime detects it.
//!
//! The graph *structure* (adjacency) is replicated read-only data, like the
//! program text; the *labels* are distributed mutable GAS state — so label
//! blocks can migrate mid-traversal and the algorithm must still converge.

use agas::{Distribution, GlobalArray};
use netsim::rng::Xoshiro256;
use netsim::Time;
use parcel_rt::{ArgReader, ArgWriter, Runtime, RuntimeBuilder};
use std::cell::RefCell;
use std::rc::Rc;

/// Unreached-vertex label.
pub const INFINITY: u64 = u64::MAX;

/// A replicated undirected graph structure (CSR).
#[derive(Clone, Debug)]
pub struct Graph {
    /// CSR row offsets (`n + 1` entries).
    pub offsets: Vec<u32>,
    /// CSR adjacency.
    pub edges: Vec<u32>,
}

impl Graph {
    /// Number of vertices.
    pub fn n(&self) -> u32 {
        self.offsets.len() as u32 - 1
    }

    /// Number of (directed) edges.
    pub fn m(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// A connected "small-world" graph: a ring plus `chords` random chords
    /// per vertex. Deterministic for a seed; always connected (the ring).
    pub fn small_world(n: u32, chords: u32, seed: u64) -> Graph {
        assert!(n >= 2);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        for v in 0..n {
            let w = (v + 1) % n;
            adj[v as usize].push(w);
            adj[w as usize].push(v);
        }
        for v in 0..n {
            for _ in 0..chords {
                let w = rng.next_below(n as u64) as u32;
                if w != v {
                    adj[v as usize].push(w);
                    adj[w as usize].push(v);
                }
            }
        }
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut edges = Vec::new();
        offsets.push(0);
        for v in 0..n {
            adj[v as usize].sort_unstable();
            adj[v as usize].dedup();
            edges.extend_from_slice(&adj[v as usize]);
            offsets.push(edges.len() as u32);
        }
        Graph { offsets, edges }
    }

    /// Sequential BFS oracle.
    pub fn bfs_oracle(&self, root: u32) -> Vec<u64> {
        let mut dist = vec![INFINITY; self.n() as usize];
        let mut queue = std::collections::VecDeque::new();
        dist[root as usize] = 0;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for &w in self.neighbors(v) {
                if dist[w as usize] == INFINITY {
                    dist[w as usize] = dist[v as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }
}

/// BFS configuration.
#[derive(Clone, Copy, Debug)]
pub struct BfsConfig {
    /// Vertices.
    pub vertices: u32,
    /// Random chords per vertex (graph density knob).
    pub chords: u32,
    /// Label-array block size class.
    pub block_class: u8,
    /// Root vertex.
    pub root: u32,
    /// Graph seed.
    pub seed: u64,
}

impl Default for BfsConfig {
    fn default() -> BfsConfig {
        BfsConfig {
            vertices: 1024,
            chords: 2,
            block_class: 12,
            root: 0,
            seed: 0xB_F5,
        }
    }
}

/// BFS outcome.
#[derive(Clone, Copy, Debug)]
pub struct BfsResult {
    /// Simulated traversal time.
    pub elapsed: Time,
    /// Relax actions executed.
    pub relaxations: u64,
    /// Traversed edges per second (TEPS; edges = graph edges, every BFS
    /// touches each at least once from one side).
    pub teps: f64,
}

/// Everything the relax action needs, installed after boot.
pub struct BfsState {
    /// The replicated graph.
    pub graph: Graph,
    /// The distributed label array.
    pub labels: GlobalArray,
    /// Relaxation counter.
    pub relaxations: std::cell::Cell<u64>,
}

/// Register the BFS relax action (before boot). The state slot is filled
/// after allocation via [`install`].
pub fn register_actions(b: &mut RuntimeBuilder, slot: Rc<RefCell<Option<BfsState>>>) {
    b.register("bfs_relax", move |eng, ctx| {
        let mut r = ArgReader::new(&ctx.args);
        let vertex = r.u32();
        let depth = r.u64();
        let (neighbors, labels) = {
            let st = slot.borrow();
            let st = st.as_ref().expect("BFS state not installed");
            st.relaxations.set(st.relaxations.get() + 1);
            (st.graph.neighbors(vertex).to_vec(), st.labels.clone())
        };
        // The label cell is inside the pinned target block.
        let phys = ctx.target_phys();
        let mem = eng.state.cluster.mem_mut(ctx.loc);
        let cur = u64::from_le_bytes(mem.read(phys, 8).unwrap().try_into().unwrap());
        if depth >= cur {
            return; // no improvement: the wave dies here
        }
        mem.write(phys, &depth.to_le_bytes()).unwrap();
        // Propagate to all neighbors.
        let relax = eng.state.registry_lookup("bfs_relax").unwrap();
        for w in neighbors {
            let target = labels.at_byte(w as u64 * 8);
            let args = ArgWriter::new().u32(w).u64(depth + 1).finish();
            parcel_rt::send_parcel(
                eng,
                ctx.loc,
                parcel_rt::Parcel {
                    target,
                    action: relax,
                    args,
                    cont: None,
                    src: ctx.loc,
                    hops: 0,
                },
            );
        }
    });
}

/// Allocate the label array (all `INFINITY`) and install the shared state.
pub fn install(rt: &mut Runtime, cfg: &BfsConfig, slot: &Rc<RefCell<Option<BfsState>>>) {
    let graph = Graph::small_world(cfg.vertices, cfg.chords, cfg.seed);
    let bytes = cfg.vertices as u64 * 8;
    let n_blocks = bytes.div_ceil(1 << cfg.block_class);
    let labels = rt.alloc(n_blocks, cfg.block_class, Distribution::Cyclic);
    for v in 0..cfg.vertices as u64 {
        let gva = labels.at_byte(v * 8);
        rt.write_block(gva.block_base(), gva.offset(), &INFINITY.to_le_bytes());
    }
    *slot.borrow_mut() = Some(BfsState {
        graph,
        labels,
        relaxations: std::cell::Cell::new(0),
    });
}

/// Run BFS from the configured root; the engine running dry is the
/// termination detection.
pub fn run(rt: &mut Runtime, cfg: &BfsConfig, slot: &Rc<RefCell<Option<BfsState>>>) -> BfsResult {
    let relax = rt
        .eng
        .state
        .registry_lookup("bfs_relax")
        .expect("BFS requires register_actions() before boot");
    let (target, m) = {
        let st = slot.borrow();
        let st = st.as_ref().expect("BFS state not installed");
        (st.labels.at_byte(cfg.root as u64 * 8), st.graph.m())
    };
    let t0 = rt.now();
    let args = ArgWriter::new().u32(cfg.root).u64(0).finish();
    rt.spawn(0, target, relax, args, None);
    rt.run();
    let elapsed = rt.now() - t0;
    let relaxations = slot.borrow().as_ref().unwrap().relaxations.get();
    BfsResult {
        elapsed,
        relaxations,
        teps: m as f64 / elapsed.as_secs_f64(),
    }
}

/// Read the computed labels back (driver-side).
pub fn read_labels(rt: &Runtime, slot: &Rc<RefCell<Option<BfsState>>>) -> Vec<u64> {
    let st = slot.borrow();
    let st = st.as_ref().unwrap();
    let n = st.graph.n() as u64;
    let mut out = Vec::with_capacity(n as usize);
    for v in 0..n {
        let gva = st.labels.at_byte(v * 8);
        let block = rt.read_block(gva.block_base());
        let off = gva.offset() as usize;
        out.push(u64::from_le_bytes(block[off..off + 8].try_into().unwrap()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use agas::GasMode;

    fn small() -> BfsConfig {
        BfsConfig {
            vertices: 200,
            chords: 2,
            block_class: 9, // 64 labels per block
            root: 7,
            seed: 99,
        }
    }

    #[test]
    fn graph_generator_is_connected_and_symmetric() {
        let g = Graph::small_world(100, 1, 3);
        assert_eq!(g.n(), 100);
        // Symmetry: w in adj(v) iff v in adj(w).
        for v in 0..100u32 {
            for &w in g.neighbors(v) {
                assert!(g.neighbors(w).contains(&v), "{v} -> {w} not symmetric");
            }
        }
        // Connectivity: oracle reaches everything.
        let dist = g.bfs_oracle(0);
        assert!(dist.iter().all(|&d| d != INFINITY));
    }

    #[test]
    fn bfs_matches_oracle_all_modes() {
        for mode in GasMode::ALL {
            let cfg = small();
            let slot = Rc::new(RefCell::new(None));
            let mut b = Runtime::builder(4, mode);
            register_actions(&mut b, slot.clone());
            let mut rt = b.boot();
            install(&mut rt, &cfg, &slot);
            let res = run(&mut rt, &cfg, &slot);
            let got = read_labels(&rt, &slot);
            let expect = slot.borrow().as_ref().unwrap().graph.bfs_oracle(cfg.root);
            assert_eq!(got, expect, "{mode:?}");
            assert!(res.relaxations >= cfg.vertices as u64, "{mode:?}");
            assert!(res.teps > 0.0);
        }
    }

    #[test]
    fn bfs_survives_migration_storm() {
        let cfg = small();
        let slot = Rc::new(RefCell::new(None));
        let mut b = Runtime::builder(4, GasMode::AgasNetwork);
        register_actions(&mut b, slot.clone());
        // Wire jitter reorders relax parcels, so labels are lowered out of
        // depth order and must still converge.
        let mut rt = b
            .net(netsim::NetConfig {
                jitter_ns: 800,
                ..netsim::NetConfig::ib_fdr()
            })
            .boot();
        install(&mut rt, &cfg, &slot);
        // Launch the traversal, then immediately churn every label block.
        let relax = rt.eng.state.registry_lookup("bfs_relax").unwrap();
        let target = slot
            .borrow()
            .as_ref()
            .unwrap()
            .labels
            .at_byte(cfg.root as u64 * 8);
        rt.spawn(
            0,
            target,
            relax,
            ArgWriter::new().u32(cfg.root).u64(0).finish(),
            None,
        );
        let blocks = slot.borrow().as_ref().unwrap().labels.blocks.clone();
        for (i, gva) in blocks.iter().enumerate() {
            rt.migrate(0, *gva, ((i as u32) + 1) % 4);
            rt.eng.run_steps(50);
        }
        rt.run();
        let got = read_labels(&rt, &slot);
        let expect = slot.borrow().as_ref().unwrap().graph.bfs_oracle(cfg.root);
        assert_eq!(got, expect, "migration corrupted the traversal");
    }

    #[test]
    fn bfs_works_over_isir_transport() {
        let cfg = small();
        let slot = Rc::new(RefCell::new(None));
        let mut b = Runtime::builder(3, GasMode::AgasSoftware);
        register_actions(&mut b, slot.clone());
        let mut rt = b
            .rt_config(parcel_rt::RtConfig {
                transport: parcel_rt::Transport::Isir,
                ..parcel_rt::RtConfig::default()
            })
            .boot();
        install(&mut rt, &cfg, &slot);
        run(&mut rt, &cfg, &slot);
        let got = read_labels(&rt, &slot);
        let expect = slot.borrow().as_ref().unwrap().graph.bfs_oracle(cfg.root);
        assert_eq!(got, expect);
    }

    #[test]
    fn denser_graph_relaxes_more() {
        let run_with = |chords| {
            let cfg = BfsConfig { chords, ..small() };
            let slot = Rc::new(RefCell::new(None));
            let mut b = Runtime::builder(4, GasMode::Pgas);
            register_actions(&mut b, slot.clone());
            let mut rt = b.boot();
            install(&mut rt, &cfg, &slot);
            run(&mut rt, &cfg, &slot).relaxations
        };
        assert!(run_with(4) > run_with(1));
    }
}
