//! A halo-exchange stencil in two or three dimensions — the LULESH-class
//! application proxy (experiments E9 and E9b).
//!
//! A grid of tiles (one GAS block each, distributed cyclically) iterates:
//! every tile writes each of its faces into the facing neighbor's ghost
//! slot with `memput` (periodic boundaries), a cluster-wide and-gate fires,
//! every tile runs a compute action (charging `flop_time` of CPU per tile),
//! and the next iteration begins. Surface-to-volume neighbor traffic +
//! bulk-synchronous steps: the communication pattern the paper's intro
//! class of applications (shock hydro, AMR) generates. A 2-D grid keeps
//! tests cheap; a 3-D one has the surface-to-volume ratio of the
//! shock-hydro codes themselves.
//!
//! Tile block layout (`u64` cells) for a `d`-dimensional grid and tile
//! edge `T`: `T^d` interior cells, axis 0 fastest, then `2d` ghost faces of
//! `T^(d-1)` cells each, in the order −axis 0, +axis 0, −axis 1, …. Face
//! `f` of a tile lands in its neighbor's ghost `f ^ 1`: a tile's −x face
//! fills its −x neighbor's +x ghost.

use agas::{Distribution, GlobalArray};
use netsim::{Engine, Time};
use parcel_rt::{ArgReader, Runtime, RuntimeBuilder, World};
use std::cell::RefCell;
use std::rc::Rc;

/// Stencil configuration.
#[derive(Clone, Debug)]
pub struct StencilConfig {
    /// Tile-grid extents in tiles, axis 0 first: two for the 2-D proxy,
    /// three for the 3-D one.
    pub grid: Vec<u32>,
    /// Tile edge length, in cells.
    pub tile: u32,
    /// Iterations to run.
    pub iters: u32,
    /// CPU time of one tile's compute step.
    pub flop_time: Time,
}

/// Stencil outcome.
#[derive(Clone, Copy, Debug)]
pub struct StencilResult {
    /// Iterations completed.
    pub iters: u32,
    /// Total simulated time.
    pub elapsed: Time,
    /// Mean time per iteration.
    pub per_iter: Time,
    /// Halo bytes moved per iteration (`2d` faces × tiles × `T^(d-1)` × 8).
    pub halo_bytes_per_iter: u64,
}

impl StencilConfig {
    /// Tiles in the grid.
    pub fn tiles(&self) -> u64 {
        self.grid.iter().map(|&g| g as u64).product()
    }

    /// Faces per tile (`2d`).
    fn faces(&self) -> usize {
        2 * self.grid.len()
    }

    /// Interior cells per tile (`T^d`).
    fn interior_cells(&self) -> u64 {
        (self.tile as u64).pow(self.grid.len() as u32)
    }

    /// Cells per face (`T^(d-1)`).
    fn face_cells(&self) -> u64 {
        self.interior_cells() / self.tile as u64
    }

    /// Cells per tile block (interior + `2d` ghost faces).
    pub fn cells_per_block(&self) -> u64 {
        self.interior_cells() + self.faces() as u64 * self.face_cells()
    }

    /// Block size class for a tile.
    pub fn block_class(&self) -> u8 {
        let bytes = self.cells_per_block() * 8;
        (64 - (bytes - 1).leading_zeros()) as u8
    }

    /// Halo bytes every iteration moves.
    pub fn halo_bytes_per_iter(&self) -> u64 {
        self.tiles() * self.faces() as u64 * self.face_cells() * 8
    }

    /// Byte offset of ghost face `f` in a tile block.
    pub fn ghost_offset(&self, f: usize) -> u64 {
        (self.interior_cells() + f as u64 * self.face_cells()) * 8
    }

    /// Face `f`'s cells, copied out of a tile's interior bytes in the
    /// order the neighbor's ghost stores them (lowest remaining axis
    /// fastest).
    fn face_bytes(&self, interior: &[u8], f: usize) -> Vec<u8> {
        let t = self.tile as u64;
        let stride = t.pow((f / 2) as u32);
        // The face's coordinate on its axis: 0 on a − face, T − 1 on a +.
        let at = (f % 2) as u64 * (t - 1);
        let mut out = Vec::with_capacity(self.face_cells() as usize * 8);
        for i in 0..self.face_cells() {
            let cell = ((i / stride * t + at) * stride + i % stride) as usize;
            out.extend_from_slice(&interior[cell * 8..cell * 8 + 8]);
        }
        out
    }

    /// The tile across face `f` of tile `idx` (periodic).
    fn neighbor(&self, idx: u64, f: usize) -> u64 {
        let axis = f / 2;
        let stride: u64 = self.grid[..axis].iter().map(|&g| g as u64).product();
        let extent = self.grid[axis] as u64;
        let c = idx / stride % extent;
        let step = if f.is_multiple_of(2) { extent - 1 } else { 1 };
        idx - c * stride + (c + step) % extent * stride
    }
}

/// Register the stencil compute action (before boot).
pub fn register_actions(b: &mut RuntimeBuilder) {
    b.register("stencil_compute", |eng, ctx| {
        // Charge the tile's compute time to this locality's workers, then
        // bump every interior cell (so iterations are observable) and reply.
        let mut r = ArgReader::new(&ctx.args);
        let flops = Time::from_ps(r.u64());
        let cells = r.u32() as u64;
        let now = eng.now();
        let (_, finish) = eng.state.cpus[ctx.loc as usize].admit(now, flops);
        eng.state.cluster.loc_mut(ctx.loc).counters.cpu_busy += flops;
        let base = ctx.base;
        let loc = ctx.loc;
        let ctx_cont = ctx.cont;
        eng.schedule_at(finish, move |eng| {
            let mem = eng.state.cluster.mem_mut(loc);
            for cell in 0..cells {
                mem.xor_u64(base + cell * 8, 1).expect("tile cell OOB");
            }
            if let Some(cont) = ctx_cont {
                parcel_rt::lco_set(eng, loc, cont, vec![]);
            }
        });
    });
}

/// Allocate the tile array.
pub fn alloc_tiles(rt: &mut Runtime, cfg: &StencilConfig) -> GlobalArray {
    rt.alloc(cfg.tiles(), cfg.block_class(), Distribution::Cyclic)
}

struct LoopState {
    cfg: StencilConfig,
    tiles: GlobalArray,
    compute: parcel_rt::ActionId,
    iter: u32,
    start: Time,
    result: Option<StencilResult>,
}

type Loop = Rc<RefCell<LoopState>>;

/// Run the stencil to completion; returns the measured result.
pub fn run(rt: &mut Runtime, cfg: &StencilConfig, tiles: &GlobalArray) -> StencilResult {
    let compute = rt
        .eng
        .state
        .registry_lookup("stencil_compute")
        .expect("stencil requires register_actions() before boot");
    let st = Rc::new(RefCell::new(LoopState {
        cfg: cfg.clone(),
        tiles: tiles.clone(),
        compute,
        iter: 0,
        start: rt.now(),
        result: None,
    }));
    exchange_phase(&mut rt.eng, st.clone());
    rt.run();
    let out = st.borrow_mut().result.take();
    out.expect("stencil did not complete")
}

/// One exchange phase: every tile memputs each face into the facing
/// neighbor's ghost slot; an and-gate over all puts gates the compute
/// phase.
fn exchange_phase(eng: &mut Engine<World>, st: Loop) {
    let (cfg, tiles) = {
        let s = st.borrow();
        (s.cfg.clone(), s.tiles.clone())
    };
    let interior_bytes = cfg.interior_cells() as usize * 8;
    let gate = parcel_rt::new_and(eng, 0, cfg.tiles() * cfg.faces() as u64);
    for idx in 0..cfg.tiles() {
        let (owner, base) = eng.state.locate(tiles.block(idx));
        for f in 0..cfg.faces() {
            let face = {
                let interior = eng.state.cluster.mem(owner).read(base, interior_bytes);
                cfg.face_bytes(interior.expect("tile OOB"), f)
            };
            let dst = tiles
                .block(cfg.neighbor(idx, f))
                .with_offset(cfg.ghost_offset(f ^ 1));
            let ctx = eng.state.new_completion(parcel_rt::Completion::Lco(gate));
            agas::ops::memput(eng, owner, dst, face, ctx);
        }
    }
    parcel_rt::attach_driver(eng, gate, move |eng, _| compute_phase(eng, st));
}

fn compute_phase(eng: &mut Engine<World>, st: Loop) {
    let (cfg, tiles, compute) = {
        let s = st.borrow();
        (s.cfg.clone(), s.tiles.clone(), s.compute)
    };
    let gate = parcel_rt::new_and(eng, 0, cfg.tiles());
    for i in 0..cfg.tiles() {
        let gva = tiles.block(i);
        let (owner, _) = eng.state.locate(gva);
        let args = parcel_rt::ArgWriter::new()
            .u64(cfg.flop_time.ps())
            .u32(cfg.interior_cells() as u32)
            .finish();
        parcel_rt::send_parcel(
            eng,
            owner,
            parcel_rt::Parcel {
                target: gva,
                action: compute,
                args,
                cont: Some(gate),
                src: owner,
                hops: 0,
            },
        );
    }
    parcel_rt::attach_driver(eng, gate, move |eng, _| iteration_done(eng, st));
}

fn iteration_done(eng: &mut Engine<World>, st: Loop) {
    let more = {
        let mut s = st.borrow_mut();
        s.iter += 1;
        s.iter < s.cfg.iters
    };
    if more {
        return exchange_phase(eng, st);
    }
    let mut s = st.borrow_mut();
    let elapsed = eng.now() - s.start;
    s.result = Some(StencilResult {
        iters: s.cfg.iters,
        elapsed,
        per_iter: elapsed / s.cfg.iters as u64,
        halo_bytes_per_iter: s.cfg.halo_bytes_per_iter(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use agas::GasMode;

    fn small(grid: &[u32]) -> StencilConfig {
        StencilConfig {
            grid: grid.to_vec(),
            tile: if grid.len() == 2 { 8 } else { 4 },
            iters: 3,
            flop_time: Time::from_us(5),
        }
    }

    fn boot(n: usize, mode: GasMode, cfg: &StencilConfig) -> (Runtime, GlobalArray) {
        let mut b = Runtime::builder(n, mode);
        register_actions(&mut b);
        let mut rt = b.boot();
        let tiles = alloc_tiles(&mut rt, cfg);
        (rt, tiles)
    }

    fn completes_all_modes(grid: &[u32]) {
        for mode in GasMode::ALL {
            let cfg = small(grid);
            let (mut rt, tiles) = boot(4, mode, &cfg);
            let res = run(&mut rt, &cfg, &tiles);
            assert_eq!(res.iters, 3, "{grid:?} {mode:?}");
            assert!(res.per_iter > Time::ZERO, "{grid:?} {mode:?}");
            rt.assert_quiescent();
        }
    }

    #[test]
    fn stencil_completes_all_modes() {
        completes_all_modes(&[3, 2]);
    }

    #[test]
    fn stencil3d_completes_all_modes() {
        completes_all_modes(&[2, 2, 2]);
    }

    #[test]
    fn compute_step_bumps_cells() {
        for grid in [&[3, 2][..], &[2, 2, 2]] {
            let cfg = small(grid);
            let (mut rt, tiles) = boot(2, GasMode::AgasNetwork, &cfg);
            let _ = run(&mut rt, &cfg, &tiles);
            // 3 iterations of xor(1): every interior cell ends at 1.
            let block = rt.read_block(tiles.block(0));
            let last = cfg.interior_cells() as usize * 8 - 8;
            for c in [0, last] {
                let v = u64::from_le_bytes(block[c..c + 8].try_into().unwrap());
                assert_eq!(v, 1, "{grid:?} cell {c}");
            }
        }
    }

    /// Every ghost face of every tile holds the facing neighbor's face,
    /// also after a tile has migrated off its home (so the exchange must
    /// read it where it lives, not where it was allocated).
    #[test]
    fn ghosts_hold_neighbor_edges() {
        for grid in [&[3, 2][..], &[2, 2, 2]] {
            for mode in [GasMode::AgasSoftware, GasMode::AgasNetwork] {
                let cfg = StencilConfig {
                    iters: 2,
                    ..small(grid)
                };
                let (mut rt, tiles) = boot(4, mode, &cfg);
                let moved = tiles.block(1);
                rt.migrate(moved.home(), moved, (moved.home() + 2) % 4);
                rt.run();
                assert_ne!(rt.eng.state.locate(moved).0, moved.home());
                // Every interior cell distinct: (tile, cell).
                for i in 0..cfg.tiles() {
                    for c in 0..cfg.interior_cells() {
                        let v = i << 32 | c << 1;
                        rt.write_block(tiles.block(i), c * 8, &v.to_le_bytes());
                    }
                }
                let _ = run(&mut rt, &cfg, &tiles);
                rt.assert_quiescent();
                // The last compute step flipped bit 0 of every interior
                // cell after the last exchange copied it.
                let interior = cfg.interior_cells() as usize * 8;
                let face_len = cfg.face_cells() as usize * 8;
                for i in 0..cfg.tiles() {
                    let block = rt.read_block(tiles.block(i));
                    for g in 0..cfg.faces() {
                        let theirs = rt.read_block(tiles.block(cfg.neighbor(i, g)));
                        let want: Vec<u8> = cfg
                            .face_bytes(&theirs[..interior], g ^ 1)
                            .chunks(8)
                            .flat_map(|c| {
                                (u64::from_le_bytes(c.try_into().unwrap()) ^ 1).to_le_bytes()
                            })
                            .collect();
                        let off = cfg.ghost_offset(g) as usize;
                        assert_eq!(
                            block[off..off + face_len],
                            want,
                            "{grid:?} {mode:?} tile {i} ghost {g}"
                        );
                    }
                }
            }
        }
    }

    /// One ghost by hand: on a periodic 2×2×2 grid tile 0's −x neighbor
    /// is tile 1, whose +x face lands in tile 0's −x ghost (slot 0).
    #[test]
    fn ghost_faces_carry_neighbor_cells() {
        let cfg = StencilConfig {
            iters: 1,
            ..small(&[2, 2, 2])
        };
        let (mut rt, tiles) = boot(2, GasMode::AgasNetwork, &cfg);
        // Fill each tile's interior with its index + 7.
        for i in 0..cfg.tiles() {
            for c in 0..cfg.interior_cells() {
                rt.write_block(tiles.block(i), c * 8, &(i + 7).to_le_bytes());
            }
        }
        let _ = run(&mut rt, &cfg, &tiles);
        let t0 = rt.read_block(tiles.block(0));
        let off = cfg.ghost_offset(0) as usize;
        let v = u64::from_le_bytes(t0[off..off + 8].try_into().unwrap());
        assert_eq!(v, 1 + 7);
    }

    /// The layout by hand: interior cell `k` holds `k`, a face lists its
    /// cells lowest remaining axis fastest, and neighbors wrap around.
    #[test]
    fn faces_and_neighbors_follow_the_layout() {
        let cells = |cfg: &StencilConfig, f| -> Vec<u64> {
            let interior: Vec<u8> = (0..cfg.interior_cells())
                .flat_map(u64::to_le_bytes)
                .collect();
            let face = cfg.face_bytes(&interior, f);
            face.chunks(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        let flat = StencilConfig {
            tile: 3,
            ..small(&[3, 2])
        };
        assert_eq!(cells(&flat, 0), [0, 3, 6]);
        assert_eq!(cells(&flat, 1), [2, 5, 8]);
        assert_eq!(cells(&flat, 2), [0, 1, 2]);
        assert_eq!(cells(&flat, 3), [6, 7, 8]);
        // Tile 4 of the 3×2 grid sits at (1, 1).
        let around: Vec<u64> = (0..4).map(|f| flat.neighbor(4, f)).collect();
        assert_eq!(around, [3, 5, 1, 1]);
        let cube = StencilConfig {
            tile: 2,
            ..small(&[2, 2, 3])
        };
        assert_eq!(cells(&cube, 0), [0, 2, 4, 6]);
        assert_eq!(cells(&cube, 3), [2, 3, 6, 7]);
        assert_eq!(cells(&cube, 5), [4, 5, 6, 7]);
        assert_eq!((cube.neighbor(0, 4), cube.neighbor(0, 5)), (8, 4));
    }

    #[test]
    fn per_iteration_time_is_stable() {
        let cfg = StencilConfig {
            iters: 6,
            ..small(&[3, 2])
        };
        let (mut rt, tiles) = boot(3, GasMode::Pgas, &cfg);
        let res = run(&mut rt, &cfg, &tiles);
        // Compute dominates: per-iter stays within 10x of flop_time.
        assert!(res.per_iter >= cfg.flop_time);
        assert!(res.per_iter < cfg.flop_time * 10, "{}", res.per_iter);
    }

    #[test]
    fn iterations_scale_time() {
        let elapsed = |iters| {
            let cfg = StencilConfig {
                iters,
                ..small(&[2, 2, 2])
            };
            let (mut rt, tiles) = boot(4, GasMode::Pgas, &cfg);
            run(&mut rt, &cfg, &tiles).elapsed
        };
        let (t1, t3) = (elapsed(1), elapsed(3));
        assert!(t3 > t1 * 2, "{t1} vs {t3}");
    }

    #[test]
    fn surface_to_volume_is_3d() {
        // 6 faces of T² vs 4 edges of T: the 3-D proxy moves T× more halo
        // per tile than the 2-D one at equal edge length.
        let (flat, cube) = (
            small(&[2, 4]),
            StencilConfig {
                tile: 8,
                ..small(&[2, 2, 2])
            },
        );
        assert_eq!(flat.halo_bytes_per_iter(), 8 * 4 * 8 * 8);
        assert_eq!(cube.halo_bytes_per_iter(), 8 * 6 * 64 * 8);
        assert_eq!(cube.cells_per_block(), 512 + 6 * 64);
    }
}
