//! Bulk-synchronous halo exchange (the LULESH-class application proxy):
//! per-iteration time across the three GAS modes and two fabrics.
//!
//! ```sh
//! cargo run --release --example heat_stencil [px] [py] [tile] [iters]
//! ```

use nmvgas::workloads::stencil::{self, StencilConfig};
use nmvgas::{GasMode, NetConfig, Runtime, Time};

fn main() {
    let mut args = std::env::args().skip(1);
    let px: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let py: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let tile: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(64);
    let iters: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);

    let cfg = StencilConfig {
        grid: vec![px, py],
        tile,
        iters,
        flop_time: Time::from_us(40),
    };
    let n = 16usize.min((px * py) as usize).max(2);

    println!("2-D stencil: {px}×{py} tiles of {tile}×{tile} cells, {iters} iters, {n} localities");
    println!(
        "halo traffic per iteration: {:.1} KiB",
        cfg.halo_bytes_per_iter() as f64 / 1024.0
    );

    for (fabric, net) in [
        ("ib-fdr", NetConfig::ib_fdr()),
        ("10GbE", NetConfig::ethernet_10g()),
    ] {
        println!("\nfabric: {fabric}");
        println!("{:<10} {:>14} {:>14}", "mode", "total", "per-iter");
        for mode in GasMode::ALL {
            let mut b = Runtime::builder(n, mode).net(net);
            stencil::register_actions(&mut b);
            let mut rt = b.boot();
            let tiles = stencil::alloc_tiles(&mut rt, &cfg);
            let res = stencil::run(&mut rt, &cfg, &tiles);
            println!(
                "{:<10} {:>14} {:>14}",
                mode.label(),
                format!("{}", res.elapsed),
                format!("{}", res.per_iter)
            );
        }
    }
}
