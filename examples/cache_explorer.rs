//! Interactive-style cache exploration: how one kernel's miss rate responds
//! to each transformation on a cache geometry of your choosing — a small
//! "what would the paper's compiler do on *my* machine?" tool.
//!
//! ```text
//! cargo run --release --example cache_explorer -- [jacobi|redblack|resid] \
//!     [--n 341] [--nk 30] [--l1-kb 16] [--line 32] [--ways 1]
//! ```

use tiling3d::cachesim::{CacheConfig, Hierarchy, WritePolicy};
use tiling3d::core::{plan, CacheSpec, Transform};
use tiling3d::stencil::kernels::Kernel;

fn flag(args: &[String], key: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kernel = match args.first().map(String::as_str) {
        Some("redblack") => Kernel::RedBlack,
        Some("resid") => Kernel::Resid,
        _ => Kernel::Jacobi,
    };
    let n = flag(&args, "--n", 341);
    let nk = flag(&args, "--nk", 30);
    let l1 = CacheConfig {
        size_bytes: flag(&args, "--l1-kb", 16) * 1024,
        line_bytes: flag(&args, "--line", 32),
        ways: flag(&args, "--ways", 1),
        write_policy: WritePolicy::WriteAround,
    };
    l1.validate().expect("invalid L1 geometry");
    let spec = CacheSpec::from_bytes(l1.size_bytes);

    println!(
        "{} on {n}x{n}x{nk}; L1 = {}KB, {}B lines, {}-way ({} doubles)",
        kernel.name(),
        l1.size_bytes / 1024,
        l1.line_bytes,
        l1.ways,
        spec.elements
    );
    println!(
        "\n{:<10}{:>12}{:>14}{:>10}{:>10}{:>12}",
        "transform", "tile", "padded dims", "L1 miss%", "L2 miss%", "mem overhead"
    );
    for t in Transform::ALL {
        let p = plan(t, spec, n, n, &kernel.shape());
        let mut h = Hierarchy::new(l1, CacheConfig::ULTRASPARC2_L2);
        kernel.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut h);
        let overhead = tiling3d::core::memory_overhead_pct(n, n, nk, p.padded_di, p.padded_dj);
        println!(
            "{:<10}{:>12}{:>14}{:>10.2}{:>10.2}{:>11.1}%",
            t.name(),
            p.tile.map_or("-".into(), |(a, b)| format!("{a}x{b}")),
            format!("{}x{}", p.padded_di, p.padded_dj),
            h.l1_miss_rate_pct(),
            h.l2_miss_rate_pct(),
            overhead
        );
    }
    println!("\ntry pathological sizes (--n 256, --n 320, --n 341) or higher --ways to");
    println!("watch conflict misses appear and disappear.");
}
