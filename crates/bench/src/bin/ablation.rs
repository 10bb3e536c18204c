//! Ablations beyond the paper (DESIGN.md section 7): how the paper's
//! conclusions shift with cache associativity, line size, write policy,
//! and the GcdPad tile depth (ATD/TK).
//!
//! ```text
//! cargo run --release -p tiling3d-bench --bin ablation -- assoc|line|write|atd|threads [--n 300 --nk 30 --jobs N]
//! ```
//!
//! All simulation sweeps shard their independent configurations across the
//! `--jobs` worker pool; the wall-clock `threads` sweep is itself the
//! measurement and always runs alone.

use std::fmt::Write as _;
use std::time::Instant;

use tiling3d_bench::{driver, extent_flag, simulate, SimPool, SweepConfig};
use tiling3d_cachesim::{CacheConfig, Hierarchy, WritePolicy};
use tiling3d_core::{plan, CacheSpec, Transform};
use tiling3d_grid::{fill_random, Array3};
use tiling3d_loopnest::TileDims;
use tiling3d_obs::flags::{FlagSet, FlagSpec};
use tiling3d_stencil::kernels::Kernel;

fn flag_set() -> FlagSet {
    FlagSet::new(
        "ablation",
        "beyond-the-paper ablations (DESIGN.md section 7)",
        Some((
            "mode",
            "assoc|line|write|atd|threads|crossinterf|tlb|copyopt|effcache|threec (default assoc)",
        )),
        &[
            FlagSpec::usize("--n", Some("300"), "problem size N (NxNxNK grids)"),
            FlagSpec::usize("--nk", Some("30"), "third-dimension extent"),
            FlagSpec::usize("--jobs", Some("0"), "simulation workers (0 = one per core)"),
        ],
    )
}

fn assoc_sweep(n: usize, nk: usize, pool: &SimPool) -> String {
    let mut out = format!(
        "L1 associativity ablation (JACOBI, N={n}): conflict misses — and thus\n\
         the gap between Tile and GcdPad — should fade as associativity grows.\n"
    );
    let _ = writeln!(
        out,
        "{:>6}{:>10}{:>10}{:>10}{:>10}",
        "ways", "Orig", "Tile", "Euc3D", "GcdPad"
    );
    const WAYS: [usize; 4] = [1, 2, 4, 8];
    const TS: [Transform; 4] = [
        Transform::Orig,
        Transform::Tile,
        Transform::Euc3D,
        Transform::GcdPad,
    ];
    let points: Vec<(usize, Transform)> = WAYS
        .iter()
        .flat_map(|&w| TS.iter().map(move |&t| (w, t)))
        .collect();
    let rates = pool.map(&points, |&(ways, t)| {
        let l1 = CacheConfig {
            ways,
            ..CacheConfig::ULTRASPARC2_L1
        };
        let cfg = SweepConfig {
            l1,
            nk,
            ..SweepConfig::default()
        };
        simulate(&cfg, Kernel::Jacobi, t, n).l1_pct
    });
    for (r, ways) in WAYS.iter().enumerate() {
        let _ = write!(out, "{ways:>6}");
        for v in &rates[r * TS.len()..(r + 1) * TS.len()] {
            let _ = write!(out, "{v:>10.2}");
        }
        out.push('\n');
    }
    out
}

fn line_sweep(n: usize, nk: usize, pool: &SimPool) -> String {
    let mut out = format!("L1 line-size ablation (JACOBI, N={n}), GcdPad vs Orig:\n");
    let _ = writeln!(out, "{:>6}{:>10}{:>10}", "line", "Orig", "GcdPad");
    const LINES: [usize; 4] = [16, 32, 64, 128];
    let points: Vec<(usize, Transform)> = LINES
        .iter()
        .flat_map(|&l| [(l, Transform::Orig), (l, Transform::GcdPad)])
        .collect();
    let rates = pool.map(&points, |&(line_bytes, t)| {
        let l1 = CacheConfig {
            line_bytes,
            ..CacheConfig::ULTRASPARC2_L1
        };
        let cfg = SweepConfig {
            l1,
            nk,
            ..SweepConfig::default()
        };
        simulate(&cfg, Kernel::Jacobi, t, n).l1_pct
    });
    for (r, line) in LINES.iter().enumerate() {
        let _ = writeln!(
            out,
            "{line:>6}{:>10.2}{:>10.2}",
            rates[2 * r],
            rates[2 * r + 1]
        );
    }
    out
}

fn write_sweep(n: usize, nk: usize, pool: &SimPool) -> String {
    let mut out = format!("L1 write-policy ablation (JACOBI, N={n}):\n");
    let _ = writeln!(out, "{:>14}{:>10}{:>10}", "policy", "Orig", "GcdPad");
    const POLICIES: [(&str, WritePolicy); 2] = [
        ("write-around", WritePolicy::WriteAround),
        ("write-alloc", WritePolicy::WriteAllocate),
    ];
    let points: Vec<(WritePolicy, Transform)> = POLICIES
        .iter()
        .flat_map(|&(_, wp)| [(wp, Transform::Orig), (wp, Transform::GcdPad)])
        .collect();
    let rates = pool.map(&points, |&(write_policy, t)| {
        let l1 = CacheConfig {
            write_policy,
            ..CacheConfig::ULTRASPARC2_L1
        };
        let cfg = SweepConfig {
            l1,
            nk,
            ..SweepConfig::default()
        };
        simulate(&cfg, Kernel::Jacobi, t, n).l1_pct
    });
    for (r, (name, _)) in POLICIES.iter().enumerate() {
        let _ = writeln!(
            out,
            "{name:>14}{:>10.2}{:>10.2}",
            rates[2 * r],
            rates[2 * r + 1]
        );
    }
    let _ = writeln!(
        out,
        "(the paper assumes write-around: stores to A never evict B's tile)"
    );
    out
}

fn atd_sweep(n: usize, nk: usize, pool: &SimPool) -> String {
    let mut out = format!(
        "array-tile-depth sensitivity (JACOBI, N={n}): simulated L1 miss rate\n\
         when the tiled nest keeps TK planes in cache via a TK-deep GcdPad tile.\n"
    );
    let _ = writeln!(out, "{:>4}{:>10}{:>14}", "TK", "tile", "L1 miss %");
    let c = 2048usize;
    let tks = [2usize, 4, 8, 16];
    let rows = pool.map(&tks, |&tk| {
        // A GcdPad-style power-of-two tile at depth tk.
        let mut ti = 1usize;
        while ti * ti < c / tk {
            ti *= 2;
        }
        let tj = c / (tk * ti);
        if tj < 3 {
            return None;
        }
        // Pad per GcdPad so the tile is conflict-free.
        let pad = |d: usize, t: usize| 2 * t * ((d + 3 * t - 1) / (2 * t)) - t;
        let (di, dj) = (pad(n, ti), pad(n, tj));
        let mut h = Hierarchy::ultrasparc2();
        Kernel::Jacobi.trace(n, nk, di, dj, Some((ti - 2, tj - 2)), &mut h);
        Some((ti, tj, h.l1_miss_rate_pct()))
    });
    for (&tk, row) in tks.iter().zip(&rows) {
        let _ = match row {
            None => writeln!(out, "{tk:>4}{:>10}{:>14}", "-", "tile too small"),
            Some((ti, tj, rate)) => writeln!(
                out,
                "{tk:>4}{:>10}{rate:>14.2}",
                format!("{}x{}", ti - 2, tj - 2)
            ),
        };
    }
    let _ = writeln!(
        out,
        "(TK=4 — the paper's GcdPad default — balances depth against tile area)"
    );
    out
}

fn thread_sweep(n: usize, nk: usize) -> String {
    let mut out = format!("tiling x parallelism composition (JACOBI, N={n}x{n}x{nk}): MFlops\n");
    let mut b = Array3::new(n, n, nk);
    fill_random(&mut b, 3);
    let mut a = Array3::new(n, n, nk);
    let flops = tiling3d_stencil::jacobi3d::sweep_flops(n, n, nk) as f64;
    let g = plan(
        Transform::GcdPad,
        CacheSpec::ELEMENTS_16K_DOUBLES,
        n,
        n,
        &Kernel::Jacobi.shape(),
    );
    let tile = g.tile.map(|(ti, tj)| TileDims::new(ti, tj));
    let _ = writeln!(out, "{:>8}{:>12}{:>12}", "threads", "untiled", "tiled");
    for threads in [1usize, 2, 4, 8] {
        let mut row = format!("{threads:>8}");
        for t in [None, tile] {
            tiling3d_stencil::parallel::jacobi3d_sweep(&mut a, &b, 1.0 / 6.0, t, threads);
            let t0 = Instant::now();
            for _ in 0..3 {
                tiling3d_stencil::parallel::jacobi3d_sweep(&mut a, &b, 1.0 / 6.0, t, threads);
            }
            row += &format!("{:>12.0}", 3.0 * flops / t0.elapsed().as_secs_f64() / 1e6);
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

fn crossinterf_sweep(n: usize, pool: &SimPool) -> String {
    use tiling3d_stencil::kernels::ArrayLayout;
    let mut out = format!(
        "cross-interference ablation (RESID, N={n}): L1 miss rate under GcdPad\n\
         with consecutive vs inter-variable-padded (Section 3.5) array layouts.\n\
         K extents where the padded array size = 0 mod cache make consecutive\n\
         bases collide exactly; staggering the bases defuses it.\n"
    );
    let _ = writeln!(out, "{:>6}{:>14}{:>14}", "K", "consecutive", "staggered");
    let kernel = Kernel::Resid;
    let p = plan(
        Transform::GcdPad,
        CacheSpec::ELEMENTS_16K_DOUBLES,
        n,
        n,
        &kernel.shape(),
    );
    let layouts = [
        ArrayLayout::Consecutive,
        ArrayLayout::Staggered {
            cache_bytes: 16 * 1024,
            line_bytes: 32,
        },
    ];
    let nks = [16usize, 24, 30, 32];
    let points: Vec<(usize, ArrayLayout)> = nks
        .iter()
        .flat_map(|&nk| layouts.iter().map(move |&l| (nk, l)))
        .collect();
    let rates = pool.map(&points, |&(nk, layout)| {
        let mut h = Hierarchy::ultrasparc2();
        kernel.trace_with_layout(n, nk, p.padded_di, p.padded_dj, p.tile, layout, &mut h);
        h.l1_miss_rate_pct()
    });
    for (r, nk) in nks.iter().enumerate() {
        let _ = writeln!(
            out,
            "{nk:>6}{:>14.2}{:>14.2}",
            rates[2 * r],
            rates[2 * r + 1]
        );
    }
    out
}

fn tlb_sweep(n: usize, nk: usize, pool: &SimPool) -> String {
    use tiling3d_cachesim::Tlb;
    let mut out = format!(
        "TLB ablation (JACOBI, N={n}): translation miss rate (64-entry, 8KB pages).\n\
         Tiling touches N planes per tile pass, stressing the TLB — the\n\
         cache/TLB trade-off of Mitchell et al. that the paper cites.\n"
    );
    let _ = writeln!(
        out,
        "{:>10}{:>14}{:>14}",
        "transform", "L1 miss %", "TLB miss %"
    );
    let ts = [Transform::Orig, Transform::GcdPad];
    let rows = pool.map(&ts, |&t| {
        let p = plan(
            t,
            CacheSpec::ELEMENTS_16K_DOUBLES,
            n,
            n,
            &Kernel::Jacobi.shape(),
        );
        let mut h = Hierarchy::ultrasparc2();
        Kernel::Jacobi.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut h);
        let mut tlb = Tlb::ultrasparc2();
        Kernel::Jacobi.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut tlb);
        (h.l1_miss_rate_pct(), tlb.stats().miss_rate_pct())
    });
    for (&t, &(l1, tlb)) in ts.iter().zip(&rows) {
        let _ = writeln!(out, "{:>10}{l1:>14.2}{tlb:>14.2}", t.name());
    }
    out
}

fn copyopt_sweep(n: usize, nk: usize, pool: &SimPool) -> String {
    use tiling3d_stencil::copyopt;
    let mut out =
        format!("copy-optimization ablation (JACOBI, N={n}): Section 3.1's negative result.\n");
    let p = plan(
        Transform::GcdPad,
        CacheSpec::ELEMENTS_16K_DOUBLES,
        n,
        n,
        &Kernel::Jacobi.shape(),
    );
    let Some((ti, tj)) = p.tile else {
        eprintln!("ablation: GcdPad produced no tile at N={n}; cannot run the copy ablation");
        std::process::exit(1);
    };
    let hs = pool.map(&[false, true], |&with_copy| {
        let mut h = Hierarchy::ultrasparc2();
        if with_copy {
            copyopt::trace_tiled_copying(
                n,
                n,
                nk,
                p.padded_di,
                p.padded_dj,
                TileDims::new(ti, tj),
                &mut h,
            );
        } else {
            Kernel::Jacobi.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut h);
        }
        h
    });
    let (plain, copying) = (&hs[0], &hs[1]);
    let (pa, ca) = (plain.l1_stats(), copying.l1_stats());
    let _ = writeln!(
        out,
        "  tiled (GcdPad):        {:>10} accesses, {:>9} L1 misses ({:.2}%)",
        pa.accesses,
        pa.misses,
        plain.l1_miss_rate_pct()
    );
    let _ = writeln!(
        out,
        "  tiled + tile copying:  {:>10} accesses, {:>9} L1 misses ({:.2}%)",
        ca.accesses,
        ca.misses,
        copying.l1_miss_rate_pct()
    );
    let _ = writeln!(
        out,
        "  copying inflates the access stream by {:.0}% — 'copy operations comprise a\n  large, constant fraction of the data accesses' (Section 3.1)",
        100.0 * (ca.accesses as f64 - pa.accesses as f64) / pa.accesses as f64
    );
    out
}

fn effcache_sweep(n: usize, nk: usize, pool: &SimPool) -> String {
    use tiling3d_core::effective_cache_tile;
    let mut out = format!(
        "effective-cache-size ablation (JACOBI, N={n}): the Section 3.2 method\n\
         targets ~10% of the cache; compare its miss rate against GcdPad's.\n"
    );
    let _ = writeln!(out, "{:>12}{:>12}{:>12}", "method", "tile", "L1 miss %");
    let shape = Kernel::Jacobi.shape();
    let Some(eff) = effective_cache_tile(CacheSpec::ELEMENTS_16K_DOUBLES, &shape, 0.10) else {
        eprintln!("ablation: no tile fits 10% of the cache for this stencil shape");
        std::process::exit(1);
    };
    let methods = [None, Some(Transform::GcdPad), Some(Transform::Orig)];
    let rows = pool.map(&methods, |&m| {
        let mut h = Hierarchy::ultrasparc2();
        match m {
            None => {
                Kernel::Jacobi.trace(n, nk, n, n, Some(eff), &mut h);
                (
                    "effcache".to_string(),
                    format!("{}x{}", eff.0, eff.1),
                    h.l1_miss_rate_pct(),
                )
            }
            Some(t) => {
                let p = plan(t, CacheSpec::ELEMENTS_16K_DOUBLES, n, n, &shape);
                Kernel::Jacobi.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut h);
                (
                    t.name().to_string(),
                    p.tile.map_or("-".into(), |(a, b)| format!("{a}x{b}")),
                    h.l1_miss_rate_pct(),
                )
            }
        }
    });
    for (name, tile, rate) in rows {
        let _ = writeln!(out, "{name:>12}{tile:>12}{rate:>12.2}");
    }
    out
}

fn threec_sweep(n: usize, nk: usize, pool: &SimPool) -> String {
    use tiling3d_cachesim::ThreeC;
    let mut out = format!(
        "3C miss classification (JACOBI, N={n}): cold / capacity / conflict as %\n\
         of accesses on the 16K direct-mapped L1. The paper's algorithms are\n\
         conflict-elimination algorithms: GcdPad/Pad should zero the last column.\n"
    );
    let _ = writeln!(
        out,
        "{:>10}{:>10}{:>10}{:>10}{:>10}",
        "transform", "total", "cold", "capacity", "conflict"
    );
    let rows = pool.map(&Transform::ALL, |&t| {
        let p = plan(
            t,
            CacheSpec::ELEMENTS_16K_DOUBLES,
            n,
            n,
            &Kernel::Jacobi.shape(),
        );
        let mut c = ThreeC::ultrasparc2_l1();
        Kernel::Jacobi.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut c);
        c
    });
    for (&t, c) in Transform::ALL.iter().zip(&rows) {
        let pct = |x: u64| 100.0 * x as f64 / c.accesses as f64;
        let _ = writeln!(
            out,
            "{:>10}{:>10.2}{:>10.2}{:>10.2}{:>10.2}",
            t.name(),
            pct(c.total_misses()),
            pct(c.cold),
            pct(c.capacity),
            pct(c.conflict)
        );
    }
    out
}

fn main() {
    let flags = driver::parse_or_exit(&flag_set());
    let n = driver::or_exit(extent_flag(&flags, "--n", None));
    let nk = driver::or_exit(extent_flag(&flags, "--nk", None));
    let which = flags.positional().unwrap_or("assoc").to_string();
    let pool = SimPool::new(flags.usize("--jobs"));
    let out = match which.as_str() {
        "assoc" => assoc_sweep(n, nk, &pool),
        "line" => line_sweep(n, nk, &pool),
        "write" => write_sweep(n, nk, &pool),
        "atd" => atd_sweep(n, nk, &pool),
        "threads" => thread_sweep(n, nk),
        "crossinterf" => crossinterf_sweep(n, &pool),
        "tlb" => tlb_sweep(n, nk, &pool),
        "copyopt" => copyopt_sweep(n, nk, &pool),
        "effcache" => effcache_sweep(n, nk, &pool),
        "threec" => threec_sweep(n, nk, &pool),
        other => {
            eprintln!(
                "unknown ablation '{other}': use assoc|line|write|atd|threads|crossinterf|tlb|copyopt|effcache|threec"
            );
            std::process::exit(2);
        }
    };
    driver::write_stdout(&out);
    driver::finish();
}
