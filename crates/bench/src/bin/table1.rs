//! Reproduces **Table 1**: Euc3D non-conflicting array tile sizes for a
//! `200 x 200 x M` array and a 16K cache (2048 elements).
//!
//! ```text
//! cargo run -p tiling3d-bench --bin table1 [-- --di 200 --dj 200 --cache 2048 --tkmax 4]
//! ```

use std::fmt::Write as _;

use tiling3d_bench::{driver, flag_at_least};
use tiling3d_core::nonconflict::enumerate_array_tiles;
use tiling3d_core::{euc3d, CacheSpec};
use tiling3d_loopnest::StencilShape;
use tiling3d_obs::flags::{FlagSet, FlagSpec, ParsedFlags};

fn flag_set() -> FlagSet {
    FlagSet::new(
        "table1",
        "Euc3D non-conflicting tiles, 200x200xM / 16K cache (Table 1)",
        None,
        &[
            FlagSpec::usize("--di", Some("200"), "leading array dimension"),
            FlagSpec::usize("--dj", Some("200"), "middle array dimension"),
            FlagSpec::usize("--cache", Some("2048"), "cache capacity in elements"),
            FlagSpec::usize("--tkmax", Some("4"), "largest array-tile depth to list"),
        ],
    )
}

/// The `--di`, `--dj`, `--cache` and `--tkmax` extents, each at least 1.
fn extents(flags: &ParsedFlags) -> Result<(usize, usize, usize, usize), String> {
    Ok((
        flag_at_least(flags, "--di", 1, None)?,
        flag_at_least(flags, "--dj", 1, None)?,
        flag_at_least(flags, "--cache", 1, None)?,
        flag_at_least(flags, "--tkmax", 1, None)?,
    ))
}

fn main() {
    let flags = driver::parse_or_exit(&flag_set());
    let (di, dj, cache, tk_max) = driver::or_exit(extents(&flags));

    let mut out = format!(
        "Table 1: non-conflicting array tiles ({di}x{dj}xM array, {cache}-element cache)\n"
    );
    let tiles = enumerate_array_tiles(cache, di, dj, tk_max);
    for (row, name) in ["TK", "TJ", "TI"].into_iter().enumerate() {
        let _ = write!(out, "{name:>4}");
        for t in &tiles {
            let _ = write!(out, "{:>6}", [t.tk, t.tj, t.ti][row]);
        }
        out.push('\n');
    }

    let sel = euc3d(
        CacheSpec { elements: cache },
        di,
        dj,
        &StencilShape::jacobi3d(),
    );
    let _ = writeln!(
        out,
        "\nEuc3D selection (Jacobi, ATD=3): iteration tile (TI',TJ') = ({}, {}) \
         from array tile TK={} TJ={} TI={}  [cost {:.4}]",
        sel.iter_tile.0,
        sel.iter_tile.1,
        sel.array_tile.tk,
        sel.array_tile.tj,
        sel.array_tile.ti,
        sel.cost
    );
    out.push_str("paper reference: (22, 13) from TK=3 TJ=15 TI=24 for the default arguments\n");
    driver::write_stdout(&out);
    driver::finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ParsedFlags {
        let raw: Vec<String> = args.iter().map(ToString::to_string).collect();
        flag_set().parse(&raw).unwrap()
    }

    #[test]
    fn zero_extents_are_usage_errors_naming_the_flag() {
        for flag in ["--di", "--dj", "--cache", "--tkmax"] {
            assert_eq!(
                extents(&parse(&[flag, "0"])).unwrap_err(),
                format!("table1 requires {flag} >= 1 (got 0)")
            );
        }
        assert_eq!(extents(&parse(&[])).unwrap(), (200, 200, 2048, 4));
    }
}
