//! Correctness goldens under `benchmark/golden/`, compiled into the
//! binary. Each file holds `key value` lines (`#` starts a comment); a
//! workload compares what it computed against them, and any mismatch is
//! a failed operation.

/// Figure: digest of every point's `(l1_pct, l2_pct)` bit patterns.
pub const FIGURE: &str = include_str!("../golden/figure.golden");
/// Serve: digest of the distinct replies to the warm-up prefix.
pub const SERVE: &str = include_str!("../golden/serve.golden");
/// Solve: final MGRID residual-norm bits and V-cycle count.
pub const SOLVE: &str = include_str!("../golden/solve.golden");

/// The value of `key` in golden text `text`.
pub fn value<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let (k, v) = l.split_once(char::is_whitespace)?;
            (k == key).then(|| v.trim())
        })
        .ok_or_else(|| format!("golden has no '{key}' entry"))
}

/// Checks `actual` against the golden `key` in `text`.
pub fn expect(text: &str, key: &str, actual: &str) -> Result<(), String> {
    let want = value(text, key)?;
    if want == actual {
        Ok(())
    } else {
        Err(format!("golden {key}: expected {want}, got {actual}"))
    }
}

/// Hex spelling the goldens use for digests and bit patterns.
pub fn hex(v: u64) -> String {
    format!("0x{v:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flips the lowest bit of the last byte of `key`'s value in `text`.
    fn flip_one_bit(text: &str, key: &str) -> String {
        let v = value(text, key).unwrap();
        let end = v.as_ptr() as usize - text.as_ptr() as usize + v.len();
        let mut bytes = text.as_bytes().to_vec();
        bytes[end - 1] ^= 1;
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn every_golden_entry_parses_and_matches_itself() {
        for (text, keys) in [
            (FIGURE, &["points", "digest"][..]),
            (SERVE, &["distinct", "digest"][..]),
            (SOLVE, &["iterations", "norm_bits"][..]),
        ] {
            for key in keys {
                let v = value(text, key).unwrap();
                assert_eq!(expect(text, key, v), Ok(()));
            }
        }
    }

    #[test]
    fn flipping_one_bit_in_a_golden_file_is_caught() {
        for (text, key) in [
            (FIGURE, "digest"),
            (SERVE, "digest"),
            (SOLVE, "norm_bits"),
            (SOLVE, "iterations"),
        ] {
            let good = value(text, key).unwrap().to_string();
            let flipped = flip_one_bit(text, key);
            assert_ne!(flipped, text);
            assert!(
                expect(&flipped, key, &good).is_err(),
                "a flipped {key} went unnoticed"
            );
        }
    }

    #[test]
    fn missing_keys_are_errors() {
        assert!(value("# only a comment\n", "digest").is_err());
        assert_eq!(hex(0xab), "0x00000000000000ab");
    }
}
