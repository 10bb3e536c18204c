//! Deterministic fault injection for the supervised sweep path.
//!
//! A [`FaultPlan`] picks a seeded subset of a sweep's point keys (via the
//! same [`Xorshift64`] generator the invariant tests use) and arms each
//! with one [`FaultKind`]: a panic, an artificial delay, or a NaN write.
//! Because selection is a pure function of `(seed, keys)`, a fault
//! campaign is exactly reproducible — the property the fault-injection
//! suite (`tests/fault_injection.rs`) relies on to prove graceful
//! degradation, retry determinism, and resume correctness (DESIGN.md §13).

use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;
use std::time::Duration;

use tiling3d_grid::{Array3, Xorshift64};

use crate::supervise::INJECTED_PANIC_PREFIX;
use crate::SimPoint;

/// The failure mode a [`FaultPlan`] arms at one point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the item closure (exercises `catch_unwind`).
    Panic,
    /// Sleep this long before computing (exercises the deadline).
    Delay(Duration),
    /// Poison the item's output with NaN (exercises the health sentinels).
    NanWrite,
}

impl FaultKind {
    /// Short display name for campaign summaries.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Delay(_) => "delay",
            FaultKind::NanWrite => "nan-write",
        }
    }
}

/// Whether an armed fault fires on every attempt or only the first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// Fire on every attempt — the point fails terminally.
    Always,
    /// Fire on the first attempt only — a retry succeeds, proving
    /// retry determinism (results bit-identical to a fault-free run).
    Once,
}

/// A deterministic, seeded set of armed faults keyed by sweep point key.
#[derive(Debug)]
pub struct FaultPlan {
    targets: BTreeMap<String, FaultKind>,
    mode: FaultMode,
    fired: Mutex<HashSet<String>>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn none() -> Self {
        FaultPlan {
            targets: BTreeMap::new(),
            mode: FaultMode::Always,
            fired: Mutex::new(HashSet::new()),
        }
    }

    /// Arms `count` faults of `kind` at a seeded choice of `keys`
    /// (distinct, order-independent: the same `(seed, keys, count)`
    /// always arms the same set).
    pub fn seeded(
        seed: u64,
        keys: &[String],
        count: usize,
        kind: FaultKind,
        mode: FaultMode,
    ) -> Self {
        let mut sorted: Vec<&String> = keys.iter().collect();
        sorted.sort();
        sorted.dedup();
        let mut rng = Xorshift64::new(seed);
        let mut targets = BTreeMap::new();
        let count = count.min(sorted.len());
        while targets.len() < count {
            let pick = sorted[rng.next_below(sorted.len())];
            targets.entry(pick.clone()).or_insert(kind);
        }
        FaultPlan {
            targets,
            mode,
            fired: Mutex::new(HashSet::new()),
        }
    }

    /// Arms one explicit `key -> kind` mapping (for targeted tests).
    pub fn explicit(
        targets: impl IntoIterator<Item = (String, FaultKind)>,
        mode: FaultMode,
    ) -> Self {
        FaultPlan {
            targets: targets.into_iter().collect(),
            mode,
            fired: Mutex::new(HashSet::new()),
        }
    }

    /// The armed point keys, sorted.
    pub fn armed(&self) -> Vec<&str> {
        self.targets.keys().map(String::as_str).collect()
    }

    /// The fault armed at `key`, if any.
    pub fn kind_at(&self, key: &str) -> Option<FaultKind> {
        self.targets.get(key).copied()
    }

    /// Should the fault at `key` fire on this attempt? Consults and
    /// updates the once-only bookkeeping.
    fn fires(&self, key: &str) -> Option<FaultKind> {
        let kind = self.targets.get(key)?;
        if self.mode == FaultMode::Once
            && !self
                .fired
                .lock()
                .expect("fault bookkeeping poisoned")
                .insert(key.to_string())
        {
            return None;
        }
        Some(*kind)
    }

    /// Injects the pre-compute faults for `key`: panics (with the
    /// [`INJECTED_PANIC_PREFIX`] marker) or sleeps. Returns `true` when a
    /// [`FaultKind::NanWrite`] is armed and firing, so the caller poisons
    /// its output via [`FaultPlan::poison_sim`] / [`FaultPlan::poison_grid`].
    ///
    /// # Panics
    /// Deliberately, when a [`FaultKind::Panic`] fault fires — that is
    /// the injection.
    pub fn inject(&self, key: &str) -> bool {
        match self.fires(key) {
            None => false,
            Some(FaultKind::Panic) => {
                panic!("{INJECTED_PANIC_PREFIX} injected panic at {key}")
            }
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                false
            }
            Some(FaultKind::NanWrite) => true,
        }
    }

    /// Poisons a simulated point's metrics with NaN (the simulate-path
    /// realisation of [`FaultKind::NanWrite`]).
    pub fn poison_sim(&self, p: &mut SimPoint) {
        p.l1_pct = f64::NAN;
    }

    /// Writes NaN into a seeded logical cell of `a` (the compute-path
    /// realisation of [`FaultKind::NanWrite`]). The cell is a pure
    /// function of `(seed, key)`, so campaigns replay exactly.
    pub fn poison_grid(&self, seed: u64, key: &str, a: &mut Array3<f64>) {
        let mut h = Xorshift64::new(seed ^ fnv1a(key));
        let (i, j, k) = (
            h.next_below(a.ni()),
            h.next_below(a.nj()),
            h.next_below(a.nk()),
        );
        a.set(i, j, k, f64::NAN);
    }
}

/// FNV-1a over the key bytes: a stable, dependency-free way to fold a
/// point key into the poison-cell seed.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::silence_expected_panics;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("k{i:03}")).collect()
    }

    #[test]
    fn seeded_selection_is_deterministic_and_order_independent() {
        let ks = keys(20);
        let a = FaultPlan::seeded(7, &ks, 5, FaultKind::Panic, FaultMode::Always);
        let b = FaultPlan::seeded(7, &ks, 5, FaultKind::Panic, FaultMode::Always);
        assert_eq!(a.armed(), b.armed());
        assert_eq!(a.armed().len(), 5);
        let mut shuffled = ks.clone();
        shuffled.reverse();
        let c = FaultPlan::seeded(7, &shuffled, 5, FaultKind::Panic, FaultMode::Always);
        assert_eq!(a.armed(), c.armed());
        let d = FaultPlan::seeded(8, &ks, 5, FaultKind::Panic, FaultMode::Always);
        assert_ne!(
            a.armed(),
            d.armed(),
            "a different seed arms a different set"
        );
    }

    #[test]
    fn count_is_clamped_to_available_keys() {
        let ks = keys(3);
        let p = FaultPlan::seeded(1, &ks, 10, FaultKind::NanWrite, FaultMode::Always);
        assert_eq!(p.armed().len(), 3);
    }

    #[test]
    fn once_mode_fires_exactly_once_per_key() {
        silence_expected_panics();
        let p = FaultPlan::explicit([("a".to_string(), FaultKind::Panic)], FaultMode::Once);
        let first = std::panic::catch_unwind(|| p.inject("a"));
        assert!(first.is_err(), "first attempt panics");
        assert!(!p.inject("a"), "second attempt passes clean");
        assert!(!p.inject("unarmed"), "unarmed keys never fire");
    }

    #[test]
    fn delay_and_nan_faults_report_without_panicking() {
        let p = FaultPlan::explicit(
            [
                ("d".to_string(), FaultKind::Delay(Duration::from_millis(1))),
                ("n".to_string(), FaultKind::NanWrite),
            ],
            FaultMode::Always,
        );
        assert!(!p.inject("d"), "delay returns after sleeping");
        assert!(p.inject("n"), "nan-write asks the caller to poison");
        assert_eq!(p.kind_at("n"), Some(FaultKind::NanWrite));
    }

    #[test]
    fn poison_grid_is_deterministic_and_caught_by_the_sentinel() {
        let p = FaultPlan::none();
        let mut a = Array3::<f64>::new(9, 7, 5);
        a.fill(1.0);
        p.poison_grid(0xDEAD, "JACOBI:Orig:n64", &mut a);
        let issue = tiling3d_grid::health::scan(&a).expect_err("sentinel catches the write");
        let mut b = Array3::<f64>::new(9, 7, 5);
        b.fill(1.0);
        p.poison_grid(0xDEAD, "JACOBI:Orig:n64", &mut b);
        let issue2 = tiling3d_grid::health::scan(&b).unwrap_err();
        assert_eq!(
            issue.at, issue2.at,
            "same (seed, key) poisons the same cell"
        );
    }
}
