//! The legality gate for spatial plans: [`certificate_for`] proves (or
//! refutes) that the schedule a plan executes respects its kernel's data
//! dependences.
//!
//! [`plan`](crate::plan()) resolves *what* to run (tile sizes, pads); this
//! module settles *whether it may run at all*. The bridge is
//! [`SweepDiscipline`]: how the kernel's sweep uses its arrays, which
//! fixes the dependence set — out-of-place sweeps (Jacobi, RESID) carry
//! none, the fused red-black update carries the 4D fused-space set. A
//! caller plans, then certifies the schedule the executors will actually
//! use (tiled red-black runs the *skew-tiled* Fig 12 schedule, so
//! `skewed = true`) and refuses the plan unless the certificate is legal;
//! an illegal certificate names every broken dependence with a witness.
//! Its callers are `bench::plan_for`, which every harness point plans
//! through, and the planning API's `legality` query behind
//! `tiling3d analyze`.

use tiling3d_loopnest::{certify, DepSet, LegalityCertificate, Schedule};

/// How a kernel's sweep uses its arrays — determines which dependences its
/// schedule must respect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepDiscipline {
    /// `A = f(B)` over distinct arrays: the loops carry no dependences.
    OutOfPlace,
    /// The fused red-black update (Fig 12): dependences live in the fused
    /// `(KK, T, J, I)` iteration space; tiling is only legal with skewed
    /// tile origins.
    FusedRedBlack,
}

impl SweepDiscipline {
    /// The dependence set this discipline imposes.
    pub fn deps(&self) -> DepSet {
        match self {
            SweepDiscipline::OutOfPlace => DepSet::out_of_place(),
            SweepDiscipline::FusedRedBlack => DepSet::fused_redblack(),
        }
    }

    /// The schedule a `tiled`/untiled plan executes under this discipline.
    /// `skewed` selects the tile-origin skew for the fused red-black case
    /// (the executors always skew; `false` models the rectangular variant
    /// the analyzer must reject).
    pub fn schedule(&self, tiled: bool, skewed: bool) -> Schedule {
        match self {
            SweepDiscipline::FusedRedBlack => {
                if tiled {
                    Schedule::fused_redblack_tiled(skewed)
                } else {
                    let mut s = Schedule::original(4);
                    s.name = "fused red-black, untiled".into();
                    s
                }
            }
            SweepDiscipline::OutOfPlace => {
                if tiled {
                    Schedule::tiled_ji()
                } else {
                    Schedule::original(3)
                }
            }
        }
    }
}

/// Certifies the schedule a transform executes under the given discipline.
/// `skewed` only matters for tiled fused red-black (see
/// [`SweepDiscipline::schedule`]).
pub fn certificate_for(
    discipline: &SweepDiscipline,
    tiled: bool,
    skewed: bool,
) -> LegalityCertificate {
    certify(&discipline.deps(), &discipline.schedule(tiled, skewed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan, CacheSpec, Transform};
    use tiling3d_loopnest::StencilShape;

    fn spec() -> CacheSpec {
        CacheSpec::ELEMENTS_16K_DOUBLES
    }

    #[test]
    fn every_paper_transform_certifies_for_every_discipline() {
        let cases = [
            (SweepDiscipline::OutOfPlace, StencilShape::jacobi3d()),
            (SweepDiscipline::OutOfPlace, StencilShape::resid27()),
            (
                SweepDiscipline::FusedRedBlack,
                StencilShape::redblack3d_fused(),
            ),
        ];
        for (discipline, shape) in &cases {
            for t in Transform::ALL {
                let p = plan(t, spec(), 200, 200, shape);
                let cert = certificate_for(discipline, p.tile.is_some(), true);
                assert!(cert.is_legal(), "{discipline:?} {t:?}: {cert:?}");
                assert!(cert.revalidate().is_ok());
            }
        }
    }

    #[test]
    fn rectangular_fused_redblack_tiling_is_rejected_with_its_witness() {
        let cert = certificate_for(&SweepDiscipline::FusedRedBlack, true, false);
        assert!(!cert.is_legal());
        let witnesses: Vec<String> = cert.violations().iter().map(ToString::to_string).collect();
        assert!(
            witnesses.iter().any(|w| w.contains("[1, 1, -1, 0]")),
            "witness in certificate: {witnesses:?}"
        );
    }

    #[test]
    fn untiled_plans_certify_under_the_original_schedule() {
        let p = plan(
            Transform::Orig,
            spec(),
            100,
            100,
            &StencilShape::redblack3d_fused(),
        );
        assert!(p.tile.is_none());
        let cert = certificate_for(&SweepDiscipline::FusedRedBlack, p.tile.is_some(), true);
        assert!(cert.is_legal());
        assert_eq!(cert.schedule.steps, vec![]);
    }
}
