//! Legality gate over the harness surface: every `kernel x transform`
//! pair the benchmark sweeps simulate must come with a legal dependence
//! certificate, and the gate must be non-vacuous — the known-illegal
//! schedule (rectangular tiling of the fused red-black sweep without the
//! tile-origin skew) has to be rejected with the paper's witness.

use tiling3d_bench::{plan_for, SweepConfig};
use tiling3d_core::legality::certificate_for;
use tiling3d_core::Transform;
use tiling3d_stencil::kernels::Kernel;

#[test]
fn every_simulated_kernel_transform_pair_is_certified_legal() {
    let cfg = SweepConfig::default();
    for n in [200usize, 256, 341] {
        for kernel in Kernel::ALL {
            for t in Transform::ALL {
                // The plan the harness runs, certified as its executors
                // run it.
                let p = plan_for(&cfg, kernel, t, n);
                let cert = certificate_for(&kernel.discipline(), p.tile.is_some(), true);
                assert!(cert.is_legal(), "{} {t:?} n={n}", kernel.name());
                assert!(cert.revalidate().is_ok(), "tampered certificate");
            }
        }
    }
}

#[test]
fn gate_is_non_vacuous_unskewed_fused_redblack_is_rejected() {
    let cert = certificate_for(&Kernel::RedBlack.discipline(), true, false);
    assert!(
        !cert.is_legal(),
        "rectangular tiling of fused red-black must be illegal"
    );
    // The paper's plane-spanning flow dependence (KK, T, J, I) =
    // (1, 1, -1, 0) is the broken one; its witness time vector must be
    // reported in the certificate.
    let witness = cert
        .violations()
        .iter()
        .find(|v| v.dep.distance == vec![1, 1, -1, 0])
        .expect("the (1, 1, -1, 0) flow dependence must be a reported witness");
    let first_nonzero = witness.time_vector.iter().copied().find(|&c| c != 0);
    assert!(
        first_nonzero.is_none_or(|c| c < 0),
        "witness time vector must be lexicographically non-positive: {:?}",
        witness.time_vector
    );
    // And the skewed schedule the executors actually run is legal.
    assert!(certificate_for(&Kernel::RedBlack.discipline(), true, true).is_legal());
}
