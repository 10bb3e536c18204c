//! The `trace:<KERNEL>` span counts the points the walkers visit.
//!
//! Its own test binary: the span recorder is process-global, and no other
//! test here may open `trace:` spans while this one collects.

use tiling3d_cachesim::Hierarchy;
use tiling3d_stencil::kernels::Kernel;

#[test]
fn trace_span_points_times_accesses_per_point_is_l1_accesses() {
    tiling3d_obs::init(tiling3d_obs::ObsConfig::collect_only()).expect("in-memory recorder");
    let mut accesses = Vec::new();
    for kernel in Kernel::ALL {
        for tile in [None, Some((5, 3))] {
            let mut h = Hierarchy::ultrasparc2();
            kernel.trace(14, 9, 16, 15, tile, &mut h);
            accesses.push((kernel, h.l1_stats().accesses));
        }
    }
    let trace = tiling3d_obs::shutdown().expect("recorder was active");

    let spans: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name.starts_with("trace:"))
        .collect();
    assert_eq!(spans.len(), accesses.len());
    for (span, (kernel, l1_accesses)) in spans.iter().zip(&accesses) {
        assert_eq!(span.name, format!("trace:{}", kernel.name()));
        let points = span
            .counters
            .iter()
            .find(|(name, _)| name == "points")
            .map(|&(_, v)| v)
            .expect("points counter");
        assert_eq!(points, 12 * 12 * 7, "{}", kernel.name());
        assert_eq!(
            points * kernel.accesses_per_point(),
            *l1_accesses,
            "{}",
            kernel.name()
        );
    }
}
