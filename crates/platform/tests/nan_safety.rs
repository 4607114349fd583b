//! NaN regression tests for the platform-layer comparators and the
//! contention model's handling of degenerate densities.
//!
//! Contract: a NaN coordinate or density must neither panic a sort nor
//! make a site look "nearest"; the disabled contention preset is the
//! identity for every input.

use edgescope_net::geo::GeoPoint;
use edgescope_platform::{Contention, Deployment};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn world() -> Deployment {
    let mut rng = StdRng::seed_from_u64(3);
    Deployment::nep(&mut rng, 40)
}

#[test]
fn nan_query_point_does_not_panic_distance_sort() {
    let dep = world();
    // Every distance from a NaN point is NaN; the total_cmp sort must
    // complete and keep all sites.
    let ranked = dep.nearest_sites(
        GeoPoint {
            lat_deg: f64::NAN,
            lon_deg: f64::NAN,
        },
        dep.n_sites(),
    );
    assert_eq!(ranked.len(), dep.n_sites());
    assert!(ranked.iter().all(|(_, d)| d.is_nan()));
}

#[test]
fn finite_query_point_sorts_ascending() {
    let dep = world();
    let ranked = dep.nearest_sites(
        GeoPoint {
            lat_deg: 31.2,
            lon_deg: 121.5,
        },
        dep.n_sites(),
    );
    for pair in ranked.windows(2) {
        assert!(pair[0].1 <= pair[1].1, "distance order broken: {pair:?}");
    }
}

#[test]
fn contention_off_is_identity_even_for_nan_density() {
    let off = Contention::off();
    // The disabled preset never reads the density — a poisoned density
    // must not leak a NaN factor into placement scores or QoE links.
    assert_eq!(off.cpu_steal_factor(f64::NAN), 1.0);
    assert_eq!(off.bw_available(f64::NAN), 1.0);
}

#[test]
fn enabled_contention_does_not_panic_on_nan_density() {
    for c in [Contention::moderate(), Contention::heavy()] {
        // NaN in, NaN out — the factors propagate rather than panicking
        // or silently clamping the poison to a real density.
        assert!(c.cpu_steal_factor(f64::NAN).is_nan());
        assert!(c.bw_available(f64::NAN).is_nan());
    }
}
