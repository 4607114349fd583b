//! Virtual crowd participants.
//!
//! §2.1.1: 158 users, 41 cities, 20 provinces; 59 %/34 %/7 % of tests on
//! WiFi/LTE/5G; §3.1: "almost all our 5G testing results are from Beijing
//! due to very limited 5G coverage in other regions in China".

use edgescope_net::access::AccessNetwork;
use edgescope_net::geo::GeoPoint;
use edgescope_platform::geo_china::{city_by_name, City, CITIES};
use rand::Rng;

/// One participant.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualUser {
    /// Home city.
    pub city: City,
    /// The user's actual location: the city centroid plus a small offset
    /// (people aren't at city hall).
    pub geo: GeoPoint,
    /// Access network used for every test.
    pub access: AccessNetwork,
}

/// The paper's access-network mix.
pub const ACCESS_MIX: [(AccessNetwork, f64); 3] = [
    (AccessNetwork::Wifi, 0.59),
    (AccessNetwork::Lte, 0.34),
    (AccessNetwork::FiveG, 0.07),
];

fn sample_city(rng: &mut impl Rng) -> City {
    // Crowdsourcing spreads wider than raw population (volunteers come
    // from many mid-tier cities), so weight by sqrt(population) — this
    // also keeps the median user a few hundred km from the nearest cloud
    // region, as the paper's RTT gaps imply.
    let total: f64 = CITIES.iter().map(|c| c.population_m.sqrt()).sum();
    let mut t = rng.gen::<f64>() * total;
    for c in CITIES {
        t -= c.population_m.sqrt();
        if t <= 0.0 {
            return *c;
        }
    }
    *CITIES.last().unwrap()
}

fn offset_geo(rng: &mut impl Rng, city: &City) -> GeoPoint {
    // ±0.12° ≈ ±13 km — intra-metro spread.
    GeoPoint::new(
        (city.lat_deg + rng.gen_range(-0.12..0.12)).clamp(-90.0, 90.0),
        (city.lon_deg + rng.gen_range(-0.12..0.12)).clamp(-180.0, 180.0),
    )
}

/// Recruit a single user from `rng` with the paper's access mix and
/// 5G-in-Beijing constraint.
///
/// [`recruit`] draws `n` users serially from one stream; the streaming
/// metro campaign instead calls this once per user on that user's own
/// RNG stream, so the crowd never has to be materialized.
pub fn recruit_one(rng: &mut impl Rng) -> VirtualUser {
    let mut t = rng.gen::<f64>();
    let mut access = AccessNetwork::Wifi;
    for (a, w) in ACCESS_MIX {
        if t < w {
            access = a;
            break;
        }
        t -= w;
    }
    // 2020-era 5G coverage: Beijing with ~90 % probability.
    let city = if access == AccessNetwork::FiveG && rng.gen::<f64>() < 0.9 {
        *city_by_name("Beijing").expect("gazetteer has Beijing")
    } else {
        sample_city(rng)
    };
    let geo = offset_geo(rng, &city);
    VirtualUser { city, geo, access }
}

/// Recruit `n` users with the paper's access mix and 5G-in-Beijing
/// constraint.
pub fn recruit(rng: &mut impl Rng, n: usize) -> Vec<VirtualUser> {
    assert!(n > 0, "need at least one user");
    (0..n).map(|_| recruit_one(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn access_mix_close_to_paper() {
        let mut rng = StdRng::seed_from_u64(1);
        let users = recruit(&mut rng, 5000);
        let frac = |a: AccessNetwork| {
            users.iter().filter(|u| u.access == a).count() as f64 / users.len() as f64
        };
        assert!((frac(AccessNetwork::Wifi) - 0.59).abs() < 0.03);
        assert!((frac(AccessNetwork::Lte) - 0.34).abs() < 0.03);
        assert!((frac(AccessNetwork::FiveG) - 0.07).abs() < 0.02);
    }

    #[test]
    fn five_g_users_mostly_beijing() {
        let mut rng = StdRng::seed_from_u64(2);
        let users = recruit(&mut rng, 5000);
        let fiveg: Vec<_> = users
            .iter()
            .filter(|u| u.access == AccessNetwork::FiveG)
            .collect();
        assert!(!fiveg.is_empty());
        let beijing = fiveg.iter().filter(|u| u.city.name == "Beijing").count();
        assert!(
            beijing as f64 / fiveg.len() as f64 > 0.8,
            "{beijing}/{} in Beijing",
            fiveg.len()
        );
    }

    #[test]
    fn broad_geographic_coverage() {
        // The paper reached 41 cities / 20 provinces with 158 users.
        let mut rng = StdRng::seed_from_u64(3);
        let users = recruit(&mut rng, 158);
        let mut cities: Vec<&str> = users.iter().map(|u| u.city.name).collect();
        cities.sort_unstable();
        cities.dedup();
        assert!(cities.len() >= 30, "{} cities", cities.len());
        let mut provinces: Vec<&str> = users.iter().map(|u| u.city.province).collect();
        provinces.sort_unstable();
        provinces.dedup();
        assert!(provinces.len() >= 18, "{} provinces", provinces.len());
    }

    #[test]
    fn users_near_their_city() {
        let mut rng = StdRng::seed_from_u64(4);
        for u in recruit(&mut rng, 200) {
            let d = u.geo.distance_km(&u.city.geo());
            assert!(d < 25.0, "{} offset {d} km", u.city.name);
        }
    }
}
