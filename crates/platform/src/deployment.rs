//! Deployment builders and nearest-site queries.
//!
//! Two deployment shapes from the paper:
//! * **NEP** (edge): >500 sites spread across Chinese cities, each with
//!   tens to low-hundreds of servers (§2: "an NEP site typically hosts
//!   only tens or hundreds of servers");
//! * **cloud** (AliCloud-like): a dozen large regions in major cities.
//!
//! Sites are sampled over the gazetteer with population weighting —
//! populous metros host several sites, small cities at most one — matching
//! how commercial edge capacity follows demand (§4.1's geo-skew).

use crate::geo_china::{City, CITIES};
use crate::ids::SiteId;
use crate::provider::ProviderProfile;
use crate::resources::ServerCapacity;
use crate::site::Site;
use edgescope_net::geo::GeoPoint;
use edgescope_net::path::TargetClass;
use rand::seq::SliceRandom;
use rand::Rng;

/// A set of sites forming one platform.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Edge sites or cloud regions: the class of path a user takes to
    /// reach one.
    pub kind: TargetClass,
    /// The sites, indexable by `SiteId`.
    pub sites: Vec<Site>,
}

impl Deployment {
    /// Build an NEP-like edge deployment of `n_sites` sites with the
    /// paper's "tens to hundreds" of servers per site: the deployment
    /// [`ProviderProfile::NEP`] builds.
    pub fn nep(rng: &mut impl Rng, n_sites: usize) -> Self {
        ProviderProfile::NEP.build_deployment(rng, n_sites)
    }

    /// NEP deployment with a custom servers-per-site range — workload
    /// studies use smaller sites so the placed population reaches
    /// realistic sales ratios.
    ///
    /// Site count per city is proportional to population (each city gets at
    /// least a chance); each site is offset up to ~30 km from the city
    /// centroid (edge DCs sit in suburbs and counties). Server capacity
    /// models commodity 2-socket boxes with memory-rich configs (8 GB per
    /// core — why §4.1 sees CPU sell out about twice as fast as memory).
    pub fn nep_custom(
        rng: &mut impl Rng,
        n_sites: usize,
        min_servers: usize,
        max_servers: usize,
    ) -> Self {
        assert!(n_sites > 0, "deployment needs sites");
        assert!(
            min_servers > 0 && max_servers >= min_servers,
            "bad server range"
        );
        let total_weight: f64 = CITIES.iter().map(|c| c.population_m).sum();
        let mut cities: Vec<City> = Vec::with_capacity(n_sites);
        // Deterministic proportional allocation, then randomized remainder.
        let mut assigned = 0usize;
        for c in CITIES {
            let share = (c.population_m / total_weight * n_sites as f64).floor() as usize;
            for _ in 0..share {
                cities.push(*c);
            }
            assigned += share;
        }
        while assigned < n_sites {
            // Weighted draw for the remainder.
            let mut t = rng.gen::<f64>() * total_weight;
            let mut chosen = CITIES[0];
            for c in CITIES {
                t -= c.population_m;
                if t <= 0.0 {
                    chosen = *c;
                    break;
                }
            }
            cities.push(chosen);
            assigned += 1;
        }
        cities.shuffle(rng);
        cities.truncate(n_sites);

        let mut next_server = 0u32;
        let sites = cities
            .into_iter()
            .enumerate()
            .map(|(i, city)| {
                let n_servers = rng.gen_range(min_servers..=max_servers);
                let cores = *[48u32, 64, 96, 128].choose(rng).unwrap();
                let capacity = ServerCapacity::new(cores, cores * 8, 16_000);
                let location = GeoPoint::new(
                    (city.lat_deg + rng.gen_range(-0.28..0.28)).clamp(-90.0, 90.0),
                    (city.lon_deg + rng.gen_range(-0.28..0.28)).clamp(-180.0, 180.0),
                );
                Site::uniform_at(
                    SiteId(i as u32),
                    city,
                    location,
                    n_servers,
                    capacity,
                    &mut next_server,
                )
            })
            .collect();
        Deployment {
            kind: TargetClass::EdgeSite,
            sites,
        }
    }

    /// Build a cloud deployment with regions at the named cities.
    /// Each region gets a uniform large server pool (the exact size is
    /// irrelevant to latency experiments; billing uses tariffs, not
    /// servers).
    pub fn cloud(region_cities: &[&str]) -> Self {
        assert!(!region_cities.is_empty(), "cloud needs regions");
        let mut next_server = 0u32;
        let sites = region_cities
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let city = *crate::geo_china::city_by_name(name)
                    .unwrap_or_else(|| panic!("unknown region city: {name}"));
                Site::uniform_at(
                    SiteId(i as u32),
                    city,
                    city.geo(),
                    50, // representative slice of a huge region
                    ServerCapacity::new(128, 512, 16_000),
                    &mut next_server,
                )
            })
            .collect();
        Deployment {
            kind: TargetClass::CloudRegion,
            sites,
        }
    }

    /// AliCloud's China footprint (vCloud-1 in §4.5): 12 regions. Region
    /// cities are mapped onto the gazetteer (Zhangjiakou/Ulanqab, which the
    /// gazetteer lacks, are represented by their nearest entries Datong and
    /// Hohhot).
    pub fn alicloud() -> Self {
        Deployment::cloud(&[
            "Beijing",
            "Shanghai",
            "Hangzhou",
            "Shenzhen",
            "Guangzhou",
            "Qingdao",
            "Datong",
            "Hohhot",
            "Chengdu",
            "Chongqing",
            "Wuhan",
            "Fuzhou",
        ])
    }

    /// Huawei Cloud's China footprint (vCloud-2): 5 regions.
    pub fn huawei_cloud() -> Self {
        Deployment::cloud(&["Beijing", "Shanghai", "Guangzhou", "Guiyang", "Urumqi"])
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// Total number of servers.
    pub fn n_servers(&self) -> usize {
        self.sites.iter().map(|s| s.servers.len()).sum()
    }

    /// The `k` sites nearest to `from` (all of them if `k` exceeds the
    /// deployment), nearest first, as `(site index, distance km)`.
    ///
    /// Sites are ordered by `(distance, index)`: a total order, so the
    /// selection is unique under distance ties and equals the first `k`
    /// entries of a stable sort by distance. Distances compare with
    /// `total_cmp`, so a NaN distance (degenerate coordinates) sorts last
    /// — it can never become the nearest site, and never panics.
    pub fn nearest_sites(&self, from: GeoPoint, k: usize) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, f64)> = self
            .sites
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.geo().distance_km(&from)))
            .collect();
        let cmp = |a: &(usize, f64), b: &(usize, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
        if k < v.len() {
            if k > 0 {
                v.select_nth_unstable_by(k - 1, cmp);
            }
            v.truncate(k);
        }
        v.sort_unstable_by(cmp);
        v
    }

    /// Sites in a province (indices).
    pub fn sites_in_province(&self, province: &str) -> Vec<usize> {
        self.sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.province() == province)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nep_scale_and_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Deployment::nep(&mut rng, 520);
        assert_eq!(d.n_sites(), 520);
        assert_eq!(d.kind, TargetClass::EdgeSite);
        // Tens-to-hundreds of servers per site.
        for s in &d.sites {
            assert!((10..=180).contains(&s.servers.len()));
        }
        // Big metros host multiple sites.
        let beijing_sites = d.sites.iter().filter(|s| s.city.name == "Beijing").count();
        assert!(beijing_sites >= 3, "beijing sites {beijing_sites}");
    }

    #[test]
    fn cloud_regions() {
        let ali = Deployment::alicloud();
        assert_eq!(ali.n_sites(), 12);
        assert_eq!(ali.kind, TargetClass::CloudRegion);
        let hw = Deployment::huawei_cloud();
        assert_eq!(hw.n_sites(), 5);
    }

    #[test]
    fn edge_denser_than_cloud() {
        // Table 1's whole point: NEP density is orders of magnitude higher.
        let mut rng = StdRng::seed_from_u64(2);
        let nep = Deployment::nep(&mut rng, 520);
        let ali = Deployment::alicloud();
        assert!(nep.n_sites() > 40 * ali.n_sites());
    }

    #[test]
    fn nearest_site_ordering() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = Deployment::nep(&mut rng, 200);
        let from = crate::geo_china::city_by_name("Wuhan").unwrap().geo();
        let ordered = d.nearest_sites(from, d.n_sites());
        assert_eq!(ordered.len(), 200);
        for w in ordered.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        for k in [0, 1, 5, 200, 250] {
            assert_eq!(d.nearest_sites(from, k), ordered[..k.min(200)], "k = {k}");
        }
        // A 200-site deployment almost surely has a site in Wuhan itself.
        assert!(ordered[0].1 < 200.0, "nearest {} km", ordered[0].1);
    }

    #[test]
    fn nearest_sites_selection_is_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        let dep = Deployment::nep(&mut rng, 60);
        let from = dep.sites[7].geo();
        let got = dep.nearest_sites(from, 5);
        // Brute force the same selection: a stable sort by distance.
        let mut all: Vec<(usize, f64)> = dep
            .sites
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.geo().distance_km(&from)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1));
        all.truncate(5);
        assert_eq!(got, all);
        assert_eq!(got[0].0, 7, "a site is its own nearest site");
    }

    #[test]
    fn distance_ties_break_by_site_index() {
        // Two sites in one city sit at the same distance from anywhere.
        let dep = Deployment::cloud(&["Beijing", "Shanghai", "Beijing"]);
        let from = dep.sites[1].geo();
        assert_eq!(
            dep.nearest_sites(from, 3)
                .iter()
                .map(|s| s.0)
                .collect::<Vec<_>>(),
            [1, 0, 2]
        );
        assert_eq!(
            dep.nearest_sites(from, 2)
                .iter()
                .map(|s| s.0)
                .collect::<Vec<_>>(),
            [1, 0]
        );
    }

    #[test]
    fn province_filter() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = Deployment::nep(&mut rng, 520);
        let gd = d.sites_in_province("Guangdong");
        assert!(gd.len() >= 11, "guangdong sites {}", gd.len());
        for i in gd {
            assert_eq!(d.sites[i].province(), "Guangdong");
        }
    }

    #[test]
    fn deterministic_deployment() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let da = Deployment::nep(&mut a, 100);
        let db = Deployment::nep(&mut b, 100);
        let ca: Vec<&str> = da.sites.iter().map(|s| s.city.name).collect();
        let cb: Vec<&str> = db.sites.iter().map(|s| s.city.name).collect();
        assert_eq!(ca, cb);
    }
}
