//! Geographic primitives: WGS-84 points and great-circle distances.

/// A point on the globe (degrees latitude / longitude).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees.
    pub lat_deg: f64,
    /// Longitude in degrees.
    pub lon_deg: f64,
}

impl GeoPoint {
    /// Construct a point; panics on out-of-range coordinates (in
    /// scenario data they always indicate corruption). Input read from a
    /// file goes through [`GeoPoint::try_new`] instead.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        Self::try_new(lat_deg, lon_deg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct a point, or say which coordinate is out of range. NaN
    /// is out of every range.
    pub fn try_new(lat_deg: f64, lon_deg: f64) -> Result<Self, String> {
        if !(-90.0..=90.0).contains(&lat_deg) {
            return Err(format!("latitude out of range: {lat_deg}"));
        }
        if !(-180.0..=180.0).contains(&lon_deg) {
            return Err(format!("longitude out of range: {lon_deg}"));
        }
        Ok(GeoPoint { lat_deg, lon_deg })
    }

    /// Great-circle distance to another point, in kilometres.
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        haversine_km(*self, *other)
    }
}

/// Mean Earth radius in kilometres.
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// Haversine great-circle distance between two points, in kilometres.
pub fn haversine_km(a: GeoPoint, b: GeoPoint) -> f64 {
    let lat1 = a.lat_deg.to_radians();
    let lat2 = b.lat_deg.to_radians();
    let dlat = (b.lat_deg - a.lat_deg).to_radians();
    let dlon = (b.lon_deg - a.lon_deg).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance() {
        let p = GeoPoint::new(39.9, 116.4);
        assert_eq!(haversine_km(p, p), 0.0);
    }

    #[test]
    fn beijing_to_guangzhou() {
        // Beijing (39.90, 116.40) to Guangzhou (23.13, 113.26) ≈ 1890 km.
        let bj = GeoPoint::new(39.90, 116.40);
        let gz = GeoPoint::new(23.13, 113.26);
        let d = haversine_km(bj, gz);
        assert!((d - 1890.0).abs() < 30.0, "got {d}");
    }

    #[test]
    fn beijing_to_shanghai() {
        // ≈ 1070 km.
        let bj = GeoPoint::new(39.90, 116.40);
        let sh = GeoPoint::new(31.23, 121.47);
        let d = haversine_km(bj, sh);
        assert!((d - 1070.0).abs() < 30.0, "got {d}");
    }

    #[test]
    fn symmetric() {
        let a = GeoPoint::new(30.0, 100.0);
        let b = GeoPoint::new(45.0, 120.0);
        assert!((haversine_km(a, b) - haversine_km(b, a)).abs() < 1e-9);
    }

    #[test]
    fn triangle_inequality() {
        let a = GeoPoint::new(20.0, 110.0);
        let b = GeoPoint::new(30.0, 115.0);
        let c = GeoPoint::new(40.0, 120.0);
        assert!(haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-9);
    }

    #[test]
    #[should_panic(expected = "latitude out of range")]
    fn bad_latitude() {
        GeoPoint::new(91.0, 0.0);
    }

    #[test]
    fn try_new_rejects_every_out_of_range_coordinate() {
        let corner = GeoPoint {
            lat_deg: -90.0,
            lon_deg: 180.0,
        };
        assert_eq!(GeoPoint::try_new(-90.0, 180.0), Ok(corner));
        let nan = f64::NAN;
        for (lat, lon) in [
            (91.0, 0.0),
            (nan, 0.0),
            (0.0, -180.5),
            (0.0, nan),
            (0.0, f64::INFINITY),
        ] {
            assert!(GeoPoint::try_new(lat, lon).is_err(), "({lat}, {lon})");
        }
        assert_eq!(
            GeoPoint::try_new(91.0, 0.0),
            Err("latitude out of range: 91".into())
        );
    }
}
