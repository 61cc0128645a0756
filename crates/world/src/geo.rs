//! Synthetic geolocation, standing in for the DbIP database (paper §7.3).
//!
//! The paper geolocates each vulnerable IP, buckets coordinates, and draws
//! choropleths of vulnerable and patched hosts (Figure 3). The substitution
//! here maps each host to its country — usually implied by its domain's
//! ccTLD, otherwise drawn from a hosting-weighted global distribution —
//! and each country to a representative coordinate with jitter.

use spfail_netsim::SimRng;

/// A geolocated point with its country code.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoPoint {
    /// ISO-ish country code (we use TLD-style lowercase codes).
    pub country: &'static str,
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

/// (country, lat, lon, hosting-weight) for the generic pool used when a
/// domain's TLD implies no country.
const COUNTRIES: [(&str, f64, f64, f64); 24] = [
    ("us", 39.0, -98.0, 30.0),
    ("de", 51.0, 10.0, 9.0),
    ("fr", 46.5, 2.5, 5.0),
    ("nl", 52.2, 5.3, 4.5),
    ("uk", 53.0, -1.5, 5.0),
    ("ru", 57.0, 50.0, 7.0),
    ("cn", 34.0, 104.0, 4.0),
    ("jp", 36.0, 138.0, 3.0),
    ("kr", 36.5, 127.8, 2.0),
    ("in", 21.0, 78.0, 3.5),
    ("br", -10.0, -52.0, 3.0),
    ("ca", 56.0, -106.0, 2.5),
    ("au", -25.0, 134.0, 2.0),
    ("ir", 32.0, 53.0, 2.5),
    ("tr", 39.0, 35.0, 2.0),
    ("ua", 49.0, 31.5, 2.0),
    ("pl", 52.0, 19.5, 2.0),
    ("cz", 49.8, 15.5, 1.0),
    ("za", -29.0, 24.0, 0.8),
    ("gr", 39.0, 22.0, 0.6),
    ("il", 31.5, 34.8, 0.6),
    ("by", 53.5, 28.0, 0.4),
    ("tw", 23.7, 121.0, 0.8),
    ("mx", 23.5, -102.0, 1.2),
];

/// The hosting weights of [`COUNTRIES`], in row order.
const WEIGHTS: [f64; COUNTRIES.len()] = {
    let mut weights = [0.0; COUNTRIES.len()];
    let mut i = 0;
    while i < COUNTRIES.len() {
        weights[i] = COUNTRIES[i].3;
        i += 1;
    }
    weights
};

/// Country-coded TLDs we map directly to a country.
const CC_TLDS: [&str; 22] = [
    "de", "fr", "nl", "uk", "ru", "cn", "jp", "kr", "in", "br", "ca", "au", "ir", "tr", "ua",
    "pl", "cz", "za", "gr", "il", "by", "tw",
];

/// Geolocate a host: ccTLD domains stay in their country with high
/// probability; everything else draws from the hosting-weighted pool.
pub fn locate(tld: &str, rng: &mut SimRng) -> GeoPoint {
    let country_row = if CC_TLDS.contains(&tld) && rng.chance(0.85) {
        COUNTRIES
            .iter()
            .find(|(c, _, _, _)| *c == tld)
            .expect("every ccTLD has a country row")
    } else {
        let idx = rng.pick_weighted(&WEIGHTS).expect("non-empty weights");
        &COUNTRIES[idx]
    };
    let (country, lat, lon, _) = *country_row;
    GeoPoint {
        country,
        lat: lat + (rng.unit() - 0.5) * 6.0,
        lon: lon + (rng.unit() - 0.5) * 6.0,
    }
}

/// Bucket a coordinate into a grid cell of `cell` degrees, for choropleth
/// aggregation.
pub fn bucket(point: &GeoPoint, cell: f64) -> (i32, i32) {
    (
        (point.lat / cell).floor() as i32,
        (point.lon / cell).floor() as i32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cctld_hosts_mostly_stay_home() {
        let mut rng = SimRng::new(42);
        let hits = (0..1000)
            .filter(|_| locate("za", &mut rng).country == "za")
            .count();
        assert!(hits > 750, "za hosts at home: {hits}");
    }

    #[test]
    fn generic_tlds_spread_over_the_pool() {
        let mut rng = SimRng::new(43);
        let us = (0..1000)
            .filter(|_| locate("com", &mut rng).country == "us")
            .count();
        assert!((150..500).contains(&us), "us share of com hosting: {us}");
    }

    #[test]
    fn coordinates_are_jittered_near_the_country() {
        let mut rng = SimRng::new(44);
        for _ in 0..100 {
            let p = locate("tw", &mut rng);
            if p.country == "tw" {
                assert!((p.lat - 23.7).abs() <= 3.0);
                assert!((p.lon - 121.0).abs() <= 3.0);
            }
        }
    }

    #[test]
    fn bucketing_is_stable() {
        let p = GeoPoint {
            country: "us",
            lat: 39.4,
            lon: -98.7,
        };
        assert_eq!(bucket(&p, 10.0), (3, -10));
        assert_eq!(bucket(&p, 5.0), (7, -20));
    }
}
