//! Query-string parsing with strict validation.
//!
//! Every handler declares the exact parameter names it accepts; anything
//! else is a structured 400 (never a silent ignore, never a panic).
//! Numeric parameters additionally reject NaN/inf/out-of-range at the
//! boundary, so no request can smuggle a NaN into a policy comparator —
//! the serve-layer complement of the `total_cmp` sweep in
//! `edgescope-sched`.

/// One value of a choice parameter: the value, its canonical name and
/// the other spellings it accepts. A choice table lists the parameter's
/// values with its default first.
pub type Choice<T> = (T, &'static str, &'static [&'static str]);

/// Parsed query parameters, in query-string order.
#[derive(Debug, Clone, Default)]
pub struct Params {
    pairs: Vec<(String, String)>,
}

/// Percent-decode one query component (`+` decodes to space).
fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // Two hex digits exactly: `from_str_radix` alone would
                // also take a sign, decoding `%+5` as byte 0x05.
                let hex = bytes
                    .get(i + 1..i + 3)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => return Err(format!("invalid percent-escape in '{s}'")),
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("query component '{s}' is not UTF-8"))
}

impl Params {
    /// Parse a raw query string (the part after `?`, possibly empty).
    pub fn parse(query: &str) -> Result<Params, String> {
        let mut pairs = Vec::new();
        for part in query.split('&') {
            if part.is_empty() {
                continue;
            }
            let (k, v) = part.split_once('=').unwrap_or((part, ""));
            pairs.push((percent_decode(k)?, percent_decode(v)?));
        }
        Ok(Params { pairs })
    }

    /// Reject any parameter name outside `allowed` — unknown params are
    /// a client error, not noise to ignore.
    pub fn check_allowed(&self, allowed: &[&str]) -> Result<(), String> {
        for (k, _) in &self.pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(format!(
                    "unknown parameter '{k}'; allowed parameters: {}",
                    allowed.join(", ")
                ));
            }
        }
        Ok(())
    }

    /// The last value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// A required string parameter.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required parameter '{name}'"))
    }

    /// The value of choice parameter `name` with its canonical name: the
    /// row of `table` one of whose spellings equals the parameter,
    /// ignoring ASCII case, or the first row when it is absent. An
    /// unknown value is an error that echoes it lower-cased and lists
    /// the canonical names, lower-cased, in table order.
    pub fn choice<T: Copy>(
        &self,
        name: &str,
        table: &[Choice<T>],
    ) -> Result<(&'static str, T), String> {
        let Some(raw) = self.get(name) else {
            let (value, canonical, _) = table[0];
            return Ok((canonical, value));
        };
        table
            .iter()
            .find(|(_, canonical, aliases)| {
                std::iter::once(canonical)
                    .chain(*aliases)
                    .any(|spelling| spelling.eq_ignore_ascii_case(raw))
            })
            .map(|&(value, canonical, _)| (canonical, value))
            .ok_or_else(|| {
                let valid: Vec<&str> = table.iter().map(|&(_, canonical, _)| canonical).collect();
                format!(
                    "unknown {name} '{}'; valid: {}",
                    raw.to_ascii_lowercase(),
                    valid.join(", ").to_ascii_lowercase()
                )
            })
    }

    /// The `seed` parameter as a `u32` (default 0). The client seed
    /// becomes the entity index of the request's RNG stream, and the
    /// `entity_tag` layout carries 32 index bits — so wider values are a
    /// 400, not a silent truncation.
    pub fn seed(&self) -> Result<u32, String> {
        match self.get("seed") {
            None => Ok(0),
            Some(raw) => raw
                .parse::<u32>()
                .map_err(|_| format!("seed '{raw}' must be an unsigned 32-bit integer")),
        }
    }

    /// An optional float in `(0, max]` (NaN/inf/0/negative and values
    /// above `max` are all 400s).
    pub fn positive_f64(&self, name: &str, default: f64, max: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => {
                let x: f64 = raw
                    .parse()
                    .map_err(|_| format!("{name} '{raw}' must be a number"))?;
                if !x.is_finite() || x <= 0.0 {
                    return Err(format!("{name} '{raw}' must be finite and > 0"));
                }
                if x > max {
                    return Err(format!("{name} '{raw}' must be in (0, {max}]"));
                }
                Ok(x)
            }
        }
    }

    /// An optional finite fraction in `[0, 1]` (NaN/inf/out-of-range are
    /// all 400s) — the shape of the `density` contention knob.
    pub fn fraction(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => {
                let x: f64 = raw
                    .parse()
                    .map_err(|_| format!("{name} '{raw}' must be a number"))?;
                if !x.is_finite() || !(0.0..=1.0).contains(&x) {
                    return Err(format!("{name} '{raw}' must be a fraction in [0, 1]"));
                }
                Ok(x)
            }
        }
    }

    /// An optional positive integer.
    pub fn positive_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => {
                let n: usize = raw
                    .parse()
                    .map_err(|_| format!("{name} '{raw}' must be a positive integer"))?;
                if n == 0 {
                    return Err(format!("{name} must be >= 1"));
                }
                Ok(n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_decodes() {
        let p = Params::parse("city=Hong%20Kong&access=wifi&seed=7").unwrap();
        assert_eq!(p.get("city"), Some("Hong Kong"));
        assert_eq!(p.seed().unwrap(), 7);
        assert!(p.check_allowed(&["city", "access", "seed"]).is_ok());
        assert!(p.check_allowed(&["city", "seed"]).is_err());
    }

    #[test]
    fn percent_escape_is_two_hex_digits() {
        assert_eq!(
            Params::parse("city=%41%6a").unwrap().get("city"),
            Some("Aj")
        );
        for bad in [
            "city=%+5", "city=%-5", "city=%4", "city=%", "city=%g0", "city=% 5",
        ] {
            let err = Params::parse(bad).unwrap_err();
            assert!(err.contains("invalid percent-escape"), "{bad}: {err}");
        }
    }

    #[test]
    fn rejects_nan_and_overflow() {
        let p = Params::parse("peak_mbps=NaN&seed=4294967296").unwrap();
        assert!(p.positive_f64("peak_mbps", 1.0, f64::MAX).is_err());
        assert!(p.seed().is_err());
    }

    #[test]
    fn positive_f64_bounds() {
        let p = Params::parse("at=10&over=10.5&tiny=1e-300").unwrap();
        assert_eq!(p.positive_f64("at", 1.0, 10.0), Ok(10.0));
        assert_eq!(p.positive_f64("tiny", 1.0, 10.0), Ok(1e-300));
        assert_eq!(p.positive_f64("absent", 2.0, 10.0), Ok(2.0));
        assert_eq!(
            p.positive_f64("over", 1.0, 10.0).unwrap_err(),
            "over '10.5' must be in (0, 10]"
        );
    }

    #[test]
    fn choice_is_case_insensitive_and_defaults_to_the_first_row() {
        const TABLE: [Choice<u8>; 2] = [(1, "One", &[]), (2, "two", &["2", "deux"])];
        let p = Params::parse("a=one&b=DEUX&c=2&d=three").unwrap();
        assert_eq!(p.choice("a", &TABLE), Ok(("One", 1)));
        assert_eq!(p.choice("b", &TABLE), Ok(("two", 2)));
        assert_eq!(p.choice("c", &TABLE), Ok(("two", 2)));
        assert_eq!(p.choice("absent", &TABLE), Ok(("One", 1)));
        assert_eq!(
            p.choice("d", &TABLE).unwrap_err(),
            "unknown d 'three'; valid: one, two"
        );
    }

    #[test]
    fn fraction_bounds() {
        let p = Params::parse("density=0.6&bad=1.5&worse=NaN").unwrap();
        assert_eq!(p.fraction("density", 0.0).unwrap(), 0.6);
        assert_eq!(p.fraction("absent", 0.25).unwrap(), 0.25);
        assert!(p.fraction("bad", 0.0).is_err());
        assert!(p.fraction("worse", 0.0).is_err());
    }
}
