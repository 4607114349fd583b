//! A tiny deterministic JSON writer.
//!
//! The whole service's determinism contract rests on responses being
//! *byte*-identical for identical requests, so serialization must be a
//! pure function of the value: object keys render in insertion order,
//! floats render through Rust's shortest-roundtrip `Display` (stable
//! across platforms for the same bits) — in scientific notation
//! (`LowerExp`) when their magnitude is below 10⁻⁵ or from 10¹⁶ on, so
//! no float renders longer than about two dozen characters — and
//! non-finite floats become `null` (JSON has no NaN/inf literal).
//! String escaping reuses [`edgescope_obs::log::json_escape`], the same
//! escaper the structured log stream and `metrics.json` use.

use edgescope_obs::log::json_escape;
use std::fmt::Write as _;

/// Why `write!` into a `String` is expected to succeed.
const STRING_WRITE: &str = "writing into a String cannot fail";

/// A JSON value. Construct with the `From` impls and [`Json::obj`] /
/// [`Json::arr`], render with [`Json::render`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A float — non-finite values render as `null`.
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order (no sorting, no
    /// hashing — byte-stable by construction).
    Obj(Vec<(&'static str, Json)>),
    /// A pre-rendered JSON fragment spliced in verbatim (e.g. a metric
    /// value that already knows its own JSON form).
    Raw(String),
}

impl Json {
    /// An object from `(key, value)` pairs, keys in render order.
    pub fn obj(pairs: Vec<(&'static str, Json)>) -> Json {
        Json::Obj(pairs)
    }

    /// An array.
    pub fn arr(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }

    /// Render to a compact JSON string (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => write!(out, "{n}").expect(STRING_WRITE),
            Json::F64(x) if !x.is_finite() => out.push_str("null"),
            Json::F64(x) if *x != 0.0 && !(1e-5..1e16).contains(&x.abs()) => {
                write!(out, "{x:e}").expect(STRING_WRITE)
            }
            Json::F64(x) => write!(out, "{x}").expect(STRING_WRITE),
            Json::Str(s) => out.push_str(&json_escape(s)),
            Json::Raw(s) => out.push_str(s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_escape(k));
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::F64(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_in_insertion_order() {
        let v = Json::obj(vec![
            ("b", Json::U64(2)),
            ("a", Json::arr(vec![Json::Null, Json::Bool(true)])),
            ("s", Json::from("x\"y")),
        ]);
        assert_eq!(v.render(), r#"{"b":2,"a":[null,true],"s":"x\"y"}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
        assert_eq!(Json::F64(2.5).render(), "2.5");
    }

    #[test]
    fn tiny_and_huge_floats_render_in_scientific_notation() {
        for (x, want) in [
            (5e-324, "5e-324"),
            (-2.5e-7, "-2.5e-7"),
            (9.99e-6, "9.99e-6"),
            (1e-5, "0.00001"),
            (123.25, "123.25"),
            (9999999999999998.0, "9999999999999998"),
            (1e16, "1e16"),
            (-f64::MAX, "-1.7976931348623157e308"),
            (0.0, "0"),
            (-0.0, "-0"),
        ] {
            assert_eq!(Json::F64(x).render(), want, "{x:e}");
        }
    }
}
