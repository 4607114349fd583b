//! Span-style structured logging for the campaign, written to stderr.
//!
//! The executor emits start/close events around every study build and
//! experiment; the `reproduce` binary routes its own status lines
//! through the same [`Emitter`] so that in `json` mode *every* stderr
//! line is one parseable JSON object (`jq` validates the whole stream).
//! Stdout is never touched, so renders stay byte-identical in every
//! format, and the default is [`LogFormat::Off`].
//!
//! ```
//! use edgescope_obs::log::{Emitter, Field, LogFormat};
//!
//! assert_eq!(LogFormat::parse("JSON"), Some(LogFormat::Json));
//! assert_eq!(LogFormat::parse("verbose"), None);
//!
//! // An Off emitter writes nothing.
//! let quiet = Emitter::new(LogFormat::Off);
//! assert!(!quiet.enabled());
//! quiet.event("executor", "experiment.close", &[
//!     ("name", Field::Str("fig2a")),
//!     ("wall_ms", Field::F64(12.5)),
//! ]);
//! ```

use std::fmt::Write as _;

/// Output format for campaign logging, selected by `--log` /
/// `EDGESCOPE_LOG` ([`crate::cli::LOG`]) on `reproduce` and
/// `edgescope-serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// No logging at all (the default).
    #[default]
    Off,
    /// Human-readable one-line events: `[target] event key=value …`.
    Pretty,
    /// One JSON object per line, machine-parseable.
    Json,
}

impl LogFormat {
    /// Every format, in the order the usage text lists them.
    pub const ALL: [LogFormat; 3] = [LogFormat::Off, LogFormat::Pretty, LogFormat::Json];

    /// The format's name on the command line: `off`, `pretty` or `json`.
    pub fn name(self) -> &'static str {
        match self {
            LogFormat::Off => "off",
            LogFormat::Pretty => "pretty",
            LogFormat::Json => "json",
        }
    }

    /// The format whose [`LogFormat::name`] is `s`, in any case and with
    /// surrounding whitespace tolerated. Anything else is `None`.
    pub fn parse(s: &str) -> Option<LogFormat> {
        let s = s.trim();
        LogFormat::ALL
            .into_iter()
            .find(|f| f.name().eq_ignore_ascii_case(s))
    }
}

/// One typed event field value.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// A string value.
    Str(&'a str),
    /// An unsigned integer value.
    U64(u64),
    /// A real value (printed with 3 decimals in `pretty`, as a JSON
    /// number in `json`; non-finite values become `null`).
    F64(f64),
}

/// A cheap, copyable event writer bound to one [`LogFormat`]. All
/// output goes to stderr, one line per event.
#[derive(Debug, Clone, Copy)]
pub struct Emitter {
    format: LogFormat,
}

impl Emitter {
    /// An emitter for the given format.
    pub fn new(format: LogFormat) -> Self {
        Emitter { format }
    }

    /// The format this emitter writes.
    pub fn format(&self) -> LogFormat {
        self.format
    }

    /// True unless the format is [`LogFormat::Off`].
    pub fn enabled(&self) -> bool {
        self.format != LogFormat::Off
    }

    /// Emit one event line. `target` names the subsystem (`executor`,
    /// `reproduce`), `event` the moment (`experiment.close`), and
    /// `fields` carries the payload in order.
    pub fn event(&self, target: &str, event: &str, fields: &[(&str, Field<'_>)]) {
        match self.format {
            LogFormat::Off => {}
            LogFormat::Pretty => {
                let mut line = format!("[{target}] {event}");
                for (key, value) in fields {
                    match value {
                        Field::Str(s) => {
                            let _ = write!(line, " {key}={s}");
                        }
                        Field::U64(n) => {
                            let _ = write!(line, " {key}={n}");
                        }
                        Field::F64(v) => {
                            let _ = write!(line, " {key}={v:.3}");
                        }
                    }
                }
                eprintln!("{line}");
            }
            LogFormat::Json => {
                let mut line = format!(
                    "{{\"target\":{},\"event\":{}",
                    json_escape(target),
                    json_escape(event)
                );
                for (key, value) in fields {
                    let _ = write!(line, ",{}:", json_escape(key));
                    match value {
                        Field::Str(s) => {
                            let _ = write!(line, "{}", json_escape(s));
                        }
                        Field::U64(n) => {
                            let _ = write!(line, "{n}");
                        }
                        Field::F64(v) if v.is_finite() => {
                            let _ = write!(line, "{v:.3}");
                        }
                        Field::F64(_) => {
                            let _ = write!(line, "null");
                        }
                    }
                }
                line.push('}');
                eprintln!("{line}");
            }
        }
    }

    /// Emit a free-form status message: wrapped in a
    /// `{"target":…,"event":"status","message":…}` object in `json`,
    /// printed verbatim to stderr otherwise (`off` and `pretty`), so a
    /// binary's status lines read the same with logging off.
    pub fn status(&self, target: &str, message: &str) {
        match self.format {
            LogFormat::Off | LogFormat::Pretty => eprintln!("{message}"),
            LogFormat::Json => {
                self.event(target, "status", &[("message", Field::Str(message))]);
            }
        }
    }
}

/// Escape `s` as a double-quoted JSON string literal.
///
/// ```
/// assert_eq!(edgescope_obs::log::json_escape("a\"b"), "\"a\\\"b\"");
/// ```
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_formats_only() {
        assert_eq!(LogFormat::parse(" pretty "), Some(LogFormat::Pretty));
        assert_eq!(LogFormat::parse("OFF"), Some(LogFormat::Off));
        assert_eq!(LogFormat::parse("json"), Some(LogFormat::Json));
        assert_eq!(LogFormat::parse(""), None);
        assert_eq!(LogFormat::parse("yaml"), None);
    }

    #[test]
    fn every_name_parses_back_and_names_are_distinct() {
        for (i, format) in LogFormat::ALL.into_iter().enumerate() {
            assert_eq!(LogFormat::parse(format.name()), Some(format));
            for other in &LogFormat::ALL[i + 1..] {
                assert_ne!(format, *other);
                assert_ne!(format.name(), other.name());
            }
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "\"plain\"");
        assert_eq!(json_escape("a\nb"), "\"a\\nb\"");
        assert_eq!(json_escape("q\"\\"), "\"q\\\"\\\\\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn default_format_is_off() {
        assert_eq!(LogFormat::default(), LogFormat::Off);
        assert!(!Emitter::new(LogFormat::default()).enabled());
    }
}
