//! One command line for every EdgeScope binary.
//!
//! `reproduce`, `edgescope-serve`, `edgescope-bench`, `campaign-tool` and
//! `trace-tool` scan their arguments with [`scan`] and read each
//! `EDGESCOPE_*` variable through [`Setting::resolve`], so the rules are
//! written once:
//!
//! * a value flag is `--name value` or `--name=value`; an unknown flag, a
//!   value flag without its value, a switch given a value and a
//!   positional argument beyond what the command takes are usage errors;
//! * a typed value that does not parse is a usage error naming the flag
//!   and the raw value ([`Args::get`]);
//! * a setting's command-line value wins over its environment variable,
//!   which wins over the binary's default. A setting that picks the world
//!   ([`SEED`], the scale) rejects an invalid value; one that only picks
//!   how the run executes ([`JOBS`], [`LOG`]) warns and falls through to
//!   the next layer.
//!
//! A usage error exits 2 ([`UsageError::exit`]); data and IO errors exit 1.
//!
//! ```
//! use edgescope_obs::cli::{scan, Spec};
//!
//! const SPEC: Spec = Spec { values: &["--jobs", "--only"], switches: &["--help"], positionals: 1 };
//! let argv = ["--jobs=2", "--only", "fig2a", "out"].map(String::from);
//! let args = scan(&SPEC, argv).unwrap();
//! assert_eq!(args.value::<usize>("--jobs"), Ok(Some(2)));
//! assert_eq!(args.raw("--only"), Some("fig2a"));
//! assert_eq!(args.positionals(), ["out"]);
//!
//! let err = scan(&SPEC, ["--jobs=x"].map(String::from)).unwrap().value::<usize>("--jobs");
//! assert!(err.unwrap_err().to_string().starts_with("invalid --jobs value \"x\""));
//! assert!(scan(&SPEC, ["--only"].map(String::from)).is_err());
//! ```

use crate::log::LogFormat;
use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;

/// A command line that breaks the rules of [`scan`] or holds a value that
/// does not parse. Binaries print it with their usage and exit 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl UsageError {
    /// `invalid <source> value "<raw>": <why>`, where `source` is a flag
    /// or an environment variable.
    fn invalid(source: &str, raw: &str, why: &str) -> UsageError {
        UsageError(format!("invalid {source} value {raw:?}: {why}"))
    }

    /// Print the error and `usage` on stderr; the exit status is 2.
    pub fn exit(&self, usage: &str) -> ExitCode {
        eprintln!("error: {self}\n{usage}");
        ExitCode::from(2)
    }
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// The exit status of a command's result: 0 on success, 2 (with `usage`)
/// for a [`UsageError`], 1 for any other error.
pub fn exit_code(result: Result<(), Box<dyn std::error::Error>>, usage: &str) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => match e.downcast_ref::<UsageError>() {
            Some(usage_error) => usage_error.exit(usage),
            None => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// The arguments one command accepts.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Flags that take a value: `--name value` or `--name=value`.
    pub values: &'static [&'static str],
    /// Flags that take none, such as `--check` or `--help`.
    pub switches: &'static [&'static str],
    /// How many positional arguments the command takes at most.
    pub positionals: usize,
}

/// A scanned command line. A flag given twice keeps its last value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positionals: Vec<String>,
}

/// Scan `argv` (without the program name) against `spec`: the one
/// argument loop of the workspace.
///
/// Anything that starts with `-` is a flag; a value flag takes the text
/// after its first `=`, or else the next argument, whatever it is.
pub fn scan(spec: &Spec, argv: impl IntoIterator<Item = String>) -> Result<Args, UsageError> {
    let mut args = Args::default();
    let mut argv = argv.into_iter();
    while let Some(a) = argv.next() {
        if !a.starts_with('-') {
            if args.positionals.len() == spec.positionals {
                return Err(UsageError(format!("unexpected extra argument {a:?}")));
            }
            args.positionals.push(a);
            continue;
        }
        let (name, inline) = match a.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (a.as_str(), None),
        };
        if let Some(&flag) = spec.values.iter().find(|&&f| f == name) {
            let value = inline
                .or_else(|| argv.next())
                .ok_or_else(|| UsageError(format!("{flag} needs a value")))?;
            args.values.push((flag, value));
        } else if let Some(&flag) = spec.switches.iter().find(|&&f| f == name) {
            if inline.is_some() {
                return Err(UsageError(format!("{flag} takes no value")));
            }
            args.switches.push(flag);
        } else {
            return Err(UsageError(format!("unknown flag {a:?}")));
        }
    }
    Ok(args)
}

impl Args {
    /// The last value given for `flag`, as typed.
    pub fn raw(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// `flag`'s value through `parse`; a value it rejects is a usage error
    /// naming the flag, the raw value and `parse`'s reason.
    pub fn get<T>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, UsageError> {
        self.raw(flag)
            .map(|raw| parse(raw).map_err(|why| UsageError::invalid(flag, raw, &why)))
            .transpose()
    }

    /// The `index`-th positional argument through `parse`, as
    /// [`Args::get`] reads a flag; a rejected value is a usage error
    /// naming the argument by `name`.
    pub fn positional<T>(
        &self,
        index: usize,
        name: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, UsageError> {
        self.positionals
            .get(index)
            .map(|raw| parse(raw).map_err(|why| UsageError::invalid(name, raw, &why)))
            .transpose()
    }

    /// `flag`'s value through [`FromStr`].
    pub fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, UsageError>
    where
        T::Err: fmt::Display,
    {
        self.get(flag, |s| s.parse().map_err(|e: T::Err| e.to_string()))
    }
}

/// A positive integer, as every count flag takes it.
pub fn positive(s: &str) -> Result<usize, String> {
    s.parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| "expected a positive integer".into())
}

/// A setting with a command-line flag and an environment variable. The
/// default is the binary's: `reproduce` and `edgescope-serve` default to
/// different tiers.
#[derive(Debug, Clone, Copy)]
pub struct Setting<T> {
    /// The flag, e.g. `--jobs`. A binary without it resolves with no
    /// command-line value.
    pub flag: &'static str,
    /// The environment variable, e.g. `EDGESCOPE_JOBS`.
    pub var: &'static str,
    /// Parses a raw value; the error says what was expected.
    pub parse: fn(&str) -> Result<T, String>,
    /// `true` when an invalid value is a usage error. `false` when it is a
    /// warning and the next layer is tried.
    pub strict: bool,
}

/// A resolved setting and the warnings its invalid layers produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolved<T> {
    /// The value in effect.
    pub value: T,
    /// One line per invalid value that was skipped (lenient settings only).
    pub warnings: Vec<String>,
}

impl<T> Setting<T> {
    /// The one CLI → environment → default resolver, over given layers.
    ///
    /// A strict setting takes the first layer present and rejects it if
    /// it does not parse. A lenient one takes the first layer that parses
    /// and warns about each one that does not.
    pub fn resolve_from(
        &self,
        cli: Option<&str>,
        env: Option<&str>,
        default: impl FnOnce() -> T,
    ) -> Result<Resolved<T>, UsageError> {
        let mut warnings = Vec::new();
        let layers = [(self.flag, cli, self.var), (self.var, env, "the default")];
        for (source, raw, next) in layers {
            let Some(raw) = raw else { continue };
            match (self.parse)(raw) {
                Ok(value) => return Ok(Resolved { value, warnings }),
                Err(why) if self.strict => return Err(UsageError::invalid(source, raw, &why)),
                Err(why) => warnings.push(format!(
                    "warning: invalid {source} value {raw:?} ({why}); falling back to {next}"
                )),
            }
        }
        Ok(Resolved {
            value: default(),
            warnings,
        })
    }

    /// [`Setting::resolve_from`] with this process's environment variable.
    pub fn resolve(
        &self,
        cli: Option<&str>,
        default: impl FnOnce() -> T,
    ) -> Result<Resolved<T>, UsageError> {
        self.resolve_from(cli, std::env::var(self.var).ok().as_deref(), default)
    }
}

/// Worker threads: `--jobs`, then `EDGESCOPE_JOBS`, then [`default_jobs`].
pub const JOBS: Setting<usize> = Setting {
    flag: "--jobs",
    var: "EDGESCOPE_JOBS",
    parse: |s| parse_jobs(s).ok_or_else(|| "expected a positive integer".into()),
    strict: false,
};

/// Span logging on stderr: `--log`, then `EDGESCOPE_LOG`, then off.
pub const LOG: Setting<LogFormat> = Setting {
    flag: "--log",
    var: "EDGESCOPE_LOG",
    parse: |s| {
        LogFormat::parse(s).ok_or_else(|| {
            let [off, pretty, json] = LogFormat::ALL.map(LogFormat::name);
            format!("expected {off}, {pretty} or {json}")
        })
    },
    strict: false,
};

/// The world seed: `--seed`, then `EDGESCOPE_SEED`, then 42. An invalid
/// seed is an error: a silent fallback would run another world.
pub const SEED: Setting<u64> = Setting {
    flag: "--seed",
    var: "EDGESCOPE_SEED",
    parse: |s| {
        s.parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())
    },
    strict: true,
};

/// Parse a `--jobs` / `EDGESCOPE_JOBS` value: a positive integer
/// (surrounding whitespace tolerated), else `None`.
pub fn parse_jobs(s: &str) -> Option<usize> {
    positive(s.trim()).ok()
}

/// The machine's available parallelism (1 if it cannot be queried).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        values: &["--jobs", "--only"],
        switches: &["--check", "-h"],
        positionals: 1,
    };

    fn args(line: &str) -> Result<Args, UsageError> {
        scan(&SPEC, line.split_whitespace().map(String::from))
    }

    #[test]
    fn both_value_forms_switches_and_positionals() {
        let a = args("--jobs 3 out --only=fig2a,table3 --check").unwrap();
        assert_eq!(a.raw("--jobs"), Some("3"));
        assert_eq!(a.raw("--only"), Some("fig2a,table3"));
        assert!(a.switch("--check") && !a.switch("-h"));
        assert_eq!(a.positionals(), ["out"]);
        // The last value wins; `=` splits once; an empty inline value is a value.
        let a = args("--jobs 3 --jobs=4 --only=a=b").unwrap();
        assert_eq!((a.raw("--jobs"), a.raw("--only")), (Some("4"), Some("a=b")));
        assert_eq!(args("--jobs=").unwrap().raw("--jobs"), Some(""));
        // A value flag takes the next argument even when it looks like a flag.
        assert_eq!(args("--only --jobs").unwrap().raw("--only"), Some("--jobs"));
    }

    #[test]
    fn every_usage_error_names_its_argument() {
        for (line, msg) in [
            ("--jobs", "--jobs needs a value"),
            ("out --only", "--only needs a value"),
            ("--bogus", "unknown flag \"--bogus\""),
            ("--bogus=1", "unknown flag \"--bogus=1\""),
            ("-", "unknown flag \"-\""),
            ("--check=yes", "--check takes no value"),
            ("out extra", "unexpected extra argument \"extra\""),
        ] {
            assert_eq!(args(line), Err(UsageError(msg.into())), "{line:?}");
        }
    }

    #[test]
    fn typed_values_name_the_flag_and_the_raw_value() {
        let a = args("--jobs 0 --only x").unwrap();
        assert_eq!(
            a.get("--jobs", positive),
            Err(UsageError(
                "invalid --jobs value \"0\": expected a positive integer".into()
            ))
        );
        assert_eq!(
            a.value::<u16>("--only"),
            Err(UsageError(
                "invalid --only value \"x\": invalid digit found in string".into()
            ))
        );
        assert_eq!(a.value::<u16>("--absent"), Ok(None));
        assert_eq!(
            args("--jobs=7").unwrap().get("--jobs", positive),
            Ok(Some(7))
        );
        // Positionals read the same way, named by the caller.
        let a = args("abc").unwrap();
        assert_eq!(
            a.positional(0, "n_users", positive),
            Err(UsageError(
                "invalid n_users value \"abc\": expected a positive integer".into()
            ))
        );
        assert_eq!(a.positional(1, "n_sites", positive), Ok(None));
        assert_eq!(
            args("12").unwrap().positional(0, "n_users", positive),
            Ok(Some(12))
        );
    }

    #[test]
    fn strict_settings_reject_the_first_layer_given() {
        let seed = |cli, env| SEED.resolve_from(cli, env, || 42).map(|r| r.value);
        assert_eq!(seed(None, None), Ok(42));
        assert_eq!(seed(None, Some("7")), Ok(7));
        assert_eq!(seed(Some("9"), Some("bad")), Ok(9));
        assert_eq!(
            seed(None, Some("4x2")),
            Err(UsageError(
                "invalid EDGESCOPE_SEED value \"4x2\": invalid digit found in string".into()
            ))
        );
        // An invalid CLI value is an error even when the environment is valid.
        assert!(seed(Some("abc"), Some("7"))
            .unwrap_err()
            .0
            .starts_with("invalid --seed value"));
        assert!(seed(Some(""), None).is_err());
    }

    #[test]
    fn lenient_settings_warn_and_fall_through() {
        let r = JOBS.resolve_from(Some("zero"), Some("0"), || 5).unwrap();
        assert_eq!(r.value, 5);
        assert_eq!(
            r.warnings,
            [
                "warning: invalid --jobs value \"zero\" (expected a positive integer); \
                 falling back to EDGESCOPE_JOBS",
                "warning: invalid EDGESCOPE_JOBS value \"0\" (expected a positive integer); \
                 falling back to the default",
            ]
        );
        let r = LOG
            .resolve_from(Some("nope"), Some("json"), LogFormat::default)
            .unwrap();
        assert_eq!((r.value, r.warnings.len()), (LogFormat::Json, 1));
        assert_eq!(
            LOG.resolve_from(None, None, LogFormat::default)
                .unwrap()
                .warnings
                .len(),
            0
        );
    }

    #[test]
    fn an_invalid_log_format_lists_every_format_name() {
        let names = LogFormat::ALL.map(LogFormat::name);
        assert_eq!(names, ["off", "pretty", "json"]);
        assert_eq!(
            (LOG.parse)("yaml").unwrap_err(),
            "expected off, pretty or json"
        );
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(parse_jobs("4"), Some(4));
        assert_eq!(parse_jobs(" 2 "), Some(2));
        assert_eq!(parse_jobs("0"), None);
        assert_eq!(parse_jobs("-3"), None);
        assert_eq!(parse_jobs("many"), None);
        assert_eq!(parse_jobs(""), None);
        assert!(default_jobs() >= 1);
    }
}
