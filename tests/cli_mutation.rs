//! Seeded mutation test of the one argument scanner (`obs::cli`) and the
//! flag → variable → default resolver every binary shares.
//!
//! Command lines are built from a token pool (known, unknown, `=`-joined,
//! empty and dash-only arguments) and then mutated character by character.
//! Each one goes through `cli::scan` and through an independent reference
//! model of the rules; the scanner must never panic, must return `Err`
//! exactly when the model finds a usage error, and must otherwise agree on
//! every value, switch and positional. Random raw values go through every
//! setting the same way. Std-only: a splitmix64 stream, no fuzzing crate.

use edgescope::obs::cli::{self, Args, Setting, Spec};
use edgescope::obs::log::LogFormat;
use edgescope::scenario::{Scale, SCALE};
use std::panic::catch_unwind;

/// Command lines per spec and raw values per setting in the tier-1 run.
const CASES: usize = 3_000;

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

/// The specs of `reproduce`, `edgescope-serve`, `edgescope-bench run` and
/// `campaign-tool summarize`.
const SPECS: [Spec; 4] = [
    Spec {
        values: &["--jobs", "--only", "--log"],
        switches: &["--help", "-h"],
        positionals: 1,
    },
    Spec {
        values: &[
            "--addr",
            "--port",
            "--scale",
            "--seed",
            "--jobs",
            "--workers",
            "--log",
        ],
        switches: &["--help", "-h"],
        positionals: 0,
    },
    Spec {
        values: &["--out", "--tiers"],
        switches: &["--check"],
        positionals: 0,
    },
    Spec {
        values: &[],
        switches: &[],
        positionals: 1,
    },
];

const POOL: [&str; 24] = [
    "--jobs",
    "--only",
    "--log",
    "--port",
    "--seed",
    "--scale",
    "--out",
    "--tiers",
    "--check",
    "--help",
    "-h",
    "--jobs=4",
    "--log=json",
    "--check=1",
    "--bogus",
    "--bogus=1",
    "-",
    "--",
    "",
    "=",
    "results",
    "4",
    "quick,metro",
    "fig2a,table3",
];

/// One command line: pool tokens, some of them mutated.
fn argv(rng: &mut SplitMix) -> Vec<String> {
    let n = rng.below(7);
    (0..n)
        .map(|_| {
            let mut token: Vec<char> = rng.pick(&POOL).chars().collect();
            match rng.below(6) {
                0 if !token.is_empty() => {
                    let at = rng.below(token.len());
                    token.truncate(at);
                }
                1 => {
                    let at = rng.below(token.len() + 1);
                    let c = ['=', '-', 'x', '0', 'é', '\u{0}'][rng.below(6)];
                    token.insert(at, c);
                }
                2 if !token.is_empty() => {
                    let at = rng.below(token.len());
                    token.remove(at);
                }
                _ => {}
            }
            token.into_iter().collect()
        })
        .collect()
}

/// What the reference model expects: every value flag's values in order,
/// the switches, the positionals.
type Expected = (Vec<(String, String)>, Vec<String>, Vec<String>);

/// The rules of `obs::cli::scan`, restated over indices.
fn model(spec: &Spec, argv: &[String]) -> Option<Expected> {
    let (mut values, mut switches, mut positionals) = (Vec::new(), Vec::new(), Vec::new());
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        i += 1;
        if !a.starts_with('-') {
            positionals.push(a.clone());
            if positionals.len() > spec.positionals {
                return None;
            }
            continue;
        }
        let name = a.split('=').next().unwrap_or_default();
        let inline = a.find('=').map(|at| a[at + 1..].to_string());
        if spec.values.contains(&name) {
            let value = match inline {
                Some(v) => v,
                None if i < argv.len() => {
                    i += 1;
                    argv[i - 1].clone()
                }
                None => return None,
            };
            values.push((name.to_string(), value));
        } else if spec.switches.contains(&name) && inline.is_none() {
            switches.push(name.to_string());
        } else {
            return None;
        }
    }
    Some((values, switches, positionals))
}

fn agrees(spec: &Spec, args: &Args, (values, switches, positionals): &Expected) -> bool {
    let last = |flag: &str| {
        values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    };
    spec.values.iter().all(|f| args.raw(f) == last(f))
        && spec
            .switches
            .iter()
            .all(|f| args.switch(f) == switches.iter().any(|s| s == f))
        && args.positionals() == positionals.as_slice()
}

#[test]
fn scanner_agrees_with_the_reference_model_and_never_panics() {
    let mut rng = SplitMix(0x05ee_dc11);
    let (mut accepted, mut rejected) = (0, 0);
    for spec in &SPECS {
        for _ in 0..CASES {
            let argv = argv(&mut rng);
            let got = catch_unwind(|| cli::scan(spec, argv.clone()))
                .unwrap_or_else(|_| panic!("scan panicked on {argv:?}"));
            match (got, model(spec, &argv)) {
                (Ok(args), Some(expected)) => {
                    assert!(
                        agrees(spec, &args, &expected),
                        "{argv:?}: {args:?} vs {expected:?}"
                    );
                    accepted += 1;
                }
                (Err(_), None) => rejected += 1,
                (got, expected) => panic!("{argv:?}: scan {got:?}, model {expected:?}"),
            }
        }
    }
    // Both outcomes are exercised, so neither check is vacuous.
    assert!(
        accepted > CASES / 10 && rejected > CASES / 10,
        "{accepted} / {rejected}"
    );
}

const RAWS: [&str; 12] = [
    "42",
    "7",
    "0",
    "-3",
    "4x2",
    "",
    " 2 ",
    "json",
    "OFF",
    "quick",
    "Metro ",
    "18446744073709551616",
];

/// A raw value: a valid one for some setting, or a mutation of one.
fn raw(rng: &mut SplitMix) -> String {
    let mut s = rng.pick(&RAWS).to_string();
    if rng.below(3) == 0 {
        s.push(['x', '9', ' ', 'é'][rng.below(4)]);
    }
    s
}

/// Resolve random layers through `setting`; a strict setting fails
/// exactly when the first layer given does not parse, a lenient one
/// never fails and warns once per layer it skips.
fn check_setting<T: std::fmt::Debug>(setting: &Setting<T>, default: fn() -> T) {
    let mut rng = SplitMix(0x0005_e771);
    for _ in 0..CASES {
        let cli = (rng.below(2) == 0).then(|| raw(&mut rng));
        let env = (rng.below(2) == 0).then(|| raw(&mut rng));
        let got = catch_unwind(|| setting.resolve_from(cli.as_deref(), env.as_deref(), default))
            .unwrap_or_else(|_| panic!("{} panicked on {cli:?}/{env:?}", setting.var));
        let valid = |raw: &Option<String>| raw.as_deref().map(|s| (setting.parse)(s).is_ok());
        if setting.strict {
            let first = valid(&cli).or(valid(&env)).unwrap_or(true);
            assert_eq!(
                got.is_ok(),
                first,
                "{}: {cli:?}/{env:?} -> {got:?}",
                setting.var
            );
            assert!(got.map_or(true, |r| r.warnings.is_empty()));
        } else {
            let skipped = [valid(&cli), valid(&env)];
            let skipped = skipped.iter().take_while(|v| **v != Some(true));
            let r = got.unwrap_or_else(|e| panic!("lenient {} rejected: {e}", setting.var));
            assert_eq!(
                r.warnings.len(),
                skipped.filter(|v| **v == Some(false)).count()
            );
        }
    }
}

#[test]
fn settings_reject_or_warn_about_every_invalid_value() {
    check_setting(&cli::SEED, || 42);
    check_setting(&SCALE, || Scale::Quick);
    check_setting(&cli::JOBS, || 1);
    check_setting(&cli::LOG, LogFormat::default);
}
