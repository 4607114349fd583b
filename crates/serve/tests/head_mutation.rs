//! Seeded mutation test of the HTTP request-head parser
//! (`http::parse_head`), the service's one input boundary before the
//! query string.
//!
//! Valid heads, shaped like the load generator's (`GET` of a `/query/*`
//! target with a `seed`, a `Host` header, CRLF or bare-LF line ends),
//! are mutated by a splitmix64 stream: bit flips, truncation, insertion
//! of the bytes the parser splits on (CR, LF, space, `%`, `?`, `&`, `=`)
//! or of any byte, and splicing of lines, request-line tokens and query
//! parameters, within one head and from a donor head. The parser must
//! never panic, and every outcome must be a request (whose query the
//! parameter parser then takes without panicking) or a 400/405 whose
//! body is a JSON object with one `error` string. A failing case names
//! its index and its input; the stream of case `i` is seeded by `i`
//! alone, so any case can be replayed. Std-only: no fuzzing crate.

use edgescope_serve::http::parse_head;
use edgescope_serve::query::Params;
use std::panic::catch_unwind;

/// Mutated heads in the tier-1 run.
const CASES: usize = 3_000;

/// Mutated heads in the long run (`cargo test --release -p
/// edgescope-serve --test head_mutation -- --ignored`).
const LONG_CASES: usize = 1_000_000;

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
}

/// Bytes that sit on the parser's decision points: line ends, the
/// request-line separator, the path/query split, the query's own
/// separators and escapes, and a byte that is not UTF-8 alone.
const INSERTABLE: &[u8] = b"\r\n ?%&=+\xff";

/// Unmutated heads: the three query endpoints as the load generator
/// writes them, a bare path, and the header variants a client may send.
const HEADS: [&str; 6] = [
    "GET /query/qoe?city=Shanghai&access=wifi&deployment=nep&seed=3417 HTTP/1.1\r\nHost: bench\r\n\r\n",
    "GET /query/bill?city=Xi%27an&app=live-streaming&operator=cmcc&seed=77 HTTP/1.1\r\nHost: bench\r\n\r\n",
    "GET /query/placement?policy=load-aware&provider=metroedge&app=cloud-gaming&seed=9 HTTP/1.1\r\nHost: bench\r\n\r\n",
    "GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    "GET /query/qoe?city=Chengdu&contention=heavy&density=0.5 HTTP/1.0\nHost: t\nAccept: */*\n\n",
    "GET /query/bill?city=Wuhan&peak_mbps=800&seed=6 HTTP/1.1\r\nHost: bench\r\nUser-Agent: x\r\n\r\n",
];

/// Delete, duplicate or swap one of `parts`, or replace it with one of
/// `donor_parts`.
fn splice(rng: &mut SplitMix, parts: &mut Vec<Vec<u8>>, donor_parts: &[Vec<u8>]) {
    let i = rng.below(parts.len());
    let j = rng.below(parts.len());
    match rng.below(4) {
        0 => {
            parts.remove(i);
        }
        1 => {
            let part = parts[i].clone();
            parts.insert(j, part);
        }
        2 => parts.swap(i, j),
        _ => parts[i] = donor_parts[rng.below(donor_parts.len())].clone(),
    }
}

fn split(b: &[u8], sep: u8) -> Vec<Vec<u8>> {
    b.split(|&c| c == sep).map(<[u8]>::to_vec).collect()
}

/// Apply one mutation to `bytes`: a bit flip, a truncation, a byte
/// insertion, or a splice of lines (on LF), of request-line tokens (on
/// space) or of query parameters (on `&`).
fn mutate(rng: &mut SplitMix, bytes: &mut Vec<u8>, donor: &[u8]) {
    match rng.below(4) {
        // Bit flip.
        0 if !bytes.is_empty() => {
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
        }
        // Truncation.
        1 => {
            let at = rng.below(bytes.len() + 1);
            bytes.truncate(at);
        }
        // Byte insertion.
        2 => {
            let at = rng.below(bytes.len() + 1);
            let b = if rng.below(4) == 0 {
                rng.next() as u8
            } else {
                INSERTABLE[rng.below(INSERTABLE.len())]
            };
            bytes.insert(at, b);
        }
        // Splice.
        _ => {
            let sep = [b'\n', b' ', b'&'][rng.below(3)];
            let mut parts = split(bytes, sep);
            splice(rng, &mut parts, &split(donor, sep));
            *bytes = parts.join(&sep);
        }
    }
}

/// Case `case`'s input: 1–3 mutations of one head, with another as the
/// donor, all drawn from the case's own stream.
fn mutated(case: usize) -> Vec<u8> {
    let mut rng = SplitMix(case as u64);
    let base = rng.below(HEADS.len());
    let donor = HEADS[(base + 1 + rng.below(HEADS.len() - 1)) % HEADS.len()].as_bytes();
    let mut bytes = HEADS[base].as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        mutate(&mut rng, &mut bytes, donor);
    }
    bytes
}

/// Whether `s` is the inside of a JSON string: no raw control
/// characters, no bare quote, and only the escapes JSON defines.
fn json_string_body(s: &str) -> bool {
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return false,
            c if (c as u32) < 0x20 => return false,
            '\\' => match chars.next() {
                Some('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') => {}
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    if hex.len() != 4 || !hex.chars().all(|h| h.is_ascii_hexdigit()) {
                        return false;
                    }
                }
                _ => return false,
            },
            _ => {}
        }
    }
    true
}

/// Parse one head and check its outcome; `Err` names what is wrong.
/// Returns whether the head was accepted as a request.
fn check(input: &[u8]) -> Result<bool, String> {
    let parsed = catch_unwind(|| parse_head(input)).map_err(|_| "parser panicked".to_string())?;
    match parsed {
        Ok(req) => {
            if req.path.contains('?') || req.path.contains(char::is_whitespace) {
                return Err(format!("path {:?} keeps a split byte", req.path));
            }
            if req.query.contains(char::is_whitespace) {
                return Err(format!("query {:?} keeps whitespace", req.query));
            }
            if catch_unwind(|| Params::parse(&req.query)).is_err() {
                return Err(format!("query parser panicked on {:?}", req.query));
            }
            Ok(true)
        }
        Err(resp) => {
            if !matches!(resp.status, 400 | 405) {
                return Err(format!("status {}: {}", resp.status, resp.body));
            }
            let message = resp
                .body
                .strip_prefix("{\"error\":\"")
                .and_then(|rest| rest.strip_suffix("\"}"));
            match message {
                Some(m) if json_string_body(m) => Ok(false),
                _ => Err(format!(
                    "{} body is not a JSON error: {}",
                    resp.status, resp.body
                )),
            }
        }
    }
}

/// Run `cases` mutated heads through the parser; panics on the first
/// case that fails [`check`]. Returns (accepted, rejected).
fn check_heads(cases: usize) -> (usize, usize) {
    for head in HEADS {
        assert_eq!(check(head.as_bytes()), Ok(true), "unmutated {head:?}");
    }
    let mut accepted = 0;
    for case in 0..cases {
        let input = mutated(case);
        match check(&input) {
            Ok(ok) => accepted += usize::from(ok),
            Err(e) => panic!(
                "case {case}: {e}; input {:?}",
                String::from_utf8_lossy(&input)
            ),
        }
    }
    (accepted, cases - accepted)
}

#[test]
fn mutated_heads_never_panic_and_every_outcome_is_a_request_or_a_json_4xx() {
    let (accepted, rejected) = check_heads(CASES);
    // The mutations must exercise both outcomes, or the test checks
    // nothing: most leave a parseable head, some break it.
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// Case 92 of the first run: a bit flip turned `GET` into `GE\`, and
/// the 405 copied the method into its body unescaped, which made the
/// body invalid JSON. A quote or a control byte in the method did the
/// same.
#[test]
fn a_method_with_json_metacharacters_gets_a_json_405() {
    for method in ["GE\\", "G\"T", "G\u{7}T", "GET\u{1f}"] {
        let head = format!("{method} /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(check(head.as_bytes()), Ok(false), "{head:?}");
        let resp = parse_head(head.as_bytes()).expect_err("not GET");
        assert_eq!(resp.status, 405, "{head:?}");
    }
}

#[test]
#[ignore = "10^6 mutated heads; run in release with --ignored"]
fn a_million_mutated_heads_never_panic() {
    check_heads(LONG_CASES);
}
