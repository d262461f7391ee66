//! Seeded mutational fuzzing of [`Json::parse`].
//!
//! The parser reads untrusted input: every `ad-serve` request line goes
//! through it before anything else. Each mutant of a corpus of real
//! documents runs on a thread with a 256 KiB stack (an eighth of the
//! default) and must either be refused with a [`JsonError`] or parse to a
//! value whose compact form parses again to the same compact form. A panic
//! or a stack overflow fails the test.

use ad_util::{Json, JsonError, Rng64};

/// Real documents: request lines from the `ad-serve` docs and tests, the
/// shipped hardware configs and a plan payload as the daemon returns it.
const CORPUS: [&str; 10] = [
    r#"{"op":"plan","model":"resnet50","batch":4}"#,
    r#"{"op": "plan", "model": "tiny_cnn", "hw": {"mesh_cols": 4, "mesh_rows": 4}, "fast": true}"#,
    r#"{"op":"plan","model":"tiny_cnn","budget":{"sa_iterz":1},"deadline_ms":250,"validate":"deny"}"#,
    r#"{"op":"plan","model":"tiny_cnn","strategy":"LS","batch":8}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"shutdown"}"#,
    r#"{"ok":false,"refused":"overloaded","error":"overloaded: 3 requests queued or in flight (bound 2)"}"#,
    include_str!("../../../configs/paper_8x8.json"),
    include_str!("../../../configs/edge_4x4.json"),
    include_str!("corpus/plan_tiny_cnn.json"),
];

/// Stack of the thread each mutant is parsed on.
const STACK_BYTES: usize = 256 * 1024;

/// Bytes that steer the parser into a different branch when flipped in.
const INTERESTING: &[u8] = b"[]{}\",:\\-+.eE0123456789tfnu \n\x00\xff";

/// Overwrites one to four bytes, with structural bytes or arbitrary ones.
fn flip_bytes(bytes: &mut [u8], rng: &mut Rng64) {
    for _ in 0..=rng.below(4) {
        let at = rng.below(bytes.len());
        bytes[at] = if rng.chance(0.5) {
            INTERESTING[rng.below(INTERESTING.len())]
        } else {
            bytes[at] ^ (1 << rng.below(8))
        };
    }
}

/// Opens (and sometimes closes) 10^4 to 10^5 arrays or objects.
fn bracket_blow_up(rng: &mut Rng64) -> Vec<u8> {
    let levels = rng.range_usize(10_000, 100_001);
    let (open, close): (&[u8], &[u8]) = if rng.chance(0.5) {
        (b"[", b"]")
    } else {
        (b"{\"a\":", b"}")
    };
    let mut out = open.repeat(levels);
    if rng.chance(0.5) {
        out.extend_from_slice(b"0");
        out.extend_from_slice(&close.repeat(levels));
    }
    out
}

/// A number the `f64` conversion has to work for: very long mantissas and
/// exponents far past the representable range.
fn huge_number(rng: &mut Rng64) -> Vec<u8> {
    let digits = "9".repeat(rng.range_usize(300, 5_000));
    let text = match rng.below(5) {
        0 => digits,
        1 => format!("-{digits}.{digits}"),
        2 => format!("1e{}", rng.below_u64(u64::MAX)),
        3 => format!("-0.{digits}e-{digits}"),
        _ => format!("{digits}E+{digits}"),
    };
    text.into_bytes()
}

/// A lone (unpaired) UTF-16 surrogate escape, which has no `char`.
fn lone_surrogate(rng: &mut Rng64) -> Vec<u8> {
    let unit = 0xd800 + rng.below_u64(0x800);
    format!("\\u{unit:04x}").into_bytes()
}

/// Replaces the first run of digits at or after `at` with `insert`: in a
/// corpus document that run is usually a number token, so the result is
/// often still valid JSON.
fn replace_digits(bytes: &mut Vec<u8>, at: usize, insert: &[u8]) {
    let Some(start) = bytes[at..].iter().position(u8::is_ascii_digit) else {
        return;
    };
    let start = at + start;
    let len = bytes[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    bytes.splice(start..start + len, insert.iter().copied());
}

/// The `case`-th fuzz input: a corpus document with one or two mutations.
fn fuzz_input(case: usize, rng: &mut Rng64) -> Vec<u8> {
    let mut bytes = CORPUS[case % CORPUS.len()].as_bytes().to_vec();
    for _ in 0..=rng.below(2) {
        if bytes.is_empty() {
            bytes.push(b'[');
        }
        let at = rng.below(bytes.len());
        match rng.below(6) {
            0 => flip_bytes(&mut bytes, rng),
            1 => bytes.truncate(at),
            2 => {
                let nest = bracket_blow_up(rng);
                replace_digits(&mut bytes, at, &nest);
            }
            3 | 4 => {
                let number = huge_number(rng);
                replace_digits(&mut bytes, at, &number);
            }
            _ => {
                // Right after a quote: inside a string about half the time.
                let escape = lone_surrogate(rng);
                let quote = bytes[at..].iter().position(|&b| b == b'"');
                let at = quote.map_or(at, |q| at + q + 1);
                bytes.splice(at..at, escape.iter().copied());
            }
        }
    }
    bytes
}

/// Parses `text` on a small-stack thread. A refusal is returned; an
/// accepted document must serialize to a compact form that parses back to
/// itself.
fn parse_on_small_stack(text: String) -> Result<(), JsonError> {
    let worker = std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(move || {
            let compact = Json::parse(&text)?.to_compact();
            let again = Json::parse(&compact)
                .unwrap_or_else(|e| panic!("compact form fails to parse ({e}): {compact}"));
            assert_eq!(
                again.to_compact(),
                compact,
                "compact form is not a fixed point"
            );
            Ok(())
        })
        .unwrap_or_else(|e| panic!("spawn fuzz thread: {e}"));
    worker
        .join()
        .unwrap_or_else(|_| panic!("the parser panicked"))
}

/// Runs `cases` mutants from `seed`; both outcomes must each be common.
fn fuzz(seed: u64, cases: usize) {
    let mut rng = Rng64::new(seed);
    let (mut refused, mut parsed) = (0, 0);
    for case in 0..cases {
        let bytes = fuzz_input(case, &mut rng);
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let shown: String = text.chars().take(300).collect();
        let outcome = std::panic::catch_unwind(|| parse_on_small_stack(text));
        match outcome {
            Ok(Ok(())) => parsed += 1,
            Ok(Err(e)) => {
                assert!(!e.msg.is_empty(), "case {case}: empty error message");
                refused += 1;
            }
            Err(_) => panic!("case {case} failed; input starts:\n{shown}"),
        }
    }
    assert!(
        refused >= cases / 10 && parsed >= cases / 10,
        "refused {refused}, parsed {parsed} of {cases}"
    );
}

#[test]
fn mutated_json_is_refused_or_round_trips() {
    fuzz(0x5eed_7e57, 600);
}

/// The long variant, run in CI: `cargo test --release -p ad-util -- --ignored`.
#[test]
#[ignore = "long fuzz run; CI runs it in release"]
fn mutated_json_is_refused_or_round_trips_long() {
    fuzz(0x10f6_f022, 20_000);
}
