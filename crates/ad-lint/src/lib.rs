//! Repo-specific static analysis for the atomic-dataflow workspace.
//!
//! The whole reproduction rests on bit-identical, seeded planning and
//! simulation: SA atom generation, DP round scheduling and the affinity
//! mapper are all searches whose results must be comparable across runs
//! and machines. Two classes of code defeat that
//! silently — hash-ordered iteration in planning code, and unseeded
//! entropy / wall-clock reads in cost paths — and a third (`unwrap` in
//! library code) undermines the typed-error work. This crate makes those
//! invariants machine-checked instead of reviewer-checked.
//!
//! The scanner is a hand-rolled token masker, not a full parser: the
//! workspace builds offline with zero external dependencies (no `syn`),
//! and the rules only need comment/string-aware, `#[cfg(test)]`-aware
//! matching with file:line diagnostics. Rules:
//!
//! * **D1 `hash-container`** — no `std::collections::HashMap`/`HashSet` in
//!   the planning/sim crates (`core`, `accel-sim`, `noc-model`,
//!   `ad-serve`): iteration
//!   order can silently break tie-breaking. The preferred replacement is
//!   keyspace-dependent (DESIGN.md §11): dense ids (`TaskId`, `AtomId`,
//!   `LayerId`, engine indices) index a flat `Vec` whose scan order is
//!   explicit; `BTreeMap`/`BTreeSet` stay the sanctioned fallback for
//!   genuinely sparse keys (e.g. bit-packed `DataId`s) and need no allow
//!   comment — only hash containers are findings.
//! * **D2 `nondeterminism`** — no unseeded randomness (`thread_rng`,
//!   `from_entropy`, `rand::random`) and no `Instant`/`SystemTime` in
//!   cost/cycle-model crates. Seeded `ad_util::Rng64` only.
//! * **D3 `unscoped-thread`** — no detached `thread::spawn` (nor
//!   `thread::Builder`, its named twin) in the model crates: the parallel
//!   candidate search runs on the Drop-joined `ad_util::WorkerPool` and
//!   reduces in fixed index order, so a free-running thread is a
//!   determinism (and panic-propagation) hole by construction. The pool's
//!   own `Builder` spawns carry explicit allow-comments naming the join
//!   point.
//! * **D4 `unbounded-channel`** — no `std::sync::mpsc::channel()` in the
//!   serving crates (`ad-serve`, `util`): an unbounded sender turns every
//!   producer into an invisible queue, so overload shows up as memory
//!   growth and late timeouts instead of the typed `Overloaded` refusal
//!   the admission layer owes its clients. Use `mpsc::sync_channel`
//!   (bounded, applies backpressure) or submit through
//!   `ad_util::BoundedQueue` / `ad_util::WorkerPool`.
//! * **P1 `panic`** — no `.unwrap()` / `.expect("…")` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in library code outside
//!   `#[cfg(test)]` modules, `tests/` trees and binary targets. Contract
//!   assertions (`assert!`) remain the sanctioned invariant mechanism.
//! * **C1 `lossy-cast`** — no narrowing `as` casts (`as u8`/`u16`/`u32`/
//!   `i8`/`i16`/`i32`) in the planning/sim crates: cycle and byte
//!   accounting is 64-bit, and a silent truncation corrupts results instead
//!   of failing. Use `TryFrom` or the `ad_util::cast` contract helpers.
//!
//! Any finding can be suppressed with a trailing (or immediately
//! preceding, on its own line) `// ad-lint: allow(<rule>[, <rule>…])`
//! comment; `allow(all)` suppresses every rule for that line.

use std::fmt;
use std::path::{Path, PathBuf};

/// The rule set. Codes `d1`/`d2`/`p1`/`c1` and the kebab-case slugs are
/// both accepted in `allow(...)` directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1: hash-ordered containers in planning/sim crates.
    HashContainer,
    /// D2: unseeded randomness or wall-clock reads in model crates.
    Nondeterminism,
    /// D3: detached `thread::spawn` in model crates (scoped threads only).
    UnscopedThread,
    /// D4: unbounded `mpsc::channel()` in serving crates (bounded only).
    UnboundedChannel,
    /// P1: panicking shortcuts in library code.
    Panic,
    /// C1: narrowing `as` casts on accounting types.
    LossyCast,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 6] = [
        Rule::HashContainer,
        Rule::Nondeterminism,
        Rule::UnscopedThread,
        Rule::UnboundedChannel,
        Rule::Panic,
        Rule::LossyCast,
    ];

    /// Kebab-case slug used in diagnostics and allow-comments.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::HashContainer => "hash-container",
            Rule::Nondeterminism => "nondeterminism",
            Rule::UnscopedThread => "unscoped-thread",
            Rule::UnboundedChannel => "unbounded-channel",
            Rule::Panic => "panic",
            Rule::LossyCast => "lossy-cast",
        }
    }

    /// Short code (`D1`…`C1`) used in diagnostics.
    pub fn code(self) -> &'static str {
        match self {
            Rule::HashContainer => "D1",
            Rule::Nondeterminism => "D2",
            Rule::UnscopedThread => "D3",
            Rule::UnboundedChannel => "D4",
            Rule::Panic => "P1",
            Rule::LossyCast => "C1",
        }
    }

    /// Parses an `allow(...)` operand (slug or code, case-insensitive).
    pub fn parse(name: &str) -> Option<Rule> {
        let n = name.trim().to_ascii_lowercase();
        Rule::ALL
            .into_iter()
            .find(|r| r.slug() == n || r.code().eq_ignore_ascii_case(&n))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.code(), self.slug())
    }
}

/// One finding: a rule violation at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the scanned root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// What was matched.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: {}",
            self.file, self.line, self.rule, self.message, self.snippet
        )
    }
}

/// Crates whose planning/simulation results must be hash-order-free (D1)
/// and truncation-free (C1). Directory names under `crates/`. `ad-serve`
/// is included: its cache serves plan payloads whose byte identity is a
/// contract, so iteration order in the store is as load-bearing as in the
/// planner itself.
const PLANNING_CRATES: [&str; 4] = ["core", "accel-sim", "noc-model", "ad-serve"];

/// Crates whose cost/cycle paths must not read entropy or wall clocks (D2):
/// the planning crates plus every model crate they are built from, plus
/// `ad-serve` (its LRU order must be a logical tick, not wall time, or
/// eviction — and therefore which requests are hits — becomes
/// timing-dependent).
const MODEL_CRATES: [&str; 7] = [
    "core",
    "accel-sim",
    "noc-model",
    "engine-model",
    "mem-model",
    "util",
    "ad-serve",
];

/// Crates that accept work from clients or submit work to worker pools
/// (D4): every producer→consumer hand-off in them must be bounded, or
/// overload degrades into memory growth and late timeouts instead of the
/// typed `Overloaded` refusal the admission layer promises. `util` is
/// included because it hosts the queue/pool primitives the serving path
/// is built from.
const SERVING_CRATES: [&str; 2] = ["ad-serve", "util"];

/// Crates exempt from P1: `bench` drives experiments from binaries and
/// aborts loudly by design.
const PANIC_EXEMPT_CRATES: [&str; 1] = ["bench"];

/// Walks `root` and lints every `.rs` file of the workspace.
///
/// # Errors
///
/// Returns the first I/O error encountered while walking or reading.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, std::io::Error> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.extend(lint_file(&rel, &src));
    }
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), std::io::Error> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Which crate a workspace-relative path belongs to (`crates/<name>/…`),
/// or the root package for `src/`/`tests/` at the top level.
fn crate_of(rel: &str) -> &str {
    match rel.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or(""),
        None => "ad-repro",
    }
}

/// Test-only locations (P1/C1/D2 do not apply there).
fn is_test_path(rel: &str) -> bool {
    ["tests/", "benches/", "examples/"]
        .iter()
        .any(|dir| rel.starts_with(dir) || rel.contains(&format!("/{dir}")))
}

/// Binary-target locations (P1/C1 do not apply: CLIs abort loudly).
fn is_bin_path(rel: &str) -> bool {
    rel.contains("/src/bin/") || rel.ends_with("src/main.rs") || rel.ends_with("build.rs")
}

/// Lints one file's source text. `rel` is the workspace-relative path used
/// for crate scoping and in diagnostics.
pub fn lint_file(rel: &str, src: &str) -> Vec<Diagnostic> {
    let krate = crate_of(rel);
    let d1 = PLANNING_CRATES.contains(&krate);
    let d2 = MODEL_CRATES.contains(&krate) && !is_test_path(rel);
    let d3 = MODEL_CRATES.contains(&krate) && !is_test_path(rel);
    let d4 = SERVING_CRATES.contains(&krate) && !is_test_path(rel);
    let p1 = !PANIC_EXEMPT_CRATES.contains(&krate) && !is_test_path(rel) && !is_bin_path(rel);
    let c1 = PLANNING_CRATES.contains(&krate) && !is_test_path(rel) && !is_bin_path(rel);
    if !(d1 || d2 || d3 || d4 || p1 || c1) {
        return Vec::new();
    }

    // D1 applies to test code too (hash-ordered assertions are as
    // non-reproducible as hash-ordered planning); the other rules are
    // library-code-only, so they match against a buffer with
    // `#[cfg(test)]` items blanked out.
    let code_masked = mask_non_code(src);
    let lib_masked = mask_test_blocks(&code_masked);
    let raw_lines: Vec<&str> = src.lines().collect();
    let code_lines: Vec<&str> = code_masked.lines().collect();
    let lib_lines: Vec<&str> = lib_masked.lines().collect();

    let mut out = Vec::new();
    let mut carried: Vec<Rule> = Vec::new();
    let mut carried_all = false;
    for (i, code_line) in code_lines.iter().enumerate() {
        let raw = raw_lines.get(i).copied().unwrap_or("");
        let masked_line = lib_lines.get(i).copied().unwrap_or("");
        let (mut allowed, mut allow_all) = parse_allow(raw);
        allowed.append(&mut carried);
        allow_all |= carried_all;
        carried_all = false;
        // A directive on an otherwise code-free line covers the next line.
        if code_line.trim().is_empty() {
            carried = allowed;
            carried_all = allow_all;
            continue;
        }

        let mut findings: Vec<(Rule, String)> = Vec::new();
        if d1 {
            for word in ["HashMap", "HashSet"] {
                if find_word(code_line, word).is_some() {
                    findings.push((
                        Rule::HashContainer,
                        format!(
                            "`{word}` iteration order is unstable; index dense ids with a \
                             `Vec` (DESIGN.md §11) or use the BTree equivalent for sparse keys"
                        ),
                    ));
                }
            }
        }
        if d2 {
            for (word, why) in [
                ("thread_rng", "unseeded entropy breaks reproducibility"),
                ("from_entropy", "unseeded entropy breaks reproducibility"),
                ("Instant", "wall-clock reads do not belong in model code"),
                ("SystemTime", "wall-clock reads do not belong in model code"),
            ] {
                if find_word(masked_line, word).is_some() {
                    findings.push((Rule::Nondeterminism, format!("`{word}`: {why}")));
                }
            }
        }
        if d3 {
            // `thread::spawn` (std-qualified or not) detaches; scoped
            // spawns appear as `s.spawn(...)` and never match.
            // `thread::Builder` spawns are detached too — the worker-pool
            // implementation in `ad_util::par` uses it behind explicit
            // allow-comments because its `Drop` joins every worker,
            // restoring the scoped guarantee; any other use needs the same
            // justification.
            for (pat, message) in [
                (
                    "thread::spawn",
                    "detached `thread::spawn`; use `ad_util::WorkerPool` \
                     (joins in Drop) so workers join deterministically",
                ),
                (
                    "thread::Builder",
                    "`thread::Builder` spawns detach; use `ad_util::WorkerPool` \
                     (joins in Drop) or justify with an allow-comment that \
                     names who joins the thread",
                ),
            ] {
                if let Some(pos) = masked_line.find(pat) {
                    let left_ok = pos == 0 || !is_ident_byte(masked_line.as_bytes()[pos - 1]);
                    if left_ok {
                        findings.push((Rule::UnscopedThread, message.to_string()));
                    }
                }
            }
        }
        if d4 {
            // `mpsc::channel` at identifier boundaries: the bounded
            // `mpsc::sync_channel` never matches (different path segment),
            // and neither do unrelated `channel` identifiers. Matching the
            // qualified path also catches the `use` import, so a later
            // bare `channel()` call cannot slip in without one.
            if let Some(pos) = masked_line.find("mpsc::channel") {
                let end = pos + "mpsc::channel".len();
                let bytes = masked_line.as_bytes();
                let left_ok = pos == 0 || !is_ident_byte(bytes[pos - 1]);
                let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
                if left_ok && right_ok {
                    findings.push((
                        Rule::UnboundedChannel,
                        "unbounded `mpsc::channel()` in a serving crate; use \
                         `mpsc::sync_channel` or submit through \
                         `ad_util::BoundedQueue`/`ad_util::WorkerPool` so \
                         overload becomes a typed refusal, not memory growth"
                            .to_string(),
                    ));
                }
            }
        }
        if p1 {
            if masked_line.contains(".unwrap()") {
                findings.push((
                    Rule::Panic,
                    "`.unwrap()` in library code; return a typed error".to_string(),
                ));
            }
            // `.expect("…")` with a literal message is Option/Result::expect;
            // same-named parser methods taking byte/expr args are not matched.
            if masked_line.contains(".expect(\"") {
                findings.push((
                    Rule::Panic,
                    "`.expect(\"…\")` in library code; return a typed error".to_string(),
                ));
            }
            for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
                let word = &mac[..mac.len() - 1];
                if masked_line.contains(mac) && find_word(masked_line, word).is_some() {
                    findings.push((
                        Rule::Panic,
                        format!("`{mac}` in library code; return a typed error"),
                    ));
                }
            }
        }
        if c1 {
            if let Some(ty) = narrowing_cast(masked_line) {
                findings.push((
                    Rule::LossyCast,
                    format!("narrowing `as {ty}` cast; use TryFrom or an `ad_util::cast` helper"),
                ));
            }
        }

        for (rule, message) in findings {
            if allow_all || allowed.contains(&rule) {
                continue;
            }
            out.push(Diagnostic {
                file: rel.to_string(),
                line: i + 1,
                rule,
                message,
                snippet: raw.trim().to_string(),
            });
        }
    }
    out
}

/// Extracts `ad-lint: allow(a, b)` directives from a raw source line.
/// Returns the listed rules and whether `allow(all)` was present.
fn parse_allow(raw: &str) -> (Vec<Rule>, bool) {
    let mut rules = Vec::new();
    let mut all = false;
    let mut rest = raw;
    while let Some(pos) = rest.find("ad-lint:") {
        rest = &rest[pos + "ad-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            break;
        };
        let args = &rest[open + "allow(".len()..];
        let Some(close) = args.find(')') else { break };
        for name in args[..close].split(',') {
            if name.trim().eq_ignore_ascii_case("all") {
                all = true;
            } else if let Some(r) = Rule::parse(name) {
                rules.push(r);
            }
        }
        rest = &args[close..];
    }
    (rules, all)
}

/// Finds `word` at identifier boundaries.
fn find_word(line: &str, word: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            return Some(start);
        }
        from = end;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Detects ` as <narrow-int>` casts; returns the target type.
fn narrowing_cast(line: &str) -> Option<&'static str> {
    const NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
    if line.trim_start().starts_with("use ") {
        return None; // `use x as y` aliases, never casts
    }
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(" as ") {
        let start = from + pos;
        let after_as = start + " as ".len();
        let end = line[after_as..]
            .bytes()
            .position(|b| !is_ident_byte(b))
            .map_or(bytes.len(), |p| after_as + p);
        let ty = &line[after_as..end];
        if let Some(n) = NARROW.iter().find(|n| **n == ty) {
            return Some(n);
        }
        from = after_as;
    }
    None
}

/// Replaces comments and string/char-literal contents with spaces, keeping
/// line structure intact so line numbers survive.
fn mask_non_code(src: &str) -> String {
    enum St {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
    }
    let mut out = String::with_capacity(src.len());
    let chars: Vec<char> = src.chars().collect();
    let mut st = St::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    out.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                }
                '"' => {
                    st = St::Str;
                    out.push('"');
                    i += 1;
                }
                'r' | 'b' if is_raw_string_start(&chars, i) => {
                    let (hashes, consumed) = raw_string_open(&chars, i);
                    st = St::RawStr(hashes);
                    for _ in 0..consumed {
                        out.push(' ');
                    }
                    out.push('"');
                    i += consumed + 1; // prefix plus the opening quote
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes within a few
                    // chars (possibly escaped); a lifetime never closes.
                    if let Some(len) = char_literal_len(&chars, i) {
                        out.push('\'');
                        for _ in 0..len.saturating_sub(2) {
                            out.push(' ');
                        }
                        out.push('\'');
                        i += len;
                    } else {
                        out.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            St::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' && next.is_some() {
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Code;
                    out.push('"');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' && raw_string_closes(&chars, i, hashes) {
                    st = St::Code;
                    out.push('"');
                    for _ in 0..hashes {
                        out.push(' ');
                    }
                    i += 1 + hashes;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        }
    }
    out
}

/// Whether `chars[i..]` starts a *raw* string literal (`r"`, `r#"`, `br"`).
/// Plain `b"…"` byte strings return `false`: the ordinary string state
/// handles their escapes.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// `(hash_count, chars_before_the_opening_quote)` for a raw-string opener.
fn raw_string_open(chars: &[char], i: usize) -> (usize, usize) {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
    }
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (hashes, j - i)
}

fn raw_string_closes(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Length of a char literal starting at `i` (including both quotes), or
/// `None` when the quote is a lifetime.
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped: find the closing quote within a small window
            // (`\n`, `\x7F`, `\u{10FFFF}`).
            (i + 2..(i + 12).min(chars.len()))
                .find(|&j| chars.get(j) == Some(&'\''))
                .map(|j| j - i + 1)
        }
        Some(_) if chars.get(i + 2) == Some(&'\'') => Some(3),
        _ => None,
    }
}

/// Blanks every `#[cfg(test)]`-gated item (attribute and body) in
/// already comment/string-masked source. Masked source is ASCII-safe in
/// the positions we scan, but all offsets here are byte offsets into the
/// same buffer, so multi-byte characters simply pass through untouched.
fn mask_test_blocks(masked: &str) -> String {
    let mut out: Vec<u8> = masked.bytes().collect();
    let mut search_from = 0;
    while search_from < out.len() {
        let hay = String::from_utf8_lossy(&out[search_from..]).into_owned();
        let hit = ["#[cfg(test)]", "#[cfg(all(test"]
            .iter()
            .filter_map(|pat| hay.find(pat))
            .min();
        let Some(rel_start) = hit else { break };
        let start = search_from + rel_start;
        // Scan forward from the attribute for the item body. A `;` before
        // any `{` means a body-less item (e.g. a gated `use`): blank only
        // through the `;`.
        let mut depth = 0usize;
        let mut entered = false;
        let mut end = out.len();
        for (j, &b) in out.iter().enumerate().skip(start) {
            match b {
                b'{' => {
                    depth += 1;
                    entered = true;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if entered && depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                b';' if !entered => {
                    end = j + 1;
                    break;
                }
                _ => {}
            }
        }
        for slot in out.iter_mut().take(end).skip(start) {
            if *slot != b'\n' {
                *slot = b' ';
            }
        }
        search_from = end;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Renders diagnostics as a JSON array (the workspace has no external
/// serializer; escaping is done by hand).
pub fn to_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }
    let items: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                concat!(
                    "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",",
                    "\"code\":\"{}\",\"message\":\"{}\",\"snippet\":\"{}\"}}"
                ),
                esc(&d.file),
                d.line,
                d.rule.slug(),
                d.rule.code(),
                esc(&d.message),
                esc(&d.snippet)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}
