//! The simlint rule set.
//!
//! Every rule is a determinism/hermeticity hazard check over the *masked*
//! source (comments and literals blanked — see [`super::lexer`]):
//!
//! | rule | flags | scope |
//! |------|-------|-------|
//! | `wall-clock` | `Instant::now` / `SystemTime::now` | non-test code outside `crates/bench/src/harness.rs` |
//! | `hash-collections` | `HashMap` / `HashSet` | non-test code in simulation crates (everything but `crates/bench`) |
//! | `float-cmp` | `==` / `!=` with a float-literal operand | non-test code |
//! | `float-order` | `partial_cmp(..).unwrap()` / `sort_unstable_by` keyed through `partial_cmp` (use `total_cmp` or `.expect("why")`) | everywhere, tests included |
//! | `unwrap` | `.unwrap()` (use `.expect("why")`) | non-test code |
//! | `debug-macros` | `todo!` / `dbg!` / `unimplemented!` | everywhere, tests included |
//! | `panics-doc` | panicking `pub fn` without a `# Panics` doc section | non-test code |
//! | `process-exit` | `process::exit` (bypasses destructors; return `ExitCode` from `main` instead) | non-test code outside `src/bin` directories |
//! | `mode-match-in-inline-handler` | `match` on a `Mode` scrutinee inside an `#[inline]` fn (protocol decisions belong in the dispatch specialization, picked once per run) | non-test code outside `engine/dispatch.rs` |
//! | `hand-codec` | a hand-written `impl FromJson for` (declare the wire form with `tracefmt::json_codec!`, whose decoder rejects unknown and duplicate keys) | non-test code outside `crates/tracefmt/src/json.rs` |
//!
//! Suppress a finding with `// simlint: allow(<rule>)` on the same line or
//! the line directly above; several rules may be comma-separated.

use std::collections::BTreeSet;

use super::lexer::Lexed;
use super::Violation;

/// All rule names, in reporting order.
pub const RULES: [&str; 10] = [
    "wall-clock",
    "hash-collections",
    "float-cmp",
    "float-order",
    "unwrap",
    "debug-macros",
    "panics-doc",
    "process-exit",
    "mode-match-in-inline-handler",
    "hand-codec",
];

/// One file prepared for rule checks.
pub(crate) struct FileContext<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// Raw source lines (for snippets and doc-comment checks).
    pub raw_lines: Vec<&'a str>,
    /// Lexer output.
    pub lexed: &'a Lexed,
    /// `(line, rules)` suppressions; a pragma covers its own line and the
    /// next one.
    pub allows: Vec<(usize, BTreeSet<String>)>,
    /// 1-based line of the first `#[cfg(test)]`; everything from there on
    /// is test code.
    pub first_test_line: Option<usize>,
    /// Whole file is test/bench/example code by path.
    pub is_test_path: bool,
}

impl<'a> FileContext<'a> {
    pub fn new(path: &'a str, source: &'a str, lexed: &'a Lexed) -> Self {
        let mut allows = Vec::new();
        for (line, text) in &lexed.comments {
            let mut rules = BTreeSet::new();
            let mut rest = text.as_str();
            while let Some(at) = rest.find("simlint: allow(") {
                rest = &rest[at + "simlint: allow(".len()..];
                if let Some(close) = rest.find(')') {
                    for rule in rest[..close].split(',') {
                        rules.insert(rule.trim().to_string());
                    }
                    rest = &rest[close + 1..];
                } else {
                    break;
                }
            }
            if !rules.is_empty() {
                allows.push((*line, rules));
            }
        }
        let first_test_line = lexed
            .masked_lines
            .iter()
            .position(|l| l.contains("#[cfg(test)]"))
            .map(|idx| idx + 1);
        let is_test_path = ["/tests/", "/benches/", "/examples/"]
            .iter()
            .any(|d| path.contains(d))
            || path.starts_with("tests/")
            || path.starts_with("benches/")
            || path.starts_with("examples/");
        FileContext {
            path,
            raw_lines: source.lines().collect(),
            lexed,
            allows,
            first_test_line,
            is_test_path,
        }
    }

    fn in_test_code(&self, line: usize) -> bool {
        self.is_test_path || self.first_test_line.is_some_and(|t| line >= t)
    }

    fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|(l, rules)| (*l == line || l + 1 == line) && rules.contains(rule))
    }

    /// Record a rule hit: a violation, unless a pragma suppresses it.
    fn hit(
        &self,
        rule: &'static str,
        line: usize,
        out: &mut Vec<Violation>,
        suppressed: &mut usize,
    ) {
        if self.allowed(rule, line) {
            *suppressed += 1;
        } else {
            out.push(Violation {
                path: self.path.to_string(),
                line,
                rule,
                snippet: self
                    .raw_lines
                    .get(line - 1)
                    .map_or(String::new(), |l| l.trim().to_string()),
            });
        }
    }
}

/// Run every rule over one prepared file. Returns `(violations,
/// suppressed_count)`.
pub(crate) fn check_file(ctx: &FileContext<'_>) -> (Vec<Violation>, usize) {
    let mut out = Vec::new();
    let mut suppressed = 0usize;
    for (idx, masked) in ctx.lexed.masked_lines.iter().enumerate() {
        let line = idx + 1;
        let test_code = ctx.in_test_code(line);

        if !test_code
            && !ctx.path.ends_with("crates/bench/src/harness.rs")
            && (masked.contains("Instant::now") || masked.contains("SystemTime::now"))
        {
            ctx.hit("wall-clock", line, &mut out, &mut suppressed);
        }
        if !test_code
            && !ctx.path.contains("crates/bench/")
            && (contains_word(masked, "HashMap") || contains_word(masked, "HashSet"))
        {
            ctx.hit("hash-collections", line, &mut out, &mut suppressed);
        }
        if !test_code && float_comparison(masked) {
            ctx.hit("float-cmp", line, &mut out, &mut suppressed);
        }
        // Float ordering must be total and explicit: `partial_cmp(..)
        // .unwrap()` panics the moment a NaN sneaks in, and an unstable
        // sort keyed through `partial_cmp` leans on an order that does
        // not exist for all inputs. Reach for `total_cmp`, or assert
        // finiteness via `.expect("why")` — sweeps and tests included,
        // since result ordering feeds golden comparisons.
        if partial_cmp_unwrap(masked) {
            ctx.hit("float-order", line, &mut out, &mut suppressed);
        } else if masked.contains("sort_unstable_by") {
            let window_end = (idx + 3).min(ctx.lexed.masked_lines.len());
            if ctx.lexed.masked_lines[idx..window_end]
                .iter()
                .any(|l| l.contains("partial_cmp"))
            {
                ctx.hit("float-order", line, &mut out, &mut suppressed);
            }
        }
        if !test_code && masked.contains(".unwrap()") {
            ctx.hit("unwrap", line, &mut out, &mut suppressed);
        }
        if contains_macro(masked, "todo")
            || contains_macro(masked, "dbg")
            || contains_macro(masked, "unimplemented")
        {
            ctx.hit("debug-macros", line, &mut out, &mut suppressed);
        }
        // Library code must not tear the process down: `process::exit`
        // skips destructors (unflushed sweep results!) and robs callers of
        // the chance to handle the failure. Binaries return an `ExitCode`
        // from `main` instead; only `src/bin` trees are exempt.
        if !test_code && !ctx.path.contains("src/bin/") && masked.contains("process::exit") {
            ctx.hit("process-exit", line, &mut out, &mut suppressed);
        }
        // A hand-written decoder tends to read the keys it knows and skip
        // the rest, so a typo silently runs the default. Shapes the codec
        // macro cannot declare say why in a pragma.
        if !test_code
            && !ctx.path.ends_with("crates/tracefmt/src/json.rs")
            && contains_word(masked, "impl")
            && masked.contains("FromJson for ")
        {
            ctx.hit("hand-codec", line, &mut out, &mut suppressed);
        }
    }
    panics_doc(ctx, &mut out, &mut suppressed);
    mode_match_in_inline(ctx, &mut out, &mut suppressed);
    (out, suppressed)
}

/// Is `word` present with non-identifier characters (or boundaries) on
/// both sides?
fn contains_word(line: &str, word: &str) -> bool {
    let mut rest = line;
    let mut offset = 0usize;
    while let Some(at) = rest.find(word) {
        let start = offset + at;
        let end = start + word.len();
        let before_ok = start == 0 || !is_ident_char(line.as_bytes()[start - 1] as char);
        let after_ok = end >= line.len() || !is_ident_char(line.as_bytes()[end] as char);
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[at + word.len()..];
        offset = end;
    }
    false
}

/// `name!` with a non-identifier character before `name` (so
/// `debug_assert!` does not match `assert!`).
fn contains_macro(line: &str, name: &str) -> bool {
    let pat = format!("{name}!");
    let mut rest = line;
    let mut offset = 0usize;
    while let Some(at) = rest.find(&pat) {
        let start = offset + at;
        let before_ok = start == 0 || !is_ident_char(line.as_bytes()[start - 1] as char);
        if before_ok {
            return true;
        }
        rest = &rest[at + pat.len()..];
        offset = start + pat.len();
    }
    false
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `partial_cmp` with `.unwrap()` chained later on the same line.
fn partial_cmp_unwrap(line: &str) -> bool {
    line.find("partial_cmp")
        .is_some_and(|at| line[at..].contains(".unwrap()"))
}

/// `==` or `!=` with a float literal (or `f32::`/`f64::` constant) on
/// either side.
fn float_comparison(line: &str) -> bool {
    let bytes = line.as_bytes();
    for i in 0..bytes.len().saturating_sub(1) {
        let op = &line[i..i + 2];
        if op != "==" && op != "!=" {
            continue;
        }
        // Exclude `<=`, `>=`, `=>`, `===`-like neighbours.
        if i > 0 && matches!(bytes[i - 1], b'=' | b'<' | b'>' | b'!') {
            continue;
        }
        if bytes.get(i + 2) == Some(&b'=') {
            continue;
        }
        let left = token_left(line, i);
        let right = token_right(line, i + 2);
        if is_float_token(&left) || is_float_token(&right) {
            return true;
        }
    }
    false
}

fn token_left(line: &str, end: usize) -> String {
    let bytes = line.as_bytes();
    let mut j = end;
    while j > 0 && bytes[j - 1] == b' ' {
        j -= 1;
    }
    let stop = j;
    while j > 0 && is_token_char(bytes[j - 1] as char) {
        j -= 1;
    }
    line[j..stop].to_string()
}

fn token_right(line: &str, start: usize) -> String {
    let bytes = line.as_bytes();
    let mut j = start;
    while j < bytes.len() && bytes[j] == b' ' {
        j += 1;
    }
    let begin = j;
    while j < bytes.len() && is_token_char(bytes[j] as char) {
        j += 1;
    }
    line[begin..j].to_string()
}

fn is_token_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':')
}

fn is_float_token(tok: &str) -> bool {
    if tok.starts_with("f32::") || tok.starts_with("f64::") {
        return true;
    }
    let first = match tok.chars().next() {
        Some(c) => c,
        None => return false,
    };
    if !first.is_ascii_digit() {
        return false;
    }
    // `0.0`, `1.5`, `3.` — but not `tuple.0` (handled by the digit-first
    // check) and not integers.
    tok.contains('.') || tok.ends_with("f32") || tok.ends_with("f64")
}

/// The `panics-doc` rule: a non-test `pub fn` whose body uses a panicking
/// macro must carry a `# Panics` doc section.
fn panics_doc(ctx: &FileContext<'_>, out: &mut Vec<Violation>, suppressed: &mut usize) {
    const PANIC_MACROS: [&str; 5] = ["panic", "assert", "assert_eq", "assert_ne", "unreachable"];
    let lines = &ctx.lexed.masked_lines;
    for (idx, masked) in lines.iter().enumerate() {
        let line = idx + 1;
        if ctx.in_test_code(line) || !is_pub_fn_line(masked) {
            continue;
        }
        let Some((body_start, body_end)) = fn_body_span(lines, idx) else {
            continue;
        };
        let body_panics = lines[body_start..=body_end]
            .iter()
            .any(|l| PANIC_MACROS.iter().any(|m| contains_macro(l, m)));
        if !body_panics {
            continue;
        }
        if doc_block_has_panics_section(ctx, idx) {
            continue;
        }
        ctx.hit("panics-doc", line, out, suppressed);
    }
}

/// The `mode-match-in-inline-handler` rule: an `#[inline]`-marked fn —
/// the marker the engine puts on its per-event hot handlers — must not
/// re-decide the protocol at runtime. A `match` on a `Mode`-typed
/// scrutinee belongs in `engine/dispatch.rs`, where the specialization
/// is selected once per run and the per-event branches fold away.
fn mode_match_in_inline(ctx: &FileContext<'_>, out: &mut Vec<Violation>, suppressed: &mut usize) {
    if ctx.path.ends_with("engine/dispatch.rs") {
        return;
    }
    let lines = &ctx.lexed.masked_lines;
    for (idx, masked) in lines.iter().enumerate() {
        if !masked.trim_start().starts_with("#[inline") {
            continue;
        }
        // Walk over any further attributes and (masked-out) doc comments
        // to the fn this attribute decorates.
        let Some(fn_idx) = (idx + 1..lines.len()).find(|&j| {
            let t = lines[j].trim_start();
            !(t.is_empty() || t.starts_with("#["))
        }) else {
            continue;
        };
        if find_word(&lines[fn_idx], "fn").is_none() {
            continue;
        }
        let Some((body_start, body_end)) = fn_body_span(lines, fn_idx) else {
            continue;
        };
        for (body_idx, body_line) in lines[body_start..=body_end].iter().enumerate() {
            let line = body_start + body_idx + 1;
            if ctx.in_test_code(line) || !match_on_mode(body_line) {
                continue;
            }
            ctx.hit("mode-match-in-inline-handler", line, out, suppressed);
        }
    }
}

/// A `match` whose scrutinee (the text before the arm block opens)
/// mentions a `Mode`-typed value: the `Mode` type itself, a `mode`
/// binding, or a `*_mode` field.
fn match_on_mode(line: &str) -> bool {
    let Some(at) = find_word(line, "match") else {
        return false;
    };
    let scrutinee = line[at + "match".len()..].split('{').next().unwrap_or("");
    scrutinee
        .split(|c: char| !is_ident_char(c))
        .any(|tok| tok == "Mode" || tok == "mode" || tok.ends_with("_mode"))
}

/// A line declaring a public function: `pub fn`, `pub const fn`,
/// `pub(crate) fn`, … — anything with a `pub` token before a `fn` token.
fn is_pub_fn_line(masked: &str) -> bool {
    let Some(fn_at) = find_word(masked, "fn") else {
        return false;
    };
    match find_word(masked, "pub") {
        Some(pub_at) => pub_at < fn_at,
        None => false,
    }
}

fn find_word(line: &str, word: &str) -> Option<usize> {
    let mut rest = line;
    let mut offset = 0usize;
    while let Some(at) = rest.find(word) {
        let start = offset + at;
        let end = start + word.len();
        let before_ok = start == 0 || !is_ident_char(line.as_bytes()[start - 1] as char);
        let after_ok = end >= line.len() || !is_ident_char(line.as_bytes()[end] as char);
        if before_ok && after_ok {
            return Some(start);
        }
        rest = &rest[at + word.len()..];
        offset = end;
    }
    None
}

/// `(first, last)` 0-based line indices of the `{ … }` body of the fn
/// declared on `fn_idx`, found by brace counting. `None` for bodyless
/// declarations (trait methods).
fn fn_body_span(lines: &[String], fn_idx: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut started = false;
    for (idx, l) in lines.iter().enumerate().skip(fn_idx) {
        for c in l.chars() {
            match c {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => depth -= 1,
                ';' if !started && idx == fn_idx => return None,
                _ => {}
            }
        }
        if started && depth == 0 {
            return Some((fn_idx, idx));
        }
    }
    None
}

/// Walk the doc comment above `fn_idx` (skipping attributes) looking for a
/// `# Panics` section.
fn doc_block_has_panics_section(ctx: &FileContext<'_>, fn_idx: usize) -> bool {
    let mut idx = fn_idx; // 0-based; walk upward
    while idx > 0 {
        idx -= 1;
        let raw = ctx.raw_lines.get(idx).copied().unwrap_or("").trim();
        if raw.starts_with("///") {
            if raw.contains("# Panics") {
                return true;
            }
        } else if raw.starts_with("#[") {
            continue; // attribute between docs and fn
        } else {
            break;
        }
    }
    false
}
