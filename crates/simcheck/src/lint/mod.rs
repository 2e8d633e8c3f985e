//! `simlint`: a hermetic source linter for simulation hygiene.
//!
//! Simulated time must be the *only* clock, results must not depend on
//! hash iteration order, and library code must fail loudly with context —
//! the linter enforces those conventions mechanically so figure
//! reproductions stay deterministic. It is string-based on purpose: the
//! workspace is hermetic (no syn/proc-macro dependencies), so a small
//! comment/literal-aware lexer ([`lexer`]) masks out the places where rule
//! substrings may legitimately appear, and the rules ([`rules::RULES`])
//! scan the rest.
//!
//! Entry points: [`lint_source`] for one file, [`lint_workspace`] to walk
//! a directory tree. The `simlint` binary wraps the latter.

pub mod lexer;
mod rules;

pub use rules::RULES;

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// One rule hit that no pragma suppressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path as given to the linter (workspace-relative when walking).
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Rule name, one of [`RULES`].
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.snippet
        )
    }
}

/// Aggregate result of a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Unsuppressed rule hits, in (path, line) order.
    pub violations: Vec<Violation>,
    /// Hits silenced by `// simlint: allow(...)` pragmas.
    pub suppressed: usize,
}

impl LintReport {
    /// Did the run finish without violations?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line machine-readable summary (tracefmt JSON).
    pub fn summary_json(&self) -> String {
        use tracefmt::Json;
        let by_rule: Vec<(&str, Json)> = RULES
            .iter()
            .filter_map(|rule| {
                let count = self.violations.iter().filter(|v| v.rule == *rule).count();
                (count > 0).then_some((*rule, Json::UInt(count as u64)))
            })
            .collect();
        Json::obj(vec![
            ("tool", Json::Str("simlint".to_string())),
            ("files_scanned", Json::UInt(self.files_scanned as u64)),
            ("violations", Json::UInt(self.violations.len() as u64)),
            ("suppressed", Json::UInt(self.suppressed as u64)),
            ("by_rule", Json::obj(by_rule)),
        ])
        .dump()
    }
}

/// Lint a single source string. `path_label` scopes the path-dependent
/// rules (test/bench/example exemptions) and labels the findings.
pub fn lint_source(path_label: &str, source: &str) -> (Vec<Violation>, usize) {
    let lexed = lexer::lex(source);
    let ctx = rules::FileContext::new(path_label, source, &lexed);
    rules::check_file(&ctx)
}

/// Recursively lint every `.rs` file under `root`, skipping `target/` and
/// VCS directories. Deterministic: files are visited in sorted order.
///
/// # Errors
///
/// Propagates I/O failures from the directory walk or file reads.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut report = LintReport::default();
    for rel in files {
        let source = fs::read_to_string(root.join(&rel))?;
        let label = rel.replace('\\', "/");
        let (violations, suppressed) = lint_source(&label, &source);
        report.files_scanned += 1;
        report.suppressed += suppressed;
        report.violations.extend(violations);
    }
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src)
            .0
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn wall_clock_is_flagged_outside_the_harness() {
        let src = "pub fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(rules_hit("crates/x/src/lib.rs", src), ["wall-clock"]);
        assert!(rules_hit("crates/bench/src/harness.rs", src).is_empty());
        assert!(rules_hit("crates/x/tests/t.rs", src).is_empty());
    }

    #[test]
    fn hash_collections_flagged_outside_bench() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules_hit("crates/x/src/lib.rs", src), ["hash-collections"]);
        assert!(rules_hit("crates/bench/src/fig2.rs", src).is_empty());
        // Identifier boundary: `MyHashMapLike` is not the std type.
        assert!(rules_hit("crates/x/src/lib.rs", "type MyHashMapLike = ();\n").is_empty());
    }

    #[test]
    fn float_comparisons_need_a_float_operand() {
        assert_eq!(rules_hit("src/a.rs", "let b = x == 0.0;\n"), ["float-cmp"]);
        assert_eq!(rules_hit("src/a.rs", "let b = 1.5 != y;\n"), ["float-cmp"]);
        assert_eq!(
            rules_hit("src/a.rs", "let b = x == f64::INFINITY;\n"),
            ["float-cmp"]
        );
        assert!(rules_hit("src/a.rs", "let b = x == 3;\n").is_empty());
        assert!(rules_hit("src/a.rs", "let b = x <= 0.5;\n").is_empty());
        assert!(rules_hit("src/a.rs", "let c = |x| x + 1;\n").is_empty());
    }

    #[test]
    fn float_order_flags_partial_cmp_unwrap_everywhere() {
        // Tests are NOT exempt: result ordering feeds golden comparisons.
        let src = "let o = a.partial_cmp(&b).unwrap();\n";
        assert_eq!(rules_hit("crates/x/tests/t.rs", src), ["float-order"]);
        // Non-test code stacks with the generic unwrap rule.
        assert_eq!(rules_hit("src/a.rs", src), ["float-order", "unwrap"]);
        // `.expect` documents the finiteness assumption and passes.
        let expect = "let o = a.partial_cmp(&b).expect(\"finite\");\n";
        assert!(rules_hit("crates/x/tests/t.rs", expect).is_empty());
        // Implementing PartialOrd is not a violation.
        let imp = "fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n";
        assert!(rules_hit("src/a.rs", imp).is_empty());
    }

    #[test]
    fn float_order_flags_unstable_sorts_keyed_through_partial_cmp() {
        let one_line = "v.sort_unstable_by(|a, b| a.partial_cmp(b).expect(\"finite\"));\n";
        assert_eq!(rules_hit("tests/t.rs", one_line), ["float-order"]);
        // The comparator closure may be rustfmt-wrapped onto later lines.
        let wrapped = "v.sort_unstable_by(|a, b| {\n    a.partial_cmp(b).expect(\"finite\")\n});\n";
        assert_eq!(rules_hit("tests/t.rs", wrapped), ["float-order"]);
        // Integer-keyed unstable sorts and `total_cmp` are the blessed forms.
        assert!(rules_hit("tests/t.rs", "v.sort_unstable_by_key(|&(t, s)| (t, s));\n").is_empty());
        assert!(rules_hit("tests/t.rs", "v.sort_unstable_by(|a, b| a.total_cmp(b));\n").is_empty());
        // The pragma acknowledges a proven-finite ordering.
        let allowed =
            "// simlint: allow(float-order)\nv.sort_unstable_by(|a, b| a.partial_cmp(b).expect(\"finite\"));\n";
        let (viol, supp) = lint_source("tests/t.rs", allowed);
        assert!(viol.is_empty(), "{viol:?}");
        assert_eq!(supp, 1);
    }

    #[test]
    fn unwrap_flagged_but_expect_is_fine() {
        assert_eq!(rules_hit("src/a.rs", "v.last().unwrap();\n"), ["unwrap"]);
        assert!(rules_hit("src/a.rs", "v.last().expect(\"nonempty\");\n").is_empty());
    }

    #[test]
    fn debug_macros_flagged_even_in_tests() {
        assert_eq!(rules_hit("tests/t.rs", "todo!()\n"), ["debug-macros"]);
        assert_eq!(rules_hit("src/a.rs", "dbg!(x);\n"), ["debug-macros"]);
        // … but `debug_assert!` must not match `assert!`-adjacent names.
        assert!(rules_hit("src/a.rs", "my_todo!();\n").is_empty());
    }

    #[test]
    fn panics_doc_requires_the_section() {
        let bad = "pub fn f(x: u32) {\n    assert!(x > 0, \"x\");\n}\n";
        assert_eq!(rules_hit("src/a.rs", bad), ["panics-doc"]);
        let good = "/// Docs.\n///\n/// # Panics\n///\n/// When x is 0.\npub fn f(x: u32) {\n    assert!(x > 0, \"x\");\n}\n";
        assert!(rules_hit("src/a.rs", good).is_empty());
        // Attributes between docs and fn are skipped over.
        let attr = "/// # Panics\n#[inline]\npub fn f(x: u32) { assert!(x > 0); }\n";
        assert!(rules_hit("src/a.rs", attr).is_empty());
        // Non-panicking pub fns need nothing.
        assert!(rules_hit("src/a.rs", "pub fn g() -> u32 { 1 }\n").is_empty());
        // Private fns need nothing either.
        assert!(rules_hit("src/a.rs", "fn h(x: u32) { assert!(x > 0); }\n").is_empty());
        // debug_assert! counts as assert! here? No: debug_assert is its own
        // macro and is allowed (it compiles out in release).
        assert!(rules_hit("src/a.rs", "pub fn k(x: u32) { debug_assert!(x > 0); }\n").is_empty());
    }

    #[test]
    fn process_exit_flagged_outside_bin_trees() {
        let src = "fn die() { std::process::exit(1); }\n";
        assert_eq!(rules_hit("crates/x/src/lib.rs", src), ["process-exit"]);
        assert_eq!(rules_hit("src/lib.rs", src), ["process-exit"]);
        // Binaries own the process and may set its exit status.
        assert!(rules_hit("src/bin/wavesim.rs", src).is_empty());
        assert!(rules_hit("crates/simcheck/src/bin/simlint.rs", src).is_empty());
        // Test code is exempt like the other non-test rules.
        assert!(rules_hit("crates/x/tests/t.rs", src).is_empty());
    }

    #[test]
    fn hand_written_decoders_are_flagged_outside_the_codec() {
        let src = "impl FromJson for Config {\n";
        assert_eq!(rules_hit("crates/x/src/lib.rs", src), ["hand-codec"]);
        let qualified = "impl<T: FromJson> tracefmt::json::FromJson for Wrap<T> {\n";
        assert_eq!(rules_hit("crates/x/src/lib.rs", qualified), ["hand-codec"]);
        assert!(rules_hit("crates/tracefmt/src/json.rs", src).is_empty());
        assert!(rules_hit("crates/x/tests/t.rs", src).is_empty());
        // Encoders and the codec macro itself are fine.
        assert!(rules_hit("crates/x/src/lib.rs", "impl ToJson for Config {\n").is_empty());
        assert!(rules_hit("crates/x/src/lib.rs", "tracefmt::json_codec! {\n").is_empty());
        let allowed = "// simlint: allow(hand-codec) — not a record\nimpl FromJson for Odd {\n";
        let (viol, supp) = lint_source("crates/x/src/lib.rs", allowed);
        assert!(viol.is_empty(), "{viol:?}");
        assert_eq!(supp, 1);
    }

    #[test]
    fn mode_matches_in_inline_handlers_are_confined_to_dispatch() {
        let bad = "#[inline]\nfn on_eager(&mut self) {\n    match self.base_mode {\n        Mode::Eager => {}\n        Mode::Rendezvous => {}\n    }\n}\n";
        assert_eq!(
            rules_hit("crates/mpisim/src/engine.rs", bad),
            ["mode-match-in-inline-handler"]
        );
        // The dispatch module is the one sanctioned place for the branch.
        assert!(rules_hit("crates/mpisim/src/engine/dispatch.rs", bad).is_empty());
        // Cold (non-inline) fns may still branch — the general path does.
        let cold = "fn effective(&self) -> Mode {\n    match self.base_mode {\n        Mode::Eager => Mode::Eager,\n        m => m,\n    }\n}\n";
        assert!(rules_hit("crates/mpisim/src/engine.rs", cold).is_empty());
        // Matching on something other than a mode is fine when inlined.
        let other = "#[inline]\nfn f(x: u32) -> u32 {\n    match x {\n        0 => 1,\n        _ => 2,\n    }\n}\n";
        assert!(rules_hit("src/a.rs", other).is_empty());
        // `#[inline(always)]` counts, attributes in between are walked,
        // and plain `mode` bindings are caught too.
        let always = "#[inline(always)]\n#[must_use]\nfn g(mode: Mode) -> u32 {\n    match mode {\n        _ => 0,\n    }\n}\n";
        assert_eq!(
            rules_hit("crates/mpisim/src/engine.rs", always),
            ["mode-match-in-inline-handler"]
        );
        // Tests are exempt like the other non-test rules.
        assert!(rules_hit("crates/mpisim/tests/t.rs", bad).is_empty());
        // The pragma records a reviewed exception.
        let allowed = "#[inline]\nfn h(&mut self) {\n    // simlint: allow(mode-match-in-inline-handler)\n    match self.base_mode {\n        _ => {}\n    }\n}\n";
        let (viol, supp) = lint_source("crates/mpisim/src/engine.rs", allowed);
        assert!(viol.is_empty(), "{viol:?}");
        assert_eq!(supp, 1);
    }

    #[test]
    fn pragmas_suppress_same_line_and_next_line() {
        let same = "let v = m.get(&k).unwrap(); // simlint: allow(unwrap)\n";
        let (viol, supp) = lint_source("src/a.rs", same);
        assert!(viol.is_empty());
        assert_eq!(supp, 1);
        let above = "// simlint: allow(unwrap)\nlet v = m.get(&k).unwrap();\n";
        let (viol, supp) = lint_source("src/a.rs", above);
        assert!(viol.is_empty());
        assert_eq!(supp, 1);
        // A pragma two lines up does not apply.
        let far = "// simlint: allow(unwrap)\nlet a = 1;\nlet v = m.get(&k).unwrap();\n";
        let (viol, _) = lint_source("src/a.rs", far);
        assert_eq!(viol.len(), 1);
        // Comma-separated rules.
        let multi = "// simlint: allow(unwrap, wall-clock)\nlet t = Instant::now().unwrap();\n";
        let (viol, supp) = lint_source("src/a.rs", multi);
        assert!(viol.is_empty(), "{viol:?}");
        assert_eq!(supp, 2);
    }

    #[test]
    fn cfg_test_marks_the_rest_of_the_file_as_test_code() {
        let src = "pub fn f() { v.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { v.unwrap(); }\n}\n";
        let (viol, _) = lint_source("src/a.rs", src);
        assert_eq!(viol.len(), 1);
        assert_eq!(viol[0].line, 1);
    }

    #[test]
    fn rule_substrings_inside_literals_and_comments_are_ignored() {
        let src = "let s = \"call .unwrap() and Instant::now\"; // mentions dbg! too\n";
        let (viol, _) = lint_source("src/a.rs", src);
        assert!(viol.is_empty(), "{viol:?}");
    }

    #[test]
    fn report_summary_is_machine_readable() {
        let mut report = LintReport::default();
        report.files_scanned = 3;
        report.suppressed = 2;
        report.violations.push(Violation {
            path: "src/a.rs".into(),
            line: 1,
            rule: "unwrap",
            snippet: "x.unwrap()".into(),
        });
        let json = report.summary_json();
        assert!(json.contains("\"tool\":\"simlint\""), "{json}");
        assert!(json.contains("\"violations\":1"), "{json}");
        assert!(json.contains("\"unwrap\":1"), "{json}");
        assert!(!report.is_clean());
    }

    #[test]
    fn violation_display_is_path_line_rule_snippet() {
        let v = Violation {
            path: "crates/x/src/lib.rs".into(),
            line: 7,
            rule: "float-cmp",
            snippet: "if a == 0.0 {".into(),
        };
        assert_eq!(
            v.to_string(),
            "crates/x/src/lib.rs:7: [float-cmp] if a == 0.0 {"
        );
    }
}
