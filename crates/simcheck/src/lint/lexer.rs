//! A minimal string/comment-aware Rust lexer.
//!
//! `simlint`'s rules are substring checks, so the lexer's only job is to
//! make those checks sound: it produces a *masked* copy of the source in
//! which comment bodies and string/char-literal contents are blanked to
//! spaces (line structure preserved), plus the comment text per line so
//! rules can find suppression pragmas and doc sections. Handles nested
//! block comments, raw strings (`r#"…"#`, any hash depth, `b`/`br`
//! prefixes), escapes, and the `'a` lifetime-versus-`'a'` char-literal
//! ambiguity. No external crates — the workspace is hermetic.

/// Result of lexing one source file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Source lines with comment bodies and literal contents replaced by
    /// spaces. Quote and comment-introducer characters are kept, so
    /// `"no Instant::now here"` cannot trip a rule but `".unwrap()"`
    /// outside a literal still can.
    pub masked_lines: Vec<String>,
    /// `(1-based line, comment text)` for every line that carries comment
    /// text (including doc comments, which keep their `///`/`//!`
    /// introducers). Multi-line block comments yield one entry per line.
    pub comments: Vec<(usize, String)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Block comment with the current nesting depth.
    BlockComment(u32),
    /// Inside `"…"` (escape-aware).
    Str,
    /// Inside a raw string with the given hash count.
    RawStr(u32),
}

/// Lex `source` into its masked form. Never fails: unterminated literals
/// or comments simply run to end of input.
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut out = Lexed::default();
    let mut mask = String::new();
    let mut comment = String::new();
    let mut line = 1usize;
    let mut state = State::Code;
    let mut i = 0usize;

    macro_rules! flush_line {
        () => {
            out.masked_lines.push(std::mem::take(&mut mask));
            let text = std::mem::take(&mut comment);
            if !text.trim().is_empty() {
                out.comments.push((line, text));
            }
            line += 1;
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            flush_line!();
            if state == State::LineComment {
                state = State::Code;
            }
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    mask.push_str("//");
                    comment.push_str("//");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    mask.push_str("  ");
                    comment.push_str("/*");
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    mask.push('"');
                    i += 1;
                } else if let Some(hashes) = raw_string_prefix(&chars, i) {
                    // r"…", r#"…"#, br"…", … — keep the prefix in the mask.
                    let prefix_len = raw_prefix_len(&chars, i, hashes);
                    for _ in 0..prefix_len {
                        mask.push(chars[i]);
                        i += 1;
                    }
                    state = State::RawStr(hashes);
                } else if c == '\'' {
                    if let Some(end) = char_literal_end(&chars, i) {
                        // Blank the contents, keep the quotes.
                        mask.push('\'');
                        for &c in &chars[i + 1..end] {
                            mask.push(if c == '\n' { '\n' } else { ' ' });
                        }
                        mask.push('\'');
                        i = end + 1;
                    } else {
                        // A lifetime: plain code.
                        mask.push('\'');
                        i += 1;
                    }
                } else {
                    mask.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                mask.push(' ');
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    comment.push_str("*/");
                    mask.push_str("  ");
                    i += 2;
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    comment.push_str("/*");
                    mask.push_str("  ");
                    i += 2;
                    state = State::BlockComment(depth + 1);
                } else {
                    comment.push(c);
                    mask.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    mask.push(' ');
                    // The escaped character may itself be a newline (a
                    // string line-continuation): it still ends a source
                    // line, so it must flush like any other `\n` or the
                    // masked lines drift out of register with the raw
                    // file and every line-indexed rule misfires.
                    if chars.get(i + 1) == Some(&'\n') {
                        flush_line!();
                    } else if chars.get(i + 1).is_some() {
                        mask.push(' ');
                    }
                    i += 2;
                } else if c == '"' {
                    mask.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    mask.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    mask.push('"');
                    for _ in 0..hashes {
                        mask.push('#');
                    }
                    i += 1 + hashes as usize;
                    state = State::Code;
                } else {
                    mask.push(' ');
                    i += 1;
                }
            }
        }
    }
    // A final line without a trailing newline still needs flushing.
    if !mask.is_empty() || !comment.is_empty() {
        flush_line!();
    }
    let _ = line;
    out
}

/// Does a raw-string literal start at `i`? Returns its hash count.
fn raw_string_prefix(chars: &[char], i: usize) -> Option<u32> {
    // Must not be the tail of an identifier (`for"x"` is not valid Rust,
    // but `her#""#` must not be misread either).
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return None;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some(hashes)
    } else {
        None
    }
}

/// Length of the `br##"`-style prefix **including** the opening quote.
fn raw_prefix_len(chars: &[char], i: usize, hashes: u32) -> usize {
    let b = usize::from(chars.get(i) == Some(&'b'));
    b + 1 + hashes as usize + 1
}

/// Does the `"` at `i` close a raw string with `hashes` hashes?
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// If a char literal starts at the `'` at `i`, the index of its closing
/// quote; `None` for a lifetime.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escape: scan for the closing quote (handles '\'', '\u{…}').
            let mut j = i + 2;
            while j < chars.len() {
                match chars[j] {
                    '\'' => return Some(j),
                    '\n' => return None,
                    _ => j += 1,
                }
            }
            None
        }
        Some(_) if chars.get(i + 2) == Some(&'\'') => Some(i + 2),
        _ => None, // a lifetime like 'a or 'static
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_blanked_but_quotes_stay() {
        let l = lex(r#"let x = "Instant::now"; x.unwrap();"#);
        assert_eq!(l.masked_lines.len(), 1);
        assert!(!l.masked_lines[0].contains("Instant::now"));
        assert!(l.masked_lines[0].contains(".unwrap()"));
        assert!(l.masked_lines[0].contains('"'));
    }

    #[test]
    fn line_comments_are_captured_not_masked_into_code() {
        let l = lex("let a = 1; // simlint: allow(unwrap)\nlet b = 2;");
        assert!(!l.masked_lines[0].contains("allow"));
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].0, 1);
        assert!(l.comments[0].1.contains("simlint: allow(unwrap)"));
        assert_eq!(l.masked_lines.len(), 2);
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let l = lex("a /* x /* y */ still comment */ b.unwrap()");
        assert!(l.masked_lines[0].contains(".unwrap()"));
        assert!(!l.masked_lines[0].contains("still"));
        assert!(l.comments[0].1.contains("still comment"));
    }

    #[test]
    fn multi_line_block_comment_reports_each_line() {
        let l = lex("/* one\ntwo dbg!(x)\nthree */ code");
        assert_eq!(l.masked_lines.len(), 3);
        assert!(!l.masked_lines[1].contains("dbg!"));
        assert_eq!(l.comments.len(), 3);
        assert!(l.masked_lines[2].contains("code"));
    }

    #[test]
    fn raw_strings_with_hashes_are_blanked() {
        let l = lex(r##"let s = r#"contains "quotes" and dbg!(x)"# ; real()"##);
        assert!(!l.masked_lines[0].contains("dbg!"));
        assert!(l.masked_lines[0].contains("real()"));
        let l2 = lex(r#"let b = br"HashMap"; after()"#);
        assert!(!l2.masked_lines[0].contains("HashMap"));
        assert!(l2.masked_lines[0].contains("after()"));
    }

    #[test]
    fn escapes_inside_strings_do_not_terminate_early() {
        let l = lex(r#"let s = "a\"todo!()\""; tail()"#);
        assert!(!l.masked_lines[0].contains("todo!"));
        assert!(l.masked_lines[0].contains("tail()"));
    }

    #[test]
    fn char_literals_versus_lifetimes() {
        let l = lex("fn f<'a>(x: &'a str) { let c = '\\''; let d = 'x'; }");
        let m = &l.masked_lines[0];
        assert!(m.contains("<'a>"), "{m}");
        assert!(m.contains("&'a str"), "{m}");
        assert!(!m.contains("'x'"), "{m}");
    }

    #[test]
    fn doc_comments_keep_their_introducers_in_comment_text() {
        let l = lex("/// # Panics\n/// when x is 0\npub fn f() {}");
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].1.contains("# Panics"));
        assert!(l.comments[0].1.starts_with("///"));
    }

    #[test]
    fn line_counts_survive_every_construct() {
        let src = "a\n\"multi\nline\nstring\"\n/* block\ncomment */\nend";
        let l = lex(src);
        assert_eq!(l.masked_lines.len(), 7);
        assert!(l.masked_lines[6].contains("end"));
    }

    #[test]
    fn string_line_continuations_keep_lines_in_register() {
        // A `\` at end of line inside a string literal continues the
        // string on the next line. The escaped newline must still flush,
        // or every line after it is shifted — `panics_doc` once flagged a
        // documented fn three lines below its own `/// # Panics` because
        // of exactly this drift.
        let src = "let s = \"first \\\n    second\";\nafter()";
        let l = lex(src);
        assert_eq!(l.masked_lines.len(), 3);
        assert!(!l.masked_lines[0].contains("first"));
        assert!(!l.masked_lines[1].contains("second"));
        assert!(l.masked_lines[1].contains('"'));
        assert!(l.masked_lines[2].contains("after()"));
    }

    #[test]
    fn trailing_newline_does_not_add_a_phantom_line() {
        assert_eq!(lex("a\nb\n").masked_lines.len(), 2);
        assert_eq!(lex("a\nb").masked_lines.len(), 2);
        assert_eq!(lex("").masked_lines.len(), 0);
    }
}
