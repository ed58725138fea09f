//! Comment-, string-, and `#[cfg(test)]`-aware source scanning.
//!
//! Rules must never fire on the word `panic!` inside a doc comment or a
//! string literal, and must not police test-only code for panic-freedom.
//! The heavy lifting lives in the lexer ([`crate::parse`]): this module
//! projects its spanned token stream into the per-line *sanitized* view
//! the legacy line rules consume — comments and literal contents blanked
//! out so byte offsets still line up, plus a flag saying whether the
//! line sits inside a `#[cfg(test)]`-gated item — and carries the raw
//! token stream along for the token-level passes (map-iteration,
//! atomic-ordering, lock-order, crate layering).

use std::collections::BTreeSet;

use crate::parse::{self, TestModule, Token, TokenKind};

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct ScannedLine {
    /// 1-based line number.
    pub number: usize,
    /// The original text (used for excerpts in findings).
    pub raw: String,
    /// The text with comments and string/char literal *contents* blanked
    /// out; quote and comment delimiters are preserved as spaces too.
    pub code: String,
    /// Whether the line is inside (or opens) a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// A fully scanned file.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Repo-relative path with forward slashes.
    pub path: String,
    pub lines: Vec<ScannedLine>,
    /// The original source, for resolving token spans.
    pub source: String,
    /// The full lexed token stream the line view is projected from.
    pub tokens: Vec<Token>,
    /// The modules it declares behind `#[cfg(test)]` in other files.
    pub test_modules: Vec<TestModule>,
}

impl ScannedFile {
    /// Code tokens only (no whitespace/comments).
    pub fn code_tokens(&self) -> impl Iterator<Item = &Token> {
        self.tokens.iter().filter(|t| t.is_code())
    }

    /// The text of a token within this file.
    pub fn text(&self, token: &Token) -> &str {
        token.text(&self.source)
    }
}

/// Scans `source`: lexes it once, then derives sanitized lines and
/// test-region flags from the token stream.
pub fn scan_source(path: &str, source: &str) -> ScannedFile {
    let stream = parse::lex(source);

    // Sanitize byte-wise: blank every byte covered by a comment or a
    // string/char literal (newlines kept so the line structure is
    // untouched). Multi-byte characters are blanked whole, so the result
    // stays valid UTF-8.
    let mut sanitized = source.as_bytes().to_vec();
    for t in &stream.tokens {
        if matches!(
            t.kind,
            TokenKind::LineComment | TokenKind::BlockComment | TokenKind::Str | TokenKind::Char
        ) {
            for b in &mut sanitized[t.start..t.end] {
                if *b != b'\n' && *b != b'\r' {
                    *b = b' ';
                }
            }
        }
    }
    let sanitized = String::from_utf8(sanitized).unwrap_or_default();

    let mut lines: Vec<ScannedLine> = source
        .lines()
        .zip(sanitized.lines())
        .enumerate()
        .map(|(idx, (raw, code))| ScannedLine {
            number: idx + 1,
            raw: raw.to_owned(),
            code: code.to_owned(),
            in_test: false,
        })
        .collect();

    // A line is test-gated when any token touching it is. Multi-line
    // tokens (whitespace runs, block comments, strings) mark every line
    // they span.
    for t in &stream.tokens {
        if !t.in_test {
            continue;
        }
        let span_lines = source[t.start..t.end]
            .as_bytes()
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        for number in t.line..=t.line + span_lines {
            if let Some(line) = lines.get_mut(number - 1) {
                line.in_test = true;
            }
        }
    }

    ScannedFile {
        path: path.to_owned(),
        lines,
        source: source.to_owned(),
        tokens: stream.tokens,
        test_modules: stream.test_modules,
    }
}

/// Marks every line and token of each file that one of `files` declares
/// as a `#[cfg(test)] mod name;` test code, like an inline test module.
pub fn mark_test_modules(files: &mut [ScannedFile]) {
    let test_files: BTreeSet<String> = files
        .iter()
        .flat_map(|f| f.test_modules.iter().flat_map(|m| m.files(&f.path)))
        .collect();
    for file in files.iter_mut().filter(|f| test_files.contains(&f.path)) {
        file.lines.iter_mut().for_each(|line| line.in_test = true);
        file.tokens.iter_mut().for_each(|t| t.in_test = true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        scan_source("t.rs", src)
            .lines
            .into_iter()
            .map(|l| l.code)
            .collect()
    }

    #[test]
    fn line_comments_are_blanked() {
        let c = code_of("let x = 1; // call .unwrap() here\n");
        assert!(!c[0].contains("unwrap"));
        assert!(c[0].contains("let x = 1;"));
    }

    #[test]
    fn nested_block_comments_are_blanked() {
        let c = code_of("a /* outer /* panic!() */ still comment */ b\n");
        assert!(!c[0].contains("panic"));
        assert!(c[0].starts_with('a'));
        assert!(c[0].trim_end().ends_with('b'));
    }

    #[test]
    fn string_contents_are_blanked_but_call_sites_survive() {
        let c = code_of("foo.expect(\"really .unwrap() me\");\n");
        assert!(c[0].contains("foo.expect("));
        assert!(!c[0].contains("unwrap"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let c = code_of("let s = r#\"panic!(\"x\")\"#; let t = \"\\\"panic!\";\n");
        assert!(!c[0].contains("panic"));
        let c = code_of("let b = br##\"unwrap()\"##;\n");
        assert!(!c[0].contains("unwrap"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let c = code_of("fn f<'a>(x: &'a str) { let q = '\\''; let z = 'y'; }\n");
        assert!(c[0].contains("fn f<'a>(x: &'a str)"));
        assert!(!c[0].contains("'y'"));
    }

    #[test]
    fn multiline_strings_span() {
        let src = "let s = \"line one\npanic!()\nstill string\";\nlet x = 2;\n";
        let c = code_of(src);
        assert!(!c[1].contains("panic"));
        assert!(c[3].contains("let x = 2;"));
    }

    #[test]
    fn cfg_test_region_flags_lines() {
        let src = "\
fn lib() {}
#[cfg(test)]
mod tests {
    fn helper() { x.unwrap(); }
}
fn lib2() {}
";
        let f = scan_source("t.rs", src);
        assert!(!f.lines[0].in_test, "lib fn");
        assert!(f.lines[2].in_test, "mod tests opening line");
        assert!(f.lines[3].in_test, "inside tests");
        assert!(!f.lines[5].in_test, "after tests");
    }

    #[test]
    fn cfg_test_on_single_item_only() {
        let src = "\
#[cfg(test)]
fn only_this() { a.unwrap() }
fn not_this() { }
";
        let f = scan_source("t.rs", src);
        assert!(f.lines[1].in_test);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn cfg_test_mod_declaration_without_body() {
        let src = "#[cfg(test)]\nmod external_tests;\nfn real() {}\n";
        let f = scan_source("t.rs", src);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { fn f() {} }\nfn g() {}\n";
        let f = scan_source("t.rs", src);
        assert!(f.lines[1].in_test);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn tokens_are_exposed_alongside_lines() {
        let f = scan_source("t.rs", "fn f() { map.iter(); } // trailing\n");
        assert!(f.code_tokens().any(|t| f.text(t) == "iter"));
        assert!(f.code_tokens().all(|t| f.text(t) != "trailing"));
    }
}
