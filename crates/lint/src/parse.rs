//! A spanned Rust token stream — the shared lexical backend of every
//! rule.
//!
//! The scanner used to be a per-line character state machine; rewriting
//! it as a real lexer gives every rule the same ground truth: a vector
//! of [`Token`]s whose byte spans *partition* the file (property-tested
//! in `tests/lint_props.rs`). Strings (plain, byte, raw with any hash
//! depth), nested block comments, char literals vs. lifetimes, numeric
//! literals with exponents/suffixes, and `#[cfg(test)]` regions are each
//! handled exactly once here; the line-oriented sanitized view the
//! legacy rules consume ([`crate::scan`]) and the token-level passes
//! (map-iteration, atomic-ordering, lock-order, crate layering) are all
//! projections of this one stream.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Spaces, tabs, newlines.
    Whitespace,
    /// `// …` to end of line (doc comments included).
    LineComment,
    /// `/* … */`, nesting handled; may span lines.
    BlockComment,
    /// String literal: `"…"`, `b"…"`, `r"…"`, `r#"…"#`, `br##"…"##`.
    Str,
    /// Char or byte literal: `'x'`, `'\n'`, `b'\0'`, `'\u{1F600}'`.
    Char,
    /// Lifetime: `'a` (quote plus identifier, no closing quote).
    Lifetime,
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (including `1e-6`, `0xFF`, `3.0_f32` suffixes).
    Number,
    /// A single punctuation character (operators are not fused).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line number of the token's first byte.
    pub line: usize,
    /// Whether the token sits inside a `#[cfg(test)]`-gated item body.
    pub in_test: bool,
}

impl Token {
    /// The token's text within its source.
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        &source[self.start..self.end]
    }

    /// Whether the token carries code (not trivia).
    pub fn is_code(&self) -> bool {
        !matches!(
            self.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }
}

/// A fully lexed file.
#[derive(Debug, Clone)]
pub struct TokenStream {
    pub tokens: Vec<Token>,
    /// The `#[cfg(test)] mod name;` declarations: modules whose whole
    /// file is test code.
    pub test_modules: Vec<TestModule>,
}

/// A body-less module declaration a `#[cfg(test)]` attribute gates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestModule {
    pub name: String,
    /// The file a `#[path = "…"]` attribute between the gate and the
    /// `mod` names, relative to the declaring file's directory.
    pub path: Option<String>,
}

impl TestModule {
    /// The repo-relative files the module may live in when declared in
    /// `declaring`, as rustc resolves them: a `#[path]` relative to the
    /// declaring file's directory; otherwise `name.rs` or `name/mod.rs`
    /// beside a `lib.rs`, `main.rs` or `mod.rs`, or in the directory
    /// named after any other file's stem.
    pub fn files(&self, declaring: &str) -> Vec<String> {
        let (dir, file) = declaring.rsplit_once('/').unwrap_or(("", declaring));
        if let Some(path) = &self.path {
            return vec![normalize(&format!("{dir}/{path}"))];
        }
        let stem = file.strip_suffix(".rs").unwrap_or(file);
        let parent = match stem {
            "lib" | "main" | "mod" => dir.to_string(),
            _ => format!("{dir}/{stem}"),
        };
        let name = &self.name;
        [
            format!("{parent}/{name}.rs"),
            format!("{parent}/{name}/mod.rs"),
        ]
        .iter()
        .map(|f| normalize(f))
        .collect()
    }
}

/// `path` with empty and `.` segments dropped and each `..` taking the
/// segment before it.
fn normalize(path: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for part in path.split('/') {
        match part {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            _ => parts.push(part),
        }
    }
    parts.join("/")
}

impl TokenStream {
    /// Code tokens only (no whitespace/comments), as an iterator.
    pub fn code(&self) -> impl Iterator<Item = &Token> {
        self.tokens.iter().filter(|t| t.is_code())
    }
}

/// Lexes `source` into a token stream whose spans partition the input.
pub fn lex(source: &str) -> TokenStream {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0usize;
    let mut line = 1usize;

    while pos < bytes.len() {
        let start = pos;
        let start_line = line;
        let kind = lex_one(source, bytes, &mut pos);
        debug_assert!(pos > start, "lexer must always make progress");
        line += bytes[start..pos].iter().filter(|&&b| b == b'\n').count();
        tokens.push(Token {
            kind,
            start,
            end: pos,
            line: start_line,
            in_test: false,
        });
    }

    let mut stream = TokenStream {
        tokens,
        test_modules: Vec::new(),
    };
    stream.test_modules = mark_test_regions(source, &mut stream);
    stream
}

/// Lexes the single token starting at `*pos`, advancing it.
fn lex_one(source: &str, bytes: &[u8], pos: &mut usize) -> TokenKind {
    let b = bytes[*pos];
    match b {
        b' ' | b'\t' | b'\r' | b'\n' => {
            while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\r' | b'\n') {
                *pos += 1;
            }
            TokenKind::Whitespace
        }
        b'/' if bytes.get(*pos + 1) == Some(&b'/') => {
            while *pos < bytes.len() && bytes[*pos] != b'\n' {
                *pos += 1;
            }
            TokenKind::LineComment
        }
        b'/' if bytes.get(*pos + 1) == Some(&b'*') => {
            *pos += 2;
            let mut depth = 1u32;
            while *pos < bytes.len() && depth > 0 {
                if bytes[*pos] == b'/' && bytes.get(*pos + 1) == Some(&b'*') {
                    depth += 1;
                    *pos += 2;
                } else if bytes[*pos] == b'*' && bytes.get(*pos + 1) == Some(&b'/') {
                    depth -= 1;
                    *pos += 2;
                } else {
                    *pos += 1;
                }
            }
            TokenKind::BlockComment
        }
        b'"' => {
            lex_plain_string(bytes, pos);
            TokenKind::Str
        }
        b'r' | b'b' if raw_string_hashes(bytes, *pos).is_some() => {
            // `r"…"`, `r#"…"#`, `br##"…"##`, `b"…"` is handled below.
            let hashes = raw_string_hashes(bytes, *pos).unwrap_or(0);
            // Skip prefix up to and including the opening quote.
            while bytes[*pos] != b'"' {
                *pos += 1;
            }
            *pos += 1;
            loop {
                if *pos >= bytes.len() {
                    break;
                }
                if bytes[*pos] == b'"' && closes_raw(bytes, *pos + 1, hashes) {
                    *pos += 1 + hashes as usize;
                    break;
                }
                *pos += 1;
            }
            TokenKind::Str
        }
        b'b' if bytes.get(*pos + 1) == Some(&b'"') => {
            *pos += 1;
            lex_plain_string(bytes, pos);
            TokenKind::Str
        }
        b'b' if bytes.get(*pos + 1) == Some(&b'\'') => {
            *pos += 1;
            lex_char_or_lifetime(bytes, pos)
        }
        b'\'' => lex_char_or_lifetime(bytes, pos),
        _ if b.is_ascii_digit() => {
            lex_number(bytes, pos);
            TokenKind::Number
        }
        _ if is_ident_start(source, *pos) => {
            *pos += utf8_len(b);
            while *pos < bytes.len() && is_ident_continue(source, *pos) {
                *pos += utf8_len(bytes[*pos]);
            }
            TokenKind::Ident
        }
        _ => {
            *pos += utf8_len(b);
            TokenKind::Punct
        }
    }
}

/// Consumes a `"…"` string starting at the opening quote.
fn lex_plain_string(bytes: &[u8], pos: &mut usize) {
    *pos += 1; // opening quote
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'\\' => *pos += 2.min(bytes.len() - *pos),
            b'"' => {
                *pos += 1;
                return;
            }
            _ => *pos += 1,
        }
    }
}

/// Consumes a `'…'` char literal or a `'a` lifetime starting at the quote.
fn lex_char_or_lifetime(bytes: &[u8], pos: &mut usize) -> TokenKind {
    let open = *pos;
    *pos += 1;
    if *pos >= bytes.len() {
        return TokenKind::Char;
    }
    if bytes[*pos] == b'\\' {
        // Escaped char literal: scan to the closing quote after the
        // escaped character (covers `'\''` and `'\u{…}'`).
        *pos += 2.min(bytes.len() - *pos);
        while *pos < bytes.len() && bytes[*pos] != b'\'' && bytes[*pos] != b'\n' {
            *pos += 1;
        }
        if *pos < bytes.len() && bytes[*pos] == b'\'' {
            *pos += 1;
        }
        return TokenKind::Char;
    }
    // `'x'` is a char literal; `'abc` (no closing quote right after one
    // scalar) is a lifetime. Look one scalar ahead.
    let first_len = utf8_len(bytes[*pos]);
    if bytes.get(*pos + first_len) == Some(&b'\'') {
        *pos += first_len + 1;
        return TokenKind::Char;
    }
    // Lifetime: consume identifier characters after the quote.
    let source = unsafe { std::str::from_utf8_unchecked(bytes) };
    while *pos < bytes.len() && is_ident_continue(source, *pos) {
        *pos += utf8_len(bytes[*pos]);
    }
    if *pos == open + 1 {
        // Stray quote with nothing attached: emit as punct-like char.
        return TokenKind::Punct;
    }
    TokenKind::Lifetime
}

/// Consumes a numeric literal starting at a digit.
fn lex_number(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() {
        let b = bytes[*pos];
        if b.is_ascii_alphanumeric() || b == b'_' {
            *pos += 1;
        } else if b == b'.' && bytes.get(*pos + 1).is_some_and(u8::is_ascii_digit) {
            // `1.5` — but not `1.method()` or `1..2`.
            *pos += 1;
        } else if (b == b'+' || b == b'-')
            && *pos > 0
            && matches!(bytes[*pos - 1], b'e' | b'E')
            && bytes.get(*pos + 1).is_some_and(u8::is_ascii_digit)
        {
            // Exponent sign: `1e-6`.
            *pos += 1;
        } else {
            break;
        }
    }
}

/// `r`/`br` raw-string prefix check at `pos`: returns the hash count when
/// a raw string opens here.
fn raw_string_hashes(bytes: &[u8], pos: usize) -> Option<u8> {
    let mut k = pos;
    if bytes.get(k) == Some(&b'b') {
        k += 1;
    }
    if bytes.get(k) != Some(&b'r') {
        return None;
    }
    k += 1;
    let mut hashes = 0u8;
    while bytes.get(k) == Some(&b'#') {
        hashes = hashes.saturating_add(1);
        k += 1;
    }
    if bytes.get(k) == Some(&b'"') {
        Some(hashes)
    } else {
        None
    }
}

/// Does a `"` at `after_quote - 1` close a raw string with `hashes` `#`s?
fn closes_raw(bytes: &[u8], after_quote: usize, hashes: u8) -> bool {
    (0..hashes as usize).all(|k| bytes.get(after_quote + k) == Some(&b'#'))
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

fn is_ident_start(source: &str, pos: usize) -> bool {
    source[pos..]
        .chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

fn is_ident_continue(source: &str, pos: usize) -> bool {
    source[pos..]
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Tracks one active `#[cfg(test)]` region (brace-delimited item body).
enum TestRegion {
    /// Saw the attribute (starting at token `start`); waiting for the
    /// item's opening `{` (or a `;` ending a body-less item like
    /// `mod external_tests;`).
    Pending { start: usize, attr_end: usize },
    /// Inside the braces; ends when depth returns to the recorded value.
    Active { close_depth: i64 },
}

/// Marks tokens inside `#[cfg(test)]`-gated item bodies, mirroring the
/// legacy scanner's semantics: the attribute tokens themselves are *not*
/// in-test; everything from the item's opening `{` through its matching
/// `}` (inclusive) is. A gated body-less `mod name;` has its body in
/// another file: it is returned, for [`TestModule::files`] to resolve.
fn mark_test_regions(source: &str, stream: &mut TokenStream) -> Vec<TestModule> {
    let mut depth: i64 = 0;
    let mut region: Option<TestRegion> = None;
    let mut modules = Vec::new();
    let n = stream.tokens.len();
    for i in 0..n {
        if region.is_none() && starts_cfg_test(source, &stream.tokens, i) {
            region = Some(TestRegion::Pending {
                start: i,
                attr_end: cfg_attr_end(source, &stream.tokens, i),
            });
        }
        let tok = &stream.tokens[i];
        let text = tok.text(source);
        let mut in_test = matches!(region, Some(TestRegion::Active { .. }));
        if tok.kind == TokenKind::Punct {
            match text {
                "{" => {
                    if let Some(TestRegion::Pending { attr_end, .. }) = region {
                        if tok.start >= attr_end {
                            region = Some(TestRegion::Active { close_depth: depth });
                            in_test = true;
                        }
                    }
                    depth += 1;
                }
                "}" => {
                    depth -= 1;
                    if let Some(TestRegion::Active { close_depth }) = region {
                        if depth <= close_depth {
                            region = None;
                            in_test = true; // the closing brace itself
                        }
                    }
                }
                ";" => {
                    if let Some(TestRegion::Pending { start, attr_end }) = region {
                        if tok.start >= attr_end {
                            region = None; // body-less item
                            let item = &stream.tokens[start..i];
                            modules.extend(declared_module(source, item));
                        }
                    }
                }
                _ => {}
            }
        }
        stream.tokens[i].in_test = in_test;
    }
    modules
}

/// The module a gated body-less item declares when it is `mod name`
/// (`item` runs from the gate up to the `;`), with the file a
/// `#[path = "…"]` attribute among its attributes names.
fn declared_module(source: &str, item: &[Token]) -> Option<TestModule> {
    let code: Vec<&str> = item
        .iter()
        .filter(|t| t.is_code())
        .map(|t| t.text(source))
        .collect();
    let [.., "mod", name] = code[..] else {
        return None;
    };
    let path = code.windows(5).find_map(|w| match w {
        ["#", "[", "path", "=", literal] => literal.strip_prefix('"')?.strip_suffix('"'),
        _ => None,
    });
    Some(TestModule {
        name: name.to_string(),
        path: path.map(str::to_string),
    })
}

/// Does a `#[cfg(test)]` / `#[cfg(all(test, …))]` / `#[cfg(any(test, …))]`
/// attribute start at token `i`?
fn starts_cfg_test(source: &str, tokens: &[Token], i: usize) -> bool {
    if tokens[i].kind != TokenKind::Punct || tokens[i].text(source) != "#" {
        return false;
    }
    // Expected code-token sequence: `#` `[` `cfg` `(` then either `test`
    // or `all`/`any` `(` `test`.
    let mut it = tokens[i + 1..].iter().filter(|t| t.is_code());
    let mut next = |expect: &str| it.next().is_some_and(|t| t.text(source) == expect);
    if !next("[") || !next("cfg") || !next("(") {
        return false;
    }
    match it.next().map(|t| t.text(source)) {
        Some("test") => true,
        Some("all") | Some("any") => {
            let mut it2 = it;
            it2.next().is_some_and(|t| t.text(source) == "(")
                && it2.next().is_some_and(|t| t.text(source) == "test")
        }
        _ => false,
    }
}

/// Byte offset one past the `]` closing the attribute starting at token
/// `i` (which holds `#`). Falls back to the attribute's own end when the
/// attribute is unterminated.
fn cfg_attr_end(source: &str, tokens: &[Token], i: usize) -> usize {
    let mut bracket = 0i32;
    for t in &tokens[i..] {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text(source) {
            "[" => bracket += 1,
            "]" => {
                bracket -= 1;
                if bracket == 0 {
                    return t.end;
                }
            }
            _ => {}
        }
    }
    tokens[i].end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn spans_partition_the_file() {
        let src = "fn main() { let s = r#\"x\"#; /* c */ 'a: loop {} }\n";
        let stream = lex(src);
        let mut pos = 0;
        for t in &stream.tokens {
            assert_eq!(t.start, pos, "gap or overlap at byte {pos}");
            assert!(t.end > t.start);
            pos = t.end;
        }
        assert_eq!(pos, src.len());
    }

    #[test]
    fn distinguishes_char_from_lifetime() {
        let src = "let c = 'x'; fn f<'a>(v: &'a str) {} let e = '\\n';";
        let toks = kinds(src);
        let chars: Vec<&String> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Char)
            .map(|(_, s)| s)
            .collect();
        let lifetimes: Vec<&String> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, s)| s)
            .collect();
        assert_eq!(chars, ["'x'", "'\\n'"]);
        assert_eq!(lifetimes, ["'a", "'a"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let s = r#"a " inside"#; let t = r"plain";"###;
        let strs: Vec<String> = kinds(src)
            .into_iter()
            .filter(|(k, _)| *k == TokenKind::Str)
            .map(|(_, s)| s)
            .collect();
        assert_eq!(strs, [r###"r#"a " inside"#"###, r#"r"plain""#]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* x /* y */ z */ b";
        let toks = kinds(src);
        assert_eq!(
            toks.iter()
                .filter(|(k, _)| *k == TokenKind::BlockComment)
                .count(),
            1
        );
        assert_eq!(toks[2].1, "/* x /* y */ z */");
    }

    #[test]
    fn numbers_with_exponents_and_suffixes() {
        let src = "let a = 1e-6; let b = 3.0_f32; let c = 0xFF; let d = 1..2;";
        let nums: Vec<String> = kinds(src)
            .into_iter()
            .filter(|(k, _)| *k == TokenKind::Number)
            .map(|(_, s)| s)
            .collect();
        assert_eq!(nums, ["1e-6", "3.0_f32", "0xFF", "1", "2"]);
    }

    #[test]
    fn cfg_test_region_marks_body_only() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x(); }\n}\nfn after() {}\n";
        let stream = lex(src);
        for t in stream.code() {
            let text = t.text(src);
            let in_test = t.in_test;
            match text {
                "lib" | "after" | "cfg" | "test" | "mod" | "tests" => {
                    assert!(!in_test, "{text} wrongly in_test")
                }
                "t" | "x" => assert!(in_test, "{text} should be in_test"),
                _ => {}
            }
        }
    }

    #[test]
    fn cfg_test_mod_semicolon_has_no_region() {
        let src = "#[cfg(test)]\nmod external;\nfn lib() { x(); }\n";
        let stream = lex(src);
        assert!(stream.code().all(|t| !t.in_test));
        let external = TestModule {
            name: "external".into(),
            path: None,
        };
        assert_eq!(stream.test_modules, [external]);
    }

    #[test]
    fn test_modules_resolve_as_rustc_does() {
        let src = "#[cfg(test)]\n#[path = \"../tests/p.rs\"]\npub(crate) mod p;\n\
                   mod plain;\n#[cfg(test)]\nfn f();\n#[cfg(test)]\nmod q;\n";
        let modules = lex(src).test_modules;
        assert_eq!(modules.len(), 2, "{modules:?}");
        assert_eq!(
            modules[0].files("crates/c/src/a/b.rs"),
            ["crates/c/src/tests/p.rs"]
        );
        assert_eq!(
            modules[1].files("crates/c/src/lib.rs"),
            ["crates/c/src/q.rs", "crates/c/src/q/mod.rs"]
        );
        assert_eq!(
            modules[1].files("crates/c/src/tuner.rs"),
            ["crates/c/src/tuner/q.rs", "crates/c/src/tuner/q/mod.rs"]
        );
    }

    #[test]
    fn lexer_is_total_on_tricky_bytes() {
        for src in [
            "'",
            "r#",
            "\"unterminated",
            "/* open",
            "b'",
            "let s = \"esc \\\" done\";",
            "é_ident + 1",
        ] {
            let stream = lex(src);
            let covered: usize = stream.tokens.iter().map(|t| t.end - t.start).sum();
            assert_eq!(covered, src.len(), "src: {src:?}");
        }
    }
}
