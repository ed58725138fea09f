//! Property tests for the lint scanner: banned tokens hidden inside
//! string literals, comments, or `#[cfg(test)]` code must never fire,
//! while a real violation must always be found no matter how much
//! literal/comment noise surrounds it.

use proptest::prelude::*;
use smdb_lint::locks::{analyze_locks, lock_findings};
use smdb_lint::parse::lex;
use smdb_lint::rules::{registry, Finding};
use smdb_lint::scan::{mark_test_modules, scan_source, ScannedFile};

/// Fragments that would each trip some rule if they appeared in code
/// position (in the right path scope).
const PAYLOADS: &[&str] = &[
    ".unwrap()",
    ".expect(\"boom\")",
    "panic!(\"no\")",
    "todo!()",
    "unimplemented!()",
    "thread_rng",
    "SystemTime::now",
    "Instant::now",
    "std::thread::sleep",
    "x == 0.0",
    "y != 1e-6",
];

/// Payloads exempt in `#[cfg(test)]` code (rules with `skip_test_code`;
/// the entropy rule deliberately fires even in tests).
const TEST_EXEMPT_PAYLOADS: &[&str] = &[
    ".unwrap()",
    ".expect(\"boom\")",
    "panic!(\"no\")",
    "Instant::now",
    "x == 0.0",
];

/// Paths covering every rule's include scope.
const PATHS: &[&str] = &[
    "crates/core/src/generated.rs",
    "crates/lp/src/generated.rs",
    "crates/cost/src/generated.rs",
    "crates/workload/src/generated.rs",
];

fn all_findings(path: &str, src: &str) -> Vec<Finding> {
    let scanned = scan_source(path, src);
    let mut out = Vec::new();
    for rule in registry() {
        rule.check_file(&scanned, &mut out);
    }
    out
}

fn join_payloads(picks: &[usize], from: &[&str]) -> String {
    picks
        .iter()
        .map(|&i| from[i % from.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

proptest! {
    #[test]
    fn payloads_inside_string_literals_never_fire(
        (picks, path_idx) in (proptest::collection::vec(0usize..PAYLOADS.len(), 1..6),
                              0usize..PATHS.len())
    ) {
        let inner = join_payloads(&picks, PAYLOADS).replace('"', "\\\"");
        let src = format!("fn lib() {{ let s = \"{inner}\"; let n = s.len(); }}\n");
        let f = all_findings(PATHS[path_idx], &src);
        prop_assert!(f.is_empty(), "false positives: {f:?}\nsrc: {src}");
    }

    #[test]
    fn payloads_inside_raw_strings_never_fire(
        (picks, path_idx) in (proptest::collection::vec(0usize..PAYLOADS.len(), 1..6),
                              0usize..PATHS.len())
    ) {
        let inner = join_payloads(&picks, PAYLOADS);
        let src = format!("fn lib() {{ let s = r#\"{inner}\"#; let n = s.len(); }}\n");
        let f = all_findings(PATHS[path_idx], &src);
        prop_assert!(f.is_empty(), "false positives: {f:?}\nsrc: {src}");
    }

    #[test]
    fn payloads_inside_comments_never_fire(
        (picks, path_idx, block) in (proptest::collection::vec(0usize..PAYLOADS.len(), 1..6),
                                     0usize..PATHS.len(),
                                     proptest::option::of(0u8..2))
    ) {
        let inner = join_payloads(&picks, PAYLOADS);
        let src = match block {
            Some(_) => format!("fn lib() {{ /* {inner} */ let n = 1; }}\n"),
            None => format!("fn lib() {{ let n = 1; }} // {inner}\n"),
        };
        let f = all_findings(PATHS[path_idx], &src);
        prop_assert!(f.is_empty(), "false positives: {f:?}\nsrc: {src}");
    }

    #[test]
    fn test_gated_payloads_never_fire(
        (picks, path_idx) in (proptest::collection::vec(0usize..TEST_EXEMPT_PAYLOADS.len(), 1..6),
                              0usize..PATHS.len())
    ) {
        let inner = join_payloads(&picks, TEST_EXEMPT_PAYLOADS);
        let src = format!(
            "fn lib() {{ let n = 1; }}\n#[cfg(test)]\nmod tests {{\n    fn t() {{ {inner}; }}\n}}\n"
        );
        let f = all_findings(PATHS[path_idx], &src);
        prop_assert!(f.is_empty(), "false positives: {f:?}\nsrc: {src}");
    }

    #[test]
    fn real_violation_survives_any_noise(
        (noise, path_idx) in (proptest::collection::vec(0usize..PAYLOADS.len(), 0..5),
                              0usize..PATHS.len())
    ) {
        // Noise goes into a comment and a string; the real unwrap sits in
        // plain library code and must be reported exactly once.
        let inner = join_payloads(&noise, PAYLOADS).replace('"', "");
        let src = format!(
            "// {inner}\nfn lib() {{ let s = \"{inner}\"; let v = s.parse::<u32>().unwrap(); }}\n"
        );
        let f = all_findings(PATHS[path_idx], &src);
        let unwraps: Vec<&Finding> = f.iter().filter(|f| f.rule == "no-panic").collect();
        prop_assert_eq!(unwraps.len(), 1, "src: {}\nall: {:?}", src, f);
        prop_assert_eq!(unwraps[0].line, 2);
    }
}

// ---------------------------------------------------------------------------
// Lexer properties
// ---------------------------------------------------------------------------

/// Alphabet chosen to stress every lexer mode: string/char/raw-string
/// delimiters, comment openers that may never close, multibyte text, and
/// ordinary punctuation.
const STRESS_CHARS: &[char] = &[
    'a', 'b', '_', '0', '9', ' ', '\n', '\t', '"', '\'', '\\', '/', '*', '#', 'r', 'b', '(', ')',
    '{', '}', '[', ']', ';', ':', '.', '&', '=', '<', '>', '!', 'é', 'λ', '中', '🦀',
];

fn stress_source(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|&b| STRESS_CHARS[b as usize % STRESS_CHARS.len()])
        .collect()
}

proptest! {
    /// Token spans partition the source byte-exactly: contiguous,
    /// non-overlapping, starting at 0 and ending at `len` — for ANY
    /// input, including unterminated strings/comments and multibyte
    /// text. Every downstream rule depends on this geometry.
    #[test]
    fn lexer_spans_partition_any_source(
        bytes in proptest::collection::vec(0u8..=255, 0..120)
    ) {
        let src = stress_source(&bytes);
        let stream = lex(&src);
        let mut cursor = 0usize;
        for t in &stream.tokens {
            prop_assert_eq!(t.start, cursor, "gap/overlap in {src:?}");
            prop_assert!(t.end > t.start, "empty token in {src:?}");
            cursor = t.end;
        }
        prop_assert_eq!(cursor, src.len(), "spans must end at len: {src:?}");
    }

    /// Every span slices the source at a char boundary, so `Token::text`
    /// can never panic.
    #[test]
    fn lexer_spans_slice_cleanly(
        bytes in proptest::collection::vec(0u8..=255, 0..120)
    ) {
        let src = stress_source(&bytes);
        for t in &lex(&src).tokens {
            prop_assert!(src.is_char_boundary(t.start) && src.is_char_boundary(t.end));
            let _ = t.text(&src);
        }
    }

    /// The sanitized line projection preserves byte geometry: same line
    /// count as the source and byte-identical lengths per line (literal
    /// and comment interiors blank to spaces, never shrink or grow).
    #[test]
    fn sanitized_lines_preserve_byte_geometry(
        bytes in proptest::collection::vec(0u8..=255, 0..120)
    ) {
        let src = stress_source(&bytes);
        let scanned = scan_source("crates/core/src/generated.rs", &src);
        let raw_lines: Vec<&str> = src.lines().collect();
        prop_assert_eq!(scanned.lines.len(), raw_lines.len());
        for (line, raw) in scanned.lines.iter().zip(&raw_lines) {
            prop_assert_eq!(line.code.len(), raw.len(), "line {}: {raw:?}", line.number);
        }
    }

    /// `#[cfg(test)]` marking: code after the gated `{` is in-test, code
    /// before the attribute is not, wherever the boundary falls.
    #[test]
    fn cfg_test_regions_split_exactly_at_the_gated_block(
        fillers in proptest::collection::vec(0usize..PAYLOADS.len(), 0..4)
    ) {
        let noise = join_payloads(&fillers, PAYLOADS).replace('"', "");
        let src = format!(
            "fn lib() {{ let a = 1; // {noise}\n}}\n\
             #[cfg(test)]\nmod tests {{\n    fn t() {{ let b = 2; }}\n}}\n\
             fn lib2() {{ let c = 3; }}\n"
        );
        let scanned = scan_source("crates/core/src/generated.rs", &src);
        // The gated region spans the block only: `{` through matching `}`
        // inclusive; the attribute and `mod tests` header stay non-test.
        let body_open = src.find("mod tests {").expect("fixture") + "mod tests ".len();
        let body_close = src.rfind("}\nfn lib2").expect("fixture") + 1;
        for t in scanned.tokens.iter().filter(|t| t.is_code()) {
            let inside = t.start >= body_open && t.end <= body_close;
            prop_assert_eq!(
                t.in_test, inside,
                "token {:?} at {}..{}", t.text(&src), t.start, t.end
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Lock-order fixtures (L9)
// ---------------------------------------------------------------------------

const LOCK_DECLS: &str = "struct S { a: Mutex<u32>, b: Mutex<u32>, c: Mutex<u32> }\n";

fn analyze_fixture(files: &[(&str, String)]) -> smdb_lint::LockAnalysis {
    let scanned: Vec<ScannedFile> = files
        .iter()
        .map(|(path, src)| scan_source(path, src))
        .collect();
    analyze_locks(&scanned)
}

#[test]
fn lock_graph_two_cycle_across_files_is_a_finding() {
    let r = analyze_fixture(&[(
        "crates/x/src/pair.rs",
        format!(
            "{LOCK_DECLS}\
             fn f(s: &S) {{ let ga = s.a.lock(); let gb = s.b.lock(); }}\n\
             fn g(s: &S) {{ let gb = s.b.lock(); let ga = s.a.lock(); }}\n"
        ),
    )]);
    assert_eq!(r.cycles.len(), 1, "edges: {:?}", r.edges);
    assert_eq!(r.cycles[0], ["pair.a", "pair.b", "pair.a"]);
    let findings = lock_findings(&r);
    assert_eq!(findings.len(), 1);
    assert!(
        findings[0].exempt_from_budget,
        "lock-order cycles must never be budgetable"
    );
}

#[test]
fn lock_graph_three_cycle_is_a_finding() {
    let r = analyze_fixture(&[(
        "crates/x/src/tri.rs",
        format!(
            "{LOCK_DECLS}\
             fn f(s: &S) {{ let g1 = s.a.lock(); let g2 = s.b.lock(); }}\n\
             fn g(s: &S) {{ let g1 = s.b.lock(); let g2 = s.c.lock(); }}\n\
             fn h(s: &S) {{ let g1 = s.c.lock(); let g2 = s.a.lock(); }}\n"
        ),
    )]);
    assert_eq!(r.cycles.len(), 1, "edges: {:?}", r.edges);
    assert_eq!(r.cycles[0].len(), 4, "closed 3-walk: {:?}", r.cycles[0]);
    assert_eq!(lock_findings(&r).len(), 1);
}

#[test]
fn lock_graph_consistent_global_order_is_clean() {
    let r = analyze_fixture(&[(
        "crates/x/src/ordered.rs",
        format!(
            "{LOCK_DECLS}\
             fn f(s: &S) {{ let g1 = s.a.lock(); let g2 = s.b.lock(); }}\n\
             fn g(s: &S) {{ let g1 = s.a.lock(); let g2 = s.c.lock(); }}\n\
             fn h(s: &S) {{ let g1 = s.b.lock(); let g2 = s.c.lock(); }}\n"
        ),
    )]);
    assert!(r.acyclic(), "cycles: {:?}", r.cycles);
    assert!(!r.edges.is_empty(), "fixture should still produce edges");
    assert!(lock_findings(&r).is_empty());
}

/// A `#[cfg(test)] mod name;` declaration makes the file it names test
/// code throughout, as an inline `#[cfg(test)] mod name { … }` is —
/// beside a `lib.rs`, under a file's stem directory, or where a
/// `#[path]` points — while the same declaration without the gate, or a
/// gated one naming another file, leaves the file library code.
#[test]
fn files_of_gated_module_declarations_are_test_code() {
    let body = "fn t() { let v = \"7\".parse::<u32>().unwrap(); }\n";
    let cases = [
        (
            "crates/core/src/lib.rs",
            "#[cfg(test)]\nmod props;\n",
            "crates/core/src/props.rs",
            false,
        ),
        (
            "crates/core/src/lib.rs",
            "mod props;\n",
            "crates/core/src/props.rs",
            true,
        ),
        (
            "crates/core/src/lib.rs",
            "#[cfg(test)]\nmod other;\n",
            "crates/core/src/props.rs",
            true,
        ),
        (
            "crates/core/src/tuner.rs",
            "#[cfg(test)]\nmod props;\n",
            "crates/core/src/tuner/props.rs",
            false,
        ),
        (
            "crates/core/src/tuner.rs",
            "mod props;\n",
            "crates/core/src/tuner/props.rs",
            true,
        ),
        (
            "crates/core/src/tuner.rs",
            "#[cfg(test)]\n#[path = \"tests/props.rs\"]\nmod props;\n",
            "crates/core/src/tests/props.rs",
            false,
        ),
        (
            "crates/core/src/tuner.rs",
            "#[path = \"tests/props.rs\"]\nmod props;\n",
            "crates/core/src/tests/props.rs",
            true,
        ),
    ];
    for (declaring, declaration, file, fires) in cases {
        let source = format!("{declaration}pub fn lib() {{}}\n");
        let mut files = vec![scan_source(declaring, &source), scan_source(file, body)];
        mark_test_modules(&mut files);
        let mut findings = Vec::new();
        for rule in registry() {
            for scanned in &files {
                rule.check_file(scanned, &mut findings);
            }
        }
        let fired: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        let want: &[&str] = if fires { &["no-panic"] } else { &[] };
        assert_eq!(fired, want, "{declaring}: {declaration:?} -> {file}");
    }
}
