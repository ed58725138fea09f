//! The rule registry.
//!
//! Four repo-specific rules guard the invariants the reproduction's
//! trustworthiness rests on (see DESIGN.md §"Static analysis &
//! invariants"):
//!
//! * **L1 `no-panic`** — no `unwrap`/`expect`/`panic!`/`todo!`/
//!   `unimplemented!` in non-`#[cfg(test)]` library code. A self-managing
//!   system that panics mid-tuning leaves the database in a half-applied
//!   configuration.
//! * **L2 `no-entropy`** — no non-deterministic randomness or wall-clock
//!   reads outside the designated seams (`crates/common/src/rng.rs`,
//!   `crates/common/src/time.rs`). Every experiment must replay
//!   bit-for-bit from its seed.
//! * **L3 `no-float-eq`** — no direct `==`/`!=` against float literals in
//!   `crates/cost` and `crates/lp`; cost models and the simplex kernel
//!   must compare through epsilons.
//! * **L4 `no-wall-clock`** — no `std::thread::sleep` or raw
//!   `Instant::now` inside `crates/core` outside the KPI clock; the
//!   framework runs on [`LogicalTime`](smdb_common::LogicalTime).
//! * **L5 `obs-clock`** — no direct `time::now()` (the monotonic span
//!   clock) outside the obs tracing facade. Span timestamps must flow
//!   through `smdb_obs::span!` so the flight-recorder trail stays a
//!   pure function of logical time.
//! * **L6 `thread-discipline`** — no `thread::spawn`/`thread::Builder`/
//!   `thread::scope` outside the two designated seams (the storage scan
//!   pool and the one serving loop) and test code. Ad-hoc threads
//!   bypass the morsel scheduler's determinism argument and the
//!   bucket-barrier protocol that keeps the decision trail replayable.
//! * **L7 `map-iteration`** — no `HashMap`/`HashSet` iteration on
//!   deterministic-output paths (trail, metrics export, cost
//!   fingerprints, plan-cache snapshots). Hash iteration order varies
//!   per process, so one `.iter()` there breaks trail byte-identity.
//!   Use `BTreeMap`, sort first, or justify with a `// det:` comment.
//! * **L8 `atomic-ordering`** — every `Ordering::` memory-ordering site
//!   must carry a `// ordering:` justification comment or a `lint.toml`
//!   allowance; `SeqCst` is never grandfathered (it usually papers over
//!   an unarticulated protocol — say why or weaken it).
//! * **L10 `kernel-fallback`** — every `uncovered()` call in the storage
//!   kernel layer (the marker for a segment/predicate combination the
//!   vectorized path refuses) must carry a `// kernel-fallback: <reason>`
//!   comment in the contiguous comment block above it. New combinations
//!   cannot silently drop to the scalar path without a written reason.
//!
//! Two further passes live outside this per-file registry because they
//! need whole-workspace state: **L9 `lock-order`** ([`crate::locks`])
//! and **`crate-layering`** ([`crate::graph`]).

use std::collections::BTreeSet;

use crate::parse::{Token, TokenKind};
use crate::scan::ScannedFile;

/// How bad a finding is. `Error` findings fail the build (exit code 1 /
/// test failure) unless budgeted in `lint.toml`; `Warning`s never fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One rule violation at a concrete source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub severity: Severity,
    pub path: String,
    pub line: usize,
    pub message: String,
    /// The offending source line, trimmed, for context.
    pub excerpt: String,
    /// Findings that no `lint.toml` budget may absorb (e.g. `SeqCst`
    /// atomics): they fail the run even in allowlisted files.
    pub exempt_from_budget: bool,
}

/// How a rule inspects a scanned file.
enum Check {
    /// Match any of the needle tokens (with identifier-boundary checks).
    Tokens(&'static [&'static str]),
    /// Match `==` / `!=` where either operand is a float literal.
    FloatEq,
    /// Token-level: iteration over `HashMap`/`HashSet`-typed bindings.
    MapIteration,
    /// Token-level: `Ordering::<memory ordering>` sites without a
    /// justification comment.
    AtomicOrdering,
    /// Token-level: `uncovered()` kernel-fallback call sites without a
    /// `// kernel-fallback:` justification comment.
    KernelFallback,
}

/// A registered rule.
pub struct Rule {
    pub id: &'static str,
    pub severity: Severity,
    pub description: &'static str,
    /// Repo-relative path prefixes the rule applies to (empty = all).
    include: &'static [&'static str],
    /// Repo-relative path prefixes exempt from the rule.
    exclude: &'static [&'static str],
    /// Whether `#[cfg(test)]` code is out of scope.
    skip_test_code: bool,
    check: Check,
}

/// The registry, in rule-id order.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            id: "no-panic",
            severity: Severity::Error,
            description: "no unwrap/expect/panic!/todo!/unimplemented! in non-test library code",
            include: &["crates/", "src/"],
            // The bench harness is a reporting binary, not library code;
            // vendor shims mirror external crates' own APIs. Integration
            // tests are test code even without a `#[cfg(test)]` gate.
            exclude: &["crates/bench/", "crates/shard/tests/"],
            skip_test_code: true,
            check: Check::Tokens(&[".unwrap()", ".expect(", "panic!", "todo!", "unimplemented!"]),
        },
        Rule {
            id: "no-entropy",
            severity: Severity::Error,
            description:
                "no thread_rng/from_entropy/SystemTime::now outside crates/common/src/{rng,time}.rs",
            include: &[],
            exclude: &["crates/common/src/rng.rs", "crates/common/src/time.rs"],
            skip_test_code: false,
            check: Check::Tokens(&["thread_rng", "from_entropy", "SystemTime::now"]),
        },
        Rule {
            id: "no-float-eq",
            severity: Severity::Error,
            description: "no direct ==/!= float comparisons in crates/cost and crates/lp",
            include: &["crates/cost/", "crates/lp/"],
            exclude: &[],
            skip_test_code: true,
            check: Check::FloatEq,
        },
        Rule {
            id: "no-wall-clock",
            severity: Severity::Error,
            description:
                "no thread::sleep or raw Instant::now in crates/core outside the KPI clock",
            include: &["crates/core/"],
            exclude: &["crates/core/src/kpi.rs"],
            skip_test_code: true,
            check: Check::Tokens(&["thread::sleep", "Instant::now"]),
        },
        Rule {
            id: "obs-clock",
            severity: Severity::Error,
            description:
                "no direct time::now() outside the obs facade and its seam in crates/common",
            include: &["crates/", "src/"],
            exclude: &["crates/obs/", "crates/common/src/time.rs"],
            skip_test_code: true,
            check: Check::Tokens(&["time::now"]),
        },
        Rule {
            id: "thread-discipline",
            severity: Severity::Error,
            description:
                "no thread::spawn/Builder/scope outside the scan pool and the serving loop",
            include: &["crates/", "src/"],
            // The designated thread seams: the morsel scheduler's
            // helper pool and the one serving loop's tuning thread and
            // scoped worker pool.
            exclude: &[
                "crates/storage/src/parallel.rs",
                "crates/runtime/src/serve.rs",
            ],
            skip_test_code: true,
            check: Check::Tokens(&["thread::spawn", "thread::Builder", "thread::scope"]),
        },
        Rule {
            id: "map-iteration",
            severity: Severity::Error,
            description: "no HashMap/HashSet iteration on deterministic-output paths; \
                 use BTreeMap or sort first (`// det:` to justify)",
            // The paths whose output must be a pure function of input:
            // the decision trail and metrics export, cost fingerprints,
            // plan-cache snapshots, grouped aggregation, bench reports,
            // the serving runtime's outcomes and trail emission, and the
            // sharded scatter-gather merge (bit-identity across shard
            // counts).
            include: &[
                "crates/obs/",
                "crates/cost/",
                "crates/query/src/plan_cache.rs",
                "crates/storage/src/exec.rs",
                "crates/bench/src/report.rs",
                "crates/runtime/",
                "crates/shard/",
            ],
            exclude: &[],
            skip_test_code: true,
            check: Check::MapIteration,
        },
        Rule {
            id: "atomic-ordering",
            severity: Severity::Error,
            description: "every Ordering:: site needs a `// ordering:` justification or \
                 a lint.toml allowance; SeqCst is never grandfathered",
            include: &["crates/", "src/"],
            exclude: &[],
            skip_test_code: true,
            check: Check::AtomicOrdering,
        },
        Rule {
            id: "kernel-fallback",
            severity: Severity::Error,
            description: "every uncovered() call needs a `// kernel-fallback: <reason>` \
                 comment explaining why the vectorized path refuses this shape",
            include: &["crates/storage/"],
            exclude: &[],
            skip_test_code: true,
            check: Check::KernelFallback,
        },
    ]
}

/// Methods whose call on a hash container iterates it in hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// The five memory orderings of `std::sync::atomic::Ordering` (the
/// `cmp::Ordering` variants do not collide with these).
const MEMORY_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Does `raw` carry a `// …marker…` justification comment?
fn line_justifies(raw: &str, marker: &str) -> bool {
    raw.find("//").is_some_and(|i| raw[i..].contains(marker))
}

/// A site at `line` (1-based) is justified when the same line or the one
/// above carries the marker inside a line comment.
fn justified(file: &ScannedFile, line: usize, marker: &str) -> bool {
    file.lines
        .get(line.wrapping_sub(1))
        .is_some_and(|l| line_justifies(&l.raw, marker))
        || (line >= 2
            && file
                .lines
                .get(line - 2)
                .is_some_and(|l| line_justifies(&l.raw, marker)))
}

impl Rule {
    /// Whether the rule covers `path` at all.
    pub fn applies_to(&self, path: &str) -> bool {
        (self.include.is_empty() || self.include.iter().any(|p| path.starts_with(p)))
            && !self.exclude.iter().any(|p| path.starts_with(p))
    }

    /// Runs the rule over one scanned file.
    pub fn check_file(&self, file: &ScannedFile, out: &mut Vec<Finding>) {
        if !self.applies_to(&file.path) {
            return;
        }
        match &self.check {
            Check::MapIteration => return self.check_map_iteration(file, out),
            Check::AtomicOrdering => return self.check_atomic_ordering(file, out),
            Check::KernelFallback => return self.check_kernel_fallback(file, out),
            Check::Tokens(_) | Check::FloatEq => {}
        }
        for line in &file.lines {
            if self.skip_test_code && line.in_test {
                continue;
            }
            let mut messages = Vec::new();
            match &self.check {
                Check::Tokens(needles) => {
                    for n in needles.iter().filter(|n| contains_token(&line.code, n)) {
                        messages.push(format!("`{n}` is banned here ({})", self.description));
                    }
                }
                Check::FloatEq => {
                    if let Some(op) = has_float_eq(&line.code) {
                        messages.push(format!(
                            "`{op}` against a float literal ({})",
                            self.description
                        ));
                    }
                }
                Check::MapIteration | Check::AtomicOrdering | Check::KernelFallback => {}
            }
            for message in messages {
                out.push(self.finding_at(file, line.number, message, false));
            }
        }
    }

    /// Builds a finding at a 1-based line of `file`.
    fn finding_at(
        &self,
        file: &ScannedFile,
        line: usize,
        message: String,
        exempt_from_budget: bool,
    ) -> Finding {
        let excerpt = file
            .lines
            .get(line.wrapping_sub(1))
            .map(|l| l.raw.trim().chars().take(120).collect())
            .unwrap_or_default();
        Finding {
            rule: self.id,
            severity: self.severity,
            path: file.path.clone(),
            line,
            message,
            excerpt,
            exempt_from_budget,
        }
    }

    /// L7: iteration over `HashMap`/`HashSet`-typed bindings.
    ///
    /// Pass 1 collects every identifier declared with a hash-container
    /// type (`name: HashMap<…>`, `name = HashMap::new()`, struct fields,
    /// fn params — the token before the separator names the binding).
    /// Pass 2 flags `.iter()`-family calls and `for … in` loops whose
    /// receiver is one of those names.
    fn check_map_iteration(&self, file: &ScannedFile, out: &mut Vec<Finding>) {
        let toks: Vec<&Token> = file.code_tokens().collect();
        let mut maps: BTreeSet<&str> = BTreeSet::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let text = file.text(t);
            if text != "HashMap" && text != "HashSet" {
                continue;
            }
            // Walk left over `&`, `mut`, lifetimes to the separator.
            let mut j = i;
            while j > 0 {
                let prev = toks[j - 1];
                let pt = file.text(prev);
                if pt == "&" || pt == "mut" || prev.kind == TokenKind::Lifetime {
                    j -= 1;
                } else {
                    break;
                }
            }
            if j < 2 {
                continue;
            }
            let sep = file.text(toks[j - 1]);
            // `name: HashMap<…>` or `name = HashMap::new()`; a preceding
            // `::` (path segment like `collections::HashMap`) leaves a
            // `:` at j-2 and is rejected by the ident check below.
            if sep != ":" && sep != "=" {
                continue;
            }
            let name = toks[j - 2];
            if name.kind == TokenKind::Ident {
                maps.insert(file.text(name));
            }
        }
        if maps.is_empty() {
            return;
        }

        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let text = file.text(t);
            let receiver = if ITER_METHODS.contains(&text)
                && i >= 2
                && file.text(toks[i - 1]) == "."
                && toks[i - 2].kind == TokenKind::Ident
                && maps.contains(file.text(toks[i - 2]))
            {
                Some((file.text(toks[i - 2]), format!(".{text}()")))
            } else if text == "in" {
                // `for … in [&][mut] path.to.name {` — the last segment
                // of the field chain names the container; method chains
                // (`.iter()` etc.) are caught by the arm above.
                let mut j = i + 1;
                while j < toks.len() && matches!(file.text(toks[j]), "&" | "mut") {
                    j += 1;
                }
                let mut last = None;
                while let Some(seg) = toks.get(j) {
                    if seg.kind != TokenKind::Ident {
                        break;
                    }
                    last = Some(*seg);
                    if toks.get(j + 1).is_some_and(|d| file.text(d) == ".")
                        && toks.get(j + 2).is_some_and(|n| n.kind == TokenKind::Ident)
                    {
                        j += 2;
                    } else {
                        break;
                    }
                }
                match last {
                    Some(name)
                        if maps.contains(file.text(name))
                            && toks.get(j + 1).is_some_and(|n| file.text(n) == "{") =>
                    {
                        Some((file.text(name), "for … in".to_owned()))
                    }
                    _ => None,
                }
            } else {
                None
            };
            let Some((name, how)) = receiver else {
                continue;
            };
            if self.skip_test_code && t.in_test {
                continue;
            }
            if justified(file, t.line, "det:") {
                continue;
            }
            out.push(self.finding_at(
                file,
                t.line,
                format!(
                    "`{name}` is HashMap/HashSet-typed and `{how}` iterates it in hash \
                     order on a deterministic-output path ({})",
                    self.description
                ),
                false,
            ));
        }
    }

    /// L8: `Ordering::<memory ordering>` sites without a `// ordering:`
    /// justification. Non-`SeqCst` sites can be budgeted in `lint.toml`;
    /// `SeqCst` findings are exempt from budgets and always fail.
    fn check_atomic_ordering(&self, file: &ScannedFile, out: &mut Vec<Finding>) {
        let toks: Vec<&Token> = file.code_tokens().collect();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || !MEMORY_ORDERINGS.contains(&file.text(t)) {
                continue;
            }
            // Must be preceded by `Ordering ::` (two `:` puncts).
            if i < 3
                || file.text(toks[i - 1]) != ":"
                || file.text(toks[i - 2]) != ":"
                || toks[i - 3].kind != TokenKind::Ident
                || file.text(toks[i - 3]) != "Ordering"
            {
                continue;
            }
            if self.skip_test_code && t.in_test {
                continue;
            }
            if justified(file, t.line, "ordering:") {
                continue;
            }
            let variant = file.text(t);
            let exempt = variant == "SeqCst";
            let why = if exempt {
                "SeqCst is never grandfathered — justify with `// ordering:` or weaken"
            } else {
                "justify with `// ordering:` or budget in lint.toml"
            };
            out.push(self.finding_at(
                file,
                t.line,
                format!("`Ordering::{variant}` without justification ({why})"),
                exempt,
            ));
        }
    }

    /// L10: `uncovered()` kernel-fallback call sites without a
    /// `// kernel-fallback:` justification. Unlike L7/L8, the fallback
    /// reasons are prose that rarely fits one line, so the marker may sit
    /// anywhere in the contiguous `//` comment block directly above the
    /// call (or on the call line itself).
    fn check_kernel_fallback(&self, file: &ScannedFile, out: &mut Vec<Finding>) {
        let toks: Vec<&Token> = file.code_tokens().collect();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || file.text(t) != "uncovered" {
                continue;
            }
            // Only calls: `uncovered (` — the definition (`fn uncovered`)
            // and path/use mentions carry no fallback decision.
            if i > 0 && file.text(toks[i - 1]) == "fn" {
                continue;
            }
            if toks.get(i + 1).map(|n| file.text(n)) != Some("(") {
                continue;
            }
            if self.skip_test_code && t.in_test {
                continue;
            }
            let call_line = file
                .lines
                .get(t.line.wrapping_sub(1))
                .is_some_and(|l| line_justifies(&l.raw, "kernel-fallback:"));
            let block_above = file.lines[..t.line.saturating_sub(1)]
                .iter()
                .rev()
                .take_while(|l| l.raw.trim_start().starts_with("//"))
                .any(|l| line_justifies(&l.raw, "kernel-fallback:"));
            if call_line || block_above {
                continue;
            }
            out.push(self.finding_at(
                file,
                t.line,
                format!(
                    "`uncovered()` without a `// kernel-fallback:` comment ({})",
                    self.description
                ),
                false,
            ));
        }
    }
}

/// Substring match with an identifier-boundary check on the left edge, so
/// `should_panic` does not match `panic!` and `my_thread_rng` does not
/// match `thread_rng` (the needle's own first char decides what counts
/// as a boundary).
fn contains_token(haystack: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = haystack[from..].find(needle) {
        let at = from + rel;
        let left_ok = if needle.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
            !haystack[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        } else {
            true
        };
        // Right edge: needles ending in an identifier char must not be a
        // prefix of a longer identifier (e.g. `thread_rng_seed`).
        let right_ok = if needle.ends_with(|c: char| c.is_alphanumeric() || c == '_') {
            !haystack[at + needle.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        } else {
            true
        };
        if left_ok && right_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Finds a `==` / `!=` whose left or right operand is a float literal.
/// Returns the operator for the message.
fn has_float_eq(code: &str) -> Option<&'static str> {
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i + 1 < chars.len() {
        let op = match (chars[i], chars[i + 1]) {
            ('=', '=') => {
                // Reject `===`-like runs and `<=`, `>=`, `=>` neighbours.
                if i > 0 && matches!(chars[i - 1], '=' | '<' | '>' | '!') {
                    None
                } else if chars.get(i + 2) == Some(&'=') {
                    None
                } else {
                    Some("==")
                }
            }
            ('!', '=') if chars.get(i + 2) != Some(&'=') => Some("!="),
            _ => None,
        };
        if let Some(op) = op {
            let left = token_left(&chars, i);
            let right = token_right(&chars, i + 2);
            if is_float_literal(&left) || is_float_literal(&right) {
                return Some(op);
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    None
}

fn token_left(chars: &[char], op_start: usize) -> String {
    let mut end = op_start;
    while end > 0 && chars[end - 1] == ' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_operand_char(chars, start - 1) {
        start -= 1;
    }
    chars[start..end].iter().collect()
}

fn token_right(chars: &[char], after_op: usize) -> String {
    let mut start = after_op;
    while start < chars.len() && chars[start] == ' ' {
        start += 1;
    }
    // A leading sign belongs to the literal.
    let mut end = start;
    if end < chars.len() && chars[end] == '-' {
        end += 1;
    }
    while end < chars.len() && is_operand_char(chars, end) {
        end += 1;
    }
    chars[start..end].iter().collect()
}

/// Characters that extend a comparison operand: identifier chars, `.`,
/// and an exponent sign directly after `e`/`E` (so `1e-6` stays whole).
fn is_operand_char(chars: &[char], i: usize) -> bool {
    let c = chars[i];
    if c.is_alphanumeric() || matches!(c, '.' | '_') {
        return true;
    }
    matches!(c, '-' | '+') && i > 0 && matches!(chars[i - 1], 'e' | 'E')
}

/// `0.0`, `1.5e-3`, `2f64`, `3.0_f32`, `-0.25`, `1e9` — but not `x.len`,
/// `0`, `0xFE`, or `f64::EPSILON` (paths are broken by `::` before the
/// operand capture, leaving `EPSILON`, which starts with no digit).
fn is_float_literal(token: &str) -> bool {
    let t = token.strip_prefix('-').unwrap_or(token);
    if t.is_empty()
        || !t.starts_with(|c: char| c.is_ascii_digit())
        || t.starts_with("0x")
        || t.starts_with("0b")
        || t.starts_with("0o")
    {
        return false;
    }
    t.contains('.')
        || t.ends_with("f64")
        || t.ends_with("f32")
        || t.chars().any(|c| c == 'e' || c == 'E')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    fn findings_for(rule_id: &str, path: &str, src: &str) -> Vec<Finding> {
        let file = scan_source(path, src);
        let mut out = Vec::new();
        for rule in registry() {
            if rule.id == rule_id {
                rule.check_file(&file, &mut out);
            }
        }
        out
    }

    #[test]
    fn no_panic_flags_unwrap_in_lib_code() {
        let f = findings_for(
            "no-panic",
            "crates/core/src/driver.rs",
            "fn f() { x.unwrap(); }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-panic");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn no_panic_skips_strings_comments_tests() {
        let src = "\
// x.unwrap() in a comment
fn f() { let s = \"x.unwrap()\"; }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); y.expect(\"boom\"); panic!(\"ok in tests\"); }
}
";
        let f = findings_for("no-panic", "crates/core/src/driver.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn no_panic_boundary_does_not_match_should_panic() {
        let f = findings_for(
            "no-panic",
            "crates/core/src/driver.rs",
            "fn f() { let unwrap_or_x = a.unwrap_or(3); my_panic!(); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn no_panic_out_of_scope_for_bench() {
        let f = findings_for(
            "no-panic",
            "crates/bench/src/main.rs",
            "fn f() { x.unwrap(); }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn no_entropy_flags_everywhere_even_tests() {
        let src = "#[cfg(test)]\nmod t { fn f() { let r = rand::thread_rng(); } }\n";
        let f = findings_for("no-entropy", "crates/workload/src/data.rs", src);
        assert_eq!(f.len(), 1);
        // …but not in the designated seam.
        let f = findings_for("no-entropy", "crates/common/src/rng.rs", src);
        assert!(f.is_empty());
    }

    #[test]
    fn float_eq_flags_only_float_literals() {
        let flagged = [
            "if x == 0.0 { }",
            "if 1.5 != y { }",
            "assert!(a.cost == 2f64);",
            "while z == 1e-6_f64 { }",
        ];
        for src in flagged {
            let f = findings_for(
                "no-float-eq",
                "crates/lp/src/simplex.rs",
                &format!("fn f() {{ {src} }}\n"),
            );
            assert_eq!(f.len(), 1, "{src}");
        }
        let clean = [
            "if x == y { }",
            "if n == 0 { }",
            "if (a - b).abs() < 1e-9 { }",
            "let c = x <= 0.5;",
            "matches!(op, Op::Eq)",
        ];
        for src in clean {
            let f = findings_for(
                "no-float-eq",
                "crates/lp/src/simplex.rs",
                &format!("fn f() {{ {src} }}\n"),
            );
            assert!(f.is_empty(), "{src}: {f:?}");
        }
    }

    #[test]
    fn float_eq_scope_is_cost_and_lp_only() {
        let f = findings_for(
            "no-float-eq",
            "crates/storage/src/engine.rs",
            "fn f() { x == 0.0; }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn obs_clock_scope() {
        let src = "fn f() { let t = smdb_common::time::now(); }\n";
        // Flagged anywhere in the framework…
        assert_eq!(
            findings_for("obs-clock", "crates/core/src/driver.rs", src).len(),
            1
        );
        // …but not in the facade itself or the clock's seam.
        assert!(findings_for("obs-clock", "crates/obs/src/trace.rs", src).is_empty());
        assert!(findings_for("obs-clock", "crates/common/src/time.rs", src).is_empty());
        // `SystemTime::now` is a different needle (and no-entropy's job).
        let f = findings_for(
            "obs-clock",
            "crates/core/src/driver.rs",
            "fn f() { let t = SystemTime::now(); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn thread_discipline_scope() {
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        let scoped = "fn f() { crossbeam::thread::scope(|s| {}); }\n";
        // Flagged in ordinary library code, whichever flavour…
        assert_eq!(
            findings_for("thread-discipline", "crates/core/src/driver.rs", spawn).len(),
            1
        );
        assert_eq!(
            findings_for("thread-discipline", "crates/core/src/assessor.rs", scoped).len(),
            1
        );
        // …but not in the designated pools or in test code.
        assert!(
            findings_for("thread-discipline", "crates/storage/src/parallel.rs", spawn).is_empty()
        );
        assert!(
            findings_for("thread-discipline", "crates/runtime/src/serve.rs", scoped).is_empty()
        );
        // The runtime's entry points are not seams: they call the loop.
        for entry in ["runtime.rs", "sharded.rs", "recover.rs"] {
            let path = format!("crates/runtime/src/{entry}");
            assert_eq!(findings_for("thread-discipline", &path, scoped).len(), 1);
        }
        let in_test = "#[cfg(test)]\nmod t { fn f() { std::thread::spawn(|| {}); } }\n";
        assert!(findings_for("thread-discipline", "crates/core/src/driver.rs", in_test).is_empty());
    }

    #[test]
    fn map_iteration_flags_hash_containers_only() {
        let src = "\
struct S { m: HashMap<u32, u32>, b: BTreeMap<u32, u32> }
fn f(s: &S) {
    for (k, v) in &s.m { use_it(k, v); }
    let total: u32 = s.m.values().sum();
    for (k, v) in &s.b { use_it(k, v); }
    let sorted: Vec<_> = s.b.iter().collect();
}
";
        let f = findings_for("map-iteration", "crates/obs/src/metrics.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.message.contains('m')));
        assert_eq!(f[0].line, 3);
        assert_eq!(f[1].line, 4);
    }

    #[test]
    fn map_iteration_respects_scope_justification_and_tests() {
        let src = "\
fn f() {
    let mut m: HashMap<u32, u32> = HashMap::new();
    // det: order-insensitive sum
    let total: u32 = m.values().sum();
}
#[cfg(test)]
mod t {
    fn g() { let m = HashMap::new(); for x in &m {} }
}
";
        // Justified + test-gated sites stay quiet…
        assert!(findings_for("map-iteration", "crates/obs/src/metrics.rs", src).is_empty());
        // …and out-of-scope paths are not policed at all.
        let hot = "fn f() { let m = HashMap::new(); for x in &m {} }\n";
        assert!(findings_for("map-iteration", "crates/core/src/driver.rs", hot).is_empty());
        assert_eq!(
            findings_for("map-iteration", "crates/cost/src/cache.rs", hot).len(),
            1
        );
        // Grouped aggregation and the partial merge live in exec.rs.
        assert_eq!(
            findings_for("map-iteration", "crates/storage/src/exec.rs", hot).len(),
            1
        );
        assert!(findings_for("map-iteration", "crates/storage/src/engine.rs", hot).is_empty());
    }

    #[test]
    fn map_iteration_lookups_do_not_fire() {
        let src = "\
fn f() {
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);
    let v = m.get(&1);
    let n = m.len();
}
";
        let f = findings_for("map-iteration", "crates/obs/src/metrics.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn atomic_ordering_needs_justification() {
        let src = "fn f(a: &AtomicU64) { a.store(1, Ordering::Relaxed); }\n";
        let f = findings_for("atomic-ordering", "crates/core/src/driver.rs", src);
        assert_eq!(f.len(), 1);
        assert!(!f[0].exempt_from_budget);

        let justified = "\
fn f(a: &AtomicU64) {
    // ordering: counter only read for reports, no ordering needed
    a.store(1, Ordering::Relaxed);
}
";
        assert!(findings_for("atomic-ordering", "crates/core/src/driver.rs", justified).is_empty());
    }

    #[test]
    fn atomic_ordering_seqcst_is_budget_exempt() {
        let src = "fn f(a: &AtomicU64) { a.store(1, Ordering::SeqCst); }\n";
        let f = findings_for("atomic-ordering", "crates/core/src/driver.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].exempt_from_budget);
    }

    #[test]
    fn atomic_ordering_ignores_cmp_ordering() {
        let src = "fn f(a: u32, b: u32) -> Ordering { if a < b { Ordering::Less } else { Ordering::Greater } }\n";
        let f = findings_for("atomic-ordering", "crates/core/src/driver.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn kernel_fallback_needs_justification() {
        let src = "fn scan() -> bool { if odd { return uncovered(); } true }\n";
        let f = findings_for("kernel-fallback", "crates/storage/src/kernels.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "kernel-fallback");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn kernel_fallback_accepts_marker_in_comment_block_above() {
        // The marker may sit anywhere in the contiguous comment block
        // above the call, not just the adjacent line.
        let src = "\
fn scan() -> bool {
    if odd {
        // kernel-fallback: Text segments have no fixed-width code
        // domain, so the batch comparator cannot be formed; the
        // scalar path handles them.
        return uncovered();
    }
    true
}
";
        let f = findings_for("kernel-fallback", "crates/storage/src/kernels.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn kernel_fallback_marker_must_be_contiguous() {
        // A blank line breaks the comment block: the marker no longer
        // covers the call.
        let src = "\
fn scan() -> bool {
    // kernel-fallback: stale reason, detached from the call

    return uncovered();
}
";
        let f = findings_for("kernel-fallback", "crates/storage/src/kernels.rs", src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn kernel_fallback_skips_definition_tests_and_other_crates() {
        let def = "fn uncovered() -> bool { false }\n";
        assert!(findings_for("kernel-fallback", "crates/storage/src/kernels.rs", def).is_empty());

        let in_test = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert!(!uncovered()); }
}
";
        assert!(
            findings_for("kernel-fallback", "crates/storage/src/kernels.rs", in_test).is_empty()
        );

        let elsewhere = "fn f() -> bool { uncovered() }\n";
        assert!(
            findings_for("kernel-fallback", "crates/query/src/database.rs", elsewhere).is_empty()
        );
    }

    #[test]
    fn wall_clock_scope() {
        let src = "fn f() { let t = Instant::now(); std::thread::sleep(d); }\n";
        assert_eq!(
            findings_for("no-wall-clock", "crates/core/src/driver.rs", src).len(),
            2
        );
        assert!(findings_for("no-wall-clock", "crates/core/src/kpi.rs", src).is_empty());
        assert!(findings_for("no-wall-clock", "crates/query/src/database.rs", src).is_empty());
    }
}
