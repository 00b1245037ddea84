//! The repo-specific rules `mixen-lint` enforces.
//!
//! | id | rule |
//! |----|------|
//! | `safety-comment` | every `unsafe` block/impl/fn needs a `// SAFETY:` comment directly above |
//! | `panic` | no `.unwrap()` / `.expect(…)` / `panic!` in non-test library code of the id-critical crates |
//! | `truncation` | no bare `as u32` / `as NodeId` narrowing casts on node/edge ids in non-test library code |
//! | `error-type` | public fallible fns in `mixen-graph`/`mixen-core` return `Result<_, GraphError>`, not `Result<_, String>` |
//! | `ordering` | every `Ordering::Relaxed` / `Ordering::SeqCst` outside tests carries a `// ordering: <why>` justification (`Acquire`/`Release`/`AcqRel` are allowed bare) |
//! | `width` | every `get_unchecked` / `get_unchecked_mut` in `mixen-core` library code carries a `// width: <why>` justification naming the bound that makes the index safe |
//!
//! Any finding can be suppressed at the site with an inline annotation on
//! the same or the immediately preceding line:
//!
//! ```text
//! // lint: allow(panic) reason=documented panicking constructor
//! ```
//!
//! The `reason=` clause is mandatory — an annotation without a reason does
//! not suppress anything.

use crate::lexer::{Scanned, Tok, TokKind};

/// Rule identity; `id()` is what diagnostics print and annotations name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    SafetyComment,
    Panic,
    Truncation,
    ErrorType,
    Ordering,
    Width,
}

impl Rule {
    pub const ALL: [Rule; 6] = [
        Rule::SafetyComment,
        Rule::Panic,
        Rule::Truncation,
        Rule::ErrorType,
        Rule::Ordering,
        Rule::Width,
    ];

    /// The stable string id used in diagnostics and `allow(...)` clauses.
    pub fn id(self) -> &'static str {
        match self {
            Rule::SafetyComment => "safety-comment",
            Rule::Panic => "panic",
            Rule::Truncation => "truncation",
            Rule::ErrorType => "error-type",
            Rule::Ordering => "ordering",
            Rule::Width => "width",
        }
    }

    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// Crates whose library code the rule applies to; `None` = every crate.
    fn crate_scope(self) -> Option<&'static [&'static str]> {
        const ID_CRATES: &[&str] = &[
            "mixen-graph",
            "mixen-core",
            "mixen-algos",
            "mixen-baselines",
        ];
        const ERR_CRATES: &[&str] = &["mixen-graph", "mixen-core"];
        const ATOMIC_CRATES: &[&str] =
            &["mixen-pool", "mixen-core", "mixen-graph", "mixen-baselines"];
        // The unchecked-indexing kernels live in mixen-core's scga module;
        // other crates are expected not to use `get_unchecked` at all (the
        // safety-comment rule still covers their `unsafe` blocks).
        const WIDTH_CRATES: &[&str] = &["mixen-core"];
        match self {
            Rule::SafetyComment => None,
            Rule::Panic | Rule::Truncation => Some(ID_CRATES),
            Rule::ErrorType => Some(ERR_CRATES),
            Rule::Ordering => Some(ATOMIC_CRATES),
            Rule::Width => Some(WIDTH_CRATES),
        }
    }
}

/// One diagnostic: rule, 1-based location, human message.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: Rule,
    pub file: String,
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.id(),
            self.msg
        )
    }
}

/// Runs every enabled rule over one scanned file.
///
/// `crate_name` decides rule scoping; `file` is the path printed in
/// diagnostics; `enabled` filters rules (the CLI's `--allow` mechanism).
pub fn check_file(
    crate_name: &str,
    file: &str,
    scanned: &Scanned,
    enabled: &[Rule],
) -> Vec<Finding> {
    let in_test = test_region_mask(&scanned.toks);
    let mut findings = Vec::new();
    for &rule in enabled {
        if let Some(scope) = rule.crate_scope() {
            if !scope.contains(&crate_name) {
                continue;
            }
        }
        match rule {
            Rule::SafetyComment => rule_safety_comment(file, scanned, &mut findings),
            Rule::Panic => rule_panic(file, scanned, &in_test, &mut findings),
            Rule::Truncation => rule_truncation(file, scanned, &in_test, &mut findings),
            Rule::ErrorType => rule_error_type(file, scanned, &in_test, &mut findings),
            Rule::Ordering => rule_ordering(file, scanned, &in_test, &mut findings),
            Rule::Width => rule_width(file, scanned, &in_test, &mut findings),
        }
    }
    findings.sort_by(|a, b| {
        a.line
            .cmp(&b.line)
            .then_with(|| a.rule.id().cmp(b.rule.id()))
    });
    findings
}

// ---------------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------------

/// Marks every token inside a `#[cfg(test)]`-gated item or a `#[test]` fn.
///
/// After the attribute (and any further attributes), the gated item extends
/// to the first top-level `;` or to the matching `}` of its first brace.
fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(after_attr) = match_test_attr(toks, i) {
            let mut j = after_attr;
            // Skip any further attributes on the same item.
            while let Some(next) = skip_attr(toks, j) {
                j = next;
            }
            // The item body: up to the matching `}` of the first `{`, or a
            // top-level `;` for braceless items.
            let mut depth = 0usize;
            let mut k = j;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        k += 1;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            for m in mask.iter_mut().take(k.min(toks.len())).skip(i) {
                *m = true;
            }
            i = k;
        } else {
            i += 1;
        }
    }
    mask
}

/// If `toks[i..]` starts with `#[cfg(test)]` or `#[test]`, returns the index
/// just past the closing `]`.
fn match_test_attr(toks: &[Tok], i: usize) -> Option<usize> {
    if toks.get(i)?.text != "#" || toks.get(i + 1)?.text != "[" {
        return None;
    }
    let end = bracket_end(toks, i + 1)?;
    let inner: Vec<&str> = toks[i + 2..end].iter().map(|t| t.text.as_str()).collect();
    let is_test = inner == ["test"] || (inner.first() == Some(&"cfg") && inner.contains(&"test"));
    is_test.then_some(end + 1)
}

/// If `toks[i..]` starts with any `#[…]` attribute, returns the index past
/// its closing `]`.
fn skip_attr(toks: &[Tok], i: usize) -> Option<usize> {
    if toks.get(i)?.text != "#" || toks.get(i + 1)?.text != "[" {
        return None;
    }
    bracket_end(toks, i + 1).map(|e| e + 1)
}

/// Index of the `]` matching the `[` at `open`.
fn bracket_end(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------------

/// True when line `line` (or the line above) carries a well-formed
/// `lint: allow(<rule>) reason=…` annotation for `rule`.
fn allowed(scanned: &Scanned, line: usize, rule: Rule) -> bool {
    let needle = format!("lint: allow({})", rule.id());
    for l in [line, line.saturating_sub(1)] {
        if l == 0 {
            continue;
        }
        if let Some(info) = scanned.line(l) {
            if let Some(pos) = info.comment.find(&needle) {
                let rest = &info.comment[pos + needle.len()..];
                if let Some(rpos) = rest.find("reason=") {
                    let reason = rest[rpos + "reason=".len()..].trim();
                    if !reason.is_empty() {
                        return true;
                    }
                }
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// R1: safety-comment
// ---------------------------------------------------------------------------

fn rule_safety_comment(file: &str, scanned: &Scanned, out: &mut Vec<Finding>) {
    for t in &scanned.toks {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if has_safety_comment(scanned, t.line) {
            continue;
        }
        out.push(Finding {
            rule: Rule::SafetyComment,
            file: file.to_string(),
            line: t.line,
            msg: "`unsafe` without a `// SAFETY:` comment directly above".into(),
        });
    }
}

/// Accepts `SAFETY:` in a comment on the same line, or in the contiguous
/// run of comment-only / attribute-only lines immediately above.
fn has_safety_comment(scanned: &Scanned, line: usize) -> bool {
    if scanned
        .line(line)
        .is_some_and(|l| l.comment.contains("SAFETY:"))
    {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        let Some(info) = scanned.line(l) else { break };
        let comment_only = !info.has_code && !info.comment.is_empty();
        let attr_only = info.raw.starts_with("#[") || info.raw.starts_with("#![");
        if comment_only {
            if info.comment.contains("SAFETY:") {
                return true;
            }
        } else if !attr_only {
            break;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// R2: panic
// ---------------------------------------------------------------------------

fn rule_panic(file: &str, scanned: &Scanned, in_test: &[bool], out: &mut Vec<Finding>) {
    let toks = &scanned.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test[i] {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
        let next = toks.get(i + 1).map(|n| n.text.as_str());
        let hit = match t.text.as_str() {
            "unwrap" | "expect" => prev == Some(".") && next == Some("("),
            "panic" => next == Some("!"),
            _ => false,
        };
        if hit && !allowed(scanned, t.line, Rule::Panic) {
            out.push(Finding {
                rule: Rule::Panic,
                file: file.to_string(),
                line: t.line,
                msg: format!(
                    "`{}` in library code; return a GraphError or annotate \
                     `// lint: allow(panic) reason=…`",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R3: truncation
// ---------------------------------------------------------------------------

const NARROW_ID_TYPES: &[&str] = &["u32", "NodeId"];

fn rule_truncation(file: &str, scanned: &Scanned, in_test: &[bool], out: &mut Vec<Finding>) {
    let toks = &scanned.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "as" || in_test[i] {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !NARROW_ID_TYPES.contains(&target.text.as_str()) {
            continue;
        }
        // Literal casts (`0 as NodeId`) cannot truncate surprisingly.
        if i > 0 && toks[i - 1].kind == TokKind::Lit {
            continue;
        }
        if allowed(scanned, t.line, Rule::Truncation) {
            continue;
        }
        out.push(Finding {
            rule: Rule::Truncation,
            file: file.to_string(),
            line: t.line,
            msg: format!(
                "bare `as {}` id cast; use the debug-checked `nid()` helper or annotate \
                 `// lint: allow(truncation) reason=…`",
                target.text
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// R4: error-type
// ---------------------------------------------------------------------------

fn rule_error_type(file: &str, scanned: &Scanned, in_test: &[bool], out: &mut Vec<Finding>) {
    let toks = &scanned.toks;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text != "pub" || in_test[i] {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // `pub(crate)` / `pub(super)` are not public API — skip them.
        if toks.get(j).is_some_and(|t| t.text == "(") {
            i += 1;
            continue;
        }
        // Allow fn modifiers between `pub` and `fn`.
        while toks
            .get(j)
            .is_some_and(|t| matches!(t.text.as_str(), "const" | "async" | "unsafe"))
        {
            j += 1;
        }
        if toks.get(j).is_none_or(|t| t.text != "fn") {
            i += 1;
            continue;
        }
        let fn_line = toks[j].line;
        if let Some((ret_start, ret_end)) = return_type_span(toks, j) {
            if returns_string_error(&toks[ret_start..ret_end])
                && !allowed(scanned, fn_line, Rule::ErrorType)
            {
                out.push(Finding {
                    rule: Rule::ErrorType,
                    file: file.to_string(),
                    line: fn_line,
                    msg: "public fn returns `Result<_, String>`; use `GraphError` \
                          (see crates/graph/src/error.rs)"
                        .into(),
                });
            }
        }
        i = j + 1;
    }
}

/// Token span of the return type of the fn whose `fn` keyword sits at `fn_i`
/// (from past `->` to the body `{`, a `;`, or a `where` clause).
fn return_type_span(toks: &[Tok], fn_i: usize) -> Option<(usize, usize)> {
    let mut depth_angle = 0isize;
    let mut depth_paren = 0isize;
    let mut k = fn_i + 1;
    // Find `->` at top level (outside the parameter list's parens the arrow
    // can only belong to closure types, which sit inside parens or angles).
    let mut arrow = None;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "(" | "[" => depth_paren += 1,
            ")" | "]" => depth_paren -= 1,
            "<" => depth_angle += 1,
            ">" if k > 0 && toks[k - 1].text == "-" && depth_paren == 0 && depth_angle == 0 => {
                arrow = Some(k + 1);
                break;
            }
            ">" => depth_angle -= 1,
            "{" | ";" => return None, // no return type
            _ => {}
        }
        k += 1;
    }
    let start = arrow?;
    let mut end = start;
    depth_angle = 0;
    depth_paren = 0;
    while end < toks.len() {
        match toks[end].text.as_str() {
            "(" | "[" => depth_paren += 1,
            ")" | "]" => depth_paren -= 1,
            "<" => depth_angle += 1,
            ">" if toks[end - 1].text != "-" => depth_angle -= 1,
            "{" | ";" if depth_angle == 0 && depth_paren == 0 => break,
            "where" if depth_angle == 0 && depth_paren == 0 => break,
            _ => {}
        }
        end += 1;
    }
    Some((start, end))
}

/// True when the return-type tokens are `Result<…, String>` (with the error
/// position occupied by a bare `String`).
fn returns_string_error(ret: &[Tok]) -> bool {
    let Some(res_i) = ret.iter().position(|t| t.text == "Result") else {
        return false;
    };
    if ret.get(res_i + 1).map(|t| t.text.as_str()) != Some("<") {
        return false;
    }
    // Find the comma separating ok/err types at angle depth 1.
    let mut depth = 0isize;
    let mut paren = 0isize;
    let mut err_start = None;
    let mut k = res_i + 1;
    while k < ret.len() {
        match ret[k].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    // Closing of the Result generics.
                    if let Some(es) = err_start {
                        let err: Vec<&str> = ret[es..k].iter().map(|t| t.text.as_str()).collect();
                        return err == ["String"];
                    }
                    return false;
                }
            }
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "," if depth == 1 && paren == 0 => err_start = Some(k + 1),
            _ => {}
        }
        k += 1;
    }
    false
}

// ---------------------------------------------------------------------------
// R5: ordering
// ---------------------------------------------------------------------------

/// `Ordering::Relaxed` and `Ordering::SeqCst` outside tests must carry a
/// `// ordering: <why>` justification — trailing on the same line, or in the
/// contiguous comment block directly above (one block may cover a contiguous
/// run of flagged lines, e.g. a `compare_exchange`'s two orderings).
/// `Acquire`/`Release`/`AcqRel` are allowed bare: they state their contract;
/// Relaxed and SeqCst hide an argument the reader can't reconstruct.
fn rule_ordering(file: &str, scanned: &Scanned, in_test: &[bool], out: &mut Vec<Finding>) {
    let toks = &scanned.toks;
    let mut sites: Vec<(usize, usize)> = Vec::new(); // (token index, line)
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !matches!(t.text.as_str(), "Relaxed" | "SeqCst")
            || in_test[i]
        {
            continue;
        }
        let via_ordering_path = i >= 3
            && toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && toks[i - 3].kind == TokKind::Ident
            && toks[i - 3].text == "Ordering";
        if via_ordering_path {
            sites.push((i, t.line));
        }
    }
    let site_lines: Vec<usize> = sites.iter().map(|&(_, l)| l).collect();
    for (i, line) in sites {
        if has_tagged_comment(scanned, line, &site_lines, "ordering:")
            || allowed(scanned, line, Rule::Ordering)
        {
            continue;
        }
        out.push(Finding {
            rule: Rule::Ordering,
            file: file.to_string(),
            line,
            msg: format!(
                "`Ordering::{}` without a `// ordering: <why>` justification \
                 (use Acquire/Release/AcqRel, or say why this is enough)",
                toks[i].text
            ),
        });
    }
}

/// True when the flagged line carries `<tag> <non-empty why>` in a
/// comment, or such a comment sits in the contiguous run of comment-only /
/// attribute-only / other-flagged lines directly above. Shared by the
/// `ordering` (`tag = "ordering:"`) and `width` (`tag = "width:"`) rules.
fn has_tagged_comment(scanned: &Scanned, line: usize, site_lines: &[usize], tag: &str) -> bool {
    let justifies = |comment: &str| {
        comment
            .find(tag)
            .is_some_and(|p| !comment[p + tag.len()..].trim().is_empty())
    };
    if scanned.line(line).is_some_and(|l| justifies(&l.comment)) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        let Some(info) = scanned.line(l) else { break };
        let comment_only = !info.has_code && !info.comment.is_empty();
        let attr_only = info.raw.starts_with("#[") || info.raw.starts_with("#![");
        if comment_only {
            if justifies(&info.comment) {
                return true;
            }
        } else if !attr_only && !site_lines.contains(&l) {
            break;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// R6: width
// ---------------------------------------------------------------------------

/// Every `get_unchecked` / `get_unchecked_mut` call outside tests must carry
/// a `// width: <why>` justification naming the bound that makes the index
/// in range — trailing on the same line, or in the contiguous comment block
/// directly above (one block may cover a run of flagged lines, e.g. a
/// W-wide load followed by its store). The SIMD-width kernels in `scga` are
/// the intended audience: their `// SAFETY:` comments argue the pointer is
/// valid, the `width:` tag argues the *index arithmetic* stays in bounds at
/// every unroll width.
fn rule_width(file: &str, scanned: &Scanned, in_test: &[bool], out: &mut Vec<Finding>) {
    let toks = &scanned.toks;
    let mut sites: Vec<(usize, usize)> = Vec::new(); // (token index, line)
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !matches!(t.text.as_str(), "get_unchecked" | "get_unchecked_mut")
            || in_test[i]
        {
            continue;
        }
        // Only call sites: `.get_unchecked(` / `.get_unchecked_mut(`.
        let is_call =
            i >= 1 && toks[i - 1].text == "." && toks.get(i + 1).is_some_and(|n| n.text == "(");
        if is_call {
            sites.push((i, t.line));
        }
    }
    let site_lines: Vec<usize> = sites.iter().map(|&(_, l)| l).collect();
    for (i, line) in sites {
        if has_tagged_comment(scanned, line, &site_lines, "width:")
            || allowed(scanned, line, Rule::Width)
        {
            continue;
        }
        out.push(Finding {
            rule: Rule::Width,
            file: file.to_string(),
            line,
            msg: format!(
                "`{}` without a `// width: <why>` justification naming the \
                 bound that keeps the index in range",
                toks[i].text
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn run(crate_name: &str, src: &str) -> Vec<Finding> {
        check_file(crate_name, "test.rs", &scan(src), &Rule::ALL)
    }

    #[test]
    fn unsafe_without_safety_flagged() {
        let f = run("mixen-graph", "fn f() { unsafe { g(); } }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::SafetyComment);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unsafe_with_safety_above_ok() {
        let src = "// SAFETY: the slot is exclusively owned.\nunsafe impl Send for X {}\n";
        assert!(run("mixen-graph", src).is_empty());
    }

    #[test]
    fn safety_accepted_through_attributes_and_docs() {
        let src = "/// SAFETY: caller owns the segment.\n#[allow(clippy::mut_from_ref)]\npub unsafe fn f() {}\n";
        let f = run("mixen-cachesim", src);
        assert!(f.iter().all(|x| x.rule != Rule::SafetyComment), "{f:?}");
    }

    #[test]
    fn unwrap_in_scoped_crate_flagged_and_annotation_suppresses() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(run("mixen-core", src).len(), 1);
        let ann = "fn f() {\n    // lint: allow(panic) reason=checked above\n    x.unwrap();\n}\n";
        assert!(run("mixen-core", ann).is_empty());
        // Annotation without a reason does not suppress.
        let bad = "fn f() {\n    // lint: allow(panic)\n    x.unwrap();\n}\n";
        assert_eq!(run("mixen-core", bad).len(), 1);
    }

    #[test]
    fn unwrap_outside_scope_or_in_tests_ignored() {
        let src = "fn f() { x.unwrap(); }\n";
        assert!(run("mixen-cli", src).is_empty());
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); panic!(\"boom\"); }\n}\n";
        assert!(run("mixen-core", test_src).is_empty());
    }

    #[test]
    fn unwrap_or_else_not_confused_with_unwrap() {
        assert!(run("mixen-core", "fn f() { x.unwrap_or_else(|| 3); }\n").is_empty());
        assert!(run("mixen-core", "fn f() { x.unwrap_or(3).expect_fail(); }\n").is_empty());
    }

    #[test]
    fn truncating_cast_flagged_literal_and_annotated_ok() {
        assert_eq!(
            run("mixen-graph", "fn f(n: usize) { let x = n as u32; }\n").len(),
            1
        );
        assert_eq!(
            run("mixen-graph", "fn f(n: usize) { let x = n as NodeId; }\n").len(),
            1
        );
        assert!(run("mixen-graph", "fn f() { let x = 0 as u32; }\n").is_empty());
        assert!(run("mixen-graph", "fn f(n: usize) { let x = n as usize; }\n").is_empty());
        let ann = "fn f(n: usize) {\n    let x = n as u32; // lint: allow(truncation) reason=n < 2^32 by construction\n}\n";
        assert!(run("mixen-graph", ann).is_empty());
    }

    #[test]
    fn string_error_return_flagged() {
        let f = run(
            "mixen-graph",
            "pub fn validate(&self) -> Result<(), String> { Ok(()) }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::ErrorType);
        assert!(run(
            "mixen-graph",
            "pub fn v() -> Result<(), GraphError> { Ok(()) }\n"
        )
        .is_empty());
        assert!(run(
            "mixen-graph",
            "fn private() -> Result<(), String> { Ok(()) }\n"
        )
        .is_empty());
        assert!(run(
            "mixen-algos",
            "pub fn v() -> Result<(), String> { Ok(()) }\n"
        )
        .is_empty());
        // Ok-type String is fine; only the error position matters.
        assert!(run(
            "mixen-graph",
            "pub fn v() -> Result<String, GraphError> { todo() }\n"
        )
        .is_empty());
    }

    #[test]
    fn pub_crate_fns_are_not_public_api() {
        let src = "pub(crate) fn v() -> Result<(), String> { Ok(()) }\n";
        assert!(run("mixen-core", src).is_empty());
    }

    #[test]
    fn bare_relaxed_and_seqcst_flagged() {
        for kind in ["Relaxed", "SeqCst"] {
            let src = format!("fn f(c: &AtomicUsize) {{ c.load(Ordering::{kind}); }}\n");
            let f = run("mixen-pool", &src);
            assert_eq!(f.len(), 1, "{kind}: {f:?}");
            assert_eq!(f[0].rule, Rule::Ordering);
        }
    }

    #[test]
    fn acquire_release_acqrel_allowed_bare() {
        for kind in ["Acquire", "Release", "AcqRel"] {
            let src = format!("fn f(c: &AtomicUsize) {{ c.swap(1, Ordering::{kind}); }}\n");
            assert!(run("mixen-pool", &src).is_empty(), "{kind}");
        }
    }

    #[test]
    fn ordering_justifications_accepted() {
        // Trailing on the same line.
        let same = "fn f() { c.load(Ordering::Relaxed) } // ordering: stats snapshot\n";
        assert!(run("mixen-core", same).is_empty());
        // Comment block directly above.
        let above = "fn f() {\n    // ordering: published by the join below.\n    c.store(0, Ordering::Relaxed);\n}\n";
        assert!(run("mixen-core", above).is_empty());
        // One block covers a contiguous run of flagged lines (CAS pair).
        let pair = "fn f() {\n    c.compare_exchange(0, 1,\n        // ordering: same-slot claim; join publishes.\n        Ordering::Relaxed,\n        Ordering::Relaxed);\n}\n";
        assert!(
            run("mixen-core", pair).is_empty(),
            "{:?}",
            run("mixen-core", pair)
        );
        // An empty why does not justify.
        let empty = "fn f() {\n    // ordering:\n    c.store(0, Ordering::Relaxed);\n}\n";
        assert_eq!(run("mixen-core", empty).len(), 1);
        // A blank line breaks contiguity.
        let gap = "fn f() {\n    // ordering: stale.\n\n    c.store(0, Ordering::Relaxed);\n}\n";
        assert_eq!(run("mixen-core", gap).len(), 1);
    }

    #[test]
    fn ordering_allow_annotation_and_scope() {
        let ann = "fn f() {\n    // lint: allow(ordering) reason=measured hot path\n    c.load(Ordering::SeqCst);\n}\n";
        assert!(run("mixen-graph", ann).is_empty());
        // Out-of-scope crates are exempt.
        let src = "fn f() { c.load(Ordering::Relaxed); }\n";
        assert!(run("mixen-check", src).is_empty());
        assert!(run("mixen-cli", src).is_empty());
        // Test regions are exempt.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { c.load(Ordering::Relaxed); }\n}\n";
        assert!(run("mixen-pool", test_src).is_empty());
    }

    #[test]
    fn cmp_ordering_and_bare_idents_not_flagged() {
        // `Relaxed` not reached through `Ordering::` is someone else's enum.
        assert!(run("mixen-core", "fn f() { let x = Mode::Relaxed; }\n").is_empty());
        assert!(run("mixen-core", "fn f() -> Ordering { Ordering::Less }\n").is_empty());
    }

    #[test]
    fn bare_get_unchecked_flagged_in_core_only() {
        let src = "fn f(v: &[u32]) { unsafe { v.get_unchecked(0) }; }\n";
        let f = run("mixen-core", src);
        assert!(f.iter().any(|x| x.rule == Rule::Width), "{f:?}");
        // Out-of-scope crates are exempt (safety-comment still applies).
        assert!(run("mixen-graph", src)
            .iter()
            .all(|x| x.rule != Rule::Width));
        // Non-call mentions (e.g. a doc string identifier) are not flagged.
        assert!(run("mixen-core", "fn f() { let get_unchecked = 3; }\n")
            .iter()
            .all(|x| x.rule != Rule::Width));
    }

    #[test]
    fn width_justifications_accepted() {
        // Trailing on the same line.
        let same = "fn f(v: &[u32]) {\n    // SAFETY: k < len by the loop bound.\n    unsafe { v.get_unchecked(0) }; // width: k < len by the loop bound\n}\n";
        assert!(
            run("mixen-core", same).is_empty(),
            "{:?}",
            run("mixen-core", same)
        );
        // Comment block directly above covers a contiguous run of sites
        // (the second `unsafe` still owes its own SAFETY comment — only
        // the width findings are checked here).
        let above = "fn f(v: &mut [u32]) {\n    // SAFETY: both indexes bounded by msg_count.\n    // width: both indexes bounded by msg_count at every unroll width.\n    unsafe { v.get_unchecked(0) };\n    unsafe { v.get_unchecked_mut(1) };\n}\n";
        let f = run("mixen-core", above);
        assert!(f.iter().all(|x| x.rule != Rule::Width), "{f:?}");
        // An empty why does not justify.
        let empty = "fn f(v: &[u32]) {\n    // SAFETY: fine.\n    // width:\n    unsafe { v.get_unchecked(0) };\n}\n";
        assert!(run("mixen-core", empty)
            .iter()
            .any(|x| x.rule == Rule::Width));
        // The allow annotation suppresses, with a reason.
        let ann = "fn f(v: &[u32]) {\n    // SAFETY: fine.\n    // lint: allow(width) reason=index is a constant zero\n    unsafe { v.get_unchecked(0) };\n}\n";
        assert!(run("mixen-core", ann).is_empty());
        // Test regions are exempt (the safety-comment rule still applies
        // to `unsafe` everywhere, so filter to width findings only).
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f(v: &[u32]) { unsafe { v.get_unchecked(0) }; }\n}\n";
        assert!(run("mixen-core", test_src)
            .iter()
            .all(|x| x.rule != Rule::Width));
    }

    #[test]
    fn test_region_extends_to_matching_brace() {
        let src = "#[cfg(test)]\nmod tests {\n    mod inner {\n        fn f() { x.unwrap(); }\n    }\n}\nfn lib() { y.unwrap(); }\n";
        let f = run("mixen-core", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 7);
    }
}
