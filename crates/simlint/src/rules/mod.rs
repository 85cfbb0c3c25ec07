//! The rule catalog and the per-file scanning engine.
//!
//! Rules are grouped into families, one module each (see DESIGN.md §6
//! for the prose version of this table):
//!
//! * [`determinism`] — `nondeterministic-iteration`, `wall-clock`,
//!   `ambient-rng`, `float-accum-order`: anything that could make a
//!   seeded study's output depend on the host, the process, or the
//!   schedule.
//! * [`panics`] — `panic-in-ingest`, `error-swallow`: the ingest /
//!   spill / upload path must degrade into typed errors or explicit gap
//!   declarations — it may neither crash nor silently drop a `Result`.
//! * [`hotpath`] — `hot-path-alloc`, `hot-path-transitive`: functions in
//!   `simlint-hotpaths.txt` are allocation-free, and so is everything
//!   they reach through the call graph (pass 1, [`crate::graph`]);
//!   `hot-path-inline`: functions in `simlint-inline.txt` carry
//!   `#[inline]`, so callers in other crates can inline them.
//! * [`threading`] — `shared-state`: `static mut`, `spawn`, and
//!   `Ordering::Relaxed` in dataset crates are confined to the files
//!   whitelisted in `simlint-shared-state.txt`.
//! * [`layering`] — `layering`: the crate dependency edges in members'
//!   `Cargo.toml`s must match `simlint-layers.txt` (which mirrors
//!   DESIGN.md's dep-flow), every declared edge must be referenced from
//!   source, and stale manifest lines are findings.
//!
//! Matching is token-level: there is no type inference, so rules key off
//! declarations they can see (in the same file, or in pass 1's workspace
//! symbol graph). That trades a few heuristic misses for zero
//! dependencies; the suppression mechanism absorbs deliberate exceptions.

pub mod determinism;
pub mod hotpath;
pub mod layering;
pub mod panics;
pub mod threading;

pub use layering::{parse_layers, LayerEdge};
pub use threading::{parse_shared_whitelist, SharedStateEntry};

use crate::graph::TransitiveHot;
use crate::lexer::{lex, Comment, Token};

/// Rule identifiers, as written inside `allow(...)`.
pub const RULES: &[&str] = &[
    "nondeterministic-iteration",
    "wall-clock",
    "ambient-rng",
    "float-accum-order",
    "panic-in-ingest",
    "error-swallow",
    "hot-path-alloc",
    "hot-path-transitive",
    "hot-path-inline",
    "shared-state",
    "layering",
];

/// Crates whose emitted records reach `Datasets` (the determinism
/// boundary): unordered iteration inside them is a finding.
pub(crate) const DATASET_CRATES: &[&str] = &[
    "crates/obs/src/",
    "crates/simnet/src/",
    "crates/household/src/",
    "crates/firmware/src/",
    "crates/collector/src/",
    "crates/cgn/src/",
    "crates/core/src/",
];

/// Files making up the idempotent ingest / reliable upload path. The
/// spill module is included because segment I/O runs underneath ingestion:
/// a disk error must surface as a `Result` (degrading to in-memory), never
/// as a panic that takes the collector down mid-study.
pub(crate) const INGEST_FILES: &[&str] = &[
    "crates/collector/src/server.rs",
    "crates/collector/src/export.rs",
    "crates/collector/src/spill.rs",
    "crates/firmware/src/uploader.rs",
];

/// Map methods whose iteration order is the map's internal order.
pub(crate) const ITERATING_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Words that look like identifiers to the lexer but can never name a
/// local binding (used to reject `let [a, b] = ...` as indexing, and to
/// reject `if (...)` as a call in the symbol graph).
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while",
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (one of [`RULES`], or the meta rules
    /// `unjustified-suppression` / `unused-suppression`).
    pub rule: String,
    /// Workspace-relative path, unix separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation.
    pub message: String,
}

/// A parsed `// simlint: allow(rule, ...) — justification` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line the comment ends on (it applies to this line and the next).
    pub line: u32,
    /// Rules it names.
    pub rules: Vec<String>,
    /// Whether non-empty justification text follows the rule list.
    pub justified: bool,
    /// The justification text itself (empty when unjustified); listed
    /// verbatim by `simlint --audit`.
    pub justification: String,
}

/// An entry of the hot-path or inline manifest: `path::function`.
#[derive(Debug, Clone)]
pub struct HotPathFn {
    /// Workspace-relative file path.
    pub path: String,
    /// Function name.
    pub func: String,
    /// 1-based line of the entry in its manifest.
    pub line: u32,
}

/// Parse the manifest format: one `path::function` per line, `#` comments.
pub fn parse_hotpaths(text: &str) -> Vec<HotPathFn> {
    text.lines()
        .zip(1u32..)
        .map(|(l, line)| (l.trim(), line))
        .filter(|(l, _)| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|(l, line)| {
            let (path, func) = l.rsplit_once("::")?;
            Some(HotPathFn { path: path.trim().to_string(), func: func.trim().to_string(), line })
        })
        .collect()
}

/// Extract suppressions from comments. Doc comments (`///`, `//!`) are
/// documentation, not directives: mentioning the suppression syntax in
/// rustdoc must not create one.
pub fn parse_suppressions(comments: &[Comment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        if c.text.starts_with("///") || c.text.starts_with("//!") || c.text.starts_with("/**") {
            continue;
        }
        let Some(pos) = c.text.find("simlint:") else { continue };
        let rest = c.text[pos + "simlint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow") else { continue };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else { continue };
        let Some(close) = rest.find(')') else { continue };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = rest[close + 1..]
            .trim_start()
            .trim_start_matches(['—', '–', '-', ':', ' '])
            .trim();
        out.push(Suppression {
            line: c.end_line,
            rules,
            justified: !tail.is_empty(),
            justification: tail.to_string(),
        });
    }
    out
}

/// Inclusive line ranges of `#[cfg(test)]`-gated items (plus, the caller
/// may treat whole files under `tests/`, `benches/`, `examples/` as test
/// code). Findings are not raised inside test code: tests may unwrap and
/// iterate freely, their output never reaches a dataset.
pub fn test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 5 < tokens.len() {
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].is_ident("test");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Skip to the attribute's closing bracket.
        let mut j = i + 2;
        let mut bracket_depth = 1i32;
        while j < tokens.len() && bracket_depth > 0 {
            if tokens[j].is_punct('[') {
                bracket_depth += 1;
            } else if tokens[j].is_punct(']') {
                bracket_depth -= 1;
            }
            j += 1;
        }
        // The gated item: find its body (first `{` before any `;`) and the
        // matching close brace.
        let mut body_start = None;
        while j < tokens.len() {
            if tokens[j].is_punct(';') {
                break; // item without a body (e.g. a gated `use`)
            }
            if tokens[j].is_punct('{') {
                body_start = Some(j);
                break;
            }
            j += 1;
        }
        if let Some(open) = body_start {
            let mut depth = 0i32;
            let mut k = open;
            while k < tokens.len() {
                if tokens[k].is_punct('{') {
                    depth += 1;
                } else if tokens[k].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            let end_line = tokens.get(k).or_else(|| tokens.last()).map_or(start_line, |t| t.line);
            spans.push((start_line, end_line));
            i = k.max(i + 1);
        } else {
            i = j.max(i + 1);
        }
    }
    spans
}

pub(crate) fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Everything the rules need to scan one file. The graph-derived fields
/// default to empty so single-file scans (and v1-era tests) still work.
#[derive(Default)]
pub struct FileInput<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// Source text.
    pub source: &'a str,
    /// Hot-path manifest entries for this file.
    pub hotpaths: &'a [HotPathFn],
    /// Inline manifest entries for this file.
    pub inline: &'a [HotPathFn],
    /// Functions in this file the call graph reaches from the manifest.
    pub transitive: &'a [TransitiveHot],
    /// The full shared-state whitelist (entries are path-scoped).
    pub shared_whitelist: &'a [SharedStateEntry],
}

/// Result of scanning one file.
pub struct FileScan {
    /// Findings that survived suppression filtering.
    pub findings: Vec<Finding>,
    /// Number of findings silenced by justified suppressions.
    pub suppressed: usize,
    /// Shared-state sites silenced by the whitelist.
    pub whitelisted: usize,
    /// Lines (in `simlint-shared-state.txt`) of whitelist entries that
    /// matched a site in this file; the workspace pass flags the rest as
    /// stale.
    pub whitelist_used: Vec<u32>,
}

/// Scan one file: lex, run every applicable rule, then apply suppressions.
pub fn scan_file(input: &FileInput<'_>) -> FileScan {
    let lexed = lex(input.source);
    let suppressions = parse_suppressions(&lexed.comments);
    let is_test_file = input.path.contains("/tests/")
        || input.path.contains("/benches/")
        || input.path.starts_with("tests/")
        || input.path.starts_with("examples/");
    let spans = if is_test_file {
        vec![(0, u32::MAX)]
    } else {
        test_spans(&lexed.tokens)
    };

    let mut raw = Vec::new();
    determinism::rule_nondeterministic_iteration(input, &lexed.tokens, &spans, &mut raw);
    determinism::rule_wall_clock(input, &lexed.tokens, &mut raw);
    determinism::rule_ambient_rng(input, &lexed.tokens, &mut raw);
    determinism::rule_float_accum_order(input, &lexed.tokens, &spans, &mut raw);
    panics::rule_panic_in_ingest(input, &lexed.tokens, &spans, &mut raw);
    panics::rule_error_swallow(input, &lexed.tokens, &spans, &mut raw);
    hotpath::rule_hot_path_alloc(input, &lexed.tokens, &spans, &mut raw);
    hotpath::rule_hot_path_transitive(input, &lexed.tokens, &spans, &mut raw);
    hotpath::rule_hot_path_inline(input, &lexed.tokens, &spans, &mut raw);
    let (whitelisted, whitelist_used) =
        threading::rule_shared_state(input, &lexed.tokens, &spans, &mut raw);

    let mut scan = apply_suppressions(input.path, raw, &suppressions);
    scan.whitelisted = whitelisted;
    scan.whitelist_used = whitelist_used;
    scan
}

/// Filter findings through suppressions; flag unjustified and unused ones.
fn apply_suppressions(
    path: &str,
    raw: Vec<Finding>,
    suppressions: &[Suppression],
) -> FileScan {
    let mut used = vec![false; suppressions.len()];
    let mut unjustified: Vec<usize> = Vec::new();
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for f in raw {
        // Prefer a same-line suppression over a line-above one: when both
        // exist (adjacent suppressed lines), each must pair with its own
        // finding or the same-line one is falsely reported as unused.
        let names_rule =
            |s: &&Suppression| s.rules.contains(&f.rule);
        let hit = suppressions
            .iter()
            .enumerate()
            .find(|(_, s)| s.line == f.line && names_rule(s))
            .or_else(|| {
                suppressions
                    .iter()
                    .enumerate()
                    .find(|(_, s)| s.line + 1 == f.line && names_rule(s))
            });
        match hit {
            Some((idx, s)) => {
                used[idx] = true;
                if s.justified {
                    suppressed += 1;
                } else {
                    unjustified.push(idx);
                }
            }
            None => findings.push(f),
        }
    }
    // One comment can absorb several findings on its line; report it once.
    unjustified.sort_unstable();
    unjustified.dedup();
    for idx in unjustified {
        let s = &suppressions[idx];
        findings.push(Finding {
            rule: "unjustified-suppression".to_string(),
            path: path.to_string(),
            line: s.line,
            message: format!(
                "suppression for `{}` has no justification; write `// simlint: allow({}) — <why>`",
                s.rules.join(", "),
                s.rules.join(", "),
            ),
        });
    }
    for (idx, s) in suppressions.iter().enumerate() {
        if !used[idx] {
            findings.push(Finding {
                rule: "unused-suppression".to_string(),
                path: path.to_string(),
                line: s.line,
                message: format!(
                    "suppression for `{}` matches no finding; delete it",
                    s.rules.join(", ")
                ),
            });
        }
    }
    FileScan { findings, suppressed, whitelisted: 0, whitelist_used: Vec::new() }
}

pub(crate) fn push(out: &mut Vec<Finding>, rule: &str, path: &str, line: u32, message: String) {
    // One finding per (rule, line): a line like `a.iter().chain(b.iter())`
    // is one reviewable site, not two.
    if out.iter().any(|f| f.rule == rule && f.line == line && f.path == path) {
        return;
    }
    out.push(Finding { rule: rule.to_string(), path: path.to_string(), line, message });
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

    pub fn scan(path: &str, source: &str) -> Vec<Finding> {
        scan_file(&FileInput { path, source, ..FileInput::default() }).findings
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::scan;
    use super::*;

    #[test]
    fn justified_suppression_silences_finding() {
        let src = "
            fn f() {
                // simlint: allow(wall-clock) — CLI phase timing, never reaches datasets
                let t = std::time::Instant::now();
            }";
        let scanned = scan_file(&FileInput {
            path: "crates/core/src/study.rs",
            source: src,
            ..FileInput::default()
        });
        assert!(scanned.findings.is_empty(), "{:?}", scanned.findings);
        assert_eq!(scanned.suppressed, 1);
    }

    #[test]
    fn same_line_suppression_works() {
        let src =
            "fn f() { let t = std::time::Instant::now(); } // simlint: allow(wall-clock) — timing";
        assert!(scan("crates/core/src/study.rs", src).is_empty());
    }

    #[test]
    fn suppression_without_justification_fails() {
        let src = "
            fn f() {
                // simlint: allow(wall-clock)
                let t = std::time::Instant::now();
            }";
        let f = scan("crates/core/src/study.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unjustified-suppression");
    }

    #[test]
    fn suppression_for_wrong_rule_does_not_silence() {
        let src = "
            fn f() {
                // simlint: allow(ambient-rng) — wrong rule named
                let t = std::time::Instant::now();
            }";
        let f = scan("crates/core/src/study.rs", src);
        assert!(f.iter().any(|x| x.rule == "wall-clock"), "{f:?}");
        assert!(f.iter().any(|x| x.rule == "unused-suppression"), "{f:?}");
    }

    #[test]
    fn unused_suppression_is_reported() {
        let src = "// simlint: allow(wall-clock) — nothing here anymore\nfn f() {}";
        let f = scan("crates/core/src/study.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unused-suppression");
    }

    #[test]
    fn suppression_justification_text_is_captured() {
        let src = "
            // simlint: allow(wall-clock) — CLI phase timing only
            fn f() { let t = std::time::Instant::now(); }";
        let lexed = crate::lexer::lex(src);
        let s = parse_suppressions(&lexed.comments);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].justification, "CLI phase timing only");
    }

    #[test]
    fn multi_rule_suppression() {
        let src = "
            fn ingest(v: &[u8]) -> u8 {
                // simlint: allow(panic-in-ingest) — length checked by caller contract
                v[0]
            }";
        assert!(scan("crates/collector/src/server.rs", src).is_empty());
    }

    #[test]
    fn doc_comments_do_not_create_suppressions() {
        let src = "
            /// Mentioning the syntax in docs is fine: simlint: allow(wall-clock) — example
            fn f() {}";
        assert!(scan("crates/core/src/study.rs", src).is_empty(), "no unused-suppression");
    }

    #[test]
    fn hotpath_manifest_parsing() {
        let text = "# comment\n\ncrates/firmware/src/heartbeat.rs::emit_into\n\
                    crates/firmware/src/uploader.rs::seal\n";
        let hp = parse_hotpaths(text);
        assert_eq!(hp.len(), 2);
        assert_eq!(hp[0].path, "crates/firmware/src/heartbeat.rs");
        assert_eq!(hp[0].func, "emit_into");
        assert_eq!(hp[1].func, "seal");
    }
}
