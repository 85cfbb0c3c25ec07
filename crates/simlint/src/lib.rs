//! `simlint` — workspace static analysis for the reproduction's
//! determinism, hot-path, thread-safety, and panic-safety invariants.
//!
//! The binary (`cargo run -p simlint -- --workspace`) and the workspace
//! test (`tests/simlint_clean.rs`) both go through [`scan_workspace`],
//! which runs two passes:
//!
//! 1. **Pass 1 — symbol graph** ([`graph`]): read every first-party
//!    `.rs` file and every member `Cargo.toml` once, and build the
//!    workspace symbol graph — crate dependency edges, per-crate symbol
//!    references, and the intra-crate call graph. From it, derive the
//!    set of functions transitively reachable from the hot-path
//!    manifest.
//! 2. **Pass 2 — rules** ([`rules`]): scan each file with the rule
//!    families (which now see the graph-derived context), then run the
//!    workspace-level layering reconciliation and flag stale manifest
//!    entries. Findings are filtered through inline suppressions, the
//!    shared-state whitelist, and the checked-in baseline; zero
//!    unsuppressed findings is the contract.
//!
//! The tool is deliberately dependency-free (the build container has no
//! crates.io access): lexing is hand-rolled in [`lexer`], JSON output is
//! emitted by hand, and configuration is five flat files at the
//! workspace root — `simlint-hotpaths.txt` (hot-path manifest),
//! `simlint-inline.txt` (its `#[inline]` sibling), `simlint-layers.txt`
//! (layering manifest), `simlint-shared-state.txt` (shared-state
//! whitelist), and `simlint.baseline` (grandfathered findings, normally
//! empty).

pub mod graph;
pub mod lexer;
pub mod rules;

use graph::{SymbolGraph, TransitiveHot};
use rules::{Finding, HotPathFn, LayerEdge, SharedStateEntry};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the hot-path manifest at the workspace root.
pub const HOTPATHS_FILE: &str = "simlint-hotpaths.txt";
/// Name of the inline manifest at the workspace root.
pub const INLINE_FILE: &str = "simlint-inline.txt";
/// Name of the layering manifest at the workspace root.
pub const LAYERS_FILE: &str = rules::layering::LAYERS_FILE;
/// Name of the shared-state whitelist at the workspace root.
pub const SHARED_STATE_FILE: &str = "simlint-shared-state.txt";
/// Name of the baseline file at the workspace root.
pub const BASELINE_FILE: &str = "simlint.baseline";

/// Directories never scanned: generated/vendored code is not ours to lint.
const SKIP_DIRS: &[&str] = &["target", "vendor-stubs", ".git"];

/// Aggregated scan result.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed, non-grandfathered findings (build-failing).
    pub findings: Vec<Finding>,
    /// Findings silenced by justified inline suppressions.
    pub suppressed: usize,
    /// Shared-state sites silenced by the whitelist.
    pub whitelisted: usize,
    /// Findings matched by the baseline file.
    pub grandfathered: usize,
    /// Files scanned.
    pub files: usize,
}

impl Report {
    /// True when nothing fails the build.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable diagnostics, one `file:line: [rule] message` per
    /// finding, followed by a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{}:{}: [{}] {}\n", f.path, f.line, f.rule, f.message));
        }
        out.push_str(&format!(
            "simlint: {} finding{} ({} suppressed, {} whitelisted, {} grandfathered) across \
             {} files\n",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.suppressed,
            self.whitelisted,
            self.grandfathered,
            self.files,
        ));
        out
    }

    /// Machine-readable JSON (hand-emitted; the tool is dependency-free).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                json_escape(&f.rule),
                json_escape(&f.path),
                f.line,
                json_escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"suppressed\": {},\n  \"whitelisted\": {},\n  \"grandfathered\": {},\n  \
             \"files\": {}\n}}\n",
            self.suppressed, self.whitelisted, self.grandfathered, self.files
        ));
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Find the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Collect every first-party `.rs` file under the workspace root.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A baseline entry: findings matching (rule, path, line-agnostic
/// message-free snippet) are reported as grandfathered, not failing.
/// Line numbers are deliberately absent so unrelated edits above a
/// grandfathered site do not invalidate the baseline.
fn parse_baseline(text: &str) -> Vec<(String, String)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (rule, path) = l.split_once('\t')?;
            Some((rule.trim().to_string(), path.trim().to_string()))
        })
        .collect()
}

/// Pass-1 output plus the root manifests: everything pass 2 consumes.
pub struct WorkspaceContext {
    /// Hot-path manifest entries.
    pub hotpaths: Vec<HotPathFn>,
    /// Inline manifest entries (same `path::function` format).
    pub inline: Vec<HotPathFn>,
    /// Layering manifest entries.
    pub layers: Vec<LayerEdge>,
    /// Shared-state whitelist entries.
    pub whitelist: Vec<SharedStateEntry>,
    /// Baseline entries (consumed as findings match them).
    pub baseline: Vec<(String, String)>,
    /// The workspace symbol graph.
    pub graph: SymbolGraph,
    /// Functions the call graph reaches from the hot-path manifest.
    pub transitive: Vec<TransitiveHot>,
    /// Every first-party source, keyed by workspace-relative path (read
    /// once in pass 1, reused by pass 2).
    pub sources: BTreeMap<String, String>,
}

/// Run pass 1: read every source and manifest, build the symbol graph.
pub fn load_context(root: &Path) -> io::Result<WorkspaceContext> {
    let read_optional = |name: &str| match fs::read_to_string(root.join(name)) {
        Ok(text) => Ok(text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(String::new()),
        Err(e) => Err(e),
    };
    let hotpaths = rules::parse_hotpaths(&read_optional(HOTPATHS_FILE)?);
    let inline = rules::parse_hotpaths(&read_optional(INLINE_FILE)?);
    let layers = rules::parse_layers(&read_optional(LAYERS_FILE)?);
    let whitelist = rules::parse_shared_whitelist(&read_optional(SHARED_STATE_FILE)?);
    let baseline = parse_baseline(&read_optional(BASELINE_FILE)?);

    let mut sources = BTreeMap::new();
    for path in workspace_files(root)? {
        let bytes = fs::read(&path)?;
        sources.insert(rel_path(root, &path), String::from_utf8_lossy(&bytes).into_owned());
    }
    let flat: Vec<(String, String)> =
        sources.iter().map(|(p, s)| (p.clone(), s.clone())).collect();
    let graph = SymbolGraph::build(root, &flat)?;
    let transitive = graph.transitive_hot(&hotpaths);
    Ok(WorkspaceContext {
        hotpaths,
        inline,
        layers,
        whitelist,
        baseline,
        graph,
        transitive,
        sources,
    })
}

/// Scan an explicit set of files (paths may be absolute or root-relative).
/// Per-file rules only; the workspace-level layering/staleness checks run
/// in [`scan_workspace`], where the full file set is in view.
pub fn scan_paths(root: &Path, paths: &[PathBuf]) -> io::Result<Report> {
    let ctx = load_context(root)?;
    let mut used_whitelist = Vec::new();
    let mut baseline_left = ctx.baseline.clone();
    let mut report = scan_files(root, paths, &ctx, &mut used_whitelist, &mut baseline_left)?;
    sort_findings(&mut report.findings);
    Ok(report)
}

/// Scan the whole workspace rooted at `root`: every per-file rule plus
/// the workspace-level checks (layering reconciliation, stale/unjustified
/// whitelist entries).
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let ctx = load_context(root)?;
    let files = workspace_files(root)?;
    let mut used_whitelist = Vec::new();
    let mut baseline_left = ctx.baseline.clone();
    let mut report =
        scan_files(root, &files, &ctx, &mut used_whitelist, &mut baseline_left)?;

    let mut ws: Vec<Finding> = Vec::new();
    rules::layering::rule_layering(&ctx.graph, &ctx.layers, &mut ws);
    // A manifest entry is checked by the file it names, so an entry whose
    // file is gone would never be checked at all.
    for (entries, manifest, rule) in [
        (&ctx.hotpaths, HOTPATHS_FILE, "hot-path-alloc"),
        (&ctx.inline, INLINE_FILE, "hot-path-inline"),
    ] {
        for e in entries.iter().filter(|e| !ctx.sources.contains_key(&e.path)) {
            ws.push(Finding {
                rule: rule.to_string(),
                path: manifest.to_string(),
                line: e.line,
                message: format!(
                    "manifest entry `{}::{}` names no workspace source; delete the stale line \
                     or point it at the file that now holds the fn",
                    e.path, e.func
                ),
            });
        }
    }
    for e in &ctx.whitelist {
        if e.justification.is_empty() {
            ws.push(Finding {
                rule: "shared-state".to_string(),
                path: SHARED_STATE_FILE.to_string(),
                line: e.line,
                message: format!(
                    "whitelist entry `{} {}` has no justification; say why this file's use \
                     of the construct is sound",
                    e.path, e.construct
                ),
            });
        }
        if !used_whitelist.contains(&e.line) {
            ws.push(Finding {
                rule: "shared-state".to_string(),
                path: SHARED_STATE_FILE.to_string(),
                line: e.line,
                message: format!(
                    "whitelist entry `{} {}` matches no shared-state site; delete the stale \
                     line",
                    e.path, e.construct
                ),
            });
        }
    }
    for f in ws {
        match baseline_left.iter().position(|(r, p)| *r == f.rule && *p == f.path) {
            Some(i) => {
                baseline_left.remove(i);
                report.grandfathered += 1;
            }
            None => report.findings.push(f),
        }
    }
    sort_findings(&mut report.findings);
    Ok(report)
}

/// Pass 2 over an explicit file list, using pass 1's context. Collects
/// which whitelist entries were used into `used_whitelist`.
fn scan_files(
    root: &Path,
    paths: &[PathBuf],
    ctx: &WorkspaceContext,
    used_whitelist: &mut Vec<u32>,
    baseline_left: &mut Vec<(String, String)>,
) -> io::Result<Report> {
    let mut report = Report::default();
    for path in paths {
        let rel = rel_path(root, path);
        let source = match ctx.sources.get(&rel) {
            Some(s) => s.clone(),
            None => match fs::read(path) {
                Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("{}: not found", path.display()),
                    ))
                }
                Err(e) => return Err(e),
            },
        };
        let file_hotpaths: Vec<HotPathFn> =
            ctx.hotpaths.iter().filter(|h| h.path == rel).cloned().collect();
        let file_inline: Vec<HotPathFn> =
            ctx.inline.iter().filter(|h| h.path == rel).cloned().collect();
        let file_transitive: Vec<TransitiveHot> =
            ctx.transitive.iter().filter(|t| t.file == rel).cloned().collect();
        let scan = rules::scan_file(&rules::FileInput {
            path: &rel,
            source: &source,
            hotpaths: &file_hotpaths,
            inline: &file_inline,
            transitive: &file_transitive,
            shared_whitelist: &ctx.whitelist,
        });
        report.suppressed += scan.suppressed;
        report.whitelisted += scan.whitelisted;
        used_whitelist.extend(scan.whitelist_used);
        report.files += 1;
        for f in scan.findings {
            let bi = baseline_left.iter().position(|(r, p)| *r == f.rule && *p == f.path);
            match bi {
                Some(i) => {
                    baseline_left.remove(i);
                    report.grandfathered += 1;
                }
                None => report.findings.push(f),
            }
        }
    }
    used_whitelist.sort_unstable();
    used_whitelist.dedup();
    Ok(report)
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
}

/// The `--audit` listing: every inline suppression, whitelist entry, and
/// baseline entry with its location and justification, plus a one-line
/// summary (`scripts/check.sh` surfaces the summary so suppression growth
/// is visible per PR).
pub fn audit_workspace(root: &Path) -> io::Result<String> {
    let ctx = load_context(root)?;
    let mut out = String::new();
    let mut suppression_count = 0usize;

    out.push_str("inline suppressions:\n");
    for (rel, source) in &ctx.sources {
        let lexed = lexer::lex(source);
        for s in rules::parse_suppressions(&lexed.comments) {
            suppression_count += 1;
            out.push_str(&format!(
                "  {}:{} [{}] — {}\n",
                rel,
                s.line,
                s.rules.join(", "),
                if s.justification.is_empty() { "(UNJUSTIFIED)" } else { &s.justification },
            ));
        }
    }
    if suppression_count == 0 {
        out.push_str("  (none)\n");
    }

    out.push_str(&format!("shared-state whitelist ({SHARED_STATE_FILE}):\n"));
    if ctx.whitelist.is_empty() {
        out.push_str("  (none)\n");
    }
    for e in &ctx.whitelist {
        out.push_str(&format!(
            "  {}:{} {} [{}] — {}\n",
            SHARED_STATE_FILE,
            e.line,
            e.path,
            e.construct,
            if e.justification.is_empty() { "(UNJUSTIFIED)" } else { &e.justification },
        ));
    }

    out.push_str(&format!("baseline ({BASELINE_FILE}):\n"));
    if ctx.baseline.is_empty() {
        out.push_str("  (none)\n");
    }
    for (rule, path) in &ctx.baseline {
        out.push_str(&format!("  {path} [{rule}]\n"));
    }

    out.push_str(&format!(
        "simlint audit: {} inline suppression{}, {} whitelist entr{}, {} baseline entr{}\n",
        suppression_count,
        if suppression_count == 1 { "" } else { "s" },
        ctx.whitelist.len(),
        if ctx.whitelist.len() == 1 { "y" } else { "ies" },
        ctx.baseline.len(),
        if ctx.baseline.len() == 1 { "y" } else { "ies" },
    ));
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn baseline_parsing() {
        let text = "# comment\nwall-clock\tcrates/core/src/study.rs\n\n";
        let b = parse_baseline(text);
        assert_eq!(b, vec![("wall-clock".to_string(), "crates/core/src/study.rs".to_string())]);
    }

    #[test]
    fn report_rendering() {
        let mut r = Report { files: 3, ..Report::default() };
        r.findings.push(Finding {
            rule: "wall-clock".into(),
            path: "crates/core/src/study.rs".into(),
            line: 7,
            message: "bad \"clock\"".into(),
        });
        let human = r.render_human();
        assert!(human.contains("crates/core/src/study.rs:7: [wall-clock]"));
        assert!(human.contains("whitelisted"));
        let json = r.render_json();
        assert!(json.contains("\"line\": 7"));
        assert!(json.contains("\"whitelisted\": 0"));
        assert!(json.contains("bad \\\"clock\\\""));
    }
}
