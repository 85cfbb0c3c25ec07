//! Pass 1 of the two-pass analyzer: the workspace symbol graph.
//!
//! The graph has three layers, all built without `syn` from the same
//! token streams the rules consume:
//!
//! * **crate dependency edges** — parsed from each member's
//!   `Cargo.toml` `[dependencies]` section (workspace-internal entries
//!   only, with the line they were declared on, so layering findings
//!   point at the declaration);
//! * **per-crate symbol references** — every identifier a crate's
//!   sources mention that names another workspace crate's library, used
//!   to catch declared-but-unreferenced dependency edges;
//! * **an intra-crate call graph** — `fn` definitions with their body
//!   spans, plus call sites resolved by name (free calls resolve across
//!   the crate, `.method(...)` calls resolve within the same file,
//!   `Type::assoc(...)` calls resolve when `Type` is declared in the
//!   crate). The hot-path-transitive rule walks this graph so a helper
//!   extracted out of a manifest-listed hot function inherits the
//!   no-alloc obligation instead of laundering it.
//!
//! Resolution is deliberately name-based and over-approximate: with no
//! type information, a call may resolve to several same-named functions
//! and every one is treated as reachable. That errs toward flagging —
//! the suppression mechanism absorbs the rare false positive — and
//! never toward silently missing a real edge. Everything is stored in
//! `BTreeMap`/sorted `Vec`s so two builds over the same sources produce
//! byte-identical edge lists (pinned by a proptest in `tests/fuzz.rs`).

use crate::lexer::{lex, Token, TokenKind};
use crate::rules::{test_spans, HotPathFn, KEYWORDS};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

/// One workspace-internal dependency declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEdge {
    /// Package name as written in `[dependencies]` (e.g. `bismark-core`).
    pub to: String,
    /// 1-based line in the consumer's `Cargo.toml`.
    pub line: u32,
}

/// One `fn` definition found in a crate's sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Workspace-relative file path.
    pub file: String,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallStyle {
    /// `helper(...)` — resolved against every fn in the crate.
    Free,
    /// `.helper(...)` — resolved against fns in the same file only.
    Method,
    /// `Type::helper(...)` — resolved when `Type` is declared in-crate.
    Qualified(String),
}

/// One call site, attributed to the innermost enclosing `fn`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Index into [`CrateGraph::fns`] of the calling function.
    pub caller: usize,
    /// Callee name as written.
    pub callee: String,
    /// Resolution style.
    pub style: CallStyle,
    /// 1-based line of the call.
    pub line: u32,
}

/// Everything pass 1 knows about one workspace member.
#[derive(Debug, Default, Clone)]
pub struct CrateGraph {
    /// Package name from `[package] name`.
    pub package: String,
    /// Library name code refers to (differs for `bismark-core` → `bismark`).
    pub lib_name: String,
    /// Crate directory, workspace-relative (`crates/analysis`).
    pub dir: String,
    /// Workspace-internal `[dependencies]` edges.
    pub deps: Vec<DepEdge>,
    /// Functions defined in the crate's sources (test code excluded).
    pub fns: Vec<FnDef>,
    /// Call sites attributed to those functions.
    pub calls: Vec<Call>,
    /// Type names (`struct`/`enum`/`union`/`type`) declared in the crate.
    pub types: BTreeSet<String>,
    /// Workspace lib names referenced anywhere in the crate's files
    /// (including tests/benches: a dev-only use still justifies the edge).
    pub refs: BTreeSet<String>,
}

/// The pass-1 output: every member crate, keyed by directory.
#[derive(Debug, Default)]
pub struct SymbolGraph {
    /// `crates/<name>` → its graph.
    pub crates: BTreeMap<String, CrateGraph>,
}

/// A function the hot-path rule must scan because the call graph reaches
/// it from a manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitiveHot {
    /// Workspace-relative file holding the function.
    pub file: String,
    /// Function name.
    pub func: String,
    /// Human-readable chain from the manifest root (`append → seal`).
    pub via: String,
}

impl SymbolGraph {
    /// Build the graph from pre-read sources (`(workspace-relative path,
    /// source text)`) plus the members' `Cargo.toml`s under `root`.
    /// Never panics, whatever the sources contain.
    pub fn build(root: &Path, sources: &[(String, String)]) -> io::Result<SymbolGraph> {
        let mut members = Vec::new();

        // Crate manifests first: they define the member set.
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut dirs: Vec<_> = fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect();
            dirs.sort();
            for dir in dirs {
                let manifest = fs::read_to_string(dir.join("Cargo.toml"))?;
                let dir_name = dir.file_name().map(|n| n.to_string_lossy().into_owned());
                let Some(dir_name) = dir_name else { continue };
                let mut cg = parse_manifest(&manifest);
                cg.dir = format!("crates/{dir_name}");
                members.push(cg);
            }
        }
        Ok(Self::assemble(members, sources))
    }

    /// Assemble the graph from already-known member crates (each with
    /// `package`, `lib_name`, `dir`, and raw `deps` set) and sources.
    /// Split out from [`SymbolGraph::build`] so property tests can drive
    /// the source pass on arbitrary bytes without manifests on disk.
    pub fn assemble(members: Vec<CrateGraph>, sources: &[(String, String)]) -> SymbolGraph {
        let mut graph = SymbolGraph::default();
        for cg in members {
            graph.crates.insert(cg.dir.clone(), cg);
        }
        // Only workspace-internal dependency edges stay on the graph.
        let packages: BTreeSet<String> =
            graph.crates.values().map(|c| c.package.clone()).collect();
        let lib_names: BTreeSet<String> =
            graph.crates.values().map(|c| c.lib_name.clone()).collect();
        for cg in graph.crates.values_mut() {
            cg.deps.retain(|d| packages.contains(&d.to));
        }

        // Source pass: fn defs, calls, type decls, crate references.
        for (path, source) in sources {
            let Some(dir) = crate_dir_of(path) else { continue };
            let Some(cg) = graph.crates.get_mut(&dir) else { continue };
            let lexed = lex(source);
            for t in &lexed.tokens {
                if t.kind == TokenKind::Ident && lib_names.contains(&t.text) {
                    cg.refs.insert(t.text.clone());
                }
            }
            // Only shipping sources feed the call graph: test/bench files
            // exercise helpers but never put them on a hot path.
            if !path.contains("/src/") {
                continue;
            }
            let spans = test_spans(&lexed.tokens);
            collect_types(&lexed.tokens, &mut cg.types);
            collect_fns_and_calls(path, &lexed.tokens, &spans, cg);
        }
        graph
    }

    /// Compute the set of functions reachable from the hot-path manifest
    /// through intra-crate calls, excluding functions the manifest
    /// already lists for their own file (those are scanned directly).
    /// Deterministic: BFS in sorted order, first chain found wins.
    pub fn transitive_hot(&self, manifest: &[HotPathFn]) -> Vec<TransitiveHot> {
        let listed: BTreeSet<(&str, &str)> =
            manifest.iter().map(|h| (h.path.as_str(), h.func.as_str())).collect();
        let mut out: BTreeMap<(String, String), String> = BTreeMap::new();
        for cg in self.crates.values() {
            // Seeds: manifest entries defined in this crate.
            let mut queue: Vec<(usize, String)> = Vec::new();
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            for (i, f) in cg.fns.iter().enumerate() {
                if listed.contains(&(f.file.as_str(), f.name.as_str())) {
                    seen.insert(i);
                    queue.push((i, f.name.clone()));
                }
            }
            let mut head = 0usize;
            while head < queue.len() {
                let (caller, chain) = queue[head].clone();
                head += 1;
                for call in cg.calls.iter().filter(|c| c.caller == caller) {
                    for target in resolve(cg, call) {
                        if seen.insert(target) {
                            let f = &cg.fns[target];
                            let chain = format!("{chain} → {}", f.name);
                            if !listed.contains(&(f.file.as_str(), f.name.as_str())) {
                                out.entry((f.file.clone(), f.name.clone()))
                                    .or_insert_with(|| chain.clone());
                            }
                            queue.push((target, chain));
                        }
                    }
                }
            }
        }
        out.into_iter()
            .map(|((file, func), via)| TransitiveHot { file, func, via })
            .collect()
    }
}

/// Resolve one call site to candidate fn indices, per [`CallStyle`].
fn resolve(cg: &CrateGraph, call: &Call) -> Vec<usize> {
    let caller_file = &cg.fns[call.caller].file;
    cg.fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.name == call.callee)
        .filter(|(_, f)| match &call.style {
            CallStyle::Free => true,
            CallStyle::Method => f.file == *caller_file,
            CallStyle::Qualified(q) => {
                q == "Self" && f.file == *caller_file || cg.types.contains(q)
            }
        })
        .map(|(i, _)| i)
        .collect()
}

/// The crate directory (`crates/<name>`) a workspace-relative path
/// belongs to, if any. Root-level `tests/` and `examples/` are
/// bismark-core's `[[test]]`/`[[example]]` targets, so their symbol
/// references count toward that crate's dependency edges.
fn crate_dir_of(path: &str) -> Option<String> {
    if path.starts_with("tests/") || path.starts_with("examples/") {
        return Some("crates/core".to_string());
    }
    let rest = path.strip_prefix("crates/")?;
    let (name, _) = rest.split_once('/')?;
    Some(format!("crates/{name}"))
}

/// Minimal `Cargo.toml` reader: `[package] name`, optional `[lib] name`,
/// and the `[dependencies]` table (keys + their lines). Section-aware and
/// line-based; this is enough for manifests this workspace writes.
fn parse_manifest(text: &str) -> CrateGraph {
    let mut cg = CrateGraph::default();
    let mut section = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else { continue };
        let key = key.trim();
        match section.as_str() {
            "package" if key == "name" => {
                cg.package = value.trim().trim_matches('"').to_string();
            }
            "lib" if key == "name" => {
                cg.lib_name = value.trim().trim_matches('"').to_string();
            }
            "dependencies" => {
                // `obs.workspace = true` or `obs = { workspace = true }`.
                let name = key.split('.').next().unwrap_or(key).trim();
                if !name.is_empty() {
                    cg.deps.push(DepEdge { to: name.to_string(), line: (i + 1) as u32 });
                }
            }
            _ => {}
        }
    }
    if cg.lib_name.is_empty() {
        // Cargo's default: package name with dashes mapped to underscores.
        cg.lib_name = cg.package.replace('-', "_");
    }
    cg
}

/// Record declared type names (resolution targets for `Type::fn` calls).
fn collect_types(tokens: &[Token], out: &mut BTreeSet<String>) {
    for (i, t) in tokens.iter().enumerate() {
        if (t.is_ident("struct") || t.is_ident("enum") || t.is_ident("union") || t.is_ident("type"))
            && tokens.get(i + 1).is_some_and(|n| {
                n.kind == TokenKind::Ident && !KEYWORDS.contains(&n.text.as_str())
            })
        {
            out.insert(tokens[i + 1].text.clone());
        }
    }
}

/// Find every production `fn` with a body, then attribute each call site
/// in the file to the innermost enclosing definition.
fn collect_fns_and_calls(path: &str, tokens: &[Token], spans: &[(u32, u32)], cg: &mut CrateGraph) {
    let in_test = |line: u32| spans.iter().any(|&(a, b)| line >= a && line <= b);

    // Definitions with token-index body ranges (local to this file).
    let mut bodies: Vec<(usize, usize, usize)> = Vec::new(); // (fn idx in cg.fns, start, end)
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if !(tokens[i].is_ident("fn")
            && tokens[i + 1].kind == TokenKind::Ident
            && !in_test(tokens[i].line))
        {
            i += 1;
            continue;
        }
        let name = tokens[i + 1].text.clone();
        let line = tokens[i].line;
        // Find the body `{` (or `;` for trait methods) — `;` only counts
        // at bracket depth 0 so `[u8; N]` in the signature is skipped.
        let mut j = i + 2;
        let mut depth = 0i32;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('[') || t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(']') || t.is_punct(')') {
                depth -= 1;
            } else if t.is_punct('{') || (t.is_punct(';') && depth <= 0) {
                break;
            }
            j += 1;
        }
        if j >= tokens.len() || tokens[j].is_punct(';') {
            i = j.max(i + 1); // bodyless trait method
            continue;
        }
        let open = j;
        let mut brace = 0i32;
        let mut k = open;
        while k < tokens.len() {
            if tokens[k].is_punct('{') {
                brace += 1;
            } else if tokens[k].is_punct('}') {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            }
            k += 1;
        }
        cg.fns.push(FnDef { file: path.to_string(), name, line });
        bodies.push((cg.fns.len() - 1, open, k.min(tokens.len())));
        // Continue INSIDE the body: nested fns are definitions too.
        i += 2;
    }

    // Call sites: `name(` — method after `.`, qualified after `::`,
    // otherwise free. Attributed to the innermost enclosing body.
    for idx in 0..tokens.len() {
        let t = &tokens[idx];
        if t.kind != TokenKind::Ident
            || KEYWORDS.contains(&t.text.as_str())
            || !tokens.get(idx + 1).is_some_and(|n| n.is_punct('('))
            || idx > 0 && tokens[idx - 1].is_ident("fn")
            || in_test(t.line)
        {
            continue;
        }
        let style = if idx > 0 && tokens[idx - 1].is_punct('.') {
            CallStyle::Method
        } else if idx >= 3
            && tokens[idx - 1].is_punct(':')
            && tokens[idx - 2].is_punct(':')
            && tokens[idx - 3].kind == TokenKind::Ident
        {
            CallStyle::Qualified(tokens[idx - 3].text.clone())
        } else {
            CallStyle::Free
        };
        // Innermost enclosing fn body (smallest containing range).
        let caller = bodies
            .iter()
            .filter(|&&(_, open, close)| idx > open && idx < close)
            .min_by_key(|&&(_, open, close)| close - open)
            .map(|&(fn_idx, _, _)| fn_idx);
        if let Some(caller) = caller {
            cg.calls.push(Call { caller, callee: t.text.clone(), style, line: t.line });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(files: &[(&str, &str)]) -> SymbolGraph {
        let sources: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        // No Cargo.tomls on disk: build the member entries by hand.
        let mut members: Vec<CrateGraph> = Vec::new();
        for (p, _) in files {
            if let Some(dir) = crate_dir_of(p) {
                if members.iter().all(|m| m.dir != dir) {
                    members.push(CrateGraph {
                        package: dir.trim_start_matches("crates/").to_string(),
                        lib_name: dir.trim_start_matches("crates/").to_string(),
                        dir,
                        ..CrateGraph::default()
                    });
                }
            }
        }
        SymbolGraph::assemble(members, &sources)
    }

    fn hot(path: &str, func: &str) -> HotPathFn {
        HotPathFn { path: path.to_string(), func: func.to_string(), line: 1 }
    }

    #[test]
    fn manifest_parsing_reads_package_lib_and_deps() {
        let cg = parse_manifest(
            "[package]\nname = \"bismark-core\"\n[lib]\nname = \"bismark\"\n\
             [dependencies]\nobs.workspace = true\nsimnet = { workspace = true }\n\
             [dev-dependencies]\nproptest.workspace = true\n",
        );
        assert_eq!(cg.package, "bismark-core");
        assert_eq!(cg.lib_name, "bismark");
        assert_eq!(
            cg.deps,
            vec![DepEdge { to: "obs".into(), line: 6 }, DepEdge { to: "simnet".into(), line: 7 }]
        );
    }

    #[test]
    fn lib_name_defaults_to_underscored_package() {
        let cg = parse_manifest("[package]\nname = \"bismark-core\"\n");
        assert_eq!(cg.lib_name, "bismark_core");
    }

    #[test]
    fn free_call_reaches_helper_across_files_in_crate() {
        let g = graph_of(&[
            ("crates/x/src/a.rs", "pub fn hot() { helper(1); }"),
            ("crates/x/src/b.rs", "pub fn helper(n: u32) { drop(n); }"),
        ]);
        let reached = g.transitive_hot(&[hot("crates/x/src/a.rs", "hot")]);
        assert_eq!(reached.len(), 1, "{reached:?}");
        assert_eq!(reached[0].file, "crates/x/src/b.rs");
        assert_eq!(reached[0].func, "helper");
        assert_eq!(reached[0].via, "hot → helper");
    }

    #[test]
    fn method_call_resolves_within_same_file_only() {
        let g = graph_of(&[
            ("crates/x/src/a.rs", "impl S { fn hot(&self) { self.step(); } fn step(&self) {} }"),
            ("crates/x/src/b.rs", "impl T { fn step(&self) { alloc(); } }"),
        ]);
        let reached = g.transitive_hot(&[hot("crates/x/src/a.rs", "hot")]);
        assert_eq!(reached.len(), 1, "{reached:?}");
        assert_eq!(reached[0].file, "crates/x/src/a.rs", "other file's step not reached");
    }

    #[test]
    fn qualified_call_resolves_only_for_crate_declared_types() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "struct S; impl S { fn new() -> S { S } }\n\
             fn hot() { let _a = S::new(); let _b = Vec::new(); }",
        )]);
        let reached = g.transitive_hot(&[hot("crates/x/src/a.rs", "hot")]);
        assert_eq!(reached.len(), 1, "{reached:?}");
        assert_eq!(reached[0].func, "new");
    }

    #[test]
    fn chains_are_transitive_and_manifest_entries_excluded() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "fn hot() { mid(); } fn mid() { deep(); } fn deep() {}",
        )]);
        let reached = g.transitive_hot(&[hot("crates/x/src/a.rs", "hot")]);
        let names: Vec<&str> = reached.iter().map(|t| t.func.as_str()).collect();
        assert_eq!(names, vec!["deep", "mid"]);
        let deep = reached.iter().find(|t| t.func == "deep").unwrap();
        assert_eq!(deep.via, "hot → mid → deep");
    }

    #[test]
    fn calls_inside_test_modules_do_not_create_edges() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "fn hot() {}\nfn helper() {}\n#[cfg(test)]\nmod tests {\n    fn t() { helper(); }\n}",
        )]);
        let reached = g.transitive_hot(&[hot("crates/x/src/a.rs", "hot")]);
        assert!(reached.is_empty(), "{reached:?}");
    }

    #[test]
    fn macro_names_and_keywords_are_not_calls() {
        let g = graph_of(&[(
            "crates/x/src/a.rs",
            "fn hot(x: bool) { if (x) {} assert!(x); matches(); } fn matches() {}",
        )]);
        let cg = &g.crates["crates/x"];
        let callees: Vec<&str> = cg.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, vec!["matches"], "{callees:?}");
    }
}
