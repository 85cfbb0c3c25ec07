//! Hot-path family: functions in `simlint-hotpaths.txt` are
//! allocation-free (`hot-path-alloc`), and so is everything they reach
//! through the intra-crate call graph (`hot-path-transitive`) — the
//! static complement of the counting-allocator tests in
//! `crates/firmware/tests/alloc.rs`. The transitive rule closes the
//! helper-extraction loophole: moving an allocation out of a manifest
//! function into a private callee no longer launders it. Functions in
//! `simlint-inline.txt` carry `#[inline]` (`hot-path-inline`): without
//! it, a small helper called from another crate can stay out of line
//! under thin LTO, and no test sees the lost speed.

use super::{in_spans, push, FileInput, Finding};
use crate::lexer::Token;

/// Find every non-test body of `fn <func>` in the file and hand the
/// index of its `fn` token and its body's token range to `visit`.
/// Returns false when no such fn exists (a bodyless trait method does
/// not count — there is nothing to scan).
pub(crate) fn for_each_fn_body(
    tokens: &[Token],
    test_spans: &[(u32, u32)],
    func: &str,
    mut visit: impl FnMut(usize, usize, usize),
) -> bool {
    let mut found = false;
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if !(tokens[i].is_ident("fn")
            && tokens[i + 1].is_ident(func)
            && !in_spans(test_spans, tokens[i].line))
        {
            i += 1;
            continue;
        }
        found = true;
        // Find the body: first `{` after the signature. A `;` ends a
        // bodyless trait method — but only at bracket depth 0, since
        // array types in the signature (`[u8; LEN]`) also contain `;`.
        let mut j = i + 2;
        let mut bracket_depth = 0i32;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('[') || t.is_punct('(') {
                bracket_depth += 1;
            } else if t.is_punct(']') || t.is_punct(')') {
                bracket_depth -= 1;
            } else if t.is_punct('{') || (t.is_punct(';') && bracket_depth == 0) {
                break;
            }
            j += 1;
        }
        if j >= tokens.len() || tokens[j].is_punct(';') {
            i = j;
            continue; // trait method without body
        }
        let mut depth = 0i32;
        let mut k = j;
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
        visit(i, j, k.min(tokens.len()));
        i = k.max(i + 1);
    }
    found
}

/// `hot-path-alloc`: allocation constructors inside manifest functions.
pub(crate) fn rule_hot_path_alloc(
    input: &FileInput<'_>,
    tokens: &[Token],
    test_spans: &[(u32, u32)],
    out: &mut Vec<Finding>,
) {
    for hp in input.hotpaths {
        let context = format!(
            "inside hot-path fn `{}` (pinned allocation-free by \
             crates/firmware/tests/alloc.rs and simlint-hotpaths.txt)",
            hp.func
        );
        let found = for_each_fn_body(tokens, test_spans, &hp.func, |_, start, end| {
            scan_alloc_sites(input, tokens, start, end, "hot-path-alloc", &context, out);
        });
        if !found {
            push(
                out,
                "hot-path-alloc",
                input.path,
                1,
                format!(
                    "hot-path manifest names `{}::{}` but no such fn exists; update \
                     simlint-hotpaths.txt",
                    hp.path, hp.func
                ),
            );
        }
    }
}

/// `hot-path-transitive`: the same allocation scan, applied to functions
/// the workspace call graph reaches from manifest entries. No stale-entry
/// arm — the set is derived from the graph, so it cannot rot.
pub(crate) fn rule_hot_path_transitive(
    input: &FileInput<'_>,
    tokens: &[Token],
    test_spans: &[(u32, u32)],
    out: &mut Vec<Finding>,
) {
    for th in input.transitive.iter().filter(|t| t.file == input.path) {
        let context = format!(
            "inside `{}`, which the call graph reaches from the hot-path manifest \
             (`{}`); callees of hot functions inherit the no-alloc rule",
            th.func, th.via
        );
        for_each_fn_body(tokens, test_spans, &th.func, |_, start, end| {
            scan_alloc_sites(input, tokens, start, end, "hot-path-transitive", &context, out);
        });
    }
}

/// `hot-path-inline`: every non-test fn named in the inline manifest
/// carries `#[inline]`. All fns of a listed name in the file are
/// checked, like `hot-path-alloc`, and a stale entry is a finding.
pub(crate) fn rule_hot_path_inline(
    input: &FileInput<'_>,
    tokens: &[Token],
    test_spans: &[(u32, u32)],
    out: &mut Vec<Finding>,
) {
    for entry in input.inline {
        let found = for_each_fn_body(tokens, test_spans, &entry.func, |fn_at, _, _| {
            if !has_inline_attr(tokens, fn_at) {
                push(
                    out,
                    "hot-path-inline",
                    input.path,
                    tokens[fn_at].line,
                    format!(
                        "`{}` lacks `#[inline]`; simlint-inline.txt lists it because its \
                         callers in other crates must inline it",
                        entry.func
                    ),
                );
            }
        });
        if !found {
            push(
                out,
                "hot-path-inline",
                input.path,
                1,
                format!(
                    "inline manifest names `{}::{}` but no such fn exists; update \
                     simlint-inline.txt",
                    entry.path, entry.func
                ),
            );
        }
    }
}

/// Does the fn whose `fn` keyword is `tokens[fn_at]` carry a plain
/// `#[inline]`? Its attributes and qualifiers are the tokens between the
/// end of the previous item (`;`, `{` or `}`) and `fn`.
fn has_inline_attr(tokens: &[Token], fn_at: usize) -> bool {
    let start = tokens[..fn_at]
        .iter()
        .rposition(|t| t.is_punct(';') || t.is_punct('{') || t.is_punct('}'))
        .map_or(0, |end| end + 1);
    tokens[start..fn_at].windows(4).any(|w| {
        w[0].is_punct('#') && w[1].is_punct('[') && w[2].is_ident("inline") && w[3].is_punct(']')
    })
}

fn scan_alloc_sites(
    input: &FileInput<'_>,
    tokens: &[Token],
    start: usize,
    end: usize,
    rule: &str,
    context: &str,
    out: &mut Vec<Finding>,
) {
    for i in start..end {
        let t = &tokens[i];
        let msg = |what: &str| format!("`{what}` allocates {context}");
        // Vec::new, Vec::with_capacity, String::new/from, Box::new.
        if ["Vec", "String", "Box"].iter().any(|s| t.is_ident(s))
            && tokens.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|a| a.is_punct(':'))
        {
            if let Some(m) = tokens.get(i + 3) {
                if ["new", "with_capacity", "from"].iter().any(|s| m.is_ident(s)) {
                    push(out, rule, input.path, t.line, msg(&format!("{}::{}", t.text, m.text)));
                }
            }
        }
        // vec! / format! macros.
        if (t.is_ident("vec") || t.is_ident("format"))
            && tokens.get(i + 1).is_some_and(|a| a.is_punct('!'))
        {
            push(out, rule, input.path, t.line, msg(&format!("{}!", t.text)));
        }
        // .to_vec() .to_string() .to_owned() .clone() .collect()
        if i > 0
            && tokens[i - 1].is_punct('.')
            && ["to_vec", "to_string", "to_owned", "clone", "collect"]
                .iter()
                .any(|s| t.is_ident(s))
            && tokens.get(i + 1).is_some_and(|a| a.is_punct('(') || a.is_punct(':'))
        {
            push(out, rule, input.path, t.line, msg(&format!(".{}()", t.text)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{scan_file, FileInput, Finding, HotPathFn};
    use crate::graph::TransitiveHot;

    fn scan_hot(path: &str, source: &str, func: &str) -> Vec<Finding> {
        let hp = vec![HotPathFn { path: path.to_string(), func: func.to_string(), line: 1 }];
        scan_file(&FileInput { path, source, hotpaths: &hp, ..FileInput::default() }).findings
    }

    fn scan_transitive(path: &str, source: &str, func: &str, via: &str) -> Vec<Finding> {
        let th = vec![TransitiveHot {
            file: path.to_string(),
            func: func.to_string(),
            via: via.to_string(),
        }];
        scan_file(&FileInput { path, source, transitive: &th, ..FileInput::default() }).findings
    }

    #[test]
    fn hot_path_alloc_flags_constructors() {
        let src = "
            impl H {
                pub fn emit_into(&self, out: &mut [u8]) {
                    let tmp = Vec::new();
                    let s = format!(\"{}\", 1);
                    let c = self.name.clone();
                }
                pub fn cold(&self) -> Vec<u8> { self.bytes.to_vec() }
            }";
        let f = scan_hot("crates/firmware/src/heartbeat.rs", src, "emit_into");
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "hot-path-alloc"));
        assert!(f.iter().all(|x| (4..=6).contains(&x.line)), "cold fn not scanned: {f:?}");
    }

    #[test]
    fn hot_path_fn_with_array_type_in_signature_is_scanned() {
        // `[u8; LEN]` puts a `;` inside the signature; it must not be
        // mistaken for a bodyless trait method (the real `emit_into`
        // signatures all take fixed-size output buffers).
        let src = "
            impl H {
                pub fn emit_into(&self, out: &mut [u8; Self::WIRE_LEN]) {
                    let tmp = Vec::new();
                }
            }";
        let f = scan_hot("crates/firmware/src/heartbeat.rs", src, "emit_into");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hot-path-alloc");
        let trait_src = "trait T { fn emit_into(&self, out: &mut [u8; 4]) -> [u8; 2]; }";
        assert!(scan_hot("crates/firmware/src/heartbeat.rs", trait_src, "emit_into").is_empty());
    }

    #[test]
    fn hot_path_stale_manifest_entry_is_a_finding() {
        let f = scan_hot("crates/firmware/src/heartbeat.rs", "fn other() {}", "emit_into");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hot-path-alloc");
        assert!(f[0].message.contains("no such fn"));
    }

    fn scan_inline(path: &str, source: &str, func: &str) -> Vec<Finding> {
        let entry = vec![HotPathFn { path: path.to_string(), func: func.to_string(), line: 1 }];
        scan_file(&FileInput { path, source, inline: &entry, ..FileInput::default() }).findings
    }

    #[test]
    fn hot_path_inline_fires_without_the_attribute_and_not_with_it() {
        // The hint on the item before does not count for `parse`.
        let bare = "
            impl<'a> UdpView<'a> {
                #[inline]
                fn len(&self) -> usize { 8 }
                /// Parse and verify, borrowing the payload.
                pub fn parse(data: &'a [u8]) -> Result<UdpView<'a>, ParseError> { view(data) }
            }";
        let f = scan_inline("crates/simnet/src/packet/udp.rs", bare, "parse");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule.as_str(), f[0].line), ("hot-path-inline", 6));
        let marked = bare.replace("pub fn parse", "#[inline]\n                pub fn parse");
        assert!(scan_inline("crates/simnet/src/packet/udp.rs", &marked, "parse").is_empty());
    }

    #[test]
    fn hot_path_inline_checks_every_fn_of_the_name() {
        // Qualifiers and other attributes may sit between `#[inline]` and
        // `fn`; only the plain hint counts, and test code is skipped.
        let src = "
            impl Owned {
                #[inline]
                #[must_use]
                pub(crate) const fn parse(d: &[u8]) -> Owned { Owned }
            }
            impl View {
                #[inline(never)]
                pub fn parse(d: &[u8]) -> View { View }
            }
            #[cfg(test)]
            mod tests { fn parse() {} }";
        let f = scan_inline("crates/simnet/src/packet/ipv4.rs", src, "parse");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 9);
    }

    #[test]
    fn hot_path_inline_stale_manifest_entry_is_a_finding() {
        let f = scan_inline("crates/firmware/src/heartbeat.rs", "#[inline] fn other() {}", "parse");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hot-path-inline");
        assert!(f[0].message.contains("no such fn"));
    }

    #[test]
    fn transitive_callee_inherits_no_alloc() {
        let src = "
            fn helper(n: usize) -> Vec<u8> {
                let v = Vec::with_capacity(n);
                v
            }";
        let f = scan_transitive("crates/collector/src/spill.rs", src, "helper", "append → helper");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hot-path-transitive");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("append → helper"), "{}", f[0].message);
    }

    #[test]
    fn transitive_scan_ignores_other_files_and_other_fns() {
        let src = "fn innocent() { let v = vec![1]; }";
        let f = scan_transitive("crates/collector/src/spill.rs", src, "helper", "append → helper");
        assert!(f.is_empty(), "{f:?}");
        let th = vec![TransitiveHot {
            file: "crates/collector/src/columns.rs".to_string(),
            func: "innocent".to_string(),
            via: "append → innocent".to_string(),
        }];
        let scanned = scan_file(&FileInput {
            path: "crates/collector/src/spill.rs",
            source: src,
            transitive: &th,
            ..FileInput::default()
        });
        assert!(scanned.findings.is_empty(), "wrong file: {:?}", scanned.findings);
    }
}
