//! Determinism family: rules against host-, process-, or
//! schedule-dependent output in seeded studies.

use super::{
    in_spans, push, FileInput, Finding, DATASET_CRATES, ITERATING_METHODS, KEYWORDS,
};
use crate::lexer::{Token, TokenKind};

/// Closure entry points whose bodies may run on another thread (or on
/// rayon-style worker pools): float accumulation inside them is
/// merge-order-sensitive.
const PAR_ENTRYPOINTS: &[&str] = &[
    "spawn",
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
    "par_chunks_mut",
    "par_extend",
];

/// Names this file binds to an unordered map or set: fields
/// (`name: HashMap<..>`), params, and `let name = HashMap::new()`.
pub(crate) fn collect_hash_names(tokens: &[Token]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk backwards over path segments (`std::collections::`),
        // references, and `mut` to find `name :` or `name =`.
        let mut j = i;
        while j >= 2 {
            let prev = &tokens[j - 1];
            if prev.is_punct(':') && j >= 2 && tokens[j - 2].is_punct(':') {
                // `::` path segment — skip the segment identifier too.
                j -= 3;
                continue;
            }
            if prev.is_punct('&') || prev.is_ident("mut") || prev.kind == TokenKind::Lifetime {
                j -= 1;
                continue;
            }
            if (prev.is_punct(':') || prev.is_punct('=')) && j >= 2 {
                let name = &tokens[j - 2];
                if name.kind == TokenKind::Ident && !KEYWORDS.contains(&name.text.as_str()) {
                    names.push(name.text.clone());
                }
            }
            break;
        }
    }
    names.sort();
    names.dedup();
    names
}

/// `nondeterministic-iteration`: in dataset crates, iterating an
/// identifier this file declares as `HashMap`/`HashSet`.
pub(crate) fn rule_nondeterministic_iteration(
    input: &FileInput<'_>,
    tokens: &[Token],
    test_spans: &[(u32, u32)],
    out: &mut Vec<Finding>,
) {
    if !DATASET_CRATES.iter().any(|c| input.path.starts_with(c)) {
        return;
    }
    let names = collect_hash_names(tokens);
    if names.is_empty() {
        return;
    }

    // Iteration sites over those names.
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if in_spans(test_spans, t.line) {
            continue;
        }
        // name.method( where method iterates.
        if t.kind == TokenKind::Ident
            && names.contains(&t.text)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
        {
            if let Some(m) = tokens.get(i + 2) {
                if m.kind == TokenKind::Ident
                    && ITERATING_METHODS.contains(&m.text.as_str())
                    && tokens.get(i + 3).is_some_and(|n| n.is_punct('('))
                {
                    push(
                        out,
                        "nondeterministic-iteration",
                        input.path,
                        m.line,
                        format!(
                            "`{}.{}()` iterates a HashMap/HashSet in a crate feeding Datasets; \
                             use BTreeMap/BTreeSet or sort before iterating",
                            t.text, m.text
                        ),
                    );
                }
            }
        }
        // for x in [&mut] [self.] name {   — direct loop over the map.
        if t.is_ident("for") {
            if let Some(in_idx) =
                (i + 1..tokens.len().min(i + 24)).find(|&k| tokens[k].is_ident("in"))
            {
                let mut k = in_idx + 1;
                while tokens.get(k).is_some_and(|x| x.is_punct('&') || x.is_ident("mut")) {
                    k += 1;
                }
                // Walk a field chain (`self.a.b`): the final segment names
                // the collection being looped over.
                while tokens.get(k).is_some_and(|x| x.kind == TokenKind::Ident)
                    && tokens.get(k + 1).is_some_and(|x| x.is_punct('.'))
                    && tokens.get(k + 2).is_some_and(|x| x.kind == TokenKind::Ident)
                {
                    k += 2;
                }
                if let (Some(name), Some(next)) = (tokens.get(k), tokens.get(k + 1)) {
                    if name.kind == TokenKind::Ident
                        && names.contains(&name.text)
                        && next.is_punct('{')
                    {
                        push(
                            out,
                            "nondeterministic-iteration",
                            input.path,
                            name.line,
                            format!(
                                "`for .. in {}` iterates a HashMap/HashSet in a crate feeding \
                                 Datasets; use BTreeMap/BTreeSet or sort before iterating",
                                name.text
                            ),
                        );
                    }
                }
            }
        }
        // extend(name) — moves the map's iteration order into another table.
        if t.is_ident("extend") && tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            let mut k = i + 2;
            while tokens.get(k).is_some_and(|x| x.is_punct('&') || x.is_ident("mut")) {
                k += 1;
            }
            while tokens.get(k).is_some_and(|x| x.kind == TokenKind::Ident)
                && tokens.get(k + 1).is_some_and(|x| x.is_punct('.'))
                && tokens.get(k + 2).is_some_and(|x| x.kind == TokenKind::Ident)
            {
                k += 2;
            }
            if let (Some(name), Some(close)) = (tokens.get(k), tokens.get(k + 1)) {
                if name.kind == TokenKind::Ident && names.contains(&name.text) && close.is_punct(')')
                {
                    push(
                        out,
                        "nondeterministic-iteration",
                        input.path,
                        name.line,
                        format!(
                            "`extend({})` drains a HashMap/HashSet in map order into another \
                             collection; use BTreeMap/BTreeSet or sort first",
                            name.text
                        ),
                    );
                }
            }
        }
    }
}

/// `wall-clock`: `Instant::now` / `SystemTime` outside `crates/bench`.
pub(crate) fn rule_wall_clock(input: &FileInput<'_>, tokens: &[Token], out: &mut Vec<Finding>) {
    if input.path.starts_with("crates/bench/") {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("Instant")
            && tokens.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|a| a.is_ident("now"))
        {
            push(
                out,
                "wall-clock",
                input.path,
                t.line,
                "`Instant::now()` reads the host clock; simulation code must use SimTime \
                 (wall-clock timing belongs in crates/bench)"
                    .to_string(),
            );
        }
        if t.is_ident("SystemTime") {
            push(
                out,
                "wall-clock",
                input.path,
                t.line,
                "`SystemTime` reads the host clock; simulation code must use SimTime".to_string(),
            );
        }
    }
}

/// `ambient-rng`: entropy-seeded randomness anywhere in the workspace.
pub(crate) fn rule_ambient_rng(input: &FileInput<'_>, tokens: &[Token], out: &mut Vec<Finding>) {
    for t in tokens {
        let bad = ["thread_rng", "from_entropy", "OsRng", "ThreadRng"]
            .iter()
            .any(|b| t.is_ident(b));
        if bad {
            push(
                out,
                "ambient-rng",
                input.path,
                t.line,
                format!(
                    "`{}` draws ambient entropy; all randomness must flow from the seeded \
                     SmallRng derivation tree (simnet::rng::DetRng)",
                    t.text
                ),
            );
        }
    }
}

/// `float-accum-order`: in `analysis`/`collector`, f32/f64 `+=` (or a
/// float-turbofish `.sum()`) fed by HashMap/HashSet iteration order or
/// running inside a spawn/rayon-style closure. Float addition is not
/// associative, so the multicore merge (ROADMAP item 2) can only promise
/// byte-identical reports if every float fold runs in a pinned order —
/// BTreeMap iteration or an explicit router-ID-ordered merge.
pub(crate) fn rule_float_accum_order(
    input: &FileInput<'_>,
    tokens: &[Token],
    test_spans: &[(u32, u32)],
    out: &mut Vec<Finding>,
) {
    let scoped = input.path.starts_with("crates/analysis/src/")
        || input.path.starts_with("crates/collector/src/");
    if !scoped {
        return;
    }
    let hash_names = collect_hash_names(tokens);
    let float_names = collect_float_names(tokens);

    // Token ranges whose accumulation order is not pinned: bodies of
    // `for .. in <hash name> { .. }` loops and closures handed to
    // spawn/par_* entry points.
    let mut spans: Vec<(usize, usize, &str)> = Vec::new();
    if !hash_names.is_empty() {
        for i in 0..tokens.len() {
            if !tokens[i].is_ident("for") {
                continue;
            }
            let Some(in_idx) =
                (i + 1..tokens.len().min(i + 24)).find(|&k| tokens[k].is_ident("in"))
            else {
                continue;
            };
            // Header runs to the loop body's `{` at bracket depth 0.
            let mut open = in_idx + 1;
            let mut depth = 0i32;
            while open < tokens.len() {
                let t = &tokens[open];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if t.is_punct('{') && depth <= 0 {
                    break;
                }
                open += 1;
            }
            let header_hits_hash = tokens[in_idx + 1..open.min(tokens.len())]
                .iter()
                .any(|t| t.kind == TokenKind::Ident && hash_names.contains(&t.text));
            if !header_hits_hash || open >= tokens.len() {
                continue;
            }
            spans.push((open, matching_brace(tokens, open), "HashMap/HashSet iteration order"));
        }
    }
    for i in 0..tokens.len() {
        if PAR_ENTRYPOINTS.iter().any(|p| tokens[i].is_ident(p))
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            spans.push((i + 1, matching_paren(tokens, i + 1), "a spawn/parallel closure"));
        }
    }

    // Accumulation sites: `name += ..` / `name[i] += ..` for a known
    // float binding inside one of those spans.
    for (idx, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || !float_names.contains(&t.text)
            || in_spans(test_spans, t.line)
        {
            continue;
        }
        let mut j = idx + 1;
        if tokens.get(j).is_some_and(|n| n.is_punct('[')) {
            j = matching_bracket(tokens, j) + 1;
        }
        let is_accum = tokens.get(j).is_some_and(|a| a.is_punct('+') || a.is_punct('-'))
            && tokens.get(j + 1).is_some_and(|b| b.is_punct('='));
        if !is_accum {
            continue;
        }
        if let Some(&(_, _, why)) = spans.iter().find(|&&(a, b, _)| idx > a && idx < b) {
            push(
                out,
                "float-accum-order",
                input.path,
                t.line,
                format!(
                    "`{} +=` accumulates a float under {why}; float addition is not \
                     associative — iterate a BTreeMap or merge in router-ID order \
                     (multicore determinism, ROADMAP item 2)",
                    t.text
                ),
            );
        }
    }

    // `.sum::<f64>()` / `.sum::<f32>()` chained off a hash-named binding
    // in the same statement.
    for idx in 0..tokens.len() {
        let t = &tokens[idx];
        let float_sum = t.is_ident("sum")
            && idx > 0
            && tokens[idx - 1].is_punct('.')
            && tokens.get(idx + 1).is_some_and(|a| a.is_punct(':'))
            && tokens.get(idx + 2).is_some_and(|a| a.is_punct(':'))
            && tokens.get(idx + 3).is_some_and(|a| a.is_punct('<'))
            && tokens.get(idx + 4).is_some_and(|a| a.is_ident("f64") || a.is_ident("f32"));
        if !float_sum || in_spans(test_spans, t.line) {
            continue;
        }
        let stmt_start = (0..idx)
            .rev()
            .find(|&k| {
                tokens[k].is_punct(';') || tokens[k].is_punct('{') || tokens[k].is_punct('}')
            })
            .map_or(0, |k| k + 1);
        let over_hash = tokens[stmt_start..idx]
            .iter()
            .any(|x| x.kind == TokenKind::Ident && hash_names.contains(&x.text));
        if over_hash {
            push(
                out,
                "float-accum-order",
                input.path,
                t.line,
                "float `.sum()` over HashMap/HashSet iteration order; float addition is not \
                 associative — iterate a BTreeMap or sort before summing (multicore \
                 determinism, ROADMAP item 2)"
                    .to_string(),
            );
        }
    }
}

/// Names this file binds to an f32/f64 value: `let` bindings whose type
/// annotation or initializer mentions a float, plus any `name: f64`
/// field/param annotation. Over-approximate on purpose: a false "float"
/// only matters if the name is also `+=`-folded under unordered
/// iteration, which is worth a look regardless.
fn collect_float_names(tokens: &[Token]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if (t.is_ident("f64") || t.is_ident("f32"))
            && i >= 2
            && tokens[i - 1].is_punct(':')
            && !tokens[i - 2].is_punct(':')
            && tokens[i - 2].kind == TokenKind::Ident
            && !KEYWORDS.contains(&tokens[i - 2].text.as_str())
        {
            names.push(tokens[i - 2].text.clone());
        }
        if !t.is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|n| n.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = tokens.get(j) else { continue };
        if name.kind != TokenKind::Ident || KEYWORDS.contains(&name.text.as_str()) {
            continue;
        }
        // Scan the rest of the statement for float evidence: an f32/f64
        // type, a float-suffixed number, or a `N . N` literal (the lexer
        // splits `1.5` into Num '.' Num).
        let mut k = j + 1;
        let mut depth = 0i32;
        let mut is_float = false;
        while k < tokens.len() {
            let x = &tokens[k];
            if x.is_punct('(') || x.is_punct('[') || x.is_punct('{') {
                depth += 1;
            } else if x.is_punct(')') || x.is_punct(']') || x.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if x.is_punct(';') && depth == 0 {
                break;
            }
            is_float |= x.is_ident("f64") || x.is_ident("f32");
            is_float |= x.kind == TokenKind::Num
                && (x.text.ends_with("f64") || x.text.ends_with("f32"));
            is_float |= x.kind == TokenKind::Num
                && tokens.get(k + 1).is_some_and(|d| d.is_punct('.'))
                && tokens.get(k + 2).is_some_and(|n| n.kind == TokenKind::Num);
            k += 1;
        }
        if is_float {
            names.push(name.text.clone());
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Index of the `}` matching the `{` at `open` (or `tokens.len()`).
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    matching(tokens, open, '{', '}')
}

/// Index of the `)` matching the `(` at `open` (or `tokens.len()`).
fn matching_paren(tokens: &[Token], open: usize) -> usize {
    matching(tokens, open, '(', ')')
}

/// Index of the `]` matching the `[` at `open` (or `tokens.len()`).
fn matching_bracket(tokens: &[Token], open: usize) -> usize {
    matching(tokens, open, '[', ']')
}

fn matching(tokens: &[Token], open: usize, o: char, c: char) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < tokens.len() {
        if tokens[k].is_punct(o) {
            depth += 1;
        } else if tokens[k].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::super::test_util::scan;

    #[test]
    fn hashmap_iteration_flagged_in_dataset_crate() {
        let src = "
            use std::collections::HashMap;
            struct S { leases: HashMap<u32, u32> }
            impl S {
                fn count(&self) -> usize { self.leases.values().count() }
            }";
        let f = scan("crates/simnet/src/dhcp.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "nondeterministic-iteration");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn hashmap_iteration_ignored_outside_dataset_crates() {
        let src = "
            use std::collections::HashMap;
            fn f(m: HashMap<u32, u32>) { for x in m { drop(x); } }";
        assert!(scan("crates/analysis/src/usage.rs", src).is_empty());
    }

    #[test]
    fn for_loop_and_extend_flagged() {
        let src = "
            use std::collections::HashMap;
            fn f(seen: HashMap<u32, u32>, out: &mut Vec<(u32, u32)>) {
                for pair in &seen {
                    drop(pair);
                }
                out.extend(seen);
            }";
        let f = scan("crates/collector/src/server.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "nondeterministic-iteration"));
    }

    #[test]
    fn btreemap_is_fine() {
        let src = "
            use std::collections::BTreeMap;
            struct S { leases: BTreeMap<u32, u32> }
            impl S {
                fn count(&self) -> usize { self.leases.values().count() }
            }";
        assert!(scan("crates/simnet/src/dhcp.rs", src).is_empty());
    }

    #[test]
    fn iteration_in_cfg_test_module_exempt() {
        let src = "
            use std::collections::HashMap;
            fn decl(m: HashMap<u32, u32>) -> usize { m.len() }
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() {
                    let counts: HashMap<u32, u32> = HashMap::new();
                    for x in counts.values() { drop(x); }
                }
            }";
        assert!(scan("crates/household/src/devices.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_flagged_outside_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let f = scan("crates/core/src/study.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
        assert!(scan("crates/bench/benches/study.rs", src).is_empty(), "bench crate exempt");
    }

    #[test]
    fn ambient_rng_flagged_everywhere_even_tests() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }";
        for path in ["crates/simnet/src/rng.rs", "crates/simnet/tests/properties.rs"] {
            let f = scan(path, src);
            assert_eq!(f.len(), 1, "{path}");
            assert_eq!(f[0].rule, "ambient-rng");
        }
    }

    #[test]
    fn rng_names_inside_strings_not_flagged() {
        let src = r#"fn f() { let s = "thread_rng"; }"#;
        assert!(scan("crates/simnet/src/rng.rs", src).is_empty());
    }

    #[test]
    fn float_accum_in_hash_loop_flagged() {
        // The exact shape of analysis::usage::fig13 before this PR: hourly
        // f64 sums folded in per_scan's HashMap order.
        let src = "
            use std::collections::HashMap;
            fn f(per_scan: HashMap<u32, u32>) -> [f64; 24] {
                let mut sums = [0.0f64; 24];
                for (k, v) in per_scan {
                    sums[(k % 24) as usize] += f64::from(v);
                }
                sums
            }";
        let f = scan("crates/analysis/src/usage.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "float-accum-order");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn float_accum_over_btreemap_not_flagged() {
        let src = "
            use std::collections::BTreeMap;
            fn f(per_scan: BTreeMap<u32, u32>) -> f64 {
                let mut total = 0.0;
                for (_, v) in per_scan {
                    total += f64::from(v);
                }
                total
            }";
        assert!(scan("crates/analysis/src/usage.rs", src).is_empty());
    }

    #[test]
    fn integer_accum_in_hash_loop_not_flagged_by_float_rule() {
        let src = "
            use std::collections::HashMap;
            fn f(m: HashMap<u32, u64>) -> u64 {
                let mut total = 0u64;
                for (_, v) in &m {
                    total += v;
                }
                total
            }";
        let f = scan("crates/analysis/src/usage.rs", src);
        assert!(f.iter().all(|x| x.rule != "float-accum-order"), "{f:?}");
    }

    #[test]
    fn float_accum_in_spawn_closure_flagged() {
        let src = "
            fn f(parts: &[f64]) -> f64 {
                let mut total: f64 = 0.0;
                std::thread::scope(|s| {
                    s.spawn(|| {
                        for p in parts {
                            total += p;
                        }
                    });
                });
                total
            }";
        let f = scan("crates/analysis/src/report.rs", src);
        // The bare `spawn` also trips shared-state here; this test cares
        // only about the float rule.
        let floats: Vec<_> = f.iter().filter(|x| x.rule == "float-accum-order").collect();
        assert_eq!(floats.len(), 1, "{f:?}");
        assert!(floats[0].message.contains("spawn"), "{}", floats[0].message);
    }

    #[test]
    fn float_sum_turbofish_over_hash_flagged() {
        let src = "
            use std::collections::HashMap;
            fn f(m: HashMap<u32, f64>) -> f64 {
                let total = m.values().map(|v| v * 2.0).sum::<f64>();
                total
            }";
        let f = scan("crates/analysis/src/latency.rs", src);
        assert!(f.iter().any(|x| x.rule == "float-accum-order"), "{f:?}");
    }

    #[test]
    fn float_rule_scoped_to_analysis_and_collector() {
        let src = "
            use std::collections::HashMap;
            fn f(m: HashMap<u32, u32>) -> f64 {
                let mut total = 0.0;
                for (_, v) in m {
                    total += f64::from(v);
                }
                total
            }";
        assert!(scan("crates/bench/src/lib.rs", src).is_empty());
        // collector is also a dataset crate, so the same loop trips the
        // iteration rule; the float rule must fire alongside it.
        let f = scan("crates/collector/src/windows.rs", src);
        assert!(f.iter().any(|x| x.rule == "float-accum-order"), "{f:?}");
    }
}
