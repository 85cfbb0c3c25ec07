//! Golden output digests: the one absolute pin on what the study
//! produces.
//!
//! Every other identity test in `tests/` is relative (threads 1 vs 8,
//! spill vs unbounded, stream vs batch), so a change that moves both
//! sides passes them all. Each row of `golden.tsv` runs `bismark-study`
//! in its own process, so the process-wide `obs` registry starts empty,
//! and compares FNV-1a-64 digests of the run's three outputs with the
//! committed ones: the rendered report, the JSON public export, and
//! `metrics.json` without its `spill_*` keys (`spill_merge_fanin`
//! depends on how worker threads interleave their seals).
//!
//! On a mismatch the test prints every row's actual line. When a change
//! is meant to move the output, paste those lines into `golden.tsv` and
//! name the cause in the commit message.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_bismark-study");
const GOLDEN: &str = include_str!("golden.tsv");

/// FNV-1a, 64-bit: stable across Rust releases, unlike std's hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One committed row: a name, the CLI arguments, and the digests of the
/// report, the export and the filtered `metrics.json`.
struct Row {
    name: &'static str,
    args: &'static str,
    digests: [u64; 3],
}

fn rows() -> Vec<Row> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 5, "golden row needs five tab-separated fields: {l:?}");
            let hex = |s: &str| u64::from_str_radix(s, 16).expect("golden digests are hex");
            Row { name: f[0], args: f[1], digests: [hex(f[2]), hex(f[3]), hex(f[4])] }
        })
        .collect()
}

/// `metrics.json` with every `"spill_*": value` member cut out. The
/// file is one line of JSON whose values are numbers, strings without
/// brackets, or objects, so a member ends at the first `,` or `}` outside
/// any nested bracket.
fn without_spill_keys(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find("\"spill_") {
        out.push_str(&rest[..at]);
        let member = &rest[at..];
        let mut depth = 0usize;
        let end = member
            .char_indices()
            .find(|&(_, c)| match c {
                ',' | '}' if depth == 0 => true,
                '{' | '[' => {
                    depth += 1;
                    false
                }
                '}' | ']' => {
                    depth -= 1;
                    false
                }
                _ => false,
            })
            .map_or(member.len(), |(i, _)| i);
        rest = &member[end..];
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    out.push_str(rest);
    out
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Run one row's study and digest its outputs.
fn digests(row: &Row) -> [u64; 3] {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden").join(row.name);
    std::fs::create_dir_all(&dir).expect("create the row's output dir");
    let (report, export, metrics) =
        (dir.join("report.txt"), dir.join("export.json"), dir.join("metrics.json"));
    let out = Command::new(BIN)
        .args(row.args.split_whitespace())
        .arg("--report")
        .arg(&report)
        .arg("--export")
        .arg(&export)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("spawn bismark-study");
    assert!(
        out.status.success(),
        "row {} failed: {}",
        row.name,
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = String::from_utf8(read(&metrics)).expect("metrics.json is UTF-8");
    [fnv1a(&read(&report)), fnv1a(&read(&export)), fnv1a(without_spill_keys(&metrics).as_bytes())]
}

/// Run every row whose arguments do (`full`) or do not ask for `--full`
/// and compare each with its committed digests.
fn check(full: bool) {
    let rows: Vec<Row> = rows().into_iter().filter(|r| r.args.contains("--full") == full).collect();
    assert!(!rows.is_empty(), "golden.tsv has no {} rows", if full { "--full" } else { "quick" });
    let mut moved = Vec::new();
    let mut actual = String::new();
    for row in &rows {
        let [report, export, metrics] = digests(row);
        if [report, export, metrics] != row.digests {
            moved.push(row.name);
        }
        actual.push_str(&format!(
            "{}\t{}\t{report:016x}\t{export:016x}\t{metrics:016x}\n",
            row.name, row.args
        ));
    }
    assert!(
        moved.is_empty(),
        "output digests moved for {moved:?}; every row's actual line:\n{actual}"
    );
}

#[test]
fn quick_runs_match_their_golden_digests() {
    check(false);
}

#[test]
#[ignore = "the 197-day study; scripts/check.sh runs it in release"]
fn full_study_matches_its_golden_digests() {
    check(true);
}

#[test]
fn spill_keys_are_cut_wherever_they_sit() {
    let json = r#"{"counters":{"a":1,"spill_x":2,"b":3},"gauges":{"spill_y":4},"histograms":{"spill_h":{"bounds":[1],"buckets":[0,1]},"z":{"bounds":[]}}}"#;
    assert_eq!(
        without_spill_keys(json),
        r#"{"counters":{"a":1,"b":3},"gauges":{},"histograms":{"z":{"bounds":[]}}}"#
    );
}
