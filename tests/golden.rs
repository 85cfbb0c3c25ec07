//! Golden output digests: the one absolute pin on what the study
//! produces.
//!
//! Every other identity test in `tests/` is relative (threads 1 vs 8,
//! spill vs unbounded, stream vs batch), so a change that moves both
//! sides passes them all. Each row of `golden.tsv` runs `bismark-study`
//! in its own process, so the process-wide `obs` registry starts empty,
//! and compares FNV-1a-64 digests of the run's outputs with the
//! committed ones: the rendered report, the JSON public export,
//! `metrics.json` without its `spill_*` keys (`spill_merge_fanin`
//! depends on how worker threads interleave their seals), and, for a
//! streamed row, its per-window manifests `metrics.wNNNN.json` in name
//! order, cut the same way. A batch row writes no window manifests and
//! holds `-` in that column. Window manifests pin what each window's
//! drain read, which the final outputs cannot: a record handed to the
//! collector one window late still lands in the same final datasets.
//!
//! On a mismatch the test prints every row's actual line. When a change
//! is meant to move the output, paste those lines into `golden.tsv` and
//! name the cause in the commit message.

use obs::fnv1a64;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_bismark-study");
const GOLDEN: &str = include_str!("golden.tsv");

/// One committed row: a name, the CLI arguments, the digests of the
/// report, the export and the filtered `metrics.json`, and the digest of
/// the filtered window manifests (`None` for a batch row).
struct Row {
    name: &'static str,
    args: &'static str,
    digests: Digests,
}

/// Report, export and metrics digests, then the window-manifest digest.
type Digests = ([u64; 3], Option<u64>);

fn rows() -> Vec<Row> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 6, "golden row needs six tab-separated fields: {l:?}");
            let hex = |s: &str| u64::from_str_radix(s, 16).expect("golden digests are hex");
            let windows = (f[5] != "-").then(|| hex(f[5]));
            Row { name: f[0], args: f[1], digests: ([hex(f[2]), hex(f[3]), hex(f[4])], windows) }
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
fn digests(row: &Row) -> Digests {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden").join(row.name);
    // Start empty, so no window manifest of an earlier run is digested.
    let _ = std::fs::remove_dir_all(&dir);
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
    let filtered = |path: &Path| {
        without_spill_keys(&String::from_utf8(read(path)).expect("a manifest is UTF-8"))
    };
    let mut windows: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("list the row's output dir")
        .map(|entry| entry.expect("read a dir entry").path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("metrics.w")))
        .collect();
    windows.sort();
    let window_digest = (!windows.is_empty())
        .then(|| fnv1a64(windows.iter().map(|p| filtered(p)).collect::<String>().as_bytes()));
    let metrics = filtered(&metrics);
    ([fnv1a64(&read(&report)), fnv1a64(&read(&export)), fnv1a64(metrics.as_bytes())], window_digest)
}

/// Run every row whose arguments do (`full`) or do not ask for `--full`
/// and compare each with its committed digests.
fn check(full: bool) {
    let rows: Vec<Row> = rows().into_iter().filter(|r| r.args.contains("--full") == full).collect();
    assert!(!rows.is_empty(), "golden.tsv has no {} rows", if full { "--full" } else { "quick" });
    let mut moved = Vec::new();
    let mut actual = String::new();
    for row in &rows {
        let got = digests(row);
        if got != row.digests {
            moved.push(row.name);
        }
        let ([report, export, metrics], windows) = got;
        let windows = windows.map_or_else(|| "-".to_string(), |w| format!("{w:016x}"));
        actual.push_str(&format!(
            "{}\t{}\t{report:016x}\t{export:016x}\t{metrics:016x}\t{windows}\n",
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
