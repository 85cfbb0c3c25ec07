//! `benchmark` — the repository benchmark.
//!
//! ```text
//! benchmark [--workload W]... [--seed S] [--runs N | --seconds T] [--trace 0|1]
//!           [--smoke] [--bless] [--json OUT]
//! benchmark --compare BASE.json NEW.json
//! ```
//!
//! Runs each selected workload (default: all four) in a child process of
//! its own, one at a time and round-robin: `--runs` rounds (default 5), or
//! rounds until `--seconds` have passed. Then it runs `benchmark-trace`
//! once per workload, or round after round until `--seconds` have passed,
//! for the per-layer metrics. `--trace 0` runs only the untraced rounds;
//! `--trace 1` runs only the traced ones, after one untraced reference run
//! per workload that the traced digests and the tracing overhead are
//! measured against.
//!
//! For every metric it prints the name, unit, median, quartiles and
//! sample count. The last line of stdout is one JSON object: whether every
//! output check passed, how many were attempted and failed, and each
//! metric's median with its unit (`--trace 0`: the end-to-end metrics;
//! `--trace 1`: the per-layer ones; neither: both). With several workloads
//! its metric keys are `workload:metric`.
//!
//! `--json OUT` writes every sample, each workload's checks and the host
//! facts; `--compare` judges two such files metric by metric. `--bless`
//! rewrites this seed's rows of `workload-digests.tsv` instead of
//! checking against them. `--smoke` shrinks every workload for the smoke
//! test.

use bismark_benchmark::catalog::{Catalog, Metric};
use bismark_benchmark::compare::{spread, verdict, Verdict};
use bismark_benchmark::digest::{self, Digests};
use bismark_benchmark::run::run_workload;
use bismark_benchmark::stats::{median, quartiles};
use bismark_benchmark::trace::Trace;
use bismark_benchmark::workload::{Scale, Workload, DEFAULT_SEED};
use bismark_benchmark::{probe, Sample};
use serde::value::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

const USAGE: &str = "usage:
  benchmark [--workload W]... [--seed S] [--runs N | --seconds T] [--trace 0|1]
            [--smoke] [--bless] [--json OUT]
  benchmark --compare BASE.json NEW.json
workloads: paper-49d, homes-10k, traffic-cgn, stream-chaos";

/// Options of a benchmark run.
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    runs: usize,
    seconds: Option<f64>,
    trace: Option<bool>,
    scale: Scale,
    bless: bool,
    json: Option<PathBuf>,
}

enum Mode {
    Bench(Options),
    /// One untraced run in this process, printed as a [`Sample`].
    Child(Workload, u64, Scale),
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        runs: 5,
        seconds: None,
        trace: None,
        scale: Scale::Bench,
        bless: false,
        json: None,
    };
    let mut child = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("flag {flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workloads.push(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "flag --seed expects a number")?,
            "--runs" => match value()?.parse() {
                Ok(n) if n > 0 => opts.runs = n,
                _ => return Err("flag --runs expects a positive number".into()),
            },
            "--seconds" => match value()?.parse::<f64>() {
                Ok(s) if s > 0.0 => opts.seconds = Some(s),
                _ => return Err("flag --seconds expects a positive number".into()),
            },
            "--trace" => match value()?.as_str() {
                "0" => opts.trace = Some(false),
                "1" => opts.trace = Some(true),
                other => return Err(format!("flag --trace expects 0 or 1, got {other:?}")),
            },
            "--json" => opts.json = Some(PathBuf::from(value()?)),
            "--smoke" => opts.scale = Scale::Smoke,
            "--bless" => opts.bless = true,
            "--child" => child = true,
            "--compare" => {
                let base = PathBuf::from(value()?);
                let new = PathBuf::from(value()?);
                if args.len() != 3 {
                    return Err("--compare takes exactly two files and no other flags".into());
                }
                return Ok(Mode::Compare(base, new));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if child {
        return match opts.workloads[..] {
            [w] => Ok(Mode::Child(w, opts.seed, opts.scale)),
            _ => Err("--child runs exactly one --workload".into()),
        };
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    Ok(Mode::Bench(opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse(&args).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let code = match mode {
        Mode::Child(workload, seed, scale) => {
            print!("{}", child(workload, seed, scale).to_text());
            0
        }
        Mode::Compare(base, new) => compare(&base, &new),
        Mode::Bench(opts) => match bench(&opts) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("benchmark: {e}");
                1
            }
        },
    };
    std::process::exit(code)
}

/// One untraced run. The spans it records are a few hundred pushes and
/// are discarded.
fn child(workload: Workload, seed: u64, scale: Scale) -> Sample {
    let mut trace = Trace::default();
    let root = trace.start("run", None);
    let run = run_workload(workload, seed, scale, &mut trace, root, || [0, 0]);
    // Read before any check runs, so the checks' own work stays out.
    let cpu_s = probe::cpu_seconds();
    let peak_rss_mib = probe::peak_rss_mib();
    let t = run.output.timings;
    let metrics = [
        ("wall_s", run.wall.as_secs_f64()),
        ("setup_s", run.setup().as_secs_f64()),
        ("simulate_s", t.simulate.as_secs_f64()),
        ("records_per_s", run.records() as f64 / t.simulate.as_secs_f64()),
        ("cpu_s", cpu_s),
        ("peak_rss_mib", peak_rss_mib),
    ];
    Sample {
        metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        digests: Digests::compute(&run.rendered, &run.output.datasets, &obs::snapshot()),
        checks: run.checks(),
    }
}

/// Run a child (this binary with `--child`, or `benchmark-trace`) to
/// completion and parse what it printed.
fn spawn(
    exe: &Path,
    extra: &[&str],
    workload: Workload,
    seed: u64,
    scale: Scale,
) -> Result<Sample, String> {
    let mut cmd = Command::new(exe);
    cmd.args(extra).args(["--workload", workload.name(), "--seed", &seed.to_string()]);
    if scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("{} on {} failed: {}", exe.display(), workload.name(), out.status));
    }
    Sample::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Everything measured for one workload.
struct WorkloadRuns {
    workload: Workload,
    untraced: Vec<Sample>,
    traced: Vec<Sample>,
}

/// Median, quartiles and every sample of one metric.
struct Summary {
    values: Vec<f64>,
    median: f64,
    q1: f64,
    q3: f64,
}

impl Summary {
    fn of(values: Vec<f64>) -> Summary {
        let (q1, q3) = quartiles(&values);
        Summary { median: median(&values), q1, q3, values }
    }
}

impl WorkloadRuns {
    /// The declared metrics this workload measured, summarized: the
    /// end-to-end ones if its untraced rounds ran, the per-layer ones if
    /// its traced runs did.
    fn summaries<'c>(
        &self,
        catalog: &'c Catalog,
        end_to_end: bool,
    ) -> Result<Vec<(&'c Metric, Summary)>, String> {
        let mut out = Vec::new();
        let from = |samples: &[Sample], name: &str| -> Result<Vec<f64>, String> {
            samples
                .iter()
                .map(|s| s.metrics.get(name).copied())
                .collect::<Option<Vec<f64>>>()
                .ok_or_else(|| format!("{}: a run did not report {name}", self.workload.name()))
        };
        if end_to_end {
            for m in &catalog.end_to_end {
                out.push((m, Summary::of(from(&self.untraced, &m.name)?)));
            }
        }
        if !self.traced.is_empty() {
            let untraced_wall = median(&from(&self.untraced, "wall_s")?);
            for m in &catalog.per_layer {
                let values = if m.name == "trace.overhead_pct" {
                    let traced = from(&self.traced, "trace.wall_s")?;
                    traced.iter().map(|w| (w / untraced_wall - 1.0) * 100.0).collect()
                } else {
                    from(&self.traced, &m.name)?
                };
                out.push((m, Summary::of(values)));
            }
        }
        Ok(out)
    }

    /// Every output check, as (name, passed).
    fn checks(&self, seed: u64, scale: Scale, bless: bool) -> Vec<(String, bool)> {
        let mut checks: Vec<(String, bool)> =
            self.untraced.iter().chain(&self.traced).flat_map(|s| s.checks.clone()).collect();
        let reference = self.untraced[0].digests.values();
        let mut same = |what: String, other: Digests| {
            for ((name, a), b) in Digests::NAMES.iter().zip(reference).zip(other.values()) {
                checks.push((format!("{name} digest: {what}"), a == b));
            }
        };
        for (round, s) in self.untraced.iter().enumerate().skip(1) {
            same(format!("round {} equals round 1", round + 1), s.digests);
        }
        for s in &self.traced {
            same("traced run equals untraced run".into(), s.digests);
        }
        if !bless {
            if let Some(golden) = digest::golden(self.workload, scale, seed) {
                same("round 1 equals workload-digests.tsv".into(), golden);
            }
        }
        checks
    }
}

fn bench(opts: &Options) -> Result<(), String> {
    let catalog = Catalog::load();
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let traced_exe = exe.with_file_name("benchmark-trace");
    let (untraced_rounds, traced_runs) = (opts.trace != Some(true), opts.trace != Some(false));
    if traced_runs && !traced_exe.exists() {
        return Err(format!(
            "{} is missing; build both binaries with `cargo build --release --bins`",
            traced_exe.display()
        ));
    }
    let started = Instant::now();
    let out_of_time = |rounds: usize| match opts.seconds {
        Some(s) => started.elapsed().as_secs_f64() >= s,
        None => rounds >= opts.runs,
    };
    let mut runs: Vec<WorkloadRuns> = opts
        .workloads
        .iter()
        .map(|&workload| WorkloadRuns { workload, untraced: Vec::new(), traced: Vec::new() })
        .collect();
    let untraced = |w: Workload| spawn(&exe, &["--child"], w, opts.seed, opts.scale);
    if untraced_rounds {
        let mut rounds = 0;
        while rounds == 0 || !out_of_time(rounds) {
            for r in &mut runs {
                r.untraced.push(untraced(r.workload)?);
            }
            rounds += 1;
        }
    }
    if traced_runs {
        for r in &mut runs {
            if r.untraced.is_empty() {
                r.untraced.push(untraced(r.workload)?);
            }
        }
        loop {
            for r in &mut runs {
                r.traced.push(spawn(&traced_exe, &[], r.workload, opts.seed, opts.scale)?);
            }
            // Without a time budget, one traced run per workload.
            if opts.seconds.is_none_or(|s| started.elapsed().as_secs_f64() >= s) {
                break;
            }
        }
    }

    let mut attempted = 0;
    let mut failed = 0;
    let mut result_metrics = Vec::new();
    let mut report = Vec::new();
    for r in &runs {
        let name = r.workload.name();
        let summaries = r.summaries(&catalog, untraced_rounds)?;
        let checks = r.checks(opts.seed, opts.scale, opts.bless);
        print_workload(r, &summaries, &checks, opts.seed);
        attempted += checks.len();
        failed += checks.iter().filter(|(_, ok)| !ok).count();
        for (m, s) in &summaries {
            let key = if runs.len() == 1 { m.name.clone() } else { format!("{name}:{}", m.name) };
            let entry = vec![
                ("value".into(), Value::Float(s.median)),
                ("unit".into(), Value::Str(m.unit.clone())),
            ];
            result_metrics.push((key, Value::Map(entry)));
        }
        report.push((name.to_string(), workload_json(r, &summaries, &checks)));
        if opts.bless {
            let d = r.untraced[0].digests;
            digest::bless(Path::new(digest::GOLDEN_PATH), r.workload, opts.scale, opts.seed, d)
                .map_err(|e| format!("cannot write {}: {e}", digest::GOLDEN_PATH))?;
            eprintln!(
                "blessed {name} ({}, seed {}) in {}",
                opts.scale.name(),
                opts.seed,
                digest::GOLDEN_PATH
            );
        }
    }
    if let Some(path) = &opts.json {
        let doc = Value::Map(vec![
            ("schema".into(), Value::Str("bismark-benchmark/1".into())),
            ("seed".into(), Value::UInt(opts.seed)),
            ("scale".into(), Value::Str(opts.scale.name().into())),
            ("host".into(), host_facts()),
            ("workloads".into(), Value::Map(report)),
        ]);
        let text = serde_json::to_string_pretty(&doc).expect("a value tree serializes");
        std::fs::write(path, text + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::UInt(attempted as u64)),
        ("failed".into(), Value::UInt(failed as u64)),
        ("metrics".into(), Value::Map(result_metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("a value tree serializes"));
    Ok(())
}

fn print_workload(
    r: &WorkloadRuns,
    summaries: &[(&Metric, Summary)],
    checks: &[(String, bool)],
    seed: u64,
) {
    println!(
        "== {} (seed {seed}): {} untraced run(s), {} traced run(s)",
        r.workload.name(),
        r.untraced.len(),
        r.traced.len()
    );
    println!(
        "  {:<38} {:<6} {:>14} {:>14} {:>14} {:>3}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for (m, s) in summaries {
        println!(
            "  {:<38} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>3}",
            m.name,
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.values.len()
        );
    }
    let failures: Vec<&str> =
        checks.iter().filter(|(_, ok)| !ok).map(|(n, _)| n.as_str()).collect();
    println!("  checks: {} attempted, {} failed", checks.len(), failures.len());
    for name in failures {
        println!("  FAILED: {name}");
    }
}

fn workload_json(
    r: &WorkloadRuns,
    summaries: &[(&Metric, Summary)],
    checks: &[(String, bool)],
) -> Value {
    let metrics = summaries
        .iter()
        .map(|(m, s)| {
            let entry = vec![
                ("unit".into(), Value::Str(m.unit.clone())),
                ("median".into(), Value::Float(s.median)),
                ("q1".into(), Value::Float(s.q1)),
                ("q3".into(), Value::Float(s.q3)),
                ("values".into(), Value::Seq(s.values.iter().map(|&v| Value::Float(v)).collect())),
            ];
            (m.name.clone(), Value::Map(entry))
        })
        .collect();
    let checks = checks
        .iter()
        .map(|(name, ok)| {
            Value::Map(vec![
                ("name".into(), Value::Str(name.clone())),
                ("ok".into(), Value::Bool(*ok)),
            ])
        })
        .collect();
    Value::Map(vec![
        ("untraced_runs".into(), Value::UInt(r.untraced.len() as u64)),
        ("traced_runs".into(), Value::UInt(r.traced.len() as u64)),
        ("checks".into(), Value::Seq(checks)),
        ("metrics".into(), Value::Map(metrics)),
    ])
}

/// Core count, CPU model and compiler: what a result file needs to be
/// compared fairly.
fn host_facts() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc =
        Command::new("rustc").arg("-V").output().ok().filter(|o| o.status.success()).map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Value::Map(vec![
        ("nproc".into(), Value::UInt(nproc)),
        ("cpu".into(), Value::Str(cpu)),
        ("rustc".into(), Value::Str(rustc)),
    ])
}

/// Every sample of every metric in a `--json` result file, by workload.
fn load_samples(path: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = || format!("{} is not a benchmark --json result", path.display());
    let get = |v: &'_ Value, key: &str| -> Option<Value> {
        v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let workloads = get(&doc, "workloads").ok_or_else(bad)?;
    let mut out = BTreeMap::new();
    for (name, w) in workloads.as_map().ok_or_else(bad)? {
        let metrics = get(w, "metrics").ok_or_else(bad)?;
        let mut by_metric = BTreeMap::new();
        for (metric, m) in metrics.as_map().ok_or_else(bad)? {
            let values = get(m, "values").ok_or_else(bad)?;
            let values: Option<Vec<f64>> = values
                .as_seq()
                .ok_or_else(bad)?
                .iter()
                .map(|v| match v {
                    Value::Float(f) => Some(*f),
                    Value::UInt(u) => Some(*u as f64),
                    Value::Int(i) => Some(*i as f64),
                    _ => None,
                })
                .collect();
            by_metric.insert(metric.clone(), values.ok_or_else(bad)?);
        }
        out.insert(name.clone(), by_metric);
    }
    Ok(out)
}

/// Print one row per workload × end-to-end metric; exit 1 if any is worse.
fn compare(base: &Path, new: &Path) -> i32 {
    let catalog = Catalog::load();
    let (base, new) = match (load_samples(base), load_samples(new)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return 2;
        }
    };
    println!(
        "{:<14} {:<16} {:<6} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "unit", "base", "new", "delta", "bound", "spread"
    );
    let mut worse = 0;
    for (workload, base_metrics) in &base {
        let Some(new_metrics) = new.get(workload) else { continue };
        for m in &catalog.end_to_end {
            let (Some(b), Some(n)) = (base_metrics.get(&m.name), new_metrics.get(&m.name)) else {
                continue;
            };
            let v = verdict(m, b, n);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<14} {:<16} {:<6} {:>14.6} {:>14.6} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                workload,
                m.name,
                m.unit,
                median(b),
                median(n),
                100.0 * (median(n) - median(b)) / median(b),
                100.0 * m.bound.unwrap_or(0.0),
                100.0 * spread(b).max(spread(n)),
                v.name()
            );
        }
    }
    i32::from(worse > 0)
}
