//! `bismark-study` — the command-line front end of the reproduction.
//!
//! ```text
//! bismark-study run   [--seed N] [--days D | --full] [--homes H] [--threads T]
//!                     [--stream] [--window DUR]
//!                     [--spill-budget BYTES] [--spill-dir DIR]
//!                     [--faults SCENARIO] [--cgn SCENARIO]
//!                     [--report FILE] [--export FILE]
//!                     [--metrics FILE] [--metrics-text] [--validate]
//! bismark-study list-figures
//! ```
//!
//! `run` simulates the deployment, prints (or writes) the full per-figure
//! report, optionally exports the PII-free public data release as JSON
//! (exactly what the paper released: everything except Traffic), and
//! optionally validates the heartbeat instrument against ground truth.
//! `--homes H` scales the deployment generatively (country mix preserved)
//! past the paper's 126 homes; it is a quick-mode axis and cannot be
//! combined with `--full`, whose 197-day study is pinned to Table 1.
//! `--spill-budget BYTES` caps collector memory: past the budget, shards
//! seal their columnar tables into disk segments (under `--spill-dir`, or
//! the OS temp dir) and the snapshot k-way-merges them back — reports are
//! byte-identical to the unbounded run. `BYTES` takes an optional binary
//! suffix: `4GiB`, `512MiB`, `64KiB`, or a plain byte count.
//! `--cgn SCENARIO` puts part of the deployment behind a carrier-grade
//! NAT tier (`isp-mix`, `all-cgn`, or `port-starved`) and arms the
//! firmware's STUN-style NAT-type and hole-punch experiments; it cannot
//! be combined with `--faults` (one injected experiment layer at a time).
//! `--stream` runs in continuous-operation mode: the collector's sealed
//! window deltas fold into incremental per-figure state every `--window`
//! of virtual time (default `1d`; `DUR` takes `90m`, `36h`, or `2d`
//! forms), the `--report` file is rewritten as a rolling report at each
//! boundary, and `--metrics` additionally writes one gauges-only manifest
//! per window at a derived path (`metrics.w0001.json`, …). After the
//! final window, report and exports are byte-identical to a batch run.
//! `--metrics` writes the deterministic run manifest (`metrics.json`);
//! `--metrics-text` prints the human-readable summary — including the
//! non-deterministic wall-clock host profile — to stderr.
//!
//! Flags are parsed strictly: an unrecognized flag (or a flag missing its
//! value) is an error, not a silent no-op.

use bismark::study::{run_study, run_study_stream, StudyConfig};
use bismark::validation;
use simnet::time::{SimDuration, MICROS_PER_DAY, MICROS_PER_HOUR, MICROS_PER_MIN};

fn usage() -> ! {
    eprintln!(
        "usage:\n  bismark-study run [--seed N] [--days D | --full] [--homes H] [--threads T] \\\n                    [--stream] [--window DUR[m|h|d]] \\\n                    [--spill-budget BYTES[KiB|MiB|GiB]] [--spill-dir DIR] \\\n                    [--faults lossy-wan|collector-flap|router-churn] \\\n                    [--cgn isp-mix|all-cgn|port-starved] \\\n                    [--report FILE] [--export FILE] \\\n                    [--metrics FILE] [--metrics-text] [--validate]\n  bismark-study list-figures"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("list-figures") if args.len() == 1 => list_figures(),
        _ => usage(),
    }
}

/// Everything `run` accepts, resolved from the command line.
#[derive(Debug, Default, PartialEq, Eq)]
struct RunOpts {
    seed: u64,
    days: u64,
    full: bool,
    homes: Option<u32>,
    threads: Option<usize>,
    stream: bool,
    window: Option<SimDuration>,
    spill_budget: Option<u64>,
    spill_dir: Option<String>,
    faults: Option<String>,
    cgn: Option<String>,
    report: Option<String>,
    export: Option<String>,
    metrics: Option<String>,
    metrics_text: bool,
    validate: bool,
}

/// Strict flag parser: every token must be a known flag (with its value
/// where one is required). Unknown or malformed flags are reported by name
/// so a typo like `--export=x.json` or `--dya 7` fails loudly instead of
/// silently running with defaults.
fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    fn value<'a>(
        flag: &str,
        it: &mut std::slice::Iter<'a, String>,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("flag {flag} requires a value"))
    }
    fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
        raw.parse().map_err(|_| format!("flag {flag} expects a number, got {raw:?}"))
    }
    /// A byte count with an optional binary suffix: `4GiB`, `512MiB`,
    /// `64KiB`, `1024B`, or a plain number of bytes.
    fn parse_bytes(flag: &str, raw: &str) -> Result<u64, String> {
        let (digits, unit) = match raw.find(|c: char| !c.is_ascii_digit()) {
            Some(split) => raw.split_at(split),
            None => (raw, ""),
        };
        let n: u64 = digits
            .parse()
            .map_err(|_| format!("flag {flag} expects a byte count, got {raw:?}"))?;
        let scale: u64 = match unit {
            "" | "B" => 1,
            "KiB" => 1 << 10,
            "MiB" => 1 << 20,
            "GiB" => 1 << 30,
            other => {
                return Err(format!(
                    "flag {flag} has unknown unit {other:?} in {raw:?} (use B, KiB, MiB, or GiB)"
                ))
            }
        };
        n.checked_mul(scale)
            .ok_or_else(|| format!("flag {flag} overflows u64 bytes: {raw:?}"))
    }

    /// A virtual-time duration with a required unit: `90m`, `36h`, `2d`.
    fn parse_duration(flag: &str, raw: &str) -> Result<SimDuration, String> {
        let (digits, unit) = match raw.find(|c: char| !c.is_ascii_digit()) {
            Some(split) => raw.split_at(split),
            None => {
                return Err(format!(
                    "flag {flag} expects a duration with a unit (90m, 36h, 2d), got {raw:?}"
                ))
            }
        };
        let n: u64 = digits
            .parse()
            .map_err(|_| format!("flag {flag} expects a duration, got {raw:?}"))?;
        let unit_micros = match unit {
            "m" => MICROS_PER_MIN,
            "h" => MICROS_PER_HOUR,
            "d" => MICROS_PER_DAY,
            other => {
                return Err(format!(
                    "flag {flag} has unknown unit {other:?} in {raw:?} (use m, h, or d)"
                ))
            }
        };
        let dur = SimDuration::from_micros(
            n.checked_mul(unit_micros)
                .ok_or_else(|| format!("flag {flag} overflows u64 microseconds: {raw:?}"))?,
        );
        if dur.as_micros() == 0 {
            return Err(format!("flag {flag} expects a positive duration, got {raw:?}"));
        }
        Ok(dur)
    }

    let mut opts = RunOpts { seed: 2013, days: 30, ..RunOpts::default() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => opts.seed = parse_num(arg, value(arg, &mut it)?)?,
            "--days" => {
                opts.days = parse_num(arg, value(arg, &mut it)?)?;
                if opts.days.checked_mul(MICROS_PER_DAY).is_none() {
                    return Err(format!("flag {arg} overflows u64 microseconds: {}", opts.days));
                }
            }
            "--full" => opts.full = true,
            "--homes" => opts.homes = Some(parse_num(arg, value(arg, &mut it)?)?),
            "--threads" => opts.threads = Some(parse_num(arg, value(arg, &mut it)?)?),
            "--stream" => opts.stream = true,
            "--window" => opts.window = Some(parse_duration(arg, value(arg, &mut it)?)?),
            "--spill-budget" => opts.spill_budget = Some(parse_bytes(arg, value(arg, &mut it)?)?),
            "--spill-dir" => opts.spill_dir = Some(value(arg, &mut it)?.clone()),
            "--faults" => opts.faults = Some(value(arg, &mut it)?.clone()),
            "--cgn" => opts.cgn = Some(value(arg, &mut it)?.clone()),
            "--report" => opts.report = Some(value(arg, &mut it)?.clone()),
            "--export" => opts.export = Some(value(arg, &mut it)?.clone()),
            "--metrics" => opts.metrics = Some(value(arg, &mut it)?.clone()),
            "--metrics-text" => opts.metrics_text = true,
            "--validate" => opts.validate = true,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if opts.homes == Some(0) {
        return Err("flag --homes expects at least 1 home, got 0".to_string());
    }
    if opts.homes.is_some() && opts.full {
        return Err(
            "flag --homes cannot be combined with --full (the 197-day full study is pinned to the 126-home Table 1 deployment)"
                .to_string(),
        );
    }
    if opts.cgn.is_some() && opts.faults.is_some() {
        return Err(
            "flag --cgn cannot be combined with --faults (arm one injected experiment layer at a time)"
                .to_string(),
        );
    }
    if opts.spill_dir.is_some() && opts.spill_budget.is_none() {
        return Err(
            "flag --spill-dir requires --spill-budget (a directory without a budget never spills)"
                .to_string(),
        );
    }
    if opts.window.is_some() && !opts.stream {
        return Err(
            "flag --window requires --stream (the window cadence only exists in streaming mode)"
                .to_string(),
        );
    }
    Ok(opts)
}

fn run(args: &[String]) {
    let opts = parse_run(args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });

    // Fresh metric values for this run (handles and key set persist).
    obs::reset();

    let mut config =
        if opts.full { StudyConfig::full(opts.seed) } else { StudyConfig::quick(opts.seed, opts.days) };
    if let Some(homes) = opts.homes {
        config.homes = homes;
    }
    if let Some(threads) = opts.threads {
        config.threads = threads;
    }
    if let Some(scenario) = &opts.faults {
        config.faults = Some(scenario.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        }));
    }
    if let Some(scenario) = &opts.cgn {
        config.cgn = Some(scenario.parse().unwrap_or_else(|e| {
            eprintln!("flag --cgn: {e}");
            std::process::exit(2)
        }));
    }
    if let Some(budget_bytes) = opts.spill_budget {
        config.spill = Some(collector::SpillConfig {
            budget_bytes,
            dir: opts.spill_dir.as_ref().map(std::path::PathBuf::from),
        });
    }

    eprintln!(
        "running seed {} over {:.0} virtual days across {} homes on {} thread{}...",
        opts.seed,
        config.windows.span.duration().as_days_f64(),
        config.homes,
        config.threads,
        if config.threads == 1 { "" } else { "s" }
    );
    // simlint: allow(wall-clock) — CLI progress timing printed to stderr; no simulation state depends on it
    let started = std::time::Instant::now();
    // A stream builds its report inside the study call, one window's
    // update and finalize at a time; they count toward `analyze`.
    let mut folded = std::time::Duration::ZERO;
    let (output, stream_report) = if opts.stream {
        let cadence = opts.window.unwrap_or_else(|| SimDuration::from_days(1));
        let streamed = run_study_stream(&config, cadence, |w| {
            folded += w.update_cost + w.finalize_cost;
            // Rolling report: the file is rewritten at every boundary, so
            // an operator tailing it always sees the freshest full report.
            if let Some(path) = &opts.report {
                std::fs::write(path, w.report.render(w.datasets))
                    .expect("write rolling report file");
            }
            // Per-window manifest at a derived path: gauges only, built
            // from the accumulated snapshot, so it is as deterministic as
            // the datasets themselves.
            if let Some(path) = &opts.metrics {
                let manifest = window_manifest(w, opts.seed, &config);
                std::fs::write(window_metrics_path(path, w.index), manifest.to_json())
                    .expect("write window metrics file");
            }
            eprintln!(
                "window {:>4} sealed at day {:>6.2}: snapshot {:.3}s, fold {:.3}s, report {:.3}s",
                w.index + 1,
                w.window.end.since(config.windows.span.start).as_days_f64(),
                w.snapshot_cost.as_secs_f64(),
                w.update_cost.as_secs_f64(),
                w.finalize_cost.as_secs_f64()
            );
        });
        eprintln!(
            "stream: {} windows at a {:.0}-minute cadence",
            streamed.windows_run,
            cadence.as_secs_f64() / 60.0
        );
        (streamed.study, Some(streamed.report))
    } else {
        (run_study(&config), None)
    };
    eprintln!(
        "done in {:.1}s: {} records from {} routers",
        started.elapsed().as_secs_f64(),
        output.datasets.record_count(),
        output.datasets.heartbeats.len()
    );
    if let Some(stats) = &output.spill {
        eprintln!(
            "spill: {} segments, {:.1} MiB written, {:.1} MiB behind the merged datasets",
            stats.segments,
            stats.bytes_written as f64 / (1024.0 * 1024.0),
            output.datasets.spilled_bytes() as f64 / (1024.0 * 1024.0)
        );
        if let Some(e) = &stats.error {
            eprintln!("warning: spilling degraded to in-memory after an I/O error: {e}");
        }
    }
    if config.cgn.is_some() {
        let s = &output.cgn_plan.stats;
        eprintln!(
            "cgn: {} of {} homes fronted by {} boxes ({} pool addrs); {} block leases, \
             {} evictions, {} exhaustion events; {} NAT probes, {} punch trials collected",
            s.fronted_homes,
            config.homes,
            output.cgn_plan.boxes,
            s.pool_addrs,
            s.leases,
            s.evictions,
            s.exhaustion_events,
            output.datasets.nat_probes.len(),
            output.datasets.punch_trials.len()
        );
    }
    if config.faults.is_some() {
        let c = output.upload_counters;
        eprintln!(
            "faults: {} collector downtime windows, {} gap records; uploads {} accepted \
             ({} after retries), {} duplicates, {} rejected in downtime; {} heartbeats dropped",
            output.fault_plan.collector_downtime.len(),
            output.datasets.upload_gaps.len(),
            c.accepted,
            c.retried_accepted,
            c.duplicates,
            c.rejected,
            output.dropped_in_downtime
        );
    }

    // simlint: allow(wall-clock) — CLI progress timing printed to stderr; no simulation state depends on it
    let analyze_started = std::time::Instant::now();
    // Stream mode already has the rolling report — by construction (and
    // by the differential harness) identical to a batch recompute.
    let report = match stream_report {
        Some(report) => report,
        None => output.report(),
    };
    let rendered = report.render(&output.datasets);
    eprintln!(
        "phases: simulate {:.2}s / snapshot {:.2}s / analyze {:.2}s",
        output.timings.simulate.as_secs_f64(),
        output.timings.snapshot.as_secs_f64(),
        (folded + analyze_started.elapsed()).as_secs_f64()
    );
    match &opts.report {
        Some(path) => {
            std::fs::write(path, &rendered).expect("write report file");
            eprintln!("report written to {path}");
        }
        None => println!("{rendered}"),
    }

    if let Some(path) = &opts.export {
        let json = collector::export::to_json(&output.datasets).expect("export serializes");
        std::fs::write(path, &json).expect("write export file");
        eprintln!(
            "public release ({} bytes, Traffic excluded) written to {path}",
            json.len()
        );
    }

    if opts.metrics.is_some() || opts.metrics_text {
        let mut manifest = obs::manifest::RunManifest::new(obs::snapshot());
        // Meta holds only run-describing strings so metrics.json stays
        // byte-identical across repeat runs (and across thread counts —
        // deliberately no timestamps, hostnames, or thread counts here).
        manifest.set_meta("schema", "bismark-metrics/1");
        manifest.set_meta("mode", if opts.full { "full" } else { "quick" });
        manifest.set_meta("seed", opts.seed.to_string());
        manifest.set_meta(
            "virtual_days",
            format!("{:.0}", config.windows.span.duration().as_days_f64()),
        );
        manifest.set_meta("homes", config.homes.to_string());
        manifest.set_meta("faults", opts.faults.as_deref().unwrap_or("none"));
        manifest.set_meta("cgn", opts.cgn.as_deref().unwrap_or("none"));
        if opts.stream {
            let cadence = opts.window.unwrap_or_else(|| SimDuration::from_days(1));
            manifest.set_meta("stream", format!("{:.0}m", cadence.as_secs_f64() / 60.0));
        }
        // Host facts (peak RSS) render only in the text summary; putting
        // them in meta would leak machine state into metrics.json.
        match peak_rss_bytes() {
            Some(peak) => {
                manifest.set_host("peak_rss_bytes", peak.to_string());
                manifest
                    .set_host("peak_rss_mib", format!("{:.1}", peak as f64 / (1024.0 * 1024.0)));
            }
            // Off Linux (or with procfs hidden) emit an explicit marker:
            // manifest-diffing tools must not misread absence as zero.
            None => manifest.set_host("peak_rss_bytes", "unavailable"),
        }
        manifest.set_host(
            "columnar_heap_bytes",
            output.datasets.columnar_heap_bytes().to_string(),
        );
        if let Some(stats) = &output.spill {
            manifest.set_host("spill_segments", stats.segments.to_string());
            manifest.set_host("spill_bytes_written", stats.bytes_written.to_string());
            manifest.set_host("spilled_bytes", output.datasets.spilled_bytes().to_string());
        }
        if let Some(path) = &opts.metrics {
            std::fs::write(path, manifest.to_json()).expect("write metrics file");
            eprintln!("metrics written to {path}");
        }
        if opts.metrics_text {
            eprint!("{}", manifest.to_text());
        }
    }

    if opts.validate {
        let v = validation::validate_availability(&output, opts.seed);
        eprintln!(
            "instrument validation over {} homes: mean coverage error {:.4}, mean downtime-count error {:.2}",
            v.homes.len(),
            v.mean_coverage_error,
            v.mean_downtime_count_error
        );
    }
}

/// Derived per-window manifest path: `metrics.json` → `metrics.w0001.json`
/// for the first window, counting from 1.
fn window_metrics_path(path: &str, index: u32) -> String {
    let tag = format!("w{:04}", index + 1);
    match path.rsplit_once('.') {
        // The `/` guard keeps a dot inside a directory name (`out.d/metrics`)
        // from being mistaken for an extension separator.
        Some((stem, ext)) if !stem.is_empty() && !ext.contains('/') => {
            format!("{stem}.{tag}.{ext}")
        }
        _ => format!("{path}.{tag}"),
    }
}

/// The gauges-only manifest for one sealed stream window: data-set sizes
/// from the accumulated snapshot (the same gauge keys the end-of-run
/// manifest carries), plus window-describing meta. No counters or
/// histograms — those accumulate on worker threads mid-run and only
/// settle at study end, so a per-window snapshot of them would not be
/// deterministic. Everything here derives from the datasets alone.
fn window_manifest(
    w: &bismark::study::StreamWindow<'_>,
    seed: u64,
    config: &StudyConfig,
) -> obs::manifest::RunManifest {
    let gauges = w
        .datasets
        .record_counts()
        .into_iter()
        .map(|(key, rows)| (key.to_string(), rows))
        .collect();
    let mut manifest =
        obs::manifest::RunManifest::new(obs::Snapshot { gauges, ..obs::Snapshot::default() });
    manifest.set_meta("schema", "bismark-metrics/1");
    manifest.set_meta("mode", "stream-window");
    manifest.set_meta("seed", seed.to_string());
    manifest.set_meta("window_index", (w.index + 1).to_string());
    manifest.set_meta(
        "window_end_day",
        format!("{:.2}", w.window.end.since(config.windows.span.start).as_days_f64()),
    );
    manifest
}

/// Peak resident-set size of this process in bytes, from `VmHWM` in
/// `/proc/self/status`. Returns `None` off Linux (or in sandboxes that hide
/// procfs) so the host section simply omits the line instead of failing.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    // Format: `VmHWM:    123456 kB`
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn list_figures() {
    let artifacts = [
        ("Table 1", "country classification (deployment)"),
        ("Table 2", "data-set summary"),
        ("Figure 3", "downtimes per day, developed vs developing (CDF)"),
        ("Figure 4", "downtime duration (CDF)"),
        ("Figure 5", "median downtimes vs per-capita GDP"),
        ("Figure 6", "availability timelines: always-on / appliance / flaky"),
        ("Table 3", "availability highlights"),
        ("Figure 7", "devices per home (CDF)"),
        ("Figure 8", "wired vs wireless devices by region"),
        ("Figure 9", "wireless stations per band"),
        ("Figure 10", "unique devices per band (CDF)"),
        ("Figure 11", "visible 2.4 GHz APs by region (CDF)"),
        ("Figure 12", "device manufacturer histogram"),
        ("Table 4", "infrastructure highlights"),
        ("Table 5", "always-connected devices"),
        ("Figure 13", "diurnal wireless device counts"),
        ("Figure 14", "one home's utilization vs capacity"),
        ("Figure 15", "p95 link utilization vs capacity"),
        ("Figure 16", "uplink oversaturation (bufferbloat)"),
        ("Figure 17", "per-device traffic shares"),
        ("Figure 18", "top-5/top-10 domains across homes"),
        ("Figure 19", "domain-rank volume/connection shares"),
        ("Figure 20", "per-device domain mixes"),
        ("Table 6", "usage highlights"),
    ];
    for (id, what) in artifacts {
        println!("{id:<10} {what}");
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_run, window_metrics_path, RunOpts};
    use simnet::time::SimDuration;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_match_documented_values() {
        let opts = parse_run(&[]).unwrap();
        assert_eq!(opts, RunOpts { seed: 2013, days: 30, ..RunOpts::default() });
    }

    #[test]
    fn all_flags_round_trip() {
        let opts = parse_run(&strs(&[
            "--seed", "7", "--days", "20", "--homes", "500", "--threads", "2",
            "--spill-budget", "64MiB", "--spill-dir", "/tmp/spill",
            "--faults", "collector-flap", "--report", "r.txt", "--export", "e.json",
            "--metrics", "m.json", "--metrics-text", "--validate",
            "--stream", "--window", "36h",
        ]))
        .unwrap();
        assert_eq!(
            opts,
            RunOpts {
                seed: 7,
                days: 20,
                full: false,
                homes: Some(500),
                threads: Some(2),
                spill_budget: Some(64 << 20),
                spill_dir: Some("/tmp/spill".into()),
                faults: Some("collector-flap".into()),
                cgn: None,
                report: Some("r.txt".into()),
                export: Some("e.json".into()),
                metrics: Some("m.json".into()),
                metrics_text: true,
                validate: true,
                stream: true,
                window: Some(SimDuration::from_hours(36)),
            }
        );
    }

    #[test]
    fn spill_budget_accepts_binary_suffixes() {
        for (raw, bytes) in [
            ("4GiB", 4u64 << 30),
            ("512MiB", 512 << 20),
            ("64KiB", 64 << 10),
            ("1024B", 1024),
            ("123456", 123_456),
            ("0", 0),
        ] {
            let opts = parse_run(&strs(&["--spill-budget", raw])).unwrap();
            assert_eq!(opts.spill_budget, Some(bytes), "parsing {raw}");
        }
        assert_eq!(parse_run(&strs(&["--spill-budget", "4GiB"])).unwrap().spill_budget,
                   Some(4_294_967_296));
    }

    #[test]
    fn malformed_spill_budget_is_rejected_by_name() {
        for raw in ["lots", "4GB", "1.5GiB", "GiB", "-1", "99999999999GiB", "4 GiB"] {
            let err = parse_run(&strs(&["--spill-budget", raw])).unwrap_err();
            assert!(err.contains("--spill-budget"), "error should name the flag: {err}");
        }
        let err = parse_run(&strs(&["--spill-budget"])).unwrap_err();
        assert!(err.contains("--spill-budget"), "{err}");
    }

    #[test]
    fn spill_dir_without_budget_is_rejected_naming_both_flags() {
        let err = parse_run(&strs(&["--spill-dir", "/tmp/x"])).unwrap_err();
        assert!(err.contains("--spill-dir"), "{err}");
        assert!(err.contains("--spill-budget"), "{err}");
    }

    #[test]
    fn cgn_flag_round_trips() {
        let opts = parse_run(&strs(&["--cgn", "port-starved"])).unwrap();
        assert_eq!(opts.cgn, Some("port-starved".into()));
    }

    #[test]
    fn cgn_with_faults_is_rejected_naming_both_flags() {
        for args in [
            &["--cgn", "isp-mix", "--faults", "lossy-wan"][..],
            &["--faults", "lossy-wan", "--cgn", "isp-mix"][..],
        ] {
            let err = parse_run(&strs(args)).unwrap_err();
            assert!(err.contains("--cgn"), "{err}");
            assert!(err.contains("--faults"), "{err}");
        }
    }

    #[test]
    fn cgn_missing_value_is_an_error() {
        let err = parse_run(&strs(&["--cgn"])).unwrap_err();
        assert!(err.contains("--cgn"), "{err}");
    }

    #[test]
    fn zero_homes_is_rejected_by_name() {
        let err = parse_run(&strs(&["--homes", "0"])).unwrap_err();
        assert!(err.contains("--homes"), "error should name the flag: {err}");
    }

    #[test]
    fn non_numeric_homes_is_rejected_by_name() {
        let err = parse_run(&strs(&["--homes", "many"])).unwrap_err();
        assert!(err.contains("--homes"), "{err}");
        assert!(err.contains("many"), "{err}");
    }

    #[test]
    fn homes_and_full_together_are_rejected_by_name() {
        // Both orders: the conflict is checked after the parse loop.
        for args in [&["--homes", "500", "--full"][..], &["--full", "--homes", "500"][..]] {
            let err = parse_run(&strs(args)).unwrap_err();
            assert!(err.contains("--homes"), "{err}");
            assert!(err.contains("--full"), "{err}");
        }
    }

    #[test]
    fn unknown_flag_is_named_in_the_error() {
        let err = parse_run(&strs(&["--seed", "7", "--exprot", "e.json"])).unwrap_err();
        assert!(err.contains("--exprot"), "error should name the bad flag: {err}");
    }

    #[test]
    fn equals_style_flags_are_rejected() {
        // We only support space-separated values; `--seed=7` must not be
        // silently ignored.
        let err = parse_run(&strs(&["--seed=7"])).unwrap_err();
        assert!(err.contains("--seed=7"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = parse_run(&strs(&["--report"])).unwrap_err();
        assert!(err.contains("--report"), "{err}");
        let err = parse_run(&strs(&["--days", "x"])).unwrap_err();
        assert!(err.contains("--days"), "{err}");
    }

    #[test]
    fn window_accepts_minute_hour_and_day_units() {
        for (raw, expected) in [
            ("90m", SimDuration::from_mins(90)),
            ("36h", SimDuration::from_hours(36)),
            ("2d", SimDuration::from_days(2)),
        ] {
            let opts = parse_run(&strs(&["--stream", "--window", raw])).unwrap();
            assert!(opts.stream);
            assert_eq!(opts.window, Some(expected), "parsing {raw}");
        }
    }

    #[test]
    fn days_and_window_past_the_virtual_clock_are_rejected_by_name() {
        // 213,503,982 days is the last whole day below u64::MAX µs; one
        // more used to wrap to a ~16-hour study in a release build.
        assert_eq!(parse_run(&strs(&["--days", "213503982"])).unwrap().days, 213_503_982);
        let err = parse_run(&strs(&["--days", "213503983"])).unwrap_err();
        assert!(err.contains("--days") && err.contains("overflows"), "{err}");
        let opts = parse_run(&strs(&["--stream", "--window", "213503982d"])).unwrap();
        assert_eq!(opts.window, Some(SimDuration::from_days(213_503_982)));
        for raw in ["213503983d", "5124095577h", "307445734562m"] {
            let err = parse_run(&strs(&["--stream", "--window", raw])).unwrap_err();
            assert!(err.contains("--window") && err.contains("overflows"), "{raw}: {err}");
        }
    }

    #[test]
    fn stream_without_window_defaults_the_cadence() {
        // The cadence default (one day) is applied at run time, not parse
        // time: parsing alone leaves the option empty.
        let opts = parse_run(&strs(&["--stream"])).unwrap();
        assert!(opts.stream);
        assert_eq!(opts.window, None);
    }

    #[test]
    fn malformed_window_is_rejected_by_name() {
        // Unitless, zero-length, unknown unit, missing magnitude, missing
        // value: each error must name the flag so the operator can fix it.
        for raw in ["5", "0h", "5w", "h", "1.5h", ""] {
            let err = parse_run(&strs(&["--stream", "--window", raw])).unwrap_err();
            assert!(err.contains("--window"), "error should name the flag for {raw:?}: {err}");
        }
        let err = parse_run(&strs(&["--stream", "--window"])).unwrap_err();
        assert!(err.contains("--window"), "{err}");
    }

    #[test]
    fn window_without_stream_is_rejected_naming_both_flags() {
        for args in [&["--window", "6h"][..], &["--window", "6h", "--seed", "7"][..]] {
            let err = parse_run(&strs(args)).unwrap_err();
            assert!(err.contains("--window"), "{err}");
            assert!(err.contains("--stream"), "{err}");
        }
    }

    #[test]
    fn window_metrics_paths_interleave_the_window_tag() {
        assert_eq!(window_metrics_path("metrics.json", 0), "metrics.w0001.json");
        assert_eq!(window_metrics_path("out/m.json", 11), "out/m.w0012.json");
        // No extension (or a leading-dot name): the tag is appended so the
        // path stays alongside whatever the operator asked for.
        assert_eq!(window_metrics_path("metrics", 0), "metrics.w0001");
        assert_eq!(window_metrics_path(".metrics", 2), ".metrics.w0003");
    }
}
