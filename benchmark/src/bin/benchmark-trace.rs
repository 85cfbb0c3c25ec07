//! `benchmark-trace` — the traced child of `benchmark`.
//!
//! ```text
//! benchmark-trace --workload W [--seed S] [--smoke]
//! ```
//!
//! Runs one workload with a counting global allocator, times the calls
//! into each layer's public functions, and prints the per-layer metrics
//! and output digests on stdout in the line protocol `benchmark` reads.
//! It prints each span's self time on stderr and writes the spans to
//! `target/bench/trace-<workload>.json` in Chrome trace format. The
//! untraced runs are a separate binary so that they keep the system
//! allocator.

use analysis::StudyReport;
use bismark_benchmark::catalog::Catalog;
use bismark_benchmark::digest::Digests;
use bismark_benchmark::run::run_workload;
use bismark_benchmark::stats::percentile;
use bismark_benchmark::trace::Trace;
use bismark_benchmark::workload::{Scale, Workload, DEFAULT_SEED, OUT_DIR, THREADS};
use bismark_benchmark::Sample;
use cgn::CgnPlan;
use faultlab::FaultPlan;
use firmware::records::RouterId;
use household::home::build_deployment_scaled;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and bytes requested.
struct Counting;

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each keeps `System`'s guarantees; the counters are statistics only and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn alloc_counts() -> [u64; 2] {
    [ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed)]
}

const MIB: f64 = 1024.0 * 1024.0;

fn parse(args: &[String]) -> Result<(Workload, u64, Scale), String> {
    let (mut workload, mut seed, mut scale) = (None, DEFAULT_SEED, Scale::Bench);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("flag {flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "flag --seed expects a number")?,
            "--smoke" => scale = Scale::Smoke,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, seed, scale))
}

/// Run `f` as a span named `name`; return its result and duration.
fn timed<T>(trace: &mut Trace, parent: usize, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
    let span = trace.start(name, Some(parent));
    let start = Instant::now();
    let out = f();
    let took = start.elapsed();
    trace.end(span);
    (out, took)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, scale) = parse(&args).unwrap_or_else(|e| {
        eprintln!("benchmark-trace: {e}");
        std::process::exit(2)
    });
    let config = workload.config(seed, scale);
    let mut trace = Trace::default();
    let root = trace.start("run", None);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };

    // The set-up layers, timed on their own: the study repeats these
    // calls inside `run_study`, where nothing outside can see them.
    let (homes, took) = timed(&mut trace, root, "household.build_deployment", || {
        build_deployment_scaled(config.seed, config.homes)
    });
    put("household.build_deployment_s", took.as_secs_f64());
    let (_, took) = timed(&mut trace, root, "household.zone_build", || {
        household::domains::DomainUniverse::standard().build_zone()
    });
    put("household.zone_build_s", took.as_secs_f64());
    let span = config.windows.span;
    let plan_s = config.faults.map_or(0.0, |scenario| {
        let routers: Vec<RouterId> = homes.iter().map(|h| RouterId(h.id.0)).collect();
        let plan = timed(&mut trace, root, "faultlab.plan", || {
            FaultPlan::scenario(scenario, config.seed, span, &routers)
        });
        plan.1.as_secs_f64()
    });
    put("faultlab.plan_s", plan_s);
    let plan_s = config.cgn.map_or(0.0, |scenario| {
        let deployment: Vec<_> = homes.iter().map(|h| (RouterId(h.id.0), h.country)).collect();
        let plan = timed(&mut trace, root, "cgn.plan", || {
            CgnPlan::scenario(scenario, config.seed, span, &deployment)
        });
        plan.1.as_secs_f64()
    });
    put("cgn.plan_s", plan_s);
    drop(homes);

    let run = run_workload(workload, seed, scale, &mut trace, root, alloc_counts);
    let data = &run.output.datasets;
    // One full recompute on the final data: in batch that is the report's
    // own compute; a stream builds its report incrementally instead.
    let full_recompute = if run.windows.is_empty() {
        run.compute
    } else {
        let (_, took) = timed(&mut trace, root, "analysis.full_recompute", || {
            StudyReport::compute(data, run.output.windows.report_windows())
        });
        took
    };
    let snapshot = obs::snapshot();
    let (digests, _) = timed(&mut trace, root, "checks.digest", || {
        Digests::compute(&run.rendered, data, &snapshot)
    });
    trace.end(root);

    let records = run.records() as f64;
    put("trace.wall_s", run.wall.as_secs_f64());
    put("study.run_cpu_s", run.study_cpu_s);
    put("study.parallel_eff", run.study_cpu_s / (THREADS as f64 * run.study.as_secs_f64()));
    put("study.cpu_ns_per_record", run.study_cpu_s * 1e9 / records);
    put("study.allocs", run.study_allocs[0] as f64);
    put("study.alloc_mib", run.study_allocs[1] as f64 / MIB);
    for (metric, counter) in [
        ("work.heartbeats_emitted", "heartbeats_emitted_total"),
        ("work.packets_forwarded", "packets_forwarded_total"),
        ("work.flows_started", "flows_started_total"),
        ("work.dhcp_leases", "dhcp_leases_total"),
        ("work.uploader_sealed", "uploader_sealed_total"),
        ("work.uploader_retries", "uploader_retries_total"),
        ("work.cgn_hop_mappings", "cgn_hop_mappings_total"),
        ("work.cgn_probes", "cgn_probes_total"),
        ("work.punch_trials", "cgn_punch_trials_total"),
    ] {
        // A counter its layer never touched is never registered.
        put(metric, snapshot.counters.get(counter).copied().unwrap_or(0) as f64);
    }
    for (gauge, value) in &snapshot.gauges {
        if let Some(table) = gauge.strip_prefix("dataset_").and_then(|g| g.strip_suffix("_records"))
        {
            put(&format!("records.{table}"), *value as f64);
        }
    }
    put("collector.snapshot_s", run.output.timings.snapshot.as_secs_f64());
    put("collector.columnar_heap_mib", data.columnar_heap_bytes() as f64 / MIB);
    let spill = run.output.spill.clone().unwrap_or_default();
    put("collector.spill_segments", spill.segments as f64);
    put("collector.spill_mib", spill.bytes_written as f64 / MIB);
    let uploads = run.output.upload_counters;
    let answered = uploads.accepted + uploads.rejected;
    // The direct-flush path sends no batches, so none were refused.
    put(
        "collector.upload_ack_ratio",
        if answered == 0 { 1.0 } else { uploads.accepted as f64 / answered as f64 },
    );
    put("analysis.compute_s", (run.compute + run.incremental()).as_secs_f64());
    put("analysis.render_s", run.render.as_secs_f64());
    put("analysis.full_recompute_s", full_recompute.as_secs_f64());
    for (name, wall) in &snapshot.wall {
        if let Some(part) = name.strip_prefix("analysis_") {
            put(&format!("analysis.{part}_ms"), wall.total_micros as f64 / 1e3);
        }
    }
    let updates: Vec<f64> = run.windows.iter().map(|w| ms(w.update)).collect();
    let finalizes: Vec<f64> = run.windows.iter().map(|w| ms(w.finalize)).collect();
    let lags: Vec<f64> = run.windows.iter().map(|w| ms(w.update + w.finalize)).collect();
    // Window 0's cycle holds the study's set-up, so cycles start at 1.
    let cycles: Vec<f64> = run.windows.windows(2).map(|p| ms(p[1].closed - p[0].closed)).collect();
    for (prefix, values) in [
        ("analysis.update", &updates),
        ("analysis.finalize", &finalizes),
        ("stream.report_lag", &lags),
        ("stream.window_cycle", &cycles),
    ] {
        put(&format!("{prefix}_p50_ms"), percentile(values, 50.0));
        put(&format!("{prefix}_p90_ms"), percentile(values, 90.0));
    }

    // Every declared metric is printed; one the layers no longer report
    // (a renamed analysis span, say) reads 0 and is named here.
    for metric in Catalog::load().per_layer {
        if metric.name != "trace.overhead_pct" && !m.contains_key(&metric.name) {
            eprintln!(
                "benchmark-trace: {} reported no {}; printing 0",
                workload.name(),
                metric.name
            );
            m.insert(metric.name, 0.0);
        }
    }

    let mut own: Vec<(String, Duration)> = trace.self_times().into_iter().collect();
    own.sort_by_key(|(_, d)| std::cmp::Reverse(*d));
    eprintln!("trace {}: self time by span", workload.name());
    for (name, d) in &own {
        eprintln!("  {name:<32} {:>12.3} ms", ms(*d));
    }
    let path = std::path::Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name()));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, trace.to_chrome_json()))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("trace written to {}", path.display());

    let sample = Sample { metrics: m, digests, checks: run.checks() };
    print!("{}", sample.to_text());
}
