//! Deterministic observability for the BISmark reproduction.
//!
//! The deployment the paper describes lived or died on platform telemetry:
//! BISmark's operators watched per-router upload health, outages, and
//! dataset freshness to produce Tables 1–2 and the §3 availability
//! analysis. This crate is that telemetry layer for the reproduction, with
//! one extra obligation the real platform never had: **instrumentation must
//! not perturb results**. Concretely:
//!
//! * Metrics never feed back into simulation state. A handle is a write-only
//!   sink; nothing in the simulation reads one.
//! * Every exported value is an **order-independent aggregate** (atomic sums,
//!   bucket counts, maxima), so parallel home threads produce the same
//!   export regardless of interleaving or thread count.
//! * Export order is fixed: the registry keys metrics by name in `BTreeMap`s,
//!   so `metrics.json` is byte-identical across repeat runs of the same
//!   seeded study.
//! * Durations recorded by simulation code are **sim-time** (microseconds of
//!   virtual time). Wall-clock exists only as [`WallSpan`] host-side phase
//!   profiling, which is deliberately excluded from `metrics.json` and
//!   appears only in the human text summary, clearly marked.
//! * Hot-path increments are allocation-free: handles are `&'static`
//!   references handed out once at registration ([`counter`], [`histogram`]),
//!   and [`Counter::add`] / [`Histogram::record`] are a relaxed atomic op
//!   each — no `format!`, no boxing, no locking. The counting-allocator test
//!   in `crates/firmware/tests/alloc.rs` pins this.
//!
//! The registry is process-global (metric names are `&'static str`, handles
//! are leaked once). Callers that want per-run numbers — the CLI's
//! `--metrics` path and the observer-effect test suite — call [`reset`]
//! before the run and [`snapshot`] after it.

pub mod manifest;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing event count.
///
/// Increments are relaxed atomic adds: allocation-free, lock-free, and
/// commutative, so totals are deterministic whatever the thread schedule.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-written scalar (record counts, deployment sizes).
///
/// Unlike counters, concurrent `set`s race by design — gauges must only be
/// written from single-threaded phases (study setup, post-merge accounting)
/// so the exported value stays deterministic.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Cumulative histogram over `u64` samples (sim-time microseconds, byte
/// sizes, ...) with fixed bucket bounds.
///
/// A sample lands in the first bucket whose upper bound is `>=` the value;
/// values above the last bound land in the overflow bucket. Bucket counts,
/// the running sum, the sample count, and the maximum are all
/// order-independent, so merged or multi-threaded recording is
/// deterministic.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Allocation-free: a partition-point over the fixed
    /// bounds plus four relaxed atomic ops.
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// The bucket upper bounds this histogram was registered with.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn freeze(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn zero(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Host-side wall-clock phase profiling (simulate / snapshot / per-figure
/// analysis). Callers measure with their own `Instant` (behind a justified
/// `simlint: allow(wall-clock)`) and hand the elapsed microseconds in; this
/// type never touches the host clock itself.
///
/// Wall spans appear in the human text summary only — never in
/// `metrics.json`, which must stay byte-identical across repeat runs.
#[derive(Debug, Default)]
pub struct WallSpan {
    total_micros: AtomicU64,
    count: AtomicU64,
}

impl WallSpan {
    /// Record one measured phase duration.
    pub fn record_micros(&self, micros: u64) {
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// Frozen histogram state, as exported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (inclusive).
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts; one longer than `bounds` (overflow last).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (0 if empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Fold another snapshot with identical bounds into this one. Bucket
    /// counts, totals, and maxima all combine commutatively, so merging
    /// per-shard or per-run snapshots is order-independent.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.bounds, other.bounds, "cannot merge histograms with different bounds");
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean sample value, rounded down (0 if empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Frozen wall-span state (text summary only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WallSnapshot {
    /// Accumulated wall time across all recordings.
    pub total_micros: u64,
    /// Number of recordings.
    pub count: u64,
}

/// A frozen, fixed-order view of every registered metric.
///
/// All maps are `BTreeMap`s keyed by metric name, so iteration — and
/// therefore the JSON and text renderings — is byte-stable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Wall-clock phase spans — excluded from [`Snapshot::to_json`].
    pub wall: BTreeMap<String, WallSnapshot>,
}

impl Snapshot {
    /// Render the deterministic sections as JSON: `counters`, `gauges`, and
    /// `histograms`, each an object sorted by metric name. Wall-clock spans
    /// are deliberately absent — they are host profiling, not results.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        json_u64_map(&mut out, "counters", &self.counters);
        out.push(',');
        json_u64_map(&mut out, "gauges", &self.gauges);
        out.push(',');
        json_key(&mut out, "histograms");
        out.push('{');
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_key(&mut out, name);
            out.push('{');
            json_key(&mut out, "bounds");
            json_u64_array(&mut out, &h.bounds);
            out.push(',');
            json_key(&mut out, "buckets");
            json_u64_array(&mut out, &h.buckets);
            out.push(',');
            for (k, v) in [("count", h.count), ("sum", h.sum), ("max", h.max)] {
                json_key(&mut out, k);
                out.push_str(&v.to_string());
                if k != "max" {
                    out.push(',');
                }
            }
            out.push('}');
        }
        out.push('}');
        out.push('}');
        out
    }
}

fn json_key(out: &mut String, key: &str) {
    out.push('"');
    json_escape_into(out, key);
    out.push_str("\":");
}

fn json_u64_map(out: &mut String, key: &str, map: &BTreeMap<String, u64>) {
    json_key(out, key);
    out.push('{');
    for (i, (name, value)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_key(out, name);
        out.push_str(&value.to_string());
    }
    out.push('}');
}

fn json_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

/// Minimal JSON string escaping (quotes, backslash, control characters).
pub(crate) fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, &'static Counter>,
    gauges: BTreeMap<&'static str, &'static Gauge>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
    wall: BTreeMap<&'static str, &'static WallSpan>,
}

static REGISTRY: Mutex<Option<Inner>> = Mutex::new(None);

fn with_registry<T>(f: impl FnOnce(&mut Inner) -> T) -> T {
    let mut guard = REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    f(guard.get_or_insert_with(Inner::default))
}

fn assert_valid_name(name: &str) {
    assert!(
        !name.is_empty()
            && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
        "metric name {name:?} must be non-empty lowercase snake_case"
    );
}

/// Register (or fetch) the counter named `name`. Registration happens once
/// per process; the handle is `&'static` and free to cache, clone, and
/// increment from any thread.
pub fn counter(name: &'static str) -> &'static Counter {
    assert_valid_name(name);
    with_registry(|r| {
        *r.counters.entry(name).or_insert_with(|| Box::leak(Box::new(Counter::default())))
    })
}

/// Register (or fetch) the gauge named `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    assert_valid_name(name);
    with_registry(|r| {
        *r.gauges.entry(name).or_insert_with(|| Box::leak(Box::new(Gauge::default())))
    })
}

/// Register (or fetch) the histogram named `name` with the given bucket
/// upper bounds. Re-registering with different bounds is a bug and panics.
pub fn histogram(name: &'static str, bounds: &[u64]) -> &'static Histogram {
    assert_valid_name(name);
    with_registry(|r| {
        let h =
            *r.histograms.entry(name).or_insert_with(|| Box::leak(Box::new(Histogram::new(bounds))));
        assert_eq!(
            h.bounds(),
            bounds,
            "histogram {name} re-registered with different bounds"
        );
        h
    })
}

/// Register (or fetch) the wall-clock span named `name`.
pub fn wall_span(name: &'static str) -> &'static WallSpan {
    assert_valid_name(name);
    with_registry(|r| {
        *r.wall.entry(name).or_insert_with(|| Box::leak(Box::new(WallSpan::default())))
    })
}

/// Bucket bounds for sim-time durations, in microseconds: 1 ms up to one
/// day, one decade-ish step at a time. Shared by every duration histogram
/// so their snapshots are mergeable.
pub const DURATION_BOUNDS_MICROS: [u64; 10] = [
    1_000,          // 1 ms
    10_000,         // 10 ms
    100_000,        // 100 ms
    1_000_000,      // 1 s
    10_000_000,     // 10 s
    60_000_000,     // 1 min
    600_000_000,    // 10 min
    3_600_000_000,  // 1 h
    21_600_000_000, // 6 h
    86_400_000_000, // 1 day
];

/// Freeze every registered metric into a fixed-order [`Snapshot`].
pub fn snapshot() -> Snapshot {
    with_registry(|r| Snapshot {
        counters: r.counters.iter().map(|(&k, c)| (k.to_string(), c.get())).collect(),
        gauges: r.gauges.iter().map(|(&k, g)| (k.to_string(), g.get())).collect(),
        histograms: r.histograms.iter().map(|(&k, h)| (k.to_string(), h.freeze())).collect(),
        wall: r
            .wall
            .iter()
            .map(|(&k, w)| {
                (
                    k.to_string(),
                    WallSnapshot {
                        total_micros: w.total_micros.load(Ordering::Relaxed),
                        count: w.count.load(Ordering::Relaxed),
                    },
                )
            })
            .collect(),
    })
}

/// Zero every registered metric (registrations survive, so the exported
/// key set is unchanged). The CLI calls this before an instrumented run;
/// tests call it to isolate per-run numbers in a shared process.
pub fn reset() {
    with_registry(|r| {
        for c in r.counters.values() {
            c.0.store(0, Ordering::Relaxed);
        }
        for g in r.gauges.values() {
            g.0.store(0, Ordering::Relaxed);
        }
        for h in r.histograms.values() {
            h.zero();
        }
        for w in r.wall.values() {
            w.total_micros.store(0, Ordering::Relaxed);
            w.count.store(0, Ordering::Relaxed);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share the process-global registry; each uses unique metric
    // names so parallel execution cannot interfere.

    #[test]
    fn counter_accumulates_and_survives_in_snapshot() {
        let c = counter("test_counter_basic_total");
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let snap = snapshot();
        assert_eq!(snap.counters["test_counter_basic_total"], 42);
    }

    #[test]
    fn counter_handle_is_idempotent() {
        let a = counter("test_counter_idem_total");
        let b = counter("test_counter_idem_total");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert!(std::ptr::eq(a, b), "same name must yield the same handle");
    }

    #[test]
    fn gauge_takes_last_write() {
        let g = gauge("test_gauge_value");
        g.set(7);
        g.set(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    #[should_panic(expected = "snake_case")]
    fn bad_metric_names_are_rejected() {
        counter("Bad-Name");
    }

    #[test]
    fn histogram_bucketing_places_samples_on_bound_edges() {
        let h = histogram("test_hist_bucketing_micros", &[10, 100, 1_000]);
        // On-edge values belong to the bucket they bound (inclusive upper).
        for v in [1, 10, 11, 100, 1_000, 1_001] {
            h.record(v);
        }
        let snap = snapshot();
        let hs = &snap.histograms["test_hist_bucketing_micros"];
        assert_eq!(hs.bounds, vec![10, 100, 1_000]);
        assert_eq!(hs.buckets, vec![2, 2, 1, 1], "<=10, <=100, <=1000, overflow");
        assert_eq!(hs.count, 6);
        assert_eq!(hs.sum, 1 + 10 + 11 + 100 + 1_000 + 1_001);
        assert_eq!(hs.max, 1_001);
        assert_eq!(hs.mean(), hs.sum / 6);
    }

    #[test]
    fn histogram_merge_is_commutative_and_exact() {
        let mut a = HistogramSnapshot {
            bounds: vec![10, 100],
            buckets: vec![1, 2, 3],
            count: 6,
            sum: 500,
            max: 400,
        };
        let b = HistogramSnapshot {
            bounds: vec![10, 100],
            buckets: vec![4, 0, 1],
            count: 5,
            sum: 120,
            max: 110,
        };
        let mut ba = b.clone();
        ba.merge(&a);
        a.merge(&b);
        assert_eq!(a, ba, "merge must be commutative");
        assert_eq!(a.buckets, vec![5, 2, 4]);
        assert_eq!((a.count, a.sum, a.max), (11, 620, 400));
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = HistogramSnapshot {
            bounds: vec![10],
            buckets: vec![0, 0],
            count: 0,
            sum: 0,
            max: 0,
        };
        let b = HistogramSnapshot {
            bounds: vec![20],
            buckets: vec![0, 0],
            count: 0,
            sum: 0,
            max: 0,
        };
        a.merge(&b);
    }

    #[test]
    fn snapshot_keys_are_sorted() {
        counter("test_order_zzz_total").inc();
        counter("test_order_aaa_total").inc();
        counter("test_order_mmm_total").inc();
        let snap = snapshot();
        let keys: Vec<&String> = snap.counters.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "export order must be name-sorted, not registration-sorted");
    }

    #[test]
    fn json_is_fixed_order_and_excludes_wall_spans() {
        let mut snap = Snapshot::default();
        snap.counters.insert("b_total".into(), 2);
        snap.counters.insert("a_total".into(), 1);
        snap.gauges.insert("g".into(), 7);
        snap.histograms.insert(
            "h_micros".into(),
            HistogramSnapshot {
                bounds: vec![10],
                buckets: vec![1, 0],
                count: 1,
                sum: 3,
                max: 3,
            },
        );
        snap.wall.insert("host_phase".into(), WallSnapshot { total_micros: 5, count: 1 });
        let json = snap.to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a_total\":1,\"b_total\":2},\"gauges\":{\"g\":7},\
             \"histograms\":{\"h_micros\":{\"bounds\":[10],\"buckets\":[1,0],\
             \"count\":1,\"sum\":3,\"max\":3}}}"
        );
        assert!(!json.contains("host_phase"), "wall spans must not reach the JSON export");
    }

    #[test]
    fn reset_zeroes_values_but_keeps_registrations() {
        let c = counter("test_reset_keeps_keys_total");
        let h = histogram("test_reset_hist_micros", &DURATION_BOUNDS_MICROS);
        c.add(5);
        h.record(123);
        reset();
        assert_eq!(c.get(), 0);
        let snap = snapshot();
        assert_eq!(snap.counters["test_reset_keeps_keys_total"], 0);
        let hs = &snap.histograms["test_reset_hist_micros"];
        assert_eq!((hs.count, hs.sum, hs.max), (0, 0, 0));
        assert!(hs.buckets.iter().all(|&b| b == 0));
    }

    #[test]
    fn duration_bounds_are_strictly_increasing() {
        assert!(DURATION_BOUNDS_MICROS.windows(2).all(|w| w[0] < w[1]));
    }
}
