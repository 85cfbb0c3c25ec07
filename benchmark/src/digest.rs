//! Output digests: what a run produced, reduced to three stable hashes,
//! and the committed table of them at the default seed.

use crate::workload::{Scale, Workload};
use collector::Datasets;
use std::path::Path;

/// The committed golden digests, one row per workload, scale and seed.
const GOLDEN: &str = include_str!("../workload-digests.tsv");

/// Where `--bless` rewrites the golden table.
pub const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/workload-digests.tsv");

const HEADER: &str = "# Output digests (FNV-1a 64) per workload, scale and seed; rewrite with `benchmark --bless`.\n\
# workload\tscale\tseed\treport\tcsv\tmetrics\n";

/// FNV-1a, 64-bit: stable across Rust releases, unlike std's hasher.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

/// Digests of the rendered report, the CSV public release and the
/// deterministic `metrics.json` sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    /// The rendered per-figure report.
    pub report: u64,
    /// Every CSV file of the public release, names included.
    pub csv: u64,
    /// `metrics.json` without the `spill_*` keys.
    pub metrics: u64,
}

impl Digests {
    /// The names the three digests are printed and stored under.
    pub const NAMES: [&'static str; 3] = ["report", "csv", "metrics"];

    /// Digest one run's outputs.
    pub fn compute(report: &str, datasets: &Datasets, metrics: &obs::Snapshot) -> Digests {
        let mut csv = Fnv::default();
        for (name, body) in collector::export::to_csv(datasets) {
            csv.write(name.as_bytes());
            csv.write(&[0]);
            csv.write(body.as_bytes());
        }
        Digests {
            report: fnv(report.as_bytes()),
            csv: csv.finish(),
            metrics: fnv(metrics_without_spill(metrics).as_bytes()),
        }
    }

    /// The digests in [`Digests::NAMES`] order.
    pub fn values(&self) -> [u64; 3] {
        [self.report, self.csv, self.metrics]
    }

    /// Rebuild from values in [`Digests::NAMES`] order.
    pub fn from_values([report, csv, metrics]: [u64; 3]) -> Digests {
        Digests { report, csv, metrics }
    }
}

/// `metrics.json`'s deterministic sections with every `spill_*` key left
/// out: `spill_merge_fanin` is not repeatable with two threads, and the
/// `spill_*_total` counters read 0 in stream mode (see the README).
fn metrics_without_spill(snapshot: &obs::Snapshot) -> String {
    let mut s = snapshot.clone();
    s.counters.retain(|k, _| !k.starts_with("spill_"));
    s.gauges.retain(|k, _| !k.starts_with("spill_"));
    s.histograms.retain(|k, _| !k.starts_with("spill_"));
    s.to_json()
}

fn parse_rows(table: &str) -> Vec<(String, String, u64, Digests)> {
    table
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 6, "golden digest row needs six fields: {l:?}");
            let hex = |s: &str| u64::from_str_radix(s, 16).expect("golden digests are hex");
            let seed = f[2].parse().expect("golden seed is a number");
            (
                f[0].to_string(),
                f[1].to_string(),
                seed,
                Digests::from_values([hex(f[3]), hex(f[4]), hex(f[5])]),
            )
        })
        .collect()
}

/// The committed digests for this workload, scale and seed, if any.
pub fn golden(workload: Workload, scale: Scale, seed: u64) -> Option<Digests> {
    parse_rows(GOLDEN)
        .into_iter()
        .find(|(w, s, sd, _)| w == workload.name() && s == scale.name() && *sd == seed)
        .map(|(.., d)| d)
}

/// Replace (or add) the row for this workload, scale and seed in the
/// golden table at `path`.
pub fn bless(
    path: &Path,
    workload: Workload,
    scale: Scale,
    seed: u64,
    digests: Digests,
) -> std::io::Result<()> {
    let current = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(path, blessed(&current, workload, scale, seed, digests))
}

fn blessed(current: &str, workload: Workload, scale: Scale, seed: u64, digests: Digests) -> String {
    let mut rows: Vec<_> = parse_rows(current)
        .into_iter()
        .filter(|(w, s, sd, _)| !(w == workload.name() && s == scale.name() && *sd == seed))
        .collect();
    rows.push((workload.name().to_string(), scale.name().to_string(), seed, digests));
    rows.sort_by(|a, b| (&a.1, &a.0, a.2).cmp(&(&b.1, &b.0, b.2)));
    let mut out = String::from(HEADER);
    for (w, s, sd, d) in rows {
        let [r, c, m] = d.values();
        out.push_str(&format!("{w}\t{s}\t{sd}\t{r:016x}\t{c:016x}\t{m:016x}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn spill_keys_are_left_out_of_the_metrics_digest() {
        let mut a = obs::Snapshot::default();
        a.counters.insert("flows_started_total".into(), 5);
        let mut b = a.clone();
        b.gauges.insert("spill_merge_fanin".into(), 335);
        assert_eq!(metrics_without_spill(&a), metrics_without_spill(&b));
    }

    #[test]
    fn bless_round_trips_through_the_table() {
        let d = Digests::from_values([1, 2, u64::MAX]);
        let once = blessed("", Workload::TrafficCgn, Scale::Smoke, 7, d);
        let twice = blessed(&once, Workload::TrafficCgn, Scale::Smoke, 7, d);
        assert_eq!(once, twice, "blessing twice replaces the row");
        let rows = parse_rows(&twice);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].3, d);
    }
}
