//! Table 1 and the full report's compute and render paths.

use bench::shared::{print_once, report, study, windows};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_table1(c: &mut Criterion) {
    let data = &study().datasets;
    print_once("Table 1: country classification", || {
        report()
            .table1
            .iter()
            .map(|r| format!("  {:<16} {:<11} {}\n", r.country.name(), r.region.to_string(), r.routers))
            .collect()
    });
    c.bench_function("table1_countries", |b| {
        b.iter(|| black_box(analysis::highlights::table1(data)))
    });
}

fn bench_full_report(c: &mut Criterion) {
    let data = &study().datasets;
    let w = windows();
    c.bench_function("full_report_compute", |b| {
        b.iter(|| black_box(analysis::StudyReport::compute(data, w)))
    });
    c.bench_function("full_report_render", |b| {
        b.iter(|| black_box(report().render(data).len()))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_table1, bench_full_report
);
criterion_main!(benches);
