//! The one home-week kernel: a US and an Indian home simulated for seven
//! days each. Deployment construction and whole-study throughput are the
//! repository benchmark's `household.build_deployment_s` and `wall_s`.

use bismark::homesim::{HomeSim, SimParams};
use bismark::study::StudyWindows;
use collector::windows::Window;
use collector::{Collector, RouterMeta};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use firmware::records::RouterId;
use household::domains::DomainUniverse;
use household::{Country, HomeConfig, HomeId};
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};

fn bench_single_home(c: &mut Criterion) {
    let span = Window {
        start: SimTime::EPOCH,
        end: SimTime::EPOCH + SimDuration::from_days(7),
    };
    let windows = StudyWindows::scaled(span);
    let universe = DomainUniverse::standard();
    let zone = universe.build_zone();
    let root = DetRng::new(11);
    let us_home = HomeConfig::sample(HomeId(0), Country::UnitedStates, &root.derive("us"), &universe);
    let in_home = HomeConfig::sample(HomeId(1), Country::India, &root.derive("in"), &universe);

    let mut group = c.benchmark_group("home_simulation_7days");
    group.sample_size(10);
    for (label, home) in [("us_home", &us_home), ("india_home", &in_home)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let collector = Collector::new();
                collector.register(RouterMeta {
                    router: RouterId(home.id.0),
                    country: home.country,
                    traffic_consent: home.traffic_consent,
                });
                HomeSim::new(SimParams {
                    cfg: home,
                    universe: &universe,
                    zone: &zone,
                    windows: &windows,
                    seed: 11,
                    reliable_upload: false,
                    faults: None,
                    cgn: None,
                })
                .run(&collector);
                black_box(collector.drain_delta().record_count())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_home);
criterion_main!(benches);
