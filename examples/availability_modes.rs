//! Figure 6 up close: simulate three archetype households — an always-on
//! US home, a router-as-appliance Chinese home, and a flaky-ISP home —
//! and print their heartbeat availability timelines.
//!
//! ```sh
//! cargo run --release --example availability_modes
//! ```

use analysis::render;
use bismark::homesim::{HomeSim, SimParams};
use bismark::study::StudyWindows;
use collector::windows::Window;
use collector::{Collector, RouterMeta};
use firmware::records::RouterId;
use household::availability::{AvailabilityModel, PowerMode};
use household::domains::DomainUniverse;
use household::{Country, HomeConfig, HomeId};
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};

fn main() {
    let days = 21;
    let span = Window {
        start: SimTime::EPOCH,
        end: SimTime::EPOCH + SimDuration::from_days(days),
    };
    let windows = StudyWindows::scaled(span);
    let universe = DomainUniverse::standard();
    let zone = universe.build_zone();
    let collector = Collector::new();

    // Three hand-built archetypes. We sample a base home per country and
    // then pin its availability model so each mode is guaranteed to show.
    let root = DetRng::new(6);
    let mut homes: Vec<HomeConfig> = Vec::new();

    let home_rng = root.derive_indexed("home", 0);
    let mut always_on = HomeConfig::sample(HomeId(0), Country::UnitedStates, &home_rng, &universe);
    always_on.availability = AvailabilityModel {
        power: PowerMode::AlwaysOn { reboot_rate_per_month: 1.0, extended_off_rate_per_month: 0.0 },
        outage_rate_per_day: 0.02,
        outage_median_mins: 20.0,
        outage_sigma: 1.0,
        utc_offset_hours: -5,
    };
    homes.push(always_on);

    let home_rng = root.derive_indexed("home", 1);
    let mut appliance = HomeConfig::sample(HomeId(1), Country::China, &home_rng, &universe);
    appliance.availability = AvailabilityModel {
        power: PowerMode::Appliance {
            weekday_on_hour: 18.5,
            weekday_hours: 3.0,
            weekend_on_hour: 11.0,
            weekend_hours: 8.0,
            skip_day_prob: 0.1,
        },
        outage_rate_per_day: 0.2,
        outage_median_mins: 30.0,
        outage_sigma: 1.2,
        utc_offset_hours: 8,
    };
    homes.push(appliance);

    let home_rng = root.derive_indexed("home", 2);
    let mut flaky = HomeConfig::sample(HomeId(2), Country::UnitedStates, &home_rng, &universe);
    flaky.availability = AvailabilityModel {
        power: PowerMode::AlwaysOn { reboot_rate_per_month: 0.5, extended_off_rate_per_month: 0.0 },
        outage_rate_per_day: 3.0, // sporadic ISP outages for days on end
        outage_median_mins: 45.0,
        outage_sigma: 1.5,
        utc_offset_hours: -5,
    };
    homes.push(flaky);

    for home in &homes {
        collector.register(RouterMeta {
            router: RouterId(home.id.0),
            country: home.country,
            traffic_consent: false,
        });
        HomeSim::new(SimParams {
            cfg: home,
            universe: &universe,
            zone: &zone,
            windows: &windows,
            seed: 6,
            reliable_upload: false,
            faults: None,
            cgn: None,
        })
        .run(&collector);
    }

    let data = collector.drain_delta();
    for (label, id, tz) in [
        ("(a) always-on (US, EDT)", 0u32, -5),
        ("(b) router as appliance (China, CST)", 1, 8),
        ("(c) sporadic ISP outages (US, EDT)", 2, -5),
    ] {
        let up = analysis::availability::fig6_timeline(&data, RouterId(id), span);
        println!(
            "{}",
            render::timeline(&format!("Figure 6{label} — '#' = heartbeats arriving"), &up, span)
        );
        let log = &data.heartbeats[&RouterId(id)];
        println!(
            "  coverage: {:.1}% of the window (local offset UTC{tz:+})\n",
            log.coverage(span.start, span.end) * 100.0
        );
    }
}
