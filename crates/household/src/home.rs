//! Assembly of complete homes and of the full 126-home deployment.
//!
//! A [`HomeConfig`] bundles everything the simulator needs to run one
//! household: where it is, how its router is powered, what its access link
//! looks like, which devices live in it, its daily rhythm, its domain
//! taste, and its radio neighborhood. [`build_deployment`] instantiates
//! the deployment of Table 1 — the same router counts per country the
//! paper reports — deterministically from one seed.

use crate::availability::AvailabilityModel;
use crate::country::{Country, Region};
use crate::devices::Device;
use crate::diurnal::DiurnalModel;
use crate::domains::{DomainUniverse, HomeTaste};
use crate::neighborhood::sample_neighborhood;
use simnet::link::LinkConfig;
use simnet::rng::DetRng;
use simnet::time::SimDuration;
use simnet::wifi::NeighborAp;
use std::net::Ipv4Addr;

/// Identifier of a home within the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub struct HomeId(pub u32);

impl std::fmt::Display for HomeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "home{:03}", self.0)
    }
}

/// Behavioral quirks observed in specific deployment homes and reproduced
/// as explicit variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Quirk {
    /// §6.2 / Fig 16a: a user who continually uploads scientific data,
    /// saturating the uplink around the clock.
    ScientificUploader,
}

/// Everything needed to simulate one household.
#[derive(Debug, Clone)]
pub struct HomeConfig {
    /// Deployment-wide id.
    pub id: HomeId,
    /// Where the home is.
    pub country: Country,
    /// Router power behavior and ISP outage process.
    pub availability: AvailabilityModel,
    /// The device population, dominant device first.
    pub devices: Vec<Device>,
    /// Daily activity rhythm.
    pub diurnal: DiurnalModel,
    /// Domain preferences.
    pub taste: HomeTaste,
    /// Neighboring access points.
    pub neighborhood: Vec<NeighborAp>,
    /// Downstream access-link model.
    pub down_link: LinkConfig,
    /// Upstream access-link model.
    pub up_link: LinkConfig,
    /// The home's public WAN address.
    pub wan_addr: Ipv4Addr,
    /// Whether the household consented to detailed Traffic collection
    /// (§3.2.2: 25 active US homes in the studied window).
    pub traffic_consent: bool,
    /// Mean application sessions initiated per household per active hour,
    /// before diurnal/usage-weight modulation.
    pub session_rate_per_hour: f64,
    /// Per-heartbeat loss probability on the WAN path to the collector.
    pub heartbeat_loss_prob: f64,
    /// One-way WAN transit from this home to the measurement server.
    pub wan_transit: SimDuration,
    /// Optional behavioral quirk.
    pub quirk: Option<Quirk>,
}

impl HomeConfig {
    /// Sample a home for `country`. The `rng` must be the home's private
    /// stream; all internal processes derive their own substreams from it.
    /// `universe` is the deployment's shared domain universe (see
    /// [`DomainUniverse::standard`]); building it once per deployment
    /// rather than once per home is what keeps large deployments cheap.
    pub fn sample(
        id: HomeId,
        country: Country,
        rng: &DetRng,
        universe: &DomainUniverse,
    ) -> HomeConfig {
        let env = country.environment();
        let mut link_rng = rng.derive("link");
        // Log-uniform capacity inside the country's typical range.
        let (dlo, dhi) = env.down_mbps;
        let (ulo, uhi) = env.up_mbps;
        let down_mbps = (dlo.ln() + link_rng.uniform() * (dhi.ln() - dlo.ln())).exp();
        let up_mbps = (ulo.ln() + link_rng.uniform() * (uhi.ln() - ulo.ln())).exp();
        let down_bps = (down_mbps * 1e6) as u64;
        let up_bps = (up_mbps * 1e6) as u64;
        // Bufferbloat-era CPE: queues sized in bytes, not in delay. 256 KB
        // of uplink buffer at 1 Mbps is two *seconds* of queue — exactly
        // the pathology the paper cites.
        let queue = 256 * 1024;
        // A third of developed-country ISPs deploy burst shaping
        // ("PowerBoost"): short transfers see up to ~2x the sustained rate.
        let boosted = country.region() == Region::Developed && link_rng.chance(0.33);
        let mut mk = |rate: u64| -> LinkConfig {
            let delay = SimDuration::from_millis(link_rng.uniform_int(4, 25));
            if boosted {
                // Bucket sized so a capacity-probe train can straddle the
                // level shift (real PowerBoost buckets are larger; the
                // mechanism, not the magnitude, is what matters here).
                LinkConfig::shaped(rate, rate * 2, 192 * 1024, delay, queue)
            } else {
                LinkConfig::simple(rate, delay, queue)
            }
        };
        let down_link = mk(down_bps);
        let up_link = mk(up_bps);

        let mut dev_rng = rng.derive("devices");
        let devices = crate::devices::sample_home_devices(country, &mut dev_rng);
        let mut hood_rng = rng.derive("neighborhood");
        let neighborhood = sample_neighborhood(country, &mut hood_rng);
        let mut avail_rng = rng.derive("availability");
        let availability = AvailabilityModel::sample(country, &mut avail_rng);
        let mut diurnal_rng = rng.derive("diurnal");
        let diurnal = DiurnalModel::sample(&mut diurnal_rng);
        let mut taste_rng = rng.derive("taste");
        let taste = HomeTaste::sample(universe, &mut taste_rng);

        let mut misc_rng = rng.derive("misc");
        // Traffic consent exists only in the US for the studied window.
        let traffic_consent =
            country == Country::UnitedStates && misc_rng.chance(0.42);
        let wan_addr = Ipv4Addr::new(
            100,
            (64 + (id.0 / 250)) as u8,
            (id.0 % 250) as u8,
            misc_rng.uniform_int(2, 250) as u8,
        );
        // Household appetite: most homes are light users (§6.2).
        let session_rate_per_hour = misc_rng.log_normal(1.25, 0.55).clamp(0.8, 18.0);

        HomeConfig {
            id,
            country,
            availability,
            devices,
            diurnal,
            taste,
            neighborhood,
            down_link,
            up_link,
            wan_addr,
            traffic_consent,
            session_rate_per_hour,
            heartbeat_loss_prob: env.heartbeat_loss_prob,
            wan_transit: SimDuration::from_secs_f64(
                misc_rng.uniform_range(env.wan_transit_ms.0, env.wan_transit_ms.1) / 1e3,
            ),
            quirk: None,
        }
    }

    /// Total number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The dominant (highest usage-weight) device.
    pub fn dominant_device(&self) -> &Device {
        &self.devices[0]
    }
}

/// Instantiate the full deployment of Table 1: 126 homes across 19
/// countries, each sampled from its country profile, deterministically from
/// `seed`.
///
/// Two US Traffic-consent homes receive the [`Quirk::ScientificUploader`]
/// behavior, matching the uplink-saturating households of Fig 16.
pub fn build_deployment(seed: u64) -> Vec<HomeConfig> {
    build_deployment_scaled(seed, 126)
}

/// Largest-remainder apportionment of `homes` across the Table 1 country
/// mix: each country's exact share `homes * count / 126` is floored, and
/// the leftover homes go to the countries with the largest fractional
/// remainders (ties broken in Table 1 order). Exact at `homes == 126` —
/// every country gets precisely its Table 1 router count — and
/// mix-preserving (each share within one home of proportional) at any
/// other size.
fn apportion(homes: u32) -> Vec<(Country, u32)> {
    let counts: Vec<u64> = Country::ALL.iter().map(|c| c.router_count() as u64).collect();
    let total: u64 = counts.iter().sum();
    let mut shares: Vec<u32> = Vec::with_capacity(counts.len());
    let mut rems: Vec<u64> = Vec::with_capacity(counts.len());
    for &count in &counts {
        let exact = u64::from(homes) * count;
        shares.push((exact / total) as u32);
        rems.push(exact % total);
    }
    let mut leftover = homes - shares.iter().sum::<u32>();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(rems[i]));
    for &i in &order {
        if leftover == 0 {
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    Country::ALL.into_iter().zip(shares).collect()
}

/// Instantiate a generatively scaled deployment of `homes` homes: the
/// calibrated Table 1 country mix is preserved by largest-remainder
/// apportionment, and every synthetic home is sampled from its country
/// profile on its own RNG stream (`derive_indexed("home", id)` off the
/// study seed, exactly as the 126-home deployment does). At
/// `homes == 126` this is byte-for-byte [`build_deployment`].
///
/// The Fig 16 uploader quirk scales with the deployment: the first
/// `max(2, homes * 2 / 126)` consenting homes with a modest uplink
/// saturate their upstream around the clock.
pub fn build_deployment_scaled(seed: u64, homes: u32) -> Vec<HomeConfig> {
    build_deployment_with(seed, homes, &DomainUniverse::standard(), 1)
}

/// [`build_deployment_scaled`] against a caller-built `universe`, sampling
/// the homes on `threads` workers. Every home draws only from its own
/// `derive_indexed("home", id)` stream, so the result is identical at any
/// thread count: workers sample contiguous id ranges, the ranges are
/// concatenated in id order, and the quirk pass runs afterwards on the
/// whole deployment.
pub fn build_deployment_with(
    seed: u64,
    homes: u32,
    universe: &DomainUniverse,
    threads: usize,
) -> Vec<HomeConfig> {
    let root = DetRng::new(seed);
    let plan: Vec<(HomeId, Country)> = apportion(homes)
        .into_iter()
        .flat_map(|(country, count)| std::iter::repeat_n(country, count as usize))
        .zip(0..)
        .map(|(country, id)| (HomeId(id), country))
        .collect();
    let sample = |&(id, country): &(HomeId, Country)| {
        HomeConfig::sample(id, country, &root.derive_indexed("home", u64::from(id.0)), universe)
    };
    let chunk = plan.len().div_ceil(threads.max(1)).max(1);
    let mut out: Vec<HomeConfig> = if plan.len() <= chunk {
        plan.iter().map(sample).collect()
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = plan
                .chunks(chunk)
                .map(|part| scope.spawn(move || part.iter().map(sample).collect::<Vec<_>>()))
                .collect();
            let mut out = Vec::with_capacity(plan.len());
            for worker in workers {
                out.extend(worker.join().expect("home sampling threads must not panic"));
            }
            out
        })
    };
    // Assign the uploader quirk to the first consenting homes with a
    // modest uplink, mirroring the paper's two Fig 16 households and
    // keeping their prevalence constant as the deployment grows.
    let target = ((u64::from(homes) * 2) / 126).max(2);
    let mut assigned = 0;
    for home in out.iter_mut() {
        if assigned == target {
            break;
        }
        if home.traffic_consent && home.up_link.rate_bps < 3_000_000 {
            home.quirk = Some(Quirk::ScientificUploader);
            assigned += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_matches_table1() {
        let homes = build_deployment(1);
        assert_eq!(homes.len(), 126);
        let us = homes.iter().filter(|h| h.country == Country::UnitedStates).count();
        let india = homes.iter().filter(|h| h.country == Country::India).count();
        assert_eq!(us, 63);
        assert_eq!(india, 12);
        // Ids unique and dense.
        let mut ids: Vec<u32> = homes.iter().map(|h| h.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 126);
    }

    #[test]
    fn deployment_is_deterministic() {
        let a = build_deployment(7);
        let b = build_deployment(7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.wan_addr, y.wan_addr);
            assert_eq!(x.device_count(), y.device_count());
            assert_eq!(x.session_rate_per_hour, y.session_rate_per_hour);
            assert_eq!(x.dominant_device().mac, y.dominant_device().mac);
        }
        let c = build_deployment(8);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.wan_addr != y.wan_addr),
            "different seeds must differ"
        );
    }

    #[test]
    fn consent_only_in_us_and_roughly_25() {
        let homes = build_deployment(1);
        for h in &homes {
            if h.traffic_consent {
                assert_eq!(h.country, Country::UnitedStates);
            }
        }
        let consenting = homes.iter().filter(|h| h.traffic_consent).count();
        assert!((15..=40).contains(&consenting), "consenting {consenting}");
    }

    #[test]
    fn uploader_quirks_assigned() {
        let homes = build_deployment(1);
        let uploaders: Vec<&HomeConfig> =
            homes.iter().filter(|h| h.quirk == Some(Quirk::ScientificUploader)).collect();
        assert_eq!(uploaders.len(), 2);
        for h in uploaders {
            assert!(h.traffic_consent);
            assert!(h.up_link.rate_bps < 3_000_000);
        }
    }

    #[test]
    fn developed_links_faster() {
        let homes = build_deployment(3);
        let mean_down = |region: Region| {
            let group: Vec<&HomeConfig> =
                homes.iter().filter(|h| h.country.region() == region).collect();
            group.iter().map(|h| h.down_link.rate_bps as f64).sum::<f64>() / group.len() as f64
        };
        assert!(mean_down(Region::Developed) > 3.0 * mean_down(Region::Developing));
    }

    #[test]
    fn links_have_bufferbloat_scale_queues() {
        for h in build_deployment(2).iter().take(20) {
            let drain_secs = h.up_link.queue_limit_bytes as f64 * 8.0 / h.up_link.rate_bps as f64;
            assert!(drain_secs > 0.1, "uplink queue should hold >100 ms of data");
        }
    }

    #[test]
    fn scaled_deployment_at_126_is_the_table1_deployment() {
        let base = build_deployment(7);
        let scaled = build_deployment_scaled(7, 126);
        assert_eq!(base.len(), scaled.len());
        for (a, b) in base.iter().zip(&scaled) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.country, b.country);
            assert_eq!(a.wan_addr, b.wan_addr);
            assert_eq!(a.session_rate_per_hour, b.session_rate_per_hour);
            assert_eq!(a.quirk, b.quirk);
        }
    }

    #[test]
    fn scaled_deployment_preserves_the_country_mix() {
        let homes = build_deployment_scaled(1, 1000);
        assert_eq!(homes.len(), 1000);
        for country in Country::ALL {
            let got = homes.iter().filter(|h| h.country == country).count() as f64;
            let exact = 1000.0 * country.router_count() as f64 / 126.0;
            assert!(
                (got - exact).abs() <= 1.0,
                "{country:?}: {got} homes vs exact share {exact:.2}"
            );
        }
        // US keeps its Table 1 half-share exactly (63/126 divides evenly).
        let us = homes.iter().filter(|h| h.country == Country::UnitedStates).count();
        assert_eq!(us, 500);
        // Ids stay unique and dense at scale.
        let mut ids: Vec<u32> = homes.iter().map(|h| h.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1000);
        // Quirk prevalence scales with the deployment.
        let uploaders = homes.iter().filter(|h| h.quirk == Some(Quirk::ScientificUploader)).count();
        assert_eq!(uploaders, (1000 * 2) / 126);
    }

    #[test]
    fn scaled_deployment_handles_tiny_and_odd_sizes() {
        for n in [1u32, 5, 19, 127, 311] {
            let homes = build_deployment_scaled(3, n);
            assert_eq!(homes.len(), n as usize, "size {n}");
        }
        // The largest country (US) absorbs the first homes of a tiny
        // deployment; every home still gets a valid country profile.
        let five = build_deployment_scaled(3, 5);
        assert!(five.iter().filter(|h| h.country == Country::UnitedStates).count() >= 2);
    }

    #[test]
    fn scaled_deployment_is_deterministic_and_seed_sensitive() {
        let a = build_deployment_scaled(7, 300);
        let b = build_deployment_scaled(7, 300);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.wan_addr, y.wan_addr);
            assert_eq!(x.session_rate_per_hour, y.session_rate_per_hour);
        }
        let c = build_deployment_scaled(8, 300);
        assert!(a.iter().zip(&c).any(|(x, y)| x.wan_addr != y.wan_addr));
        // Growing the deployment keeps each country's block a prefix
        // extension: home ids are stable within the country ordering, so
        // the first homes of a bigger study share nothing *by accident* —
        // each id derives its own stream.
        let big = build_deployment_scaled(7, 600);
        assert_eq!(big.len(), 600);
    }

    #[test]
    fn parallel_deployment_equals_sequential() {
        let universe = DomainUniverse::standard();
        for homes in [1u32, 5, 126, 1000] {
            let sequential = build_deployment_scaled(11, homes);
            for threads in [1usize, 2, 3, 8] {
                let parallel = build_deployment_with(11, homes, &universe, threads);
                assert_eq!(parallel.len(), sequential.len(), "{homes} homes on {threads} threads");
                for (a, b) in sequential.iter().zip(&parallel) {
                    // Debug prints every field, floats exactly.
                    assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "{} differs: {homes} homes on {threads} threads",
                        a.id
                    );
                }
            }
        }
        let table1 = build_deployment(11);
        let scaled = build_deployment_scaled(11, 126);
        assert_eq!(format!("{table1:?}"), format!("{scaled:?}"));
    }

    #[test]
    fn wan_addresses_unique() {
        let homes = build_deployment(1);
        let mut addrs: Vec<Ipv4Addr> = homes.iter().map(|h| h.wan_addr).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 126);
    }
}
