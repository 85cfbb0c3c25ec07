//! The simulated Internet's domain universe and per-home domain
//! preferences — the generative side of the paper's §6.4.
//!
//! Structure that matters to the figures:
//!
//! * a **whitelist** of 200 popular domains (the paper used the Alexa US
//!   top-200): traffic to these is reported by name; everything else is
//!   anonymized by the firmware and lands in the analysis as an obfuscated
//!   token. Whitelisted traffic carries ≈65% of bytes on average (§6.4).
//! * **category structure**: video/music domains serve large rate-limited
//!   sessions over few connections, search/social domains serve many small
//!   connections — the source of Fig 19's volume-vs-connection asymmetry.
//! * **per-home taste**: every home permutes the within-category rankings,
//!   so the most popular domains are shared across homes (Google, YouTube,
//!   Facebook are top-10 nearly everywhere — Fig 18) while the tail is
//!   idiosyncratic.

use netstack::AppKind;
use serde::{Deserialize, Serialize};
use simnet::dns::{DomainName, ZoneDb};
use simnet::rng::{DetRng, ZipfTable};
use simnet::time::SimDuration;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Service category of a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Category {
    /// Search engines and portals.
    Search,
    /// Video streaming.
    Video,
    /// Audio streaming.
    Music,
    /// Social networks.
    Social,
    /// Shopping.
    Shopping,
    /// Cloud storage / sync.
    CloudStorage,
    /// News and media sites.
    News,
    /// Software/OS vendors, updates, CDNs.
    Tech,
    /// VoIP services.
    Voip,
    /// Gaming services.
    Gaming,
    /// Everything else (the unlisted tail).
    Other,
}

/// One domain in the universe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainInfo {
    /// The (base) domain name.
    pub name: DomainName,
    /// Service category.
    pub category: Category,
    /// The address its servers resolve to.
    pub addr: Ipv4Addr,
    /// True for the 200 whitelisted popular domains.
    pub whitelisted: bool,
}

/// Index into [`DomainUniverse::domains`].
pub type DomainIdx = usize;

/// The full set of domains the simulated Internet serves.
///
/// Build it once per deployment and share it: it also owns the
/// per-category rank samplers every [`HomeTaste`] draws from.
#[derive(Debug, Clone)]
pub struct DomainUniverse {
    domains: Vec<DomainInfo>,
    by_category: BTreeMap<Category, Vec<DomainIdx>>,
    /// Zipf sampler over each category's taste ranks. A table depends only
    /// on the category's length and exponent, so all homes share one.
    zipf: BTreeMap<Category, Arc<ZipfTable>>,
}

/// Named heads of the whitelist: (name, category). Order is global
/// popularity rank; categories drawn to mirror the Alexa-US mix of the era.
const NAMED_HEAD: &[(&str, Category)] = &[
    ("google.com", Category::Search),
    ("youtube.com", Category::Video),
    ("facebook.com", Category::Social),
    ("amazon.com", Category::Shopping),
    ("apple.com", Category::Tech),
    ("twitter.com", Category::Social),
    ("netflix.com", Category::Video),
    ("yahoo.com", Category::Search),
    ("wikipedia.org", Category::News),
    ("ebay.com", Category::Shopping),
    ("bing.com", Category::Search),
    ("hulu.com", Category::Video),
    ("pandora.com", Category::Music),
    ("dropbox.com", Category::CloudStorage),
    ("linkedin.com", Category::Social),
    ("craigslist.org", Category::Shopping),
    ("cnn.com", Category::News),
    ("espn.com", Category::News),
    ("microsoft.com", Category::Tech),
    ("akamai.net", Category::Tech),
    ("spotify.com", Category::Music),
    ("skype.com", Category::Voip),
    ("xboxlive.com", Category::Gaming),
    ("steampowered.com", Category::Gaming),
    ("instagram.com", Category::Social),
    ("tumblr.com", Category::Social),
    ("reddit.com", Category::News),
    ("nytimes.com", Category::News),
    ("paypal.com", Category::Shopping),
    ("vimeo.com", Category::Video),
];

/// Number of whitelisted domains (the paper's Alexa top-200 default).
pub const WHITELIST_LEN: usize = 200;
/// Number of non-whitelisted tail domains in the universe.
pub const TAIL_LEN: usize = 400;

impl DomainUniverse {
    /// Build the standard deterministic universe: 200 whitelisted domains
    /// (30 named heads plus generated fillers) and a 400-domain tail.
    pub fn standard() -> DomainUniverse {
        let mut domains = Vec::with_capacity(WHITELIST_LEN + TAIL_LEN);
        let filler_categories = [
            Category::News,
            Category::Shopping,
            Category::Tech,
            Category::Social,
            Category::Search,
            Category::Video,
            Category::Music,
        ];
        for (i, (name, category)) in NAMED_HEAD.iter().enumerate() {
            domains.push(DomainInfo {
                name: DomainName::new(name).expect("static names are valid"),
                category: *category,
                addr: Self::addr_for(i),
                whitelisted: true,
            });
        }
        for i in NAMED_HEAD.len()..WHITELIST_LEN {
            let category = filler_categories[i % filler_categories.len()];
            domains.push(DomainInfo {
                name: DomainName::new(&format!("site{i:03}.com")).expect("generated name valid"),
                category,
                addr: Self::addr_for(i),
                whitelisted: true,
            });
        }
        for i in 0..TAIL_LEN {
            // The tail mixes generic sites with unlisted CDN/video hosts, so
            // anonymized traffic still carries meaningful volume (≈35%).
            let category = match i % 10 {
                0 | 1 => Category::Video,
                2 => Category::CloudStorage,
                3 => Category::Tech,
                _ => Category::Other,
            };
            domains.push(DomainInfo {
                name: DomainName::new(&format!("tail{i:03}.net")).expect("generated name valid"),
                category,
                addr: Self::addr_for(WHITELIST_LEN + i),
                whitelisted: false,
            });
        }
        let mut by_category: BTreeMap<Category, Vec<DomainIdx>> = BTreeMap::new();
        for (idx, d) in domains.iter().enumerate() {
            by_category.entry(d.category).or_default().push(idx);
        }
        let zipf = by_category
            .iter()
            .map(|(&category, indices)| {
                (category, Arc::new(ZipfTable::new(indices.len(), zipf_exponent(category))))
            })
            .collect();
        DomainUniverse { domains, by_category, zipf }
    }

    fn addr_for(i: usize) -> Ipv4Addr {
        // Spread servers across documentation-safe public space.
        Ipv4Addr::new(23, 64 + (i / 250) as u8, (i % 250) as u8 + 1, 10)
    }

    /// All domains, whitelist first.
    pub fn domains(&self) -> &[DomainInfo] {
        &self.domains
    }

    /// Look up a domain by index.
    pub fn get(&self, idx: DomainIdx) -> &DomainInfo {
        &self.domains[idx]
    }

    /// Indices of all domains in a category.
    pub fn in_category(&self, category: Category) -> &[DomainIdx] {
        self.by_category.get(&category).map_or(&[], Vec::as_slice)
    }

    /// The default whitelist (first 200 domains), as the firmware consumes it.
    pub fn whitelist(&self) -> Vec<DomainName> {
        self.domains.iter().filter(|d| d.whitelisted).map(|d| d.name.clone()).collect()
    }

    /// Populate a DNS zone with every domain (a `www.` CNAME plus the base
    /// A record, so captured responses include CNAME chains).
    pub fn build_zone(&self) -> ZoneDb {
        let mut zone = ZoneDb::new();
        for d in &self.domains {
            zone.insert_a(d.name.clone(), d.addr, SimDuration::from_secs(300));
            let www = DomainName::new(&format!("www.{}", d.name)).expect("www name valid");
            zone.insert_cname(www, d.name.clone(), SimDuration::from_secs(300));
        }
        zone
    }
}

/// Zipf exponent of a category's taste ranks. Browsing-style categories
/// concentrate hard on a favorite (search engines, social networks);
/// streaming catalogs spread volume across more services. These exponents
/// set the Fig 19 volume-vs-connection concentration.
fn zipf_exponent(category: Category) -> f64 {
    match category {
        Category::Video | Category::Music | Category::Other => 1.5,
        _ => 1.9,
    }
}

/// Which categories an application class draws from, with weights.
fn categories_for(kind: AppKind) -> &'static [(Category, f64)] {
    match kind {
        AppKind::Web => &[
            (Category::Search, 0.34),
            (Category::Social, 0.26),
            (Category::Video, 0.08), // browsing video portals without streaming
            (Category::Shopping, 0.11),
            (Category::News, 0.11),
            (Category::Tech, 0.04),
            (Category::Other, 0.06),
        ],
        AppKind::StreamingVideo => &[(Category::Video, 0.82), (Category::Other, 0.18)],
        AppKind::StreamingAudio => &[(Category::Music, 0.9), (Category::Other, 0.1)],
        AppKind::Voip => &[(Category::Voip, 1.0)],
        AppKind::BulkUpload => &[(Category::Other, 0.75), (Category::CloudStorage, 0.25)],
        AppKind::CloudSync => &[(Category::CloudStorage, 0.9), (Category::Other, 0.1)],
        AppKind::Background => &[(Category::Tech, 0.75), (Category::Other, 0.25)],
        AppKind::Gaming => &[(Category::Gaming, 1.0)],
    }
}

/// A home's personal domain taste: a per-category jittered ranking over the
/// universe, fixed for the life of the home.
#[derive(Debug, Clone)]
pub struct HomeTaste {
    /// Per-category domain orderings (most preferred first).
    order: BTreeMap<Category, Vec<DomainIdx>>,
    /// Zipf sampler per category, shared with the universe.
    zipf: BTreeMap<Category, Arc<ZipfTable>>,
}

impl HomeTaste {
    /// Sample a home's taste. Global rank is respected on average (rank
    /// scores are jittered log-normally), so Google/YouTube stay near the
    /// top of most homes while each home still has personal favorites.
    pub fn sample(universe: &DomainUniverse, rng: &mut DetRng) -> HomeTaste {
        let mut order = BTreeMap::new();
        let mut zipf = BTreeMap::new();
        // BTreeMap iteration is Category-ordered, so the per-category RNG
        // draws below are consumed identically on every construction.
        for (&category, indices) in universe.by_category.iter() {
            let mut scored: Vec<(f64, DomainIdx)> = indices
                .iter()
                .map(|&idx| {
                    // Global popularity decays with universe index; jitter
                    // lets a home promote a personal favorite.
                    let global = 1.0 / (idx as f64 + 2.0);
                    (global * rng.log_normal(0.0, 1.1), idx)
                })
                .collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("scores finite"));
            let ordered: Vec<DomainIdx> = scored.into_iter().map(|(_, idx)| idx).collect();
            zipf.insert(category, Arc::clone(&universe.zipf[&category]));
            order.insert(category, ordered);
        }
        HomeTaste { order, zipf }
    }

    /// Pick a destination domain for a session of the given kind.
    pub fn pick_domain(&self, kind: AppKind, rng: &mut DetRng) -> DomainIdx {
        let cats = categories_for(kind);
        let category = cats[rng.weighted_index_by(cats, |&(_, w)| w)].0;
        let ordered = &self.order[&category];
        let rank = rng.zipf(&self.zipf[&category]);
        ordered[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_counts() {
        let u = DomainUniverse::standard();
        assert_eq!(u.domains().len(), WHITELIST_LEN + TAIL_LEN);
        assert_eq!(u.whitelist().len(), WHITELIST_LEN);
        assert!(u.get(0).whitelisted);
        assert!(!u.get(WHITELIST_LEN).whitelisted);
    }

    #[test]
    fn named_heads_present_and_categorized() {
        let u = DomainUniverse::standard();
        assert_eq!(u.get(0).name.as_str(), "google.com");
        assert_eq!(u.get(6).name.as_str(), "netflix.com");
        assert_eq!(u.get(6).category, Category::Video);
        assert!(u.in_category(Category::Video).len() >= 4);
        assert!(!u.in_category(Category::Voip).is_empty());
        assert!(!u.in_category(Category::Gaming).is_empty());
    }

    #[test]
    fn addresses_unique() {
        let u = DomainUniverse::standard();
        let mut addrs = std::collections::HashSet::new();
        for d in u.domains() {
            assert!(addrs.insert(d.addr), "duplicate address {}", d.addr);
        }
    }

    #[test]
    fn zone_resolves_both_base_and_www() {
        let u = DomainUniverse::standard();
        let zone = u.build_zone();
        let q = simnet::dns::DnsQuery {
            id: 1,
            name: DomainName::new("www.netflix.com").unwrap(),
        };
        let resp = zone.resolve(&q);
        assert_eq!(resp.address(), Some(u.get(6).addr));
        assert_eq!(resp.answers.len(), 2, "CNAME chain captured");
    }

    #[test]
    fn taste_heads_are_shared_across_homes() {
        // Fig 18: the same few domains are top-ranked in most homes.
        let u = DomainUniverse::standard();
        let root = DetRng::new(31);
        let mut google_top = 0;
        let homes = 60;
        for i in 0..homes {
            let taste = HomeTaste::sample(&u, &mut root.derive_indexed("taste", i));
            let search_order = &taste.order[&Category::Search];
            // google.com is universe index 0.
            let google_rank = search_order.iter().position(|&d| d == 0).unwrap();
            if google_rank < 3 {
                google_top += 1;
            }
        }
        assert!(
            google_top > homes / 2,
            "google should rank top-3 in search for most homes: {google_top}/{homes}"
        );
    }

    #[test]
    fn tastes_share_the_universe_rank_tables() {
        let u = DomainUniverse::standard();
        let root = DetRng::new(30);
        let t1 = HomeTaste::sample(&u, &mut root.derive_indexed("taste", 1));
        let t2 = HomeTaste::sample(&u, &mut root.derive_indexed("taste", 2));
        for (category, table) in &u.zipf {
            assert!(Arc::ptr_eq(table, &t1.zipf[category]));
            assert!(Arc::ptr_eq(&t1.zipf[category], &t2.zipf[category]));
            assert_eq!(table.len(), u.in_category(*category).len());
        }
    }

    #[test]
    fn taste_tails_are_idiosyncratic() {
        let u = DomainUniverse::standard();
        let root = DetRng::new(32);
        let t1 = HomeTaste::sample(&u, &mut root.derive_indexed("taste", 1));
        let t2 = HomeTaste::sample(&u, &mut root.derive_indexed("taste", 2));
        assert_ne!(
            t1.order[&Category::News], t2.order[&Category::News],
            "two homes should not share an identical ranking"
        );
    }

    #[test]
    fn video_sessions_hit_video_domains() {
        let u = DomainUniverse::standard();
        let root = DetRng::new(33);
        let taste = HomeTaste::sample(&u, &mut root.derive("taste"));
        let mut rng = root.derive("picks");
        let mut video_or_other = 0;
        for _ in 0..500 {
            let idx = taste.pick_domain(AppKind::StreamingVideo, &mut rng);
            let cat = u.get(idx).category;
            assert!(
                matches!(cat, Category::Video | Category::Other),
                "video session went to {cat:?}"
            );
            if cat == Category::Video {
                video_or_other += 1;
            }
        }
        assert!(video_or_other > 300, "most video sessions hit Video domains");
    }

    #[test]
    fn picks_concentrate_on_preferred_head() {
        let u = DomainUniverse::standard();
        let root = DetRng::new(34);
        let taste = HomeTaste::sample(&u, &mut root.derive("taste"));
        let mut rng = root.derive("picks");
        let mut counts: BTreeMap<DomainIdx, u32> = BTreeMap::new();
        for _ in 0..2_000 {
            *counts.entry(taste.pick_domain(AppKind::Web, &mut rng)).or_default() += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > 100, "a favorite domain must dominate: max {max}");
        assert!(counts.len() > 30, "the tail must be long: {} distinct", counts.len());
    }

    #[test]
    fn bulk_upload_mostly_unwhitelisted() {
        // The paper's scientific-data uploader pushed to a university host,
        // invisible to the whitelist. Our BulkUpload class mirrors that.
        let u = DomainUniverse::standard();
        let root = DetRng::new(35);
        let taste = HomeTaste::sample(&u, &mut root.derive("taste"));
        let mut rng = root.derive("picks");
        let unlisted = (0..300)
            .filter(|_| !u.get(taste.pick_domain(AppKind::BulkUpload, &mut rng)).whitelisted)
            .count();
        assert!(unlisted > 150, "bulk uploads should often leave the whitelist: {unlisted}");
    }
}
