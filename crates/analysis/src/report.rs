//! The full study report: every figure and table of the paper, one field
//! each, plus a text renderer that prints them the way the paper reports
//! them. `EXPERIMENTS.md` is generated from this. The fields are computed
//! by [`IncrementalReport`], the one report engine;
//! [`StudyReport::compute`] runs it over a whole snapshot at once.

use crate::availability::{self, RouterAvailability};
use crate::highlights::{self, Table3, Table4, Table6};
use crate::incremental::IncrementalReport;
use crate::infrastructure;
use crate::render;
use crate::usage;
use collector::windows::Window;
use collector::Datasets;
use household::VendorClass;

/// The windows each analysis slice runs over (mirrors the study's).
#[derive(Debug, Clone, Copy)]
pub struct ReportWindows {
    /// Heartbeats / full span.
    pub heartbeats: Window,
    /// Uptime reports.
    pub uptime: Window,
    /// Device censuses and associations.
    pub devices: Window,
    /// WiFi scans.
    pub wifi: Window,
    /// Capacity probes.
    pub capacity: Window,
    /// Traffic capture.
    pub traffic: Window,
}

impl ReportWindows {
    /// Every data set over the same `span`.
    pub fn spanning(span: Window) -> ReportWindows {
        ReportWindows {
            heartbeats: span,
            uptime: span,
            devices: span,
            wifi: span,
            capacity: span,
            traffic: span,
        }
    }
}

/// Every computed result, one field per paper artifact.
#[derive(Debug)]
pub struct StudyReport {
    /// The windows used.
    pub windows: ReportWindows,
    /// Per-router availability (input to Figs 3–6).
    pub routers: Vec<RouterAvailability>,
    /// Figure 3.
    pub fig3: availability::Fig3,
    /// Figure 4.
    pub fig4: availability::Fig4,
    /// Figure 5.
    pub fig5: Vec<availability::Fig5Point>,
    /// Figure 6 archetype routers (always-on, appliance, flaky).
    pub fig6: (
        Option<firmware::records::RouterId>,
        Option<firmware::records::RouterId>,
        Option<firmware::records::RouterId>,
    ),
    /// Figure 7.
    pub fig7: crate::stats::Cdf,
    /// Figure 8.
    pub fig8: infrastructure::Fig8,
    /// Figure 9.
    pub fig9: infrastructure::Fig9,
    /// Figure 10.
    pub fig10: infrastructure::Fig10,
    /// Figure 11.
    pub fig11: infrastructure::Fig11,
    /// Figure 12.
    pub fig12: Vec<(VendorClass, usize)>,
    /// Figure 13.
    pub fig13: usage::Fig13,
    /// Figure 14 (the busiest ordinary traffic home).
    pub fig14: Option<usage::Fig14>,
    /// Figure 15.
    pub fig15: Vec<usage::Fig15Point>,
    /// Figure 16 (over-saturating homes).
    pub fig16: Vec<usage::Fig14>,
    /// Figure 17.
    pub fig17: usage::Fig17,
    /// Figure 18.
    pub fig18: Vec<usage::Fig18Row>,
    /// Figure 19.
    pub fig19: usage::Fig19,
    /// Figure 20 device mixes.
    pub fig20: Vec<usage::Fig20Device>,
    /// Table 1.
    pub table1: Vec<highlights::Table1Row>,
    /// Table 2.
    pub table2: Vec<highlights::Table2Row>,
    /// Table 3.
    pub table3: Table3,
    /// Table 4.
    pub table4: Table4,
    /// Table 5.
    pub table5: Vec<infrastructure::Table5Row>,
    /// Table 6.
    pub table6: Table6,
    /// §4.2 median coverage by country.
    pub coverage: Vec<(household::Country, f64, usize)>,
    /// Companion latency data set, summarized per region.
    pub latency: Vec<crate::latency::RegionLatency>,
    /// NAT characterization (`None` unless the run collected NAT probes,
    /// i.e. a `--cgn` scenario was armed).
    pub natchar: Option<crate::natchar::NatCharacterization>,
}

impl StudyReport {
    /// Compute every figure and table from a snapshot: the
    /// [`IncrementalReport`] fold over one window that holds all of
    /// `data`.
    pub fn compute(data: &Datasets, windows: ReportWindows) -> StudyReport {
        let mut report = IncrementalReport::new(windows);
        report.update(data);
        report.finalize(data)
    }

    /// Render the whole report as text, figure by figure.
    pub fn render(&self, data: &Datasets) -> String {
        let mut out = String::new();

        out.push_str(&render::table(
            "Table 1: country classification",
            &["country", "region", "routers"],
            &self
                .table1
                .iter()
                .map(|r| {
                    vec![r.country.name().to_string(), r.region.to_string(), r.routers.to_string()]
                })
                .collect::<Vec<_>>(),
        ));
        out.push('\n');
        out.push_str(&render::table(
            "Table 2: data sets",
            &["dataset", "routers", "countries"],
            &self
                .table2
                .iter()
                .map(|r| vec![r.dataset.to_string(), r.routers.to_string(), r.countries.to_string()])
                .collect::<Vec<_>>(),
        ));
        out.push('\n');
        out.push_str(&render::cdf_plot(
            "Figure 3: average downtimes (>=10 min) per day",
            &[("developed", &self.fig3.developed), ("developing", &self.fig3.developing)],
            60,
            12,
        ));
        out.push('\n');
        out.push_str(&render::cdf_plot(
            "Figure 4: downtime duration (seconds)",
            &[("developed", &self.fig4.developed), ("developing", &self.fig4.developing)],
            60,
            12,
        ));
        out.push('\n');
        out.push_str(&render::table(
            "Figure 5: median downtimes vs per-capita GDP",
            &["country", "GDP (PPP $)", "median downtimes", "median duration (min)", "routers"],
            &self
                .fig5
                .iter()
                .map(|p| {
                    vec![
                        p.code.to_string(),
                        p.gdp.to_string(),
                        format!("{:.1}", p.median_downtimes),
                        format!("{:.1}", p.median_duration_secs / 60.0),
                        p.routers.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        ));
        out.push('\n');
        for (label, router) in [
            ("(a) always-on", self.fig6.0),
            ("(b) router-as-appliance", self.fig6.1),
            ("(c) flaky ISP", self.fig6.2),
        ] {
            if let Some(router) = router {
                let tl = availability::fig6_timeline(data, router, self.windows.heartbeats);
                // Show the last two weeks for readability.
                let end = self.windows.heartbeats.end;
                let start = end - simnet::time::SimDuration::from_days(14).min(end.elapsed());
                out.push_str(&render::timeline(
                    &format!("Figure 6{label}: availability of {router}"),
                    &tl,
                    Window { start, end },
                ));
                out.push('\n');
            }
        }
        out.push_str(&render::cdf_plot(
            "Figure 7: devices per home",
            &[("all homes", &self.fig7)],
            60,
            12,
        ));
        out.push('\n');
        out.push_str(&render::table(
            "Figure 8: avg connected devices (mean +/- std)",
            &["region", "wired", "wireless"],
            &[
                vec![
                    "developed".to_string(),
                    format!("{:.2} +/- {:.2}", self.fig8.developed.0.mean, self.fig8.developed.0.std),
                    format!("{:.2} +/- {:.2}", self.fig8.developed.1.mean, self.fig8.developed.1.std),
                ],
                vec![
                    "developing".to_string(),
                    format!("{:.2} +/- {:.2}", self.fig8.developing.0.mean, self.fig8.developing.0.std),
                    format!("{:.2} +/- {:.2}", self.fig8.developing.1.mean, self.fig8.developing.1.std),
                ],
            ],
        ));
        out.push('\n');
        out.push_str(&render::table(
            "Figure 9: avg wireless stations per band (mean +/- std)",
            &["band", "stations"],
            &[
                vec!["2.4 GHz".to_string(), format!("{:.2} +/- {:.2}", self.fig9.ghz24.mean, self.fig9.ghz24.std)],
                vec!["5 GHz".to_string(), format!("{:.2} +/- {:.2}", self.fig9.ghz5.mean, self.fig9.ghz5.std)],
            ],
        ));
        out.push('\n');
        out.push_str(&render::cdf_plot(
            "Figure 10: unique devices per band per home",
            &[("2.4 GHz", &self.fig10.ghz24), ("5 GHz", &self.fig10.ghz5)],
            60,
            12,
        ));
        out.push('\n');
        out.push_str(&render::cdf_plot(
            "Figure 11: visible 2.4 GHz APs per home",
            &[("developed", &self.fig11.developed), ("developing", &self.fig11.developing)],
            60,
            12,
        ));
        out.push('\n');
        out.push_str(&render::bar_chart(
            "Figure 12: devices by manufacturer (Traffic homes, >=100 KB)",
            &self
                .fig12
                .iter()
                .map(|(v, n)| (v.label().to_string(), *n as f64))
                .collect::<Vec<_>>(),
            40,
        ));
        out.push('\n');
        out.push_str(&render::diurnal_plot(
            "Figure 13: mean wireless stations by local hour",
            &self.fig13.weekday,
            &self.fig13.weekend,
        ));
        out.push('\n');
        if let Some(fig14) = &self.fig14 {
            out.push_str(&format!(
                "Figure 14: home {} — capacity down {:.1} Mbps / up {:.1} Mbps, {} busy minutes\n",
                fig14.router,
                fig14.down_capacity_bps / 1e6,
                fig14.up_capacity_bps / 1e6,
                fig14.down_series.len(),
            ));
            out.push_str(&render::utilization_strip(
                "Figure 14 (downstream, relative to measured capacity):",
                &fig14.down_series,
                fig14.down_capacity_bps,
                Window { start: self.windows.traffic.start, end: self.windows.traffic.end },
            ));
            out.push('\n');
        }
        out.push_str(&render::table(
            "Figure 15: p95 link utilization vs capacity",
            &["home", "down cap (Mbps)", "down util", "up cap (Mbps)", "up util"],
            &self
                .fig15
                .iter()
                .map(|p| {
                    vec![
                        p.router.to_string(),
                        format!("{:.1}", p.down_capacity_bps / 1e6),
                        format!("{:.2}", p.down_utilization),
                        format!("{:.2}", p.up_capacity_bps / 1e6),
                        format!("{:.2}", p.up_utilization),
                    ]
                })
                .collect::<Vec<_>>(),
        ));
        out.push('\n');
        out.push_str(&format!(
            "Figure 16: {} home(s) with p95 uplink utilization above measured capacity: {}\n",
            self.fig16.len(),
            self.fig16
                .iter()
                .map(|f| f.router.to_string())
                .collect::<Vec<_>>()
                .join(", "),
        ));
        if let Some(worst) = self.fig16.first() {
            out.push_str(&render::utilization_strip(
                &format!(
                    "Figure 16a ({} upstream, relative to its *measured* capacity):",
                    worst.router
                ),
                &worst.up_series,
                worst.up_capacity_bps,
                Window { start: self.windows.traffic.start, end: self.windows.traffic.end },
            ));
        }
        out.push('\n');
        out.push_str(&format!(
            "Figure 17: dominant device {:.0}% of home traffic on average; second {:.0}%\n\n",
            self.fig17.mean_top_share * 100.0,
            self.fig17.mean_second_share * 100.0,
        ));
        out.push_str(&render::table(
            "Figure 18: domains in per-home top-5/top-10 by volume",
            &["domain", "top-5 homes", "top-10 homes"],
            &self
                .fig18
                .iter()
                .take(15)
                .map(|r| vec![r.domain.clone(), r.top5_homes.to_string(), r.top10_homes.to_string()])
                .collect::<Vec<_>>(),
        ));
        out.push('\n');
        out.push_str(&render::table(
            "Figure 19: domain-rank shares (mean across homes)",
            &["rank", "volume share", "conn share (by conn rank)", "conn share (by vol rank)"],
            &(0..self.fig19.volume_share_by_rank.len().min(10))
                .map(|i| {
                    vec![
                        (i + 1).to_string(),
                        format!("{:.3}", self.fig19.volume_share_by_rank[i]),
                        format!("{:.3}", self.fig19.connection_share_by_rank[i]),
                        format!("{:.3}", self.fig19.connections_of_volume_rank[i]),
                    ]
                })
                .collect::<Vec<_>>(),
        ));
        out.push_str(&format!(
            "  whitelisted fraction of bytes: {:.2}\n\n",
            self.fig19.whitelisted_byte_fraction
        ));
        let (computer, streamer) = usage::fig20_exemplars(&self.fig20);
        for (label, dev) in [("(a) computer", computer), ("(b) streaming box", streamer)] {
            if let Some(dev) = dev {
                out.push_str(&render::table(
                    &format!(
                        "Figure 20{label}: {} ({})",
                        dev.device,
                        dev.vendor.map_or("unknown", |v| v.label())
                    ),
                    &["domain", "share"],
                    &dev.domains
                        .iter()
                        .map(|(d, s)| vec![d.clone(), format!("{:.2}", s)])
                        .collect::<Vec<_>>(),
                ));
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "Table 3: median time between downtimes — developed {}, developing {}; worst: {} {}\n",
            self.table3.developed_median_time_between,
            self.table3.developing_median_time_between,
            self.table3.worst_two[0],
            self.table3.worst_two[1],
        ));
        out.push_str(&format!(
            "Table 4: always-on wired {:.0}% vs {:.0}%; band medians {:.0} vs {:.0}; AP medians {:.0} vs {:.0}\n",
            self.table4.developed_always_on_wired * 100.0,
            self.table4.developing_always_on_wired * 100.0,
            self.table4.median_devices_24,
            self.table4.median_devices_5,
            self.table4.median_aps_developed,
            self.table4.median_aps_developing,
        ));
        out.push_str(&render::table(
            "Table 5: always-connected devices",
            &["region", "households", "wired", "wireless"],
            &self
                .table5
                .iter()
                .map(|r| {
                    vec![
                        r.region.to_string(),
                        r.total.to_string(),
                        format!("{} ({:.0}%)", r.wired, 100.0 * r.wired as f64 / r.total.max(1) as f64),
                        format!(
                            "{} ({:.0}%)",
                            r.wireless,
                            100.0 * r.wireless as f64 / r.total.max(1) as f64
                        ),
                    ]
                })
                .collect::<Vec<_>>(),
        ));
        out.push_str(&render::table(
            "Router coverage by country (median fraction of time reporting)",
            &["country", "median coverage", "routers"],
            &self
                .coverage
                .iter()
                .map(|(country, cov, n)| {
                    vec![
                        country.code().to_string(),
                        format!("{:.2}%", cov * 100.0),
                        n.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        ));
        out.push_str(&render::table(
            "Companion latency data set (RTT to the measurement server)",
            &["region", "median RTT", "median peak RTT", "homes"],
            &self
                .latency
                .iter()
                .map(|r| {
                    vec![
                        r.region.to_string(),
                        format!("{:.0} ms", r.median_rtt_ms),
                        format!("{:.0} ms", r.median_peak_rtt_ms),
                        r.homes.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        ));
        out.push_str(&format!(
            "Table 6: diurnal spread weekday {:.2} vs weekend {:.2}; {} oversaturating home(s); dominant device {:.0}%; top domain {:.0}% of bytes / {:.0}% of connections; whitelist covers {:.0}% of bytes\n",
            self.table6.weekday_spread,
            self.table6.weekend_spread,
            self.table6.oversaturating_homes,
            self.table6.dominant_device_share * 100.0,
            self.table6.top_domain_volume_share * 100.0,
            self.table6.top_domain_connection_share * 100.0,
            self.table6.whitelisted_byte_fraction * 100.0,
        ));
        if let Some(nc) = &self.natchar {
            out.push('\n');
            out.push_str(&render::table(
                "NAT characterization: modal NAT type per home",
                &["NAT type", "homes"],
                &nc.type_counts
                    .iter()
                    .map(|(t, n)| vec![t.name().to_string(), n.to_string()])
                    .collect::<Vec<_>>(),
            ));
            out.push_str(&render::table(
                "CGN detection by country (homes whose probes flagged CGN)",
                &["country", "flagged", "probed", "rate"],
                &nc.detection_by_country
                    .iter()
                    .map(|c| {
                        vec![
                            c.country.code().to_string(),
                            c.flagged.to_string(),
                            c.probed.to_string(),
                            format!("{:.0}%", 100.0 * c.flagged as f64 / c.probed.max(1) as f64),
                        ]
                    })
                    .collect::<Vec<_>>(),
            ));
            let locals: Vec<firmware::records::NatType> = firmware::records::NatType::ALL
                .into_iter()
                .filter(|&t| nc.matrix.iter().any(|c| c.local == t))
                .collect();
            let mut header = vec!["local \\ peer"];
            header.extend(firmware::records::NatType::ALL.iter().map(|t| t.name()));
            out.push_str(&render::table(
                "Hole-punch success by NAT-type pair (successes/attempts)",
                &header,
                &locals
                    .iter()
                    .map(|&l| {
                        let mut row = vec![l.name().to_string()];
                        row.extend(firmware::records::NatType::ALL.iter().map(|&p| {
                            nc.matrix
                                .iter()
                                .find(|c| c.local == l && c.peer == p)
                                .map_or("-".to_string(), |c| {
                                    format!("{}/{}", c.successes, c.attempts)
                                })
                        }));
                        row
                    })
                    .collect::<Vec<_>>(),
            ));
            let pa = &nc.port_allocation;
            if !pa.per_home.is_empty() {
                let max_blocks = pa.per_home.iter().map(|r| r.blocks).max().unwrap_or(0);
                out.push_str(&render::table(
                    &format!(
                        "Port allocation from the probe lease timeline \
                         ({}-port blocks)",
                        crate::natchar::PORT_BLOCK
                    ),
                    &["blocks used", "homes"],
                    &(1..=max_blocks)
                        .map(|b| {
                            vec![
                                b.to_string(),
                                pa.per_home.iter().filter(|r| r.blocks == b).count().to_string(),
                            ]
                        })
                        .collect::<Vec<_>>(),
                ));
                out.push_str(&format!(
                    "  single-block homes: {}; re-leased or unconstrained: {}\n",
                    pa.single_block_homes, pa.multi_block_homes,
                ));
            }
            out.push_str(&format!(
                "  NAT probes: {} across {} home(s); punch trials: {}\n",
                nc.probes,
                nc.homes.len(),
                nc.trials,
            ));
        }
        out
    }
}
