//! Public data release (§3.2: "we have released all measurements that do
//! not have personally identifying information — everything except the
//! Traffic data set").
//!
//! The exporter serializes the five releasable data sets to JSON and
//! refuses to include Traffic records, enforcing in code the policy the
//! paper enforced editorially.

use crate::server::Datasets;
use serde::Serialize;

/// The released subset of the data: everything but Traffic. The record
/// tables are materialized in their global (router, time) order.
#[derive(Debug, Serialize)]
pub struct PublicRelease<'a> {
    /// Router metadata (country, but no consent flags — those reveal which
    /// households were monitored).
    pub routers: Vec<PublicRouter>,
    /// Heartbeat run logs.
    pub heartbeats: Vec<(u32, &'a crate::runlog::RunLog)>,
    /// Uptime reports.
    pub uptime: Vec<firmware::records::UptimeRecord>,
    /// Capacity measurements.
    pub capacity: Vec<firmware::records::CapacityRecord>,
    /// Device censuses.
    pub devices: Vec<firmware::records::DeviceCensusRecord>,
    /// WiFi scans, in (router, time, band) order.
    pub wifi: Vec<firmware::records::WifiScanRecord>,
}

/// Router metadata in the release.
#[derive(Debug, Serialize)]
pub struct PublicRouter {
    /// Router id.
    pub router: u32,
    /// ISO country code.
    pub country: String,
}

/// Build the public release view over a snapshot.
pub fn public_release(data: &Datasets) -> PublicRelease<'_> {
    // `Datasets::heartbeats` is a BTreeMap, so iteration is already in
    // ascending router order — the order the release format promises.
    let heartbeats: Vec<(u32, &crate::runlog::RunLog)> =
        data.heartbeats.iter().map(|(router, log)| (router.0, log)).collect();
    PublicRelease {
        routers: data
            .routers
            .iter()
            .map(|m| PublicRouter { router: m.router.0, country: m.country.code().to_string() })
            .collect(),
        heartbeats,
        uptime: data.uptime.iter().collect(),
        capacity: data.capacity.iter().collect(),
        devices: data.devices.iter().collect(),
        wifi: data.wifi.iter().collect(),
    }
}

/// Serialize the public release to JSON.
pub fn to_json(data: &Datasets) -> serde_json::Result<String> {
    serde_json::to_string(&public_release(data))
}

fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// The CSV files of the public release, as `(file name, contents)` pairs —
/// the deployment published its data as flat files in this spirit.
pub fn to_csv(data: &Datasets) -> Vec<(String, String)> {
    let mut files = Vec::new();

    let mut routers = String::from("router,country\n");
    let mut sorted_meta = data.routers.clone();
    sorted_meta.sort_by_key(|m| m.router);
    for meta in &sorted_meta {
        routers.push_str(&format!("{},{}\n", meta.router.0, csv_escape(meta.country.code())));
    }
    files.push(("routers.csv".to_string(), routers));

    let mut heartbeats = String::from("router,run_first_us,run_last_us,count\n");
    for (router, log) in data.heartbeats.iter() {
        for run in log.runs() {
            heartbeats.push_str(&format!(
                "{},{},{},{}\n",
                router.0,
                run.first.as_micros(),
                run.last.as_micros(),
                run.count
            ));
        }
    }
    files.push(("heartbeats.csv".to_string(), heartbeats));

    let mut uptime = String::from("router,at_us,uptime_us\n");
    for r in &data.uptime {
        uptime.push_str(&format!("{},{},{}\n", r.router.0, r.at.as_micros(), r.uptime.as_micros()));
    }
    files.push(("uptime.csv".to_string(), uptime));

    let mut capacity = String::from("router,at_us,down_bps,up_bps,shaping\n");
    for r in &data.capacity {
        capacity.push_str(&format!(
            "{},{},{},{},{}\n",
            r.router.0,
            r.at.as_micros(),
            r.down_bps,
            r.up_bps,
            r.shaping_detected
        ));
    }
    files.push(("capacity.csv".to_string(), capacity));

    let mut devices = String::from("router,at_us,wired,wireless_24,wireless_5\n");
    for r in &data.devices {
        devices.push_str(&format!(
            "{},{},{},{},{}\n",
            r.router.0,
            r.at.as_micros(),
            r.wired,
            r.wireless_24,
            r.wireless_5
        ));
    }
    files.push(("devices.csv".to_string(), devices));

    let mut wifi = String::from("router,at_us,band,associated,visible_aps\n");
    for r in &data.wifi {
        wifi.push_str(&format!(
            "{},{},{:?},{},{}\n",
            r.router.0,
            r.at.as_micros(),
            r.band,
            r.associated_stations,
            r.aps.len()
        ));
    }
    files.push(("wifi.csv".to_string(), wifi));

    files
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmware::records::{FlowRecord, RouterId};
    use firmware::{AnonMac, ReportedDomain};
    use household::Country;
    use simnet::packet::IpProtocol;
    use simnet::time::SimTime;


    #[test]
    fn traffic_never_leaves() {
        let mut data = Datasets::default();
        data.routers.push(crate::server::RouterMeta {
            router: RouterId(1),
            country: Country::UnitedStates,
            traffic_consent: true,
        });
        data.flows.push(FlowRecord {
            router: RouterId(1),
            started: SimTime::EPOCH,
            ended: SimTime::EPOCH,
            device: AnonMac { oui: 0x0017F2, suffix_hash: 0x1234 },
            remote_ip_hash: 99,
            remote_port: 443,
            proto: IpProtocol::Tcp,
            domain: ReportedDomain::Obfuscated(0x5EC237),
            bytes_down: 1,
            bytes_up: 1,
        });
        let json = to_json(&data).unwrap();
        assert!(!json.contains("remote_ip_hash"), "flow fields must not appear");
        assert!(!json.contains("traffic_consent"), "consent flags must not appear");
        assert!(json.contains("\"US\""));
    }

    #[test]
    fn csv_release_has_one_file_per_public_set() {
        let collector = crate::Collector::new();
        collector.register(crate::server::RouterMeta {
            router: RouterId(3),
            country: Country::UnitedStates,
            traffic_consent: true,
        });
        collector.ingest(firmware::records::Record::Heartbeat(
            firmware::records::HeartbeatRecord { router: RouterId(3), at: SimTime::EPOCH },
        ));
        let files = to_csv(&collector.drain_delta());
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["routers.csv", "heartbeats.csv", "uptime.csv", "capacity.csv", "devices.csv", "wifi.csv"]
        );
        for (name, body) in &files {
            assert!(body.ends_with('\n') || body.lines().count() == 1, "{name} malformed");
            assert!(!body.to_lowercase().contains("flow"), "{name} leaks traffic fields");
        }
        let hb = &files[1].1;
        assert_eq!(hb.lines().count(), 2, "header + one run");
        assert!(hb.lines().nth(1).unwrap().starts_with("3,0,0,1"));
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn release_includes_five_sets() {
        let data = Datasets::default();
        let json = to_json(&data).unwrap();
        for key in ["routers", "heartbeats", "uptime", "capacity", "devices", "wifi"] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
