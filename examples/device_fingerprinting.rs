//! §7 future-work extension: device fingerprinting from traffic patterns.
//!
//! The paper observes (Fig 20) that device *types* send very different
//! distributions of traffic to domains, and suggests using that for
//! fingerprinting. Two experiments, both on the `analysis::fingerprint`
//! nearest-centroid classifier:
//!
//! 1. **Vendor-level** — labels come from the OUI the firmware reports in
//!    clear. Weak on purpose: a vendor like Apple spans phones, laptops,
//!    tablets, and set-top boxes, so its traffic centroid is mush.
//! 2. **Type-level** — labels come from a survey, exactly as the paper
//!    obtained ground truth for Fig 20 ("we surveyed users from six homes
//!    and asked them to manually identify the devices"). We emulate the
//!    survey by matching each anonymized device back to the home's device
//!    inventory through its OUI when the match is unambiguous.
//!
//! ```sh
//! cargo run --release --example device_fingerprinting
//! ```

use analysis::fingerprint::{evaluate, evaluate_labeled, features, Features};
use bismark::study::{run_study, StudyConfig};
use household::DeviceType;
use std::collections::HashMap;

fn main() {
    println!("Running a 20-day study for fingerprinting data...");
    let output = run_study(&StudyConfig::quick(77, 20));
    let devices: Vec<_> =
        output.report().fig20.into_iter().filter(|d| d.total_bytes >= 200 * 1024).collect();
    println!("{} devices with enough traffic to fingerprint.\n", devices.len());

    // Experiment 1: vendor labels straight from the OUI.
    match evaluate(&devices, 4) {
        Some(eval) => println!(
            "Vendor-level accuracy: {:.0}% over {} devices (chance {:.0}%) — vendors are \
             heterogeneous, so this is expected to be weak",
            eval.accuracy * 100.0,
            eval.tested,
            eval.baseline * 100.0
        ),
        None => println!("Vendor-level: not enough diversity."),
    }

    // Experiment 2: survey-style type labels. For each anonymized device we
    // look at its home's inventory; when exactly one owned device carries
    // the same OUI, the "survey" tells us its type.
    let mut labeled: Vec<(DeviceType, Features)> = Vec::new();
    let mut ambiguous = 0usize;
    for observed in &devices {
        let home = &output.homes[observed.router.0 as usize];
        let candidates: Vec<&household::Device> =
            home.devices.iter().filter(|d| d.mac.oui() == observed.device.oui).collect();
        match candidates.as_slice() {
            [only] => labeled.push((only.kind, features(observed))),
            _ => ambiguous += 1,
        }
    }
    println!(
        "\nSurvey matching: {} devices labeled by type, {} ambiguous (shared OUI within home).",
        labeled.len(),
        ambiguous
    );
    match evaluate_labeled(&labeled, 4) {
        Some(eval) => {
            println!(
                "Type-level accuracy: {:.0}% over {} devices (chance {:.0}%)",
                eval.accuracy * 100.0,
                eval.tested,
                eval.baseline * 100.0
            );
            let mut per_type: HashMap<DeviceType, usize> = HashMap::new();
            for (kind, _) in &labeled {
                *per_type.entry(*kind).or_default() += 1;
            }
            let mut rows: Vec<(DeviceType, usize)> = per_type.into_iter().collect();
            rows.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
            println!("Labeled population:");
            for (kind, n) in rows {
                println!("  {kind:?}: {n}");
            }
            println!("Top confusions:");
            for ((truth, predicted), n) in eval.confusion.iter().take(6) {
                println!("  {truth:?} -> {predicted:?} x{n}");
            }
        }
        None => println!("Type-level: not enough diversity."),
    }
}
