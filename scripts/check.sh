#!/usr/bin/env bash
# Offline verification gate: build, test, and static-analysis in one
# command — what CI would run on every push.
#
#   scripts/check.sh              # build + tests + simlint
#   SKIP_TESTS=1 scripts/check.sh # simlint only (fast pre-commit loop)
#
# simlint enforces the workspace's static invariants (deterministic
# iteration and ordered float accumulation in dataset/analysis crates, no
# wall-clock or ambient RNG in simulation code, no panics or swallowed
# errors on the ingest path, no allocation in manifest-listed hot
# functions or anything the call graph reaches from them, layering per
# simlint-layers.txt, threads/atomics only in whitelisted files). The same
# scan runs as a test target (tests/simlint_clean.rs), so `cargo test`
# alone also fails on a new finding; running it here too gives the
# human-readable diagnostics first and a nonzero exit without scanning the
# test harness output. The JSON report lands in target/simlint-report.json
# for tooling, and the audit listing accounts for every suppression.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ -z "${SKIP_TESTS:-}" ]; then
    echo "== build (release) =="
    cargo build --release --offline --workspace
    echo "== build every target (benches, examples, tests) =="
    # `cargo test` builds tests and examples but not benches; a bench that
    # stops compiling fails here.
    cargo build -q --offline --workspace --all-targets
    echo "== tests =="
    cargo test -q --offline --workspace
    echo "== benchmark package tests =="
    # The benchmark is a workspace of its own, so the root `cargo test`
    # never runs its unit tests or the smoke-scale digests that pin the
    # CSV export.
    cargo test -q --offline --manifest-path benchmark/Cargo.toml
    echo "== incremental report property at 2,000 cases (release) =="
    # Every `cargo test` runs tests/incremental_properties.rs at 64 cases;
    # here the window cuts, arrival orders and duplicates it draws are
    # explored at scale.
    PROPTEST_CASES=2000 cargo test -q --release --offline -p analysis --test incremental_properties
    echo "== rate-epoch traffic property at 2,000 cases (release) =="
    # Every `cargo test` runs tests/epoch_properties.rs at 64 cases; here
    # its flow mixes, saturation crossings, epoch lengths and minute
    # phases are explored at scale.
    PROPTEST_CASES=2000 cargo test -q --release --offline -p firmware --test epoch_properties
    echo "== record-table properties at 2,000 cases (release) =="
    # Every `cargo test` runs tests/columnar_properties.rs at 64 cases;
    # here push→iterate and the shard merge of all 13 record tables are
    # checked against their row model over many more router mixes, ties
    # and out-of-order times.
    PROPTEST_CASES=2000 cargo test -q --release --offline -p collector --test columnar_properties
    echo "== golden digests of the full study (release) =="
    # tests/golden.rs pins the quick runs in every `cargo test`; its
    # 197-day row is #[ignore]d there and runs here on the release build.
    cargo test -q --release --offline -p bismark-core --test golden -- --ignored
    echo "== metrics smoke =="
    # A short instrumented run must produce a valid run manifest with the
    # headline series present and no wall-clock section (wall spans are
    # text-summary-only; metrics.json stays deterministic).
    smoke_dir=$(mktemp -d)
    trap 'rm -rf "$smoke_dir"' EXIT
    ./target/release/bismark-study run --seed 7 --days 5 \
        --report "$smoke_dir/report.txt" --metrics "$smoke_dir/metrics.json"
    python3 - "$smoke_dir/metrics.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
for section in ("meta", "counters", "gauges", "histograms"):
    assert section in m, f"missing section: {section}"
assert m["meta"]["schema"] == "bismark-metrics/1", m["meta"]
for key in ("packets_forwarded_total", "heartbeats_emitted_total",
            "dhcp_leases_total", "nat_evictions_total",
            "collector_accepted_total", "uploader_retries_total"):
    assert key in m["counters"], f"missing counter: {key}"
assert "wall" not in m, "wall-clock spans must not reach metrics.json"
for name, h in m["histograms"].items():
    assert len(h["buckets"]) == len(h["bounds"]) + 1, f"bucket shape: {name}"
    assert sum(h["buckets"]) == h["count"], f"bucket sum: {name}"
print("metrics.json OK: %d counters, %d gauges, %d histograms"
      % (len(m["counters"]), len(m["gauges"]), len(m["histograms"])))
PYEOF
    echo "== scale smoke (generative 5000-home deployment) =="
    # A scaled quick study must run to completion and its manifest must
    # describe exactly the requested deployment, with dataset gauges that
    # are plausible for that many homes (every home reports device
    # censuses, packet stats, and at least one MAC sighting).
    ./target/release/bismark-study run --seed 7 --days 2 --homes 5000 \
        --report "$smoke_dir/scale_report.txt" --metrics "$smoke_dir/scale_metrics.json"
    python3 - "$smoke_dir/scale_metrics.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
assert m["meta"]["homes"] == "5000", m["meta"]
g = m["gauges"]
assert g["study_homes"] == 5000, g.get("study_homes")
# Consent-free data sets cover (nearly) every home...
for key in ("dataset_device_census_records", "dataset_wifi_scan_records"):
    assert g.get(key, 0) >= 5000, (key, g.get(key))
# ...while the Traffic tables are consent-gated (a fraction of US homes),
# so they must be populated but can be well under one record per home.
for key in ("dataset_packet_stat_records", "dataset_flow_records",
            "dataset_mac_sighting_records"):
    assert g.get(key, 0) > 0, (key, g.get(key))
assert g["dataset_heartbeat_records"] > g["dataset_uptime_records"], g
print("scale smoke OK: 5000 homes, %d packet-stat records"
      % g["dataset_packet_stat_records"])
PYEOF
    echo "== bounded-memory smoke (20000 homes under a 4MiB spill budget) =="
    # The same 20k-home study unbounded and under a small out-of-core
    # budget: the spilled run must actually seal segments, keep peak RSS
    # bounded (budget + a fixed slack for the non-columnar simulation
    # state, which the budget deliberately does not govern), and produce a
    # byte-identical report. 4 MiB is two orders of magnitude under this
    # study's heap of record tables (all 13 of them), so every shard seals
    # many segments.
    ./target/release/bismark-study run --seed 7 --days 2 --homes 20000 \
        --report "$smoke_dir/unbounded_report.txt"
    ./target/release/bismark-study run --seed 7 --days 2 --homes 20000 \
        --spill-budget 4MiB --spill-dir "$smoke_dir/spill" \
        --report "$smoke_dir/spill_report.txt" \
        --metrics "$smoke_dir/spill_metrics.json" --metrics-text \
        2> "$smoke_dir/spill_stderr.txt" \
        || { cat "$smoke_dir/spill_stderr.txt" >&2; exit 1; }
    cmp "$smoke_dir/unbounded_report.txt" "$smoke_dir/spill_report.txt" \
        && echo "spilled report is byte-identical to the unbounded run"
    python3 - "$smoke_dir/spill_metrics.json" "$smoke_dir/spill_stderr.txt" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
c = m["counters"]
assert c.get("spill_segments_written_total", 0) > 0, c
assert c.get("spill_bytes_written_total", 0) > 0, c
assert c.get("spill_errors_total", 1) == 0, c
assert m["gauges"].get("spill_merge_fanin", 0) > 0, m["gauges"]
with open(sys.argv[2]) as f:
    stderr = f.read()
peak = None
for line in stderr.splitlines():
    parts = line.split()
    if parts[:1] == ["peak_rss_bytes"] and len(parts) == 2 and parts[1].isdigit():
        peak = int(parts[1])
if peak is None:
    assert "peak_rss_bytes  unavailable" in stderr, "peak_rss_bytes line missing"
    print("bounded-memory smoke OK (RSS check skipped: no VmHWM on this host)")
else:
    budget = 4 * 2**20
    # Deployment + runlogs + merge buffers, plus the
    # report's per-router records (160 B each) and held runs, which the
    # budget does not govern either: RTT samples (16 B per latency
    # record, 12.8 MiB here), scan instants and 2.4 GHz neighbour BSSIDs
    # (8 B each), devices (24 B each) and >=100 KiB MAC sightings (8 B
    # each). The deployment holds a domain taste (~10 KB) only for the
    # ~21% of homes that consent to traffic capture, so peak RSS reads
    # ~144 MiB; a taste per home would add ~150 MiB and break this bound.
    slack = 320 * 2**20
    assert peak < budget + slack, \
        f"peak RSS {peak} exceeds budget {budget} + slack {slack}"
    print("bounded-memory smoke OK: %d segments, %.0f MiB spilled, peak RSS %.0f MiB"
          % (c["spill_segments_written_total"],
             c["spill_bytes_written_total"] / 2**20, peak / 2**20))
PYEOF
    echo "== CGN smoke (isp-mix scenario) =="
    # An armed CGN run must publish the cgn counter/gauge families, leave
    # ground-truth plan gauges in the manifest, and grow the report's NAT
    # characterization section. That a run without --cgn is unchanged is
    # pinned by the golden digests (tests/golden.rs).
    ./target/release/bismark-study run --seed 7 --days 5 --cgn isp-mix \
        --report "$smoke_dir/cgn_report.txt" --metrics "$smoke_dir/cgn_metrics.json"
    python3 - "$smoke_dir/cgn_metrics.json" "$smoke_dir/cgn_report.txt" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
assert m["meta"]["cgn"] == "isp-mix", m["meta"]
c, g = m["counters"], m["gauges"]
for key in ("cgn_probes_total", "cgn_punch_trials_total",
            "cgn_hop_mappings_total"):
    assert c.get(key, 0) > 0, (key, c.get(key))
for key in ("cgn_fronted_homes", "cgn_boxes", "cgn_blocks",
            "cgn_block_leases"):
    assert g.get(key, 0) > 0, (key, g.get(key))
assert g.get("dataset_nat_probe_records", 0) > 0, g
assert g.get("dataset_punch_trial_records", 0) > 0, g
with open(sys.argv[2]) as f:
    report = f.read()
for section in ("NAT characterization", "CGN detection by country",
                "Hole-punch success by NAT-type pair"):
    assert section in report, f"report missing section: {section}"
print("cgn smoke OK: %d probes, %d punch trials, %d fronted homes"
      % (c["cgn_probes_total"], c["cgn_punch_trials_total"],
         g["cgn_fronted_homes"]))
PYEOF
    echo "== streaming smoke (window manifests) =="
    # The same study in continuous-operation mode at a 36-hour window
    # cadence: each sealed window must leave a gauges-only manifest at the
    # derived metrics.wNNNN.json path with monotonically growing dataset
    # gauges, and the end-of-run manifest must carry the cadence in its
    # meta. That the streamed report and export equal the batch run's is
    # pinned by the golden digests (tests/golden.rs).
    ./target/release/bismark-study run --seed 7 --days 5 --stream --window 36h \
        --report "$smoke_dir/stream_report.txt" \
        --metrics "$smoke_dir/stream_metrics.json"
    python3 - "$smoke_dir" <<'PYEOF'
import glob, json, os, sys
d = sys.argv[1]
windows = sorted(glob.glob(os.path.join(d, "stream_metrics.w*.json")))
assert len(windows) == 4, f"expected 4 window manifests (5 days / 36h), got {windows}"
prev = None
for i, path in enumerate(windows):
    with open(path) as f:
        m = json.load(f)
    meta = m["meta"]
    assert meta["mode"] == "stream-window", (path, meta)
    assert meta["window_index"] == str(i + 1), (path, meta)
    assert "window_end_day" in meta, (path, meta)
    assert not m["counters"], "window manifests are gauges-only"
    assert not m["histograms"], "window manifests are gauges-only"
    g = m["gauges"]
    assert g.get("dataset_heartbeat_records", 0) > 0, (path, g)
    if prev is not None:
        for key, value in prev.items():
            assert g.get(key, 0) >= value, f"gauge {key} shrank at {path}"
    prev = g
with open(os.path.join(d, "stream_metrics.json")) as f:
    final = json.load(f)
assert final["meta"]["stream"] == "2160m", final["meta"]
assert final["gauges"]["dataset_heartbeat_records"] == prev["dataset_heartbeat_records"], \
    "final manifest must agree with the last window"
print("streaming smoke OK: %d windows, %d heartbeat records"
      % (len(windows), prev["dataset_heartbeat_records"]))
PYEOF
fi

echo "== simlint =="
cargo run -q --offline -p simlint -- --workspace
mkdir -p target
cargo run -q --offline -p simlint -- --workspace --json > target/simlint-report.json
echo "simlint report artifact: target/simlint-report.json"
echo "== simlint audit =="
# Every accepted deviation (inline suppression, shared-state whitelist
# entry, baseline line) listed with its justification; the summary line
# is the count a reviewer should expect to stay flat or shrink.
cargo run -q --offline -p simlint -- --audit | tail -n 1
echo "check.sh: all gates passed"
