//! Recorded expectations the benchmark checks every run against.

use crate::layers::Counters;
use crate::workloads::Config;
use crate::Output;

/// The seed whose deterministic counters are recorded below.
pub const DEFAULT_SEED: u64 = 0;

/// A seed no run used while the benchmark was built and tuned. A claimed gain must
/// also hold on it (choosing-metrics guide §6.3); run it only when checking a claim.
pub const HELD_OUT_SEED: u64 = 7919;

/// The committed `BENCH_engine.json` snapshot (full grid, one thread): ds_mesh's
/// axes with seeds 0..4 must reproduce every one of these counters exactly.
pub const BENCH_ENGINE: [(&str, u64); 8] = [
    ("cells", 72),
    ("completed", 72),
    ("signatures_issued", 25440),
    ("signatures_verified", 24144),
    ("verify_cache_hits", 0),
    ("digests_computed", 50880),
    ("messages", 683808),
    ("slots", 792),
];

/// Each workload's deterministic counters of one set-up at [`DEFAULT_SEED`]: one
/// pass of the campaign, report_io's grid run, fuzz_search's reference passes. A
/// run at that seed that counts anything else has changed behaviour, not speed.
/// fuzz_search has no signature count: each scripted run's PKI is internal to it.
pub const COUNTERS: [(&str, &[(&str, u64)]); 4] = [
    (
        "ds_mesh",
        &[
            ("messages", 683808),
            ("slots", 792),
            ("signatures_issued", 25440),
            ("signatures_verified", 24144),
            ("digests_computed", 50880),
            ("verify_cache_hits", 0),
        ],
    ),
    (
        "relay_unauth",
        &[
            ("messages", 1396512),
            ("slots", 984),
            ("signatures_issued", 0),
            ("signatures_verified", 0),
            ("digests_computed", 364976),
            ("verify_cache_hits", 0),
        ],
    ),
    (
        "report_io",
        &[
            ("messages", 1750265),
            ("slots", 8235),
            ("signatures_issued", 61080),
            ("signatures_verified", 61290),
            ("digests_computed", 511050),
            ("verify_cache_hits", 0),
        ],
    ),
    (
        "fuzz_search",
        &[
            ("messages", 1784242),
            ("slots", 11808),
            ("signatures_verified", 65174),
            ("digests_computed", 619559),
            ("verify_cache_hits", 0),
        ],
    ),
];

/// The named deterministic counters of one set-up.
pub fn counter_values(counters: &Counters) -> [(&'static str, u64); 6] {
    [
        ("messages", counters.messages),
        ("slots", counters.slots),
        ("signatures_issued", counters.signatures_issued),
        ("signatures_verified", counters.crypto.signatures_verified),
        ("digests_computed", counters.crypto.digests_computed),
        ("verify_cache_hits", counters.crypto.verify_cache_hits),
    ]
}

/// Prints the set-up's counters and, at the default seed and full size, reports any
/// drift from the recorded values as a behaviour change. Drift does not fail the
/// run: an optimization may legitimately remove crypto work, and the report bytes
/// are checked separately.
pub fn check_drift(workload: &str, config: &Config, counters: &Counters, out: &mut Output) {
    let seed = config.seed;
    let values = counter_values(counters);
    let line: Vec<String> = values.iter().map(|(name, value)| format!("{name}={value}")).collect();
    out.notes.push(format!("[{workload}] set-up counters at seed {seed}: {}", line.join(" ")));
    if seed != DEFAULT_SEED || config.tiny {
        return;
    }
    let recorded = COUNTERS.iter().find(|(name, _)| *name == workload).map_or(&[][..], |r| r.1);
    for (name, expected) in recorded {
        let actual = values.iter().find(|(n, _)| n == name).map_or(0, |v| v.1);
        if actual != *expected {
            out.notes.push(format!(
                "[{workload}] BEHAVIOUR CHANGE: {name} = {actual}, recorded {expected} at seed {seed}"
            ));
        }
    }
}
