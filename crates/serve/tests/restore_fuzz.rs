//! Property-based fuzzing of the session restore path, starting from one
//! real snapshot: damaged envelope text fed to
//! [`SessionSnapshot::from_json`], and decoded snapshots with mutated
//! fields fed to [`Fleet::restore_feed`]. Every case must end in a typed
//! error or in a restored feed that answers a push with its session and
//! monitor counts in step; none may panic.

use std::sync::OnceLock;

use pmu_baseline::MlrConfig;
use pmu_detect::detector::default_config_for;
use pmu_model::{ModelBundle, SessionSnapshot};
use pmu_numerics::Complex64;
use pmu_serve::{EngineConfig, FeedKey, Fleet, FleetConfig, ServeError};
use pmu_sim::{generate_dataset, GenConfig, Mask, PhasorSample};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

struct Fixture {
    bundle: ModelBundle,
    snapshot: SessionSnapshot,
    json: String,
    sample: PhasorSample,
}

/// One trained ieee14 bundle and a snapshot of a feed that rode an
/// outage and saw a dark, a rejected and a clean stretch, so its voting
/// history, recent outcomes and counters are all non-trivial.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let net = pmu_grid::cases::ieee14().unwrap();
        let gen = GenConfig { train_len: 10, test_len: 6, ..GenConfig::default() };
        let data = generate_dataset(&net, &gen).unwrap();
        let bundle =
            ModelBundle::train(&data, &gen, &default_config_for(&net), &MlrConfig::default())
                .unwrap();
        let mut fleet = Fleet::new(FleetConfig { shards: 2, ..FleetConfig::default() });
        let grid = fleet.add_grid("east", bundle.clone(), &EngineConfig::default()).unwrap();
        let key = FeedKey { grid, feed: 7 };
        fleet.open_feed(key).unwrap();
        let n = net.n_buses();
        let dark = Mask::with_missing(n, &(0..n - 1).collect::<Vec<_>>());
        let nan = PhasorSample::complete(vec![Complex64::new(f64::NAN, 0.0); n]);
        let case = &data.cases[0];
        let mut samples: Vec<PhasorSample> =
            (0..case.test.len()).map(|t| case.test.sample(t)).collect();
        samples.push(data.normal_test.sample(0).masked(&dark));
        samples.push(nan);
        samples.push(data.normal_test.sample(1));
        for sample in samples {
            let _ = fleet.push_batch(&[(key, sample)]);
        }
        let snapshot = fleet.snapshot_feed(key).unwrap();
        assert!(!snapshot.recent.is_empty() && !snapshot.stream.history.is_empty());
        let json = snapshot.to_json().unwrap();
        Fixture { bundle, snapshot, json, sample: data.normal_test.sample(2) }
    })
}

/// A fresh fleet serving the fixture's bundle under the snapshot's grid
/// name.
fn fresh_fleet() -> Fleet {
    let mut fleet = Fleet::new(FleetConfig { shards: 2, ..FleetConfig::default() });
    fleet.add_grid("east", fixture().bundle.clone(), &EngineConfig::default()).unwrap();
    fleet
}

/// Restore `snap` into a fresh fleet: either a typed error, or a feed
/// that answers one clean push and counts it in both layers.
fn restores_or_fails_typed(snap: &SessionSnapshot) -> Result<(), TestCaseError> {
    let fleet = fresh_fleet();
    match fleet.restore_feed(snap) {
        Ok(key) => {
            let answers = fleet.push_batch(&[(key, fixture().sample.clone())]);
            prop_assert_eq!(answers.len(), 1);
            prop_assert!(answers[0].is_ok(), "a clean push was refused: {:?}", answers[0]);
            let health = fleet.health(key).expect("restored feed is open");
            prop_assert_eq!(health.pushed, health.snapshot.samples_seen);
        }
        Err(ServeError::Snapshot(_) | ServeError::UnknownGrid(_)) => {}
        Err(e) => prop_assert!(false, "untyped restore failure: {e}"),
    }
    Ok(())
}

/// Apply mutation `field` (drawn with `pick`) to a decoded snapshot.
/// Counters get two of the twelve fields: they are the mutation most
/// often masked by another one in the same case. Field 11 moves `pushed`
/// and `stream.samples_seen` together, so extreme counters still restore
/// and the saturating push path stays covered.
fn mutate(snap: &mut SessionSnapshot, field: usize, pick: u64) {
    const MODES: [&str; 7] = [
        "healthy",
        "degraded_missing",
        "degraded_rejected",
        "degraded_baddata",
        "dark",
        "zombie",
        "",
    ];
    const OUTCOMES: [&str; 6] = ["scored", "missing", "rejected", "baddata", "", "Scored"];
    const COUNTS: [usize; 3] = [0, 1, usize::MAX];
    let p = pick as usize;
    match field {
        0 => snap.mode = MODES[p % MODES.len()].into(),
        1 => {
            let tag = OUTCOMES[(p >> 8) % OUTCOMES.len()].to_string();
            match snap.recent.len() {
                0 => snap.recent.push(tag),
                len => snap.recent[p % len] = tag,
            }
        }
        2 => {
            let len = p % 20;
            let fill = snap.recent.first().cloned().unwrap_or_else(|| "missing".into());
            snap.recent.resize(len, fill);
        }
        3 => snap.stream.window = p % 12,
        4 => snap.stream.votes = p % 12,
        5 => {
            let len = p % 12;
            let fill = snap.stream.history.last().cloned().flatten();
            snap.stream.history.resize(len, fill);
        }
        6 | 10 => {
            let value = COUNTS[(p >> 8) % COUNTS.len()];
            let s = &mut snap.stream;
            match p % 8 {
                0 => snap.pushed = value,
                1 => snap.rejected = value,
                2 => s.samples_seen = value,
                3 => s.missing_samples = value,
                4 => s.events_raised = value,
                5 => s.events_cleared = value,
                6 => s.alarm_streak = value,
                _ => s.bad_data_samples = value,
            }
        }
        7 => {
            snap.feed = match p % 4 {
                0 => SessionSnapshot::feed_hex(pick),
                1 => snap.feed.chars().take(p % 16).collect(),
                2 => "zzzzzzzzzzzzzzzz".into(),
                _ => format!("{}0", snap.feed),
            }
        }
        8 => {
            let mut bytes = snap.network_fingerprint.clone().into_bytes();
            if let Some(b) = bytes.get_mut(p % 16) {
                *b = if *b == b'0' { b'1' } else { b'0' };
            }
            snap.network_fingerprint = String::from_utf8(bytes).unwrap();
        }
        9 => {
            snap.stream.active = !snap.stream.active;
            if pick & 1 == 0 {
                snap.stream.lines.clear();
            }
        }
        11 => {
            let value = COUNTS[p % COUNTS.len()];
            snap.pushed = value;
            snap.stream.samples_seen = value;
        }
        _ => unreachable!("field {field}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// (a) Truncated and bit-flipped envelope text.
    #[test]
    fn damaged_envelopes_fail_typed_or_restore(
        truncate in any::<bool>(),
        cut in 0.0f64..1.0,
        flips in proptest::collection::vec((0.0f64..1.0, 1u8..255), 0..4),
    ) {
        let json = &fixture().json;
        let mut bytes = json.as_bytes().to_vec();
        if truncate {
            bytes.truncate((cut * json.len() as f64) as usize);
        }
        for (at, mask) in flips {
            if !bytes.is_empty() {
                let i = (at * bytes.len() as f64) as usize;
                bytes[i] ^= mask;
            }
        }
        if let Ok(snap) = SessionSnapshot::from_json(&String::from_utf8_lossy(&bytes)) {
            restores_or_fails_typed(&snap)?;
        }
    }

    /// (b) Decoded snapshots with one to three fields mutated.
    #[test]
    fn mutated_snapshots_fail_typed_or_restore(
        mutations in proptest::collection::vec((0usize..12, any::<u64>()), 1..4),
    ) {
        let mut snap = fixture().snapshot.clone();
        for (field, pick) in mutations {
            mutate(&mut snap, field, pick);
        }
        restores_or_fails_typed(&snap)?;
    }
}
