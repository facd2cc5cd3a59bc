//! Chaos harness: drive serving fleets through scripted fault schedules
//! (`pmu_sim::faults`) and assert the degradation contract — no panics,
//! no stuck sessions, events survive PDC blackouts, invalid samples are
//! refused at ingestion, every injected fault class lands in the obs
//! metrics, and accuracy decays monotonically with fault severity.
//!
//! The metrics registry is process-global, so every test takes `LOCK`
//! to run sequentially within this binary (other test binaries are
//! separate processes).

use std::sync::{Mutex, MutexGuard};

use pmu_outage::detect::detector::default_config_for;
use pmu_outage::detect::stream::{StreamConfig, StreamEvent};
use pmu_outage::prelude::*;
use pmu_outage::serve::{BadSampleReason, GridId};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Fast-scale dataset + trained bundle for one named IEEE system.
fn train(name: &str) -> (Dataset, ModelBundle) {
    let net = by_name(name).expect("known system").expect("embedded case");
    let gen = GenConfig { train_len: 16, test_len: 6, ..GenConfig::default() };
    let data = generate_dataset(&net, &gen).expect("dataset generation");
    let det_cfg = default_config_for(&net);
    let bundle = ModelBundle::train(&data, &gen, &det_cfg, &MlrConfig::default())
        .expect("training");
    (data, bundle)
}

/// A one-grid fleet serving `bundle` under `cfg`.
fn one_grid(bundle: ModelBundle, cfg: &EngineConfig) -> (Fleet, GridId) {
    let mut fleet = Fleet::new(FleetConfig::default());
    let grid = fleet.add_grid("grid", bundle, cfg).expect("fresh name");
    (fleet, grid)
}

/// Fast-scale dataset + one-grid fleet for one named IEEE system.
fn build(name: &str) -> (Dataset, Fleet, GridId) {
    let (data, bundle) = train(name);
    let (fleet, grid) = one_grid(bundle, &EngineConfig::default());
    (data, fleet, grid)
}

/// Open feed `feed` of `grid` and return its key.
fn open(fleet: &Fleet, grid: GridId, feed: u64) -> FeedKey {
    let key = FeedKey { grid, feed };
    fleet.open_feed(key).expect("fresh key");
    key
}

/// Push one sample into one feed.
fn push(fleet: &Fleet, key: FeedKey, sample: &PhasorSample) -> Result<StreamEvent, ServeError> {
    fleet.push_batch(&[(key, sample.clone())]).remove(0)
}

/// `len` outage samples from `case_idx`, cycling the test window.
fn outage_run(data: &Dataset, case_idx: usize, len: usize) -> Vec<PhasorSample> {
    let case = &data.cases[case_idx];
    (0..len).map(|t| case.test.sample(t % case.test.len())).collect()
}

/// `len` normal samples, cycling the test window.
fn normal_run(data: &Dataset, len: usize) -> Vec<PhasorSample> {
    (0..len).map(|t| data.normal_test.sample(t % data.normal_test.len())).collect()
}

/// A confirmed outage rides out a total PDC blackout: the event persists
/// through the dark window, survives its lift, and clears only on genuine
/// restoration. The session ends healthy — not stuck.
#[test]
fn blackout_during_confirmed_outage_does_not_clear() {
    let _g = lock();
    let (data, fleet, grid) = build("ieee14");
    let sid = open(&fleet, grid, 0);

    // 20 outage ticks, then 8 restoration ticks.
    let mut clean = outage_run(&data, 2, 20);
    clean.extend(normal_run(&data, 8));
    // Ticks [8, 14): the whole grid goes dark.
    let injected = FaultSchedule::new(7)
        .window(8, 14, FaultKind::Blackout { nodes: vec![] })
        .apply(&clean);

    let mut raises = Vec::new();
    let mut clears = Vec::new();
    for (t, inj) in injected.iter().enumerate() {
        let ev = push(&fleet, sid, &inj.sample).expect("masked samples must not error");
        match ev {
            StreamEvent::Raised { .. } => raises.push(t),
            StreamEvent::Cleared => clears.push(t),
            _ => {}
        }
        if (8..20).contains(&t) {
            let h = fleet.health(sid).unwrap();
            assert!(
                h.snapshot.active,
                "event lost at tick {t} (blackout must not clear it)"
            );
        }
    }

    assert_eq!(raises.len(), 1, "exactly one raise: {raises:?}");
    assert!(raises[0] < 8, "raised before the blackout");
    assert_eq!(clears.len(), 1, "exactly one clear: {clears:?}");
    assert!(clears[0] >= 20, "cleared only during restoration");

    let h = fleet.health(sid).unwrap();
    assert!(!h.snapshot.active);
    assert_eq!(h.snapshot.events_raised, 1);
    assert_eq!(h.snapshot.events_cleared, 1);
    assert_eq!(h.snapshot.missing_samples, 6, "the six blackout ticks");
    assert_eq!(h.mode, FeedMode::Healthy, "session recovered, not stuck");

    // Not stuck: the session still serves after the chaos.
    assert!(push(&fleet, sid, &data.normal_test.sample(0)).is_ok());
}

/// An outage that *begins during* a blackout is raised promptly once the
/// blackout lifts — dark windows delay detection, they do not disable it.
#[test]
fn event_raises_after_blackout_lifts() {
    let _g = lock();
    let (data, fleet, grid) = build("ieee14");
    let sid = open(&fleet, grid, 0);

    // 4 normal ticks, then a sustained outage from tick 4.
    let mut clean = normal_run(&data, 4);
    clean.extend(outage_run(&data, 1, 20));
    // The blackout covers the outage onset: ticks [4, 12).
    let injected = FaultSchedule::new(11)
        .window(4, 12, FaultKind::Blackout { nodes: vec![] })
        .apply(&clean);

    let mut first_raise = None;
    for (t, inj) in injected.iter().enumerate() {
        let ev = push(&fleet, sid, &inj.sample).unwrap();
        if matches!(ev, StreamEvent::Raised { .. }) && first_raise.is_none() {
            first_raise = Some(t);
        }
        if t < 12 {
            assert!(
                !fleet.health(sid).unwrap().snapshot.active,
                "nothing to confirm while dark (tick {t})"
            );
        }
    }
    let raised_at = first_raise.expect("outage must raise after the blackout lifts");
    assert!(raised_at >= 12, "raise at {raised_at} needs post-blackout evidence");
    assert!(
        raised_at < 12 + StreamConfig::default().window,
        "raise within one voting window of the lift, got {raised_at}"
    );
    assert!(fleet.health(sid).unwrap().snapshot.active);
}

/// Every fault class of a mixed schedule is visible in the obs metrics,
/// and the session's accounting matches the injected ground truth.
#[test]
fn every_fault_class_lands_in_metrics() {
    let _g = lock();
    let (data, fleet, grid) = build("ieee14");
    pmu_obs::set_metrics_enabled(true);
    pmu_obs::reset_metrics();
    let sid = open(&fleet, grid, 0);

    let clean = normal_run(&data, 30);
    let injected = FaultSchedule::new(99)
        .window(2, 5, FaultKind::Blackout { nodes: vec![] }) // 3 unscorable
        .window(6, 8, FaultKind::Drop { p: 1.0 }) // 2 unscorable
        .window(10, 12, FaultKind::NanBurst { nodes: vec![0, 1] }) // 2 rejected
        .window(14, 16, FaultKind::Truncate { keep: 5 }) // 2 rejected
        .window(18, 20, FaultKind::Corrupt { nodes: vec![3], scale: 50.0 })
        .window(21, 22, FaultKind::Duplicate)
        .window(23, 24, FaultKind::Stale { lag: 3 })
        .apply(&clean);

    let mut rejected = 0usize;
    for inj in &injected {
        match push(&fleet, sid, &inj.sample) {
            Ok(_) => {}
            Err(ServeError::BadSample(reason)) => {
                rejected += 1;
                // Ground-truth tags explain every rejection.
                let nan_injected = inj
                    .tags
                    .iter()
                    .any(|tag| matches!(tag, pmu_outage::sim::FaultTag::NanInjected { .. }));
                let truncated = inj
                    .tags
                    .iter()
                    .any(|tag| matches!(tag, pmu_outage::sim::FaultTag::Truncated { .. }));
                match reason {
                    BadSampleReason::NonFinite { .. } => assert!(nan_injected),
                    BadSampleReason::WrongLength { .. } => assert!(truncated),
                    BadSampleReason::MaskMismatch { .. } => {
                        panic!("no mask-skew fault was scheduled")
                    }
                }
            }
            Err(e) => panic!("unexpected serving error: {e}"),
        }
    }
    assert_eq!(rejected, 4, "2 NaN-burst + 2 truncated ticks");

    // Session accounting matches the injected ground truth.
    let h = fleet.health(sid).unwrap();
    assert_eq!(h.rejected, 4);
    assert_eq!(h.pushed, 26);
    assert_eq!(h.snapshot.samples_seen, 26, "rejected samples never reach voting");
    assert_eq!(h.snapshot.missing_samples, 5, "3 blackout + 2 full-drop ticks");
    assert_eq!(h.snapshot.events_raised, 0, "corrupt bursts stay below the voter");

    // Metrics: ingestion rejections, per-reason splits, unscorable
    // samples, degraded-mode transitions, and delivery counters.
    let c = |name: &'static str| pmu_obs::counter(name).get();
    assert_eq!(c("serve.samples_rejected"), 4);
    assert_eq!(c("serve.rejected_non_finite"), 2);
    assert_eq!(c("serve.rejected_wrong_length"), 2);
    assert_eq!(c("detect.stream_missing"), 5);
    assert_eq!(c("detect.stream_samples"), 26);
    assert_eq!(c("serve.push_samples"), 30);
    assert!(
        c("serve.mode_transitions") >= 1,
        "the fault mix must move the feed out of Healthy"
    );
    let summary = pmu_obs::metrics_summary();
    pmu_obs::set_metrics_enabled(false);
    for name in ["serve.samples_rejected", "detect.stream_missing", "serve.mode_transitions"] {
        assert!(summary.contains(name), "{name} missing from summary:\n{summary}");
    }
}

/// Detection coverage decays monotonically as Bernoulli drop severity
/// rises. Deterministic: fixed seeds, and a shared seed makes the drop
/// masks nested across severities.
#[test]
fn accuracy_degrades_monotonically_with_drop_severity() {
    let _g = lock();
    let (data, fleet, grid) = build("ieee14");
    let clean = outage_run(&data, 0, 18);

    let mut scored = Vec::new();
    let mut active_ticks = Vec::new();
    for (feed, p) in [0.0, 0.35, 0.7].into_iter().enumerate() {
        let sid = open(&fleet, grid, feed as u64);
        let injected = FaultSchedule::new(1234)
            .window(0, clean.len(), FaultKind::Drop { p })
            .apply(&clean);
        let mut active = 0usize;
        for inj in &injected {
            push(&fleet, sid, &inj.sample).unwrap();
            if fleet.health(sid).unwrap().snapshot.active {
                active += 1;
            }
        }
        let h = fleet.health(sid).unwrap();
        scored.push(h.snapshot.samples_seen - h.snapshot.missing_samples);
        active_ticks.push(active);
        assert!(fleet.close_feed(sid));
    }

    assert!(
        scored[0] >= scored[1] && scored[1] >= scored[2],
        "scorable samples must not increase with severity: {scored:?}"
    );
    assert!(
        active_ticks[0] >= active_ticks[1] && active_ticks[1] >= active_ticks[2],
        "outage coverage must not increase with severity: {active_ticks:?}"
    );
    assert!(
        active_ticks[0] > 0,
        "the clean run must detect the outage at all"
    );
}

/// A closed key fails typed mid-chaos instead of cross-wiring feeds —
/// even when a new feed took over its shard slot — and a reopened key
/// starts a fresh session.
#[test]
fn stale_handles_rejected_during_chaos() {
    let _g = lock();
    let (data, bundle) = train("ieee14");
    // One shard, so the next open reuses the freed slot (under a new
    // generation).
    let mut fleet = Fleet::new(FleetConfig { shards: 1, ..FleetConfig::default() });
    let grid = fleet.add_grid("grid", bundle, &EngineConfig::default()).expect("fresh name");
    let stale = open(&fleet, grid, 0);
    push(&fleet, stale, &data.normal_test.sample(0)).expect("open feed");
    assert!(fleet.close_feed(stale));
    let fresh = open(&fleet, grid, 1);

    let out = fleet.push_batch(&[
        (stale, data.normal_test.sample(1)),
        (fresh, data.normal_test.sample(1)),
    ]);
    assert_eq!(out[0], Err(ServeError::UnknownFeed(stale)));
    assert!(out[1].is_ok());
    assert_eq!(fleet.health(fresh).unwrap().snapshot.samples_seen, 1);
    assert!(fleet.health(stale).is_none());

    let reopened = open(&fleet, grid, 0);
    let h = fleet.health(reopened).unwrap();
    assert_eq!(h.snapshot.samples_seen, 0, "a reopened key starts fresh");
    assert_eq!(h.pushed, 0);
}

/// A blackout landing mid-outage produces exactly one incident dump,
/// and — because the ingest shim tags injected faults into the global
/// flight-recorder ring — the dump carries the matching ground-truth
/// `FaultTag` records alongside the serving-side evidence.
#[test]
fn blackout_mid_outage_dumps_one_tagged_incident() {
    let _g = lock();
    let dir = std::env::temp_dir()
        .join(format!("pmu-chaos-incidents-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let net = by_name("ieee14").unwrap().unwrap();
    let gen = GenConfig { train_len: 16, test_len: 6, ..GenConfig::default() };
    let data = generate_dataset(&net, &gen).unwrap();
    let bundle = ModelBundle::train(
        &data,
        &gen,
        &default_config_for(&net),
        &MlrConfig::default(),
    )
    .unwrap();
    // Only the Dark transition may dump, so the raise that precedes the
    // blackout cannot open the incident first.
    let cfg = EngineConfig {
        incident: pmu_outage::serve::IncidentConfig {
            dir: Some(dir.clone()),
            on_raise: false,
            on_dark: true,
            on_bad_data: false,
            reject_spike_ratio: None,
        },
    };
    let (fleet, grid) = one_grid(bundle, &cfg);
    let sid = open(&fleet, grid, 0);

    // 20 outage ticks then 8 restoration ticks; the grid goes fully dark
    // over ticks [8, 14) while the event stands.
    let mut clean = outage_run(&data, 2, 20);
    clean.extend(normal_run(&data, 8));
    let injected = FaultSchedule::new(7)
        .window(8, 14, FaultKind::Blackout { nodes: vec![] })
        .apply(&clean);
    pmu_obs::recorder::global().clear();
    for (t, inj) in injected.iter().enumerate() {
        inj.record_faults(t);
        push(&fleet, sid, &inj.sample).expect("masked samples must not error");
    }

    let mut dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("incident dir exists")
        .map(|e| e.expect("entry").path())
        .collect();
    dumps.sort();
    assert_eq!(dumps.len(), 1, "one blackout, one dump: {dumps:?}");
    let name = dumps[0].file_name().unwrap().to_string_lossy().into_owned();
    assert!(name.contains("feed_dark"), "dump named after its trigger: {name}");
    let text = std::fs::read_to_string(&dumps[0]).expect("dump readable");
    assert!(
        text.lines().next().unwrap().contains("\"trigger\":\"feed_dark\""),
        "header carries the trigger"
    );
    // The ground-truth fault tags are in the global-ring section of the
    // dump: six blackout records (ticks 8..14), kind `fault`.
    let blackout_records = text
        .lines()
        .filter(|l| l.contains("\"label\":\"fault.blackout\""))
        .count();
    assert_eq!(blackout_records, 6, "one tagged record per dark tick:\n{text}");
    assert!(
        text.lines()
            .filter(|l| l.contains("\"label\":\"fault.blackout\""))
            .all(|l| l.contains("\"kind\":\"fault\"")),
        "fault tags carry the fault record kind"
    );
    // And the serving-side evidence rides along in the same dump.
    assert!(
        text.contains("\"label\":\"detect.stream_raised\""),
        "the pre-blackout raise is in the ring:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fast-scale dataset + two-grid fleet for the lifecycle-race tests.
fn build_fleet(shards: usize) -> (Dataset, Fleet, GridId, GridId) {
    let net = by_name("ieee14").expect("known system").expect("embedded case");
    let gen = GenConfig { train_len: 16, test_len: 6, ..GenConfig::default() };
    let data = generate_dataset(&net, &gen).expect("dataset generation");
    let bundle = ModelBundle::train(
        &data,
        &gen,
        &default_config_for(&net),
        &MlrConfig::default(),
    )
    .expect("training");
    let mut fleet = Fleet::new(FleetConfig { shards, ..FleetConfig::default() });
    let east = fleet
        .add_grid("east", bundle.clone(), &EngineConfig::default())
        .expect("fresh name");
    let west = fleet.add_grid("west", bundle, &EngineConfig::default()).expect("fresh name");
    (data, fleet, east, west)
}

/// Open/close/reopen churn racing `push_batch` across shards: every
/// successful push lands on exactly the session it addressed (no stale
/// routes cross-wire feeds), closed keys fail typed, and the
/// `serve.sessions_*` counters match ground truth exactly at quiescence.
#[test]
fn fleet_lifecycle_races_keep_exact_session_accounting() {
    let _g = lock();
    pmu_obs::set_metrics_enabled(true);
    pmu_obs::reset_metrics();
    let (data, fleet, east, west) = build_fleet(2);

    // Stable feeds live for the whole test; churned keys come and go on
    // the same shard tables while the pushers are mid-flight.
    let stable: Vec<FeedKey> = (0..4).map(|f| FeedKey { grid: east, feed: f }).collect();
    for &k in &stable {
        fleet.open_feed(k).expect("fresh key");
    }
    let fleet = std::sync::Arc::new(fleet);
    let sample = data.normal_test.sample(0);
    let rounds = 40usize;
    let pushers = 2usize;
    let churners = 2u64;

    std::thread::scope(|s| {
        for _ in 0..pushers {
            let fleet = std::sync::Arc::clone(&fleet);
            let stable = stable.clone();
            let sample = sample.clone();
            s.spawn(move || {
                for _ in 0..rounds {
                    let batch: Vec<_> =
                        stable.iter().map(|&k| (k, sample.clone())).collect();
                    for ev in fleet.push_batch(&batch) {
                        ev.expect("stable feeds never close, so every push lands");
                    }
                }
            });
        }
        for c in 0..churners {
            let fleet = std::sync::Arc::clone(&fleet);
            let sample = sample.clone();
            s.spawn(move || {
                for r in 0..rounds as u64 {
                    let key = FeedKey { grid: west, feed: 100 + c * 1000 + r };
                    fleet.open_feed(key).expect("churned keys are unique");
                    fleet.push_batch(&[(key, sample.clone())])[0]
                        .as_ref()
                        .expect("open feed accepts its own sample");
                    assert!(fleet.close_feed(key));
                    // A closed key fails typed — it can never address a
                    // stranger's slot, however the table reuses it.
                    assert_eq!(
                        fleet.push_batch(&[(key, sample.clone())])[0],
                        Err(ServeError::UnknownFeed(key))
                    );
                }
            });
        }
    });

    // Exact counter accounting at quiescence.
    let churned = (churners as usize) * rounds;
    assert_eq!(fleet.sessions_active(), stable.len());
    assert_eq!(
        pmu_obs::counter("serve.sessions_opened").get(),
        (stable.len() + churned) as u64
    );
    assert_eq!(pmu_obs::counter("serve.sessions_closed").get(), churned as u64);
    assert_eq!(pmu_obs::gauge("serve.sessions_active").get(), stable.len() as f64);

    // No pushes lost, duplicated, or cross-wired: each stable feed saw
    // exactly one sample per pusher round, and nothing else survives.
    let healths = fleet.feed_healths();
    assert_eq!(healths.len(), stable.len());
    for (key, h) in &healths {
        assert_eq!(h.pushed, pushers * rounds, "feed {key} miscounted");
        assert_eq!(h.rejected, 0);
    }

    // Shard tables reclaimed every churned slot: only the stable
    // sessions remain, and all admitted samples fully drained.
    let stats = fleet.shard_stats();
    assert_eq!(stats.iter().map(|s| s.sessions).sum::<usize>(), stable.len());
    assert!(stats.iter().all(|s| s.inflight == 0), "drains settle to zero inflight");
    // The churners' post-close pushes were refused at routing — never
    // admitted, so never drained; only the open-feed pushes count.
    assert_eq!(
        stats.iter().map(|s| s.drained).sum::<u64>(),
        (pushers * rounds * stable.len() + churned) as u64,
        "every admitted sample is drained exactly once"
    );
    pmu_obs::set_metrics_enabled(false);
}

/// Reopening a closed key starts a fresh session (no state leaks through
/// the recycled slot), and a feed migrated between shards mid-stream
/// keeps an exact push count with no event discontinuity.
#[test]
fn reopened_keys_start_fresh_and_migrations_lose_nothing() {
    let _g = lock();
    let (data, fleet, east, _) = build_fleet(2);
    let key = FeedKey { grid: east, feed: 1 };
    fleet.open_feed(key).expect("fresh key");
    for t in 0..6 {
        fleet.push_batch(&[(key, data.cases[0].test.sample(t % data.cases[0].test.len()))])
            [0]
        .as_ref()
        .expect("outage samples score");
    }
    assert_eq!(fleet.health(key).unwrap().snapshot.samples_seen, 6);
    assert!(fleet.close_feed(key));

    fleet.open_feed(key).expect("closed keys can reopen");
    let h = fleet.health(key).unwrap();
    assert_eq!(h.pushed, 0, "a reopened key starts a fresh session");
    assert_eq!(h.snapshot.samples_seen, 0);
    assert!(!h.snapshot.active, "no event state leaks through the recycled slot");

    // Walk the session across every shard while pushing a full outage
    // run: the count stays exact and the raise still happens.
    let total = 30usize;
    let mut raised = false;
    for i in 0..total {
        if i % 10 == 5 {
            let to = (fleet.home_shard(key) + i / 10 + 1) % fleet.shard_count();
            fleet.migrate_feed(key, to).expect("open key migrates");
        }
        let sample = data.cases[0].test.sample(i % data.cases[0].test.len());
        let ev = fleet.push_batch(&[(key, sample)]).remove(0).expect("open feed");
        if matches!(ev, StreamEvent::Raised { .. }) {
            raised = true;
        }
    }
    let h = fleet.health(key).unwrap();
    assert_eq!(h.pushed, total, "no push lost or duplicated across migrations");
    assert!(raised, "the outage still raises across shard moves");
    assert!(h.snapshot.active);
}

/// The blackout contract holds on the larger grids too: ieee30 and
/// ieee57 fleets ride out a mid-outage blackout without clearing,
/// panicking, or sticking.
#[test]
fn larger_grids_survive_blackout_schedules() {
    let _g = lock();
    for name in ["ieee30", "ieee57"] {
        let (data, fleet, grid) = build(name);
        let sid = open(&fleet, grid, 0);
        let mut clean = outage_run(&data, 1, 16);
        clean.extend(normal_run(&data, 8));
        let injected = FaultSchedule::new(5)
            .window(6, 11, FaultKind::Blackout { nodes: vec![] })
            .apply(&clean);

        let mut raises = 0usize;
        let mut clears = 0usize;
        for (t, inj) in injected.iter().enumerate() {
            let ev = push(&fleet, sid, &inj.sample)
                .unwrap_or_else(|e| panic!("{name} tick {t}: {e}"));
            match ev {
                StreamEvent::Raised { .. } => raises += 1,
                StreamEvent::Cleared => clears += 1,
                _ => {}
            }
            if (6..16).contains(&t) {
                assert!(
                    fleet.health(sid).unwrap().snapshot.active,
                    "{name}: event lost at tick {t}"
                );
            }
        }
        assert_eq!(raises, 1, "{name}: one raise");
        assert_eq!(clears, 1, "{name}: one clear, after restoration");
        let h = fleet.health(sid).unwrap();
        assert_eq!(h.snapshot.missing_samples, 5, "{name}: the five dark ticks");
        assert!(!h.snapshot.active, "{name}: restored");
        // Not stuck.
        assert!(push(&fleet, sid, &data.normal_test.sample(0)).is_ok());
    }
}

/// A corruption burst landing on a *confirmed* outage neither clears the
/// event nor drags localization off the true branch: the bad-data screen
/// excises the corrupted channels and re-scores, so the voter keeps
/// seeing the real outage. Accounting is exact against the injected
/// `FaultTag::Corrupted` ground truth — every channel the detector
/// flags is one the schedule actually corrupted, and the session's
/// `bad_data_samples` counter is bounded by the burst length.
#[test]
fn corrupt_mid_outage_keeps_localization() {
    let _g = lock();
    let net = by_name("ieee14").expect("known system").expect("embedded case");
    let gen = GenConfig { train_len: 16, test_len: 6, ..GenConfig::default() };
    let data = generate_dataset(&net, &gen).expect("dataset generation");
    let bundle = ModelBundle::train(&data, &gen, &default_config_for(&net), &MlrConfig::default())
        .expect("training");
    // Keep a standalone detector for per-tick suspect accounting; the
    // fleet consumes the bundle.
    let detector = bundle.detector.clone();
    let (fleet, grid) = one_grid(bundle, &EngineConfig::default());
    let sid = open(&fleet, grid, 0);

    let case = &data.cases[2];
    // Two victim channels away from the outage endpoints (and the
    // reference bus), so corruption and outage signature never coincide.
    let victims: Vec<usize> = (1..net.n_buses())
        .filter(|&i| i != case.endpoints.0 && i != case.endpoints.1)
        .take(2)
        .collect();

    // 24 outage ticks; ticks [10, 16) corrupt both victims at scale 5.
    let clean = outage_run(&data, 2, 24);
    let injected = FaultSchedule::new(21)
        .window(10, 16, FaultKind::Corrupt { nodes: victims.clone(), scale: 5.0 })
        .apply(&clean);

    let mut raises = Vec::new();
    for (t, inj) in injected.iter().enumerate() {
        // Ground truth for this tick, straight from the schedule's tags.
        let corrupted: Vec<usize> = inj
            .tags
            .iter()
            .find_map(|tag| match tag {
                pmu_outage::sim::FaultTag::Corrupted { nodes, .. } => Some(nodes.clone()),
                _ => None,
            })
            .unwrap_or_default();
        if (10..16).contains(&t) {
            assert_eq!(corrupted, victims, "tick {t} carries the ground-truth tag");
        } else {
            assert!(corrupted.is_empty(), "no corruption outside the window");
        }
        // Detector-level contract: every channel the screen flags is one
        // the schedule actually corrupted — never a clean one.
        if let Ok(d) = detector.detect(&inj.sample) {
            for s in &d.suspect_nodes {
                assert!(
                    corrupted.contains(s),
                    "tick {t}: flagged clean channel {s} (corrupted: {corrupted:?})"
                );
            }
        }

        let ev = push(&fleet, sid, &inj.sample).expect("finite corrupted samples pass ingestion");
        match ev {
            StreamEvent::Raised { lines, .. } => raises.push((t, lines)),
            StreamEvent::Cleared => {
                panic!("corruption cleared a standing outage at tick {t}")
            }
            StreamEvent::Relocalized { lines, .. } => assert!(
                lines.contains(&case.branch),
                "tick {t} relocalized off the true branch: {lines:?}"
            ),
            StreamEvent::None => {}
        }
        if let Some(&(raised_at, _)) = raises.first() {
            if t >= raised_at {
                assert!(
                    fleet.health(sid).unwrap().snapshot.active,
                    "event lost at tick {t}"
                );
            }
        }
    }

    assert_eq!(raises.len(), 1, "exactly one raise: {raises:?}");
    let (raised_at, lines) = &raises[0];
    assert!(*raised_at < 10, "raised before the corruption burst");
    assert!(lines.contains(&case.branch), "raise localizes the true branch");

    // Session accounting against the injected ground truth: the screen
    // fired inside the burst and can never fire more often than it.
    let h = fleet.health(sid).unwrap();
    assert!(h.snapshot.bad_data_samples >= 1, "the screen never fired during the burst");
    assert!(
        h.snapshot.bad_data_samples <= 6,
        "excised on more ticks ({}) than were corrupted (6)",
        h.snapshot.bad_data_samples
    );
    assert!(h.snapshot.active, "the outage still stands after the burst");
}
