//! Production-style deployment over the train/serve split: train once
//! (day-ahead) into the **artifact store**, reload the bundle in the
//! "online" process into a one-grid serving [`Fleet`], and run the k-of-m
//! voting stream monitor over a day of PMU samples with glitches, a PDC
//! dropout, an outage, and a restoration. A second run of this example
//! finds the bundle already in the store and skips training entirely.
//!
//! Run with: `cargo run --release --example streaming_monitor`

use pmu_outage::detect::detector::default_config_for;
use pmu_outage::detect::stream::{StreamConfig, StreamEvent};
use pmu_outage::prelude::*;

fn main() {
    // --- Day-ahead: generate data, train-or-reuse via the store. ---------
    let net = ieee14().expect("embedded case");
    let gen = GenConfig { train_len: 40, test_len: 12, ..GenConfig::default() };
    let data = generate_dataset(&net, &gen).expect("dataset generation");

    let store_dir = std::env::temp_dir().join("pmu-streaming-monitor-artifacts");
    let store = ArtifactStore::new(&store_dir).expect("artifact store");
    let (bundle, reused) = store
        .load_or_train(&data, &gen, &default_config_for(&net), &MlrConfig::default())
        .expect("train or reuse");
    let path = store.path_for(bundle.key().expect("key"));
    println!(
        "day-ahead models {}: {}",
        if reused { "reused from the store (training skipped)" } else { "trained and stored" },
        path.display()
    );

    // --- Online process: load the bundle into a fleet, open a feed. -----
    let online = ModelBundle::load(&path).expect("bundle load");
    // A scripted day: normal -> single-sample glitch -> PDC dropout ->
    // sustained outage -> restoration.
    let case = &data.cases[6];
    let pdc_dark = {
        let clustering = online.detector.clustering();
        let c = clustering.cluster_of(case.endpoints.0);
        Mask::with_missing(net.n_buses(), clustering.members(c))
    };
    // Feeds vote with the default k-of-m configuration.
    let voting = StreamConfig::default();
    let mut fleet = Fleet::new(FleetConfig::default());
    let grid =
        fleet.add_grid("ieee14", online, &EngineConfig::default()).expect("fresh grid name");
    let feed = FeedKey { grid, feed: 0 };
    fleet.open_feed(feed).expect("fresh feed key");
    println!(
        "fleet serving {} (k-of-m {}/{}), feed {} open",
        fleet.grid_system(grid),
        voting.votes,
        voting.window,
        fleet.feed_label(feed),
    );

    println!(
        "scripted events: glitch at t=3, PDC dropout t=6..9, outage of line {} t=10..16, restored t=17\n",
        case.branch
    );

    for t in 0..20usize {
        let sample = match t {
            3 => case.test.sample(0), // isolated glitch (single outage-like sample)
            6..=9 => data.normal_test.sample(t).masked(&pdc_dark),
            10..=16 => case.test.sample((t - 10) % case.test.len()).masked(&pdc_dark),
            _ => data.normal_test.sample(t % data.normal_test.len()),
        };
        let event = fleet
            .push_batch(&[(feed, sample)])
            .pop()
            .expect("one result per entry")
            .expect("stream push");
        let health = fleet.health(feed).expect("feed is open");
        let state = if health.snapshot.active {
            match &event {
                StreamEvent::Raised { lines, .. } => format!("OUTAGE {lines:?}"),
                _ => "OUTAGE (active)".to_string(),
            }
        } else {
            "quiet".to_string()
        };
        match event {
            StreamEvent::Raised { lines, .. } => {
                println!("t={t:>2} >>> EVENT RAISED: lines {lines:?} (state: {state})")
            }
            StreamEvent::Cleared => println!("t={t:>2} >>> EVENT CLEARED (state: {state})"),
            StreamEvent::Relocalized { lines, .. } => {
                println!("t={t:>2} >>> EVENT RELOCALIZED: lines {lines:?} (state: {state})")
            }
            StreamEvent::None => println!("t={t:>2}     state: {state}"),
        }
    }

    let health = fleet.health(feed).expect("feed is open");
    let snap = health.snapshot;
    println!(
        "\nfeed health: {} samples, {} missing, {} raised / {} cleared, mode {}",
        snap.samples_seen,
        snap.missing_samples,
        snap.events_raised,
        snap.events_cleared,
        health.mode.label(),
    );
    println!(
        "The isolated glitch at t=3 and the pure PDC dropout never raised an \
         event; the sustained outage was confirmed within the voting window \
         (even with the outage-local PDC dark) and cleared after restoration."
    );
}
