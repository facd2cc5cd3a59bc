//! Seeded PMU traffic: per-feed delivery cycles with injected outages and
//! faults, plus the ground truth each delivered sample carries.
//!
//! Every feed repeats a cycle of frames drawn from the `pmu_sim`
//! dataset's held-out test windows, one per 60 Hz frame. The delivery at
//! absolute tick `t` is a pure function of `(seed, feed, t)`, so the
//! mirror replays in `serve.rs` see exactly the bytes the fleet saw.

use pmu_detect::Detector;
use pmu_serve::{FeedKey, GridId};
use pmu_sim::missing::outage_endpoints_mask;
use pmu_sim::{Dataset, FaultKind, FaultSchedule, FaultTag, PhasorSample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Frames per cycle: 8 s at 60 frames/s.
pub const CYCLE: usize = 480;
/// Ticks an injected outage episode lasts (1 s).
pub const EPISODE: usize = 60;
/// The typed outcome the fleet owes a delivered sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A valid sample: the push must return a `StreamEvent`.
    Event,
    /// A NaN-bearing or truncated sample: the ingest guard must answer
    /// `ServeError::BadSample`.
    BadSample,
}

/// One frame of a feed's cycle: the sample as delivered plus its
/// injected ground truth.
struct Slot {
    sample: PhasorSample,
    /// Nodes whose phasors were overwritten with NaN.
    nan_nodes: Vec<usize>,
    /// The phasor vector was cut short in flight.
    truncated: bool,
    /// Branch injected as out of service at this frame.
    outage: Option<usize>,
}

/// One delivered sample and what the fleet must make of it.
pub struct Delivery {
    pub sample: PhasorSample,
    pub expect: Expect,
    /// Branch injected as out of service at this delivery tick.
    pub outage: Option<usize>,
}

/// A feed's repeating delivery schedule.
pub struct FeedPlan {
    pub key: FeedKey,
    /// Index of the feed's grid in the workload's grid list.
    pub grid: usize,
    cycle: Vec<Slot>,
    /// Per-node Bernoulli drop probability applied afresh at every tick
    /// (`FaultKind::Drop`); 0 for a reliable link.
    drop_p: f64,
    /// Absolute tick before which the feed is moved to another shard.
    pub migrate_at: Option<usize>,
}

/// SplitMix64 finalizer over a few words: seeds per-feed, per-tick RNGs.
pub fn mix(words: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for &w in words {
        h ^= w
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

impl FeedPlan {
    /// The delivery at absolute tick `t`.
    pub fn deliver(&self, seed: u64, t: usize) -> Delivery {
        let slot = &self.cycle[t % self.cycle.len()];
        let mut sample = slot.sample.clone();
        if self.drop_p > 0.0 {
            let salt = mix(&[seed, self.grid as u64, self.key.feed, t as u64]);
            let dropped = FaultSchedule::new(salt)
                .window(0, 1, FaultKind::Drop { p: self.drop_p })
                .apply(std::slice::from_ref(&sample));
            sample = dropped
                .into_iter()
                .next()
                .expect("one sample in, one out")
                .sample;
        }
        let nan_observed = slot
            .nan_nodes
            .iter()
            .any(|&n| n < sample.n_nodes() && !sample.mask().is_missing(n));
        let expect = if slot.truncated || nan_observed {
            Expect::BadSample
        } else {
            Expect::Event
        };
        Delivery {
            sample,
            expect,
            outage: slot.outage,
        }
    }
}

/// Outage episodes per cycle for a rider, one per 120-tick quarter.
const EPISODES: usize = 4;

/// A feed's sample sources, drawn from the dataset's held-out test
/// windows (the detector never trained on them): normal operation, and
/// for an outage rider one outage case per episode, endpoints dark.
struct Sources {
    normal: Vec<PhasorSample>,
    outages: Vec<(usize, Vec<PhasorSample>)>,
}

fn sources(data: &Dataset, rng: &mut StdRng, rider: bool) -> Sources {
    let window = |w: &pmu_sim::PhasorWindow| (0..w.len()).map(|t| w.sample(t)).collect::<Vec<_>>();
    let mut cases: Vec<usize> = (0..data.cases.len()).collect();
    for i in 0..cases.len().min(EPISODES) {
        let j = rng.gen_range(i..cases.len());
        cases.swap(i, j);
    }
    let outages = if rider {
        &cases[..EPISODES.min(cases.len())]
    } else {
        &[]
    };
    Sources {
        normal: window(&data.normal_test),
        outages: outages
            .iter()
            .map(|&c| {
                let case = &data.cases[c];
                let dark = outage_endpoints_mask(data.n_nodes(), case.endpoints);
                (
                    case.branch,
                    window(&case.test).iter().map(|s| s.masked(&dark)).collect(),
                )
            })
            .collect(),
    }
}

/// Which episode (and tick within it) a rider's cycle tick `t` falls in:
/// episode `q` covers `[120q + 30 + off, 120q + 90 + off)`, so `off`
/// (below 30) staggers riders without crossing quarters.
fn in_episode(t: usize, off: usize) -> Option<(usize, usize)> {
    let q = t / 120;
    let start = q * 120 + 30 + off;
    (t >= start && t < start + EPISODE).then_some((q, t - start))
}

/// The clean cycle of a feed: `(sample, injected outage)` per tick.
fn clean_cycle(src: &Sources, off: usize, phase: usize) -> Vec<(PhasorSample, Option<usize>)> {
    (0..CYCLE)
        .map(
            |t| match in_episode(t, off).filter(|_| !src.outages.is_empty()) {
                Some((q, k)) => {
                    let (branch, samples) = &src.outages[q % src.outages.len()];
                    (samples[k % samples.len()].clone(), Some(*branch))
                }
                None => (src.normal[(t + phase) % src.normal.len()].clone(), None),
            },
        )
        .collect()
}

/// `stream`-style traffic on one grid: complete data, and a quarter of
/// the feeds riding outages with their endpoints dark (Fig. 6, top row):
/// four one-second episodes per 8 s cycle, each a different case, the
/// same four every cycle, so each rider's masks recur.
pub fn outage_riders(
    data: &Dataset,
    grid: usize,
    gid: GridId,
    feeds: usize,
    seed: u64,
) -> Vec<FeedPlan> {
    (0..feeds)
        .map(|f| {
            let mut rng = StdRng::seed_from_u64(mix(&[seed, grid as u64, f as u64, 1]));
            let src = sources(data, &mut rng, f % 4 == 0);
            let off = rng.gen_range(0..30usize);
            let cycle = clean_cycle(&src, off, f)
                .into_iter()
                .map(|(sample, outage)| Slot {
                    sample,
                    nan_nodes: Vec::new(),
                    truncated: false,
                    outage,
                })
                .collect();
            FeedPlan {
                key: FeedKey {
                    grid: gid,
                    feed: f as u64,
                },
                grid,
                cycle,
                drop_p: 0.0,
                migrate_at: None,
            }
        })
        .collect()
}

/// `chaos`-style traffic on one grid. Every feed gets one window of each
/// scheduled fault per cycle, at seeded positions: a PDC-cluster
/// `Blackout`, a `NanBurst`, a `Truncate`, a `Corrupt` channel, a
/// `Duplicate` and a `Stale` replay. A quarter of the feeds ride outages
/// as in [`outage_riders`]; every other feed runs a lossy link whose
/// per-node `Drop` rate comes from the paper's reliability model
/// (Eq. 14 inverted at a system reliability of 0.7, 0.8 or 0.9, by feed).
/// `migrate_at` moves three feeds per grid mid-run.
#[allow(clippy::too_many_arguments)]
pub fn chaos(
    data: &Dataset,
    detector: &Detector,
    grid: usize,
    gid: GridId,
    feeds: usize,
    seed: u64,
    migrate_at: usize,
) -> Vec<FeedPlan> {
    let n = data.n_nodes();
    let clustering = detector.clustering();
    (0..feeds)
        .map(|f| {
            let mut rng = StdRng::seed_from_u64(mix(&[seed, grid as u64, f as u64, 2]));
            let src = sources(data, &mut rng, f % 4 == 0);
            let off = rng.gen_range(0..30usize);
            let clean = clean_cycle(&src, off, f);

            // One fault of each kind per cycle, each in its own 60-tick
            // slot (slots shuffled per feed).
            let mut slots: Vec<usize> = (0..CYCLE / 60).collect();
            for i in (1..slots.len()).rev() {
                slots.swap(i, rng.gen_range(0..i + 1));
            }
            let cluster = rng.gen_range(0..clustering.n_clusters());
            // The corrupted channel stays off the rider's own outage
            // endpoints, so the burst cannot mimic the outage signature.
            let avoid: Vec<usize> = src
                .outages
                .iter()
                .filter_map(|(b, _)| data.case_for_branch(*b))
                .flat_map(|c| [c.endpoints.0, c.endpoints.1])
                .collect();
            let victim = loop {
                let v = rng.gen_range(1..n);
                if !avoid.contains(&v) {
                    break v;
                }
            };
            let nan_node = rng.gen_range(0..n);
            let faults = [
                (
                    12,
                    FaultKind::Blackout {
                        nodes: clustering.members(cluster).to_vec(),
                    },
                ),
                (
                    3,
                    FaultKind::NanBurst {
                        nodes: vec![nan_node],
                    },
                ),
                (2, FaultKind::Truncate { keep: n / 2 }),
                (
                    10,
                    FaultKind::Corrupt {
                        nodes: vec![victim],
                        scale: 5.0,
                    },
                ),
                (3, FaultKind::Duplicate),
                (5, FaultKind::Stale { lag: 3 }),
            ];
            let mut schedule = FaultSchedule::new(mix(&[seed, grid as u64, f as u64, 3]));
            for (k, (len, kind)) in faults.into_iter().enumerate() {
                let start = slots[k] * 60 + rng.gen_range(0..40usize);
                schedule = schedule.window(start, start + len, kind);
            }

            let clean_samples: Vec<PhasorSample> = clean.iter().map(|(s, _)| s.clone()).collect();
            let mut cycle: Vec<Slot> = Vec::with_capacity(CYCLE);
            for (inj, (_, outage)) in schedule.apply(&clean_samples).into_iter().zip(&clean) {
                let mut nan_nodes = Vec::new();
                let mut truncated = false;
                for tag in &inj.tags {
                    match tag {
                        FaultTag::NanInjected { nodes } => nan_nodes.extend_from_slice(nodes),
                        FaultTag::Truncated { .. } => truncated = true,
                        // A duplicate replays the previous delivery,
                        // faults and all.
                        FaultTag::Duplicated => {
                            let prev = cycle.last().expect("duplicates follow a delivery");
                            nan_nodes.extend_from_slice(&prev.nan_nodes);
                            truncated |= prev.truncated;
                        }
                        _ => {}
                    }
                }
                cycle.push(Slot {
                    sample: inj.sample,
                    nan_nodes,
                    truncated,
                    outage: *outage,
                });
            }
            let drop_p = if f % 2 == 1 {
                let r = [0.7, 0.8, 0.9][(f / 2) % 3];
                1.0 - pmu_sim::reliability::per_device_working_prob(r, n)
            } else {
                0.0
            };
            FeedPlan {
                key: FeedKey {
                    grid: gid,
                    feed: f as u64,
                },
                grid,
                cycle,
                drop_p,
                migrate_at: (f % 8 == 3).then_some(migrate_at),
            }
        })
        .collect()
}
