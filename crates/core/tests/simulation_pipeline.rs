//! Golden test of the per-run simulation pipeline: memo-cache routing,
//! prefetch-table answers, the attempt-0 batch, the retry ladder,
//! quarantine and the verdict store, pinned batch by batch.
//!
//! A synthetic bench with an effort ledger and detached evaluation has
//! transient faults that heal at attempt 1 or 2 and permanent faults.
//! The same rounds (points repeated within and across batches, with and
//! without a table of work done ahead) run at one and two threads, and
//! every batch must reproduce the pinned verdicts and counters.

use ecripse_core::bench::{EffortSnapshot, EvalError, SolveEffort, Testbench};
use ecripse_core::cache::MemoCacheConfig;
use ecripse_core::observe::{Observer, SimBatchStats};
use ecripse_core::oracle::OracleStats;
use ecripse_core::retry::RetryPolicy;
use ecripse_core::simulate::Simulator;
use ecripse_svm::classifier::{Decision, SvmClassifier, SvmConfig};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A grid point `(i, j)`, evaluated at `z = (i/2, j/2)`.
type Point = (u32, u32);

/// A bench on the `(i, j)` grid: the verdict is `i + j > 5`. Points with
/// `j = 0` never evaluate; points with `i = 0` fail below attempt 2 and
/// points with `i = 1` below attempt 1. Every evaluation costs an
/// effort that depends on the point and the attempt.
#[derive(Default)]
struct Graded {
    newton: AtomicU64,
    solves: AtomicU64,
}

fn grid_of(z: &[f64]) -> Point {
    ((z[0] * 2.0) as u32, (z[1] * 2.0) as u32)
}

fn evaluate(z: &[f64], attempt: usize) -> (Result<bool, EvalError>, EffortSnapshot) {
    let (i, j) = grid_of(z);
    let receipt = EffortSnapshot {
        newton_iters: 7 + 2 * u64::from(i) + 3 * attempt as u64,
        curve_solves: 1 + u64::from(j),
        coarse_accepts: 1,
        escalations: attempt as u64,
    };
    let heals_at = match i {
        0 => 2,
        1 => 1,
        _ => 0,
    };
    let outcome = if j == 0 || attempt < heals_at {
        Err(EvalError::NonFinite { context: "graded" })
    } else {
        Ok(i + j > 5)
    };
    (outcome, receipt)
}

impl Testbench for Graded {
    fn dim(&self) -> usize {
        2
    }

    fn fails(&self, z: &[f64]) -> bool {
        self.try_fails(z).unwrap_or(false)
    }

    fn try_fails_attempt(&self, z: &[f64], attempt: usize) -> Result<bool, EvalError> {
        let (outcome, receipt) = evaluate(z, attempt);
        self.book(&receipt);
        outcome
    }

    fn solve_effort(&self) -> SolveEffort {
        SolveEffort {
            newton_iters: self.newton.load(Ordering::Relaxed),
            factorisations: self.solves.load(Ordering::Relaxed),
        }
    }

    fn evaluate_detached(&self, z: &[f64]) -> Option<(Result<bool, EvalError>, EffortSnapshot)> {
        Some(evaluate(z, 0))
    }

    fn book(&self, receipt: &EffortSnapshot) {
        self.newton
            .fetch_add(receipt.newton_iters, Ordering::Relaxed);
        self.solves
            .fetch_add(receipt.curve_solves, Ordering::Relaxed);
    }
}

/// Records the size of every call that reaches the raw bench.
#[derive(Default)]
struct BatchLog(Mutex<Vec<u64>>);

impl Observer for BatchLog {
    fn sim_batch_finished(&self, stats: &SimBatchStats) {
        self.0.lock().push(stats.batch);
    }
}

/// A decision function that finds every point uncertain, so a round
/// does ahead every point it is given that the memo does not hold.
fn everything_uncertain() -> Decision {
    let xs = vec![
        vec![0.0, 0.0],
        vec![3.0, 3.0],
        vec![0.5, 0.0],
        vec![2.5, 3.0],
    ];
    let cfg = SvmConfig {
        degree: 1,
        uncertain_band: f64::INFINITY,
        ..SvmConfig::default()
    };
    let clf = SvmClassifier::fit(&cfg, &xs, &[false, true, false, true]).expect("two classes");
    clf.decision().clone()
}

fn points(grid: &[Point]) -> Vec<Vec<f64>> {
    grid.iter()
        .map(|&(i, j)| vec![f64::from(i) * 0.5, f64::from(j) * 0.5])
        .collect()
}

/// One round: the batch the oracle sends and the points done ahead of
/// it.
struct Round {
    batch: Vec<Point>,
    ahead: Vec<Point>,
}

fn rounds() -> Vec<Round> {
    let round = |batch: &[Point], ahead: &[Point]| Round {
        batch: batch.to_vec(),
        ahead: ahead.to_vec(),
    };
    let repeated = [(0, 0), (3, 3), (0, 5), (5, 0), (1, 1), (2, 2), (0, 5)];
    let all: Vec<Point> = (0..6).flat_map(|i| (0..6).map(move |j| (i, j))).collect();
    vec![
        round(
            &[(1, 1), (2, 3), (0, 4), (3, 0), (2, 3), (5, 5), (1, 2)],
            &[],
        ),
        round(
            &[(2, 3), (4, 1), (0, 4), (4, 4), (4, 1), (1, 5), (3, 0)],
            &[(4, 1), (4, 4), (4, 4), (1, 5), (5, 2), (2, 3)],
        ),
        round(&[], &[(3, 3)]),
        round(&repeated, &[(0, 0), (0, 5), (2, 2), (5, 0), (3, 4)]),
        round(&repeated, &[(0, 0), (3, 3), (2, 2)]),
        round(&[], &[]),
        round(
            &all,
            &[(5, 4), (4, 5), (0, 2), (1, 0), (2, 1), (5, 4), (3, 4)],
        ),
    ]
}

/// What one round did.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Step {
    /// Verdicts, `T` for a failure and `.` for a pass.
    verdicts: String,
    simulations: u64,
    hits: u64,
    misses: u64,
    retries: u64,
    quarantined: u64,
    /// Sizes of the calls that reached the raw bench, in order.
    batches: Vec<u64>,
    /// Points evaluated ahead, and how many of those the batch used.
    evaluated: u64,
    consumed: u64,
    /// Effort booked on the raw bench's ledger.
    effort: SolveEffort,
}

/// Runs every round through the per-run pipeline on a pool of
/// `threads`, doing the `ahead` points ahead of each batch when
/// `prefetching`.
fn run(prefetching: bool, threads: usize) -> Vec<Step> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("test pool");
    let raw = Graded::default();
    let log = BatchLog::default();
    let sim = Simulator::new(
        &raw,
        &log,
        MemoCacheConfig::default(),
        RetryPolicy::default(),
    );
    let decision = everything_uncertain();
    let done = AtomicBool::new(false);
    let counters = || (sim.simulations(), sim.oracle_stats(&OracleStats::default()));
    pool.install(|| {
        rounds()
            .iter()
            .map(|round| {
                let evaluated = if prefetching {
                    sim.prefetch(&points(&round.ahead), &decision, &done)
                } else {
                    0
                };
                let (sims, before) = counters();
                let verdicts = sim.fails_batch(&points(&round.batch));
                let consumed = sim.end_round();
                let (after_sims, after) = counters();
                let effort = |s: &OracleStats| SolveEffort {
                    newton_iters: s.newton_iters,
                    factorisations: s.factorisations,
                };
                Step {
                    verdicts: verdicts
                        .iter()
                        .map(|&v| if v { 'T' } else { '.' })
                        .collect(),
                    simulations: after_sims - sims,
                    hits: after.cache_hits - before.cache_hits,
                    misses: after.cache_misses - before.cache_misses,
                    retries: after.retries - before.retries,
                    quarantined: after.quarantined - before.quarantined,
                    batches: std::mem::take(&mut *log.0.lock()),
                    evaluated,
                    consumed,
                    effort: effort(&after).delta(&effort(&before)),
                }
            })
            .collect()
    })
}

/// Per round: verdicts, simulations, memo hits and misses, retries,
/// quarantines and the booked effort (Newton evaluations, solves).
/// Doing work ahead moves none of them.
type Counters = (&'static str, u64, u64, u64, u64, u64, u64, u64);

const GOLDEN: &[Counters] = &[
    (".....T.", 12, 1, 6, 6, 1, 148, 38),
    ("...T.T.", 4, 4, 3, 1, 0, 51, 19),
    ("", 0, 0, 0, 0, 0, 0, 0),
    (".T.....", 11, 2, 5, 6, 2, 144, 31),
    (".T.....", 0, 7, 0, 0, 0, 0, 0),
    ("", 0, 0, 0, 0, 0, 0, 0),
    (
        "...........T....TT...TTT..TTTT.TTTTT",
        36,
        14,
        22,
        14,
        3,
        462,
        110,
    ),
];

/// Per round: the sizes of the calls reaching the raw bench without
/// and with a table of work done ahead, and the points that table
/// evaluated and the batch consumed.
type Batches = (&'static [u64], &'static [u64], u64, u64);

const BATCHES: &[Batches] = &[
    (&[6, 1, 1, 1, 1, 1, 1], &[6, 1, 1, 1, 1, 1, 1], 0, 0),
    (&[3, 1], &[1], 4, 3),
    (&[0], &[], 1, 0),
    (&[5, 1, 1, 1, 1, 1, 1], &[1, 1, 1, 1, 1, 1, 1], 5, 4),
    (&[], &[], 0, 0),
    (&[0], &[0], 0, 0),
    (
        &[22, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        &[16, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        6,
        6,
    ),
];

fn golden(prefetching: bool) -> Vec<Step> {
    GOLDEN
        .iter()
        .zip(BATCHES)
        .map(|(g, b)| {
            let (plain, ahead, evaluated, consumed) = *b;
            Step {
                verdicts: g.0.to_string(),
                simulations: g.1,
                hits: g.2,
                misses: g.3,
                retries: g.4,
                quarantined: g.5,
                batches: if prefetching { ahead } else { plain }.to_vec(),
                evaluated: if prefetching { evaluated } else { 0 },
                consumed: if prefetching { consumed } else { 0 },
                effort: SolveEffort {
                    newton_iters: g.6,
                    factorisations: g.7,
                },
            }
        })
        .collect()
}

#[test]
fn pipeline_counters_match_the_golden_record() {
    for threads in [1, 2] {
        for prefetching in [false, true] {
            let steps = run(prefetching, threads);
            for (k, (got, want)) in steps.iter().zip(golden(prefetching)).enumerate() {
                assert_eq!(
                    *got, want,
                    "round {k} at {threads} threads, prefetching {prefetching}"
                );
            }
            assert_eq!(steps.len(), GOLDEN.len());
        }
    }
}
