//! Simulating the next stage-2 chunk ahead while the classifier
//! retrains must not move a bit: on the SRAM bench, with a retrain
//! threshold low enough that several stage-2 retrains are owed, a
//! two-thread run (which prefetches) reproduces the one-thread run
//! (which never does) through every combination of run options.

use ecripse_core::ecripse::{Ecripse, EcripseConfig, EcripseResult, EstimateError, RunOptions};
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::{InitialParticles, InitialSearchConfig};
use ecripse_core::observe::{
    MultiObserver, Observer, PrefetchStats, RunRecorder, RunReport, SimBatchStats,
};
use ecripse_core::oracle::OracleConfig;
use ecripse_core::scenario::{Scenario, SramScenarioBench};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

fn config(threads: usize) -> EcripseConfig {
    EcripseConfig {
        initial: InitialSearchConfig {
            count: 12,
            ..InitialSearchConfig::default()
        },
        iterations: 3,
        oracle: OracleConfig {
            retrain_threshold: 8,
            ..OracleConfig::default()
        },
        importance: ImportanceConfig {
            n_samples: 1536,
            m_rtn: 1,
            trace_every: 256,
        },
        m_rtn_stage1: 1,
        seed: 0x9ef,
        threads,
        ..EcripseConfig::default()
    }
}

/// Sums the prefetch events of a run.
#[derive(Default)]
struct PrefetchTally {
    rounds: AtomicU64,
    evaluated: AtomicU64,
    consumed: AtomicU64,
}

impl Observer for PrefetchTally {
    fn prefetch_finished(&self, stats: &PrefetchStats) {
        assert!(stats.consumed <= stats.evaluated, "{stats:?}");
        self.rounds.fetch_add(1, Ordering::Relaxed);
        self.evaluated.fetch_add(stats.evaluated, Ordering::Relaxed);
        self.consumed.fetch_add(stats.consumed, Ordering::Relaxed);
    }
}

/// Counts the simulator batches a run times.
#[derive(Default)]
struct BatchTally(AtomicU64);

impl Observer for BatchTally {
    fn sim_batch_finished(&self, _stats: &SimBatchStats) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// A combination of [`RunOptions`]: (target, stop flag, initial set).
/// Any positive estimate meets a relative error of 10 at the first
/// check, so the target ends stage 2 after 1024 samples.
type Entry = (Option<f64>, bool, bool);

const ENTRIES: [Entry; 5] = [
    (None, false, false),
    (Some(10.0), false, false),
    (None, true, false),
    (None, false, true),
    (Some(10.0), true, false),
];

fn options<'a>(
    (target, with_stop, with_initial): Entry,
    observer: &'a dyn Observer,
    stop: &'a AtomicBool,
    initial: &'a InitialParticles,
) -> RunOptions<'a> {
    RunOptions {
        observer,
        stop: with_stop.then_some(stop),
        target_relative_error: target,
        initial: with_initial.then_some(initial),
    }
}

fn paper_run(threads: usize) -> Ecripse<SramScenarioBench> {
    Ecripse::new(
        config(threads),
        SramScenarioBench::paper_cell(Scenario::ReadSnm),
    )
}

fn observed(entry: Entry, threads: usize) -> (EcripseResult, RunReport, PrefetchTally) {
    let run = paper_run(threads);
    let initial = run.find_initial_particles().expect("boundary");
    let recorder = RunRecorder::new();
    let tally = PrefetchTally::default();
    let mut observers = MultiObserver::new();
    observers.push(&recorder);
    observers.push(&tally);
    let stop = AtomicBool::new(false);
    let result = run
        .estimate_with(&options(entry, &observers, &stop, &initial))
        .expect("estimate");
    let mut report = recorder.into_report();
    report.strip_timings();
    report.threads = 0;
    (result, report, tally)
}

#[test]
fn a_stop_raised_before_the_call_interrupts_before_any_simulation() {
    let run = paper_run(2);
    let initial = run.find_initial_particles().expect("boundary");
    let raised = AtomicBool::new(true);
    for entry in ENTRIES {
        let batches = BatchTally::default();
        let raised_options = RunOptions {
            stop: Some(&raised),
            ..options(entry, &batches, &raised, &initial)
        };
        assert_eq!(
            run.estimate_with(&raised_options),
            Err(EstimateError::Interrupted),
            "{entry:?}"
        );
        assert_eq!(batches.0.load(Ordering::Relaxed), 0, "{entry:?}");
    }
}

#[test]
fn prefetching_reproduces_the_serial_run_through_every_entry_point() {
    for entry in ENTRIES {
        let (serial, serial_report, serial_tally) = observed(entry, 1);
        let (parallel, parallel_report, parallel_tally) = observed(entry, 2);

        let expected_samples = if entry.0.is_some() { 1024 } else { 1536 };
        assert_eq!(serial.is_samples, expected_samples, "{entry:?}");
        assert!(
            serial.oracle_stats.retrains >= 4,
            "{entry:?}: too few retrains to exercise prefetch: {:?}",
            serial.oracle_stats
        );
        assert_eq!(
            serial_tally.rounds.load(Ordering::Relaxed),
            0,
            "{entry:?}: a one-thread pool never prefetches"
        );
        assert!(
            parallel_tally.rounds.load(Ordering::Relaxed) >= 3,
            "{entry:?}: too few prefetch rounds"
        );
        assert!(
            parallel_tally.consumed.load(Ordering::Relaxed) > 0,
            "{entry:?}: nothing prefetched was consumed (evaluated {})",
            parallel_tally.evaluated.load(Ordering::Relaxed)
        );

        assert_eq!(serial, parallel, "{entry:?}: results differ");
        assert_eq!(serial.p_fail.to_bits(), parallel.p_fail.to_bits());
        assert_eq!(serial_report, parallel_report, "{entry:?}: reports differ");
        assert_eq!(
            serde_json::to_string(&serial_report).expect("serialise"),
            serde_json::to_string(&parallel_report).expect("serialise"),
        );
    }
}
