//! Simulating the next stage-2 chunk ahead while the classifier
//! retrains must not move a bit: on the SRAM bench, with a retrain
//! threshold low enough that several stage-2 retrains are owed, a
//! two-thread run (which prefetches) reproduces the one-thread run
//! (which never does) through every estimation entry point.

use ecripse_core::ecripse::{Ecripse, EcripseConfig, EcripseResult, EstimateError};
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::InitialSearchConfig;
use ecripse_core::observe::{MultiObserver, Observer, PrefetchStats, RunRecorder, RunReport};
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

/// Which estimation entry point a run goes through.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Plain,
    ToTolerance,
    Interruptible,
}

fn observed(entry: Entry, threads: usize) -> (EcripseResult, RunReport, PrefetchTally) {
    let run = Ecripse::new(
        config(threads),
        SramScenarioBench::paper_cell(Scenario::ReadSnm),
    );
    let recorder = RunRecorder::new();
    let tally = PrefetchTally::default();
    let mut observers = MultiObserver::new();
    observers.push(&recorder);
    observers.push(&tally);
    let stop = AtomicBool::new(false);
    let result: Result<EcripseResult, EstimateError> = match entry {
        Entry::Plain => run.estimate_observed(&observers),
        // Any positive estimate meets a relative error of 10 at the
        // first check, so the early stop fires after 1024 samples.
        Entry::ToTolerance => run.estimate_to_tolerance_observed(10.0, &observers),
        Entry::Interruptible => run.estimate_interruptible_observed(&stop, &observers),
    };
    let result = result.expect("estimate");
    let mut report = recorder.into_report();
    report.strip_timings();
    report.threads = 0;
    (result, report, tally)
}

#[test]
fn prefetching_reproduces_the_serial_run_through_every_entry_point() {
    for entry in [Entry::Plain, Entry::ToTolerance, Entry::Interruptible] {
        let (serial, serial_report, serial_tally) = observed(entry, 1);
        let (parallel, parallel_report, parallel_tally) = observed(entry, 2);

        let expected_samples = match entry {
            Entry::ToTolerance => 1024,
            Entry::Plain | Entry::Interruptible => 1536,
        };
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
