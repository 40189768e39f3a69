//! Checkpoint/resume behaviour of the duty sweep through the public
//! API: an interrupted-and-resumed sweep must be bit-identical to an
//! uninterrupted one, and stale or foreign checkpoints must be rejected
//! rather than silently mixed in.

use ecripse::prelude::*;
use ecripse_core::bench::LinearBench;
use ecripse_core::importance::ImportanceConfig;
use ecripse_core::initial::InitialSearchConfig;
use ecripse_core::sweep::SweepCheckpoint;
use std::path::PathBuf;

fn tiny_config(seed: u64) -> EcripseConfig {
    EcripseConfig {
        initial: InitialSearchConfig {
            count: 12,
            max_attempts: 2000,
            ..InitialSearchConfig::default()
        },
        iterations: 3,
        importance: ImportanceConfig {
            n_samples: 250,
            m_rtn: 4,
            trace_every: 0,
        },
        m_rtn_stage1: 2,
        seed,
        ..EcripseConfig::default()
    }
}

/// A cheap 6-D sweep vehicle (the linear bench stands in for the cell).
fn test_sweep(seed: u64) -> DutySweep<LinearBench> {
    let bench = LinearBench::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3.5);
    DutySweep::new(tiny_config(seed), bench, vec![0.0, 0.5, 1.0])
}

fn scratch_file(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("ecripse-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn interrupted_sweep_resumes_bit_identically() {
    let baseline = test_sweep(42).run().expect("uninterrupted sweep");

    // Produce a complete checkpoint, then truncate it back to "only the
    // first point finished" — the state an interrupt would leave behind.
    let path = scratch_file("resume.json");
    let options = SweepOptions {
        checkpoint: Some(path.clone()),
        resume: false,
        ..SweepOptions::default()
    };
    let first = test_sweep(42)
        .run_with(&options)
        .expect("checkpointed sweep");
    assert_eq!(first.points_from_checkpoint, 0);
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    let mut ckpt: SweepCheckpoint = serde_json::from_str(&text).expect("valid checkpoint");
    assert!(ckpt.init.is_some() && ckpt.rdf_only.is_some());
    assert!(ckpt.points.iter().all(Option::is_some));
    for slot in ckpt.points.iter_mut().skip(1) {
        *slot = None;
    }
    std::fs::write(&path, serde_json::to_string(&ckpt).expect("serialise")).expect("truncate");

    // Resume: one point comes from the checkpoint, two are recomputed,
    // and the merged result matches the uninterrupted run exactly.
    let resumed = test_sweep(42)
        .run_with(&SweepOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..SweepOptions::default()
        })
        .expect("resumed sweep");
    assert_eq!(resumed.points_from_checkpoint, 1);
    assert!(resumed.outcomes[0].from_checkpoint);
    assert!(!resumed.outcomes[1].from_checkpoint);
    let (result, _reports) = resumed.into_parts().expect("all points succeeded");
    assert_eq!(result, baseline, "resume must be bit-identical");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn fully_checkpointed_sweep_recomputes_nothing() {
    let path = scratch_file("full.json");
    let options = SweepOptions {
        checkpoint: Some(path.clone()),
        resume: true,
        ..SweepOptions::default()
    };
    let first = test_sweep(7).run_with(&options).expect("first run");
    let second = test_sweep(7).run_with(&options).expect("second run");
    assert_eq!(second.points_from_checkpoint, second.outcomes.len());
    let (a, _) = first.into_parts().expect("first parts");
    let (b, _) = second.into_parts().expect("second parts");
    assert_eq!(a, b);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn foreign_checkpoints_are_rejected_on_resume() {
    let path = scratch_file("foreign.json");
    test_sweep(1)
        .run_with(&SweepOptions {
            checkpoint: Some(path.clone()),
            resume: false,
            ..SweepOptions::default()
        })
        .expect("seed-1 sweep");

    // Same file, different sweep identity (the seed differs).
    let err = test_sweep(2)
        .run_with(&SweepOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..SweepOptions::default()
        })
        .expect_err("mismatched checkpoint must be rejected");
    assert!(matches!(
        err,
        SweepError::Checkpoint(CheckpointError::Mismatch)
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_schema_versions_are_rejected_on_resume() {
    let path = scratch_file("schema.json");
    let options = SweepOptions {
        checkpoint: Some(path.clone()),
        resume: true,
        ..SweepOptions::default()
    };
    test_sweep(3).run_with(&options).expect("write checkpoint");
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    let mut ckpt: SweepCheckpoint = serde_json::from_str(&text).expect("valid checkpoint");
    ckpt.schema_version += 1;
    std::fs::write(&path, serde_json::to_string(&ckpt).expect("serialise")).expect("rewrite");

    let err = test_sweep(3)
        .run_with(&options)
        .expect_err("future schema must be rejected");
    assert!(matches!(
        err,
        SweepError::Checkpoint(CheckpointError::SchemaVersion { found, expected })
            if found == expected + 1
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_checkpoints_are_rejected_not_misread() {
    let path = scratch_file("corrupt.json");
    std::fs::write(&path, "{ definitely not a checkpoint").expect("write garbage");
    let err = test_sweep(4)
        .run_with(&SweepOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..SweepOptions::default()
        })
        .expect_err("garbage must be rejected");
    assert!(matches!(
        err,
        SweepError::Checkpoint(CheckpointError::Corrupt(_))
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stop_flag_interrupt_flushes_checkpoint_and_resumes_bit_identically() {
    let baseline = test_sweep(77).run().expect("uninterrupted sweep");

    // A pre-raised stop flag: the interrupt "arrives" before any duty
    // point starts, so the shared initialisation and the RDF-only
    // reference complete but all three points are skipped — exactly the
    // state a Ctrl-C during the point phase leaves behind.
    let path = scratch_file("interrupt-flush.json");
    let options = SweepOptions {
        checkpoint: Some(path.clone()),
        resume: false,
        ..SweepOptions::default()
    };
    let stop = std::sync::atomic::AtomicBool::new(true);
    let err = test_sweep(77)
        .run_with(&SweepOptions {
            stop: Some(&stop),
            ..options
        })
        .expect_err("a raised stop flag must interrupt the sweep");
    match err {
        SweepError::Interrupted {
            completed,
            remaining,
        } => {
            assert_eq!(completed, 0);
            assert_eq!(remaining, 3);
        }
        other => panic!("expected SweepError::Interrupted, got {other}"),
    }

    // The flushed checkpoint holds the expensive shared state...
    let json = std::fs::read_to_string(&path).expect("checkpoint must be flushed");
    let checkpoint: SweepCheckpoint = serde_json::from_str(&json).expect("parse checkpoint");
    assert!(checkpoint.init.is_some(), "init must be checkpointed");
    assert!(
        checkpoint.rdf_only.is_some(),
        "reference must be checkpointed"
    );
    assert!(checkpoint.points.iter().all(Option::is_none));

    // ...and resuming from it completes bit-identically.
    let resumed = test_sweep(77)
        .run_with(&SweepOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            ..SweepOptions::default()
        })
        .expect("resume after interrupt");
    assert_eq!(resumed.points_from_checkpoint, 0);
    let (result, _) = resumed.into_parts().expect("resumed sweep result");
    assert_eq!(result, baseline, "resume must be bit-identical");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unraised_stop_flag_leaves_the_sweep_untouched() {
    let stop = std::sync::atomic::AtomicBool::new(false);
    let path = scratch_file("interrupt-noop.json");
    let run = test_sweep(8)
        .run_with(&SweepOptions {
            checkpoint: Some(path.clone()),
            stop: Some(&stop),
            ..SweepOptions::default()
        })
        .expect("unraised flag must not interrupt");
    let baseline = test_sweep(8).run().expect("baseline");
    let (result, _) = run.into_parts().expect("sweep result");
    assert_eq!(result, baseline);
    let _ = std::fs::remove_file(&path);
}
