//! Fault-injection integration: campaigns must survive everything we can
//! deterministically throw at them.
//!
//! Requires the `fault-inject` feature:
//!
//! ```text
//! cargo test --release --features fault-inject --test fault_injection
//! ```
//!
//! Each test installs a [`pgss::faults::FaultPlan`] — targeted worker
//! panics and/or checkpoint-store faults (failed puts, failed / corrupted
//! / truncated gets) — runs a real campaign, and proves the fault-
//! tolerance contract: every cell not named by the plan is bit-identical
//! to a fault-free run, every fault is ledgered with its context, and the
//! same plan reproduces the report byte for byte.

mod util;

use pgss::faults::{self, CellPanic, FaultPlan, StoreFaultPlan};
use pgss::{campaign, CampaignConfig, PgssSim, Smarts, Technique};
use pgss_ckpt::Store;
use pgss_cpu::MachineConfig;
use pgss_workloads::Workload;

fn suite() -> Vec<Workload> {
    vec![
        pgss_workloads::gzip(0.01),
        pgss_workloads::mesa(0.01),
        pgss_workloads::twolf(0.01),
    ]
}

fn smarts() -> Smarts {
    Smarts {
        period_ops: 50_000,
        ..Smarts::default()
    }
}

fn pgss_sim() -> PgssSim {
    PgssSim {
        ff_ops: 50_000,
        spacing_ops: 50_000,
        ..PgssSim::default()
    }
}

fn temp_store(tag: &str) -> (util::TempDir, Store) {
    util::temp_store(&format!("pgss-fault-{tag}"))
}

/// Runs `f` with no fault plan installed. Plans are process-wide, so a
/// fault-free reference run holds the fault-test lock too; otherwise a
/// concurrently running test's plan can leak into it.
fn fault_free<T>(f: impl FnOnce() -> T) -> T {
    let _guard = faults::install(FaultPlan::default());
    f()
}

#[test]
fn injected_worker_panic_is_isolated_and_ledgered() {
    let workloads = suite();
    let smarts = smarts();
    let pgss = pgss_sim();
    let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts, &pgss];
    let jobs = campaign::grid(&workloads, &techs, MachineConfig::default());

    let clean = fault_free(|| campaign::run_with(&jobs, &CampaignConfig::default()).unwrap());
    assert!(clean.is_complete());

    // Permanently poison one exact cell.
    let _guard = faults::install(FaultPlan {
        cell_panics: vec![CellPanic {
            workload: "177.mesa".to_string(),
            technique: pgss.name(),
            times: u32::MAX,
        }],
        ..FaultPlan::default()
    });
    let faulty = campaign::run_with(&jobs, &CampaignConfig::default()).unwrap();

    // Exactly that cell failed, after its full retry budget, with its
    // workload / technique / cause in the ledger.
    assert_eq!(faulty.failures.len(), 1);
    let failure = &faulty.failures[0];
    assert_eq!(failure.workload, "177.mesa");
    assert_eq!(failure.technique, pgss.name());
    assert_eq!(failure.attempts, 2);
    match &failure.error {
        campaign::CellError::Panicked(msg) => {
            assert!(msg.contains("injected worker panic"), "{msg:?}")
        }
        other => panic!("unexpected cell error {other:?}"),
    }
    assert!(faulty.ledger().contains("177.mesa"));

    // Every surviving cell is bit-identical to the fault-free campaign.
    assert_eq!(faulty.cells.len(), clean.cells.len() - 1);
    for cell in &faulty.cells {
        assert_eq!(
            clean.cell(&cell.workload, &cell.technique),
            Some(cell),
            "{} × {} changed under an unrelated fault",
            cell.workload,
            cell.technique
        );
    }
}

#[test]
fn transient_injected_panic_heals_and_replays_byte_identically() {
    let workloads = suite();
    let smarts = smarts();
    let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts];
    let jobs = campaign::grid(&workloads, &techs, MachineConfig::default());

    let clean = fault_free(|| campaign::run_with(&jobs, &CampaignConfig::default()).unwrap());

    // One transient fault: the cell's first attempt panics, the retry
    // heals it.
    let run_with_fault = || {
        let _guard = faults::install(FaultPlan {
            cell_panics: vec![CellPanic {
                workload: "300.twolf".to_string(),
                technique: smarts.name(),
                times: 1,
            }],
            ..FaultPlan::default()
        });
        campaign::run_with(&jobs, &CampaignConfig::default()).unwrap()
    };
    let healed = run_with_fault();
    assert!(healed.is_complete(), "{}", healed.ledger());
    assert_eq!(healed.retries, 1);
    assert_eq!(
        healed.cells, clean.cells,
        "a healed transient fault must leave no trace in the results"
    );

    // Same fault schedule: byte-identical reports.
    let replay = run_with_fault();
    assert_eq!(healed, replay);
    assert_eq!(format!("{healed:?}"), format!("{replay:?}"));
}

#[test]
fn injected_record_corruption_is_quarantined_and_results_unchanged() {
    let workloads = vec![pgss_workloads::gzip(0.01)];
    let smarts = smarts();
    let pgss = pgss_sim();
    let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts, &pgss];
    let jobs = campaign::grid(&workloads, &techs, MachineConfig::default());
    let (dir, store) = temp_store("corrupt");

    let clean = fault_free(|| util::checkpointed_campaign(&jobs, &store));
    assert!(clean.checkpoint_faults.is_empty());
    assert!(clean.ladder.capture_ops > 0);

    // A ladder load is one read (get #0): corrupt it. The store sees a
    // checksum mismatch — indistinguishable from on-disk bit rot —
    // quarantines the record, and the ladder recaptures.
    let run_with_fault = || {
        let _guard = faults::install(FaultPlan {
            store: StoreFaultPlan {
                corrupt_gets: vec![0],
                ..StoreFaultPlan::default()
            },
            ..FaultPlan::default()
        });
        util::checkpointed_campaign(&jobs, &store)
    };
    let healed = run_with_fault();
    assert_eq!(
        clean.cells, healed.cells,
        "corruption must not change any cell"
    );
    assert!(healed.is_complete());
    assert!(
        healed
            .checkpoint_faults
            .iter()
            .any(|f| f.contains("corrupt ladder record") && f.contains("quarantined")),
        "{:?}",
        healed.checkpoint_faults
    );
    assert!(
        healed.ladder.capture_ops > 0,
        "must recapture after quarantine"
    );
    // The quarantine sidecar preserved exactly the one faulted record
    // (only get #0 was corrupted, and nothing has been quarantined yet).
    assert_eq!(
        std::fs::read_dir(dir.path().join("quarantine"))
            .unwrap()
            .count(),
        1
    );

    // Same fault schedule twice: byte-identical reports.
    let replay = run_with_fault();
    assert_eq!(healed, replay);
    assert_eq!(format!("{healed:?}"), format!("{replay:?}"));

    // With faults cleared the recaptured store loads clean.
    let after = fault_free(|| util::checkpointed_campaign(&jobs, &store));
    assert_eq!(clean.cells, after.cells);
    assert_eq!(after.ladder.capture_ops, 0);
    assert!(
        after.checkpoint_faults.is_empty(),
        "{:?}",
        after.checkpoint_faults
    );
}

#[test]
fn injected_store_io_errors_degrade_gracefully() {
    let workloads = vec![pgss_workloads::twolf(0.01)];
    let smarts = smarts();
    let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts];
    let jobs = campaign::grid(&workloads, &techs, MachineConfig::default());
    let (_dir, store) = temp_store("io");

    let plain = fault_free(|| campaign::run_with(&jobs, &CampaignConfig::default()).unwrap());

    // First campaign: the ladder's write-back fails with an I/O
    // error. Capture still accelerates this run; only persistence is
    // lost, and the ledger says so.
    {
        let _guard = faults::install(FaultPlan {
            store: StoreFaultPlan {
                fail_puts: vec![0],
                ..StoreFaultPlan::default()
            },
            ..FaultPlan::default()
        });
        let report = util::checkpointed_campaign(&jobs, &store);
        assert_eq!(plain.cells, report.cells);
        assert!(report.is_complete());
        assert!(
            report
                .checkpoint_faults
                .iter()
                .any(|f| f.contains("write-back") && f.contains("failed")),
            "{:?}",
            report.checkpoint_faults
        );
        // The plan names exactly one fault (put #0), so exactly one
        // injection must have fired — no more, no fewer.
        assert_eq!(faults::injection_log().len(), 1);
    }

    // Second campaign: the ladder read (get #0) fails with an I/O error.
    // The ladder falls back to recapture; results are unchanged.
    {
        let _guard = faults::install(FaultPlan {
            store: StoreFaultPlan {
                fail_gets: vec![0],
                ..StoreFaultPlan::default()
            },
            ..FaultPlan::default()
        });
        let report = util::checkpointed_campaign(&jobs, &store);
        assert_eq!(plain.cells, report.cells);
        assert!(report.is_complete());
    }

    // Faults cleared: the store heals to a fully-loadable state.
    let healed = fault_free(|| util::checkpointed_campaign(&jobs, &store));
    assert_eq!(plain.cells, healed.cells);
    assert_eq!(
        healed.ladder.capture_ops, 0,
        "{:?}",
        healed.checkpoint_faults
    );
}

#[test]
fn combined_panic_and_store_faults_in_one_campaign() {
    let workloads = vec![pgss_workloads::gzip(0.01), pgss_workloads::mesa(0.01)];
    let smarts = smarts();
    let pgss = pgss_sim();
    let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts, &pgss];
    let jobs = campaign::grid(&workloads, &techs, MachineConfig::default());
    let (_dir, store) = temp_store("combined");

    let clean = fault_free(|| util::checkpointed_campaign(&jobs, &store));

    // Everything at once: a transient worker panic on one cell plus a
    // corrupted ladder read. The campaign heals both and stays bit-exact.
    let _guard = faults::install(FaultPlan {
        cell_panics: vec![CellPanic {
            workload: "164.gzip".to_string(),
            technique: smarts.name(),
            times: 1,
        }],
        store: StoreFaultPlan {
            corrupt_gets: vec![1],
            ..StoreFaultPlan::default()
        },
        ..FaultPlan::default()
    });
    let report = util::checkpointed_campaign(&jobs, &store);
    assert!(report.is_complete(), "{}", report.ledger());
    assert_eq!(clean.cells, report.cells);
    assert_eq!(report.retries, 1);
    assert!(!report.checkpoint_faults.is_empty());
}
