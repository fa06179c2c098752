//! Crash-safety of wisdom persistence: saves go through a same-
//! directory temp file + fsync + atomic rename, so no failure mode may
//! leave a corrupt wisdom file where a good one stood, and a torn file
//! (however it got there) must be rejected cleanly on load.

use spiral_serve::{PlanService, WisdomStore};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The serve fault registry is process-global: while one test has an
/// injected torn write installed, every wisdom save in the process fails.
/// Every test in this binary saves wisdom, so each holds this lock for
/// its whole run.
static FAULT_REGISTRY: Mutex<()> = Mutex::new(());

fn serialised() -> MutexGuard<'static, ()> {
    FAULT_REGISTRY
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("spiral-wisdom-atomic-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn save_leaves_the_file_and_no_temp_behind() {
    let _serial = serialised();
    let dir = scratch_dir("clean");
    let path = dir.join("wisdom.json");
    let (svc, _) = PlanService::with_wisdom(1, 4, &path);
    svc.sequential_plan(32).expect("tunes and saves");

    assert!(path.exists(), "the wisdom file must exist after a save");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir listing")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "a completed save must not leave temp files: {leftovers:?}"
    );

    // And the saved file loads back warm.
    let (svc2, report) = PlanService::with_wisdom(1, 4, &path);
    assert!(report.discarded.is_none(), "{report:?}");
    svc2.sequential_plan(32).expect("serves from wisdom");
    assert_eq!(svc2.tuner_invocations(), 0, "warm wisdom must not tune");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_file_on_disk_is_rejected_cleanly_not_parsed() {
    let _serial = serialised();
    let dir = scratch_dir("torn");
    let path = dir.join("wisdom.json");

    // Produce a real wisdom file, then tear it mid-byte — the state an
    // unsafe (non-atomic) writer would leave after a crash.
    let (svc, _) = PlanService::with_wisdom(1, 4, &path);
    svc.sequential_plan(32).expect("tunes and saves");
    let whole = std::fs::read(&path).expect("wisdom bytes");
    std::fs::write(&path, &whole[..whole.len() / 2]).expect("tear the file");

    let (store, report) = WisdomStore::open(&path);
    assert!(store.is_empty(), "a torn file must load as an empty store");
    let reason = report.discarded.expect("the tear must be reported");
    assert!(
        reason.contains("unparseable"),
        "the reason should say why: {reason}"
    );

    // A service over the torn file starts cold but *works* — and its
    // first save atomically replaces the torn file with a good one.
    let (svc2, report2) = PlanService::with_wisdom(1, 4, &path);
    assert!(report2.discarded.is_some());
    svc2.sequential_plan(32)
        .expect("re-tunes over the torn file");
    let (_, report3) = WisdomStore::open(&path);
    assert!(
        report3.discarded.is_none(),
        "the re-save must heal the file: {report3:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rewriting_an_existing_file_is_all_or_nothing() {
    let _serial = serialised();
    let dir = scratch_dir("rewrite");
    let path = dir.join("wisdom.json");

    let (svc, _) = PlanService::with_wisdom(1, 4, &path);
    svc.sequential_plan(32).expect("first entry");
    let first = std::fs::read_to_string(&path).expect("first save");

    svc.sequential_plan(64).expect("second entry, second save");
    let second = std::fs::read_to_string(&path).expect("second save");
    assert_ne!(first, second, "the file must have been replaced");

    // Whatever is on disk at any point parses completely — there is no
    // intermediate truncated state with rename-based replacement.
    let (store, report) = WisdomStore::open(&path);
    assert!(report.discarded.is_none());
    assert_eq!(store.len(), 2);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The injected torn write (faults feature): the save fails, but an
/// existing good wisdom file is untouched — byte-for-byte.
#[cfg(feature = "faults")]
#[test]
fn injected_torn_write_never_corrupts_the_existing_file() {
    let _serial = serialised();
    use spiral_smp::faults::{install_serve, ServeFaultPlan, ServeFaultSpec, ServeSite};

    let dir = scratch_dir("inject");
    let path = dir.join("wisdom.json");

    let (svc, _) = PlanService::with_wisdom(1, 4, &path);
    svc.sequential_plan(32).expect("good save");
    let good = std::fs::read(&path).expect("good bytes");

    {
        let _guard = install_serve(ServeFaultPlan {
            seed: 0,
            specs: vec![ServeFaultSpec::always(ServeSite::WisdomSaveFail)],
        });
        // The tuner records a new entry and tries to save; the save is
        // torn mid-write and must fail *without* touching the target.
        svc.sequential_plan(64).expect("serving continues");
        assert!(svc.wisdom_save_failures() >= 1, "failure must be counted");
        let err = svc.save_wisdom().expect_err("explicit save fails too");
        assert!(err.contains("injected"), "got: {err}");
    }

    let after = std::fs::read(&path).expect("file still present");
    assert_eq!(good, after, "failed saves must leave the old file intact");
    // The old file still loads — one entry, not the unsaved second.
    let (store, report) = WisdomStore::open(&path);
    assert!(report.discarded.is_none());
    assert_eq!(store.len(), 1);

    // With the injection gone, the pending state saves atomically.
    svc.save_wisdom()
        .expect("save succeeds after the fault clears");
    let (store2, _) = WisdomStore::open(&path);
    assert_eq!(store2.len(), 2);

    let _ = std::fs::remove_dir_all(&dir);
}
