//! Every committed artifact loads with its loader at the schema the code
//! writes today. A schema bump therefore fails here until the artifact
//! is regenerated with its own command (`figures serve-load`, `figures
//! trace`, `bench history record`), so committed files never go stale.
//! The simulated Figure 3 rows and the ABL-FS file are checked by value
//! (an ignored test, run in release): a change to the plans or to the
//! traced schedule fails there until `figures` has regenerated them.

use spiral_bench::ablations::false_sharing_ablation;
use spiral_bench::ascii;
use spiral_bench::history::{BenchHistory, BENCH_SCHEMA_VERSION};
use spiral_bench::series::{fig3_series, machine_slug};
use spiral_bench::serve_load::{validate_file, ServeLoadFile};
use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn serve_load_artifact_is_at_the_current_schema() {
    let path = repo().join("results/serve_load.json");
    let file: ServeLoadFile =
        serde_json::from_str(&read(&path)).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    validate_file(&file).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
}

#[test]
fn trace_profiles_are_at_the_current_schema() {
    let mut seen = 0;
    for entry in std::fs::read_dir(repo().join("results")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("trace_profile_2e") && name.ends_with(".json")) {
            continue;
        }
        let profile = spiral_trace::RunProfile::from_json(&read(&path))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(profile.schema, spiral_trace::SCHEMA_VERSION, "{name}");
        seen += 1;
    }
    assert!(seen > 0, "no trace_profile_2e*.json under results/");
}

#[test]
fn bench_history_is_at_the_current_schema() {
    let path = repo().join("BENCH_vm.json");
    let history =
        BenchHistory::from_json(&read(&path)).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(history.schema, BENCH_SCHEMA_VERSION);
    assert!(!history.runs.is_empty());
}

/// The committed Figure 3 CSVs of all four machines are what `figures
/// fig3` computes today, row for row (2^6..2^16), and the ABL-FS file is
/// what `figures ablation-false-sharing` computes (2^8..2^14). Both
/// replay `Plan::run_traced`, so a change to the plans, the schedule or
/// the buffer rule fails here until the files are regenerated. Slow in a
/// debug build: `cargo test --release -p spiral-bench --test artifacts --
/// --ignored`.
#[test]
#[ignore]
fn simulated_artifacts_match_the_simulator() {
    for m in spiral_sim::paper_machines() {
        let path = repo().join(format!("results/fig3_{}.csv", machine_slug(&m)));
        let fresh = ascii::csv(&fig3_series(&m, 6, 16));
        assert_eq!(
            fresh,
            read(&path),
            "{} is stale: regenerate it with `figures fig3 --machine M --min 6 --max 16 --out results`",
            path.display()
        );
    }
    let core_duo = spiral_sim::core_duo();
    let path = repo().join("results/abl_false_sharing_core-duo-2-0-ghz.json");
    let fresh = serde_json::to_string_pretty(&false_sharing_ablation(&core_duo, 8, 14)).unwrap();
    assert_eq!(
        fresh,
        read(&path),
        "{} is stale: regenerate it with `figures ablation-false-sharing --machine core-duo --out results`",
        path.display()
    );
}
