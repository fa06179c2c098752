//! Every committed artifact loads with its loader at the schema the code
//! writes today. A schema bump therefore fails here until the artifact
//! is regenerated with its own command (`figures serve-load`, `figures
//! trace`, `bench history record`), so committed files never go stale.
//! The simulated Figure 3 rows are checked by value: a change to the
//! plans or to the traced schedule fails here until `figures fig3` has
//! regenerated them.

use spiral_bench::ascii;
use spiral_bench::history::{BenchHistory, BENCH_SCHEMA_VERSION};
use spiral_bench::series::fig3_series;
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

/// The committed Core Duo CSV is what `figures fig3` computes today, on
/// its first rows (2^6..2^10; the whole file takes minutes in debug).
#[test]
fn fig3_core_duo_rows_match_the_simulator() {
    let path = repo().join("results/fig3_core-duo-2-0-ghz.csv");
    let committed = read(&path);
    let fresh = ascii::csv(&fig3_series(&spiral_sim::core_duo(), 6, 10));
    let rows = fresh.lines().count();
    let want: Vec<&str> = committed.lines().take(rows).collect();
    assert_eq!(
        fresh.lines().collect::<Vec<_>>(),
        want,
        "{} is stale: regenerate it with `figures fig3 --machine core-duo --min 6 --max 16 --out results`",
        path.display()
    );
}
