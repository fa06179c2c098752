//! Golden test: the serialized `BenchHistory` layout is frozen against a
//! snapshot under `results/`. CI's `bench history compare` and external
//! dashboards parse `BENCH_<host>.json` files; accidental field renames
//! must fail loudly here. Intentional changes: bump
//! `BENCH_SCHEMA_VERSION` and regenerate with `UPDATE_GOLDEN=1 cargo
//! test -p spiral-bench --test history_golden`.

use spiral_bench::history::{BenchHistory, BenchHost, BenchRun, MetricValue, BENCH_SCHEMA_VERSION};
use spiral_smp::topology::HostFingerprint;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_history_schema.json")
}

/// A fully populated, deterministic history exercising every field: an
/// untraced run and a traced run.
/// Fixed literals, NOT `BenchHost::current()`: the golden must be
/// byte-identical on every machine that runs this test.
fn representative_history() -> BenchHistory {
    let host = BenchHost {
        name: "example-host".to_string(),
        fingerprint: HostFingerprint {
            cores: 2,
            mu: 4,
            cache_line_bytes: 64,
            simd_width: 4,
            features: vec!["simd4".to_string()],
        },
    };
    let run = |seq, metrics: &[(&str, f64, &str)]| BenchRun {
        seq,
        unix_ms: 1_700_000_000_000 + 60_000 * seq,
        host: host.clone(),
        commit: "0ad9c9f".to_string(),
        workload: "fft-seq".to_string(),
        seed: 1,
        attempted: 262_144,
        failed: 0,
        metrics: metrics
            .iter()
            .map(|&(name, value, unit)| {
                let unit = unit.to_string();
                (name.to_string(), MetricValue { value, unit })
            })
            .collect(),
    };
    BenchHistory {
        schema: BENCH_SCHEMA_VERSION,
        runs: vec![
            run(
                1,
                &[
                    ("setup_s", 0.125, "s"),
                    ("small_vs_iterative", 1.25, "x"),
                    ("large_vs_iterative", 1.0625, "x"),
                ],
            ),
            run(
                2,
                &[("e2e.p50_us", 3.5, "us"), ("trace.spans", 4096.0, "count")],
            ),
        ],
    }
}

#[test]
fn bench_history_json_matches_golden_snapshot() {
    let got = representative_history().to_json();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("write golden snapshot");
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        got.trim(),
        want.trim(),
        "BenchHistory JSON layout drifted from {}.\n\
         If intentional: bump BENCH_SCHEMA_VERSION and regenerate with UPDATE_GOLDEN=1.",
        path.display()
    );
}

#[test]
fn golden_snapshot_parses_and_validates() {
    let want = representative_history();
    if let Ok(s) = std::fs::read_to_string(golden_path()) {
        let parsed = BenchHistory::from_json(&s).expect("golden snapshot must parse");
        assert_eq!(parsed, want);
        parsed.validate().expect("golden snapshot must validate");
    }
    // Missing file is reported by the other test; don't fail twice.
}
