//! Golden test: the serialized `RunProfile` layout is frozen against a
//! snapshot under `results/`. Downstream consumers (`figures trace`,
//! external plotting) parse this JSON; accidental field renames or
//! structure changes must fail loudly here. Intentional changes: bump
//! `SCHEMA_VERSION` and regenerate with `UPDATE_GOLDEN=1 cargo test -p
//! spiral-trace --test golden`.

use spiral_trace::{HostMeta, RunProfile, StageProfile, ThreadStageStats, SCHEMA_VERSION};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/trace_profile_schema.json")
}

/// A fully populated, deterministic profile exercising every field.
fn representative_profile() -> RunProfile {
    RunProfile {
        schema: SCHEMA_VERSION,
        n: 1024,
        threads: 2,
        runs: 3,
        wall_ns: 123_456,
        // Fixed literal, NOT `HostMeta::current()`: the golden must be
        // byte-identical on every machine that runs this test.
        host: HostMeta {
            cores: 4,
            mu: 4,
            cache_line_bytes: 64,
            simd_width: 4,
            features: vec!["trace".to_string(), "simd4".to_string()],
        },
        pool_job_ns: vec![120_000, 118_500],
        // A wrapped ring: the golden pins that drop counts serialize.
        timeline_dropped: 3,
        stages: vec![
            StageProfile {
                index: 0,
                label: "par[2x512]+gather".to_string(),
                threads: vec![
                    ThreadStageStats {
                        compute_ns: 50_000,
                        barrier_wait_ns: 1_200,
                        jobs: 3,
                        elements: 1536,
                    },
                    ThreadStageStats {
                        compute_ns: 49_000,
                        barrier_wait_ns: 2_100,
                        jobs: 3,
                        elements: 1536,
                    },
                ],
            },
            StageProfile {
                index: 1,
                label: "exchange(mu=4)".to_string(),
                threads: vec![
                    ThreadStageStats {
                        compute_ns: 8_000,
                        barrier_wait_ns: 300,
                        jobs: 128,
                        elements: 1536,
                    },
                    ThreadStageStats {
                        compute_ns: 8_100,
                        barrier_wait_ns: 250,
                        jobs: 128,
                        elements: 1536,
                    },
                ],
            },
        ],
    }
}

#[test]
fn run_profile_json_matches_golden_snapshot() {
    let got = representative_profile().to_json();
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
        "RunProfile JSON layout drifted from {}.\n\
         If intentional: bump SCHEMA_VERSION and regenerate with UPDATE_GOLDEN=1.",
        path.display()
    );
}

#[test]
fn golden_snapshot_parses_back() {
    let want = representative_profile();
    let s = std::fs::read_to_string(golden_path());
    if let Ok(s) = s {
        let parsed = RunProfile::from_json(&s).expect("golden snapshot must parse");
        assert_eq!(parsed, want);
        assert_eq!(parsed.schema, SCHEMA_VERSION);
    }
    // Missing file is reported by the other test; don't fail twice.
}
