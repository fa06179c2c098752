//! Golden snapshot of the SERVE-LOAD artifact schema. CI's serve-load
//! smoke and external dashboards parse `results/serve_load.json`, so
//! its JSON shape is pinned under `results/`. If this test fails after
//! an intentional schema change, bump `SERVE_LOAD_SCHEMA_VERSION` and
//! regenerate with `UPDATE_GOLDEN=1 cargo test -p spiral-bench --test
//! serve_load_schema`.

use spiral_bench::history::BenchHost;
use spiral_bench::serve_load::{
    validate_file, ServeLoadFile, ServeLoadRow, ServerLatencySummary, SERVE_LOAD_SCHEMA_VERSION,
};
use spiral_smp::topology::HostFingerprint;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/serve_load_schema.json")
}

/// Fixed literals, NOT a live run: the golden pins the *shape*, and
/// must be byte-identical on every machine that runs this test.
fn fixture() -> ServeLoadFile {
    let row = |phase: &str, connections: u64, ok: u64, overloaded: u64| ServeLoadRow {
        log2n: 8,
        batch: 8,
        connections,
        phase: phase.to_string(),
        plan_kind: "sequential tree (8 x 8) + vec(4)".to_string(),
        requests: connections * 32,
        ok,
        overloaded,
        expired: 0,
        errors: 0,
        protocol_errors: 0,
        p50_us: 400,
        p95_us: 700,
        p99_us: 900,
        p999_us: 1200,
        rps: 2000.0,
    };
    ServeLoadFile {
        schema: SERVE_LOAD_SCHEMA_VERSION,
        host: BenchHost {
            name: "example-host".to_string(),
            fingerprint: HostFingerprint {
                cores: 4,
                mu: 4,
                cache_line_bytes: 64,
                simd_width: 4,
                features: vec!["simd4".to_string()],
            },
        },
        workers: 2,
        deadline_ms: 0,
        tuner_invocations: 0,
        server: ServerLatencySummary {
            samples: 1440,
            p50_us: 380,
            p99_us: 850,
            p999_us: 1100,
        },
        rows: vec![
            row("single", 1, 32, 0),
            row("warm", 4, 128, 0),
            row("overload", 40, 700, 580),
        ],
    }
}

#[test]
fn serve_load_json_matches_golden_snapshot() {
    let got = serde_json::to_string_pretty(&fixture()).unwrap();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("write golden snapshot");
        return;
    }
    let want = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        ),
    };
    assert_eq!(
        got.trim(),
        want.trim(),
        "serve-load schema drifted from results/serve_load_schema.json.\n\
         If intentional: bump SERVE_LOAD_SCHEMA_VERSION and regenerate with UPDATE_GOLDEN=1."
    );
}

#[test]
fn golden_snapshot_round_trips_and_validates() {
    if let Ok(s) = std::fs::read_to_string(golden_path()) {
        let file: ServeLoadFile = serde_json::from_str(&s).expect("golden parses");
        assert_eq!(file.schema, SERVE_LOAD_SCHEMA_VERSION);
        validate_file(&file).expect("golden validates");
        assert_eq!(file.rows.len(), 3);
    }
}

#[test]
fn fixture_passes_its_own_validation() {
    validate_file(&fixture()).expect("fixture is internally consistent");
}
