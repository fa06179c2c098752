//! Golden snapshot of the wisdom file schema. The wisdom file is an
//! interchange surface — external tooling and future sessions read it —
//! so its JSON shape is pinned under `results/`. If this test fails
//! after an intentional schema change, bump `WISDOM_SCHEMA_VERSION` and
//! regenerate with `UPDATE_GOLDEN=1 cargo test -p spiral-serve --test
//! wisdom_schema_golden`.

use spiral_serve::{WisdomEntry, WisdomFile, WISDOM_SCHEMA_VERSION};
use spiral_smp::topology::HostFingerprint;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/wisdom_schema.json")
}

/// Fixed literals, NOT `HostFingerprint::current()`: the golden must be
/// identical on every machine that runs the suite.
fn fixture() -> WisdomFile {
    WisdomFile {
        schema: WISDOM_SCHEMA_VERSION,
        host: HostFingerprint {
            cores: 4,
            mu: 4,
            cache_line_bytes: 64,
            simd_width: 4,
            features: vec!["trace".to_string(), "simd4".to_string()],
        },
        entries: vec![
            WisdomEntry {
                n: 16,
                threads: 1,
                mu: 4,
                plan_threads: 1,
                formula: "(DFT_4 @ I_4) * T^16_4 * (I_4 @ DFT_4) * L^16_4".to_string(),
                choice: "sequential tree (4 x 4)".to_string(),
                cost: 512.0,
                vec_width: 1,
            },
            WisdomEntry {
                n: 1024,
                threads: 2,
                mu: 4,
                plan_threads: 2,
                formula: "vec(2)[smp(2,4)[DFT_1024]]".to_string(),
                choice: "multicore split 32x32 + vec(2)".to_string(),
                cost: 65536.0,
                vec_width: 2,
            },
        ],
    }
}

#[test]
fn wisdom_json_matches_golden_snapshot() {
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
        "wisdom JSON schema drifted from results/wisdom_schema.json.\n\
         If intentional: bump WISDOM_SCHEMA_VERSION and regenerate with UPDATE_GOLDEN=1."
    );
}

#[test]
fn golden_snapshot_round_trips() {
    let want = fixture();
    if let Ok(s) = std::fs::read_to_string(golden_path()) {
        let parsed: WisdomFile = serde_json::from_str(&s).expect("golden snapshot must parse");
        assert_eq!(parsed, want);
        assert_eq!(parsed.schema, WISDOM_SCHEMA_VERSION);
    }
}
