//! The history recorder's inputs are untrusted: a saved perfbench
//! stdout and a `BENCH_<host>.json` file may be truncated, corrupted or
//! hand-edited. Parsing them must never panic, and every rejection must
//! say why. The CLI tests drive the `bench` binary end to end.

use proptest::prelude::*;
use spiral_bench::history::{BenchHistory, BenchRun};
use std::process::Command;

/// A well-formed untraced perfbench result line.
const LINE: &str = r#"{"correct": true, "attempted": 1200, "failed": 0, "metrics": {"setup_s": {"value": 0.12, "unit": "s"}, "small_vs_iterative": {"value": 1.2, "unit": "x"}, "large_vs_iterative": {"value": 1.05, "unit": "x"}}}"#;

fn parse(output: &[u8]) -> Result<BenchRun, String> {
    BenchRun::from_perfbench(output, "a", "fft-seq", 1)
}

/// A valid one-run history holding [`LINE`].
fn history_json() -> String {
    let mut h = BenchHistory::default();
    h.append(parse(LINE.as_bytes()).unwrap());
    h.to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_rejected_with_a_reason(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let err = parse(&bytes).unwrap_err();
        prop_assert!(!err.is_empty());
    }

    #[test]
    fn truncated_lines_are_rejected(cut in 0usize..LINE.len()) {
        let err = parse(&LINE.as_bytes()[..cut]).unwrap_err();
        prop_assert!(!err.is_empty());
    }

    #[test]
    fn corrupted_lines_never_panic(
        flips in prop::collection::vec((0usize..LINE.len(), any::<u8>()), 1..4),
    ) {
        let mut bytes = LINE.as_bytes().to_vec();
        for (at, b) in flips {
            bytes[at] = b;
        }
        // Whatever is accepted satisfies the recorder's invariants.
        match parse(&bytes) {
            Ok(run) => {
                let mut h = BenchHistory::default();
                h.append(run);
                prop_assert!(h.validate().is_ok());
            }
            Err(e) => prop_assert!(!e.is_empty()),
        }
    }

    #[test]
    fn history_from_arbitrary_bytes_is_rejected(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let err = BenchHistory::from_json(&String::from_utf8_lossy(&bytes)).unwrap_err();
        prop_assert!(!err.is_empty());
    }

    #[test]
    fn corrupted_histories_never_panic(flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4)) {
        let mut bytes = history_json().into_bytes();
        let len = bytes.len();
        for (at, b) in flips {
            bytes[at % len] = b;
        }
        if let Ok(h) = BenchHistory::from_json(&String::from_utf8_lossy(&bytes)) {
            prop_assert!(h.validate().is_ok());
        }
    }
}

fn reject(line: &str) -> String {
    parse(line.as_bytes()).unwrap_err()
}

#[test]
fn named_rejections() {
    let run = parse(format!("progress\n{LINE}\n\n").as_bytes()).unwrap();
    assert_eq!((run.attempted, run.failed, run.metrics.len()), (1200, 0, 3));
    let err = reject(&LINE.replace("small_vs_iterative", "tiny_vs_iterative"));
    assert!(
        err.contains("unknown metric \"tiny_vs_iterative\""),
        "{err}"
    );
    let err = reject(&LINE.replace(r#""unit": "s""#, r#""unit": "ms""#));
    assert!(err.contains("has unit \"ms\""), "{err}");
    let err = reject(&LINE.replace("0.12", "null"));
    assert!(err.contains("no finite value"), "{err}");
    let err = reject(&LINE.replace("0.12", "NaN"));
    assert!(err.contains("not JSON"), "{err}");
    let err = reject(&LINE.replace("0.12", "1e999"));
    assert!(err.contains("no finite value"), "{err}");
    let err = reject(&LINE.replace(r#""failed": 0"#, r#""failed": 1201"#));
    assert!(err.contains("exceeds attempted"), "{err}");
    let err = reject(&LINE.replace(r#""failed": 0"#, r#""failed": -1"#));
    assert!(err.contains("not a count"), "{err}");
    let err = reject(&LINE.replace(
        r#""metrics": {"#,
        r#""metrics": {"setup_s": {"value": 1, "unit": "s"}, "#,
    ));
    assert!(err.contains("appears twice"), "{err}");
    assert!(reject("").contains("no non-empty line"));
    assert!(parse(b"\xff\xfe").unwrap_err().contains("UTF-8"));
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("bench runs")
}

/// `record` then `compare` and `show` through the binary: the same
/// result line under two commits is no change; a halved ratio under a
/// third commit is a regression (exit 1).
#[test]
fn cli_records_and_compares() {
    let dir = std::env::temp_dir().join(format!("spiral-bench-history-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (from, out) = (dir.join("run.out"), dir.join("BENCH_t.json"));
    let (from_s, out_s) = (from.to_str().unwrap(), out.to_str().unwrap());
    let slow = LINE.replace("1.2,", "0.6,");
    for (commit, line) in [("base", LINE), ("same", LINE), ("slow", slow.as_str())] {
        std::fs::write(&from, line).unwrap();
        let args = ["--from", from_s, "--workload", "fft-seq", "--seed", "1"];
        let o = bench(
            &[
                &["history", "record"][..],
                &args,
                &["--commit", commit, "--out", out_s],
            ]
            .concat(),
        );
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
        let o = bench(&["history", "compare", "--file", out_s]);
        let text = String::from_utf8_lossy(&o.stdout);
        match commit {
            "base" => assert!(text.contains("nothing to compare"), "{text}"),
            "same" => assert_eq!(text.matches("no change").count(), 3, "{text}"),
            _ => assert!(
                o.status.code() == Some(1) && text.contains("regressed"),
                "{text}"
            ),
        }
    }
    let o = bench(&["history", "show", "--file", out_s]);
    let text = String::from_utf8_lossy(&o.stdout);
    assert!(text.contains("oldest first: base same slow"), "{text}");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn cli_rejects_removed_and_missing_flags() {
    let o = bench(&["history", "record", "--sizes", "8"]);
    assert_eq!(o.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&o.stderr).contains("unexpected argument `--sizes`"));
    let o = bench(&["history", "record", "--from", "x", "--workload", "fft-seq"]);
    assert_eq!(o.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&o.stderr).contains("--commit is required"));
    let o = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["serve-load", "--history", "x"])
        .output()
        .expect("figures runs");
    assert_eq!(o.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&o.stderr).contains("unknown flag --history"));
}
