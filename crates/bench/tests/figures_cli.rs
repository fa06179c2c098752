//! The `figures` command line: bad flag values are errors, and every
//! documented invocation names a command that exists.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

/// The command names `figures list` prints, in order.
fn listed_commands() -> Vec<String> {
    let out = figures(&["list"]);
    assert!(out.status.success(), "figures list failed: {out:?}");
    String::from_utf8(out.stdout)
        .expect("utf-8 listing")
        .lines()
        .filter(|l| l.starts_with("  "))
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect()
}

#[test]
fn unparsable_flag_values_exit_2_and_name_the_flag() {
    let cases: &[&[&str]] = &[
        &["fig3", "--min", "abc"],
        &["crossover", "--max", "1e3"],
        &["ablation-schedule", "--size", "x"],
        &["certify", "--threads", "-1"],
        &["trace", "--size", "twelve"],
        &["serve-load", "--batch", "x"],
        &["serve-load", "--require-warm", "2"],
        &["serve-dash", "--connections", "many"],
        // Log2 sizes that parse but lie outside 1..=24, or leave the
        // grain sweep a grain of 0: an error, not a shift into another
        // size.
        &["ablation-schedule", "--size", "70"],
        &["ablation-schedule", "--size", "1"],
        &["fig3", "--min", "0"],
        &["crossover", "--max", "64"],
        &["trace", "--size", "25"],
        &["serve-dash", "--size", "0"],
    ];
    for args in cases {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "figures {args:?} must exit 2; stderr: {stderr}"
        );
        let flag_and_value = format!("{} {}", args[1], args[2]);
        assert!(
            stderr.contains(&format!("figures {}: {flag_and_value}: ", args[0])),
            "figures {args:?}: stderr must name {flag_and_value}, got: {stderr}"
        );
    }
}

#[test]
fn list_prints_exactly_the_kept_commands() {
    assert_eq!(
        listed_commands(),
        [
            "fig3",
            "crossover",
            "sequential",
            "ablation-false-sharing",
            "ablation-schedule",
            "ablation-sixstep",
            "ablation-merge",
            "trace",
            "timeline",
            "search",
            "verify",
            "certify",
            "serve-load",
            "serve-dash",
            "all",
            "list",
        ]
    );
}

/// The command word of every `figures` invocation in `text`: after
/// `--bin figures --` (cargo run) or a path ending in `/figures` (the
/// built binary). Shell line continuations and folded YAML lines are
/// joined first, so a command on the next line is still found.
fn invoked_commands(text: &str) -> Vec<String> {
    let joined = text.replace("\\\n", " ");
    let tokens: Vec<&str> = joined.split_whitespace().collect();
    let mut found = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let cmd = if tokens[i..].starts_with(&["--bin", "figures", "--"]) {
            tokens.get(i + 3)
        } else if t.ends_with("/figures") {
            tokens.get(i + 1)
        } else {
            None
        };
        if let Some(c) = cmd {
            found.push(c.trim_matches('`').to_string());
        }
    }
    found
}

#[test]
fn documented_invocations_name_listed_commands() {
    let listed = listed_commands();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut checked = 0;
    for file in ["README.md", ".github/workflows/ci.yml"] {
        let text = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
        for cmd in invoked_commands(&text) {
            assert!(
                listed.contains(&cmd),
                "{file} runs `figures {cmd}`, which `figures list` does not print"
            );
            checked += 1;
        }
    }
    assert!(checked >= 10, "found only {checked} figures invocations");
}

#[test]
fn invocation_scanner_sees_every_form() {
    let text = "cargo run --bin figures -- fig3 --machine opteron\n\
                cargo run -p spiral-bench --bin figures -- \\\n    timeline --size 12\n\
                run: >\n  cargo run --release --bin figures\n  -- certify --min 2\n\
                ./target/release/figures serve-load --min 6\n\
                cargo build --release -p spiral-bench --bin figures\n";
    assert_eq!(
        invoked_commands(text),
        ["fig3", "timeline", "certify", "serve-load"]
    );
}
