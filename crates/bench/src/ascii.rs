//! ASCII rendering of benchmark series — terminal reproduction of the
//! paper's plots.

use crate::series::Series;

/// Render series as an aligned table (`log2 n` rows × series columns).
pub fn table(series: &[Series]) -> String {
    let mut out = String::new();
    let mut keys: Vec<u32> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.log2n))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    out.push_str(&format!("{:>7}", "log2n"));
    for s in series {
        out.push_str(&format!("  {:>22}", truncate(&s.name, 22)));
    }
    out.push('\n');
    for k in keys {
        out.push_str(&format!("{k:>7}"));
        for s in series {
            match s.value_at(k) {
                Some(v) => out.push_str(&format!("  {v:>22.1}")),
                None => out.push_str(&format!("  {:>22}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Render series as an ASCII line chart (pseudo-Mflop/s vs log2 n),
/// mimicking Figure 3's layout.
pub fn chart(title: &str, series: &[Series], height: usize) -> String {
    let height = height.max(5);
    let mut keys: Vec<u32> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.log2n))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    if keys.is_empty() {
        return format!("{title}: (no data)\n");
    }
    let max_v = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.value))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let marks = ['*', 'o', '.', 'x', '+', '#', '@'];
    let cols = keys.len() * 4;
    let mut grid = vec![vec![' '; cols]; height];
    for (si, s) in series.iter().enumerate() {
        let m = marks[si % marks.len()];
        for p in &s.points {
            if let Some(ci) = keys.iter().position(|&k| k == p.log2n) {
                // Clamped to [0, 1], so the rounded product is a valid
                // non-negative row index.
                let frac = (p.value / max_v).clamp(0.0, 1.0);
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let row = (frac * (height - 1) as f64).round() as usize;
                let r = height - 1 - row.min(height - 1);
                grid[r][ci * 4 + 1] = m;
            }
        }
    }
    let mut out = format!("{title}  (peak = {max_v:.0} pseudo-Mflop/s)\n");
    for (ri, row) in grid.iter().enumerate() {
        let label = if ri == 0 {
            format!("{max_v:>8.0} |")
        } else if ri == height - 1 {
            format!("{:>8.0} |", 0.0)
        } else {
            format!("{:>8} |", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>9}+{}\n", "", "-".repeat(cols)));
    out.push_str(&format!("{:>10}", ""));
    for k in &keys {
        out.push_str(&format!("{k:>4}"));
    }
    out.push_str("   (log2 n)\n  legend: ");
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("{}={}  ", marks[si % marks.len()], s.name));
    }
    out.push('\n');
    out
}

/// Serialize series to CSV (`log2n,series1,series2,…`).
pub fn csv(series: &[Series]) -> String {
    let mut keys: Vec<u32> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.log2n))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let mut out = String::from("log2n");
    for s in series {
        out.push(',');
        out.push_str(&s.name.replace(',', ";"));
    }
    out.push('\n');
    for k in keys {
        out.push_str(&k.to_string());
        for s in series {
            out.push(',');
            if let Some(v) = s.value_at(k) {
                out.push_str(&format!("{v:.3}"));
            }
        }
        out.push('\n');
    }
    out
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::Point;

    fn sample() -> Vec<Series> {
        vec![
            Series {
                name: "A".into(),
                points: vec![
                    Point {
                        log2n: 6,
                        value: 100.0,
                    },
                    Point {
                        log2n: 7,
                        value: 200.0,
                    },
                ],
            },
            Series {
                name: "B".into(),
                points: vec![Point {
                    log2n: 7,
                    value: 50.0,
                }],
            },
        ]
    }

    #[test]
    fn table_contains_all_rows_and_columns() {
        let t = table(&sample());
        assert!(t.contains("log2n"));
        assert!(t.contains("100.0"));
        assert!(t.contains("50.0"));
        assert!(t.lines().count() == 3);
    }

    #[test]
    fn csv_roundtrips_structure() {
        let c = csv(&sample());
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines[0], "log2n,A,B");
        assert!(lines[1].starts_with("6,100.000,"));
        assert!(lines[2].starts_with("7,200.000,50.000"));
    }

    #[test]
    fn chart_renders_marks_and_legend() {
        let ch = chart("test", &sample(), 10);
        assert!(ch.contains('*'));
        assert!(ch.contains("legend"));
        assert!(ch.contains("log2 n"));
    }

    #[test]
    fn chart_handles_empty() {
        let ch = chart("empty", &[], 10);
        assert!(ch.contains("no data"));
    }
}
