//! Minimal fixed-width table rendering for experiment output.

use arachnet_sim::metrics::five_num;

use crate::report::Num;

/// Renders a header row plus data rows as an aligned text table.
pub fn table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with the given decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{:.*}", decimals, v)
}

/// The five-number summary of `values` — `[min, q1, median, q3, max]`
/// with the given decimals — or five [`Num::Absent`] when the sample is
/// empty, as a partial run can leave a cell with no completed trial.
pub fn five_num_cells(values: &[f64], decimals: usize) -> [Num; 5] {
    if values.is_empty() {
        return [Num::Absent; 5];
    }
    let s = five_num(values);
    [s.min, s.q1, s.median, s.q3, s.max].map(|v| Num::Real(v, decimals))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let out = table(
            "T",
            &["a", "bbbb"],
            &[
                vec!["1".into(), "2".into()],
                vec!["100".into(), "2000000".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "T");
        assert!(lines[1].contains("bbbb"));
        // All data lines have equal length.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn float_format() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 1), "10.0");
    }

    #[test]
    fn five_num_cells_dash_an_empty_sample() {
        assert_eq!(five_num_cells(&[], 0), [Num::Absent; 5]);
        assert_eq!(five_num_cells(&[4.0, 1.0], 1)[0].to_string(), "1.0");
        assert_eq!(five_num_cells(&[4.0, 1.0], 1)[4], Num::Real(4.0, 1));
    }
}
