//! Minimal fixed-width text-table rendering for the harness output.

/// Renders a table: a header row plus data rows, columns padded to the
/// widest cell, separated by two spaces.
///
/// # Example
///
/// ```
/// use planar_bench::table::render;
///
/// let out = render(
///     &["n", "rounds"],
///     &[vec!["64".into(), "123".into()], vec!["256".into(), "456".into()]],
/// );
/// assert!(out.contains("n    rounds"));
/// ```
pub fn render(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let s = render(&["a", "bb"], &[vec!["xxx".into(), "1".into()]]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a  "));
        assert!(lines[2].starts_with("xxx"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn rejects_bad_rows() {
        render(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
