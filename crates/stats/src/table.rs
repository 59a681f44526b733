//! Plain-text table builder used by the figure harnesses.
//!
//! Every experiment binary prints both a TSV block (machine-readable, used
//! to regenerate the paper's figures) and an aligned text table for humans.

use core::fmt;

/// Column alignment for [`Table`] rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (default, labels).
    #[default]
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple table of strings with a header row.
///
/// # Examples
///
/// ```
/// use bosim_stats::Table;
/// let mut t = Table::new(["bench", "speedup"]);
/// t.row(["429.mcf", "1.13"]);
/// let tsv = t.to_tsv();
/// assert!(tsv.starts_with("bench\tspeedup\n"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty(), "table needs at least one column");
        let aligns = vec![Align::Left; header.len()];
        Table {
            header,
            rows: Vec::new(),
            aligns,
        }
    }

    /// Sets per-column alignment (pads or truncates to the column count).
    pub fn align<I>(&mut self, aligns: I) -> &mut Self
    where
        I: IntoIterator<Item = Align>,
    {
        let mut a: Vec<Align> = aligns.into_iter().collect();
        a.resize(self.header.len(), Align::Left);
        self.aligns = a;
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as tab-separated values, header first.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join("\t"));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join("\t"));
            out.push('\n');
        }
        out
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    /// Aligned, space-padded text rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                match self.aligns[i] {
                    Align::Left => write!(f, "{:<width$}", c, width = w[i])?,
                    Align::Right => write!(f, "{:>width$}", c, width = w[i])?,
                }
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = w.iter().sum::<usize>() + 2 * (w.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for r in &self.rows {
            write_row(f, r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_round_trip_shape() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]).row(["3", "4"]);
        let tsv = t.to_tsv();
        let lines: Vec<_> = tsv.lines().collect();
        assert_eq!(lines, vec!["a\tb", "1\t2", "3\t4"]);
    }

    #[test]
    fn display_aligns_columns() {
        let mut t = Table::new(["name", "val"]);
        t.align([Align::Left, Align::Right]);
        t.row(["x", "1.000"]);
        t.row(["longer", "10.5"]);
        let s = t.to_string();
        for line in s.lines().filter(|l| !l.starts_with('-')) {
            assert!(line.len() >= "longer  1.000".len() - 1);
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }
}
