//! Plain-text tables and series for experiment output.

use std::fmt;

/// A titled table rendered as GitHub-flavored markdown (which is also
/// pleasant to read raw in a terminal).
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths over headers + cells.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "### {}", self.title)?;
        writeln!(f)?;
        let render_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (cell, w) in cells.iter().zip(&widths) {
                write!(f, " {cell:>w$} |")?;
            }
            writeln!(f)
        };
        render_row(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<width$}|", "", width = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            render_row(f, row)?;
        }
        Ok(())
    }
}

/// A named series of `(x, y)` points, rendered as aligned columns — the
/// textual stand-in for a figure.
#[derive(Debug, Clone)]
pub struct Series {
    name: String,
    x_label: String,
    y_label: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(
        name: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Series {
        Series {
            name: name.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) -> &mut Series {
        self.points.push((x, y));
        self
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {} — {} vs {}", self.name, self.y_label, self.x_label)?;
        for (x, y) in &self.points {
            writeln!(f, "{x:>12.2}  {y:>12.4}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("Demo", &["n", "work"]);
        t.row(&["2".into(), "10".into()]);
        t.row(&["4".into(), "25".into()]);
        let rendered = t.to_string();
        assert!(rendered.contains("### Demo"));
        assert!(rendered.contains("| n | work |"), "{rendered}");
        assert!(rendered.contains("| 4 |   25 |"), "{rendered}");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        Table::new("t", &["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn series_accumulates_points() {
        let mut s = Series::new("work", "n", "ops");
        s.push(2.0, 8.0).push(4.0, 16.0);
        assert_eq!(s.points, vec![(2.0, 8.0), (4.0, 16.0)]);
        let rendered = s.to_string();
        assert!(rendered.contains("# work — ops vs n"));
    }
}
