//! Figure/table data structures and rendering.
//!
//! Every experiment produces a [`FigureTable`]: named series over a list
//! of row labels (the x-axis groups of the paper's bar charts). Tables
//! render as aligned ASCII (for the `repro` binary), CSV (for plotting)
//! and JSON (via serde), as `repro` prints them (README, "Regenerating the
//! paper's figures").

use serde::{Deserialize, Serialize};

/// One plotted series (a bar colour in the paper's figures).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label, e.g. `"event order search"`.
    pub label: String,
    /// One value per row label.
    pub values: Vec<f64>,
}

/// A full figure's data: rows × series.
///
/// # Example
///
/// ```
/// use ens_workloads::{FigureTable, Series};
/// let t = FigureTable::new(
///     "fig-demo",
///     "demo",
///     vec!["a/b".into()],
///     vec![Series { label: "binary".into(), values: vec![3.5] }],
/// );
/// assert!(t.render().contains("binary"));
/// assert!(t.to_csv().starts_with("combination,binary"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureTable {
    /// Stable experiment id (e.g. `"fig4a"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// X-axis group labels (distribution combinations).
    pub row_labels: Vec<String>,
    /// The series.
    pub series: Vec<Series>,
}

impl FigureTable {
    /// Creates a table, validating that all series have one value per
    /// row.
    ///
    /// # Panics
    ///
    /// Panics if a series length does not match the row labels.
    #[must_use]
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        row_labels: Vec<String>,
        series: Vec<Series>,
    ) -> Self {
        let t = FigureTable {
            id: id.into(),
            title: title.into(),
            row_labels,
            series,
        };
        for s in &t.series {
            assert_eq!(
                s.values.len(),
                t.row_labels.len(),
                "series `{}` length mismatch in `{}`",
                s.label,
                t.id
            );
        }
        t
    }

    /// Looks up a series by label.
    #[must_use]
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// The value of `(row, series)`.
    #[must_use]
    pub fn value(&self, row: &str, label: &str) -> Option<f64> {
        let r = self.row_labels.iter().position(|l| l == row)?;
        Some(self.series(label)?.values[r])
    }

    /// Renders an aligned ASCII table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let label_w = self
            .row_labels
            .iter()
            .map(String::len)
            .chain(std::iter::once("combination".len()))
            .max()
            .unwrap_or(12)
            + 2;
        let col_w = self
            .series
            .iter()
            .map(|s| s.label.len().max(8))
            .collect::<Vec<_>>();
        out.push_str(&format!("{:<label_w$}", "combination"));
        for (s, w) in self.series.iter().zip(&col_w) {
            out.push_str(&format!("{:>width$}", s.label, width = w + 2));
        }
        out.push('\n');
        for (r, row) in self.row_labels.iter().enumerate() {
            out.push_str(&format!("{row:<label_w$}"));
            for (s, w) in self.series.iter().zip(&col_w) {
                out.push_str(&format!("{:>width$.3}", s.values[r], width = w + 2));
            }
            out.push('\n');
        }
        out
    }

    /// Renders CSV with a `combination` key column.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("combination");
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label);
        }
        out.push('\n');
        for (r, row) in self.row_labels.iter().enumerate() {
            out.push_str(row);
            for s in &self.series {
                out.push_str(&format!(",{:.6}", s.values[r]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FigureTable {
        FigureTable::new(
            "fig4a",
            "value reordering",
            vec!["d37/equal".into(), "d5/d41".into()],
            vec![
                Series {
                    label: "natural".into(),
                    values: vec![10.0, 4.0],
                },
                Series {
                    label: "binary".into(),
                    values: vec![5.5, 5.25],
                },
            ],
        )
    }

    #[test]
    fn lookups() {
        let t = table();
        assert_eq!(t.value("d5/d41", "binary"), Some(5.25));
        assert_eq!(t.value("d5/d41", "nope"), None);
        assert_eq!(t.value("nope", "binary"), None);
        assert!(t.series("natural").is_some());
    }

    #[test]
    fn render_contains_all_cells() {
        let r = table().render();
        assert!(r.contains("d37/equal"));
        assert!(r.contains("10.000"));
        assert!(r.contains("5.250"));
    }

    #[test]
    fn csv_shape() {
        let csv = table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "combination,natural,binary");
        assert!(lines[1].starts_with("d37/equal,10.000000,"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_rejected() {
        let _ = FigureTable::new(
            "x",
            "x",
            vec!["a".into()],
            vec![Series {
                label: "s".into(),
                values: vec![1.0, 2.0],
            }],
        );
    }

    #[test]
    fn serde_round_trip() {
        let t = table();
        let json = serde_json::to_string(&t).unwrap();
        let back: FigureTable = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
