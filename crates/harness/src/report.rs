//! Plain-text tables and CSV output for the figure-regeneration
//! binaries.
//!
//! All file emission here is *atomic*: content is written to a sibling
//! temporary file and `rename(2)`d into place, so a campaign killed (or a
//! run crashing) mid-write never leaves a truncated report behind.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Atomically replace `path` with `content` (write temp + rename).
///
/// # Errors
/// Propagates I/O failures; on error the destination is untouched.
pub fn atomic_write(path: &Path, content: &[u8]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension(format!(
        "{}.tmp.{}",
        path.extension()
            .and_then(|e| e.to_str())
            .unwrap_or("partial"),
        std::process::id()
    ));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(content)?;
    f.sync_all()?;
    drop(f);
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// A simple column-aligned table builder.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:>width$}", width = widths[i]);
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Write as CSV (atomically: temp file + rename).
    ///
    /// # Errors
    /// Propagates I/O failures; a failed write leaves any previous file
    /// at `path` intact.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        atomic_write(path, out.as_bytes())
    }
}

/// Format a duration in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.1}us")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{:.3}s", us / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["gemm".into(), "1.234".into()]);
        t.row(vec!["jacobi-2d".into(), "0.9".into()]);
        let s = t.render();
        assert!(s.contains("gemm"));
        assert!(s.contains("jacobi-2d"));
        assert!(s.lines().count() == 4);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let p = std::env::temp_dir().join(format!("lb-csv-{}.csv", std::process::id()));
        t.write_csv(&p).unwrap();
        let s = std::fs::read_to_string(&p).unwrap();
        assert_eq!(s, "a,b\n1,2\n");
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn atomic_write_replaces_and_never_truncates() {
        let p = std::env::temp_dir().join(format!("lb-atomic-{}.txt", std::process::id()));
        atomic_write(&p, b"first").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "first");
        atomic_write(&p, b"second version").unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "second version");
        // No stray temp files left behind.
        let dir = p.parent().unwrap();
        let strays = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name().to_string_lossy().contains("lb-atomic")
                    && e.file_name().to_string_lossy().contains(".tmp.")
            })
            .count();
        assert_eq!(strays, 0);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn duration_formatting() {
        use std::time::Duration;
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500.0us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000s");
    }
}
