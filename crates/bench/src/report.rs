//! Text tables and CSV output for the experiment harness.

use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A simple column-aligned table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column names.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let print_row = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            println!("  {}", line.join("  "));
        };
        print_row(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            print_row(row);
        }
    }

    /// Writes the table as CSV to `dir/name.csv`, quoting fields per
    /// RFC 4180.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut f = fs::File::create(&path)?;
        for row in std::iter::once(&self.header).chain(&self.rows) {
            let fields: Vec<String> = row.iter().map(|cell| csv_field(cell)).collect();
            writeln!(f, "{}", fields.join(","))?;
        }
        eprintln!("  [csv] {}", path.display());
        Ok(())
    }
}

/// One CSV field: quoted, with its quotes doubled, when it holds a comma, a
/// quote or a line break; otherwise as is.
fn csv_field(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// A minimal ordered JSON object builder for machine-readable bench
/// artifacts (the workspace vendors no serde). Keys keep insertion order;
/// values are numbers, strings, or nested objects.
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, key: &str, rendered: String) -> &mut Self {
        assert!(
            !key.contains(['"', '\\']),
            "JSON keys must not need escaping"
        );
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Adds a numeric field (rendered with up to 3 fractional digits —
    /// nanosecond metrics need no more).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        assert!(value.is_finite(), "JSON numbers must be finite ({key})");
        let mut s = format!("{value:.3}");
        while s.contains('.') && (s.ends_with('0') || s.ends_with('.')) {
            s.pop();
        }
        self.push(key, s)
    }

    /// Adds an integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.push(key, value.to_string())
    }

    /// Adds a string field (the value must not need escaping).
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        assert!(
            !value.contains(['"', '\\']),
            "JSON strings must not need escaping"
        );
        self.push(key, format!("\"{value}\""))
    }

    /// Adds a nested object.
    pub fn obj(&mut self, key: &str, nested: &JsonObject) -> &mut Self {
        self.push(key, nested.render())
    }

    /// Renders the object as a JSON string.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Writes the object as `dir/name.json`.
    pub fn write(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.json"));
        fs::write(&path, self.render() + "\n")?;
        eprintln!("  [json] {}", path.display());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_object_renders_and_writes() {
        let mut inner = JsonObject::new();
        inner.num("ns", 12.3456).int("count", 7);
        let mut obj = JsonObject::new();
        obj.str_field("schema", "test-v1").obj("metrics", &inner);
        assert_eq!(
            obj.render(),
            "{\"schema\": \"test-v1\", \"metrics\": {\"ns\": 12.346, \"count\": 7}}"
        );
        let dir = std::env::temp_dir().join("grafite_json_test");
        obj.write(&dir, "bench").unwrap();
        let body = std::fs::read_to_string(dir.join("bench.json")).unwrap();
        assert!(body.starts_with('{') && body.ends_with("}\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_numbers_trim_trailing_zeros() {
        let mut obj = JsonObject::new();
        obj.num("a", 5.0).num("b", 0.25);
        assert_eq!(obj.render(), "{\"a\": 5, \"b\": 0.25}");
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "x,y".into()]);
        t.row(vec!["2".into(), "z".into()]);
        let dir = std::env::temp_dir().join("grafite_report_test");
        t.write_csv(&dir, "t").unwrap();
        let body = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(body.lines().count(), 3);
        assert!(body.starts_with("a,b\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_quotes_fields_with_separators_quotes_and_newlines() {
        let mut t = Table::new(&["note", "n"]);
        t.row(vec!["point Bloom at eps/L, O(L) query".into(), "1".into()]);
        t.row(vec!["say \"hi\"".into(), "two\nlines".into()]);
        let dir = std::env::temp_dir().join("grafite_report_quoting_test");
        t.write_csv(&dir, "t").unwrap();
        let body = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(
            body,
            "note,n\n\"point Bloom at eps/L, O(L) query\",1\n\"say \"\"hi\"\"\",\"two\nlines\"\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn print_does_not_panic() {
        let mut t = Table::new(&["col"]);
        t.row(vec!["value-longer-than-header".into()]);
        t.print();
    }
}
