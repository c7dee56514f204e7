//! Report helpers for the experiment driver and `nmctl`: aligned text
//! tables, the geometric means the paper aggregates with, and the one JSON
//! serializer every machine-readable report goes through.

use std::fmt;

/// Geometric mean of positive values (the paper's "GM" columns). Returns 0
/// for an empty slice; non-positive entries are skipped.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values.iter().filter(|&&v| v > 0.0).map(|v| v.ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// A minimal aligned text table (the experiments print paper-style rows; no
/// external table crates per the dependency policy).
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Adds a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                line.push_str(&format!("{:<w$}  ", cell, w = widths[c]));
            }
            line.trim_end().to_string() + "\n"
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push_str(&format!("{}\n", "-".repeat(widths.iter().sum::<usize>() + 2 * cols)));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// A JSON document. Numbers carry their text, so a report fixes each
/// field's decimals where it builds the value and emission is verbatim.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` — also what a non-finite [`Json::num`] becomes.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, already rendered.
    Num(String),
    /// A string (escaped on emission).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// `v` with `decimals` fractional digits; NaN and ±∞ have no JSON
    /// spelling and become `null`.
    pub fn num(v: f64, decimals: usize) -> Self {
        if v.is_finite() {
            Json::Num(format!("{v:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Num(v.to_string())
            }
        }
    )*};
}
json_from_int!(u32, u64, u128, usize, i64);

/// Rows keyed by column header, cells as the strings the table prints.
impl From<&Table> for Json {
    fn from(t: &Table) -> Self {
        let row = |cells: &Vec<String>| {
            Json::obj(t.header.iter().cloned().zip(cells.iter().cloned().map(Json::Str)))
        };
        Json::Arr(t.rows.iter().map(row).collect())
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

/// Compact emission: no whitespace, one line.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => f.write_str(n),
            Json::Str(s) => f.write_str(&quote(s)),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(Json::to_string).collect();
                write!(f, "[{}]", items.join(","))
            }
            Json::Obj(fields) => {
                let fields: Vec<String> =
                    fields.iter().map(|(k, v)| format!("{}:{v}", quote(k))).collect();
                write!(f, "{{{}}}", fields.join(","))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[0.0, -1.0]), 0.0);
        // Skips non-positive entries.
        assert!((geomean(&[2.0, 8.0, 0.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["set", "speedup"]);
        t.row(vec!["acl1".into(), "2.40x".into()]);
        t.row(vec!["fw1-long-name".into(), "1.1x".into()]);
        let s = t.render();
        assert!(s.contains("set"));
        assert!(s.lines().count() == 4);
        // Columns aligned: both data lines place "speedup" column at the
        // same offset.
        let lines: Vec<&str> = s.lines().collect();
        let col = lines[2].find("2.40x").unwrap();
        let col2 = lines[3].find("1.1x").unwrap();
        assert_eq!(col, col2);
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_escapes_strings_and_nulls_non_finite_numbers() {
        assert_eq!(Json::from("a\"b\\c\n\t\u{1}é").to_string(), r#""a\"b\\c\n\t\u0001é""#);
        assert_eq!(Json::num(1.25, 1).to_string(), "1.2");
        assert_eq!(Json::num(0.0, 4).to_string(), "0.0000");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::num(v, 3), Json::Null);
        }
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::from(-3i64).to_string(), "-3");
    }

    #[test]
    fn json_tables_are_rows_keyed_by_header_and_documents_nest() {
        let mut t = Table::new(&["set", "thr/\"tm\""]);
        t.row(vec!["acl1".into(), "2.40x".into()]);
        t.row(vec!["GM".into(), String::new()]);
        let doc = Json::obj([
            ("ok", Json::from(true)),
            ("tables", Json::obj([("sweep", Json::from(&t))])),
            ("failures", Json::Arr(vec![])),
            ("empty", Json::obj::<&str>([])),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"ok":true,"tables":{"sweep":[{"set":"acl1","thr/\"tm\"":"2.40x"},{"set":"GM","thr/\"tm\"":""}]},"failures":[],"empty":{}}"#
        );
    }
}
