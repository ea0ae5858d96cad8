//! Experiment output: a fixed-width table printer, and [`Fields`] — one
//! ordered `(key, value)` list per report from which its log line, its
//! JSON object and its table row are all derived, so a field is named
//! once and can never be mislabelled by a reordered positional argument.

use promises_telemetry::export::json_escape;

/// Prints a titled table: header row plus data rows, columns padded to
/// the widest cell.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Formats microseconds as a human-readable duration.
pub fn us(v: f64) -> String {
    if v >= 1_000_000.0 {
        format!("{:.2}s", v / 1e6)
    } else if v >= 1_000.0 {
        format!("{:.2}ms", v / 1e3)
    } else {
        format!("{v:.1}us")
    }
}

/// One report as an ordered list of `(key, value)`, each value already
/// rendered as JSON: numbers and flags via `to_string()` / [`f`], text via
/// [`q`], nested values via [`Fields::json`], [`list`], [`strings`] and
/// [`map`]. Every rendering keeps this order.
#[derive(Debug, Clone, PartialEq)]
pub struct Fields(pub Vec<(&'static str, String)>);

/// Text as a JSON string literal.
pub fn q(text: &str) -> String {
    format!("\"{}\"", json_escape(text))
}

/// A JSON array of objects, one per field list.
pub fn list(rows: &[Fields]) -> String {
    let items: Vec<String> = rows.iter().map(Fields::json).collect();
    format!("[{}]", items.join(","))
}

/// A JSON array of strings.
pub fn strings<S: AsRef<str>>(items: &[S]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| q(s.as_ref())).collect();
    format!("[{}]", quoted.join(","))
}

/// A JSON object whose keys are only known at run time.
pub fn map<K: AsRef<str>>(entries: impl IntoIterator<Item = (K, String)>) -> String {
    let members: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", q(k.as_ref())))
        .collect();
    format!("{{{}}}", members.join(","))
}

impl Fields {
    /// `{"key":value,…}`.
    pub fn json(&self) -> String {
        map(self.0.iter().map(|(k, v)| (k, v.clone())))
    }

    /// `key=value key=value …`.
    pub fn log(&self) -> String {
        let pairs: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
        pairs.join(" ")
    }

    /// The keys, as table header.
    pub fn keys(&self) -> Vec<&'static str> {
        self.0.iter().map(|(k, _)| *k).collect()
    }

    /// The values, as table row.
    pub fn cells(&self) -> Vec<String> {
        self.0.iter().map(|(_, v)| v.clone()).collect()
    }

    /// The sub-list holding only `keys`, still in this list's order.
    /// Panics on a key the list does not have, so a typo fails loudly.
    pub fn pick(&self, keys: &[&str]) -> Fields {
        for key in keys {
            assert!(self.0.iter().any(|(k, _)| k == key), "no field {key:?}");
        }
        let kept = self.0.iter().filter(|(k, _)| keys.contains(k));
        Fields(kept.cloned().collect())
    }
}

/// Prints one table row per field list, headed by the (shared) keys.
pub fn print_rows(title: &str, rows: &[Fields]) {
    let header = rows.first().map(Fields::keys).unwrap_or_default();
    let cells: Vec<Vec<String>> = rows.iter().map(Fields::cells).collect();
    print_table(title, &header, &cells);
}

#[cfg(test)]
mod tests {
    use super::*;
    use promises_telemetry::export::validate_json;

    #[test]
    fn one_field_list_yields_line_row_and_json_in_the_same_order() {
        let report = Fields(vec![
            ("seed", 2007.to_string()),
            ("rate", f(0.1, 2)),
            ("sweep", q("fail\"over")),
            ("clean", true.to_string()),
            ("tripped", strings(&["a", "b"])),
            ("causes", map([("late", 3.to_string())])),
            ("nested", Fields(vec![("n", 1.to_string())]).json()),
        ]);
        let json = report.json();
        validate_json(&json).expect("rendered JSON parses");
        assert_eq!(
            json,
            "{\"seed\":2007,\"rate\":0.10,\"sweep\":\"fail\\\"over\",\"clean\":true,\
             \"tripped\":[\"a\",\"b\"],\"causes\":{\"late\":3},\"nested\":{\"n\":1}}"
        );
        let line = report.log();
        assert!(line.starts_with("seed=2007 rate=0.10 sweep=\"fail\\\"over\" clean=true "));
        // Same keys, same order, in all three renderings.
        let keys = report.keys();
        let positions = |text: &str, mark: &dyn Fn(&str) -> String| -> Vec<usize> {
            keys.iter().map(|k| text.find(&mark(k)).unwrap()).collect()
        };
        assert!(positions(&json, &|k| format!("\"{k}\":")).is_sorted());
        assert!(positions(&line, &|k| format!("{k}=")).is_sorted());
        assert_eq!(report.cells()[..2], ["2007", "0.10"]);
        assert_eq!(report.cells().len(), keys.len());

        let some = report.pick(&["clean", "seed"]);
        assert_eq!(some.keys(), ["seed", "clean"], "pick keeps list order");
        assert_eq!(list(&[some.clone(), some]).matches("seed").count(), 2);
    }

    #[test]
    #[should_panic(expected = "no field")]
    fn picking_an_unknown_key_panics() {
        Fields(vec![("a", 1.to_string())]).pick(&["b"]);
    }

    #[test]
    fn formats() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(us(12.3), "12.3us");
        assert_eq!(us(12_300.0), "12.30ms");
        assert_eq!(us(2_500_000.0), "2.50s");
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "demo",
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
