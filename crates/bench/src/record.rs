//! One record path for every `BENCH_*.json` file.
//!
//! Each benchmark row type lists its fields once, in display order
//! ([`Row::fields`]). Everything the harness emits about a row derives
//! from that list: the record's row objects ([`array`]), the harness
//! table over the scalar fields ([`table`]), and the one-line progress
//! report of the long-running stages ([`line`]). Records render through
//! the workspace's canonical writer ([`Json`], promoted from `planar-dst`)
//! and reach disk through [`write`]. Each field also has a [`Kind`]: the
//! deterministic ones are what [`drift`] compares between a regenerated
//! record and the committed one.

use std::path::Path;

pub use planar_dst::Json;

use crate::table::render;

/// A row's named fields, in display order.
pub type Fields = Vec<(&'static str, Json)>;

/// Whether a regenerated record must reproduce a field exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A pure function of the row's inputs (sizes, counts, rounds).
    Deterministic,
    /// Depends on the host or the toolchain (wall time, rates, RSS,
    /// allocator-grown capacities); never gated.
    Host,
}

/// A benchmark row: its fields drive its record object, its table
/// columns, and its progress line.
pub trait Row {
    /// The row's fields, in display order.
    fn fields(&self) -> Fields;

    /// The kind of field `name`: [`Kind::Host`] unless the row type marks
    /// it deterministic.
    fn kind(name: &str) -> Kind {
        let _ = name;
        Kind::Host
    }
}

/// Whether two row objects describe the same measurement: the same
/// `family` and `n`.
fn same_row(a: &Json, b: &Json) -> bool {
    ["family", "n"].iter().all(|&k| a[k] == b[k])
}

/// Every deterministic field of `rows` that differs from the row with the
/// same `family` and `n` in `section` of the `committed` record, one line
/// per difference. Rows with no committed counterpart (a size only another
/// run makes) are not compared.
pub fn drift<R: Row>(committed: &Json, section: &str, rows: &[R]) -> Vec<String> {
    let Json::Arr(old_rows) = &committed[section] else {
        return Vec::new();
    };
    let mut diffs = Vec::new();
    for row in rows {
        let new = Json::obj(row.fields());
        let Some(old) = old_rows.iter().find(|old| same_row(old, &new)) else {
            continue;
        };
        for (name, value) in row.fields() {
            if R::kind(name) == Kind::Deterministic && old[name] != value {
                diffs.push(format!(
                    "{section} family={} n={}: {name} {} -> {}",
                    cell(&new["family"]),
                    cell(&new["n"]),
                    old[name].render(),
                    value.render()
                ));
            }
        }
    }
    diffs
}

/// The rows as a record array, one object per row.
pub fn array<R: Row>(rows: &[R]) -> Json {
    Json::Arr(rows.iter().map(|r| Json::obj(r.fields())).collect())
}

/// The rows as a record array that keeps every row of `section` in the
/// `committed` record whose `family` and `n` this run did not measure, so
/// a default-size run leaves the rows only a larger run makes in place.
/// Rows are ordered by `n`, this run's rows first among equals.
pub fn array_over<R: Row>(committed: Option<&Json>, section: &str, rows: &[R]) -> Json {
    let mut out: Vec<Json> = rows.iter().map(|r| Json::obj(r.fields())).collect();
    if let Some(Json::Arr(old_rows)) = committed.map(|c| &c[section]) {
        for old in old_rows {
            if !out.iter().any(|new| same_row(new, old)) {
                out.push(old.clone());
            }
        }
    }
    out.sort_by_key(|row| match row["n"] {
        Json::U64(n) => n,
        _ => u64::MAX,
    });
    Json::Arr(out)
}

/// The scalar fields of a row (nested arrays and objects are record-only).
fn scalars<R: Row>(row: &R) -> Fields {
    let mut fields = row.fields();
    fields.retain(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
    fields
}

/// Display text of a scalar: strings unquoted, everything else as the
/// record renders it.
fn cell(value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        v => v.render(),
    }
}

/// The rows as a harness table: one column per scalar field, headed by
/// the field name.
pub fn table<R: Row>(rows: &[R]) -> String {
    let rows: Vec<Fields> = rows.iter().map(scalars).collect();
    let header: Vec<&str> = rows
        .first()
        .map_or(Vec::new(), |r| r.iter().map(|(k, _)| *k).collect());
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|(_, v)| cell(v)).collect())
        .collect();
    render(&header, &cells)
}

/// A row as one `tag name=value ...` progress line over its scalar fields.
pub fn line<R: Row>(tag: &str, row: &R) -> String {
    scalars(row)
        .iter()
        .fold(tag.to_string(), |s, (k, v)| format!("{s} {k}={}", cell(v)))
}

/// Writes `doc` to `path` as canonical JSON text and reports the path.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write(path: impl AsRef<Path>, doc: &Json) {
    let path = path.as_ref();
    std::fs::write(path, doc.render() + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Cell {
        family: &'static str,
        n: usize,
        ratio: f64,
    }

    impl Row for Cell {
        fn fields(&self) -> Fields {
            vec![
                ("family", self.family.into()),
                ("n", self.n.into()),
                ("ratio", self.ratio.into()),
                ("profile", Json::Arr(vec![self.n.into()])),
            ]
        }
    }

    /// A flood-like row: one deterministic count, one host timing.
    struct Count {
        n: usize,
        messages: usize,
        secs: f64,
    }

    impl Row for Count {
        fn fields(&self) -> Fields {
            vec![
                ("family", "grid".into()),
                ("n", self.n.into()),
                ("messages", self.messages.into()),
                ("secs", self.secs.into()),
            ]
        }

        fn kind(name: &str) -> Kind {
            match name {
                "secs" => Kind::Host,
                _ => Kind::Deterministic,
            }
        }
    }

    /// `drift` compares deterministic fields of rows matched on family and
    /// n, and ignores host fields and rows the committed record lacks.
    #[test]
    fn drift_gates_deterministic_fields_only() {
        let row = |n, messages, secs| Count { n, messages, secs };
        let committed = Json::obj([("rows", array(&[row(64, 100, 0.5)]))]);
        assert!(drift(&committed, "rows", &[row(64, 100, 0.25)]).is_empty());
        assert_eq!(
            drift(&committed, "rows", &[row(64, 101, 0.5)]),
            ["rows family=grid n=64: messages 100 -> 101"]
        );
        assert!(drift(&committed, "rows", &[row(128, 7, 0.5)]).is_empty());
        assert!(drift(&committed, "other", &[row(64, 101, 0.5)]).is_empty());
    }

    /// `array_over` replaces the committed rows this run measured, keeps
    /// the others, and orders the result by `n`.
    #[test]
    fn array_over_keeps_rows_the_run_did_not_make() {
        let row = |n, messages, secs| Count { n, messages, secs };
        let committed = Json::obj([("rows", array(&[row(64, 100, 0.5), row(1024, 900, 4.0)]))]);
        let rows = [row(16, 10, 0.1), row(64, 101, 0.25)];
        let merged = array_over(Some(&committed), "rows", &rows);
        assert_eq!(
            merged,
            array(&[row(16, 10, 0.1), row(64, 101, 0.25), row(1024, 900, 4.0)])
        );
        assert_eq!(array_over(None, "rows", &rows), array(&rows));
    }

    #[test]
    fn record_table_and_line_share_one_field_list() {
        let rows = [Cell {
            family: "grid",
            n: 64,
            ratio: 1.0 / 3.0,
        }];
        assert_eq!(array(&rows)[0]["profile"][0], Json::U64(64));
        let table = table(&rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[0], "family  n   ratio");
        assert_eq!(lines[2], "grid    64  0.333333");
        assert_eq!(
            line("cell", &rows[0]),
            "cell family=grid n=64 ratio=0.333333"
        );
    }
}
