//! A minimal in-memory relational layer: [`Datum`] cells, [`Table`]s
//! with named columns, and the operators the monitoring surface needs —
//! filter, project, sort, limit, inner join, and count/sum/min/max
//! aggregates with optional grouping. No external dependencies, no
//! indices: tables are small point-in-time snapshots of cluster state,
//! so every operator is a straightforward scan with deterministic
//! (stable) ordering.

use std::cmp::Ordering;
use std::fmt;

use storm_sim::SimTime;

/// A single table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// Absent value (e.g. a job that has not started yet).
    Null,
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer (ids, counts, sizes).
    U64(u64),
    /// Signed integer (gauges).
    I64(i64),
    /// Floating-point value.
    F64(f64),
    /// Text (names, states, roles).
    Str(String),
    /// A simulated instant; displayed in microseconds.
    Time(SimTime),
}

impl Datum {
    /// The cell as an unsigned integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Datum::U64(n) => Some(n),
            Datum::I64(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The cell as text, when it is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view for aggregation (integers widen to `i128`).
    fn as_int(&self) -> Option<i128> {
        match *self {
            Datum::U64(n) => Some(i128::from(n)),
            Datum::I64(n) => Some(i128::from(n)),
            Datum::Time(t) => Some(i128::from(t.as_nanos())),
            _ => None,
        }
    }

    /// Total order across all variants: Null < Bool < numbers < Str.
    /// Numbers (U64/I64/F64/Time) compare by value; instants compare in
    /// nanoseconds against integers.
    pub fn total_cmp(&self, other: &Datum) -> Ordering {
        fn rank(d: &Datum) -> u8 {
            match d {
                Datum::Null => 0,
                Datum::Bool(_) => 1,
                Datum::U64(_) | Datum::I64(_) | Datum::F64(_) | Datum::Time(_) => 2,
                Datum::Str(_) => 3,
            }
        }
        match (self, other) {
            (Datum::Bool(a), Datum::Bool(b)) => a.cmp(b),
            (Datum::Str(a), Datum::Str(b)) => a.cmp(b),
            (Datum::F64(a), b) => match b {
                Datum::F64(bf) => a.total_cmp(bf),
                _ => match b.as_int() {
                    Some(bi) => a.total_cmp(&(bi as f64)),
                    None => rank(self).cmp(&rank(other)),
                },
            },
            (a, Datum::F64(bf)) => match a.as_int() {
                Some(ai) => (ai as f64).total_cmp(bf),
                None => rank(self).cmp(&rank(other)),
            },
            (a, b) => match (a.as_int(), b.as_int()) {
                (Some(ai), Some(bi)) => ai.cmp(&bi),
                _ => rank(self).cmp(&rank(other)),
            },
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "-"),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::U64(n) => write!(f, "{n}"),
            Datum::I64(n) => write!(f, "{n}"),
            Datum::F64(x) => write!(f, "{x:.3}"),
            Datum::Str(s) => write!(f, "{s}"),
            Datum::Time(t) => write!(f, "{}us", t.as_nanos() / 1_000),
        }
    }
}

/// An aggregate function over one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Number of rows (ignores the column's values, counts non-`Null`).
    Count,
    /// Sum of integer values (`Null` cells skipped).
    Sum,
    /// Minimum by [`Datum::total_cmp`] (`Null` cells skipped).
    Min,
    /// Maximum by [`Datum::total_cmp`] (`Null` cells skipped).
    Max,
}

impl Agg {
    fn label(self, col: &str) -> String {
        match self {
            Agg::Count => format!("count({col})"),
            Agg::Sum => format!("sum({col})"),
            Agg::Min => format!("min({col})"),
            Agg::Max => format!("max({col})"),
        }
    }

    fn apply(self, cells: &[&Datum]) -> Datum {
        let present: Vec<&&Datum> = cells.iter().filter(|d| !matches!(d, Datum::Null)).collect();
        match self {
            Agg::Count => Datum::U64(present.len() as u64),
            Agg::Sum => {
                let mut total: i128 = 0;
                for d in &present {
                    match d.as_int() {
                        Some(n) => total += n,
                        None => return Datum::Null,
                    }
                }
                if total >= 0 {
                    match u64::try_from(total) {
                        Ok(n) => Datum::U64(n),
                        Err(_) => Datum::F64(total as f64),
                    }
                } else {
                    match i64::try_from(total) {
                        Ok(n) => Datum::I64(n),
                        Err(_) => Datum::F64(total as f64),
                    }
                }
            }
            Agg::Min => present
                .iter()
                .min_by(|a, b| a.total_cmp(b))
                .map(|d| (**d).clone())
                .unwrap_or(Datum::Null),
            Agg::Max => present
                .iter()
                .max_by(|a, b| a.total_cmp(b))
                .map(|d| (**d).clone())
                .unwrap_or(Datum::Null),
        }
    }
}

/// A borrowed row with named-column access, handed to filter predicates.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    cols: &'a [String],
    cells: &'a [Datum],
}

impl<'a> Row<'a> {
    /// The cell under `col`; [`Datum::Null`] for unknown columns (so
    /// predicates stay infallible).
    pub fn get(&self, col: &str) -> &'a Datum {
        static NULL: Datum = Datum::Null;
        match self.cols.iter().position(|c| c == col) {
            Some(ix) => &self.cells[ix],
            None => &NULL,
        }
    }

    /// Shorthand: the cell under `col` as a `u64` (0 when absent).
    pub fn u64(&self, col: &str) -> u64 {
        self.get(col).as_u64().unwrap_or(0)
    }

    /// Shorthand: the cell under `col` as text ("" when absent).
    pub fn str(&self, col: &str) -> &'a str {
        self.get(col).as_str().unwrap_or("")
    }
}

/// A named table: a column list plus rows of [`Datum`] cells, all rows
/// the same width. Operators return new tables (snapshots are cheap).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    cols: Vec<String>,
    rows: Vec<Vec<Datum>>,
}

impl Table {
    /// An empty table with the given column names.
    pub fn new(name: impl Into<String>, cols: &[&str]) -> Self {
        Table {
            name: name.into(),
            cols: cols.iter().map(|c| (*c).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Panics if the width does not match the schema —
    /// extractors are the only writers, and a mismatch is a bug.
    pub fn push(&mut self, row: Vec<Datum>) {
        assert_eq!(row.len(), self.cols.len(), "row width != column count");
        self.rows.push(row);
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column names, in order.
    pub fn columns(&self) -> &[String] {
        &self.cols
    }

    /// The rows, in order.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        self.rows.iter().map(|cells| Row {
            cols: &self.cols,
            cells,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn col_ix(&self, col: &str) -> Result<usize, String> {
        self.cols
            .iter()
            .position(|c| c == col)
            .ok_or_else(|| format!("table {:?} has no column {col:?}", self.name))
    }

    /// Rows satisfying the predicate, in the original order.
    pub fn filter(&self, pred: impl Fn(Row<'_>) -> bool) -> Table {
        Table {
            name: self.name.clone(),
            cols: self.cols.clone(),
            rows: self
                .rows
                .iter()
                .filter(|cells| {
                    pred(Row {
                        cols: &self.cols,
                        cells,
                    })
                })
                .cloned()
                .collect(),
        }
    }

    /// Projection: keep only the named columns, in the given order.
    pub fn select(&self, cols: &[&str]) -> Result<Table, String> {
        let ixs: Vec<usize> = cols
            .iter()
            .map(|c| self.col_ix(c))
            .collect::<Result<_, _>>()?;
        Ok(Table {
            name: self.name.clone(),
            cols: cols.iter().map(|c| (*c).to_string()).collect(),
            rows: self
                .rows
                .iter()
                .map(|r| ixs.iter().map(|&ix| r[ix].clone()).collect())
                .collect(),
        })
    }

    /// Stable sort by one column ([`Datum::total_cmp`]); `descending`
    /// flips the order. Equal keys keep their original relative order,
    /// so sorted output is deterministic.
    pub fn sort_by(&self, col: &str, descending: bool) -> Result<Table, String> {
        let ix = self.col_ix(col)?;
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| {
            let ord = a[ix].total_cmp(&b[ix]);
            if descending {
                ord.reverse()
            } else {
                ord
            }
        });
        Ok(Table {
            name: self.name.clone(),
            cols: self.cols.clone(),
            rows,
        })
    }

    /// The first `n` rows.
    pub fn limit(&self, n: usize) -> Table {
        Table {
            name: self.name.clone(),
            cols: self.cols.clone(),
            rows: self.rows.iter().take(n).cloned().collect(),
        }
    }

    /// Inner join on `self.left_col == other.right_col` (nested-loop;
    /// tables are snapshots, not databases). Output columns are
    /// `left.name.col` / `right.name.col` prefixed to stay unambiguous,
    /// rows in left-major original order.
    pub fn join(&self, other: &Table, left_col: &str, right_col: &str) -> Result<Table, String> {
        let lix = self.col_ix(left_col)?;
        let rix = other.col_ix(right_col)?;
        let mut cols: Vec<String> = self
            .cols
            .iter()
            .map(|c| format!("{}.{}", self.name, c))
            .collect();
        cols.extend(other.cols.iter().map(|c| format!("{}.{}", other.name, c)));
        let mut rows = Vec::new();
        for l in &self.rows {
            for r in &other.rows {
                if l[lix] == r[rix] {
                    let mut row = l.clone();
                    row.extend(r.iter().cloned());
                    rows.push(row);
                }
            }
        }
        Ok(Table {
            name: format!("{}x{}", self.name, other.name),
            cols,
            rows,
        })
    }

    /// A whole-table aggregate over one column.
    pub fn aggregate(&self, agg: Agg, col: &str) -> Result<Datum, String> {
        let ix = self.col_ix(col)?;
        let cells: Vec<&Datum> = self.rows.iter().map(|r| &r[ix]).collect();
        Ok(agg.apply(&cells))
    }

    /// Group rows by `key_col` and compute each `(agg, col)` pair per
    /// group. Output: one row per distinct key (sorted ascending by
    /// [`Datum::total_cmp`], so output is deterministic), columns
    /// `[key_col, "agg(col)", ...]`.
    pub fn group_by(&self, key_col: &str, aggs: &[(Agg, &str)]) -> Result<Table, String> {
        let kix = self.col_ix(key_col)?;
        let aixs: Vec<usize> = aggs
            .iter()
            .map(|(_, c)| self.col_ix(c))
            .collect::<Result<_, _>>()?;
        let mut keys: Vec<&Datum> = Vec::new();
        for r in &self.rows {
            if !keys.contains(&&r[kix]) {
                keys.push(&r[kix]);
            }
        }
        keys.sort_by(|a, b| a.total_cmp(b));
        let mut cols = vec![key_col.to_string()];
        cols.extend(aggs.iter().map(|(a, c)| a.label(c)));
        let mut rows = Vec::new();
        for key in keys {
            let members: Vec<&Vec<Datum>> = self.rows.iter().filter(|r| &r[kix] == key).collect();
            let mut row = vec![key.clone()];
            for ((agg, _), &aix) in aggs.iter().zip(&aixs) {
                let cells: Vec<&Datum> = members.iter().map(|r| &r[aix]).collect();
                row.push(agg.apply(&cells));
            }
            rows.push(row);
        }
        Ok(Table {
            name: format!("{}_by_{key_col}", self.name),
            cols,
            rows,
        })
    }

    /// A fixed-width text rendering (header, rule, rows) for terminal
    /// display.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.cols.iter().map(|c| c.len()).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|d| d.to_string()).collect())
            .collect();
        for row in &cells {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .cols
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&rule.join("  "));
        out.push('\n');
        for row in &cells {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Table {
        let mut t = Table::new("t", &["id", "group", "v"]);
        t.push(vec![Datum::U64(1), Datum::Str("a".into()), Datum::U64(10)]);
        t.push(vec![Datum::U64(2), Datum::Str("b".into()), Datum::U64(30)]);
        t.push(vec![Datum::U64(3), Datum::Str("a".into()), Datum::U64(20)]);
        t.push(vec![Datum::U64(4), Datum::Str("b".into()), Datum::Null]);
        t
    }

    #[test]
    fn filter_select_sort_limit() {
        let t = fixture();
        let f = t.filter(|r| r.u64("v") >= 20);
        assert_eq!(f.len(), 2);
        let s = t.sort_by("v", true).unwrap();
        let top: Vec<u64> = s.limit(2).rows().map(|r| r.u64("id")).collect();
        assert_eq!(top, vec![2, 3]);
        let p = t.select(&["v", "id"]).unwrap();
        assert_eq!(p.columns(), &["v".to_string(), "id".to_string()]);
        assert!(t.select(&["nope"]).is_err());
        assert!(t.sort_by("nope", false).is_err());
    }

    #[test]
    fn aggregates_and_grouping() {
        let t = fixture();
        assert_eq!(t.aggregate(Agg::Sum, "v").unwrap(), Datum::U64(60));
        assert_eq!(t.aggregate(Agg::Count, "v").unwrap(), Datum::U64(3));
        assert_eq!(t.aggregate(Agg::Min, "v").unwrap(), Datum::U64(10));
        assert_eq!(t.aggregate(Agg::Max, "v").unwrap(), Datum::U64(30));
        let g = t
            .group_by("group", &[(Agg::Count, "id"), (Agg::Sum, "v")])
            .unwrap();
        assert_eq!(g.len(), 2);
        let a: Vec<(String, u64, u64)> = g
            .rows()
            .map(|r| {
                (
                    r.str("group").to_string(),
                    r.u64("count(id)"),
                    r.u64("sum(v)"),
                )
            })
            .collect();
        assert_eq!(a, vec![("a".to_string(), 2, 30), ("b".to_string(), 2, 30)]);
    }

    #[test]
    fn join_prefixes_columns() {
        let t = fixture();
        let mut names = Table::new("names", &["id", "label"]);
        names.push(vec![Datum::U64(1), Datum::Str("one".into())]);
        names.push(vec![Datum::U64(3), Datum::Str("three".into())]);
        let j = t.join(&names, "id", "id").unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(
            j.rows()
                .map(|r| r.str("names.label").to_string())
                .collect::<Vec<_>>(),
            vec!["one".to_string(), "three".to_string()]
        );
        assert_eq!(j.rows().next().unwrap().u64("t.id"), 1);
    }

    #[test]
    fn render_is_aligned() {
        let t = fixture();
        let r = t.render();
        assert!(r.lines().count() == 2 + t.len());
        assert!(r.contains("group"));
    }
}
