//! The results-v3 row schema, and the parsing and comparison of the
//! `results/*.json` documents.
//!
//! [`COLUMNS`] is the one list of row columns. Each entry says where
//! [`results_json`](crate::runner::results_json) takes the cell from
//! ([`Source`]) and how [`compare_docs_full`] reads it: a cell only one
//! document carries ([`Missing`]), and a cell whose value differs
//! ([`Drift`]). The writer and the comparator are each one loop over it,
//! so adding a column is one table line at the place it should appear
//! in each row:
//!
//! * a deterministic counter of the run (simulated work, a checksum) is
//!   [`Drift::Exact`]; it is [`Missing::Error`], or [`Missing::Zero`]
//!   when committed documents predate it and its absence meant zero;
//! * a wall-clock cell that gates is [`Drift::Time`] ([`Drift::ParTime`]
//!   for the parallel pass, whose fan-out is `par_workers`); one that
//!   must never gate, like a tail quantile, is [`Drift::Warn`]. A time
//!   column newer than the committed documents is [`Missing::Equal`];
//! * a value the [`Measurement`] does not hold is [`Source::Extra`], and
//!   callers pass it to the writer as `(name, one value per row)`.
//!
//! A new column changes no existing document: the writer leaves out a
//! cell it has no value for. Bump
//! [`RESULTS_SCHEMA_VERSION`](crate::runner::RESULTS_SCHEMA_VERSION) only
//! when an existing cell changes shape.
//!
//! The harness has no serialization dependency, so [`Json`] is a minimal
//! hand-rolled reader — complete for the documents the writer emits
//! (objects, arrays, strings without exotic escapes, numbers, booleans,
//! null), not a general-purpose parser. Integer literals stay exact.
//!
//! [`compare_docs_full`] is the regression gate of the `compare_results`
//! binary: two documents must have the same schema version, the same
//! row set (workload × allocator, in order), identical deterministic
//! cells, and wall-clock cells within a tolerance.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::runner::Measurement;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// An integer literal, kept exact: checksums use all 64 bits, which
    /// an `f64` would round.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is not preserved (sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a number, if it is one (integers may round).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while b.get(*pos).is_some_and(|c| c.is_ascii_whitespace()) {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        other => Err(format!("unexpected {other:?} at byte {}", *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while b
        .get(*pos)
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).unwrap_or("");
    let int = text.parse().ok().map(Json::Int);
    int.or_else(|| text.parse().ok().map(Json::Num))
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| format!("bad UTF-8 in string: {e}"));
            }
            Some(b'\\') => {
                *pos += 1;
                let escaped = match b.get(*pos) {
                    Some(b'"') => b'"',
                    Some(b'\\') => b'\\',
                    Some(b'/') => b'/',
                    Some(b'n') => b'\n',
                    Some(b't') => b'\t',
                    other => return Err(format!("unsupported escape {other:?}")),
                };
                out.push(escaped);
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences are reassembled at the end.
                out.push(c);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']', got {other:?}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        map.insert(key, parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

// ----------------------------------------------------------------------
// The row schema
// ----------------------------------------------------------------------

/// How [`compare_docs_full`] reads a cell that only one document carries.
/// A cell missing from both documents always compares equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Missing {
    /// A gating difference: both documents must carry the column.
    Error,
    /// Equal: the other document predates the column.
    Equal,
    /// Zero: older documents left the counter out, which meant zero.
    Zero,
}

/// How [`compare_docs_full`] treats a cell whose value differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drift {
    /// A deterministic counter: any difference gates.
    Exact,
    /// Wall clock: drift beyond the tolerance gates, unless the documents
    /// disagree on `workers`, which makes it a warning.
    Time,
    /// Parallel-pass wall clock: as [`Drift::Time`], and also a warning
    /// when the documents disagree on `par_workers`.
    ParTime,
    /// Wall clock that never gates: tail quantiles of a single run are
    /// scheduling noise, so drift beyond the tolerance is a warning.
    Warn,
}

/// Where [`results_json`](crate::runner::results_json) takes a cell from.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// A duration of the measurement, written in ms to three decimals.
    Ms(fn(&Measurement) -> Duration),
    /// A counter of the measurement; `None` (a run without that counter)
    /// leaves the cell out.
    Count(fn(&Measurement) -> Option<u64>),
    /// A per-row value the caller passes next to the rows, written to
    /// three decimals; the cell is left out when the caller passes none.
    Extra,
}

/// One column of a results row: the cell's source, and how the
/// comparator reads it.
#[derive(Clone, Copy, Debug)]
pub struct Column {
    /// The row key.
    pub name: &'static str,
    /// Where the writer takes the cell from.
    pub source: Source,
    /// How a cell that only one document carries reads.
    pub missing: Missing,
    /// How a differing cell is treated.
    pub drift: Drift,
}

const fn col(name: &'static str, source: Source, missing: Missing, drift: Drift) -> Column {
    Column { name, source, missing, drift }
}

/// Every row column after `workload` and `allocator`, in emission order.
/// The writer and the comparator are each one loop over this table.
pub const COLUMNS: &[Column] = {
    use Drift::*;
    use Missing::*;
    use Source::*;
    &[
        col("total_ms", Ms(|m| m.total), Error, Time),
        col("mem_ms", Ms(|m| m.mem), Error, Time),
        col("par_total_ms", Extra, Equal, ParTime),
        col("p50_us", Extra, Equal, Warn),
        col("p99_us", Extra, Equal, Warn),
        col("p999_us", Extra, Equal, Warn),
        col("pause_p50_us", Extra, Equal, Warn),
        col("pause_p99_us", Extra, Equal, Warn),
        col("os_pages", Count(|m| Some(m.os_pages)), Error, Exact),
        col("total_allocs", Count(|m| Some(m.stats.total_allocs)), Error, Exact),
        col("total_bytes", Count(|m| Some(m.stats.total_bytes)), Error, Exact),
        col("max_live_bytes", Count(|m| Some(m.stats.max_live_bytes)), Error, Exact),
        col("safety_instrs", Count(|m| m.costs.map(|c| c.total_instrs())), Error, Exact),
        col("barriers_elided", Count(|m| m.costs.map(|c| c.barriers_elided)), Zero, Exact),
        col("read_stall_cycles", Count(|m| m.cache.map(|c| c.read_stall_cycles)), Error, Exact),
        col("write_stall_cycles", Count(|m| m.cache.map(|c| c.write_stall_cycles)), Error, Exact),
        col("checksum", Count(|m| Some(m.checksum)), Error, Exact),
    ]
};

// ----------------------------------------------------------------------
// Results comparison
// ----------------------------------------------------------------------

/// Outcome of a document comparison, split by severity.
///
/// `errors` gate a CI run; `warnings` are advisory context. The split
/// exists for multi-core reruns: wall-clock fields are only comparable
/// between documents produced with the same `workers` fan-out, so time
/// drift between documents that *disagree* on `workers` is degraded to a
/// warning (schema v3; the deterministic counters stay hard errors —
/// they are worker-count-independent by construction).
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Differences that must fail the gate.
    pub errors: Vec<String>,
    /// Advisory differences (e.g. time drift across unequal `workers`).
    pub warnings: Vec<String>,
}

impl Comparison {
    /// `true` when nothing gates: the documents agree on everything that
    /// is comparable.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Compares two parsed results documents, one loop over [`COLUMNS`] per
/// row. `tolerance_pct` bounds the allowed relative drift of time cells
/// (e.g. `25.0` = new may be up to 25 % slower *or faster* than old);
/// `ignore_time` skips every time cell.
pub fn compare_docs_full(
    old: &Json,
    new: &Json,
    tolerance_pct: f64,
    ignore_time: bool,
) -> Comparison {
    let mut cmp = Comparison::default();
    let version = |doc: &Json| doc.get("schema_version").and_then(Json::as_num);
    match (version(old), version(new)) {
        (Some(a), Some(b)) if a == b => {}
        (a, b) => {
            cmp.errors.push(format!("schema_version mismatch: old {a:?}, new {b:?}"));
            return cmp; // shapes may differ arbitrarily across versions
        }
    }
    if old.get("bench").and_then(Json::as_str) != new.get("bench").and_then(Json::as_str) {
        cmp.errors.push("bench name mismatch".to_string());
    }
    // Documents produced with different fan-outs have incomparable wall
    // clocks: downgrade time drift to warnings. A document without
    // `par_workers` predates the column; that alone is not worth a
    // warning (its row cells are missing-as-equal).
    let mut differs = |key: &str, what: &str| match (
        old.get(key).and_then(Json::as_num),
        new.get(key).and_then(Json::as_num),
    ) {
        (Some(a), Some(b)) if a != b => {
            cmp.warnings
                .push(format!("{key} differ (old {a}, new {b}): {what} compared advisorily"));
            true
        }
        _ => false,
    };
    let workers_differ = differs("workers", "time fields");
    let par_workers_differ = differs("par_workers", "parallel time fields") || workers_differ;
    let (Some(old_rows), Some(new_rows)) = (
        old.get("rows").and_then(Json::as_arr),
        new.get("rows").and_then(Json::as_arr),
    ) else {
        cmp.errors.push("missing rows array".to_string());
        return cmp;
    };
    if old_rows.len() != new_rows.len() {
        cmp.errors.push(format!("row count: old {}, new {}", old_rows.len(), new_rows.len()));
        return cmp;
    }
    for (i, (o, n)) in old_rows.iter().zip(new_rows).enumerate() {
        let identity = |row: &Json| {
            format!(
                "{}/{}",
                row.get("workload").and_then(Json::as_str).unwrap_or("?"),
                row.get("allocator").and_then(Json::as_str).unwrap_or("?"),
            )
        };
        let label = identity(o);
        if label != identity(n) {
            cmp.errors.push(format!("row {i}: identity changed, {label} -> {}", identity(n)));
            continue;
        }
        for c in COLUMNS {
            if ignore_time && c.drift != Drift::Exact {
                continue;
            }
            let (a, b) = match (o.get(c.name), n.get(c.name), c.missing) {
                (Some(a), Some(b), _) => (a, b),
                (None, None, _) | (_, _, Missing::Equal) => continue,
                (a, b, Missing::Zero) => (a.unwrap_or(&Json::Int(0)), b.unwrap_or(&Json::Int(0))),
                (a, b, Missing::Error) => {
                    cmp.errors.push(format!(
                        "row {i} ({label}): {} present in one document only (old {}, new {})",
                        c.name,
                        show(a),
                        show(b)
                    ));
                    continue;
                }
            };
            if c.drift == Drift::Exact {
                if a != b {
                    cmp.errors.push(format!(
                        "row {i} ({label}): {} changed, old {}, new {}",
                        c.name,
                        show(Some(a)),
                        show(Some(b))
                    ));
                }
                continue;
            }
            let (Some(a), Some(b)) = (a.as_num(), b.as_num()) else { continue };
            let rel = (b - a).abs() / a.max(1e-9) * 100.0;
            // Cells under one unit are all noise.
            if (a < 1.0 && b < 1.0) || rel <= tolerance_pct {
                continue;
            }
            let unit = &c.name[c.name.len() - 2..]; // time columns end in _ms or _us
            let diff = format!(
                "row {i} ({label}): {} moved {rel:.1}% (old {a:.3} {unit}, new {b:.3} {unit}), \
                 tolerance {tolerance_pct}%",
                c.name
            );
            match c.drift {
                Drift::Time if !workers_differ => cmp.errors.push(diff),
                Drift::ParTime if !par_workers_differ => cmp.errors.push(diff),
                Drift::Warn => {
                    cmp.warnings.push(format!("{diff} — advisory, tail latency never gates"))
                }
                _ => cmp.warnings.push(diff),
            }
        }
    }
    cmp
}

/// A cell as the comparator's messages print it.
fn show(cell: Option<&Json>) -> String {
    match cell {
        Some(Json::Int(n)) => n.to_string(),
        Some(Json::Num(n)) => n.to_string(),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{results_json, run_matrix, Job, RESULTS_SCHEMA_VERSION};
    use workloads::{RegionKind, Workload};

    #[test]
    fn parses_its_own_output() {
        let rows = run_matrix(&[Job::Region(Workload::Tile, RegionKind::Safe)], 1, false);
        let doc = Json::parse(&results_json("fig_test", &rows, None, &[])).expect("own output parses");
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_num),
            Some(RESULTS_SCHEMA_VERSION as f64)
        );
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("fig_test"));
        let parsed_rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(parsed_rows.len(), 1);
        assert_eq!(parsed_rows[0].get("workload").and_then(Json::as_str), Some("tile"));
        assert!(parsed_rows[0].get("checksum").and_then(Json::as_num).is_some());
        // And the document agrees with itself.
        assert!(compare_docs_full(&doc, &doc, 25.0, false).errors.is_empty());
    }

    #[test]
    fn parser_handles_the_small_stuff() {
        let doc = Json::parse(r#"{"a": [1, -2.5, true, null], "b": "x\"y"}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(4));
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x\"y"));
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn strings_keep_multibyte_characters() {
        let doc = Json::parse(r#"{"note": "gap — 5%", "café": "a\"é"}"#).unwrap();
        assert_eq!(doc.get("note").and_then(Json::as_str), Some("gap — 5%"));
        assert_eq!(doc.get("café").and_then(Json::as_str), Some("a\"é"));
    }

    #[test]
    fn checksums_compare_on_all_64_bits() {
        // Both checksums round to the same f64; as integers they differ.
        let doc = |checksum: &str| {
            Json::parse(&format!(
                r#"{{"schema_version": 3, "bench": "fig8", "commit": "a", "workers": 1,
                    "host_cores": 1, "rows": [
                    {{"workload": "tile", "allocator": "Lea", "total_ms": 100.0,
                     "mem_ms": 10.0, "os_pages": 7, "checksum": {checksum}}}]}}"#
            ))
            .unwrap()
        };
        let (old, new) = (doc("7615551339661593228"), doc("7615551339661593229"));
        assert!(compare_docs_full(&old, &old, 25.0, false).is_ok());
        let errors = compare_docs_full(&old, &new, 25.0, true).errors;
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].contains("checksum changed, old 7615551339661593228, new 7615551339661593229"),
            "{}",
            errors[0]
        );
    }

    #[test]
    fn flags_shape_and_perf_regressions() {
        let old = Json::parse(
            r#"{"schema_version": 3, "bench": "fig8", "commit": "a", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "tile", "allocator": "Lea", "total_ms": 100.0,
                 "mem_ms": 10.0, "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();

        // Same doc, slower but inside tolerance: clean.
        let ok = Json::parse(
            r#"{"schema_version": 3, "bench": "fig8", "commit": "b", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "tile", "allocator": "Lea", "total_ms": 110.0,
                 "mem_ms": 11.0, "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        assert!(compare_docs_full(&old, &ok, 25.0, false).errors.is_empty());

        // 50% slower: flagged, unless time is ignored.
        let slow = Json::parse(
            r#"{"schema_version": 3, "bench": "fig8", "commit": "c", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "tile", "allocator": "Lea", "total_ms": 150.0,
                 "mem_ms": 10.0, "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        let diffs = compare_docs_full(&old, &slow, 25.0, false).errors;
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("total_ms moved 50.0%"), "got: {}", diffs[0]);
        assert!(compare_docs_full(&old, &slow, 25.0, true).errors.is_empty());

        // A changed deterministic counter is always an error.
        let wrong = Json::parse(
            r#"{"schema_version": 3, "bench": "fig8", "commit": "d", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "tile", "allocator": "Lea", "total_ms": 100.0,
                 "mem_ms": 10.0, "os_pages": 8, "checksum": 5}]}"#,
        )
        .unwrap();
        assert!(compare_docs_full(&old, &wrong, 25.0, true).errors[0].contains("os_pages"));

        // Schema version gates everything else.
        let v1 = Json::parse(r#"{"schema_version": 1, "rows": []}"#).unwrap();
        assert!(compare_docs_full(&old, &v1, 25.0, false).errors[0].contains("schema_version"));
    }

    #[test]
    fn missing_barriers_elided_reads_as_zero() {
        // A document recorded before the elision column existed...
        let old = Json::parse(
            r#"{"schema_version": 3, "bench": "fig11", "commit": "a", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "tile", "allocator": "Safe", "total_ms": 100.0,
                 "mem_ms": 10.0, "os_pages": 7, "safety_instrs": 42, "checksum": 5}]}"#,
        )
        .unwrap();
        // ...compares clean against a rerun that writes an explicit 0.
        let zero = Json::parse(
            r#"{"schema_version": 3, "bench": "fig11", "commit": "b", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "tile", "allocator": "Safe", "total_ms": 100.0,
                 "mem_ms": 10.0, "os_pages": 7, "safety_instrs": 42,
                 "barriers_elided": 0, "checksum": 5}]}"#,
        )
        .unwrap();
        assert!(compare_docs_full(&old, &zero, 25.0, false).errors.is_empty());

        // But a rerun that actually elided barriers is a real difference.
        let elided = Json::parse(
            r#"{"schema_version": 3, "bench": "fig11", "commit": "c", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "tile", "allocator": "Safe", "total_ms": 100.0,
                 "mem_ms": 10.0, "os_pages": 7, "safety_instrs": 42,
                 "barriers_elided": 9, "checksum": 5}]}"#,
        )
        .unwrap();
        assert!(compare_docs_full(&old, &elided, 25.0, false).errors[0].contains("barriers_elided"));
    }

    #[test]
    fn differing_workers_downgrade_time_drift_to_warnings() {
        let single = Json::parse(
            r#"{"schema_version": 3, "bench": "fig9", "commit": "a", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "tile", "allocator": "Lea", "total_ms": 100.0,
                 "mem_ms": 10.0, "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        // A 4-worker rerun: wall clock halves (incomparable), counters equal.
        let multi = Json::parse(
            r#"{"schema_version": 3, "bench": "fig9", "commit": "b", "workers": 4,
                "host_cores": 8, "rows": [
                {"workload": "tile", "allocator": "Lea", "total_ms": 50.0,
                 "mem_ms": 5.0, "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        let cmp = compare_docs_full(&single, &multi, 25.0, false);
        assert!(cmp.is_ok(), "time drift across workers must not gate: {:?}", cmp.errors);
        assert!(cmp.warnings.iter().any(|w| w.contains("workers differ")));
        assert!(
            cmp.warnings.iter().any(|w| w.contains("total_ms moved")),
            "drift still reported, as a warning: {:?}",
            cmp.warnings
        );

        // Same workers, same drift: a hard error as before.
        let multi_same_workers = Json::parse(
            r#"{"schema_version": 3, "bench": "fig9", "commit": "c", "workers": 1,
                "host_cores": 8, "rows": [
                {"workload": "tile", "allocator": "Lea", "total_ms": 50.0,
                 "mem_ms": 5.0, "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        let cmp = compare_docs_full(&single, &multi_same_workers, 25.0, false);
        assert!(!cmp.is_ok(), "same-workers drift must still gate");

        // A counter change across differing workers is still an error:
        // simulated counters are worker-count-independent.
        let multi_wrong = Json::parse(
            r#"{"schema_version": 3, "bench": "fig9", "commit": "d", "workers": 4,
                "host_cores": 8, "rows": [
                {"workload": "tile", "allocator": "Lea", "total_ms": 50.0,
                 "mem_ms": 5.0, "os_pages": 9, "checksum": 5}]}"#,
        )
        .unwrap();
        let cmp = compare_docs_full(&single, &multi_wrong, 25.0, false);
        assert!(cmp.errors.iter().any(|e| e.contains("os_pages")));
    }

    #[test]
    fn par_column_is_missing_as_equal_for_old_docs() {
        // A document recorded before the parallel pass existed...
        let old = Json::parse(
            r#"{"schema_version": 3, "bench": "fig9", "commit": "a", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "tile", "allocator": "Lea", "total_ms": 100.0,
                 "mem_ms": 10.0, "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        // ...compares clean against a rerun carrying the new column, in
        // either direction, with no warnings about it.
        let with_par = Json::parse(
            r#"{"schema_version": 3, "bench": "fig9", "commit": "b", "workers": 1,
                "host_cores": 1, "par_workers": 3, "rows": [
                {"workload": "tile", "allocator": "Lea", "total_ms": 100.0,
                 "mem_ms": 10.0, "par_total_ms": 60.0, "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        let cmp = compare_docs_full(&old, &with_par, 25.0, false);
        assert!(cmp.is_ok(), "new column must not gate old docs: {:?}", cmp.errors);
        assert!(cmp.warnings.is_empty(), "no advisory noise either: {:?}", cmp.warnings);
        let cmp = compare_docs_full(&with_par, &old, 25.0, false);
        assert!(cmp.is_ok(), "and symmetrically: {:?}", cmp.errors);
    }

    #[test]
    fn par_time_drift_gates_only_under_equal_par_workers() {
        let base = Json::parse(
            r#"{"schema_version": 3, "bench": "fig9", "commit": "a", "workers": 1,
                "host_cores": 1, "par_workers": 3, "rows": [
                {"workload": "tile", "allocator": "Lea", "total_ms": 100.0,
                 "mem_ms": 10.0, "par_total_ms": 60.0, "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();

        // Same par fan-out, 2x slower par pass: hard error.
        let slow = Json::parse(
            r#"{"schema_version": 3, "bench": "fig9", "commit": "b", "workers": 1,
                "host_cores": 1, "par_workers": 3, "rows": [
                {"workload": "tile", "allocator": "Lea", "total_ms": 100.0,
                 "mem_ms": 10.0, "par_total_ms": 120.0, "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        let cmp = compare_docs_full(&base, &slow, 25.0, false);
        assert!(
            cmp.errors.iter().any(|e| e.contains("par_total_ms moved")),
            "same-par_workers drift must gate: {:?}",
            cmp.errors
        );
        // ...unless time is ignored.
        assert!(compare_docs_full(&base, &slow, 25.0, true).errors.is_empty());

        // Different par fan-out: the same drift is advisory.
        let wider = Json::parse(
            r#"{"schema_version": 3, "bench": "fig9", "commit": "c", "workers": 1,
                "host_cores": 8, "par_workers": 8, "rows": [
                {"workload": "tile", "allocator": "Lea", "total_ms": 100.0,
                 "mem_ms": 10.0, "par_total_ms": 120.0, "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        let cmp = compare_docs_full(&base, &wider, 25.0, false);
        assert!(cmp.is_ok(), "differing par_workers must not gate time: {:?}", cmp.errors);
        assert!(cmp.warnings.iter().any(|w| w.contains("par_workers differ")));
        assert!(
            cmp.warnings.iter().any(|w| w.contains("par_total_ms moved")),
            "drift still reported, as a warning: {:?}",
            cmp.warnings
        );
    }

    #[test]
    fn latency_columns_are_missing_as_equal_and_drift_is_only_advisory() {
        // A document recorded before the latency columns existed...
        let old = Json::parse(
            r#"{"schema_version": 3, "bench": "server", "commit": "a", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "server", "allocator": "region", "total_ms": 100.0,
                 "mem_ms": 10.0, "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        // ...compares clean against a rerun carrying them, both ways,
        // with no advisory noise.
        let with_lat = Json::parse(
            r#"{"schema_version": 3, "bench": "server", "commit": "b", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "server", "allocator": "region", "total_ms": 100.0,
                 "mem_ms": 10.0, "p50_us": 0.9, "p99_us": 250.0, "p999_us": 400.0,
                 "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        let cmp = compare_docs_full(&old, &with_lat, 25.0, false);
        assert!(cmp.is_ok(), "latency columns must not gate old docs: {:?}", cmp.errors);
        assert!(cmp.warnings.is_empty(), "no advisory noise either: {:?}", cmp.warnings);
        let cmp = compare_docs_full(&with_lat, &old, 25.0, false);
        assert!(cmp.is_ok(), "and symmetrically: {:?}", cmp.errors);

        // 2x tail-latency drift between two same-shape documents: a
        // warning, never an error — tail quantiles are scheduling noise.
        let slow = Json::parse(
            r#"{"schema_version": 3, "bench": "server", "commit": "c", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "server", "allocator": "region", "total_ms": 100.0,
                 "mem_ms": 10.0, "p50_us": 0.9, "p99_us": 500.0, "p999_us": 900.0,
                 "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        let cmp = compare_docs_full(&with_lat, &slow, 25.0, false);
        assert!(cmp.is_ok(), "latency drift must never gate: {:?}", cmp.errors);
        assert!(
            cmp.warnings.iter().any(|w| w.contains("p99_us moved")),
            "p99 drift reported as a warning: {:?}",
            cmp.warnings
        );
        assert!(
            cmp.warnings.iter().any(|w| w.contains("p999_us moved")),
            "p999 drift reported as a warning: {:?}",
            cmp.warnings
        );
        // Sub-microsecond p50 cells are noise-skipped, and ignore_time
        // silences the columns entirely.
        assert!(!cmp.warnings.iter().any(|w| w.contains("p50_us")), "{:?}", cmp.warnings);
        let cmp = compare_docs_full(&with_lat, &slow, 25.0, true);
        assert!(cmp.is_ok() && cmp.warnings.is_empty(), "{:?}", cmp.warnings);
    }

    #[test]
    fn pause_columns_are_missing_as_equal_and_drift_is_only_advisory() {
        // A latency-bearing document recorded before the deletion-pause
        // columns existed...
        let old = Json::parse(
            r#"{"schema_version": 3, "bench": "server", "commit": "a", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "server", "allocator": "region", "total_ms": 100.0,
                 "mem_ms": 10.0, "p50_us": 0.9, "p99_us": 250.0, "p999_us": 400.0,
                 "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        // ...compares clean against a rerun carrying them, both ways.
        let with_pause = Json::parse(
            r#"{"schema_version": 3, "bench": "server", "commit": "b", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "server", "allocator": "region", "total_ms": 100.0,
                 "mem_ms": 10.0, "p50_us": 0.9, "p99_us": 250.0, "p999_us": 400.0,
                 "pause_p50_us": 2.0, "pause_p99_us": 40.0,
                 "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        let cmp = compare_docs_full(&old, &with_pause, 25.0, false);
        assert!(cmp.is_ok(), "pause columns must not gate old docs: {:?}", cmp.errors);
        assert!(cmp.warnings.is_empty(), "no advisory noise either: {:?}", cmp.warnings);
        let cmp = compare_docs_full(&with_pause, &old, 25.0, false);
        assert!(cmp.is_ok(), "and symmetrically: {:?}", cmp.errors);

        // Pause drift between same-shape documents: a warning, never an
        // error — pauses are wall clock, the gate is the books.
        let slow = Json::parse(
            r#"{"schema_version": 3, "bench": "server", "commit": "c", "workers": 1,
                "host_cores": 1, "rows": [
                {"workload": "server", "allocator": "region", "total_ms": 100.0,
                 "mem_ms": 10.0, "p50_us": 0.9, "p99_us": 250.0, "p999_us": 400.0,
                 "pause_p50_us": 2.0, "pause_p99_us": 95.0,
                 "os_pages": 7, "checksum": 5}]}"#,
        )
        .unwrap();
        let cmp = compare_docs_full(&with_pause, &slow, 25.0, false);
        assert!(cmp.is_ok(), "pause drift must never gate: {:?}", cmp.errors);
        assert!(
            cmp.warnings.iter().any(|w| w.contains("pause_p99_us moved")),
            "pause_p99 drift reported as a warning: {:?}",
            cmp.warnings
        );
        let cmp = compare_docs_full(&with_pause, &slow, 25.0, true);
        assert!(cmp.is_ok() && cmp.warnings.is_empty(), "{:?}", cmp.warnings);
    }
}
