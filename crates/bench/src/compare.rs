//! Baseline comparison for the CI perf-regression gate.
//!
//! The perf-snapshot CI job writes one `BENCH_*.json` report per harness
//! mode (see [`crate::JsonReport`]); committed baselines live in
//! `bench/baselines/`.  The `table_harness compare` subcommand parses both
//! documents with the minimal JSON reader below (the offline environment has
//! no serde), matches rows positionally (reports are deterministic), and
//! flags:
//!
//! * any **integer** field that changed at all — launch, rendezvous, job and
//!   monomial counts are deterministic, so any drift is a structural change
//!   that needs a baseline update;
//! * any **timing** field (`*_ms`) that regressed beyond the tolerance —
//!   timings are machine-dependent, so the gate only fails when the current
//!   value exceeds `baseline * (1 + tolerance_pct / 100)` by more than an
//!   absolute 5 ms floor (sub-millisecond rows are below the timing
//!   resolution of a shared CI runner).
//!
//! Timing improvements and in-tolerance noise pass; a failing gate is
//! overridden by regenerating the baseline or by the documented CI label.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// A parsed JSON value (the subset [`crate::JsonReport`] emits).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string.
    Text(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in document order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Text(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a JSON document (objects, arrays, strings, numbers, booleans and
/// null; no trailing garbage).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {pos}",
            char::from(c),
            pos = *pos
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Text(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of document".to_string()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Number)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("invalid \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            c => {
                // Copy the raw UTF-8 byte run of this character.
                let ch_len = utf8_len(c);
                let s = std::str::from_utf8(&bytes[*pos..*pos + ch_len])
                    .map_err(|_| format!("invalid utf-8 at byte {}", *pos))?;
                out.push_str(s);
                *pos += ch_len;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// One detected regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Row index and identity (the row's string fields).
    pub row: String,
    /// The offending field.
    pub field: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Human-readable reason.
    pub reason: String,
}

/// The outcome of comparing a current report against a baseline.
#[derive(Debug, Clone, Default)]
pub struct CompareSummary {
    /// Fields checked in total.
    pub checked: usize,
    /// Timing fields within tolerance (including improvements).
    pub passed: usize,
    /// Detected regressions, in row order.
    pub regressions: Vec<Regression>,
}

impl CompareSummary {
    /// True when no regression was found.
    pub fn is_pass(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the summary as a report block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "checked {} fields: {} ok, {} regressed",
            self.checked,
            self.passed,
            self.regressions.len()
        );
        for r in &self.regressions {
            let _ = writeln!(
                out,
                "  REGRESSION {} / {}: baseline {} -> current {} ({})",
                r.row, r.field, r.baseline, r.current, r.reason
            );
        }
        out
    }
}

/// True for fields whose values are machine-dependent timings — higher is
/// worse, compared with tolerance.  Everything else numeric is treated as a
/// deterministic count and compared exactly, except [`is_ignored_field`].
fn is_timing_field(name: &str) -> bool {
    name.ends_with("_ms")
}

/// Derived ratio fields (higher is *better*, and machine-dependent): not
/// gated at all — the underlying `*_ms` fields carry the signal, and an
/// exact or higher-is-worse comparison would both misfire on them.
fn is_ignored_field(name: &str) -> bool {
    name == "speedup" || name.ends_with("_speedup")
}

/// Identity of a row: its string-valued fields plus the standard integer
/// identity fields, for readable diagnostics.
fn row_identity(row: &Json, index: usize) -> String {
    let mut parts = vec![format!("row {index}")];
    if let Json::Object(fields) = row {
        for (k, v) in fields {
            match v {
                Json::Text(s) => parts.push(format!("{k}={s}")),
                Json::Number(x) if matches!(k.as_str(), "degree" | "batch" | "equations") => {
                    parts.push(format!("{k}={x}"))
                }
                _ => {}
            }
        }
    }
    parts.join(" ")
}

/// Compares a current [`crate::JsonReport`] document against a baseline.
///
/// Rows are matched positionally (the harness emits them deterministically);
/// a row-count or command mismatch is reported as a regression of its own
/// (the baseline must be regenerated when the report schema changes).
/// `tolerance_pct` applies to `*_ms` timing fields; deterministic integer
/// fields must match exactly.  Timing fields missing from either side are
/// ignored; count fields present in the baseline must exist in the current
/// report.
pub fn compare_reports(
    baseline: &str,
    current: &str,
    tolerance_pct: f64,
) -> Result<CompareSummary, String> {
    let base = parse_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur = parse_json(current).map_err(|e| format!("current: {e}"))?;
    let mut summary = CompareSummary::default();
    let base_cmd = base.get("command").and_then(Json::as_str).unwrap_or("");
    let cur_cmd = cur.get("command").and_then(Json::as_str).unwrap_or("");
    if base_cmd != cur_cmd {
        return Err(format!(
            "command mismatch: baseline '{base_cmd}' vs current '{cur_cmd}'"
        ));
    }
    let base_rows = base
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("baseline has no rows array")?;
    let cur_rows = cur
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("current has no rows array")?;
    if base_rows.len() != cur_rows.len() {
        return Err(format!(
            "row count mismatch: baseline {} vs current {} (regenerate the baseline)",
            base_rows.len(),
            cur_rows.len()
        ));
    }
    for (i, (b_row, c_row)) in base_rows.iter().zip(cur_rows.iter()).enumerate() {
        let identity = row_identity(b_row, i);
        let Json::Object(b_fields) = b_row else {
            return Err(format!("baseline row {i} is not an object"));
        };
        let keys: BTreeSet<&String> = b_fields.iter().map(|(k, _)| k).collect();
        for key in keys {
            if is_ignored_field(key) {
                continue;
            }
            let Some(b_val) = b_row.get(key).and_then(Json::as_number) else {
                continue; // identity / text field
            };
            let c_val = c_row.get(key).and_then(Json::as_number);
            summary.checked += 1;
            if is_timing_field(key) {
                let Some(c_val) = c_val else {
                    summary.passed += 1; // timing dropped from the report
                    continue;
                };
                // Percentage tolerance plus an absolute 5 ms floor:
                // sub-millisecond rows are below the timing resolution of a
                // shared CI runner and must not flap the gate.
                let limit = (b_val * (1.0 + tolerance_pct / 100.0)).max(b_val + 5.0);
                if c_val > limit {
                    summary.regressions.push(Regression {
                        row: identity.clone(),
                        field: key.clone(),
                        baseline: b_val,
                        current: c_val,
                        reason: format!(
                            "exceeds baseline by more than {tolerance_pct}% (limit {limit:.3})"
                        ),
                    });
                } else {
                    summary.passed += 1;
                }
            } else {
                // Deterministic count: exact match required.
                match c_val {
                    Some(c_val) if c_val == b_val => summary.passed += 1,
                    Some(c_val) => summary.regressions.push(Regression {
                        row: identity.clone(),
                        field: key.clone(),
                        baseline: b_val,
                        current: c_val,
                        reason: "deterministic count changed (regenerate the baseline if \
                                 intentional)"
                            .to_string(),
                    }),
                    None => summary.regressions.push(Regression {
                        row: identity.clone(),
                        field: key.clone(),
                        baseline: b_val,
                        current: f64::NAN,
                        reason: "field missing from the current report".to_string(),
                    }),
                }
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{"command": "engine", "rows": [
        {"poly": "p1", "degree": 8, "compile_ms": 10.0, "mean_eval_ms": 5.0, "rendezvous_per_eval": 1},
        {"poly": "p2", "degree": 8, "compile_ms": 20.0, "mean_eval_ms": 9.0, "rendezvous_per_eval": 1}]}"#;

    #[test]
    fn parser_round_trips_a_report() {
        let doc = parse_json(BASE).unwrap();
        assert_eq!(doc.get("command").and_then(Json::as_str), Some("engine"));
        let rows = doc.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("poly").and_then(Json::as_str), Some("p1"));
        assert_eq!(
            rows[1].get("mean_eval_ms").and_then(Json::as_number),
            Some(9.0)
        );
    }

    #[test]
    fn parser_handles_escapes_null_and_nesting() {
        let doc =
            parse_json(r#"{"a": "x\"y\\z\nw", "b": null, "c": [1, -2.5e1, true, false]}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_str), Some("x\"y\\z\nw"));
        assert_eq!(doc.get("b"), Some(&Json::Null));
        let c = doc.get("c").and_then(Json::as_array).unwrap();
        assert_eq!(c[1].as_number(), Some(-25.0));
        assert_eq!(c[2], Json::Bool(true));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("nope").is_err());
    }

    #[test]
    fn identical_reports_pass() {
        let summary = compare_reports(BASE, BASE, 10.0).unwrap();
        assert!(summary.is_pass());
        assert_eq!(summary.checked, summary.passed);
    }

    #[test]
    fn timing_within_tolerance_and_improvements_pass() {
        let current = BASE
            .replace("\"compile_ms\": 10.0", "\"compile_ms\": 10.9")
            .replace("\"mean_eval_ms\": 5.0", "\"mean_eval_ms\": 1.0");
        let summary = compare_reports(BASE, &current, 10.0).unwrap();
        assert!(summary.is_pass(), "{}", summary.render());
    }

    #[test]
    fn timing_regression_beyond_tolerance_fails() {
        let current = BASE.replace("\"mean_eval_ms\": 5.0", "\"mean_eval_ms\": 50.0");
        let summary = compare_reports(BASE, &current, 25.0).unwrap();
        assert!(!summary.is_pass());
        assert_eq!(summary.regressions.len(), 1);
        assert_eq!(summary.regressions[0].field, "mean_eval_ms");
        assert!(summary.regressions[0].row.contains("p1"));
    }

    #[test]
    fn deterministic_count_drift_fails_regardless_of_tolerance() {
        let current = BASE.replace(
            "\"rendezvous_per_eval\": 1}]",
            "\"rendezvous_per_eval\": 3}]",
        );
        let summary = compare_reports(BASE, &current, 1000.0).unwrap();
        assert!(!summary.is_pass());
        assert_eq!(summary.regressions[0].field, "rendezvous_per_eval");
    }

    #[test]
    fn speedup_ratio_fields_are_not_gated_in_either_direction() {
        // Higher-is-better ratios carry no independent signal (the *_ms
        // fields are gated); neither an improvement nor a drop may trip the
        // gate, and exact matching must not apply to them either.
        let base = r#"{"command": "engine", "rows": [{"poly": "p1", "compile_ms": 10.0, "speedup": 1.4}]}"#;
        let better = base.replace("1.4", "7.0");
        let worse = base.replace("1.4", "0.1");
        assert!(compare_reports(base, &better, 10.0).unwrap().is_pass());
        assert!(compare_reports(base, &worse, 10.0).unwrap().is_pass());
    }

    #[test]
    fn row_count_and_command_mismatches_are_errors() {
        let fewer = r#"{"command": "engine", "rows": [{"poly": "p1"}]}"#;
        assert!(compare_reports(BASE, fewer, 10.0).is_err());
        let other = BASE.replace("\"command\": \"engine\"", "\"command\": \"batch\"");
        assert!(compare_reports(BASE, &other, 10.0).is_err());
    }

    #[test]
    fn missing_count_field_fails() {
        let current = BASE.replace(", \"rendezvous_per_eval\": 1}]", "}]");
        let summary = compare_reports(BASE, &current, 10.0).unwrap();
        assert!(!summary.is_pass());
        assert!(summary.regressions[0].reason.contains("missing"));
    }
}
