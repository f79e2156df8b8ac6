//! Schema validation for the machine-readable benchmark snapshot.
//!
//! `bench_core` emits `BENCH_core.json` so successive changes leave a
//! performance trajectory that scripts can diff. A snapshot whose *shape*
//! silently drifts (renamed field, string where a number belongs, empty
//! backend roster) breaks every downstream diff without failing anything,
//! so the emitter validates its own output right after writing, and CI
//! runs the same check on its `--quick` smoke snapshots.
//!
//! The current shape, schema [`SCHEMA_VERSION`]:
//!
//! - top level: `schema`, `n_items` (the roster's item count), `quick`,
//!   `unit` (always `"ops_per_sec"`);
//! - `fifo_window` and `decayed`: the two update-stream replays on HALT,
//!   each with its stream parameter (`window`, `scale_every`), update
//!   `ops_per_sec` and initial-load `setup_ms`;
//! - `bulk_load`: `from_weights` items/s at `n_small` = 2^14 and `n_large`
//!   = 2^20, the per-item insert loop's rate at 2^20, their ratio
//!   (`speedup`), and `rebuild_ms` for one shrink-compaction rebuild;
//! - `snapshot`: at `n` = 2^20, the image size in `bytes`, `save_ms`,
//!   `load_ms` and `load_items_per_sec`, and `recover_ms` for replaying a
//!   `journal_tail`-delta durable log on top of the image;
//! - `scaling`: one `points` entry per size with op rates and arena space
//!   telemetry, and the smallest-to-largest `flatness` cost ratios;
//! - `backends`: one row per roster backend with the rates in
//!   [`BACKEND_RATE_FIELDS`] and `space_words`.
//!
//! The workspace is offline (no serde), so this carries a deliberately tiny
//! recursive-descent JSON reader: objects, arrays, strings (with escapes),
//! numbers, booleans, null — exactly what the snapshot needs.

/// A parsed JSON value (minimal — only what snapshot validation needs).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys kept — validation rejects
    /// none of them, last occurrence wins for lookups).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, nothing
/// else). Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        // Surrogates are out of scope for snapshot names.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            Some(&c) => {
                // Multi-byte UTF-8 passes through byte-wise.
                let start = *pos;
                let len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = b.get(start..start + len).ok_or("truncated UTF-8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| "bad UTF-8".to_string())?);
                *pos += len;
            }
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
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
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

/// The `schema` version `bench_core` emits and [`validate_bench_core`]
/// accepts.
pub const SCHEMA_VERSION: u32 = 9;

/// Per-backend numeric throughput fields of every `backends[]` row.
pub const BACKEND_RATE_FIELDS: [&str; 7] =
    ["insert", "churn_pair", "delete", "set_weight", "query_mu16", "query_batch16", "mixed_round"];

/// Requires `obj[field]` to be a finite number with `v ≥ min`.
fn require_num(obj: &Json, field: &str, min: f64, path: &str) -> Result<f64, String> {
    let v = obj
        .get(field)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{path}: missing numeric '{field}'"))?;
    if !v.is_finite() || v < min {
        return Err(format!("{path}: '{field}' = {v} out of range"));
    }
    Ok(v)
}

/// Requires `obj[field]` to be an integer with `v ≥ min`.
fn require_int(obj: &Json, field: &str, min: f64, path: &str) -> Result<(), String> {
    let v = require_num(obj, field, min, path)?;
    if v.fract() != 0.0 {
        return Err(format!("{path}: '{field}' = {v} is not an integer"));
    }
    Ok(())
}

/// Requires `doc[key]` to be an object.
fn require_obj<'a>(doc: &'a Json, key: &str, path: &str) -> Result<&'a Json, String> {
    match doc.get(key) {
        Some(obj @ Json::Obj(_)) => Ok(obj),
        _ => Err(format!("{path}: missing object '{key}'")),
    }
}

/// Requires `doc[key]` to be a boolean.
fn require_bool(doc: &Json, key: &str, path: &str) -> Result<(), String> {
    match doc.get(key) {
        Some(Json::Bool(_)) => Ok(()),
        _ => Err(format!("{path}: missing boolean '{key}'")),
    }
}

/// Requires `doc[key]` to be a non-empty array and returns its items.
fn require_rows<'a>(doc: &'a Json, key: &str, path: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        Some(Json::Arr(rows)) if !rows.is_empty() => Ok(rows),
        Some(Json::Arr(_)) => Err(format!("{path}: '{key}' is empty")),
        _ => Err(format!("{path}: missing array '{key}'")),
    }
}

/// Validates the `scaling.points` array: per point an integer `n ≥ 1`,
/// finite non-negative op rates, and integer space telemetry.
fn validate_scaling_points(scaling: &Json) -> Result<(), String> {
    for (i, pt) in require_rows(scaling, "points", "scaling")?.iter().enumerate() {
        let p = format!("scaling.points[{i}]");
        require_int(pt, "n", 1.0, &p)?;
        for field in ["insert_ops", "churn_pair_ops", "query_mu16_ops", "bulk_items_per_sec"] {
            require_num(pt, field, 0.0, &p)?;
        }
        for field in ["space_words", "live_words", "parked_words", "slack_words"] {
            require_int(pt, field, 0.0, &p)?;
        }
    }
    Ok(())
}

/// Validates a `BENCH_core.json` document against schema
/// [`SCHEMA_VERSION`] (the shape is listed in the module docs). Counts and
/// sizes must be integers, every rate, time and ratio a finite non-negative
/// number. Unknown extra fields are allowed; missing or mistyped required
/// fields are errors naming the offending path.
pub fn validate_bench_core(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    let top = "top level";
    let schema = require_num(&doc, "schema", 0.0, top)?;
    if schema != f64::from(SCHEMA_VERSION) {
        return Err(format!("schema version {schema} is not {SCHEMA_VERSION}"));
    }
    require_int(&doc, "n_items", 1.0, top)?;
    require_bool(&doc, "quick", top)?;
    if doc.get("unit").and_then(Json::as_str) != Some("ops_per_sec") {
        return Err("'unit' must be \"ops_per_sec\"".into());
    }
    for (block, param) in [("fifo_window", "window"), ("decayed", "scale_every")] {
        let b = require_obj(&doc, block, top)?;
        require_int(b, param, 1.0, block)?;
        require_num(b, "ops_per_sec", 0.0, block)?;
        require_num(b, "setup_ms", 0.0, block)?;
    }
    let bl = require_obj(&doc, "bulk_load", top)?;
    require_int(bl, "n_small", 1.0, "bulk_load")?;
    require_int(bl, "n_large", 1.0, "bulk_load")?;
    for field in [
        "small_items_per_sec",
        "large_items_per_sec",
        "per_op_items_per_sec",
        "speedup",
        "rebuild_ms",
    ] {
        require_num(bl, field, 0.0, "bulk_load")?;
    }
    let sn = require_obj(&doc, "snapshot", top)?;
    require_int(sn, "n", 1.0, "snapshot")?;
    require_int(sn, "bytes", 1.0, "snapshot")?;
    require_int(sn, "journal_tail", 0.0, "snapshot")?;
    for field in ["save_ms", "load_ms", "recover_ms", "load_items_per_sec"] {
        require_num(sn, field, 0.0, "snapshot")?;
    }
    let sc = require_obj(&doc, "scaling", top)?;
    validate_scaling_points(sc)?;
    let fl = require_obj(sc, "flatness", "scaling")?;
    for field in ["insert_ratio", "churn_ratio", "query_ratio"] {
        require_num(fl, field, 0.0, "scaling.flatness")?;
    }
    for (i, row) in require_rows(&doc, "backends", top)?.iter().enumerate() {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .filter(|name| !name.is_empty())
            .ok_or_else(|| format!("backends[{i}]: missing non-empty string 'name'"))?;
        let path = format!("backends[{i}] ({name})");
        for field in BACKEND_RATE_FIELDS {
            require_num(row, field, 0.0, &path)?;
        }
        require_int(row, "space_words", 0.0, &path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
      "schema": 9, "n_items": 4096, "quick": true, "unit": "ops_per_sec",
      "fifo_window": {"window": 1024, "ops_per_sec": 5.0e6, "setup_ms": 0.0},
      "decayed": {"scale_every": 256, "ops_per_sec": 2.0e6, "setup_ms": 0.4},
      "bulk_load": {"n_small": 16384, "small_items_per_sec": 8.0e7,
                    "n_large": 1048576, "large_items_per_sec": 6.5e7,
                    "per_op_items_per_sec": 1.8e7, "speedup": 3.6,
                    "rebuild_ms": 2.5},
      "snapshot": {"n": 1048576, "bytes": 25165824, "journal_tail": 4096,
                   "save_ms": 4.0, "load_ms": 12.0, "recover_ms": 13.0,
                   "load_items_per_sec": 8.0e7},
      "scaling": {"points": [
                    {"n": 16384, "insert_ops": 2.0e7, "churn_pair_ops": 1.8e7,
                     "query_mu16_ops": 5.0e4, "bulk_items_per_sec": 9.0e7,
                     "space_words": 180000, "live_words": 120000,
                     "parked_words": 20000, "slack_words": 40000},
                    {"n": 1048576, "insert_ops": 5.0e6, "churn_pair_ops": 2.5e6,
                     "query_mu16_ops": 3.0e4, "bulk_items_per_sec": 8.0e7,
                     "space_words": 12000000, "live_words": 9000000,
                     "parked_words": 1000000, "slack_words": 2000000}],
                  "flatness": {"insert_ratio": 4.0, "churn_ratio": 7.2,
                               "query_ratio": 1.7}},
      "backends": [
        {"name": "halt", "insert": 1.5e6, "churn_pair": 2.0, "delete": 6.0,
         "set_weight": 7.0, "query_mu16": 3.0,
         "query_batch16": 4.0, "mixed_round": 5.0, "space_words": 99}
      ]
    }"#;

    #[test]
    fn accepts_a_valid_snapshot() {
        validate_bench_core(GOOD).unwrap();
    }

    #[test]
    fn rejects_shape_drift() {
        let drifted = |from: &str, to: &str| {
            assert!(GOOD.contains(from), "test edit {from:?} matches nothing");
            validate_bench_core(&GOOD.replace(from, to))
        };
        // Wrong version: the previous shape is not accepted.
        assert!(drifted("\"schema\": 9", "\"schema\": 8").is_err());
        // Missing top-level fields.
        assert!(drifted("\"n_items\": 4096,", "").is_err());
        assert!(drifted("\"quick\": true,", "").is_err());
        assert!(drifted("\"ops_per_sec\",", "\"ns\",").is_err());
        // Missing blocks.
        for block in ["fifo_window", "decayed", "bulk_load", "snapshot", "scaling"] {
            assert!(drifted(&format!("\"{block}\""), "\"renamed\"").is_err(), "{block}");
        }
        // Missing or mistyped fields inside a block.
        assert!(drifted(", \"setup_ms\": 0.4", "").is_err());
        assert!(drifted("\"recover_ms\": 13.0,", "").is_err());
        assert!(drifted("\"rebuild_ms\": 2.5", "\"rebuild_ms\": -1").is_err());
        assert!(drifted("\"load_ms\": 12.0", "\"load_ms\": -0.5").is_err());
        assert!(drifted("\"speedup\": 3.6", "\"speedup\": \"3x\"").is_err());
        assert!(drifted("\"query_ratio\": 1.7", "\"query_ratio\": null").is_err());
        // Counts and sizes must be integers in range.
        assert!(drifted("\"window\": 1024", "\"window\": 2.5").is_err());
        assert!(drifted("\"scale_every\": 256", "\"scale_every\": 0").is_err());
        assert!(drifted("\"n_large\": 1048576", "\"n_large\": 2.5").is_err());
        assert!(drifted("\"bytes\": 25165824", "\"bytes\": 0").is_err());
        assert!(drifted("\"bytes\": 25165824", "\"bytes\": 2.5").is_err());
        assert!(drifted("\"journal_tail\": 4096", "\"journal_tail\": -1").is_err());
        assert!(drifted("\"slack_words\": 40000", "\"slack_words\": 0.5").is_err());
        assert!(drifted("\"space_words\": 99", "\"space_words\": 9.9").is_err());
        // Roster rows.
        assert!(drifted("\"query_mu16\": 3.0,", "").is_err());
        assert!(drifted("\"delete\": 6.0,", "").is_err());
        assert!(drifted("\"insert\": 1.5e6", "\"insert\": \"fast\"").is_err());
        assert!(drifted("\"name\": \"halt\"", "\"name\": \"\"").is_err());
        // Empty point list and empty roster.
        let points = GOOD.find("\"points\": [").expect("marker in GOOD");
        let flatness = GOOD.find("\"flatness\"").expect("marker in GOOD");
        let no_points = format!("{}\"points\": [],\n{}", &GOOD[..points], &GOOD[flatness..]);
        assert!(validate_bench_core(&no_points).is_err());
        let backends = GOOD.find("\"backends\": [").expect("marker in GOOD");
        let no_rows = format!("{}\"backends\": []}}", &GOOD[..backends]);
        assert!(validate_bench_core(&no_rows).is_err());
        // Not JSON at all.
        assert!(validate_bench_core("{").is_err());
    }

    #[test]
    fn parser_handles_strings_escapes_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5, "x\ny\u0041", {"b": null}], "t": true}"#).unwrap();
        let arr = match v.get("a") {
            Some(Json::Arr(items)) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1], Json::Num(-2.5));
        assert_eq!(arr[2], Json::Str("x\nyA".into()));
        assert_eq!(arr[3].get("b"), Some(&Json::Null));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("[1] extra").is_err());
    }

    #[test]
    fn committed_snapshot_is_valid() {
        // The repository's own BENCH_core.json must pass the current schema.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_core.json");
        validate_bench_core(&text).expect("committed snapshot violates the current schema");
    }
}
