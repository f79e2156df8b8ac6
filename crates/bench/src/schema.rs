//! Schema validation for the machine-readable benchmark snapshots.
//!
//! `bench_core` emits `BENCH_core.json` so successive PRs accumulate a
//! performance trajectory that scripts can diff. A snapshot whose *shape*
//! silently drifts (renamed field, string where a number belongs, empty
//! backend roster) breaks every downstream diff without failing anything —
//! so the emitter validates its own output against schema v7 right after
//! writing, and CI runs the same check on the `--quick` smoke snapshot.
//!
//! Schema history: v2 extended v1 with per-backend `delete`/`set_weight`
//! throughput plus the `plan_cache` and `fifo_window` observability blocks.
//! Schema v3 added two blocks for the query-API redesign: `query_par`
//! (threads, sequential and sharded `query_many` throughput, and the
//! parallel speedup of `ShardedQuery` — recorded honestly even on
//! single-core hosts where it degrades to ≈1×) and `decayed` (update
//! throughput of the decayed-weight stream, whose periodic
//! `ScaleAllWeights` makes `set_weight` cost visible end-to-end).
//! Schema v4 instrumented the epoch-delta change journal: `plan_cache`
//! gained `refreshes` (stale plans re-derived in place after weight-only
//! churn — the journal's shrunk miss path), and the `mixed_regime` block
//! records the interleaved update+query replay on the `odss-style` backend
//! (rounds/s, items rematerialized by Θ(n) fallbacks, and the journal
//! replay/fallback counters) — the regime the journal rewrite exists to fix.
//! Schema v5 measured the radix-partitioned bulk build: the
//! `bulk_load` block records `from_weights` throughput at n = 2^14 and
//! n = 2^20 (fixed sizes, independent of `--n`), the per-item reference
//! insert rate at 2^20, their ratio (`speedup`, the ≥3× acceptance bar),
//! and `rebuild_ms` — the wall time of the single delete that fires the
//! shrink-compaction rebuild, now itself a radix partition. The three
//! replay blocks (`fifo_window`, `decayed`, `mixed_regime`) each gain
//! `setup_ms`: initial-load time reported separately so bulk-build speed
//! never hides inside a steady-state op rate.
//! Schema v6 measured the durability path: the `snapshot` block
//! records, at n = 2^20, the encoded image size (`bytes`), `save_ms` and
//! `load_ms` for `snapshot()`/`from_snapshot`, the restored-image load rate
//! (`load_items_per_sec` — the acceptance bar keeps it within 2× of the
//! bulk-build rate, since the loader *is* the classify→carve→fill→derive
//! bulk build), and `recover_ms`: `pss_core::recover` replaying a
//! `journal_tail`-delta suffix (4096 deltas) from a durable log on top of
//! the snapshot.
//! Schema v7 (this PR) adds the cache-regime scaling tier: a top-level
//! integer `nproc` (worker threads the host actually offers, so sharded
//! speedups are interpretable), and the `scaling` block — `packed` and
//! `hugepages` booleans naming the compiled arm, a `points` array with one
//! entry per size (n ∈ {2^14, 2^17, 2^20, 2^23}; `--quick` keeps only
//! 2^20) carrying insert/churn-pair/μ≈16-query op rates, the bulk-load
//! items/s, and per-point space telemetry (`space_words` plus the arena
//! residency split `live_words`/`parked_words`/`slack_words`), a
//! `flatness` object with the smallest-to-largest per-op cost ratios
//! (`insert_ratio`, `churn_ratio`, `query_ratio` — ≈1 is the O(1)/O(1+μ)
//! story holding beyond L2), and `ab`: `null` in a single-arm run, or the
//! `layout-baseline` arm's points plus the packed-over-baseline `speedups`
//! for `query_mu16`, `churn_pair`, and `bulk_load` at the largest common n.
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

/// Per-backend numeric throughput fields required by schema v7.
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

/// Required numeric-rate fields of one `scaling.points[]` entry.
const SCALING_POINT_RATES: [&str; 4] =
    ["insert_ops", "churn_pair_ops", "query_mu16_ops", "bulk_items_per_sec"];

/// Required integer space-telemetry fields of one `scaling.points[]` entry.
const SCALING_POINT_SPACE: [&str; 4] = ["space_words", "live_words", "parked_words", "slack_words"];

/// Validates one `scaling.points[]`-shaped array (also used for
/// `ab.baseline_points`). Returns the points for cross-checks.
fn validate_scaling_points<'a>(
    scaling: &'a Json,
    key: &str,
    path: &str,
) -> Result<&'a [Json], String> {
    let points = match scaling.get(key) {
        Some(Json::Arr(rows)) if !rows.is_empty() => rows,
        Some(Json::Arr(_)) => return Err(format!("{path}: '{key}' is empty")),
        _ => return Err(format!("{path}: missing array '{key}'")),
    };
    for (i, pt) in points.iter().enumerate() {
        let p = format!("{path}.{key}[{i}]");
        let n = require_num(pt, "n", 1.0, &p)?;
        if n.fract() != 0.0 {
            return Err(format!("{p}: 'n' = {n} is not an integer"));
        }
        for field in SCALING_POINT_RATES {
            require_num(pt, field, 0.0, &p)?;
        }
        for field in SCALING_POINT_SPACE {
            let v = require_num(pt, field, 0.0, &p)?;
            if v.fract() != 0.0 {
                return Err(format!("{p}: '{field}' = {v} is not an integer"));
            }
        }
    }
    Ok(points)
}

/// Validates a `BENCH_core.json` document against schema v7:
///
/// - top level: `schema == 7`, integer `n_items ≥ 1`, integer `nproc ≥ 1`,
///   boolean `quick`, `unit == "ops_per_sec"`, non-empty `backends` array;
/// - `plan_cache`: finite non-negative `hits`, `misses`, and `refreshes`;
/// - `fifo_window`: integer `window ≥ 1`, finite non-negative `ops_per_sec`
///   and `setup_ms`;
/// - `query_par`: integer `threads ≥ 1`, finite non-negative
///   `seq_ops_per_sec` and `par_ops_per_sec`, finite non-negative `speedup`;
/// - `decayed`: integer `scale_every ≥ 1`, finite non-negative
///   `ops_per_sec` and `setup_ms`;
/// - `mixed_regime`: finite non-negative `rounds_per_sec` and `setup_ms`,
///   integer `rematerialized ≥ 0`, integer `replays ≥ 0`, integer
///   `fallbacks ≥ 0`;
/// - `bulk_load`: integers `n_small ≥ 1` and `n_large ≥ 1`, finite
///   non-negative `small_items_per_sec`, `large_items_per_sec`,
///   `per_op_items_per_sec`, `speedup`, and `rebuild_ms`;
/// - `snapshot`: integers `n ≥ 1`, `bytes ≥ 1`, `journal_tail ≥ 0`, finite
///   non-negative `save_ms`, `load_ms`, `recover_ms`, and
///   `load_items_per_sec`;
/// - `scaling`: booleans `packed` and `hugepages`, a non-empty `points`
///   array (per point: integer `n ≥ 1`, finite non-negative rates for every
///   field in `SCALING_POINT_RATES`, integer space telemetry for every
///   field in `SCALING_POINT_SPACE`), a `flatness` object with finite
///   non-negative `insert_ratio`/`churn_ratio`/`query_ratio`, and `ab`:
///   `null`, or an object with `baseline_points` (same shape as `points`)
///   and a `speedups` object with finite non-negative `query_mu16`,
///   `churn_pair`, and `bulk_load`;
/// - each backend: non-empty string `name`, finite non-negative numbers for
///   every field in [`BACKEND_RATE_FIELDS`] plus `space_words`.
///
/// Unknown extra fields are allowed (forward-compatible); missing or
/// mistyped required fields are errors naming the offending path.
pub fn validate_bench_core_v7(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    let schema = doc.get("schema").and_then(Json::as_num).ok_or("missing numeric 'schema'")?;
    if schema != 7.0 {
        return Err(format!("schema version {schema} is not 7"));
    }
    let n_items = doc.get("n_items").and_then(Json::as_num).ok_or("missing numeric 'n_items'")?;
    if n_items < 1.0 || n_items.fract() != 0.0 {
        return Err(format!("'n_items' must be a positive integer, got {n_items}"));
    }
    let nproc = require_num(&doc, "nproc", 1.0, "top level")?;
    if nproc.fract() != 0.0 {
        return Err(format!("'nproc' = {nproc} is not an integer"));
    }
    if !matches!(doc.get("quick"), Some(Json::Bool(_))) {
        return Err("missing boolean 'quick'".into());
    }
    if doc.get("unit").and_then(Json::as_str) != Some("ops_per_sec") {
        return Err("'unit' must be \"ops_per_sec\"".into());
    }
    let pc = doc.get("plan_cache").ok_or("missing object 'plan_cache'")?;
    require_num(pc, "hits", 0.0, "plan_cache")?;
    require_num(pc, "misses", 0.0, "plan_cache")?;
    require_num(pc, "refreshes", 0.0, "plan_cache")?;
    let fw = doc.get("fifo_window").ok_or("missing object 'fifo_window'")?;
    let window = require_num(fw, "window", 1.0, "fifo_window")?;
    if window.fract() != 0.0 {
        return Err(format!("fifo_window: 'window' = {window} is not an integer"));
    }
    require_num(fw, "ops_per_sec", 0.0, "fifo_window")?;
    require_num(fw, "setup_ms", 0.0, "fifo_window")?;
    let qp = doc.get("query_par").ok_or("missing object 'query_par'")?;
    let threads = require_num(qp, "threads", 1.0, "query_par")?;
    if threads.fract() != 0.0 {
        return Err(format!("query_par: 'threads' = {threads} is not an integer"));
    }
    require_num(qp, "seq_ops_per_sec", 0.0, "query_par")?;
    require_num(qp, "par_ops_per_sec", 0.0, "query_par")?;
    require_num(qp, "speedup", 0.0, "query_par")?;
    let dc = doc.get("decayed").ok_or("missing object 'decayed'")?;
    let scale_every = require_num(dc, "scale_every", 1.0, "decayed")?;
    if scale_every.fract() != 0.0 {
        return Err(format!("decayed: 'scale_every' = {scale_every} is not an integer"));
    }
    require_num(dc, "ops_per_sec", 0.0, "decayed")?;
    require_num(dc, "setup_ms", 0.0, "decayed")?;
    let mr = doc.get("mixed_regime").ok_or("missing object 'mixed_regime'")?;
    require_num(mr, "rounds_per_sec", 0.0, "mixed_regime")?;
    require_num(mr, "setup_ms", 0.0, "mixed_regime")?;
    for field in ["rematerialized", "replays", "fallbacks"] {
        let v = require_num(mr, field, 0.0, "mixed_regime")?;
        if v.fract() != 0.0 {
            return Err(format!("mixed_regime: '{field}' = {v} is not an integer"));
        }
    }
    let bl = doc.get("bulk_load").ok_or("missing object 'bulk_load'")?;
    for field in ["n_small", "n_large"] {
        let v = require_num(bl, field, 1.0, "bulk_load")?;
        if v.fract() != 0.0 {
            return Err(format!("bulk_load: '{field}' = {v} is not an integer"));
        }
    }
    require_num(bl, "small_items_per_sec", 0.0, "bulk_load")?;
    require_num(bl, "large_items_per_sec", 0.0, "bulk_load")?;
    require_num(bl, "per_op_items_per_sec", 0.0, "bulk_load")?;
    require_num(bl, "speedup", 0.0, "bulk_load")?;
    require_num(bl, "rebuild_ms", 0.0, "bulk_load")?;
    let sn = doc.get("snapshot").ok_or("missing object 'snapshot'")?;
    for (field, min) in [("n", 1.0), ("bytes", 1.0), ("journal_tail", 0.0)] {
        let v = require_num(sn, field, min, "snapshot")?;
        if v.fract() != 0.0 {
            return Err(format!("snapshot: '{field}' = {v} is not an integer"));
        }
    }
    require_num(sn, "save_ms", 0.0, "snapshot")?;
    require_num(sn, "load_ms", 0.0, "snapshot")?;
    require_num(sn, "recover_ms", 0.0, "snapshot")?;
    require_num(sn, "load_items_per_sec", 0.0, "snapshot")?;
    let sc = doc.get("scaling").ok_or("missing object 'scaling'")?;
    for field in ["packed", "hugepages"] {
        if !matches!(sc.get(field), Some(Json::Bool(_))) {
            return Err(format!("scaling: missing boolean '{field}'"));
        }
    }
    validate_scaling_points(sc, "points", "scaling")?;
    let fl = sc.get("flatness").ok_or("scaling: missing object 'flatness'")?;
    for field in ["insert_ratio", "churn_ratio", "query_ratio"] {
        require_num(fl, field, 0.0, "scaling.flatness")?;
    }
    match sc.get("ab") {
        Some(Json::Null) => {}
        Some(ab @ Json::Obj(_)) => {
            validate_scaling_points(ab, "baseline_points", "scaling.ab")?;
            let sp = ab.get("speedups").ok_or("scaling.ab: missing object 'speedups'")?;
            for field in ["query_mu16", "churn_pair", "bulk_load"] {
                require_num(sp, field, 0.0, "scaling.ab.speedups")?;
            }
        }
        _ => return Err("scaling: 'ab' must be null or an object".into()),
    }
    let backends = match doc.get("backends") {
        Some(Json::Arr(rows)) if !rows.is_empty() => rows,
        Some(Json::Arr(_)) => return Err("'backends' is empty".into()),
        _ => return Err("missing array 'backends'".into()),
    };
    for (i, row) in backends.iter().enumerate() {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("backends[{i}]: missing string 'name'"))?;
        if name.is_empty() {
            return Err(format!("backends[{i}]: empty 'name'"));
        }
        for field in BACKEND_RATE_FIELDS.iter().chain(std::iter::once(&"space_words")) {
            require_num(row, field, 0.0, &format!("backends[{i}] ({name})"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
      "schema": 7, "n_items": 4096, "nproc": 1, "quick": true, "unit": "ops_per_sec",
      "plan_cache": {"hits": 48, "misses": 16, "refreshes": 16},
      "fifo_window": {"window": 1024, "ops_per_sec": 5.0e6, "setup_ms": 0.0},
      "query_par": {"threads": 8, "seq_ops_per_sec": 5.0e4,
                    "par_ops_per_sec": 1.5e5, "speedup": 3.0},
      "decayed": {"scale_every": 256, "ops_per_sec": 2.0e6, "setup_ms": 0.4},
      "mixed_regime": {"rounds_per_sec": 2.5e4, "setup_ms": 1.2,
                       "rematerialized": 4096,
                       "replays": 4000, "fallbacks": 1},
      "bulk_load": {"n_small": 16384, "small_items_per_sec": 8.0e7,
                    "n_large": 1048576, "large_items_per_sec": 6.5e7,
                    "per_op_items_per_sec": 1.8e7, "speedup": 3.6,
                    "rebuild_ms": 2.5},
      "snapshot": {"n": 1048576, "bytes": 25165824, "journal_tail": 4096,
                   "save_ms": 4.0, "load_ms": 12.0, "recover_ms": 13.0,
                   "load_items_per_sec": 8.0e7},
      "scaling": {"packed": true, "hugepages": false,
                  "points": [
                    {"n": 16384, "insert_ops": 2.0e7, "churn_pair_ops": 1.8e7,
                     "query_mu16_ops": 5.0e4, "bulk_items_per_sec": 9.0e7,
                     "space_words": 180000, "live_words": 120000,
                     "parked_words": 20000, "slack_words": 40000},
                    {"n": 1048576, "insert_ops": 5.0e6, "churn_pair_ops": 2.5e6,
                     "query_mu16_ops": 3.0e4, "bulk_items_per_sec": 8.0e7,
                     "space_words": 12000000, "live_words": 9000000,
                     "parked_words": 1000000, "slack_words": 2000000}],
                  "flatness": {"insert_ratio": 4.0, "churn_ratio": 7.2,
                               "query_ratio": 1.7},
                  "ab": {"baseline_points": [
                           {"n": 1048576, "insert_ops": 3.0e6,
                            "churn_pair_ops": 1.5e6, "query_mu16_ops": 2.0e4,
                            "bulk_items_per_sec": 5.0e7,
                            "space_words": 12000000, "live_words": 9000000,
                            "parked_words": 1000000, "slack_words": 2000000}],
                         "speedups": {"query_mu16": 1.5, "churn_pair": 1.66,
                                      "bulk_load": 1.6}}},
      "backends": [
        {"name": "halt", "insert": 1.5e6, "churn_pair": 2.0, "delete": 6.0,
         "set_weight": 7.0, "query_mu16": 3.0,
         "query_batch16": 4.0, "mixed_round": 5.0, "space_words": 99}
      ]
    }"#;

    #[test]
    fn accepts_a_valid_snapshot() {
        validate_bench_core_v7(GOOD).unwrap();
    }

    #[test]
    fn rejects_shape_drift() {
        // Wrong version.
        assert!(validate_bench_core_v7(&GOOD.replace("\"schema\": 7", "\"schema\": 6")).is_err());
        // Missing v1 field.
        assert!(validate_bench_core_v7(&GOOD.replace("\"query_mu16\": 3.0,", "")).is_err());
        // Missing v2 update-path field.
        assert!(validate_bench_core_v7(&GOOD.replace("\"delete\": 6.0,", "")).is_err());
        assert!(validate_bench_core_v7(&GOOD.replace("\"set_weight\": 7.0,", "")).is_err());
        // Missing observability blocks.
        assert!(validate_bench_core_v7(
            &GOOD.replace("\"plan_cache\": {\"hits\": 48, \"misses\": 16, \"refreshes\": 16},", "")
        )
        .is_err());
        assert!(validate_bench_core_v7(&GOOD.replace(
            "\"fifo_window\": {\"window\": 1024, \"ops_per_sec\": 5.0e6, \"setup_ms\": 0.0},",
            ""
        ))
        .is_err());
        // Missing v3 blocks.
        assert!(validate_bench_core_v7(
            &GOOD.replace(
                "\"query_par\": {\"threads\": 8, \"seq_ops_per_sec\": 5.0e4,\n                    \"par_ops_per_sec\": 1.5e5, \"speedup\": 3.0},",
                ""
            )
        )
        .is_err());
        assert!(validate_bench_core_v7(&GOOD.replace(
            "\"decayed\": {\"scale_every\": 256, \"ops_per_sec\": 2.0e6, \"setup_ms\": 0.4},",
            ""
        ))
        .is_err());
        // Missing v4 instrumentation.
        assert!(validate_bench_core_v7(&GOOD.replace(", \"refreshes\": 16", "")).is_err());
        assert!(validate_bench_core_v7(&GOOD.replace("\"rematerialized\": 4096,", "")).is_err());
        assert!(validate_bench_core_v7(&GOOD.replace("\"replays\": 4000", "\"replays\": 4000.5"))
            .is_err());
        // Missing v5 instrumentation: the bulk_load block, any field inside
        // it, and the setup_ms split on the replay blocks.
        assert!(validate_bench_core_v7(
            &GOOD.replace(
                "\"bulk_load\": {\"n_small\": 16384, \"small_items_per_sec\": 8.0e7,\n                    \"n_large\": 1048576, \"large_items_per_sec\": 6.5e7,\n                    \"per_op_items_per_sec\": 1.8e7, \"speedup\": 3.6,\n                    \"rebuild_ms\": 2.5},",
                ""
            )
        )
        .is_err());
        assert!(validate_bench_core_v7(&GOOD.replace("\"rebuild_ms\": 2.5", "\"rebuild_ms\": -1"))
            .is_err());
        assert!(validate_bench_core_v7(&GOOD.replace("\"n_large\": 1048576", "\"n_large\": 2.5"))
            .is_err());
        assert!(validate_bench_core_v7(&GOOD.replace(", \"setup_ms\": 0.4", "")).is_err());
        assert!(validate_bench_core_v7(&GOOD.replace("\"setup_ms\": 1.2,", "")).is_err());
        // Missing field inside a v3 block.
        assert!(validate_bench_core_v7(&GOOD.replace("\"speedup\": 3.0", "\"speedup\": \"3x\""))
            .is_err());
        // Fractional integers.
        assert!(
            validate_bench_core_v7(&GOOD.replace("\"window\": 1024", "\"window\": 2.5")).is_err()
        );
        assert!(
            validate_bench_core_v7(&GOOD.replace("\"threads\": 8", "\"threads\": 1.5")).is_err()
        );
        // Missing v6 instrumentation: the snapshot block and any field
        // inside it; its counts must be integral and its timings finite.
        assert!(validate_bench_core_v7(
            &GOOD.replace(
                "\"snapshot\": {\"n\": 1048576, \"bytes\": 25165824, \"journal_tail\": 4096,\n                   \"save_ms\": 4.0, \"load_ms\": 12.0, \"recover_ms\": 13.0,\n                   \"load_items_per_sec\": 8.0e7},",
                ""
            )
        )
        .is_err());
        assert!(validate_bench_core_v7(&GOOD.replace("\"recover_ms\": 13.0,", "")).is_err());
        assert!(
            validate_bench_core_v7(&GOOD.replace("\"bytes\": 25165824", "\"bytes\": 0")).is_err()
        );
        assert!(
            validate_bench_core_v7(&GOOD.replace("\"bytes\": 25165824", "\"bytes\": 2.5")).is_err()
        );
        assert!(validate_bench_core_v7(
            &GOOD.replace("\"journal_tail\": 4096", "\"journal_tail\": -1")
        )
        .is_err());
        assert!(validate_bench_core_v7(&GOOD.replace("\"load_ms\": 12.0", "\"load_ms\": -0.5"))
            .is_err());
        // String where a number belongs.
        assert!(validate_bench_core_v7(&GOOD.replace("\"insert\": 1.5e6", "\"insert\": \"fast\""))
            .is_err());
        // Empty roster.
        let empty = r#"{"schema": 6, "n_items": 1, "quick": false,
                        "unit": "ops_per_sec",
                        "plan_cache": {"hits": 0, "misses": 0, "refreshes": 0},
                        "fifo_window": {"window": 16, "ops_per_sec": 1.0, "setup_ms": 0.0},
                        "query_par": {"threads": 1, "seq_ops_per_sec": 1.0,
                                      "par_ops_per_sec": 1.0, "speedup": 1.0},
                        "decayed": {"scale_every": 16, "ops_per_sec": 1.0, "setup_ms": 0.0},
                        "mixed_regime": {"rounds_per_sec": 1.0, "setup_ms": 0.0,
                                         "rematerialized": 0,
                                         "replays": 0, "fallbacks": 0},
                        "bulk_load": {"n_small": 16, "small_items_per_sec": 1.0,
                                      "n_large": 32, "large_items_per_sec": 1.0,
                                      "per_op_items_per_sec": 1.0, "speedup": 1.0,
                                      "rebuild_ms": 0.0},
                        "snapshot": {"n": 16, "bytes": 1, "journal_tail": 0,
                                     "save_ms": 0.0, "load_ms": 0.0,
                                     "recover_ms": 0.0,
                                     "load_items_per_sec": 1.0},
                        "backends": []}"#;
        assert!(validate_bench_core_v7(empty).is_err());
        // Not JSON at all.
        assert!(validate_bench_core_v7("{").is_err());
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
        // The repository's own BENCH_core.json must always pass schema v7.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_core.json");
        validate_bench_core_v7(&text).expect("committed snapshot violates schema v7");
    }
}
