//! Diagnostics and the rule registry.

use std::fmt;

/// One finding, anchored to a file:line:col span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier (see [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human-readable explanation, including the offending snippet.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: [{}] {}", self.path, self.line, self.col, self.rule, self.message)
    }
}

impl Diagnostic {
    /// Render as a single-line JSON object (hand-rolled; no serde offline).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"rule":"{}","path":"{}","line":{},"col":{},"message":"{}"}}"#,
            self.rule,
            json_escape(&self.path),
            self.line,
            self.col,
            json_escape(&self.message)
        )
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Metadata for one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier, used in pragmas and diagnostics.
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
}

/// Rule ids, importable so the rest of the crate never typos a rule name.
pub mod rules {
    pub const NO_PANIC_PATHS: &str = "no-panic-paths";
    pub const NO_BARE_INDEX: &str = "no-bare-index";
    pub const NO_BARE_SHIFT: &str = "no-bare-shift";
    pub const NO_LOSSY_CAST: &str = "no-lossy-cast";
    pub const NO_ALLOC_HOT_PATH: &str = "no-alloc-hot-path";
    pub const NO_WILDCARD_DELTA: &str = "no-wildcard-delta";
    pub const DETERMINISTIC_ITERATION: &str = "deterministic-iteration";
    pub const JOURNAL_COMPLETENESS: &str = "journal-completeness";
    pub const FLOAT_TAINT: &str = "float-taint";
    pub const CODEC_SYMMETRY: &str = "codec-symmetry";
    pub const POISON_DISCIPLINE: &str = "poison-discipline";
    pub const UNUSED_PRAGMA: &str = "unused-pragma";
    pub const BAD_PRAGMA: &str = "bad-pragma";
}

/// The enforced source rules. Pragma hygiene (`unused-pragma`, `bad-pragma`)
/// is engine-level and always on; it is listed separately in [`META_RULES`].
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: rules::NO_PANIC_PATHS,
        summary: "unwrap/expect/panic!/unreachable!/todo!/unimplemented! banned in library code",
        scope: "lib code of dpss, pss-core, wordram, randvar, bignum (tests/benches exempt)",
    },
    RuleInfo {
        id: rules::NO_BARE_INDEX,
        summary: "bare slice/array indexing (can panic) banned; use get()/audited cursors",
        scope: "lib code of dpss, pss-core, wordram, randvar, bignum (tests/benches exempt)",
    },
    RuleInfo {
        id: rules::NO_BARE_SHIFT,
        summary: "`<<`/`>>` with a non-literal shift amount must go through audited wrappers",
        scope: "lib code of every crate except wordram (the audited home of bit twiddling)",
    },
    RuleInfo {
        id: rules::NO_LOSSY_CAST,
        summary: "`as` casts to a type that can truncate (u8/u16/u32/i8/i16/i32/f32) need a pragma",
        scope: "lib code of dpss, pss-core, wordram, randvar, bignum",
    },
    RuleInfo {
        id: rules::NO_ALLOC_HOT_PATH,
        summary: "allocation constructors banned in modules annotated `// pss-lint: hot-path`",
        scope: "any file carrying the hot-path annotation",
    },
    RuleInfo {
        id: rules::NO_WILDCARD_DELTA,
        summary: "match arms on Delta/Replay/StreamKind/Op may not use `_` wildcards",
        scope: "all library and test code (shims exempt)",
    },
    RuleInfo {
        id: rules::DETERMINISTIC_ITERATION,
        summary: "HashMap/HashSet banned where a sample can observe iteration order",
        scope: "lib code of dpss, pss-core, wordram, randvar, bignum, baselines",
    },
    RuleInfo {
        id: rules::JOURNAL_COMPLETENESS,
        summary: "public &mut self mutators on journaled backends must reach journal.record* \
                  on every non-error, non-noop exit path (delegation closed workspace-wide)",
        scope: "lib code of dpss, pss-core, baselines (semantic; CFG must-analysis)",
    },
    RuleInfo {
        id: rules::FLOAT_TAINT,
        summary: "an f64 produced by raw arithmetic may not reach a branch condition or coin \
                  call; sampling decisions go through integer word brackets (Bits64)",
        scope: "lib code of dpss, pss-core, baselines, randvar (semantic; forward dataflow)",
    },
    RuleInfo {
        id: rules::CODEC_SYMMETRY,
        summary: "the Enc::put_* sequence of write_snapshot must mirror the Dec::get_* sequence \
                  of the paired from_snapshot, section tags included",
        scope: "files defining write_snapshot/from_snapshot or write_*/read_* codec helpers",
    },
    RuleInfo {
        id: rules::POISON_DISCIPLINE,
        summary: "inside a fault window, cascade fail-points must run with the poison flag \
                  armed, and every ok-exit must have disarmed it",
        scope: "try_* mutators containing fallible fail_point calls (or marked fault-window)",
    },
];

/// Engine-level pragma-hygiene rules (always enforced, not suppressible).
pub const META_RULES: &[RuleInfo] = &[
    RuleInfo {
        id: rules::UNUSED_PRAGMA,
        summary: "a suppression pragma that suppressed nothing is itself an error",
        scope: "everywhere pragmas are parsed",
    },
    RuleInfo {
        id: rules::BAD_PRAGMA,
        summary: "malformed pragma: unknown rule name, or missing `— <reason>` justification",
        scope: "everywhere pragmas are parsed",
    },
];

/// Is `id` a known source-rule id (valid in an `allow(...)` pragma)?
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}
