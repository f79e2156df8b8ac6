//! Golden diagnostics over the fixture corpus.
//!
//! Each fixture is linted as `dpss` library code (the strictest scope) and
//! its diagnostics are compared — rule and line, in order — against the
//! expectations pinned here. A lexer or rule regression that adds, drops,
//! or moves a diagnostic fails the comparison.

use pss_lint::{lint_source, FileClass, FileKind};
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lint_fixture(name: &str) -> Vec<(u32, String)> {
    let src = fixture(name);
    let class = FileClass::new("dpss", FileKind::Lib);
    let mut got: Vec<(u32, String)> =
        lint_source(name, &src, &class).into_iter().map(|d| (d.line, d.rule.to_string())).collect();
    // lint_source emits in rule-run order; compare in source order.
    got.sort();
    got
}

#[test]
fn tricky_lexing_is_clean() {
    // Raw strings containing `.unwrap()`, nested block comments, char/
    // lifetime soup, macro brackets, array types, slice patterns, turbofish
    // `>>` — all must produce zero diagnostics.
    let got = lint_fixture("tricky_lexing.rs");
    assert!(got.is_empty(), "expected clean, got {got:?}");
}

#[test]
fn violations_hit_every_rule_at_pinned_lines() {
    let got = lint_fixture("violations.rs");
    let want: Vec<(u32, String)> = [
        (4, "deterministic-iteration"),
        (7, "no-panic-paths"),
        (11, "no-panic-paths"),
        (15, "no-bare-index"),
        (19, "no-bare-shift"),
        (23, "no-lossy-cast"),
        (29, "no-wildcard-delta"),
    ]
    .into_iter()
    .map(|(l, r)| (l, r.to_string()))
    .collect();
    assert_eq!(got, want);
}

#[test]
fn pragma_on_wrong_line_suppresses_nothing() {
    let got = lint_fixture("pragma_wrong_line.rs");
    let want: Vec<(u32, String)> = [(7, "unused-pragma"), (9, "no-panic-paths")]
        .into_iter()
        .map(|(l, r)| (l, r.to_string()))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn stale_and_malformed_pragmas_are_errors() {
    let got = lint_fixture("unused_pragma.rs");
    let want: Vec<(u32, String)> = [(6, "unused-pragma"), (11, "bad-pragma"), (16, "bad-pragma")]
        .into_iter()
        .map(|(l, r)| (l, r.to_string()))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn hot_path_marker_arms_the_alloc_rule() {
    let got = lint_fixture("hot_path.rs");
    let want: Vec<(u32, String)> = vec![(7, "no-alloc-hot-path".to_string())];
    assert_eq!(got, want);
}

#[test]
fn journal_completeness_flags_the_uncovered_exit_only() {
    // `insert` delegates to an always-journaling `try_insert` (clean via
    // the call-graph closure); `delete`'s `return true` and `try_delete`'s
    // `Ok(true)` are the exits that escape without a record.
    let got = lint_fixture("sem_journal.rs");
    let want: Vec<(u32, String)> =
        vec![(30, "journal-completeness".to_string()), (40, "journal-completeness".to_string())];
    assert_eq!(got, want);
}

#[test]
fn float_taint_flags_the_raw_coin_only() {
    // `w / 2.0` taints `p`; the twin on an f64 parameter is clean. A
    // `*_f64_bounds` body is linted like any other: its raw `q > 1.0` is
    // flagged.
    let got = lint_fixture("sem_float.rs");
    let want: Vec<(u32, String)> =
        vec![(6, "float-taint".to_string()), (15, "float-taint".to_string())];
    assert_eq!(got, want);
}

#[test]
fn codec_symmetry_flags_the_mismatched_read() {
    // Writer put_u64,put_u32 vs reader get_u64,get_u64.
    let got = lint_fixture("sem_codec.rs");
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].1, "codec-symmetry");
}

#[test]
fn poison_discipline_flags_the_unarmed_cascade() {
    // The cascade fail point fires while `poisoned` is still false.
    let got = lint_fixture("sem_poison.rs");
    let want: Vec<(u32, String)> = vec![(14, "poison-discipline".to_string())];
    assert_eq!(got, want);
}

#[test]
fn cfg_stress_is_clean() {
    // Labeled breaks, while-let, `?`, early Err returns, loop meets on the
    // float lattice: the builders must neither crash nor over-report.
    let got = lint_fixture("cfg_stress.rs");
    assert!(got.is_empty(), "expected clean, got {got:?}");
}

#[test]
fn semantic_false_positive_guard_is_clean() {
    // No-op exits, a load-bearing waiver, delegated journaling, raw float
    // arithmetic that reaches no decision, a word-bracket coin, a mirrored
    // codec pair (helpers + rep), an armed fault window.
    let got = lint_fixture("sem_clean.rs");
    assert!(got.is_empty(), "expected clean, got {got:?}");
}

#[test]
fn fixtures_are_outside_the_workspace_scan() {
    // The deliberate violations above must never dirty the real scan.
    use pss_lint::classify;
    assert_eq!(classify("crates/pss-lint/tests/fixtures/violations.rs").kind, FileKind::Skip);
}
