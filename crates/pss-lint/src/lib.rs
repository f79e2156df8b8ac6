//! `pss-lint`: an offline workspace lint engine.
//!
//! Statically enforces the invariants the runtime test suite can only probe:
//! panic-freedom of the update/query paths, no wrapping shifts (the
//! `slot_prob_num` t ≥ 60 bug class), no silent truncating casts, zero
//! allocation inside hot-path modules, exhaustive matches over the journal
//! and workload enums, and deterministic iteration wherever a sample can
//! observe order.
//!
//! crates.io is unreachable from this environment, so there is no `syn` or
//! `dylint`: the engine is built on a small hand-rolled Rust lexer
//! ([`lexer`]) that correctly skips comments (nested), strings (raw, byte),
//! char literals, and lifetimes, plus a lightweight item/attribute/brace
//! tracker that exempts `#[cfg(test)]` code.
//!
//! Run it with `cargo run -p pss-lint -- check --workspace`; suppress a
//! finding with a per-site pragma (see [`pragma`]); unused pragmas are
//! themselves errors, so suppressions cannot rot silently.

#![forbid(unsafe_code)]

pub mod ast;
pub mod cfg;
pub mod classify;
pub mod dataflow;
pub mod diag;
mod engine;
pub mod lexer;
pub mod parse;
pub mod pragma;
pub mod resolve;
pub mod rules;

pub use classify::{classify, FileClass, FileKind};
pub use diag::{is_known_rule, json_escape, Diagnostic, RuleInfo, META_RULES, RULES};
pub use engine::{
    analyze_source, finalize, lint_source, lint_workspace, workspace_files, FileAnalysis,
    PendingWaiver, Report,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(class: FileClass, src: &str) -> Vec<Diagnostic> {
        lint_source("test.rs", src, &class)
    }

    fn dpss_lib() -> FileClass {
        FileClass::new("dpss", FileKind::Lib)
    }

    #[test]
    fn panic_paths_flagged_in_exact_lib_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let d = lint(dpss_lib(), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-panic-paths");
        assert!(lint(FileClass::new("bench", FileKind::Lib), src).is_empty());
        assert!(lint(FileClass::new("dpss", FileKind::TestLike), src).is_empty());
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn g() { None::<u32>.unwrap(); }\n}\n";
        assert!(lint(dpss_lib(), src).is_empty());
    }

    #[test]
    fn pragma_suppresses_and_unused_pragma_errors() {
        let src = "// pss-lint: allow(no-panic-paths) — invariant: always Some here\n\
                   fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint(dpss_lib(), src).is_empty());
        let stale = "// pss-lint: allow(no-panic-paths) — stale\nfn f() {}\n";
        let d = lint(dpss_lib(), stale);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unused-pragma");
    }

    #[test]
    fn wildcard_rule_fires_in_tests_too() {
        let src = "fn f(d: &Delta) -> u32 {\n    match d {\n        Delta::Inserted { .. } => 1,\n        _ => 0,\n    }\n}\n";
        let d = lint(FileClass::new("suite", FileKind::TestLike), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-wildcard-delta");
    }

    #[test]
    fn at_least_six_rules_registered() {
        assert!(RULES.len() >= 6, "need >= 6 workspace rules, have {}", RULES.len());
    }
}
