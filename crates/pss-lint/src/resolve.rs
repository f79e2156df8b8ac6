//! Workspace symbol facts for the cross-file `journal-completeness`
//! fixpoint.
//!
//! Per-file analysis (in [`crate::rules`]) compresses each function into
//! [`FnFacts`]: its identity, role flags, the *may*-set of callees, and —
//! per ok-exit — the *must*-set of journaling events observed on every
//! path to that exit. The global pass ([`journal_fixpoint`]) then closes
//! three monotone relations over the whole workspace:
//!
//! 1. **journaled types** — a type is journaled iff any of its methods
//!    touches `self.journal` (so a backend with no journal field is
//!    exempt by construction);
//! 2. **may-journal** — a fn may journal iff it records directly or
//!    may-calls a fn that may journal (this decides which public
//!    `&mut self` methods are *obligated*: setters that never touch the
//!    journaling machinery anywhere are not mutators of journaled state);
//! 3. **always-journals** — a fn always journals iff every ok-exit is
//!    covered by a direct record, a waiver, a provable no-op value, or a
//!    must-call of a fn that always journals.
//!
//! All three only grow, so iteration to stability is sound, and a
//! diagnostic is exactly: an obligated fn with an ok-exit not covered by
//! relation 3's closure.

use crate::diag::{rules as rule_ids, Diagnostic};
use std::collections::BTreeSet;

/// A journaling event that definitely happened on every path to an exit.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum JournalEvent {
    /// A direct `journal.record*` / `self.journal.record*` call.
    Direct,
    /// A must-call of `(type_name, fn_name)` — `("", name)` for free fns.
    /// Coverage depends on whether the callee always journals.
    Call(String, String),
}

/// One ok-exit of a function, with its must-events.
#[derive(Debug, Clone, Default)]
pub struct ExitFacts {
    /// Journaling events present on **every** path to this exit.
    pub events: Vec<JournalEvent>,
    /// The exit provably mutated nothing (returned `None`/`false`/empty),
    /// so the journal obligation does not apply.
    pub noop: bool,
    /// An `allow(journal-completeness)` pragma covers this exit's line;
    /// the fixpoint treats it as covered and reports the waiver as used.
    pub waived: bool,
    /// Diagnostic anchor.
    pub line: u32,
    /// Diagnostic anchor.
    pub col: u32,
}

/// Journal-relevant facts about one function.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Impl type name, `""` for free functions.
    pub type_name: String,
    /// Function name.
    pub fn_name: String,
    /// A named mutator (`insert`/`delete`/...) in an `impl PssBackend for`
    /// block — obligated whenever the type is journaled.
    pub backend_mutator: bool,
    /// A public `&mut self` inherent method — obligated when the type is
    /// journaled *and* the fn may journal (transitively).
    pub candidate: bool,
    /// The body contains a `journal.record*` call somewhere (may-info).
    pub journals_direct: bool,
    /// The body touches `self.journal` at all (marks the type journaled).
    pub touches_journal: bool,
    /// Every call the body may make, keyed like [`JournalEvent::Call`].
    pub may_calls: Vec<(String, String)>,
    /// Ok-exits with their must-events.
    pub exits: Vec<ExitFacts>,
    /// Diagnostic anchor of the fn name.
    pub line: u32,
    /// Diagnostic anchor of the fn name.
    pub col: u32,
}

/// All journal facts extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Display path of the file.
    pub path: String,
    /// Facts for each analysed function, in source order.
    pub fns: Vec<FnFacts>,
}

/// Result of the global journal pass.
#[derive(Debug, Default)]
pub struct JournalOutcome {
    /// Uncovered exits of obligated mutators (waived exits excluded).
    pub diags: Vec<Diagnostic>,
    /// `(path, exit line)` of waivers that were load-bearing: the exit
    /// they cover is not otherwise provably journaled. The engine marks
    /// the matching pragmas used; any other journal waiver is stale.
    pub used_waivers: BTreeSet<(String, u32)>,
}

/// Close delegation across the workspace and report obligated mutators
/// with an uncovered ok-exit.
pub fn journal_fixpoint(files: &[FileFacts]) -> JournalOutcome {
    let all: Vec<(&str, &FnFacts)> =
        files.iter().flat_map(|f| f.fns.iter().map(move |x| (f.path.as_str(), x))).collect();

    // Relation 1: journaled types.
    let journaled: BTreeSet<&str> = all
        .iter()
        .filter(|(_, f)| f.touches_journal && !f.type_name.is_empty())
        .map(|(_, f)| f.type_name.as_str())
        .collect();

    // Relation 2: may-journal closure over the call graph.
    let mut may: BTreeSet<(String, String)> = all
        .iter()
        .filter(|(_, f)| f.journals_direct)
        .map(|(_, f)| (f.type_name.clone(), f.fn_name.clone()))
        .collect();
    loop {
        let mut changed = false;
        for (_, f) in &all {
            let key = (f.type_name.clone(), f.fn_name.clone());
            if may.contains(&key) {
                continue;
            }
            if f.may_calls.iter().any(|c| may.contains(c)) {
                may.insert(key);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Relation 3: always-journals closure over must-events.
    let mut covered: BTreeSet<(String, String)> = BTreeSet::new();
    let exit_ok = |e: &ExitFacts, covered: &BTreeSet<(String, String)>| {
        e.noop
            || e.waived
            || e.events.iter().any(|ev| match ev {
                JournalEvent::Direct => true,
                JournalEvent::Call(t, n) => covered.contains(&(t.clone(), n.clone())),
            })
    };
    loop {
        let mut changed = false;
        for (_, f) in &all {
            let key = (f.type_name.clone(), f.fn_name.clone());
            if covered.contains(&key) {
                continue;
            }
            // A fn with no ok-exits journals vacuously (diverges/errors).
            let ok = !f.exits.is_empty() && f.exits.iter().all(|e| exit_ok(e, &covered));
            if ok {
                covered.insert(key);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Who is actually queried through relation 3 (waiver relevance).
    let referenced: BTreeSet<(String, String)> = all
        .iter()
        .flat_map(|(_, f)| f.exits.iter())
        .flat_map(|e| e.events.iter())
        .filter_map(|ev| match ev {
            JournalEvent::Call(t, n) => Some((t.clone(), n.clone())),
            JournalEvent::Direct => None,
        })
        .collect();

    let obligated = |f: &FnFacts| {
        journaled.contains(f.type_name.as_str())
            && (f.backend_mutator
                || (f.candidate && may.contains(&(f.type_name.clone(), f.fn_name.clone()))))
    };

    let mut out = JournalOutcome::default();
    for (path, f) in &all {
        let is_obl = obligated(f);
        let is_ref = referenced.contains(&(f.type_name.clone(), f.fn_name.clone()));
        for e in &f.exits {
            let covered_hard = e.noop
                || e.events.iter().any(|ev| match ev {
                    JournalEvent::Direct => true,
                    JournalEvent::Call(t, n) => covered.contains(&(t.clone(), n.clone())),
                });
            if covered_hard {
                continue;
            }
            if e.waived {
                if is_obl || is_ref {
                    out.used_waivers.insert((path.to_string(), e.line));
                }
                continue;
            }
            if is_obl {
                out.diags.push(Diagnostic {
                    rule: rule_ids::JOURNAL_COMPLETENESS,
                    path: path.to_string(),
                    line: e.line,
                    col: e.col,
                    message: format!(
                        "`{}{}{}` is a journaled mutator, but this exit path can return \
                         without reaching a `journal.record*` call (directly or via a callee \
                         that always journals); record the delta before returning, or \
                         `pss-lint: allow(journal-completeness)` with the invariant",
                        if f.type_name.is_empty() { "" } else { f.type_name.as_str() },
                        if f.type_name.is_empty() { "" } else { "::" },
                        f.fn_name
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exit(events: Vec<JournalEvent>, noop: bool, waived: bool, line: u32) -> ExitFacts {
        ExitFacts { events, noop, waived, line, col: 1 }
    }

    fn backend_fn(ty: &str, name: &str, exits: Vec<ExitFacts>) -> FnFacts {
        FnFacts {
            type_name: ty.into(),
            fn_name: name.into(),
            backend_mutator: true,
            touches_journal: true,
            exits,
            ..FnFacts::default()
        }
    }

    #[test]
    fn delegation_closes_across_files() {
        // Backend `insert` must-calls `try_insert`, which records directly
        // on its one ok-exit: no diagnostics.
        let call = JournalEvent::Call("S".into(), "try_insert".into());
        let files = vec![FileFacts {
            path: "a.rs".into(),
            fns: vec![
                backend_fn("S", "insert", vec![exit(vec![call], false, false, 3)]),
                FnFacts {
                    type_name: "S".into(),
                    fn_name: "try_insert".into(),
                    candidate: true,
                    journals_direct: true,
                    touches_journal: true,
                    exits: vec![exit(vec![JournalEvent::Direct], false, false, 9)],
                    line: 8,
                    ..FnFacts::default()
                },
            ],
        }];
        let out = journal_fixpoint(&files);
        assert!(out.diags.is_empty(), "{:?}", out.diags);
    }

    #[test]
    fn uncovered_exit_reports_and_unjournaled_type_is_exempt() {
        // `N` never touches self.journal: its bare mutator is fine.
        // `S` does: its record-free exit is a diagnostic.
        let files = vec![FileFacts {
            path: "b.rs".into(),
            fns: vec![
                backend_fn("S", "delete", vec![exit(vec![], false, false, 5)]),
                FnFacts {
                    type_name: "N".into(),
                    fn_name: "delete".into(),
                    backend_mutator: true,
                    exits: vec![exit(vec![], false, false, 11)],
                    ..FnFacts::default()
                },
            ],
        }];
        let out = journal_fixpoint(&files);
        assert_eq!(out.diags.len(), 1);
        assert_eq!(out.diags[0].line, 5);
    }

    #[test]
    fn noop_exits_and_waivers_cover_and_waivers_report_used() {
        let files = vec![FileFacts {
            path: "c.rs".into(),
            fns: vec![backend_fn(
                "S",
                "set_weight",
                vec![
                    exit(vec![], true, false, 4), // provable no-op
                    exit(vec![], false, true, 7), // waived
                    exit(vec![JournalEvent::Direct], false, false, 9),
                ],
            )],
        }];
        let out = journal_fixpoint(&files);
        assert!(out.diags.is_empty(), "{:?}", out.diags);
        assert!(out.used_waivers.contains(&("c.rs".to_string(), 7)));
    }

    #[test]
    fn candidate_without_may_journal_is_unobligated() {
        // A pub &mut self setter that never reaches journaling machinery
        // (e.g. a config knob) carries no obligation even on a journaled
        // type.
        let files = vec![FileFacts {
            path: "d.rs".into(),
            fns: vec![
                FnFacts {
                    type_name: "S".into(),
                    fn_name: "set_factor".into(),
                    candidate: true,
                    touches_journal: false,
                    exits: vec![exit(vec![], false, false, 2)],
                    ..FnFacts::default()
                },
                // Something else marks S journaled.
                FnFacts {
                    type_name: "S".into(),
                    fn_name: "try_insert".into(),
                    candidate: true,
                    journals_direct: true,
                    touches_journal: true,
                    exits: vec![exit(vec![JournalEvent::Direct], false, false, 8)],
                    ..FnFacts::default()
                },
            ],
        }];
        let out = journal_fixpoint(&files);
        assert!(out.diags.is_empty(), "{:?}", out.diags);
    }
}
