//! Per-file lint pipeline and workspace walker.
//!
//! Linting is two-phase. [`analyze_source`] runs everything that depends
//! only on one file — lexical rules, parse, CFG/dataflow semantic rules,
//! pragma suppression, and pragma hygiene — and compresses the result
//! into a [`FileAnalysis`]. [`finalize`] then runs the one genuinely
//! cross-file pass, the `journal-completeness` fixpoint of
//! [`crate::resolve`], over all files' facts, and settles the deferred
//! `unused-pragma` verdicts for journal waivers (whether a waiver is
//! load-bearing is only knowable after the fixpoint).

use crate::classify::{classify, FileClass, FileKind};
use crate::diag::{rules as ids, Diagnostic};
use crate::lexer::{lex, TokKind};
use crate::parse::parse_file;
use crate::pragma::{self, PragmaKind};
use crate::resolve::{journal_fixpoint, FileFacts};
use crate::rules::{exempt_spans, run_all, run_semantic, FileCtx};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// Result of a workspace (or file-set) lint run.
#[derive(Debug)]
pub struct Report {
    /// All surviving diagnostics, sorted by (path, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files lexed and checked (skipped files not counted).
    pub files_scanned: usize,
}

/// A `journal-completeness` waiver whose unused-pragma verdict is
/// deferred to [`finalize`]: only the cross-file fixpoint knows whether
/// the exit it covers actually needed waiving.
#[derive(Debug, Clone)]
pub struct PendingWaiver {
    /// Path of the file holding the pragma.
    pub path: String,
    /// `allow-file` (covers any exit in the file) vs line-scoped `allow`.
    pub file_wide: bool,
    /// For line-scoped waivers: the covered source line.
    pub covers_line: u32,
    /// Pragma anchor.
    pub line: u32,
    /// Pragma anchor.
    pub col: u32,
    /// The pragma's rule list, for the unused-pragma message.
    pub rules: String,
}

/// Everything one file contributes to a lint run.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    /// Local diagnostics, post-suppression, pragma hygiene included.
    pub diags: Vec<Diagnostic>,
    /// Journal facts feeding the cross-file fixpoint.
    pub facts: FileFacts,
    /// Journal waivers awaiting their fixpoint verdict.
    pub pending: Vec<PendingWaiver>,
}

/// Phase 1: analyse a single source text under an explicit
/// classification. Pure in (path_label, src, class).
pub fn analyze_source(path_label: &str, src: &str, class: &FileClass) -> FileAnalysis {
    let mut analysis = FileAnalysis::default();
    analysis.facts.path = path_label.to_string();
    if class.kind == FileKind::Skip {
        return analysis;
    }
    let toks = lex(src);
    let sig: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|(i, _)| i)
        .collect();
    let code_lines: BTreeSet<u32> = sig.iter().map(|&i| toks[i].line).collect();
    let last_line = src.lines().count() as u32;
    let pragmas = pragma::collect(src, &toks, &|l| code_lines.contains(&l), last_line);
    let hot = pragmas.iter().any(|p| p.kind == PragmaKind::HotPath);
    let exempt = exempt_spans(src, &toks, &sig);
    let in_exempt = |line: u32, col: u32| -> bool {
        toks.iter()
            .find(|t| t.line == line && t.col == col)
            .map(|t| exempt.iter().any(|&(a, b)| t.start >= a && t.start < b))
            .unwrap_or(false)
    };

    let ctx =
        FileCtx { src, toks: &toks, sig: &sig, class, hot, exempt: &exempt, path: path_label };
    let mut raw = Vec::new();
    run_all(&ctx, &mut raw);
    if class.kind == FileKind::Lib {
        let file = parse_file(src, &toks, &sig);
        analysis.facts = run_semantic(&ctx, &file, &pragmas, &mut raw);
    }

    // Apply suppressions.
    'diags: for d in raw {
        for p in &pragmas {
            let matches_rule = p.rules.iter().any(|r| r == d.rule);
            if p.error.is_none() && matches_rule {
                let covers = match p.kind {
                    PragmaKind::Allow => p.covers_line == d.line,
                    PragmaKind::AllowFile => true,
                    PragmaKind::HotPath | PragmaKind::FaultWindow => false,
                };
                if covers {
                    p.used.set(true);
                    continue 'diags;
                }
            }
        }
        analysis.diags.push(d);
    }

    // Pragma hygiene. Pragmas inside test-gated items are inert, not errors.
    // Scope markers (hot-path, fault-window) never suppress, so they are
    // exempt from unused-pragma; journal waivers defer to the fixpoint.
    for p in &pragmas {
        if in_exempt(p.line, p.col) {
            continue;
        }
        if let Some(err) = &p.error {
            analysis.diags.push(Diagnostic {
                rule: ids::BAD_PRAGMA,
                path: path_label.to_string(),
                line: p.line,
                col: p.col,
                message: err.clone(),
            });
            continue;
        }
        if matches!(p.kind, PragmaKind::HotPath | PragmaKind::FaultWindow) || p.used.get() {
            continue;
        }
        if p.rules.iter().any(|r| r == ids::JOURNAL_COMPLETENESS) {
            analysis.pending.push(PendingWaiver {
                path: path_label.to_string(),
                file_wide: p.kind == PragmaKind::AllowFile,
                covers_line: p.covers_line,
                line: p.line,
                col: p.col,
                rules: p.rules.join(", "),
            });
        } else {
            analysis.diags.push(Diagnostic {
                rule: ids::UNUSED_PRAGMA,
                path: path_label.to_string(),
                line: p.line,
                col: p.col,
                message: format!(
                    "pragma allows {} but suppressed nothing; remove it or move it to the offending line",
                    p.rules.join(", ")
                ),
            });
        }
    }
    analysis
}

/// Phase 2: run the cross-file journal fixpoint, settle deferred waiver
/// verdicts, and return the sorted merged diagnostics.
pub fn finalize(analyses: Vec<FileAnalysis>) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let mut pending = Vec::new();
    let mut facts = Vec::with_capacity(analyses.len());
    for a in analyses {
        diagnostics.extend(a.diags);
        pending.extend(a.pending);
        facts.push(a.facts);
    }
    let outcome = journal_fixpoint(&facts);
    diagnostics.extend(outcome.diags);
    for w in pending {
        let used = outcome
            .used_waivers
            .iter()
            .any(|(p, l)| *p == w.path && (w.file_wide || *l == w.covers_line));
        if !used {
            diagnostics.push(Diagnostic {
                rule: ids::UNUSED_PRAGMA,
                path: w.path,
                line: w.line,
                col: w.col,
                message: format!(
                    "pragma allows {} but suppressed nothing; remove it or move it to the offending line",
                    w.rules
                ),
            });
        }
    }
    diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    diagnostics
}

/// Lint a single source text end to end (both phases, a one-file
/// "workspace"). This is the entry point fixture tests use.
pub fn lint_source(path_label: &str, src: &str, class: &FileClass) -> Vec<Diagnostic> {
    finalize(vec![analyze_source(path_label, src, class)])
}

/// Recursively collect the workspace's `.rs` files, relative to `root`.
/// Skips `target/`, VCS metadata, shims, and lint fixtures.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(&dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if matches!(name, "target" | ".git" | ".github" | "shims" | "fixtures") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint every classified file under `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = workspace_files(root)?;
    let mut analyses = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let class = classify(&rel);
        if class.kind == FileKind::Skip {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        analyses.push(analyze_source(&rel, &src, &class));
    }
    let files_scanned = analyses.len();
    Ok(Report { diagnostics: finalize(analyses), files_scanned })
}
