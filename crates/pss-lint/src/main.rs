//! `pss-lint` CLI.
//!
//! ```text
//! pss-lint check [--workspace] [--root PATH] [--format human|json] [--max-ms N] [FILES...]
//! pss-lint rules
//! ```
//!
//! `check` exits 0 when clean, 1 on any diagnostic (or when the run exceeds
//! `--max-ms`), 2 on usage/IO errors. The JSON format is a single object:
//! `{"files": n, "elapsed_ms": t, "rules": [...], "diagnostics": [...]}`.

#![forbid(unsafe_code)]
// Instant sanctioned: pss-lint is a build-time tool; wall-clock here feeds the CI "< 5 s" bench guard.
#![allow(clippy::disallowed_types)]

use pss_lint::{classify, lint_source, lint_workspace, FileKind, META_RULES, RULES};
use std::path::PathBuf;
use std::process::ExitCode;
// pss-lint is a build-time tool, not serving-path code: wall-clock timing
// here feeds the CI "< 5 s" bench guard, so Instant is sanctioned.
#[allow(clippy::disallowed_types)]
use std::time::Instant;

#[derive(Debug)]
struct Args {
    root: PathBuf,
    format: String,
    max_ms: Option<u128>,
    files: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: pss-lint check [--workspace] [--root PATH] [--format human|json] [--max-ms N] [FILES...]\n       pss-lint rules"
}

fn parse_args(argv: &[String]) -> Result<(String, Args), String> {
    let mut it = argv.iter().peekable();
    let cmd = it.next().cloned().ok_or_else(|| usage().to_string())?;
    let mut args = Args {
        root: PathBuf::from("."),
        format: "human".to_string(),
        max_ms: None,
        files: Vec::new(),
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => {} // default behaviour; kept for explicitness
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a value")?.as_str());
            }
            "--format" => {
                let f = it.next().ok_or("--format needs a value")?;
                if f != "human" && f != "json" {
                    return Err(format!("unknown format `{f}`"));
                }
                args.format = f.clone();
            }
            "--max-ms" => {
                let v = it.next().ok_or("--max-ms needs a value")?;
                args.max_ms = Some(v.parse::<u128>().map_err(|e| format!("--max-ms: {e}"))?);
            }
            f if !f.starts_with('-') => args.files.push(PathBuf::from(f)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((cmd, args))
}

fn print_rules() {
    println!("pss-lint enforces {} workspace rules:", RULES.len());
    for r in RULES {
        println!("  {:<26} {}", r.id, r.summary);
        println!("  {:<26}   scope: {}", "", r.scope);
    }
    println!("plus {} always-on pragma-hygiene checks:", META_RULES.len());
    for r in META_RULES {
        println!("  {:<26} {}", r.id, r.summary);
    }
    println!("\nsuppression: // pss-lint: allow(<rule>) — <reason>   (same line or line above)");
    println!("file-level:  // pss-lint: allow-file(<rule>) — <reason>");
    println!(
        "hot-path:    // pss-lint: hot-path — <note>   (opts the file into no-alloc-hot-path)"
    );
}

fn run_check(args: &Args) -> Result<ExitCode, String> {
    let started = Instant::now();
    let report = if args.files.is_empty() {
        lint_workspace(&args.root).map_err(|e| format!("workspace scan: {e}"))?
    } else {
        let mut diagnostics = Vec::new();
        for f in &args.files {
            let rel = f.strip_prefix(&args.root).unwrap_or(f).to_string_lossy().replace('\\', "/");
            let class = classify(&rel);
            if class.kind == FileKind::Skip {
                // Workspace scans skip silently; an explicitly named file
                // deserves a note (shims and fixtures are never linted).
                eprintln!("pss-lint: note: `{rel}` is outside the lint scope, skipping");
                continue;
            }
            let src = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            diagnostics.extend(lint_source(&rel, &src, &class));
        }
        pss_lint::Report { diagnostics, files_scanned: args.files.len() }
    };
    let elapsed_ms = started.elapsed().as_millis();

    if args.format == "json" {
        let rules: Vec<String> = RULES.iter().map(|r| format!("\"{}\"", r.id)).collect();
        let diags: Vec<String> = report.diagnostics.iter().map(|d| d.to_json()).collect();
        println!(
            "{{\"files\":{},\"elapsed_ms\":{},\"rules\":[{}],\"diagnostics\":[{}]}}",
            report.files_scanned,
            elapsed_ms,
            rules.join(","),
            diags.join(",")
        );
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        println!(
            "pss-lint: {} files scanned, {} diagnostics, {} rules enforced, {} ms",
            report.files_scanned,
            report.diagnostics.len(),
            RULES.len(),
            elapsed_ms
        );
    }
    if let Some(max) = args.max_ms {
        if elapsed_ms > max {
            eprintln!("pss-lint: run took {elapsed_ms} ms, budget is {max} ms");
            return Ok(ExitCode::from(1));
        }
    }
    Ok(if report.diagnostics.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, args) = match parse_args(&argv) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("pss-lint: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match cmd.as_str() {
        "rules" => {
            print_rules();
            ExitCode::SUCCESS
        }
        "check" => match run_check(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("pss-lint: {e}");
                ExitCode::from(2)
            }
        },
        other => {
            eprintln!("pss-lint: unknown command `{other}`\n{}", usage());
            ExitCode::from(2)
        }
    }
}
