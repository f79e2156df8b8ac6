//! The workspace-specific rules.
//!
//! Every rule works on the significant-token stream (comments stripped) of a
//! single file, with three pieces of context: the file's classification
//! (which crate, lib vs test code), whether it carries the
//! `// pss-lint: hot-path` annotation, and the `#[cfg(test)]`-exempt byte
//! spans computed by [`exempt_spans`].

use crate::classify::{FileClass, FileKind};
use crate::diag::{rules as ids, Diagnostic};
use crate::lexer::{is_keyword, TokKind, Token};

/// Crates whose library code carries the exactness discipline: panic-freedom,
/// audited narrowing, deterministic iteration.
pub const EXACT_CRATES: &[&str] = &["dpss", "pss-core", "wordram", "randvar", "bignum"];

/// Enums whose `match` coverage must stay exhaustive (adding a variant must
/// break the build, not fall into a `_` arm).
pub const WATCHED_ENUMS: &[&str] = &["Delta", "Replay", "StreamKind", "Op"];

/// Cast targets that can silently truncate a wider word-RAM value.
const LOSSY_CAST_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Allocation constructors banned under `// pss-lint: hot-path`.
/// `Method`: flagged as `.name(` or `.name::`; `PathNew`: flagged as
/// `Type::name`; `Macro`: flagged as `name!`; `AnyUse`: flagged anywhere.
const ALLOC_METHODS: &[&str] =
    &["push", "to_vec", "to_string", "to_owned", "collect", "clone", "extend", "resize"];
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("Rc", "new"),
    ("Arc", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
    ("VecDeque", "new"),
];
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Everything a rule needs to inspect one file.
#[derive(Debug)]
pub struct FileCtx<'s> {
    /// Raw source.
    pub src: &'s str,
    /// Full token stream (comments included).
    pub toks: &'s [Token],
    /// Indices into `toks` of non-comment tokens.
    pub sig: &'s [usize],
    /// Classification of this file.
    pub class: &'s FileClass,
    /// Whether the file carries the hot-path annotation.
    pub hot: bool,
    /// Byte spans exempt from panic/index/cast/alloc/iteration rules
    /// (`#[cfg(test)]`/`#[test]` items inside library files).
    pub exempt: &'s [(usize, usize)],
    /// Workspace-relative path label for diagnostics.
    pub path: &'s str,
}

impl FileCtx<'_> {
    fn tok(&self, sig_idx: usize) -> &Token {
        &self.toks[self.sig[sig_idx]]
    }

    fn text(&self, sig_idx: usize) -> &str {
        self.tok(sig_idx).text(self.src)
    }

    fn is_exempt(&self, sig_idx: usize) -> bool {
        let p = self.tok(sig_idx).start;
        self.exempt.iter().any(|&(a, b)| p >= a && p < b)
    }

    fn diag(&self, rule: &'static str, sig_idx: usize, message: String) -> Diagnostic {
        let t = self.tok(sig_idx);
        Diagnostic { rule, path: self.path.to_string(), line: t.line, col: t.col, message }
    }

    fn is_lib_of(&self, crates: &[&str]) -> bool {
        self.class.kind == FileKind::Lib && crates.iter().any(|c| *c == self.class.crate_name)
    }
}

/// Run every applicable rule on one file.
pub fn run_all(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.is_lib_of(EXACT_CRATES) {
        no_panic_paths(ctx, out);
        no_bare_index(ctx, out);
        no_lossy_cast(ctx, out);
    }
    if ctx.is_lib_of(&["dpss", "pss-core", "wordram", "randvar", "bignum", "baselines"]) {
        deterministic_iteration(ctx, out);
    }
    if ctx.class.kind == FileKind::Lib && ctx.class.crate_name != "wordram" {
        no_bare_shift(ctx, out);
    }
    if ctx.hot {
        no_alloc_hot_path(ctx, out);
    }
    // Exhaustiveness matters in tests too: a `_` arm in a test would silently
    // skip a new journal variant instead of failing to compile.
    no_wildcard_delta(ctx, out);
}

/// Rule 1: `unwrap`/`expect` calls and panicking macros in library code.
fn no_panic_paths(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.sig.len() {
        if ctx.tok(i).kind != TokKind::Ident || ctx.is_exempt(i) {
            continue;
        }
        let name = ctx.text(i);
        let flagged = match name {
            // `.unwrap(` / `.expect(` — method position only, so local
            // helpers that merely *mention* these names are not flagged.
            "unwrap" | "expect" => {
                i > 0
                    && ctx.text(i - 1) == "."
                    && ctx.sig.get(i + 1).is_some_and(|_| ctx.text(i + 1) == "(")
            }
            // Panicking macros.
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                ctx.sig.get(i + 1).is_some_and(|_| ctx.text(i + 1) == "!")
            }
            _ => false,
        };
        if flagged {
            let what = if name == "unwrap" || name == "expect" {
                format!(".{name}() can panic")
            } else {
                format!("{name}! is a panic path")
            };
            out.push(ctx.diag(
                ids::NO_PANIC_PATHS,
                i,
                format!("{what}; return an error, guard the call, or pragma with the invariant that makes it unreachable"),
            ));
        }
    }
}

/// Rule 2: bare `expr[...]` indexing (panics on out-of-bounds).
///
/// Heuristic: a `[` whose previous significant token is an expression tail
/// (non-keyword identifier, `)`, `]`, or `?`) opens an index expression.
/// Array *types* (`[u64; 4]`), slice patterns, attributes (`#[...]`), and
/// macro bracket args (`vec![...]`) all have non-expression predecessors.
/// `x[..]` (full-range, cannot panic) is exempt.
fn no_bare_index(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 1..ctx.sig.len() {
        if ctx.text(i) != "[" || ctx.is_exempt(i) {
            continue;
        }
        let prev = ctx.tok(i - 1);
        let prev_text = prev.text(ctx.src);
        let expr_tail = match prev.kind {
            TokKind::Ident => !is_keyword(prev_text),
            TokKind::Punct => matches!(prev_text, ")" | "]" | "?"),
            _ => false,
        };
        if !expr_tail {
            continue;
        }
        // `x[..]` — RangeFull indexing never panics.
        if ctx.sig.get(i + 1).is_some_and(|_| ctx.text(i + 1) == "..")
            && ctx.sig.get(i + 2).is_some_and(|_| ctx.text(i + 2) == "]")
        {
            continue;
        }
        out.push(ctx.diag(
            ids::NO_BARE_INDEX,
            i,
            format!(
                "bare indexing after `{prev_text}` can panic; use get()/audited cursors, or pragma with the bound that holds"
            ),
        ));
    }
}

/// Rule 3: shifts by a non-literal amount outside wordram's audited helpers.
///
/// A `<<`/`>>` is flagged when its left neighbour is an expression tail and
/// its right neighbour is a non-literal operand — `x << 3` is statically
/// auditable, `1u64 << t` is the PR 2 wrap-bug class. `Vec<Vec<u64>>` is not
/// flagged: the token after the generic-closing `>>` is never an expression
/// head. `<<=`/`>>=` are always expression context and flagged on any
/// non-literal right-hand side.
fn no_bare_shift(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.sig.len() {
        let t = ctx.tok(i);
        if t.kind != TokKind::Punct {
            continue;
        }
        let op = ctx.text(i);
        let compound = matches!(op, "<<=" | ">>=");
        if !compound && !matches!(op, "<<" | ">>") {
            continue;
        }
        if ctx.is_exempt(i) {
            continue;
        }
        let Some(next) = ctx.sig.get(i + 1).map(|_| ctx.tok(i + 1)) else { continue };
        let next_text = next.text(ctx.src);
        if next.kind == TokKind::Int {
            continue; // literal shift amount: statically auditable
        }
        let next_is_operand = match next.kind {
            TokKind::Ident => (!is_keyword(next_text) || next_text == "self") && next_text != "_",
            TokKind::Punct => matches!(next_text, "(" | "*" | "!"),
            _ => false,
        };
        if !next_is_operand {
            continue;
        }
        // `collect::<Vec<T>>()` — a `>>` closing a turbofish is not a shift.
        if op == ">>" && closes_turbofish(ctx, i) {
            continue;
        }
        if !compound {
            let prev_is_expr = i > 0
                && match ctx.tok(i - 1).kind {
                    TokKind::Ident => !is_keyword(ctx.text(i - 1)),
                    TokKind::Int | TokKind::Float => true,
                    TokKind::Punct => matches!(ctx.text(i - 1), ")" | "]"),
                    _ => false,
                };
            if !prev_is_expr {
                continue;
            }
        }
        out.push(ctx.diag(
            ids::NO_BARE_SHIFT,
            i,
            format!(
                "`{op}` by a non-literal amount can wrap or panic (the slot_prob_num t>=60 bug class); use wordram's checked shift helpers"
            ),
        ));
    }
}

/// Does the `>>` at sig index `i` close a turbofish (`::<...>>`)? Walks
/// backwards balancing angle brackets; if the opening `<` matching our outer
/// `>` is preceded by `::`, this is generics syntax, not a shift.
fn closes_turbofish(ctx: &FileCtx<'_>, i: usize) -> bool {
    let mut bal = 2i32; // the two unmatched `>`s of our `>>`
    let mut k = i;
    while k > 0 && i - k < 64 {
        k -= 1;
        match ctx.text(k) {
            ">" => bal += 1,
            ">>" => bal += 2,
            "<" => {
                bal -= 1;
                // Either of our two `>`s may be closed by a `::<` opener; the
                // inner `<` of `collect::<Vec<_>>` belongs to `Vec` and is
                // passed over (bal 2 -> 1), the outer one hits `::` at bal 0.
                if bal <= 1 && k > 0 && ctx.text(k - 1) == "::" {
                    return true;
                }
                if bal <= 0 {
                    return false;
                }
            }
            "<<" => {
                bal -= 2;
                if bal <= 1 {
                    return false; // `<<` never opens generics
                }
            }
            ";" | "{" | "}" => return false,
            _ => {}
        }
    }
    false
}

/// Rule 4: `as` casts to a type that can truncate.
fn no_lossy_cast(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.sig.len().saturating_sub(1) {
        if ctx.tok(i).kind != TokKind::Ident || ctx.text(i) != "as" || ctx.is_exempt(i) {
            continue;
        }
        let target = ctx.text(i + 1);
        if ctx.tok(i + 1).kind == TokKind::Ident && LOSSY_CAST_TARGETS.contains(&target) {
            out.push(ctx.diag(
                ids::NO_LOSSY_CAST,
                i,
                format!(
                    "`as {target}` can truncate; use an audited narrowing helper or pragma with why the value fits"
                ),
            ));
        }
    }
}

/// Rule 5: allocation constructors in hot-path-annotated modules.
fn no_alloc_hot_path(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.sig.len() {
        if ctx.tok(i).kind != TokKind::Ident || ctx.is_exempt(i) {
            continue;
        }
        let name = ctx.text(i);
        let next = ctx.sig.get(i + 1).map(|_| ctx.text(i + 1));
        let prev = i.checked_sub(1).map(|p| ctx.text(p));
        let hit = if ALLOC_MACROS.contains(&name) && next == Some("!") {
            Some(format!("{name}! allocates"))
        } else if ALLOC_METHODS.contains(&name)
            && prev == Some(".")
            && matches!(next, Some("(") | Some("::"))
        {
            Some(format!(".{name}() allocates (or is an owning-type method)"))
        } else if next == Some("::")
            && ctx.sig.get(i + 2).is_some() // path form `Type::ctor`
            && ALLOC_PATHS.iter().any(|(ty, ctor)| *ty == name && *ctor == ctx.text(i + 2))
        {
            Some(format!("{}::{} allocates", name, ctx.text(i + 2)))
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(ctx.diag(
                ids::NO_ALLOC_HOT_PATH,
                i,
                format!(
                    "{what} inside a hot-path module; steady-state update/query code must reuse arena/pool storage (pragma sanctioned cold paths)"
                ),
            ));
        }
    }
}

/// Rule 6: `_` wildcard arms in matches over the watched enums.
fn no_wildcard_delta(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.sig.len() {
        if ctx.tok(i).kind != TokKind::Ident || ctx.text(i) != "match" {
            continue;
        }
        // `match` as a path segment (`Foo::match`?) is impossible; raw ident
        // `r#match` lexes separately. Find the body `{` at depth 0 relative
        // to the scrutinee (parens/brackets may nest; bare struct literals
        // cannot appear in scrutinee position).
        let mut depth = 0i32;
        let mut body_start = None;
        for j in i + 1..ctx.sig.len() {
            match ctx.text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    body_start = Some(j);
                    break;
                }
                ";" if depth == 0 => break, // not a match expression after all
                _ => {}
            }
        }
        let Some(body) = body_start else { continue };
        // Walk the body, collecting arm patterns at depth 0.
        let mut arms: Vec<(usize, usize)> = Vec::new(); // sig ranges of patterns
        let mut depth = 0i32;
        let mut pat_start = body + 1;
        let mut j = body + 1;
        let mut body_end = ctx.sig.len();
        while j < ctx.sig.len() {
            let txt = ctx.text(j);
            match txt {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth -= 1,
                "}" => {
                    if depth == 0 {
                        body_end = j;
                        break;
                    }
                    // Closing a struct-pattern brace inside an arm pattern.
                    depth -= 1;
                }
                "=>" if depth == 0 => {
                    arms.push((pat_start, j));
                    // Skip the arm expression: block arms end at their `}`,
                    // expression arms at a depth-0 `,`.
                    let mut k = j + 1;
                    let block_arm = k < ctx.sig.len() && ctx.text(k) == "{";
                    let mut edepth = 0i32;
                    while k < ctx.sig.len() {
                        match ctx.text(k) {
                            "(" | "[" | "{" => edepth += 1,
                            ")" | "]" => edepth -= 1,
                            "}" => {
                                edepth -= 1;
                                if block_arm && edepth == 0 {
                                    k += 1;
                                    break;
                                }
                                if edepth < 0 {
                                    break; // body `}`
                                }
                            }
                            "," if edepth == 0 => {
                                k += 1;
                                break;
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    // A block arm's optional trailing `,`.
                    if k < ctx.sig.len() && ctx.text(k) == "," {
                        k += 1;
                    }
                    pat_start = k;
                    j = k;
                    continue;
                }
                _ => {}
            }
            j += 1;
        }
        // Is any arm pattern a watched-enum variant path?
        let watched = arms.iter().any(|&(a, b)| {
            (a..b).any(|k| {
                ctx.tok(k).kind == TokKind::Ident
                    && WATCHED_ENUMS.contains(&ctx.text(k))
                    && k + 1 < b
                    && ctx.text(k + 1) == "::"
            })
        });
        if !watched {
            continue;
        }
        let enum_names: Vec<&str> = WATCHED_ENUMS
            .iter()
            .copied()
            .filter(|e| {
                (body..body_end).any(|k| ctx.tok(k).kind == TokKind::Ident && ctx.text(k) == *e)
            })
            .collect();
        // Flag `_` alternatives at the top level of any arm pattern.
        for &(a, b) in &arms {
            // Split the pattern (before a depth-0 `if` guard) on depth-0 `|`.
            let mut depth = 0i32;
            let mut alt_start = a;
            let mut alts: Vec<(usize, usize)> = Vec::new();
            let mut end = b;
            for k in a..b {
                match ctx.text(k) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "|" if depth == 0 => {
                        alts.push((alt_start, k));
                        alt_start = k + 1;
                    }
                    "if" if depth == 0 && ctx.tok(k).kind == TokKind::Ident => {
                        end = k;
                        break;
                    }
                    _ => {}
                }
            }
            alts.push((alt_start, end));
            for (s, e) in alts {
                if e == s + 1 && ctx.text(s) == "_" {
                    out.push(ctx.diag(
                        ids::NO_WILDCARD_DELTA,
                        s,
                        format!(
                            "`_` arm in a match over {} hides future variants; list every variant so additions fail loudly at compile time",
                            enum_names.join("/")
                        ),
                    ));
                }
            }
        }
    }
}

/// Rule 7: `HashMap`/`HashSet` anywhere a sample can observe iteration order.
fn deterministic_iteration(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.sig.len() {
        if ctx.tok(i).kind != TokKind::Ident || ctx.is_exempt(i) {
            continue;
        }
        let name = ctx.text(i);
        if name == "HashMap" || name == "HashSet" {
            out.push(ctx.diag(
                ids::DETERMINISTIC_ITERATION,
                i,
                format!(
                    "{name} iteration order is nondeterministic and can leak into sample distributions; use BTreeMap/BTreeSet or a sorted structure"
                ),
            ));
        }
    }
}

/// Byte spans of items gated to test builds: any item whose attributes
/// contain the identifier `test` (`#[test]`, `#[cfg(test)]`,
/// `#[cfg(any(test, …))]`). The span runs from the attribute's `#` to the
/// item's closing `}` or `;`.
pub fn exempt_spans(src: &str, toks: &[Token], sig: &[usize]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let text = |k: usize| toks[sig[k]].text(src);
    let mut i = 0usize;
    while i < sig.len() {
        if !(text(i) == "#" && i + 1 < sig.len() && text(i + 1) == "[") {
            i += 1;
            continue;
        }
        let attr_start_byte = toks[sig[i]].start;
        // Scan the attribute `[...]`.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut has_test = false;
        while j < sig.len() {
            match text(j) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                t if toks[sig[j]].kind == TokKind::Ident && t == "test" => {
                    // `#[cfg(not(test))]` gates *non*-test code.
                    let negated = j >= 2 && text(j - 1) == "(" && text(j - 2) == "not";
                    if !negated {
                        has_test = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if !has_test {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then find the item's end: the first
        // depth-0 `;`, or the close of the first depth-0 `{…}` block that
        // isn't part of an initializer expression (no `=` seen before it).
        let mut k = j + 1;
        while k + 1 < sig.len() && text(k) == "#" && text(k + 1) == "[" {
            let mut d = 0i32;
            while k < sig.len() {
                match text(k) {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let mut d = 0i32;
        let mut eq_seen = false;
        let mut end_byte = src.len();
        while k < sig.len() {
            match text(k) {
                "(" | "[" => d += 1,
                ")" | "]" => d -= 1,
                "=" if d == 0 => eq_seen = true,
                ";" if d == 0 => {
                    end_byte = toks[sig[k]].end;
                    break;
                }
                "{" => {
                    if d == 0 && !eq_seen {
                        // Item body: skip to the matching `}`.
                        let mut bd = 0i32;
                        while k < sig.len() {
                            match text(k) {
                                "(" | "[" | "{" => bd += 1,
                                ")" | "]" => bd -= 1,
                                "}" => {
                                    bd -= 1;
                                    if bd == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                        end_byte = toks.get(sig[k.min(sig.len() - 1)]).map_or(src.len(), |t| t.end);
                        break;
                    }
                    d += 1;
                }
                "}" => d -= 1,
                _ => {}
            }
            k += 1;
        }
        spans.push((attr_start_byte, end_byte));
        i = k + 1;
    }
    spans
}

// ===========================================================================
// Semantic rules: parse → CFG → dataflow. Everything below works on the
// lightweight AST (`crate::ast`) and the per-fn CFG (`crate::cfg`), and runs
// only for `FileKind::Lib` files (tests are free to violate mutation
// discipline). Closure bodies are opaque to the dataflow rules — a closure
// runs in its own scope — with one exception: codec-symmetry splices
// *let-bound* codec closures at their call sites.
// ===========================================================================

use crate::ast::{Block as AstBlock, Expr, ExprKind, FnItem, ImplBlock, Receiver, SrcFile};
use crate::cfg::{Cfg, ExitKind, Step};
use crate::dataflow::{forward, replay, Analysis};
use crate::pragma::{Pragma, PragmaKind};
use crate::resolve::{ExitFacts, FileFacts, FnFacts, JournalEvent};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose backends carry the journaling obligation.
pub const JOURNAL_CRATES: &[&str] = &["dpss", "pss-core", "baselines"];

/// Crates under the float-exactness discipline. `bignum` is excluded: it
/// *implements* the certified API, so its internals are raw by necessity
/// and audited by its own proptest suite.
pub const FLOAT_CRATES: &[&str] = &["dpss", "pss-core", "baselines", "randvar"];

/// `PssBackend` trait methods that mutate sampler state.
pub const MUTATOR_NAMES: &[&str] =
    &["insert", "insert_many", "delete", "set_weight", "scale_all_weights"];

/// Run the semantic rules on one parsed file; returns the journal facts
/// feeding the workspace fixpoint. Local findings are appended to `out`.
pub fn run_semantic(
    ctx: &FileCtx<'_>,
    file: &SrcFile,
    pragmas: &[Pragma],
    out: &mut Vec<Diagnostic>,
) -> FileFacts {
    let mut facts = FileFacts { path: ctx.path.to_string(), fns: Vec::new() };
    if ctx.class.kind != FileKind::Lib {
        return facts;
    }
    let journal_scope = ctx.is_lib_of(JOURNAL_CRATES);
    let float_scope = ctx.is_lib_of(FLOAT_CRATES);
    let fault_marks: BTreeSet<u32> = pragmas
        .iter()
        .filter(|p| p.kind == PragmaKind::FaultWindow)
        .map(|p| p.covers_line)
        .collect();
    let waives = |line: u32| {
        pragmas.iter().any(|p| {
            p.error.is_none()
                && p.rules.iter().any(|r| r == ids::JOURNAL_COMPLETENESS)
                && match p.kind {
                    PragmaKind::AllowFile => true,
                    PragmaKind::Allow => p.covers_line == line,
                    PragmaKind::HotPath | PragmaKind::FaultWindow => false,
                }
        })
    };
    let mut codec = CodecIndex::default();
    file.for_each_fn(&mut |imp, f| {
        if f.test_gated || f.parse_failed {
            return;
        }
        codec_collect(imp, f, &mut codec);
        let Some(cfg) = Cfg::build(f) else { return };
        if journal_scope {
            facts.fns.push(journal_facts(imp, f, &cfg, &waives));
        }
        // `*_f64_bounds` certifiers are the trust boundary of the float
        // discipline: their bodies *construct* brackets from directed
        // rounding, so raw arithmetic there is by design (and audited by
        // the bracket-validation tests), exactly like `bignum` internals.
        if float_scope && !f.name.ends_with("_f64_bounds") {
            float_taint(ctx, f, &cfg, out);
        }
        poison_discipline(ctx, f, &cfg, &fault_marks, out);
    });
    codec_check(ctx, &codec, out);
    facts
}

// ---------------------------------------------------------------------------
// journal-completeness: per-fn fact extraction (the fixpoint lives in
// `crate::resolve`).
// ---------------------------------------------------------------------------

/// Is this a `journal.record*` / `self.journal.record*` call?
fn is_record_call(e: &Expr) -> bool {
    if let ExprKind::MethodCall { recv, name, .. } = &e.kind {
        if name.starts_with("record") {
            return match &recv.kind {
                ExprKind::Field { name, .. } => name == "journal",
                ExprKind::Path(_) => recv.path_last() == Some("journal"),
                _ => false,
            };
        }
    }
    false
}

/// The `(type, fn)` key of a call expression, using the delegation shapes
/// the workspace actually uses: `self.x(..)`, `Type::x(self, ..)`,
/// `Self::x(..)`, and free `x(..)`.
fn call_key(self_ty: &str, e: &Expr) -> Option<(String, String)> {
    match &e.kind {
        ExprKind::MethodCall { recv, name, .. } if recv.path_last() == Some("self") => {
            Some((self_ty.to_string(), name.clone()))
        }
        ExprKind::Call { callee, .. } => {
            let ExprKind::Path(segs) = &callee.kind else { return None };
            match segs.as_slice() {
                [n] => Some((String::new(), n.clone())),
                [.., t, n] if t == "Self" => Some((self_ty.to_string(), n.clone())),
                [.., t, n] if t.starts_with(|c: char| c.is_ascii_uppercase()) => {
                    Some((t.clone(), n.clone()))
                }
                [.., _, n] => Some((String::new(), n.clone())),
                [] => None,
            }
        }
        _ => None,
    }
}

/// Must-analysis: the set of journaling events observed on every path.
struct MustJournal<'f> {
    self_ty: &'f str,
}

impl<'a> Analysis<'a> for MustJournal<'_> {
    type State = BTreeSet<JournalEvent>;

    fn boundary(&self) -> Self::State {
        BTreeSet::new()
    }

    fn meet(&self, a: &Self::State, b: &Self::State) -> Self::State {
        a.intersection(b).cloned().collect()
    }

    fn transfer(&self, step: &Step<'a>, state: &mut Self::State) {
        let Some(e) = step.expr() else { return };
        e.walk_pruned(&mut |x| {
            if is_record_call(x) {
                state.insert(JournalEvent::Direct);
            } else if let Some((t, n)) = call_key(self.self_ty, x) {
                state.insert(JournalEvent::Call(t, n));
            }
        });
    }
}

/// Is this returned value a provable no-op (`None`, `false`, empty vec —
/// optionally wrapped in `Ok`)? Such an exit mutated nothing, so the
/// journal owes no delta.
fn is_noop_value(v: Option<&Expr>) -> bool {
    let Some(v) = v else { return false };
    match &v.kind {
        ExprKind::Path(_) => v.path_last() == Some("None"),
        ExprKind::BoolLit(b) => !*b,
        ExprKind::Call { callee, args } => match callee.path_last() {
            Some("Ok") | Some("Some") if args.len() == 1 => is_noop_value(args.first()),
            Some("new") | Some("default") => true,
            _ => false,
        },
        _ => false,
    }
}

/// Extract [`FnFacts`] for one function.
fn journal_facts(
    imp: Option<&ImplBlock>,
    f: &FnItem,
    cfg: &Cfg<'_>,
    waives: &dyn Fn(u32) -> bool,
) -> FnFacts {
    let type_name = imp.map(|i| i.type_name.clone()).unwrap_or_default();
    let mut facts = FnFacts {
        backend_mutator: imp.and_then(|i| i.trait_name.as_deref()) == Some("PssBackend")
            && MUTATOR_NAMES.contains(&f.name.as_str()),
        candidate: imp.is_some_and(|i| i.trait_name.is_none())
            && f.is_pub
            && f.receiver == Receiver::RefMut,
        type_name,
        fn_name: f.name.clone(),
        line: f.line,
        col: f.col,
        ..FnFacts::default()
    };
    // May-info over the whole body, closures included: a record inside a
    // closure is still evidence the fn participates in journaling.
    let mut may = BTreeSet::new();
    if let Some(body) = &f.body {
        body.walk_exprs(&mut |x| {
            if is_record_call(x) {
                facts.journals_direct = true;
            }
            if let ExprKind::Field { base, name } = &x.kind {
                if name == "journal" && base.path_last() == Some("self") {
                    facts.touches_journal = true;
                }
            }
            if let Some(key) = call_key(&facts.type_name, x) {
                may.insert(key);
            }
        });
    }
    facts.may_calls = may.into_iter().collect();

    let analysis = MustJournal { self_ty: &facts.type_name };
    let entries = forward(cfg, &analysis);
    for (b, info) in cfg.exits() {
        if info.kind != ExitKind::Ok {
            continue;
        }
        let Some(entry) = &entries[b] else { continue }; // unreachable
        let state = replay(cfg, &analysis, b, entry, &mut |_, _| {});
        facts.exits.push(ExitFacts {
            events: state.into_iter().collect(),
            noop: is_noop_value(info.value),
            waived: waives(info.line),
            line: info.line,
            col: info.col,
        });
    }
    facts
}

// ---------------------------------------------------------------------------
// float-taint: forward may-analysis over local variables.
// ---------------------------------------------------------------------------

/// Float lattice: `Not < Clean < Tainted`; join is max.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Taint {
    /// Not a float (or untracked — opaque values never taint).
    Not,
    /// A float with a certificate: literal, f64 parameter, or the result
    /// of the certified bounds API.
    Clean,
    /// Produced by raw float arithmetic — its rounding is unaudited.
    Tainted,
}

/// Certified combinators: both clean sources and sinks whose inputs must
/// themselves be certified for the result to mean anything.
const CERTIFIED_COMBINATORS: &[&str] =
    &["mul_down", "mul_up", "div_down", "div_up", "pow2f", "pow2_scaled"];

/// Coin-flip entry points: a tainted probability here biases sampling.
fn is_coin_name(name: &str) -> bool {
    name.starts_with("ber_") || name == "gen_bool" || name == "bernoulli"
}

fn is_floaty_ty(ty: &str) -> bool {
    ty.contains("f64") || ty.contains("f32")
}

/// Taint of an expression under the current variable state.
fn taint_of(e: &Expr, st: &BTreeMap<String, Taint>) -> Taint {
    match &e.kind {
        ExprKind::FloatLit => Taint::Clean,
        ExprKind::Path(segs) => match segs.as_slice() {
            [v] => st.get(v).copied().unwrap_or(Taint::Not),
            _ => Taint::Not,
        },
        ExprKind::Binary { op: crate::ast::BinOp::Arith, lhs, rhs } => {
            let t = taint_of(lhs, st).max(taint_of(rhs, st));
            if t >= Taint::Clean {
                Taint::Tainted // float arithmetic rounds: the result is raw
            } else {
                Taint::Not
            }
        }
        ExprKind::Binary { .. } => Taint::Not,
        ExprKind::Unary { expr } | ExprKind::Try { expr } => taint_of(expr, st),
        ExprKind::Cast { expr, ty } => {
            let t = taint_of(expr, st);
            if is_floaty_ty(ty) {
                t.max(Taint::Clean) // `int as f64` is exact below 2^53; audited at use sites
            } else if t == Taint::Tainted {
                Taint::Tainted // a float-derived integer still carries the bias
            } else {
                Taint::Not
            }
        }
        ExprKind::MethodCall { recv, name, args } => {
            let rt = taint_of(recv, st);
            match name.as_str() {
                "to_f64_lossy" => Taint::Tainted,
                n if n.contains("f64_bounds") => Taint::Clean,
                "next_down" | "next_up" => rt.max(Taint::Clean),
                "min" | "max" | "clamp" | "abs" | "floor" | "ceil" | "round" | "trunc" => {
                    args.iter().map(|a| taint_of(a, st)).fold(rt, Taint::max)
                }
                "sqrt" | "ln" | "log2" | "log10" | "exp" | "powf" | "powi" | "recip" | "exp_m1"
                | "ln_1p" | "hypot" | "cbrt" => {
                    if rt >= Taint::Clean {
                        Taint::Tainted
                    } else {
                        Taint::Not
                    }
                }
                n if n.ends_with("_f64") => Taint::Tainted,
                _ => Taint::Not,
            }
        }
        ExprKind::Call { callee, .. } => {
            let ExprKind::Path(segs) = &callee.kind else { return Taint::Not };
            let first = segs.first().map(String::as_str).unwrap_or("");
            let last = segs.last().map(String::as_str).unwrap_or("");
            if last.contains("f64_bounds")
                || CERTIFIED_COMBINATORS.contains(&last)
                || first == "Bits64"
                || first == "f64"
            {
                Taint::Clean
            } else {
                Taint::Not
            }
        }
        ExprKind::Tuple(es) => es.iter().map(|x| taint_of(x, st)).max().unwrap_or(Taint::Not),
        _ => Taint::Not,
    }
}

/// Per-variable float state.
struct FloatTaint<'f> {
    f: &'f FnItem,
}

impl<'a> Analysis<'a> for FloatTaint<'_> {
    type State = BTreeMap<String, Taint>;

    fn boundary(&self) -> Self::State {
        // f64 parameters are certified at the API boundary: the *caller's*
        // coin/combinator call sites are where raw values get caught.
        self.f
            .params
            .iter()
            .filter(|p| is_floaty_ty(&p.ty))
            .flat_map(|p| p.names.iter().map(|n| (n.clone(), Taint::Clean)))
            .collect()
    }

    fn meet(&self, a: &Self::State, b: &Self::State) -> Self::State {
        let mut out = a.clone();
        for (k, v) in b {
            let e = out.entry(k.clone()).or_insert(Taint::Not);
            *e = (*e).max(*v);
        }
        out
    }

    fn transfer(&self, step: &Step<'a>, state: &mut Self::State) {
        match step {
            Step::Let { pats, init: Some(e), .. } => {
                if let (ExprKind::Tuple(es), true) = (&e.kind, pats.len() > 1) {
                    if es.len() == pats.len() {
                        let before = state.clone();
                        for (p, x) in pats.iter().zip(es) {
                            state.insert(p.clone(), taint_of(x, &before));
                        }
                        return;
                    }
                }
                let t = taint_of(e, state);
                for p in *pats {
                    state.insert(p.clone(), t);
                }
            }
            Step::Let { pats, init: None, .. } => {
                for p in *pats {
                    state.insert(p.clone(), Taint::Not);
                }
            }
            Step::Expr(e) | Step::Cond(e) => {
                if let ExprKind::Assign { lhs, rhs, compound } = &e.kind {
                    if let ExprKind::Path(segs) = &lhs.kind {
                        if let [v] = segs.as_slice() {
                            let mut t = taint_of(rhs, state);
                            if *compound {
                                let old = state.get(v).copied().unwrap_or(Taint::Not);
                                // `x += w`: arithmetic on floats taints.
                                if t.max(old) >= Taint::Clean {
                                    t = Taint::Tainted;
                                }
                            }
                            state.insert(v.clone(), t);
                        }
                    }
                }
            }
        }
    }
}

/// Report tainted floats reaching branch conditions or certified sinks.
fn float_taint(ctx: &FileCtx<'_>, f: &FnItem, cfg: &Cfg<'_>, out: &mut Vec<Diagnostic>) {
    let analysis = FloatTaint { f };
    let entries = forward(cfg, &analysis);
    let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut push = |out: &mut Vec<Diagnostic>, line: u32, col: u32, msg: String| {
        if seen.insert((line, col)) {
            out.push(Diagnostic {
                rule: ids::FLOAT_TAINT,
                path: ctx.path.to_string(),
                line,
                col,
                message: msg,
            });
        }
    };
    for (b, entry) in entries.iter().enumerate() {
        let Some(entry) = entry else { continue };
        replay(cfg, &analysis, b, entry, &mut |step, st| {
            let Some(e) = step.expr() else { return };
            if let Step::Cond(c) = step {
                if taint_of(c, st) == Taint::Tainted {
                    push(
                        out,
                        c.line,
                        c.col,
                        format!(
                            "`{}` branches on a value produced by raw f64 arithmetic; derive the \
                         decision from the certified bounds API (Bits64, *_f64_bounds) instead",
                            f.name
                        ),
                    );
                }
            }
            e.walk_pruned(&mut |x| match &x.kind {
                ExprKind::Binary { op: crate::ast::BinOp::Cmp, lhs, rhs }
                    if taint_of(lhs, st) == Taint::Tainted
                        || taint_of(rhs, st) == Taint::Tainted =>
                {
                    push(
                        out,
                        x.line,
                        x.col,
                        format!(
                            "float comparison in `{}` on a value produced by raw f64 \
                             arithmetic; its rounding is unaudited — use the certified \
                             bounds API (Bits64, *_f64_bounds) or justify with a pragma",
                            f.name
                        ),
                    );
                }
                ExprKind::Call { callee, args } => {
                    let Some(name) = callee.path_last() else { return };
                    if (is_coin_name(name) || CERTIFIED_COMBINATORS.contains(&name))
                        && args.iter().any(|a| taint_of(a, st) == Taint::Tainted)
                    {
                        push(
                            out,
                            x.line,
                            x.col,
                            format!(
                                "raw f64 arithmetic result flows into `{name}`; only \
                                 certified values (literals, f64 params, Bits64 and \
                                 *_f64_bounds results) may enter a coin or bounds combinator"
                            ),
                        );
                    }
                }
                ExprKind::MethodCall { name, args, .. }
                    if is_coin_name(name)
                        && args.iter().any(|a| taint_of(a, st) == Taint::Tainted) =>
                {
                    push(
                        out,
                        x.line,
                        x.col,
                        format!(
                            "raw f64 arithmetic result flows into `.{name}(..)`; only \
                             certified values may drive a sampling coin"
                        ),
                    );
                }
                _ => {}
            });
        });
    }
}

// ---------------------------------------------------------------------------
// poison-discipline: 3-state must-analysis over the poison flag.
// ---------------------------------------------------------------------------

/// Must-state of `self.poisoned` at a program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Poison {
    /// Provably `false` on every path here.
    Clean,
    /// Provably `true` on every path here.
    Armed,
    /// Paths disagree.
    Top,
}

struct PoisonFlag;

impl<'a> Analysis<'a> for PoisonFlag {
    type State = Poison;

    fn boundary(&self) -> Poison {
        Poison::Clean
    }

    fn meet(&self, a: &Poison, b: &Poison) -> Poison {
        if a == b {
            *a
        } else {
            Poison::Top
        }
    }

    fn transfer(&self, step: &Step<'a>, state: &mut Poison) {
        let Some(e) = step.expr() else { return };
        e.walk_pruned(&mut |x| {
            if let ExprKind::Assign { lhs, rhs, compound: false } = &x.kind {
                if let ExprKind::Field { name, .. } = &lhs.kind {
                    if name == "poisoned" {
                        if let ExprKind::BoolLit(b) = &rhs.kind {
                            *state = if *b { Poison::Armed } else { Poison::Clean };
                        } else {
                            *state = Poison::Top;
                        }
                    }
                }
            }
        });
    }
}

/// Site name of a fallible `fail_point(Site::X)` call, if this is one.
/// `fail_point_unwind` panics instead of early-returning and is exempt.
fn fail_point_site(e: &Expr) -> Option<&str> {
    if let ExprKind::Call { callee, args } = &e.kind {
        if callee.path_last() == Some("fail_point") {
            return args.first().and_then(|a| a.path_last()).or(Some("?"));
        }
    }
    None
}

/// Enforce the fault-window contract: arm before cascade points, disarm
/// before every ok-exit.
fn poison_discipline(
    ctx: &FileCtx<'_>,
    f: &FnItem,
    cfg: &Cfg<'_>,
    fault_marks: &BTreeSet<u32>,
    out: &mut Vec<Diagnostic>,
) {
    // A fn is a fault window if it can early-return from a *cascade* fail
    // point (a site whose name does not end in `Entry` — entry points fire
    // before any mutation), or is explicitly marked.
    let mut registered = fault_marks.contains(&f.line);
    if !registered && f.receiver == Receiver::RefMut {
        if let Some(body) = &f.body {
            body.walk_exprs(&mut |x| {
                if let Some(site) = fail_point_site(x) {
                    if !site.ends_with("Entry") {
                        registered = true;
                    }
                }
            });
        }
    }
    if !registered {
        return;
    }
    let entries = forward(cfg, &PoisonFlag);
    for (b, entry) in entries.iter().enumerate() {
        let Some(entry) = entry else { continue };
        let exit_state = replay(cfg, &PoisonFlag, b, entry, &mut |step, st| {
            let Some(e) = step.expr() else { return };
            e.walk_pruned(&mut |x| {
                if let Some(site) = fail_point_site(x) {
                    if !site.ends_with("Entry") && *st != Poison::Armed {
                        out.push(Diagnostic {
                            rule: ids::POISON_DISCIPLINE,
                            path: ctx.path.to_string(),
                            line: x.line,
                            col: x.col,
                            message: format!(
                                "cascade fail point `{site}` in `{}` can fire with the poison \
                                 flag not (provably) armed; set `self.poisoned = true` before \
                                 the mutation window so a mid-mutation failure is detectable",
                                f.name
                            ),
                        });
                    }
                }
            });
        });
        if let crate::cfg::Term::Exit(info) = &cfg.blocks[b].term {
            if info.kind == ExitKind::Ok && exit_state != Poison::Clean {
                out.push(Diagnostic {
                    rule: ids::POISON_DISCIPLINE,
                    path: ctx.path.to_string(),
                    line: info.line,
                    col: info.col,
                    message: format!(
                        "ok-exit of fault window `{}` can leave the poison flag armed (or in \
                         an unknown state); disarm with `self.poisoned = false` after the \
                         journal record",
                        f.name
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// codec-symmetry: writer put-stream vs reader get-stream, compared in
// lockstep per paired fn.
// ---------------------------------------------------------------------------

/// One element of a codec op stream.
#[derive(Debug, Clone)]
enum CodecOp {
    /// `put_X`/`get_X` — the suffix (`usize`, `u64`, `raw`, `bytes`, ...).
    Prim(String, u32, u32),
    /// A `section(TAG, ..)` with its nested ops.
    Section(String, Vec<CodecOp>, u32, u32),
    /// A call to a named codec helper (normalised: `write_`/`read_`/`from_`
    /// stripped), e.g. `slab` or `snapshot_payload`.
    Helper(String, u32, u32),
    /// Ops inside a loop body.
    Rep(Vec<CodecOp>, u32, u32),
    /// Ops per branch arm (if = 2 arms, match = N arms).
    Alt(Vec<Vec<CodecOp>>, u32, u32),
}

impl CodecOp {
    fn anchor(&self) -> (u32, u32) {
        match self {
            CodecOp::Prim(_, l, c)
            | CodecOp::Section(_, _, l, c)
            | CodecOp::Helper(_, l, c)
            | CodecOp::Rep(_, l, c)
            | CodecOp::Alt(_, l, c) => (*l, *c),
        }
    }

    fn describe(&self) -> String {
        match self {
            CodecOp::Prim(s, ..) => format!("`{s}`"),
            CodecOp::Section(t, ops, ..) => format!("section `{t}` ({} ops)", ops.len()),
            CodecOp::Helper(n, ..) => format!("helper `{n}`"),
            CodecOp::Rep(..) => "a repeated group".to_string(),
            CodecOp::Alt(arms, ..) => format!("a {}-way branch", arms.len()),
        }
    }
}

/// Writer/reader op signatures collected from one file, keyed by
/// `Type::normalised-name` so `write_snapshot` pairs with `from_snapshot`
/// and `write_slab` with `read_slab`.
#[derive(Debug, Default)]
struct CodecIndex {
    writers: Vec<(String, CodecSig)>,
    readers: Vec<(String, CodecSig)>,
}

#[derive(Debug)]
struct CodecSig {
    fn_name: String,
    ops: Vec<CodecOp>,
    line: u32,
    col: u32,
}

/// Strip `?` wrappers.
fn strip_try(e: &Expr) -> &Expr {
    match &e.kind {
        ExprKind::Try { expr } => strip_try(expr),
        _ => e,
    }
}

/// The single-identifier variable an argument refers to, through `&`,
/// `&mut`, and `?` wrappers.
fn expr_var(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Unary { expr } | ExprKind::Try { expr } => expr_var(expr),
        ExprKind::Path(segs) => match segs.as_slice() {
            [v] => Some(v.as_str()),
            _ => None,
        },
        _ => None,
    }
}

fn last_path_seg(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Path(segs) => segs.last().map(String::as_str),
        _ => None,
    }
}

/// Normalise a codec helper name; `None` if it has no codec prefix.
fn normalize_helper(name: &str) -> Option<String> {
    for p in ["write_", "read_", "from_"] {
        if let Some(rest) = name.strip_prefix(p) {
            if !rest.is_empty() {
                return Some(rest.to_string());
            }
        }
    }
    None
}

/// Source-order extraction of codec ops from one fn body.
#[derive(Debug, Default)]
struct CodecScan {
    write_side: bool,
    /// Tracked `Enc`/`Dec` stream variables and their ops so far.
    streams: Vec<(String, Vec<CodecOp>)>,
    /// The `SnapshotWriter`/`SnapshotReader` variable, if any.
    wrapper: Option<String>,
    /// Wrapper-level sequence (sections in order).
    top: Vec<CodecOp>,
    /// Reader sections to backfill: (index into `top`, stream index).
    open_sections: Vec<(usize, usize)>,
    /// Let-bound codec closures, spliced at call sites.
    closures: Vec<(String, Vec<CodecOp>)>,
}

impl CodecScan {
    fn stream_idx(&self, var: &str) -> Option<usize> {
        self.streams.iter().position(|(n, _)| n == var)
    }

    fn helper_stream_arg(&self, args: &[Expr]) -> Option<usize> {
        args.iter().find_map(|a| expr_var(a).and_then(|v| self.stream_idx(v)))
    }

    /// Lengths of all current stream op lists (for delta capture).
    fn snap(&self) -> Vec<usize> {
        self.streams.iter().map(|(_, o)| o.len()).collect()
    }

    /// Drain ops appended since `base`, per stream (index-aligned with
    /// `base`; streams created since then keep their ops in place).
    fn take_delta(&mut self, base: &[usize]) -> Vec<Vec<CodecOp>> {
        self.streams
            .iter_mut()
            .enumerate()
            .map(|(i, (_, ops))| {
                let keep = base.get(i).copied().unwrap_or(ops.len());
                ops.split_off(keep.min(ops.len()))
            })
            .collect()
    }

    /// Append per-stream branch arms (skipping streams no arm touched).
    fn push_alt(&mut self, arms: Vec<Vec<Vec<CodecOp>>>, line: u32, col: u32) {
        let n = self.streams.len();
        for si in 0..n {
            let per: Vec<Vec<CodecOp>> =
                arms.iter().map(|a| a.get(si).cloned().unwrap_or_default()).collect();
            if per.iter().any(|ops| !ops.is_empty()) {
                self.streams[si].1.push(CodecOp::Alt(per, line, col));
            }
        }
    }

    fn scan_block(&mut self, b: &AstBlock) {
        for s in &b.stmts {
            match s {
                crate::ast::Stmt::Let { pats, init: Some(init), else_block, .. } => {
                    self.scan_let(pats, init);
                    if let Some(eb) = else_block {
                        self.scan_block(eb);
                    }
                }
                crate::ast::Stmt::Let { .. } => {}
                crate::ast::Stmt::Expr { expr, .. } => self.scan_expr(expr),
                crate::ast::Stmt::Item => {}
            }
        }
    }

    fn scan_let(&mut self, pats: &[String], init: &Expr) {
        let inner = strip_try(init);
        // Reader section open: `let mut dec = r.section(TAG)?;`.
        if let ExprKind::MethodCall { recv, name, args } = &inner.kind {
            if name == "section"
                && !self.write_side
                && expr_var(recv).is_some_and(|v| self.wrapper.as_deref() == Some(v))
            {
                if let [pat] = pats {
                    let tag = args.first().and_then(last_path_seg).unwrap_or("?").to_string();
                    let si = self.streams.len();
                    self.streams.push((pat.clone(), Vec::new()));
                    self.open_sections.push((self.top.len(), si));
                    self.top.push(CodecOp::Section(tag, Vec::new(), inner.line, inner.col));
                    return;
                }
            }
        }
        // Stream / wrapper creation.
        if let ExprKind::Call { callee, .. } = &inner.kind {
            if let ExprKind::Path(segs) = &callee.kind {
                if let [.., t, n] = segs.as_slice() {
                    let creation = matches!(n.as_str(), "new" | "with_capacity" | "default");
                    if creation && (t == "Enc" || t == "Dec") {
                        if let [pat] = pats {
                            self.streams.push((pat.clone(), Vec::new()));
                            return;
                        }
                    }
                    if creation && (t == "SnapshotWriter" || t == "SnapshotReader") {
                        if let [pat] = pats {
                            self.wrapper = Some(pat.clone());
                            return;
                        }
                    }
                }
            }
        }
        // Let-bound codec closure: extract its op signature for splicing.
        if let ExprKind::Closure { params, body } = &inner.kind {
            if let (Some(pvar), [pat]) = (params.first(), pats) {
                let mut sub = CodecScan {
                    write_side: self.write_side,
                    streams: vec![(pvar.clone(), Vec::new())],
                    ..CodecScan::default()
                };
                sub.scan_expr(body);
                let ops = std::mem::take(&mut sub.streams[0].1);
                if !ops.is_empty() {
                    self.closures.push((pat.clone(), ops));
                }
            }
            return; // other closures are opaque
        }
        self.scan_expr(init);
    }

    fn scan_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::MethodCall { recv, name, args } => {
                if let Some(si) = expr_var(recv).and_then(|v| self.stream_idx(v)) {
                    if let Some(sfx) =
                        name.strip_prefix("put_").or_else(|| name.strip_prefix("get_"))
                    {
                        for a in args {
                            self.scan_expr(a);
                        }
                        self.streams[si].1.push(CodecOp::Prim(sfx.to_string(), e.line, e.col));
                        return;
                    }
                    if matches!(
                        name.as_str(),
                        "finish" | "reserve" | "bytes" | "len" | "is_empty" | "clear"
                    ) {
                        for a in args {
                            self.scan_expr(a);
                        }
                        return;
                    }
                }
                if expr_var(recv).is_some_and(|v| self.wrapper.as_deref() == Some(v)) {
                    if name == "section" && self.write_side {
                        let tag = args.first().and_then(last_path_seg).unwrap_or("?").to_string();
                        let ops =
                            match args.get(1).and_then(expr_var).and_then(|v| self.stream_idx(v)) {
                                Some(si) => std::mem::take(&mut self.streams[si].1),
                                None => {
                                    for a in args.iter().skip(1) {
                                        self.scan_expr(a);
                                    }
                                    Vec::new()
                                }
                            };
                        self.top.push(CodecOp::Section(tag, ops, e.line, e.col));
                        return;
                    }
                    if name == "finish" {
                        return;
                    }
                }
                // Helper method taking a tracked stream: `self.write_x(&mut enc)`.
                if let Some(si) = self.helper_stream_arg(args) {
                    if let Some(n) = normalize_helper(name) {
                        self.streams[si].1.push(CodecOp::Helper(n, e.line, e.col));
                        return;
                    }
                }
                self.scan_expr(recv);
                for a in args {
                    self.scan_expr(a);
                }
            }
            ExprKind::Call { callee, args } => {
                if let Some(si) = self.helper_stream_arg(args) {
                    if let Some(name) = last_path_seg(callee) {
                        if let Some(ops) =
                            self.closures.iter().find(|(n, _)| n == name).map(|(_, o)| o.clone())
                        {
                            self.streams[si].1.extend(ops); // splice let-bound closure
                            return;
                        }
                        if let Some(n) = normalize_helper(name) {
                            for a in args {
                                if expr_var(a).and_then(|v| self.stream_idx(v)) != Some(si) {
                                    self.scan_expr(a);
                                }
                            }
                            self.streams[si].1.push(CodecOp::Helper(n, e.line, e.col));
                            return;
                        }
                    }
                }
                for a in args {
                    self.scan_expr(a);
                }
            }
            ExprKind::If { cond, then, else_ } => {
                self.scan_expr(cond);
                let base = self.snap();
                self.scan_block(then);
                let d1 = self.take_delta(&base);
                let d2 = match else_ {
                    Some(el) => {
                        self.scan_expr(el);
                        self.take_delta(&base)
                    }
                    None => Vec::new(),
                };
                self.push_alt(vec![d1, d2], e.line, e.col);
            }
            ExprKind::IfLet { scrutinee, also, then, else_, .. } => {
                self.scan_expr(scrutinee);
                for a in also {
                    self.scan_expr(a);
                }
                let base = self.snap();
                self.scan_block(then);
                let d1 = self.take_delta(&base);
                let d2 = match else_ {
                    Some(el) => {
                        self.scan_expr(el);
                        self.take_delta(&base)
                    }
                    None => Vec::new(),
                };
                self.push_alt(vec![d1, d2], e.line, e.col);
            }
            ExprKind::Match { scrutinee, arms } => {
                self.scan_expr(scrutinee);
                let base = self.snap();
                let mut deltas = Vec::with_capacity(arms.len());
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        self.scan_expr(g);
                    }
                    self.scan_expr(&arm.body);
                    deltas.push(self.take_delta(&base));
                }
                self.push_alt(deltas, e.line, e.col);
            }
            ExprKind::While { cond, body } => {
                self.scan_expr(cond);
                self.scan_loop_body(body, e.line, e.col);
            }
            ExprKind::WhileLet { scrutinee, body, .. } => {
                self.scan_expr(scrutinee);
                self.scan_loop_body(body, e.line, e.col);
            }
            ExprKind::Loop { body } => self.scan_loop_body(body, e.line, e.col),
            ExprKind::For { iter, body, .. } => {
                self.scan_expr(iter);
                self.scan_loop_body(body, e.line, e.col);
            }
            ExprKind::BlockExpr(b) => self.scan_block(b),
            ExprKind::Field { base, .. } => self.scan_expr(base),
            ExprKind::Index { base, index } => {
                self.scan_expr(base);
                self.scan_expr(index);
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                self.scan_expr(lhs);
                self.scan_expr(rhs);
            }
            ExprKind::Assign { lhs, rhs, .. } => {
                self.scan_expr(rhs);
                self.scan_expr(lhs);
            }
            ExprKind::Unary { expr } | ExprKind::Cast { expr, .. } | ExprKind::Try { expr } => {
                self.scan_expr(expr)
            }
            ExprKind::Return { value } | ExprKind::Break { value } => {
                if let Some(v) = value {
                    self.scan_expr(v);
                }
            }
            ExprKind::Tuple(es) | ExprKind::Array(es) => {
                for x in es {
                    self.scan_expr(x);
                }
            }
            ExprKind::StructLit { fields, .. } => {
                for x in fields {
                    self.scan_expr(x);
                }
            }
            ExprKind::RangeLit { lo, hi } => {
                if let Some(x) = lo {
                    self.scan_expr(x);
                }
                if let Some(x) = hi {
                    self.scan_expr(x);
                }
            }
            ExprKind::Path(_)
            | ExprKind::IntLit
            | ExprKind::FloatLit
            | ExprKind::BoolLit(_)
            | ExprKind::StrLit
            | ExprKind::Continue
            | ExprKind::MacroCall { .. }
            | ExprKind::Closure { .. }
            | ExprKind::Opaque => {}
        }
    }

    fn scan_loop_body(&mut self, body: &AstBlock, line: u32, col: u32) {
        let base = self.snap();
        self.scan_block(body);
        let delta = self.take_delta(&base);
        for (si, ops) in delta.into_iter().enumerate() {
            if !ops.is_empty() {
                self.streams[si].1.push(CodecOp::Rep(ops, line, col));
            }
        }
    }

    /// Backfill reader sections with the ops their stream accumulated.
    fn finish(&mut self) {
        for (ti, si) in std::mem::take(&mut self.open_sections) {
            let ops = std::mem::take(&mut self.streams[si].1);
            if let Some(CodecOp::Section(_, slot, ..)) = self.top.get_mut(ti) {
                *slot = ops;
            }
        }
    }
}

/// Writer/reader role of a fn name; `None` if not a codec fn.
fn codec_role(name: &str) -> Option<(bool, String)> {
    if name == "new" {
        return None;
    }
    if let Some(r) = name.strip_prefix("write_") {
        return Some((true, r.to_string()));
    }
    if let Some(r) = name.strip_prefix("read_") {
        return Some((false, r.to_string()));
    }
    if let Some(r) = name.strip_prefix("from_") {
        return Some((false, r.to_string()));
    }
    None
}

/// Collect the codec signature of one fn (if it is a codec fn).
fn codec_collect(imp: Option<&ImplBlock>, f: &FnItem, idx: &mut CodecIndex) {
    let Some(body) = &f.body else { return };
    let Some((is_writer, norm)) = codec_role(&f.name) else { return };
    let mut scan = CodecScan { write_side: is_writer, ..CodecScan::default() };
    let param_ty = if is_writer { "Enc" } else { "Dec" };
    for p in &f.params {
        if p.ty.contains(param_ty) {
            if let Some(n) = p.names.first() {
                scan.streams.push((n.clone(), Vec::new()));
            }
        }
    }
    scan.scan_block(body);
    scan.finish();
    let ops = if scan.top.is_empty() {
        scan.streams.into_iter().map(|(_, o)| o).find(|o| !o.is_empty()).unwrap_or_default()
    } else {
        scan.top
    };
    if ops.is_empty() {
        return;
    }
    let key = format!("{}::{}", imp.map(|i| i.type_name.as_str()).unwrap_or(""), norm);
    let sig = CodecSig { fn_name: f.name.clone(), ops, line: f.line, col: f.col };
    if is_writer {
        idx.writers.push((key, sig));
    } else {
        idx.readers.push((key, sig));
    }
}

/// First divergence between writer and reader op streams:
/// `(expected, found, line, col)` anchored reader-side.
fn compare_ops(
    w: &[CodecOp],
    r: &[CodecOp],
    end: (u32, u32),
) -> Option<(String, String, u32, u32)> {
    let mut i = 0usize;
    let mut j = 0usize;
    loop {
        match (w.get(i), r.get(j)) {
            (None, None) => return None,
            (Some(a), None) => {
                return Some((a.describe(), "the end of the reader sequence".into(), end.0, end.1))
            }
            (None, Some(b)) => {
                let (l, c) = b.anchor();
                return Some(("the end of the writer sequence".into(), b.describe(), l, c));
            }
            (Some(a), Some(b)) => {
                // Writers batch fixed-width records in a loop of `put_raw`;
                // readers slurp the block with one `get_raw` — compatible.
                if let (CodecOp::Rep(inner, ..), CodecOp::Prim(p, ..)) = (a, b) {
                    if p == "raw"
                        && inner.len() == 1
                        && matches!(&inner[0], CodecOp::Prim(q, ..) if q == "raw")
                    {
                        i += 1;
                        j += 1;
                        continue;
                    }
                }
                match (a, b) {
                    (CodecOp::Prim(x, ..), CodecOp::Prim(y, ..)) if x == y => {}
                    (CodecOp::Helper(x, ..), CodecOp::Helper(y, ..)) if x == y => {}
                    (CodecOp::Section(tx, wx, ..), CodecOp::Section(ty, rx, l, c)) => {
                        if tx != ty {
                            return Some((
                                format!("section `{tx}`"),
                                format!("section `{ty}`"),
                                *l,
                                *c,
                            ));
                        }
                        if let Some(m) = compare_ops(wx, rx, (*l, *c)) {
                            return Some(m);
                        }
                    }
                    (CodecOp::Rep(wx, ..), CodecOp::Rep(rx, l, c)) => {
                        if let Some(m) = compare_ops(wx, rx, (*l, *c)) {
                            return Some(m);
                        }
                    }
                    (CodecOp::Alt(wa, ..), CodecOp::Alt(ra, l, c)) => {
                        if wa.len() != ra.len() {
                            return Some((
                                format!("a {}-way branch", wa.len()),
                                format!("a {}-way branch", ra.len()),
                                *l,
                                *c,
                            ));
                        }
                        for (x, y) in wa.iter().zip(ra) {
                            if let Some(m) = compare_ops(x, y, (*l, *c)) {
                                return Some(m);
                            }
                        }
                    }
                    _ => {
                        let (l, c) = b.anchor();
                        return Some((a.describe(), b.describe(), l, c));
                    }
                }
                i += 1;
                j += 1;
            }
        }
    }
}

/// Compare every paired writer/reader in the file.
fn codec_check(ctx: &FileCtx<'_>, idx: &CodecIndex, out: &mut Vec<Diagnostic>) {
    for (wkey, w) in &idx.writers {
        for (rkey, r) in &idx.readers {
            if wkey != rkey {
                continue;
            }
            if let Some((expected, found, line, col)) = compare_ops(&w.ops, &r.ops, (r.line, r.col))
            {
                out.push(Diagnostic {
                    rule: ids::CODEC_SYMMETRY,
                    path: ctx.path.to_string(),
                    line,
                    col,
                    message: format!(
                        "`{}` / `{}` disagree: the writer emits {expected} where the reader \
                         consumes {found}; put_*/get_* sequences (section tags included) \
                         must mirror exactly",
                        w.fn_name, r.fn_name
                    ),
                });
            }
        }
    }
}
