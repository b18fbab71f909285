//! The rule families and their scopes.
//!
//! Every rule is a token-sequence matcher over [`crate::lexer::LexFile`],
//! scoped by workspace-relative path. Four families:
//!
//! | family      | rules                        | protects                         |
//! |-------------|------------------------------|----------------------------------|
//! | determinism | `det-clock`, `det-hash-iter` | byte-stable replies & cache keys |
//! | panic       | `panic-call`, `panic-index`  | decoder / server robustness      |
//! | locks       | `lock-unwrap`, `lock-scope`  | PR 6 concurrency architecture    |
//! | hygiene     | `no-unsafe`, `no-print`,     | library discipline               |
//! |             | `no-thread`                  |                                  |
//!
//! Findings inside `#[cfg(test)]` / `#[test]` regions are skipped, and a
//! `// oclint: allow(rule) — reason` comment on the same or previous
//! line suppresses a finding (the sanctioned escape hatch for sites
//! whose safety argument is local: telemetry, masked table lookups).

use crate::lexer::{LexFile, TokKind, Token};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{} {} {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Every rule name, for `--strict` summaries and allow validation.
pub const ALL_RULES: [&str; 9] = [
    "det-clock",
    "det-hash-iter",
    "panic-call",
    "panic-index",
    "lock-unwrap",
    "lock-scope",
    "no-unsafe",
    "no-print",
    "no-thread",
];

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

/// Wire-reply, fingerprint and artifact-key modules: anything here feeds
/// bytes that must be identical cold/warm/remote/sharded.
const DETERMINISM_SCOPE: [&str; 8] = [
    "crates/format/src/json.rs",
    "crates/core/src/query.rs",
    "crates/core/src/visual.rs",
    "crates/format/src/store.rs",
    "crates/format/src/cube_cache.rs",
    "crates/format/src/micro_cache.rs",
    "crates/format/src/hires_cache.rs",
    "crates/format/src/part_cache.rs",
];

/// Decoder paths, the ingest driver, the session and query engine every
/// request runs on, and per-connection server code: typed
/// `FormatError`/`SessionError`/`QueryError` are the contract, a panic is
/// a lost connection (or a dead server thread).
const PANIC_SCOPE: [&str; 10] = [
    "crates/format/src/io.rs",
    "crates/format/src/text.rs",
    "crates/format/src/binary.rs",
    "crates/format/src/columnar.rs",
    "crates/format/src/paje.rs",
    "crates/format/src/gzip.rs",
    "crates/format/src/json.rs",
    "crates/core/src/session.rs",
    "crates/core/src/query.rs",
    "crates/cli/src/commands/serve.rs",
];

/// The server module whose pool/builds mutexes must cover admission
/// bookkeeping only (PR 6's concurrency contract).
const LOCK_SCOPE: [&str; 1] = ["crates/cli/src/commands/serve.rs"];

/// Crates allowed to use `unsafe` (none today; adding a file here is a
/// reviewed decision, and the crate must drop `#![forbid(unsafe_code)]`).
const UNSAFE_ALLOWLIST: [&str; 0] = [];

/// Library crates: stdout/stderr belong to the CLI and bench binaries, and
/// threads to the `rayon` stand-in (`crates/compat/rayon`), the one pool.
const LIBRARY_CRATES: [&str; 6] = [
    "crates/trace/src/",
    "crates/core/src/",
    "crates/format/src/",
    "crates/mpisim/src/",
    "crates/viz/src/",
    "crates/ocelotl/src/",
];

/// Mutex-guard bindings are recognized when the initializer mentions one
/// of these identifiers together with a lock call: the pool and build
/// admission mutexes, and a live session's snapshot mutex (`gen`).
const GUARDED_MUTEXES: [&str; 3] = ["pool", "builds", "gen"];

/// Calls that must never run under a pool, builds or live-snapshot mutex
/// guard: answering, building a snapshot, feeding, warm-up and ingest
/// belong outside those locks.
const HEAVY_CALLS: [&str; 12] = [
    "answer",
    "answer_at",
    "execute",
    "execute_shared",
    "warm_up",
    "reslice",
    "resliced",
    "advanced",
    "feed",
    "ingest",
    "read_model",
    "open",
];

/// Iteration methods on hash collections whose order is seeded per
/// instance.
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "into_values",
    "drain",
];

fn in_determinism_scope(rel: &str) -> bool {
    DETERMINISM_SCOPE.contains(&rel)
}

fn in_panic_scope(rel: &str) -> bool {
    PANIC_SCOPE.contains(&rel)
}

fn in_lock_scope(rel: &str) -> bool {
    LOCK_SCOPE.contains(&rel)
}

fn in_library_crate(rel: &str) -> bool {
    LIBRARY_CRATES.iter().any(|p| rel.starts_with(p))
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Apply every in-scope rule to one lexed file.
pub fn check_file(rel: &str, lex: &LexFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let ctx = Ctx { rel, lex };
    if in_determinism_scope(rel) {
        det_clock(&ctx, &mut out);
        det_hash_iter(&ctx, &mut out);
    }
    let lock_unwraps = if in_lock_scope(rel) {
        let covered = lock_unwrap(&ctx, &mut out);
        lock_scope_rule(&ctx, &mut out);
        covered
    } else {
        Vec::new()
    };
    if in_panic_scope(rel) {
        panic_call(&ctx, &mut out, &lock_unwraps);
        panic_index(&ctx, &mut out);
    }
    if !UNSAFE_ALLOWLIST.contains(&rel) {
        no_unsafe(&ctx, &mut out);
    }
    if in_library_crate(rel) {
        no_print(&ctx, &mut out);
        no_thread(&ctx, &mut out);
    }
    out.sort();
    out
}

struct Ctx<'a> {
    rel: &'a str,
    lex: &'a LexFile,
}

impl Ctx<'_> {
    fn toks(&self) -> &[Token] {
        &self.lex.tokens
    }

    /// Record a finding at token `idx` unless it is test code or
    /// allow-marked.
    fn flag(
        &self,
        out: &mut Vec<Finding>,
        idx: usize,
        rule: &'static str,
        message: impl Into<String>,
    ) {
        if self.lex.in_test(idx) {
            return;
        }
        let t = &self.lex.tokens[idx];
        if self.lex.allowed(rule, t.line) {
            return;
        }
        out.push(Finding {
            file: self.rel.to_string(),
            line: t.line,
            col: t.col,
            rule,
            message: message.into(),
        });
    }

    fn ident_at(&self, idx: usize, name: &str) -> bool {
        self.toks().get(idx).is_some_and(|t| t.is_ident(name))
    }

    fn punct_at(&self, idx: usize, ch: char) -> bool {
        self.toks().get(idx).is_some_and(|t| t.is_punct(ch))
    }

    /// Index just past the balanced bracket span opening at `open`.
    fn skip_balanced(&self, open: usize) -> usize {
        let toks = self.toks();
        let mut depth = 0usize;
        let mut i = open;
        while i < toks.len() {
            let t = &toks[i];
            if t.is_punct('[') || t.is_punct('(') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(']') || t.is_punct(')') || t.is_punct('}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        toks.len()
    }
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

fn det_clock(ctx: &Ctx, out: &mut Vec<Finding>) {
    for i in 0..ctx.toks().len() {
        if ctx.ident_at(i, "SystemTime") {
            ctx.flag(
                out,
                i,
                "det-clock",
                "wall clock (SystemTime) in a determinism-scoped module; \
                 replies and artifact keys must be pure functions of the input",
            );
        }
        let path_call = |head: &str, tail: &str| {
            ctx.ident_at(i, head)
                && ctx.punct_at(i + 1, ':')
                && ctx.punct_at(i + 2, ':')
                && ctx.ident_at(i + 3, tail)
        };
        if path_call("Instant", "now") {
            ctx.flag(
                out,
                i,
                "det-clock",
                "monotonic clock (Instant::now) in a determinism-scoped module",
            );
        }
        if path_call("thread", "current") {
            ctx.flag(
                out,
                i,
                "det-clock",
                "thread identity (thread::current) in a determinism-scoped module",
            );
        }
    }
}

fn det_hash_iter(ctx: &Ctx, out: &mut Vec<Finding>) {
    let toks = ctx.toks();
    // Pass 1: names bound or declared with a HashMap/HashSet type.
    let mut hashed: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        let is_hash = ctx.ident_at(i, "HashMap") || ctx.ident_at(i, "HashSet");
        if !is_hash {
            continue;
        }
        // `name: HashMap<…>` (field, param or let annotation) — but not
        // the `std::collections::HashMap` path, whose `:` is doubled.
        if i >= 2
            && ctx.punct_at(i - 1, ':')
            && !ctx.punct_at(i - 2, ':')
            && toks[i - 2].kind == TokKind::Ident
        {
            hashed.push(toks[i - 2].text.clone());
        }
        // `name = HashMap::new()` / `= HashSet::with_capacity(…)`.
        if i >= 2
            && ctx.punct_at(i - 1, '=')
            && toks[i - 2].kind == TokKind::Ident
            && ctx.punct_at(i + 1, ':')
            && ctx.punct_at(i + 2, ':')
        {
            hashed.push(toks[i - 2].text.clone());
        }
    }
    hashed.sort();
    hashed.dedup();
    let is_hashed = |t: &Token| t.kind == TokKind::Ident && hashed.contains(&t.text);
    // Pass 2: iteration over those names.
    for i in 0..toks.len() {
        if is_hashed(&toks[i])
            && ctx.punct_at(i + 1, '.')
            && toks
                .get(i + 2)
                .is_some_and(|t| ITER_METHODS.iter().any(|m| t.is_ident(m)))
            && ctx.punct_at(i + 3, '(')
        {
            ctx.flag(
                out,
                i,
                "det-hash-iter",
                format!(
                    "iteration over hash-ordered `{}` in a determinism-scoped module; \
                     use BTreeMap/BTreeSet or sort before iterating",
                    toks[i].text
                ),
            );
        }
        if ctx.ident_at(i, "in") {
            let name = if toks.get(i + 1).is_some_and(is_hashed) {
                Some(i + 1)
            } else if ctx.punct_at(i + 1, '&') && toks.get(i + 2).is_some_and(is_hashed) {
                Some(i + 2)
            } else if ctx.punct_at(i + 1, '&')
                && ctx.ident_at(i + 2, "mut")
                && toks.get(i + 3).is_some_and(is_hashed)
            {
                Some(i + 3)
            } else {
                None
            };
            if let Some(n) = name {
                ctx.flag(
                    out,
                    n,
                    "det-hash-iter",
                    format!(
                        "for-loop over hash-ordered `{}` in a determinism-scoped module; \
                         use BTreeMap/BTreeSet or sort before iterating",
                        toks[n].text
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Panic-freedom
// ---------------------------------------------------------------------------

fn panic_call(ctx: &Ctx, out: &mut Vec<Finding>, lock_covered: &[usize]) {
    for i in 0..ctx.toks().len() {
        // `.unwrap()` — unless the lock-unwrap rule already reported it.
        if ctx.punct_at(i, '.') && ctx.ident_at(i + 1, "unwrap") && ctx.punct_at(i + 2, '(') {
            if lock_covered.contains(&(i + 1)) {
                continue;
            }
            ctx.flag(
                out,
                i + 1,
                "panic-call",
                "unwrap() in a decoder/server path; return the typed error instead",
            );
        }
        // `.expect(…)` — `self.expect(…)` is a parser method, not
        // Option/Result::expect.
        if ctx.punct_at(i, '.')
            && ctx.ident_at(i + 1, "expect")
            && ctx.punct_at(i + 2, '(')
            && !(i >= 1 && ctx.ident_at(i - 1, "self"))
        {
            ctx.flag(
                out,
                i + 1,
                "panic-call",
                "expect() in a decoder/server path; return the typed error instead",
            );
        }
        for mac in ["panic", "todo", "unimplemented"] {
            if ctx.ident_at(i, mac) && ctx.punct_at(i + 1, '!') {
                ctx.flag(
                    out,
                    i,
                    "panic-call",
                    format!("{mac}! in a decoder/server path; return the typed error instead"),
                );
            }
        }
    }
}

fn panic_index(ctx: &Ctx, out: &mut Vec<Finding>) {
    for i in 1..ctx.toks().len() {
        {
            let toks = ctx.toks();
            if !toks[i].is_punct('[') {
                continue;
            }
            // Expression-position indexing: receiver ends with an
            // identifier, `)` or `]`. (`#[attr]`, `vec![…]`, types and
            // patterns don't.)
            let prev = &toks[i - 1];
            let is_index = prev.kind == TokKind::Ident && !is_keyword(&prev.text)
                || prev.is_punct(')')
                || prev.is_punct(']');
            if !is_index {
                continue;
            }
            let end = ctx.skip_balanced(i);
            let content = &toks[i + 1..end.saturating_sub(1)];
            if content.is_empty() || content.iter().all(literal_index_token) {
                // `a[0]`, `fixed[0..8]`, `lit[..144]`: constant-bound
                // access a reviewer can check at a glance.
                continue;
            }
        }
        ctx.flag(
            out,
            i,
            "panic-index",
            "computed slice index in a decoder/server path; \
             use .get()/.get_mut() and return the typed error",
        );
    }
}

/// Tokens allowed in a "literal-only" index: integer literals and range
/// punctuation (`..`, `..=`).
fn literal_index_token(t: &Token) -> bool {
    t.kind == TokKind::Int || t.is_punct('.') || t.is_punct('=')
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "break"
            | "const"
            | "continue"
            | "else"
            | "enum"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "trait"
            | "type"
            | "use"
            | "where"
            | "while"
    )
}

// ---------------------------------------------------------------------------
// Lock discipline
// ---------------------------------------------------------------------------

/// Flag `.lock().unwrap()` (and read/write/wait + unwrap) — poisoning
/// must be recovered or refused typed, never propagated as a panic.
/// Returns the token indices of the `unwrap` idents it reported so
/// `panic-call` does not double-report them.
fn lock_unwrap(ctx: &Ctx, out: &mut Vec<Finding>) -> Vec<usize> {
    let mut covered = Vec::new();
    for i in 0..ctx.toks().len() {
        let locky = ["lock", "read", "write", "wait"]
            .iter()
            .any(|m| ctx.ident_at(i + 1, m));
        if !(ctx.punct_at(i, '.') && locky && ctx.punct_at(i + 2, '(')) {
            continue;
        }
        let after_args = ctx.skip_balanced(i + 2);
        if ctx.punct_at(after_args, '.')
            && ctx.ident_at(after_args + 1, "unwrap")
            && ctx.punct_at(after_args + 2, '(')
        {
            covered.push(after_args + 1);
            let method = ctx
                .toks()
                .get(i + 1)
                .map(|t| t.text.clone())
                .unwrap_or_else(|| "lock".to_string());
            ctx.flag(
                out,
                i + 1,
                "lock-unwrap",
                format!(
                    ".{method}().unwrap() panics on poison; use the poison-recovering \
                     helper (lock_clean/wait_clean) or refuse typed"
                ),
            );
        }
    }
    covered
}

/// Flag heavy calls (execute/warm_up/ingest…) made while a pool/builds
/// mutex guard is lexically live: the PR 6 contract is that those
/// mutexes cover lookup/admission bookkeeping only.
fn lock_scope_rule(ctx: &Ctx, out: &mut Vec<Finding>) {
    // (guard name, brace depth at binding)
    let mut guards: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < ctx.toks().len() {
        let toks = ctx.toks();
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.1 <= depth);
        } else if t.is_ident("drop") && ctx.punct_at(i + 1, '(') {
            let end = ctx.skip_balanced(i + 1);
            let args = &toks[i + 2..end.saturating_sub(1)];
            guards.retain(|g| !args.iter().any(|a| a.is_ident(&g.0)));
        } else if t.is_ident("let") {
            if let Some((name, stmt_end)) = guard_binding(ctx, i) {
                guards.push((name, depth));
                i = stmt_end;
                continue;
            }
        } else if t.kind == TokKind::Ident
            && HEAVY_CALLS.contains(&t.text.as_str())
            && ctx.punct_at(i + 1, '(')
            && !guards.is_empty()
        {
            let call = t.text.clone();
            let held = guards
                .iter()
                .map(|g| g.0.as_str())
                .collect::<Vec<_>>()
                .join("`, `");
            ctx.flag(
                out,
                i,
                "lock-scope",
                format!(
                    "`{call}()` called while pool/builds/live mutex guard `{held}` is held; \
                     those mutexes must cover bookkeeping only"
                ),
            );
        }
        i += 1;
    }
}

/// If token `let_idx` starts `let [mut] NAME = <expr containing a
/// pool/builds lock>;`, return the guard name and the index of the
/// statement's terminating `;`.
fn guard_binding(ctx: &Ctx, let_idx: usize) -> Option<(String, usize)> {
    let toks = ctx.toks();
    let mut i = let_idx + 1;
    if ctx.ident_at(i, "mut") {
        i += 1;
    }
    let name = toks.get(i)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    if !ctx.punct_at(i + 1, '=') {
        return None;
    }
    // Scan the initializer to the statement's `;` (skipping nested
    // bracketed spans so closure bodies don't end the scan early).
    let mut j = i + 2;
    let mut mentions_pool = false;
    let mut mentions_lock = false;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            let end = ctx.skip_balanced(j);
            for inner in &toks[j + 1..end.saturating_sub(1)] {
                scan_guard_idents(inner, &mut mentions_pool, &mut mentions_lock);
            }
            j = end;
            continue;
        }
        if t.is_punct(';') {
            break;
        }
        scan_guard_idents(t, &mut mentions_pool, &mut mentions_lock);
        j += 1;
    }
    if mentions_pool && mentions_lock {
        Some((name.text.clone(), j))
    } else {
        None
    }
}

fn scan_guard_idents(t: &Token, mentions_pool: &mut bool, mentions_lock: &mut bool) {
    if GUARDED_MUTEXES.iter().any(|m| t.is_ident(m)) {
        *mentions_pool = true;
    }
    if t.is_ident("lock") || t.is_ident("lock_clean") {
        *mentions_lock = true;
    }
}

// ---------------------------------------------------------------------------
// Hygiene
// ---------------------------------------------------------------------------

fn no_unsafe(ctx: &Ctx, out: &mut Vec<Finding>) {
    for i in 0..ctx.toks().len() {
        if ctx.ident_at(i, "unsafe") {
            ctx.flag(
                out,
                i,
                "no-unsafe",
                "unsafe code outside the allowlist; add the file to \
                 UNSAFE_ALLOWLIST in crates/lint/src/rules.rs if this is a reviewed exception",
            );
        }
    }
}

fn no_print(ctx: &Ctx, out: &mut Vec<Finding>) {
    for i in 0..ctx.toks().len() {
        for mac in ["println", "eprintln", "print", "eprint", "dbg"] {
            if ctx.ident_at(i, mac) && ctx.punct_at(i + 1, '!') {
                ctx.flag(
                    out,
                    i,
                    "no-print",
                    format!(
                        "{mac}! in a library crate; route output through the caller's \
                         writer or a typed reply"
                    ),
                );
            }
        }
    }
}

/// Flag `thread::scope` / `thread::spawn`: library code runs its parallel
/// work on the `rayon` pool, so worker budgets and nesting stay in one
/// place.
fn no_thread(ctx: &Ctx, out: &mut Vec<Finding>) {
    for i in 0..ctx.toks().len() {
        for call in ["scope", "spawn"] {
            if ctx.ident_at(i, "thread")
                && ctx.punct_at(i + 1, ':')
                && ctx.punct_at(i + 2, ':')
                && ctx.ident_at(i + 3, call)
            {
                ctx.flag(
                    out,
                    i,
                    "no-thread",
                    format!(
                        "thread::{call} in a library crate; run parallel work on the rayon \
                         pool (`par_iter`, `ThreadPool::install`)"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        check_file(rel, &lex(src))
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn det_clock_fires_only_in_scope() {
        let src = "fn f() { let t = std::time::SystemTime::now(); }";
        assert_eq!(
            rules_of(&run("crates/format/src/json.rs", src)),
            vec!["det-clock"]
        );
        assert!(run("crates/format/src/io.rs", src).is_empty());
    }

    #[test]
    fn det_clock_instant_and_thread() {
        let src = "fn f() { let a = Instant::now(); let b = thread::current().id(); }";
        let f = run("crates/core/src/query.rs", src);
        assert_eq!(rules_of(&f), vec!["det-clock", "det-clock"]);
    }

    #[test]
    fn hash_iteration_is_flagged_but_point_lookup_is_not() {
        let src = "
            fn f() {
                let mut m: HashMap<u32, u32> = HashMap::new();
                m.insert(1, 2);
                let _one = m.get(&1);          // point lookup: fine
                for (k, v) in &m { use_it(k, v); }   // iteration: flagged
                let _ks: Vec<_> = m.keys().collect(); // iteration: flagged
            }
        ";
        let f = run("crates/core/src/visual.rs", src);
        assert_eq!(rules_of(&f), vec!["det-hash-iter", "det-hash-iter"]);
    }

    #[test]
    fn btreemap_is_clean() {
        let src = "
            fn f() {
                let mut m: BTreeMap<u32, u32> = BTreeMap::new();
                for (k, v) in &m { use_it(k, v); }
            }
        ";
        assert!(run("crates/core/src/visual.rs", src).is_empty());
    }

    #[test]
    fn panic_calls_fire_in_decoder_paths_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(
            rules_of(&run("crates/format/src/gzip.rs", src)),
            vec!["panic-call"]
        );
        assert!(run("crates/core/src/dp.rs", src).is_empty());
    }

    #[test]
    fn panic_macros_fire() {
        let src = "fn f() { if bad { panic!(\"no\") } else { todo!() } }";
        let f = run("crates/format/src/binary.rs", src);
        assert_eq!(rules_of(&f), vec!["panic-call", "panic-call"]);
    }

    #[test]
    fn self_expect_parser_method_is_not_std_expect() {
        let src = "
            fn g(&mut self) -> Result<(), String> { self.expect(b'\"') }
            fn h(x: Option<u8>) -> u8 { x.expect(\"boom\") }
        ";
        let f = run("crates/format/src/json.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("expect"));
    }

    #[test]
    fn unwrap_in_test_region_is_fine() {
        let src = "
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { x.unwrap(); v[i] = 0; }
            }
        ";
        assert!(run("crates/format/src/gzip.rs", src).is_empty());
    }

    #[test]
    fn computed_index_flagged_literal_index_not() {
        let src = "
            fn f(v: &[u8], i: usize) -> u8 {
                let _a = v[0];
                let _b = v[0..8].len();
                let _c = v[..3].len();
                v[i]
            }
        ";
        let f = run("crates/format/src/text.rs", src);
        assert_eq!(rules_of(&f), vec!["panic-index"]);
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn attributes_macros_and_types_are_not_indexing() {
        let src = "
            #[derive(Debug)]
            struct S { buf: [u8; 16] }
            fn f(n: usize) -> Vec<u8> { vec![0; n] }
        ";
        assert!(run("crates/format/src/binary.rs", src).is_empty());
    }

    #[test]
    fn chained_and_call_result_indexing_is_flagged() {
        let src = "fn f(m: &M, i: usize) -> u8 { m.rows()[i] }";
        assert_eq!(
            rules_of(&run("crates/format/src/columnar.rs", src)),
            vec!["panic-index"]
        );
    }

    #[test]
    fn lock_unwrap_flagged_once_not_doubled_by_panic_call() {
        let src = "fn f(&self) -> usize { self.pool.lock().unwrap().entries.len() }";
        let f = run("crates/cli/src/commands/serve.rs", src);
        assert_eq!(rules_of(&f), vec!["lock-unwrap"]);
    }

    #[test]
    fn lock_scope_flags_heavy_call_under_guard() {
        let src = "
            fn f(&self) {
                let mut pool = self.pool.lock().unwrap();
                let e = warm_up(&mut pool);
            }
        ";
        let f = run("crates/cli/src/commands/serve.rs", src);
        assert!(f.iter().any(|f| f.rule == "lock-scope"), "{f:?}");
    }

    #[test]
    fn lock_scope_respects_block_end_and_drop() {
        let src = "
            fn f(&self) {
                {
                    let mut pool = lock_clean(&self.pool);
                    pool.clock += 1;
                }
                engine.warm_up();
                let mut builds = lock_clean(&self.builds);
                drop(builds);
                engine.warm_up();
            }
        ";
        let f = run("crates/cli/src/commands/serve.rs", src);
        assert!(
            !f.iter().any(|f| f.rule == "lock-scope"),
            "guard ended by block/drop must not flag: {f:?}"
        );
    }

    #[test]
    fn lock_scope_sees_lock_clean_bindings() {
        let src = "
            fn f(&self) {
                let mut builds = lock_clean(&self.builds);
                engine.execute(&req);
            }
        ";
        let f = run("crates/cli/src/commands/serve.rs", src);
        assert!(f.iter().any(|f| f.rule == "lock-scope"), "{f:?}");
    }

    #[test]
    fn lock_scope_flags_slot_answer_under_guard() {
        let src = "
            fn f(&self) {
                let pool = lock_clean(&self.pool);
                let reply = slot.answer(config.n_slices, &request);
            }
        ";
        let f = run("crates/cli/src/commands/serve.rs", src);
        assert!(f.iter().any(|f| f.rule == "lock-scope"), "{f:?}");
    }

    #[test]
    fn lock_scope_flags_snapshot_work_under_the_live_guard() {
        for call in [
            "gen.engine.session().advanced(events)",
            "gen.engine.session().resliced(8, None)",
            "feeder.feed(events)",
            "answer_at(&gen.engine, 8, &request)",
        ] {
            let src = format!(
                "fn f(&self) {{ let mut gen = lock_clean(&self.live.gen); let x = {call}; }}"
            );
            let f = run("crates/cli/src/commands/serve.rs", &src);
            assert!(f.iter().any(|f| f.rule == "lock-scope"), "{call}: {f:?}");
        }
        // A handle cloned out under the lock and used after it is fine.
        let src = "
            fn f(&self) {
                let current = self.live.current();
                let next = current.session().advanced(events);
            }
        ";
        let f = run("crates/cli/src/commands/serve.rs", src);
        assert!(!f.iter().any(|f| f.rule == "lock-scope"), "{f:?}");
    }

    #[test]
    fn non_pool_guards_are_not_tracked() {
        let src = "
            fn f(&self) {
                let engine = slot.engine.read().map_err(drop)?;
                engine.execute_shared(&req);
            }
        ";
        let f = run("crates/cli/src/commands/serve.rs", src);
        assert!(!f.iter().any(|f| f.rule == "lock-scope"), "{f:?}");
    }

    #[test]
    fn unsafe_is_denied_everywhere() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        assert_eq!(
            rules_of(&run("crates/mpisim/src/engine.rs", src)),
            vec!["no-unsafe"]
        );
        assert_eq!(rules_of(&run("src/lib.rs", src)), vec!["no-unsafe"]);
    }

    #[test]
    fn prints_flagged_in_library_crates_only() {
        let src = "fn f() { println!(\"hi\"); eprintln!(\"err\"); }";
        let f = run("crates/viz/src/color.rs", src);
        assert_eq!(rules_of(&f), vec!["no-print", "no-print"]);
        assert!(run("crates/cli/src/main.rs", src).is_empty());
        assert!(run("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn threads_flagged_in_library_crates_only() {
        let src =
            "fn f() { std::thread::scope(|s| { s.spawn(|| ()); }); std::thread::spawn(|| ()); }";
        let f = run("crates/format/src/io.rs", src);
        assert_eq!(rules_of(&f), vec!["no-thread", "no-thread"]);
        assert!(run("crates/compat/rayon/src/lib.rs", src).is_empty());
        assert!(run("crates/cli/src/commands/serve.rs", src).is_empty());
    }

    #[test]
    fn threads_in_test_code_and_other_paths_are_fine() {
        let src = "
            fn f() { let n = std::thread::available_parallelism(); thread::sleep(d); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { std::thread::scope(|s| { s.spawn(|| ()); }); }
            }
        ";
        assert!(run("crates/core/src/session.rs", src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_exactly_its_rule() {
        let src = "
            fn gc() {
                // oclint: allow(det-clock) — GC recency ordering only
                let t = SystemTime::now();
                let u = SystemTime::now();
            }
        ";
        let f = run("crates/format/src/store.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn findings_carry_position_and_render_file_line_col() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}";
        let f = run("crates/format/src/paje.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].line, f[0].rule), (2, "panic-call"));
        let shown = f[0].to_string();
        assert!(shown.starts_with("crates/format/src/paje.rs:2:"), "{shown}");
    }
}
