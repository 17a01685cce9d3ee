//! `slicing-lint` — the workspace's offline static-analysis pass.
//!
//! A slicing relay is an adversarial-input parser: a remote peer hands
//! it every byte it touches. This crate walks the workspace sources
//! with a hand-rolled lexer (no `syn`, no dependencies — it must build
//! first in an offline CI lane) and enforces the project invariants
//! that reviews kept catching by accident:
//!
//! * **`safety-comment`** — every `unsafe` block / fn / impl carries a
//!   `// SAFETY:` comment (or a `# Safety` doc section), and the full
//!   unsafe inventory is written to `UNSAFE_LEDGER.md` so new unsafe is
//!   visible as a diff in review.
//! * **`hot-path`** — a region marked `` lint: hot-path `` (comment
//!   marker above the fn) must not panic (`panic!`/`unwrap`/`expect`/
//!   `assert!` — `debug_assert!` stays allowed) or allocate
//!   (`Vec::new`, `to_vec`, `format!`, …, and `.clone()` on anything
//!   the file does not declare as `Bytes`).
//! * **`guard-across-await`** — a `Mutex`/`RwLock` guard binding that
//!   stays live across an `.await` in async code (the PR 3 TCP-cache
//!   race class, now checked mechanically).
//! * **`vendor-drift`** — `vendor/` sources must not gain `unsafe`
//!   without a matching ledger entry.
//!
//! Any finding can be suppressed in place with
//! `` lint: allow(<rule>) — <justification> `` on the finding's line or
//! the line above; an allow without a justification is itself a finding
//! (`allow-justification`).
//!
//! Run `cargo run -p slicing-lint` locally, `-- --ci` in CI (adds the
//! ledger drift check), `-- --write-ledger` after auditing new unsafe,
//! and `-- --stats` for the size and surface counts ([`Stats`]) a change
//! reports.

pub mod lexer;

use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use lexer::{find_tokens, ident_ending_at, ident_starting_at, match_braces, skip_ws, Stripped};

/// Rule id: missing `// SAFETY:` on an `unsafe` site.
pub const RULE_SAFETY: &str = "safety-comment";
/// Rule id: panic/alloc inside a `lint: hot-path` region.
pub const RULE_HOT_PATH: &str = "hot-path";
/// Rule id: lock guard live across an `.await`.
pub const RULE_GUARD_AWAIT: &str = "guard-across-await";
/// Rule id: `vendor/` unsafe not covered by the checked-in ledger.
pub const RULE_VENDOR_DRIFT: &str = "vendor-drift";
/// Rule id: `UNSAFE_LEDGER.md` out of date for first-party sources.
pub const RULE_LEDGER_DRIFT: &str = "ledger-drift";
/// Rule id: malformed `lint: allow(...)` (no justification / unknown rule).
pub const RULE_ALLOW: &str = "allow-justification";

const SUPPRESSIBLE: [&str; 3] = [RULE_SAFETY, RULE_HOT_PATH, RULE_GUARD_AWAIT];

/// What shape of `unsafe` an inventory entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// An `unsafe { … }` block.
    Block,
    /// An `unsafe fn` definition.
    Fn,
    /// An `unsafe impl` (or `unsafe trait`).
    Impl,
    /// An `unsafe extern` block.
    Extern,
}

impl fmt::Display for UnsafeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnsafeKind::Block => "unsafe block",
            UnsafeKind::Fn => "unsafe fn",
            UnsafeKind::Impl => "unsafe impl",
            UnsafeKind::Extern => "unsafe extern",
        })
    }
}

/// One `unsafe` occurrence in the tree (ledger entry).
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line of the `unsafe` keyword.
    pub line: usize,
    /// Site shape.
    pub kind: UnsafeKind,
    /// Named item (fn name, impl target) when identifiable.
    pub name: Option<String>,
    /// First line of the covering SAFETY comment, when present.
    pub safety: Option<String>,
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`safety-comment`, `hot-path`, …).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Full analysis result.
#[derive(Debug, Default)]
pub struct Report {
    /// All diagnostics, file order.
    pub findings: Vec<Finding>,
    /// Every `unsafe` site seen (annotated or not), file order.
    pub inventory: Vec<UnsafeSite>,
}

impl Report {
    fn merge(&mut self, other: Report) {
        self.findings.extend(other.findings);
        self.inventory.extend(other.inventory);
    }
}

// ---- allowlist ------------------------------------------------------------

#[derive(Debug)]
struct Allow {
    line: usize,
    rule: String,
    justified: bool,
}

fn parse_allows(stripped: &Stripped, rel: &str, findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in &stripped.comments {
        let Some(rest) = c.text.strip_prefix("lint: allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            findings.push(Finding {
                rule: RULE_ALLOW,
                file: rel.to_string(),
                line: c.line,
                message: "malformed `lint: allow(...)` (missing `)`)".into(),
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !SUPPRESSIBLE.contains(&rule.as_str()) {
            findings.push(Finding {
                rule: RULE_ALLOW,
                file: rel.to_string(),
                line: c.line,
                message: format!(
                    "`lint: allow({rule})` names an unknown or non-suppressible rule \
                     (expected one of: {})",
                    SUPPRESSIBLE.join(", ")
                ),
            });
            continue;
        }
        let tail = rest[close + 1..].trim();
        let justification = tail
            .trim_start_matches(['—', '-', ':'])
            .trim();
        let justified = !justification.is_empty();
        if !justified {
            findings.push(Finding {
                rule: RULE_ALLOW,
                file: rel.to_string(),
                line: c.line,
                message: format!(
                    "`lint: allow({rule})` needs a justification: \
                     `// lint: allow({rule}) — <why this is sound here>`"
                ),
            });
        }
        out.push(Allow {
            line: c.line,
            rule,
            justified,
        });
    }
    out
}

fn is_allowed(allows: &[Allow], rule: &str, line: usize) -> bool {
    allows.iter().any(|a| {
        a.justified && a.rule == rule && (a.line == line || a.line + 1 == line)
    })
}

// ---- per-file context -----------------------------------------------------

struct FileCtx<'a> {
    rel: &'a str,
    s: Stripped,
    allows: Vec<Allow>,
    /// Brace depth before each byte of the blanked code.
    depth: Vec<u32>,
}

impl<'a> FileCtx<'a> {
    fn new(rel: &'a str, src: &str, findings: &mut Vec<Finding>) -> Self {
        let s = lexer::strip(src);
        let allows = parse_allows(&s, rel, findings);
        let mut depth = Vec::with_capacity(s.code.len() + 1);
        let mut d = 0u32;
        for &b in s.code.as_bytes() {
            depth.push(d);
            match b {
                b'{' => d += 1,
                b'}' => d = d.saturating_sub(1),
                _ => {}
            }
        }
        depth.push(d);
        FileCtx {
            rel,
            s,
            allows,
            depth,
        }
    }

    fn comment_on(&self, line: usize) -> impl Iterator<Item = &str> {
        self.s
            .comments
            .iter()
            .filter(move |c| c.line == line)
            .map(|c| c.text.as_str())
    }

    /// Does `line` (or the contiguous comment/attribute run above it)
    /// carry a SAFETY marker? Returns the marker text when found.
    fn safety_above(&self, line: usize) -> Option<String> {
        let has_safety = |t: &str| {
            t.contains("SAFETY:") || t.contains("SAFETY —") || t.contains("# Safety")
        };
        for t in self.comment_on(line) {
            if has_safety(t) {
                return Some(t.to_string());
            }
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let code = self.s.code_line(l).trim().to_string();
            let pass_through = code.is_empty() || code.starts_with('#');
            if !pass_through {
                return None;
            }
            for t in self.comment_on(l) {
                if has_safety(t) {
                    return Some(t.to_string());
                }
            }
            // A fully blank line (no comment either) ends the run.
            if code.is_empty() && self.comment_on(l).next().is_none() {
                return None;
            }
        }
        None
    }
}

// ---- rule 1: safety-comment + inventory -----------------------------------

fn excerpt(text: &str) -> String {
    let t = text
        .trim_start_matches("SAFETY:")
        .trim_start_matches("SAFETY —")
        .trim();
    let mut e: String = t.chars().take(90).collect();
    if t.chars().count() > 90 {
        e.push('…');
    }
    e
}

fn rule_safety(ctx: &FileCtx<'_>, report: &mut Report) {
    let code = &ctx.s.code;
    for pos in find_tokens(code, "unsafe", true, true) {
        let line = ctx.s.line_of(pos);
        let after = skip_ws(code, pos + "unsafe".len());
        let (kind, name) = match ident_starting_at(code, after) {
            Some("fn") => {
                let n = ident_starting_at(code, skip_ws(code, after + 2));
                (UnsafeKind::Fn, n.map(str::to_string))
            }
            Some("impl" | "trait") => {
                let head: String = code[after..]
                    .chars()
                    .take_while(|&c| c != '{' && c != '\n')
                    .collect();
                (UnsafeKind::Impl, Some(head.trim().to_string()))
            }
            Some("extern") => (UnsafeKind::Extern, None),
            _ => (UnsafeKind::Block, None),
        };
        let safety = ctx.safety_above(line);
        if safety.is_none() && !is_allowed(&ctx.allows, RULE_SAFETY, line) {
            report.findings.push(Finding {
                rule: RULE_SAFETY,
                file: ctx.rel.to_string(),
                line,
                message: format!(
                    "{kind}{} has no `// SAFETY:` comment (state the invariant that \
                     makes it sound, directly above the site)",
                    name.as_deref()
                        .map(|n| format!(" `{n}`"))
                        .unwrap_or_default()
                ),
            });
        }
        report.inventory.push(UnsafeSite {
            file: ctx.rel.to_string(),
            line,
            kind,
            name,
            safety: safety.as_deref().map(excerpt),
        });
    }
}

// ---- rule 2: hot-path discipline ------------------------------------------

/// Calls that panic on adversarial input. `debug_assert!` is explicitly
/// fine (left-boundary check rejects it for the `assert!` needles).
const PANICKY: [&str; 7] = [
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "assert!",
    "assert_eq!",
    "assert_ne!",
];

/// Allocation constructors a per-packet region must not reach.
const ALLOCATING: [&str; 17] = [
    "Vec::new(",
    "VecDeque::new(",
    "String::new(",
    "HashMap::new(",
    "HashSet::new(",
    "BTreeMap::new(",
    "BTreeSet::new(",
    "Box::new(",
    "Rc::new(",
    "Arc::new(",
    "String::from(",
    "vec!",
    "format!",
    ".to_vec()",
    ".to_string()",
    ".to_owned()",
    ".collect(",
];

/// Identifiers this file declares with type `Bytes` (params, fields,
/// `let` ascriptions): `.clone()` on these is an O(1) refcount bump and
/// exempt from the hot-path allocation rule.
fn bytes_idents(code: &str) -> HashSet<String> {
    let mut out = HashSet::new();
    for pos in find_tokens(code, "Bytes", true, true) {
        let cb = code.as_bytes();
        let mut i = pos;
        // Walk left over whitespace and at most one `&` / `&mut`.
        let skip_back_ws = |i: &mut usize| {
            while *i > 0 && cb[*i - 1].is_ascii_whitespace() {
                *i -= 1;
            }
        };
        skip_back_ws(&mut i);
        if i >= 3 && &code[i - 3..i] == "mut" {
            i -= 3;
            skip_back_ws(&mut i);
        }
        if i >= 1 && cb[i - 1] == b'&' {
            i -= 1;
            skip_back_ws(&mut i);
        }
        if i == 0 || cb[i - 1] != b':' {
            continue;
        }
        i -= 1;
        skip_back_ws(&mut i);
        if let Some(id) = ident_ending_at(code, i) {
            out.insert(id.to_string());
        }
    }
    out
}

fn rule_hot_path(ctx: &FileCtx<'_>, report: &mut Report) {
    let code = &ctx.s.code;
    let markers: Vec<usize> = ctx
        .s
        .comments
        .iter()
        .filter(|c| c.text.starts_with("lint: hot-path"))
        .map(|c| c.line)
        .collect();
    if markers.is_empty() {
        return;
    }
    let bytes_ids = bytes_idents(code);
    let mut push = |line: usize, message: String| {
        if !is_allowed(&ctx.allows, RULE_HOT_PATH, line) {
            report.findings.push(Finding {
                rule: RULE_HOT_PATH,
                file: ctx.rel.to_string(),
                line,
                message,
            });
        }
    };
    for marker_line in markers {
        let from = ctx.s.line_starts[marker_line - 1];
        let Some((open, close)) = match_braces(code, from) else {
            continue;
        };
        let fn_name = find_tokens(&code[from..open], "fn", true, true)
            .first()
            .and_then(|&p| ident_starting_at(code, skip_ws(code, from + p + 2)))
            .unwrap_or("<region>")
            .to_string();
        let region = &code[open..=close];
        let at_line = |off: usize| ctx.s.line_of(open + off);
        for needle in PANICKY {
            for p in find_tokens(region, needle, true, false) {
                push(
                    at_line(p),
                    format!(
                        "`{needle}` in hot-path region `{fn_name}` — a forged packet \
                         must never panic a relay; return a typed error or drop-and-count"
                    ),
                );
            }
        }
        for needle in [".unwrap()", ".expect("] {
            for p in find_tokens(region, needle, false, false) {
                push(
                    at_line(p),
                    format!(
                        "`{}` in hot-path region `{fn_name}` — convert to a typed error \
                         or a drop-and-count path",
                        needle.trim_end_matches('(')
                    ),
                );
            }
        }
        for needle in ALLOCATING {
            // Method-style needles (`.to_vec()`, …) follow a receiver
            // identifier; only bare constructors need a left boundary.
            let left_bound = !needle.starts_with('.');
            for p in find_tokens(region, needle, left_bound, false) {
                push(
                    at_line(p),
                    format!(
                        "`{}` allocates in hot-path region `{fn_name}` — reuse shard \
                         scratch or preallocate at setup",
                        needle.trim_end_matches('(')
                    ),
                );
            }
        }
        for p in find_tokens(region, ".clone()", false, false) {
            let recv = ident_ending_at(region, p);
            if let Some(r) = recv {
                if bytes_ids.contains(r) {
                    continue; // Bytes clone: O(1) refcount bump.
                }
            }
            push(
                at_line(p),
                format!(
                    "`.clone()` on `{}` in hot-path region `{fn_name}` — only \
                     refcounted `Bytes` clones are free; restructure or justify with \
                     an allow",
                    recv.unwrap_or("<expr>")
                ),
            );
        }
    }
}

// ---- rule 3: guard-across-await -------------------------------------------

fn rule_guard_await(ctx: &FileCtx<'_>, report: &mut Report) {
    let code = &ctx.s.code;
    let cb = code.as_bytes();
    let mut regions: Vec<(usize, usize)> = Vec::new();
    for pos in find_tokens(code, "async", true, true) {
        let after = skip_ws(code, pos + 5);
        let is_async_ctx = matches!(ident_starting_at(code, after), Some("fn" | "move"))
            || cb.get(after) == Some(&b'{');
        if !is_async_ctx {
            continue;
        }
        if let Some((open, close)) = match_braces(code, pos) {
            regions.push((open, close));
        }
    }
    let mut seen: HashSet<usize> = HashSet::new();
    for (open, close) in regions {
        for needle in [".lock()", ".read()", ".write()"] {
            for p in find_tokens(&code[open..close], needle, false, false) {
                let at = open + p;
                // Statement start: last `;`/`{`/`}` before the lock call.
                let stmt_start = code[..at]
                    .rfind([';', '{', '}'])
                    .map(|i| i + 1)
                    .unwrap_or(0);
                let stmt_head = &code[stmt_start..at];
                let lets = find_tokens(stmt_head, "let", true, true);
                let Some(&let_off) = lets.first() else {
                    continue; // temporary guard: dropped at end of statement
                };
                let line = ctx.s.line_of(at);
                if seen.contains(&line) {
                    continue;
                }
                // `if let` / `while let`: the guard is a temporary whose
                // scope is the conditional's block — flag only if that
                // block itself suspends.
                let conditional = ["if", "while"].iter().any(|kw| {
                    find_tokens(stmt_head, kw, true, true)
                        .iter()
                        .any(|&k| k < let_off)
                });
                if conditional {
                    if let Some((bopen, bclose)) = match_braces(code, at) {
                        if bclose <= close
                            && !find_tokens(&code[bopen..bclose], ".await", false, true)
                                .is_empty()
                            && !is_allowed(&ctx.allows, RULE_GUARD_AWAIT, line)
                        {
                            seen.insert(line);
                            report.findings.push(Finding {
                                rule: RULE_GUARD_AWAIT,
                                file: ctx.rel.to_string(),
                                line,
                                message: format!(
                                    "a `{needle}` guard is borrowed for this whole \
                                     conditional, which `.await`s inside — take the \
                                     guard in a scope that ends before suspending"
                                ),
                            });
                        }
                    }
                    continue;
                }
                let mut ni = skip_ws(code, stmt_start + let_off + 3);
                if ident_starting_at(code, ni) == Some("mut") {
                    ni = skip_ws(code, ni + 3);
                }
                // Unwrap constructor patterns: `let Some(g)` / `let Ok(mut g)`.
                let mut name = ident_starting_at(code, ni);
                while let Some(n) = name {
                    let first = n.chars().next().unwrap_or('a');
                    let after = skip_ws(code, ni + n.len());
                    if first.is_ascii_uppercase() && cb.get(after) == Some(&b'(') {
                        ni = skip_ws(code, after + 1);
                        if ident_starting_at(code, ni) == Some("mut") {
                            ni = skip_ws(code, ni + 3);
                        }
                        name = ident_starting_at(code, ni);
                    } else {
                        break;
                    }
                }
                let Some(name) = name else {
                    continue;
                };
                if name == "_" {
                    continue;
                }
                let bind_depth = ctx.depth[at];
                // End of the binding statement: next `;` at binding depth.
                let mut i = at;
                while i < close && !(cb[i] == b';' && ctx.depth[i] == bind_depth) {
                    i += 1;
                }
                // Scan the rest of the guard's scope.
                let mut finding = None;
                while i < close && ctx.depth[i] >= bind_depth {
                    if cb[i] == b'.' && code[i..].starts_with(".await") {
                        let end = i + 6;
                        if end >= cb.len() || !cb[end].is_ascii_alphanumeric() && cb[end] != b'_' {
                            finding = Some(ctx.s.line_of(i));
                            break;
                        }
                    }
                    if cb[i] == b'd' && code[i..].starts_with("drop") {
                        let j = skip_ws(code, i + 4);
                        if cb.get(j) == Some(&b'(') {
                            let k = skip_ws(code, j + 1);
                            if ident_starting_at(code, k) == Some(name) {
                                break; // explicitly released before any await
                            }
                        }
                    }
                    i += 1;
                }
                if let Some(await_line) = finding {
                    if !is_allowed(&ctx.allows, RULE_GUARD_AWAIT, line) {
                        seen.insert(line);
                        report.findings.push(Finding {
                            rule: RULE_GUARD_AWAIT,
                            file: ctx.rel.to_string(),
                            line,
                            message: format!(
                                "guard `{name}` (bound here via `{needle}`) is still live \
                                 across the `.await` on line {await_line} — scope it in a \
                                 block or `drop({name})` first (holding a sync lock across \
                                 a suspension point can deadlock the executor)"
                            ),
                        });
                    }
                }
            }
        }
    }
}

// ---- entry points ---------------------------------------------------------

/// Analyze one file's source text under a workspace-relative label.
pub fn analyze_source(rel: &str, src: &str) -> Report {
    let mut report = Report::default();
    let mut pre_findings = Vec::new();
    let ctx = FileCtx::new(rel, src, &mut pre_findings);
    report.findings = pre_findings;
    rule_safety(&ctx, &mut report);
    rule_hot_path(&ctx, &mut report);
    rule_guard_await(&ctx, &mut report);
    report
}

/// Directories under the workspace root that are walked.
pub const SCAN_DIRS: [&str; 5] = ["crates", "src", "vendor", "tests", "examples"];

fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            // `fixtures/` trees hold deliberate violations for the
            // analyzer's own tests; `target/` is build output.
            if name == "fixtures" || name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&p, out)?;
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Analyze the whole workspace tree rooted at `root`.
pub fn analyze_tree(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for d in SCAN_DIRS {
        let p = root.join(d);
        if p.is_dir() {
            walk(&p, &mut files)?;
        }
    }
    let mut report = Report::default();
    for f in &files {
        let src = fs::read_to_string(f)?;
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        report.merge(analyze_source(&rel, &src));
    }
    Ok(report)
}

// ---- stats ----------------------------------------------------------------

/// Size and surface counts of first-party non-test code — the figures
/// every change reports (`--stats`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Lines carrying code (not blank, not comment-only) outside
    /// `#[cfg(test)]` items.
    pub code_lines: usize,
    /// `unsafe` sites in the ledger inventory (whole tree).
    pub unsafe_sites: usize,
    /// `env::var*` read sites.
    pub env_var_reads: usize,
    /// `pub trait` items.
    pub pub_traits: usize,
    /// `pub struct` items.
    pub pub_structs: usize,
    /// `pub enum` items.
    pub pub_enums: usize,
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = [
            ("non-test code lines (crates/*/src)", self.code_lines),
            ("ledgered unsafe sites", self.unsafe_sites),
            ("env::var read sites", self.env_var_reads),
            ("pub trait", self.pub_traits),
            ("pub struct", self.pub_structs),
            ("pub enum", self.pub_enums),
        ];
        for (name, n) in rows {
            writeln!(f, "{name:<36}{n}")?;
        }
        Ok(())
    }
}

/// Byte ranges of `#[cfg(test)]` items: the attribute through the end
/// of the item's `{ … }` body, or through its `;` when that comes first.
fn test_ranges(code: &str) -> Vec<(usize, usize)> {
    find_tokens(code, "#[cfg(test)]", false, false)
        .into_iter()
        .filter_map(|at| {
            let after = at + "#[cfg(test)]".len();
            let semi = code[after..].find(';').map(|i| after + i);
            let brace = code[after..].find('{').map(|i| after + i);
            match (semi, brace) {
                (Some(s), Some(b)) if s < b => Some((at, s)),
                (Some(s), None) => Some((at, s)),
                _ => match_braces(code, after).map(|(_, close)| (at, close)),
            }
        })
        .collect()
}

/// [`Stats`] of one file's source text (`unsafe_sites` left at zero:
/// that count comes from the tree-wide ledger inventory).
pub fn stats_source(src: &str) -> Stats {
    let s = lexer::strip(src);
    let code = &s.code;
    let tests = test_ranges(code);
    let in_test = |off: usize| tests.iter().any(|&(a, b)| a <= off && off <= b);
    let comment_lines: HashSet<usize> = s.comments.iter().map(|c| c.line).collect();
    let raw: Vec<&str> = src.split('\n').collect();
    let mut stats = Stats::default();
    for line in 1..=s.line_count() {
        if in_test(s.line_starts[line - 1]) {
            continue;
        }
        // Code, or a continuation line of a multi-line string literal
        // (blanked by the lexer, but not a comment either).
        let has_code = !s.code_line(line).trim().is_empty()
            || (raw.get(line - 1).is_some_and(|l| !l.trim().is_empty())
                && !comment_lines.contains(&line));
        stats.code_lines += usize::from(has_code);
    }
    let count = |needle: &str, right_bound: bool| {
        find_tokens(code, needle, true, right_bound)
            .into_iter()
            .filter(|&p| !in_test(p))
            .count()
    };
    stats.env_var_reads = count("env::var", false);
    stats.pub_traits = count("pub trait", true);
    stats.pub_structs = count("pub struct", true);
    stats.pub_enums = count("pub enum", true);
    stats
}

/// [`Stats`] of the workspace rooted at `root`: every `.rs` file under
/// `crates/*/src`, plus the whole tree's unsafe inventory.
pub fn stats_tree(root: &Path) -> io::Result<Stats> {
    let mut files = Vec::new();
    for c in fs::read_dir(root.join("crates"))? {
        let src = c?.path().join("src");
        if src.is_dir() {
            walk(&src, &mut files)?;
        }
    }
    let mut total = Stats {
        unsafe_sites: analyze_tree(root)?.inventory.len(),
        ..Stats::default()
    };
    for f in &files {
        let s = stats_source(&fs::read_to_string(f)?);
        total.code_lines += s.code_lines;
        total.env_var_reads += s.env_var_reads;
        total.pub_traits += s.pub_traits;
        total.pub_structs += s.pub_structs;
        total.pub_enums += s.pub_enums;
    }
    Ok(total)
}

// ---- ledger ---------------------------------------------------------------

/// Name of the checked-in unsafe inventory at the workspace root.
pub const LEDGER_FILE: &str = "UNSAFE_LEDGER.md";

fn entry_line(site: &UnsafeSite) -> String {
    format!(
        "- {} L{} {}{}{}",
        site.file,
        site.line,
        site.kind,
        site.name
            .as_deref()
            .map(|n| format!(" `{n}`"))
            .unwrap_or_default(),
        site.safety
            .as_deref()
            .map(|s| format!(" — SAFETY: {s}"))
            .unwrap_or_else(|| " — (UNANNOTATED)".to_string()),
    )
}

/// Render the canonical `UNSAFE_LEDGER.md` text for an inventory.
pub fn render_ledger(inventory: &[UnsafeSite]) -> String {
    let files: Vec<&str> = {
        let mut seen = Vec::new();
        for s in inventory {
            if !seen.contains(&s.file.as_str()) {
                seen.push(s.file.as_str());
            }
        }
        seen
    };
    let vendor = inventory
        .iter()
        .filter(|s| s.file.starts_with("vendor/"))
        .count();
    let mut out = String::new();
    out.push_str("# UNSAFE_LEDGER\n\n");
    out.push_str(
        "Machine-written inventory of every `unsafe` site in the workspace.\n\
         Regenerate with `cargo run -p slicing-lint -- --write-ledger`; CI\n\
         (`cargo run -p slicing-lint -- --ci`) fails when this file drifts\n\
         from the tree, so any new `unsafe` shows up as a reviewable diff\n\
         here. `vendor/` entries are additionally policed by the\n\
         `vendor-drift` rule: vendored crates are `#![forbid(unsafe_code)]`\n\
         except `vendor/tokio`, which denies it outside its epoll reactor,\n\
         and every vendored site must have an entry here.\n\n",
    );
    out.push_str(&format!(
        "Total: {} unsafe sites across {} files ({} in vendor/).\n",
        inventory.len(),
        files.len(),
        vendor
    ));
    for f in files {
        out.push_str(&format!("\n## {f}\n\n"));
        for s in inventory.iter().filter(|s| s.file == f) {
            out.push_str(&entry_line(s));
            out.push('\n');
        }
    }
    out
}

/// Compare a checked-in ledger against the freshly generated one;
/// returns drift findings (empty when current).
pub fn diff_ledger(existing: &str, generated: &str) -> Vec<Finding> {
    let entries = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("- "))
            .map(str::to_string)
            .collect()
    };
    let old: HashSet<String> = entries(existing).into_iter().collect();
    let new_entries = entries(generated);
    let newset: HashSet<String> = new_entries.iter().cloned().collect();
    let mut findings = Vec::new();
    let classify = |entry: &str| {
        if entry.starts_with("- vendor/") {
            RULE_VENDOR_DRIFT
        } else {
            RULE_LEDGER_DRIFT
        }
    };
    for e in &new_entries {
        if !old.contains(e) {
            findings.push(Finding {
                rule: classify(e),
                file: LEDGER_FILE.to_string(),
                line: 1,
                message: format!(
                    "unsafe site in tree but not in ledger: `{}` — audit it, then \
                     run `cargo run -p slicing-lint -- --write-ledger`",
                    e.trim_start_matches("- ")
                ),
            });
        }
    }
    for e in &old {
        if !newset.contains(e) {
            findings.push(Finding {
                rule: classify(e),
                file: LEDGER_FILE.to_string(),
                line: 1,
                message: format!(
                    "stale ledger entry (site moved or gone): `{}` — run \
                     `cargo run -p slicing-lint -- --write-ledger`",
                    e.trim_start_matches("- ")
                ),
            });
        }
    }
    findings
}
