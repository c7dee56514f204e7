//! Source-level static analysis for the workspace's repo invariants.
//!
//! A small hand-rolled Rust lexer (no syn, no network deps) walks every
//! crate source and enforces the conventions the architecture notes state
//! in prose:
//!
//! * **missing-safety** — every `unsafe` block, `unsafe fn` and
//!   `unsafe impl` carries a `// SAFETY:` rationale (a `/// # Safety` doc
//!   section counts for `unsafe fn`);
//! * **stray-relaxed** — `Ordering::Relaxed` is forbidden outside the
//!   per-site allowlist `lint-allow.toml`, so generation/epoch publication
//!   can't silently decay to unordered atomics;
//! * **worker-panic** — no `unwrap`/`expect`/`panic!`-family calls in the
//!   worker/reader thread bodies (`crates/core/src/system/runtime`,
//!   `crates/core/src/system/serve`), where a panic would poison a shard
//!   instead of failing a request;
//! * **hotpath** — no `Instant::now`/heap allocation inside regions marked
//!   `// nm-lint: hotpath` … `// nm-lint: end-hotpath` (the per-packet
//!   batch loops);
//! * **shim-drift** — the offline shims keep the API names of the real
//!   crates they mirror, so swapping the registry versions back in stays a
//!   manifest-only change;
//! * **one-lookup-hook** — an `impl … Classifier for …` block defines
//!   `batch_lookup` and none of the four lookup methods the trait provides
//!   on top of it (`classify`, `classify_with_floor`, `classify_batch`,
//!   `classify_batch_with_floors`), so every engine has one lookup path.
//!
//! `#[cfg(test)]`-gated code is exempt from stray-relaxed and worker-panic
//! (tests may take shortcuts; shipped code may not).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::path::Path;

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier (e.g. `missing-safety`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
    Lit,
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
}

/// Tokens plus per-line comment text (doc and regular, concatenated).
struct Lexed {
    tokens: Vec<Token>,
    comments: BTreeMap<usize, String>,
}

fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut tokens = Vec::new();
    let mut comments: BTreeMap<usize, String> = BTreeMap::new();
    let n = b.len();
    let mut note_comment = |line: usize, text: &str| {
        let e = comments.entry(line).or_default();
        e.push_str(text);
        e.push(' ');
    };
    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && b[i + 1] == '/' => {
                let start = i;
                while i < n && b[i] != '\n' {
                    i += 1;
                }
                note_comment(line, &b[start..i].iter().collect::<String>());
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                let start_line = line;
                let start = i;
                i += 2;
                let mut depth = 1;
                while i < n && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    if i + 1 < n && b[i] == '/' && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if i + 1 < n && b[i] == '*' && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                note_comment(start_line, &b[start..i.min(n)].iter().collect::<String>());
            }
            '"' => {
                i += 1;
                while i < n {
                    match b[i] {
                        // An escape may be a `\<newline>` continuation —
                        // the newline still advances the line counter.
                        '\\' => {
                            if i + 1 < n && b[i + 1] == '\n' {
                                line += 1;
                            }
                            i += 2;
                        }
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                tokens.push(Token { tok: Tok::Lit, line });
            }
            'r' | 'b' if is_raw_or_byte_string(&b, i) => {
                // r"", r#""#, br"", b"" — scan past the prefix, count
                // hashes, then find the matching close quote + hashes.
                let tok_line = line;
                while i < n && (b[i] == 'r' || b[i] == 'b') {
                    i += 1;
                }
                let mut hashes = 0;
                while i < n && b[i] == '#' {
                    hashes += 1;
                    i += 1;
                }
                if i < n && b[i] == '\'' {
                    // b'x' byte char
                    i += 1;
                    while i < n && b[i] != '\'' {
                        if b[i] == '\\' {
                            i += 1;
                        }
                        i += 1;
                    }
                    i += 1;
                } else {
                    i += 1; // opening quote
                    'scan: while i < n {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        if b[i] == '"' {
                            let mut k = 0;
                            while k < hashes && i + 1 + k < n && b[i + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                i += 1 + hashes;
                                break 'scan;
                            }
                        }
                        i += 1;
                    }
                }
                tokens.push(Token { tok: Tok::Lit, line: tok_line });
            }
            '\'' => {
                // Char literal vs lifetime.
                if i + 1 < n && b[i + 1] == '\\' {
                    i += 2;
                    while i < n && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                    tokens.push(Token { tok: Tok::Lit, line });
                } else if i + 2 < n && b[i + 2] == '\'' {
                    i += 3;
                    tokens.push(Token { tok: Tok::Lit, line });
                } else {
                    // Lifetime: consume the tick and the identifier.
                    i += 1;
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    tokens.push(Token { tok: Tok::Lit, line });
                }
            }
            c if c.is_ascii_digit() => {
                i += 1;
                while i < n {
                    let d = b[i];
                    let in_number = d.is_alphanumeric()
                        || d == '_'
                        || (d == '.' && i + 1 < n && b[i + 1].is_ascii_digit() && b[i - 1] != '.');
                    if in_number {
                        i += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token { tok: Tok::Lit, line });
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                tokens.push(Token { tok: Tok::Ident(b[start..i].iter().collect()), line });
            }
            c => {
                tokens.push(Token { tok: Tok::Punct(c), line });
                i += 1;
            }
        }
    }
    Lexed { tokens, comments }
}

fn is_raw_or_byte_string(b: &[char], i: usize) -> bool {
    // Lone identifiers starting with r/b are handled by the ident arm; this
    // only claims r/b(r)?#*" and b' prefixes.
    let n = b.len();
    let mut j = i;
    while j < n && (b[j] == 'r' || b[j] == 'b') && j - i < 2 {
        j += 1;
    }
    while j < n && b[j] == '#' {
        j += 1;
    }
    j < n && (b[j] == '"' || (b[j] == '\'' && b[i] == 'b'))
}

// ---------------------------------------------------------------------------
// Allowlist (lint-allow.toml)
// ---------------------------------------------------------------------------

/// One `[[relaxed]]` entry of `lint-allow.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `Relaxed` token.
    pub line: usize,
    /// One-line justification (must be non-empty).
    pub reason: String,
}

/// Parsed allowlist plus parse errors as findings.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Justified `Relaxed` sites.
    pub relaxed: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the minimal TOML subset used by `lint-allow.toml`:
    /// `[[relaxed]]` tables with `file`/`line`/`reason` keys.
    pub fn parse(src: &str) -> (Allowlist, Vec<Finding>) {
        let mut list = Allowlist::default();
        let mut errors = Vec::new();
        let mut cur: Option<AllowEntry> = None;
        fn err(errors: &mut Vec<Finding>, line: usize, message: String) {
            errors.push(Finding {
                file: "lint-allow.toml".into(),
                line,
                rule: "allowlist",
                message,
            });
        }
        let mut flush = |cur: &mut Option<AllowEntry>, lineno: usize, errors: &mut Vec<Finding>| {
            if let Some(e) = cur.take() {
                if e.file.is_empty() || e.line == 0 || e.reason.trim().is_empty() {
                    errors.push(Finding {
                        file: "lint-allow.toml".into(),
                        line: lineno,
                        rule: "allowlist",
                        message: "entry needs non-empty `file`, `line` and `reason`".into(),
                    });
                } else {
                    list.relaxed.push(e);
                }
            }
        };
        for (idx, raw) in src.lines().enumerate() {
            let lineno = idx + 1;
            let lstr = raw.split('#').next().unwrap_or("").trim();
            if lstr.is_empty() {
                continue;
            }
            if lstr == "[[relaxed]]" {
                flush(&mut cur, lineno, &mut errors);
                cur = Some(AllowEntry { file: String::new(), line: 0, reason: String::new() });
            } else if lstr.starts_with('[') {
                flush(&mut cur, lineno, &mut errors);
                err(
                    &mut errors,
                    lineno,
                    format!("unknown table `{lstr}` (only [[relaxed]] is supported)"),
                );
            } else if let Some((k, v)) = lstr.split_once('=') {
                let (k, v) = (k.trim(), v.trim());
                let Some(e) = cur.as_mut() else {
                    err(&mut errors, lineno, format!("key `{k}` outside a [[relaxed]] table"));
                    continue;
                };
                match k {
                    "file" => e.file = v.trim_matches('"').to_string(),
                    "line" => {
                        e.line = v.parse().unwrap_or(0);
                        if e.line == 0 {
                            err(
                                &mut errors,
                                lineno,
                                format!("`line` must be a positive integer, got `{v}`"),
                            );
                        }
                    }
                    "reason" => e.reason = v.trim_matches('"').to_string(),
                    _ => err(&mut errors, lineno, format!("unknown key `{k}`")),
                }
            } else {
                err(&mut errors, lineno, format!("unparsable line `{lstr}`"));
            }
        }
        flush(&mut cur, src.lines().count(), &mut errors);
        (list, errors)
    }
}

// ---------------------------------------------------------------------------
// Per-file rules
// ---------------------------------------------------------------------------

/// Directories whose non-test code runs on worker/reader threads, where a
/// panic poisons a shard instead of failing one request.
const WORKER_SCOPES: [&str; 2] =
    ["crates/core/src/system/runtime/", "crates/core/src/system/serve/"];

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];

/// Identifier pairs (`A::b` or `.b(`) that allocate or take a timestamp —
/// forbidden inside `// nm-lint: hotpath` regions.
const HOTPATH_PATHS: [(&str, &str); 8] = [
    ("Instant", "now"),
    ("SystemTime", "now"),
    ("Box", "new"),
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];
const HOTPATH_METHODS: [&str; 4] = ["to_vec", "to_string", "to_owned", "collect"];
const HOTPATH_MACROS: [&str; 2] = ["vec", "format"];

/// The lookup methods `Classifier` provides on top of `batch_lookup`.
const PROVIDED_LOOKUPS: [&str; 4] =
    ["classify", "classify_with_floor", "classify_batch", "classify_batch_with_floors"];

/// `one-lookup-hook`: a provided lookup method defined in the body of an
/// `impl … Classifier for …` block, whose trait is the last identifier
/// before the header's first `for` outside its generics.
fn lookup_overrides(file: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    // Per open brace: whether it opens a `Classifier` impl's body.
    let mut bodies: Vec<bool> = Vec::new();
    // The impl header being read: angle depth, last identifier, its trait test.
    let mut header: Option<(usize, &str, Option<bool>)> = None;
    for (i, t) in toks.iter().enumerate() {
        match (&t.tok, header.as_mut()) {
            (Tok::Ident(id), None) if id == "impl" => header = Some((0, "", None)),
            (Tok::Punct('<'), Some(h)) => h.0 += 1,
            (Tok::Punct('>'), Some(h)) if toks[i - 1].tok != Tok::Punct('-') => {
                h.0 = h.0.saturating_sub(1)
            }
            (Tok::Ident(id), Some(h)) if h.0 == 0 && h.2.is_none() => match id.as_str() {
                "for" => h.2 = Some(h.1 == "Classifier"),
                _ => h.1 = id,
            },
            (Tok::Punct(';'), Some(_)) => header = None,
            (Tok::Punct('{'), _) => bodies.push(header.take().and_then(|h| h.2).unwrap_or(false)),
            (Tok::Punct('}'), _) => {
                bodies.pop();
            }
            (Tok::Ident(f), None) if f == "fn" && bodies.last() == Some(&true) => {
                if let Some(Token { tok: Tok::Ident(name), line }) = toks.get(i + 1) {
                    if PROVIDED_LOOKUPS.contains(&name.as_str()) {
                        findings.push(Finding {
                            file: file.into(),
                            line: *line,
                            rule: "one-lookup-hook",
                            message: format!(
                                "`{name}` in a `Classifier` impl: implement `batch_lookup` \
                                 alone, the trait provides `{name}`"
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

/// Token-index ranges gated behind `#[cfg(test)]` / `#[test]`.
fn test_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].tok != Tok::Punct('#') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks[j].tok == Tok::Punct('!') {
            j += 1; // inner attribute #![...]
        }
        if j >= toks.len() || toks[j].tok != Tok::Punct('[') {
            i += 1;
            continue;
        }
        // Scan the attribute body to its matching ']'.
        let mut depth = 0usize;
        let mut idents: Vec<&str> = Vec::new();
        let attr_start = j;
        let mut end = None;
        for (k, t) in toks.iter().enumerate().skip(attr_start) {
            match &t.tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(k);
                        break;
                    }
                }
                Tok::Ident(id) => idents.push(id),
                _ => {}
            }
        }
        let Some(end) = end else { break };
        let gated = match idents.first().copied() {
            Some("test") => true,
            Some("cfg") => {
                let mut has_test = false;
                for (k, w) in idents.windows(2).enumerate() {
                    let _ = k;
                    if w[1] == "test" && w[0] == "not" {
                        has_test = false;
                        break;
                    }
                    if w[1] == "test" {
                        has_test = true;
                    }
                }
                has_test
            }
            _ => false,
        };
        if !gated {
            i = end + 1;
            continue;
        }
        // Skip any further attributes, then cover the following item: up to
        // the matching '}' of its first brace, or a terminating ';'.
        let mut k = end + 1;
        loop {
            if k + 1 < toks.len()
                && toks[k].tok == Tok::Punct('#')
                && toks[k + 1].tok == Tok::Punct('[')
            {
                let mut d = 0usize;
                let mut advanced = false;
                for (m, t) in toks.iter().enumerate().skip(k + 1) {
                    match t.tok {
                        Tok::Punct('[') => d += 1,
                        Tok::Punct(']') => {
                            d -= 1;
                            if d == 0 {
                                k = m + 1;
                                advanced = true;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                if !advanced {
                    break;
                }
                continue;
            }
            break;
        }
        let mut close = toks.len().saturating_sub(1);
        let mut d = 0usize;
        for (m, t) in toks.iter().enumerate().skip(k) {
            match t.tok {
                Tok::Punct(';') if d == 0 => {
                    close = m;
                    break;
                }
                Tok::Punct('{') => d += 1,
                Tok::Punct('}') => {
                    d = d.saturating_sub(1);
                    if d == 0 {
                        close = m;
                        break;
                    }
                }
                _ => {}
            }
        }
        ranges.push((i, close));
        i = close + 1;
    }
    ranges
}

fn in_ranges(ranges: &[(usize, usize)], idx: usize) -> bool {
    ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
}

/// Whether the contiguous comment/attribute block above `line` (or the line
/// itself) carries a `SAFETY:` rationale (or a `# Safety` doc section).
fn has_safety_rationale(lines: &[&str], comments: &BTreeMap<usize, String>, line: usize) -> bool {
    let mentions = |l: usize| {
        comments.get(&l).is_some_and(|t| t.contains("SAFETY:") || t.contains("# Safety"))
    };
    if mentions(line) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        let text = lines.get(l - 1).map_or("", |s| s.trim());
        let is_comment = text.starts_with("//");
        let is_attr = text.starts_with("#[") || text.starts_with("#![");
        // Multi-line attributes / signatures end the walk conservatively.
        if !(is_comment || is_attr) {
            return false;
        }
        if is_comment && mentions(l) {
            return true;
        }
        l -= 1;
    }
    false
}

/// Hotpath line ranges marked by `// nm-lint: hotpath` comments.
fn hotpath_ranges(
    comments: &BTreeMap<usize, String>,
    findings: &mut Vec<Finding>,
    file: &str,
) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut open: Option<usize> = None;
    for (&line, text) in comments {
        // Markers must be standalone comment lines — prose that merely
        // mentions them (like these docs) must not open a region.
        let text = text.trim();
        if text == "// nm-lint: end-hotpath" {
            match open.take() {
                Some(start) => ranges.push((start, line)),
                None => findings.push(Finding {
                    file: file.into(),
                    line,
                    rule: "hotpath",
                    message: "end-hotpath marker without a matching hotpath marker".into(),
                }),
            }
        } else if text == "// nm-lint: hotpath" {
            if open.is_some() {
                findings.push(Finding {
                    file: file.into(),
                    line,
                    rule: "hotpath",
                    message: "nested hotpath marker (previous region still open)".into(),
                });
            }
            open = Some(line);
        }
    }
    if let Some(start) = open {
        findings.push(Finding {
            file: file.into(),
            line: start,
            rule: "hotpath",
            message: "hotpath region never closed with `// nm-lint: end-hotpath`".into(),
        });
    }
    ranges
}

/// Lints one file's source. `used_allow` collects the allowlist entries the
/// file consumed (for staleness reporting by the workspace pass).
pub fn lint_source(
    file: &str,
    src: &str,
    allow: &Allowlist,
    used_allow: &mut HashSet<usize>,
) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    let Lexed { tokens, comments } = lex(src);
    let tests = test_ranges(&tokens);
    let mut findings = Vec::new();
    let hot = hotpath_ranges(&comments, &mut findings, file);
    lookup_overrides(file, &tokens, &mut findings);
    let in_worker_scope = WORKER_SCOPES.iter().any(|s| file.starts_with(s));

    for (i, t) in tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else { continue };
        let next = tokens.get(i + 1).map(|t| &t.tok);
        let prev = i.checked_sub(1).map(|p| &tokens[p].tok);

        // missing-safety: unsafe blocks, fns, impls (everywhere, tests
        // included — unsafe is unsafe).
        if id == "unsafe" {
            let kind = match next {
                Some(Tok::Punct('{')) => Some("block"),
                Some(Tok::Ident(k)) if k == "impl" => Some("impl"),
                Some(Tok::Ident(k)) if k == "fn" => {
                    // `unsafe fn name` is a declaration needing a
                    // rationale; `unsafe fn(` is a pointer type.
                    match tokens.get(i + 2).map(|t| &t.tok) {
                        Some(Tok::Ident(_)) => Some("fn"),
                        _ => None,
                    }
                }
                _ => None,
            };
            if let Some(kind) = kind {
                if !has_safety_rationale(&lines, &comments, t.line) {
                    findings.push(Finding {
                        file: file.into(),
                        line: t.line,
                        rule: "missing-safety",
                        message: format!(
                            "unsafe {kind} without a `// SAFETY:` rationale in the comment block above"
                        ),
                    });
                }
            }
        }

        // stray-relaxed (non-test code only).
        if id == "Relaxed" && !in_ranges(&tests, i) {
            match allow
                .relaxed
                .iter()
                .position(|e| e.file == file && e.line == t.line)
            {
                Some(pos) => {
                    used_allow.insert(pos);
                }
                None => findings.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "stray-relaxed",
                    message: "Ordering::Relaxed outside lint-allow.toml — justify the site there or use an ordered access".into(),
                }),
            }
        }

        // worker-panic (runtime/serve non-test code only).
        if in_worker_scope && !in_ranges(&tests, i) {
            let is_macro =
                PANIC_MACROS.contains(&id.as_str()) && matches!(next, Some(Tok::Punct('!')));
            let is_method = PANIC_METHODS.contains(&id.as_str())
                && matches!(prev, Some(Tok::Punct('.')))
                && matches!(next, Some(Tok::Punct('(')));
            if is_macro || is_method {
                findings.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "worker-panic",
                    message: format!(
                        "`{id}` in worker/reader thread code — propagate the error or use a poison-tolerant lock instead"
                    ),
                });
            }
        }

        // hotpath (inside marked regions only).
        if hot.iter().any(|&(a, b)| t.line > a && t.line < b) {
            let second = matches!(prev, Some(Tok::Punct(':')))
                && i >= 2
                && tokens[i - 2].tok == Tok::Punct(':');
            let path_hit = second
                && i >= 3
                && HOTPATH_PATHS
                    .iter()
                    .any(|(a, b)| b == id && matches!(&tokens[i - 3].tok, Tok::Ident(x) if x == a));
            let method_hit =
                HOTPATH_METHODS.contains(&id.as_str()) && matches!(prev, Some(Tok::Punct('.')));
            let macro_hit =
                HOTPATH_MACROS.contains(&id.as_str()) && matches!(next, Some(Tok::Punct('!')));
            if path_hit || method_hit || macro_hit {
                findings.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "hotpath",
                    message: format!(
                        "`{id}` allocates or reads the clock inside a `// nm-lint: hotpath` region"
                    ),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Shim drift
// ---------------------------------------------------------------------------

/// Required API names per shim: the std/crates.io surface each offline
/// stand-in mirrors. A missing name means the shim drifted and swapping the
/// real crate back in would break.
const SHIM_SURFACES: [(&str, &[&str]); 2] = [
    ("arc-swap", &["ArcSwap", "new", "from_pointee", "load", "load_full", "store", "swap"]),
    (
        "proptest",
        &[
            "Strategy",
            "ProptestConfig",
            "proptest",
            "prop_assert",
            "prop_assert_eq",
            "prop_assume",
            "prelude",
        ],
    ),
];

/// Checks one shim's collected identifiers against its required surface.
fn shim_drift(shim: &str, idents: &HashSet<String>) -> Vec<Finding> {
    let Some((_, required)) = SHIM_SURFACES.iter().find(|(s, _)| *s == shim) else {
        return Vec::new();
    };
    required
        .iter()
        .filter(|r| !idents.contains(**r))
        .map(|r| Finding {
            file: format!("shims/{shim}/src/lib.rs"),
            line: 1,
            rule: "shim-drift",
            message: format!("shim no longer defines `{r}`, an API name of the crate it mirrors"),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = rd.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// Lints the whole workspace rooted at `root`. Returns every finding,
/// sorted by file and line.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let allow_path = root.join("lint-allow.toml");
    let (allow, mut allow_errors) = match std::fs::read_to_string(&allow_path) {
        Ok(src) => Allowlist::parse(&src),
        Err(_) => (Allowlist::default(), Vec::new()),
    };
    findings.append(&mut allow_errors);

    let mut files = Vec::new();
    for top in ["crates", "shims", "tests"] {
        collect_rs(&root.join(top), &mut files);
    }
    let mut used_allow: HashSet<usize> = HashSet::new();
    let mut shim_idents: BTreeMap<String, HashSet<String>> = BTreeMap::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let Ok(src) = std::fs::read_to_string(path) else {
            findings.push(Finding {
                file: rel.clone(),
                line: 1,
                rule: "io",
                message: "file could not be read".into(),
            });
            continue;
        };
        if let Some(shim) = rel.strip_prefix("shims/").and_then(|r| r.split('/').next()) {
            let idents = shim_idents.entry(shim.to_string()).or_default();
            for t in lex(&src).tokens {
                if let Tok::Ident(id) = t.tok {
                    idents.insert(id);
                }
            }
        }
        findings.extend(lint_source(&rel, &src, &allow, &mut used_allow));
    }
    for (shim, idents) in &shim_idents {
        findings.extend(shim_drift(shim, idents));
    }
    for (pos, e) in allow.relaxed.iter().enumerate() {
        if !used_allow.contains(&pos) {
            findings.push(Finding {
                file: "lint-allow.toml".into(),
                line: 1,
                rule: "allowlist",
                message: format!(
                    "stale entry: {}:{} has no Relaxed token (remove or update it)",
                    e.file, e.line
                ),
            });
        }
    }
    findings.sort();
    findings
}
