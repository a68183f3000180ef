//! The rule engine: per-file context, test-region detection, inline
//! suppressions, the workspace model, and the workspace walker.
//!
//! A [`FileCtx`] is built once per file and handed to every rule. Rules
//! see only *code* tokens (comments stripped) via [`FileCtx::code_tok`],
//! plus a per-token "inside test code" flag so that `#[cfg(test)]`
//! modules and `#[test]` functions are exempt from the runtime-behavior
//! rules. Since PR 7 each file also carries its recovered item
//! structure ([`crate::parse::ParsedFile`]), and rules come in two
//! shapes: per-file matchers and whole-[`Workspace`] analyses (call
//! graph, lock order) that need every file at once.
//!
//! Findings are filtered through inline suppression comments before
//! being reported:
//!
//! ```text
//! cost.pages_read += 1; // apex-lint: allow(cost-io-writes): trie-local I/O
//! ```
//!
//! A suppression must name the rule and carry a justification after the
//! closing parenthesis; it silences findings of that rule on its own
//! line or, when the comment stands alone, on the following line.
//! Reason-less suppressions are themselves findings (`bad-suppression`,
//! error), and a suppression that silences nothing is a `stale-allow`
//! *error* — a dead allow is a hole an invariant can silently leak
//! through, so it fails the gate just like a live violation.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Tok, TokKind};
use crate::parse::{parse, ParsedFile};
use crate::rules;

/// One rule violation (or suppression problem) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Name of the violated rule.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// Everything a rule can ask about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated (`crates/query/src/exec.rs`).
    pub rel_path: &'a str,
    /// The `crates/<dir>` component of the path, or `""` outside `crates/`.
    pub crate_dir: &'a str,
    toks: Vec<Tok<'a>>,
    code: Vec<usize>,
    in_test: Vec<bool>,
}

impl<'a> FileCtx<'a> {
    /// Lexes `src` and computes test regions.
    pub fn new(rel_path: &'a str, src: &'a str) -> Self {
        let toks = lex(src);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let crate_dir = rel_path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("");
        let mut ctx = FileCtx {
            rel_path,
            crate_dir,
            in_test: vec![false; code.len()],
            toks,
            code,
        };
        ctx.mark_test_regions();
        ctx
    }

    /// Number of code (non-comment) tokens.
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// The `i`-th code token.
    pub fn code_tok(&self, i: usize) -> &Tok<'a> {
        &self.toks[self.code[i]]
    }

    /// Text of the `i`-th code token, or `""` past the end — so rules can
    /// match fixed-size windows without bounds gymnastics.
    pub fn text(&self, i: usize) -> &'a str {
        match self.code.get(i) {
            Some(&ti) => self.toks[ti].text,
            None => "",
        }
    }

    /// 1-based line of the `i`-th code token (`0` past the end).
    pub fn line(&self, i: usize) -> u32 {
        match self.code.get(i) {
            Some(&ti) => self.toks[ti].line,
            None => 0,
        }
    }

    /// True when the `i`-th code token is an identifier with text `s`.
    pub fn ident_is(&self, i: usize, s: &str) -> bool {
        match self.code.get(i) {
            Some(&ti) => self.toks[ti].kind == TokKind::Ident && self.toks[ti].text == s,
            None => false,
        }
    }

    /// True when the `i`-th code token is any identifier.
    pub fn is_ident(&self, i: usize) -> bool {
        match self.code.get(i) {
            Some(&ti) => self.toks[ti].kind == TokKind::Ident,
            None => false,
        }
    }

    /// True when the `i`-th code token lies inside a `#[test]` function
    /// or a `#[cfg(test)]`-gated item.
    pub fn is_test(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    /// Plain (non-doc) comment tokens, for suppression parsing. Doc
    /// comments are excluded so documentation may *show* the suppression
    /// syntax without enacting it.
    fn comments(&self) -> impl Iterator<Item = &Tok<'a>> {
        self.toks.iter().filter(|t| match t.kind {
            TokKind::LineComment => !t.text.starts_with("///") && !t.text.starts_with("//!"),
            TokKind::BlockComment => !t.text.starts_with("/**") && !t.text.starts_with("/*!"),
            _ => false,
        })
    }

    /// Marks the brace-delimited item following a test attribute
    /// (`#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]`) as test code.
    /// `#[cfg(not(test))]` is deliberately *not* treated as test code.
    fn mark_test_regions(&mut self) {
        let mut i = 0;
        while i < self.code.len() {
            if self.text(i) == "#" && self.text(i + 1) == "[" {
                let (attr_end, is_test_attr) = self.scan_attr(i + 1);
                if is_test_attr {
                    let mut j = attr_end + 1;
                    // Skip any further attributes stacked on the item.
                    while self.text(j) == "#" && self.text(j + 1) == "[" {
                        j = self.scan_attr(j + 1).0 + 1;
                    }
                    // The gated item runs to its braced body; a `;` first
                    // means an out-of-line `mod tests;` — nothing to mark.
                    while j < self.code.len() && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    if self.text(j) == "{" {
                        let close = self.matching_brace(j);
                        for flag in &mut self.in_test[j..=close.min(self.code.len() - 1)] {
                            *flag = true;
                        }
                    }
                }
                i = attr_end + 1;
            } else {
                i += 1;
            }
        }
    }

    /// `open` indexes the `[` of an attribute; returns the index of the
    /// matching `]` (or the last token) and whether the attribute gates
    /// test code.
    fn scan_attr(&self, open: usize) -> (usize, bool) {
        let mut depth = 0usize;
        let mut has_test = false;
        let mut has_not = false;
        let mut i = open;
        while i < self.code.len() {
            match self.text(i) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return (i, has_test && !has_not);
                    }
                }
                "test" => has_test = true,
                "not" => has_not = true,
                _ => {}
            }
            i += 1;
        }
        (self.code.len().saturating_sub(1), false)
    }

    /// `open` indexes a `{`; returns the index of the matching `}` (or
    /// the last token on imbalance).
    pub(crate) fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for i in open..self.code.len() {
            match self.text(i) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        self.code.len().saturating_sub(1)
    }
}

/// One lexed + parsed source file of the workspace under analysis.
pub struct WorkspaceFile<'a> {
    /// The token-level view.
    pub ctx: FileCtx<'a>,
    /// The item-level view.
    pub parsed: ParsedFile,
}

/// All files of the workspace, in deterministic (path-sorted) order —
/// the unit the whole-program rules (call graph, lock order) run over.
pub struct Workspace<'a> {
    /// The files, in the order given to [`Workspace::from_sources`].
    pub files: Vec<WorkspaceFile<'a>>,
}

impl<'a> Workspace<'a> {
    /// Builds the workspace model from `(rel_path, source)` pairs.
    pub fn from_sources(sources: &'a [(String, String)]) -> Self {
        Workspace {
            files: sources
                .iter()
                .map(|(rel, src)| {
                    let ctx = FileCtx::new(rel, src);
                    let parsed = parse(&ctx);
                    WorkspaceFile { ctx, parsed }
                })
                .collect(),
        }
    }
}

/// One parsed `// apex-lint: allow(<rule>): <reason>` comment entry.
#[derive(Debug)]
struct Suppression {
    file: String,
    rule: String,
    line: u32,
    known_rule: bool,
    used: bool,
}

/// The marker that introduces a suppression (or any directive) comment.
const MARKER: &str = "apex-lint:";

/// Parses suppressions out of one comment body. Returns parsed entries,
/// plus malformed-directive findings.
fn parse_directive(
    text: &str,
    line: u32,
    file: &str,
    out: &mut Vec<Suppression>,
    findings: &mut Vec<Finding>,
) {
    let Some(at) = text.find(MARKER) else {
        return;
    };
    let rest = text[at + MARKER.len()..].trim_start();
    let malformed = |findings: &mut Vec<Finding>, why: &str| {
        findings.push(Finding {
            file: file.to_string(),
            line,
            rule: "bad-suppression",
            message: format!("{why}; expected `// apex-lint: allow(<rule>): <justification>`"),
        });
    };
    let Some(args) = rest.strip_prefix("allow") else {
        malformed(findings, "unrecognized apex-lint directive");
        return;
    };
    let args = args.trim_start();
    let Some(body) = args.strip_prefix('(') else {
        malformed(findings, "missing `(` after `allow`");
        return;
    };
    let Some(close) = body.find(')') else {
        malformed(findings, "unclosed `allow(`");
        return;
    };
    let reason = body[close + 1..]
        .trim_start()
        .strip_prefix(':')
        .map(str::trim)
        .unwrap_or("");
    if reason.is_empty() {
        malformed(findings, "suppression carries no justification");
    }
    for name in body[..close].split(',') {
        let name = name.trim();
        if name.is_empty() {
            malformed(findings, "empty rule name in `allow(…)`");
            continue;
        }
        let known_rule = rules::RULES.iter().any(|r| r.name == name);
        if !known_rule {
            findings.push(Finding {
                file: file.to_string(),
                line,
                rule: "bad-suppression",
                message: format!("suppression names unknown rule `{name}`"),
            });
        }
        out.push(Suppression {
            file: file.to_string(),
            rule: name.to_string(),
            line,
            known_rule,
            used: false,
        });
    }
}

/// Runs the full catalog over a built workspace model and applies the
/// suppression pass. Findings come back sorted by `(file, line, rule)`.
pub fn lint(ws: &Workspace<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in rules::RULES {
        match rule.check {
            rules::Check::File(check) => {
                for file in &ws.files {
                    check(file, &mut findings);
                }
            }
            rules::Check::Workspace(check) => check(ws, &mut findings),
        }
    }

    let mut suppressions: Vec<Suppression> = Vec::new();
    let mut meta_findings: Vec<Finding> = Vec::new();
    for file in &ws.files {
        for c in file.ctx.comments() {
            parse_directive(
                c.text,
                c.line,
                file.ctx.rel_path,
                &mut suppressions,
                &mut meta_findings,
            );
        }
    }

    // A suppression matches findings on its own line, or on the next
    // line when the comment stands alone.
    findings.retain(|f| {
        let mut keep = true;
        for s in suppressions.iter_mut() {
            if s.rule == f.rule && s.file == f.file && (s.line == f.line || s.line + 1 == f.line) {
                s.used = true;
                keep = false;
            }
        }
        keep
    });
    for s in &suppressions {
        if !s.used && s.known_rule {
            meta_findings.push(Finding {
                file: s.file.clone(),
                line: s.line,
                rule: "stale-allow",
                message: format!(
                    "suppression of `{}` silences nothing; remove the stale allow",
                    s.rule
                ),
            });
        }
    }
    findings.extend(meta_findings);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

/// Lints one file given as a string. `rel_path` decides which crate the
/// rules consider the code to belong to, so tests can probe allow-lists
/// by picking paths. The file is analyzed as a one-file workspace:
/// whole-program rules see exactly this file (fixtures pick root paths
/// to become their own serving roots). Findings come back sorted.
pub fn lint_str(rel_path: &str, src: &str) -> Vec<Finding> {
    let sources = [(rel_path.to_string(), src.to_string())];
    lint(&Workspace::from_sources(&sources))
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks `<root>/crates/*/src` and lints every Rust file as one
/// workspace. Paths in the findings are reported relative to `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    let mut sources = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(&path)?;
        sources.push((rel, src));
    }
    Ok(lint(&Workspace::from_sources(&sources)))
}
