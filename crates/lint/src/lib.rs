//! `smore_lint` — the workspace-invariant static-analysis pass.
//!
//! The invariants that make the serving stack safe — panic-free
//! serving paths, allocation-free hot loops, justified atomic
//! orderings, exhaustive wire-tag handling, no `unsafe` anywhere —
//! used to live in reviewers' heads. This crate turns each into a
//! machine-checked regression gate:
//!
//! | rule              | invariant |
//! |-------------------|-----------|
//! | `panic_path`      | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` or bare indexing in non-test serving code |
//! | `hot_path_alloc`  | functions in `crates/lint/hot_paths.toml` contain no allocation tokens |
//! | `atomic_ordering` | every `Ordering::*` site carries a `// ordering:` rationale; `SeqCst` must be named; seqlock/gauge files match their documented protocol |
//! | `wire_tags`       | every `TAG_*` const is sealed, decoded, and handled by server, client and the corruption sweep |
//! | `unsafe_forbid`   | every crate root declares `#![forbid(unsafe_code)]` |
//!
//! Suppression is explicit and reasoned:
//!
//! ```text
//! // smore-lint: allow(panic_path) index bounded by the assert above
//! // smore-lint: allow-file(panic_path) property-tested kernels; indices asserted at entry
//! ```
//!
//! A same-line pragma covers its own line; a standalone comment line
//! covers the next code line; `allow-file` covers the whole file. A
//! pragma without a reason is itself a finding.
//!
//! No dependencies, no `syn` — a hand-rolled [`scrub`](mod@scrub) lexer
//! is enough because every rule is a token-level property (the same
//! philosophy as `smore::wire`'s hand-rolled codec).

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::path::Path;

pub mod manifest;
pub mod rules;
pub mod scrub;

use manifest::HotPath;
use scrub::{scrub, test_mask, Line};

/// Every rule id a pragma may name.
pub const RULES: [&str; 5] =
    ["panic_path", "hot_path_alloc", "atomic_ordering", "wire_tags", "unsafe_forbid"];

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (one of [`RULES`], or `pragma` for malformed pragmas).
    pub rule: &'static str,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// One scrubbed source file ready for the rule passes.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Scrubbed lines (code/comment split, strings blanked).
    pub lines: Vec<Line>,
    /// `test_mask[i]` — line belongs to a `#[cfg(test)]`/`#[test]` item.
    pub test_mask: Vec<bool>,
    /// File lives under a `tests/` or `benches/` directory.
    pub is_test_file: bool,
}

impl SourceFile {
    /// Scrubs `source` into a lintable file.
    pub fn new(rel: &str, source: &str) -> Self {
        let lines = scrub(source);
        let mask = test_mask(&lines);
        let is_test_file = rel.contains("/tests/") || rel.contains("/benches/");
        SourceFile { rel: rel.to_string(), lines, test_mask: mask, is_test_file }
    }
}

/// Parsed suppression pragmas for one file.
struct Pragmas {
    /// `(line, rule)` pairs covered by a reasoned `allow(...)`.
    line_allows: Vec<(usize, String)>,
    /// Rules covered file-wide by a reasoned `allow-file(...)`.
    file_allows: Vec<String>,
    /// Malformed pragmas (missing reason, unknown rule) as findings.
    findings: Vec<Finding>,
}

fn parse_pragmas(file: &SourceFile) -> Pragmas {
    let mut pragmas =
        Pragmas { line_allows: Vec::new(), file_allows: Vec::new(), findings: Vec::new() };
    for (idx, line) in file.lines.iter().enumerate() {
        let Some(pos) = line.comment.find("smore-lint:") else {
            continue;
        };
        let directive = line.comment[pos + "smore-lint:".len()..].trim_start();
        let mut bad = |message: String| {
            pragmas.findings.push(Finding {
                file: file.rel.clone(),
                line: idx + 1,
                rule: "pragma",
                message,
            });
        };
        let (file_wide, rest) = if let Some(rest) = directive.strip_prefix("allow-file(") {
            (true, rest)
        } else if let Some(rest) = directive.strip_prefix("allow(") {
            (false, rest)
        } else {
            bad(format!(
                "unrecognized pragma `{}` — expected `allow(rule) reason` or `allow-file(rule) \
                 reason`",
                directive.trim_end()
            ));
            continue;
        };
        let Some((rule, reason)) = rest.split_once(')') else {
            bad("pragma is missing its closing `)`".into());
            continue;
        };
        let rule = rule.trim();
        if !RULES.contains(&rule) {
            bad(format!("pragma names unknown rule `{rule}` (known: {})", RULES.join(", ")));
            continue;
        }
        if reason.trim().is_empty() {
            bad(format!("pragma `allow({rule})` must carry a reason after the `)`"));
            continue;
        }
        if file_wide {
            pragmas.file_allows.push(rule.to_string());
        } else {
            // A same-line pragma covers its line; a standalone comment
            // line covers the next line that carries code.
            let mut target = idx;
            if line.code.trim().is_empty() {
                target = (idx + 1..file.lines.len())
                    .find(|j| !file.lines[*j].code.trim().is_empty())
                    .unwrap_or(idx);
            }
            pragmas.line_allows.push((target + 1, rule.to_string()));
        }
    }
    pragmas
}

/// Lints in-memory sources. Per-file rules always run; the cross-file
/// rules (`wire_tags`, `unsafe_forbid`, manifest-drift) run only on
/// `full` runs — a path-filtered run cannot see enough of the
/// workspace to judge them.
pub fn lint_sources(files: &[SourceFile], manifest: &[HotPath], full: bool) -> Vec<Finding> {
    let mut raw = Vec::new();
    for file in files {
        rules::panic_path(file, &mut raw);
        rules::hot_path_alloc(file, manifest, &mut raw);
        rules::atomic_ordering(file, &mut raw);
    }
    if full {
        rules::wire_tags(files, &mut raw);
        rules::unsafe_forbid(files, &mut raw);
        for entry in manifest {
            if !files.iter().any(|f| f.rel == entry.file) {
                raw.push(Finding {
                    file: "crates/lint/hot_paths.toml".into(),
                    line: 1,
                    rule: "hot_path_alloc",
                    message: format!(
                        "manifest names `{}` which does not exist in the workspace",
                        entry.file
                    ),
                });
            }
        }
    }
    let mut findings = Vec::new();
    for file in files {
        let pragmas = parse_pragmas(file);
        findings.extend(pragmas.findings);
        for finding in raw.iter().filter(|f| f.file == file.rel) {
            let allowed = pragmas.file_allows.iter().any(|r| r == finding.rule)
                || pragmas.line_allows.iter().any(|(l, r)| *l == finding.line && r == finding.rule);
            if !allowed {
                findings.push(finding.clone());
            }
        }
    }
    // Findings against files not in the lint set (e.g. manifest drift).
    findings.extend(raw.iter().filter(|f| !files.iter().any(|s| s.rel == f.file)).cloned());
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Convenience for fixture tests: lint one in-memory file.
pub fn lint_source(rel: &str, source: &str, manifest: &[HotPath]) -> Vec<Finding> {
    lint_sources(&[SourceFile::new(rel, source)], manifest, false)
}

/// Directories never descended into: build output, vendored shims, VCS
/// metadata, and the lint crate's own seeded-violation fixtures.
fn skip_dir(rel: &str) -> bool {
    rel == "target" || rel == "vendor" || rel == ".git" || rel == "crates/lint/tests/fixtures"
}

/// Collects every workspace `.rs` file as `(rel, contents)`, sorted.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut stack = vec![String::new()];
    while let Some(rel_dir) = stack.pop() {
        let dir = if rel_dir.is_empty() { root.to_path_buf() } else { root.join(&rel_dir) };
        let entries =
            fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            let rel =
                if rel_dir.is_empty() { name.to_string() } else { format!("{rel_dir}/{name}") };
            let kind = entry.file_type().map_err(|e| format!("cannot stat {rel}: {e}"))?;
            if kind.is_dir() {
                if !skip_dir(&rel) {
                    stack.push(rel);
                }
            } else if name.ends_with(".rs") {
                let text = fs::read_to_string(entry.path())
                    .map_err(|e| format!("cannot read {rel}: {e}"))?;
                out.push((rel, text));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints the workspace at `root`. `filters` (substring matches against
/// relative paths) select a subset of files; an empty list is a full
/// run, which additionally enables the cross-file rules.
pub fn lint_workspace(root: &Path, filters: &[String]) -> Result<Vec<Finding>, String> {
    let manifest_path = root.join("crates/lint/hot_paths.toml");
    let manifest = match fs::read_to_string(&manifest_path) {
        Ok(text) => manifest::parse(&text)?,
        Err(e) => return Err(format!("cannot read {}: {e}", manifest_path.display())),
    };
    let sources = collect_sources(root)?;
    let files: Vec<SourceFile> = sources
        .iter()
        .filter(|(rel, _)| filters.is_empty() || filters.iter().any(|f| rel.contains(f.as_str())))
        .map(|(rel, text)| SourceFile::new(rel, text))
        .collect();
    Ok(lint_sources(&files, &manifest, filters.is_empty()))
}
