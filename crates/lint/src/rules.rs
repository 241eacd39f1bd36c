//! The rule catalog. Every rule reports [`Finding`]s against scrubbed
//! source lines; pragma suppression happens one layer up in
//! [`crate::lint_sources`].

use crate::manifest::HotPath;
use crate::scrub::{contains_token, fn_ranges};
use crate::{Finding, SourceFile};

/// Panic tokens forbidden on the serving path. `unwrap_or*` and
/// `expect_err` survive the match because the matching is
/// parenthesis-exact; `assert!`/`debug_assert!` are deliberately
/// allowed — they document invariants instead of hiding them.
const PANIC_TOKENS: [&str; 6] =
    [".unwrap()", ".expect(", "panic!", "unreachable!", "todo!", "unimplemented!"];

/// Allocation tokens forbidden inside registered hot-path functions.
const ALLOC_TOKENS: [&str; 12] = [
    "Vec::new",
    "vec![",
    ".to_vec(",
    ".clone()",
    ".collect(",
    ".collect::",
    "format!",
    "String::",
    "Box::new",
    ".to_string(",
    ".to_owned(",
    "with_capacity(",
];

/// Memory-ordering variants (distinct from `cmp::Ordering`'s
/// `Less`/`Equal`/`Greater`, which never match these suffixes).
const MEMORY_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Crates allowed to skip `#![forbid(unsafe_code)]`. Expected (and
/// currently) empty: even the seqlock journal is all-safe Rust.
const UNSAFE_ALLOWLIST: [&str; 0] = [];

/// True when `rel` is on the serving path, where panics are forbidden:
/// the wire/artifact/quantized/delta layers of `smore` core plus the
/// serve, stream, obs and packed crates.
pub fn in_panic_scope(rel: &str) -> bool {
    const PREFIXES: [&str; 4] =
        ["crates/serve/src/", "crates/stream/src/", "crates/obs/src/", "crates/packed/src/"];
    const FILES: [&str; 4] = [
        "crates/core/src/wire.rs",
        "crates/core/src/artifact.rs",
        "crates/core/src/quantized.rs",
        "crates/core/src/delta.rs",
    ];
    PREFIXES.iter().any(|p| rel.starts_with(p)) || FILES.contains(&rel)
}

/// Rule 1 — panic-path: no panic tokens and no bare slice indexing in
/// non-test code of serving crates.
pub fn panic_path(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_panic_scope(&file.rel) || file.is_test_file {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if file.test_mask[idx] {
            continue;
        }
        for token in PANIC_TOKENS {
            if line.code.contains(token) {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: idx + 1,
                    rule: "panic_path",
                    message: format!(
                        "`{token}` on the serving path — return a typed error instead"
                    ),
                });
            }
        }
        if let Some(col) = bare_index_at(&line.code) {
            out.push(Finding {
                file: file.rel.clone(),
                line: idx + 1,
                rule: "panic_path",
                message: format!(
                    "bare slice index at column {} can panic — use `get`/`get_mut`, split, or \
                     justify with a pragma",
                    col + 1
                ),
            });
        }
    }
}

/// First column of a `[` that indexes an expression (previous
/// non-space char is an identifier char, `)` or `]`). Attribute `#[`,
/// macro `vec![`, slice types `&[u8]`, array literals, and brackets
/// following a keyword (`let [a, b] = …`, `in [..]`) never match.
fn bare_index_at(code: &str) -> Option<usize> {
    const KEYWORDS: &[&str] =
        &["let", "mut", "ref", "in", "if", "else", "match", "return", "break", "as", "move"];
    let bytes = code.as_bytes();
    for (i, b) in bytes.iter().enumerate() {
        if *b != b'[' {
            continue;
        }
        let trimmed = code[..i].trim_end_matches(' ');
        let Some(prev) = trimmed.as_bytes().last() else { continue };
        if !(prev.is_ascii_alphanumeric() || matches!(prev, b'_' | b')' | b']')) {
            continue;
        }
        let word_start = trimmed
            .bytes()
            .rposition(|c| !(c.is_ascii_alphanumeric() || c == b'_'))
            .map_or(0, |p| p + 1);
        if KEYWORDS.contains(&&trimmed[word_start..]) {
            continue;
        }
        // A lifetime before a slice type (`&'a [u8]`) is not an index.
        if word_start > 0 && trimmed.as_bytes()[word_start - 1] == b'\'' {
            continue;
        }
        return Some(i);
    }
    None
}

/// Rule 2 — hot-path-alloc: functions registered in
/// `crates/lint/hot_paths.toml` must contain no allocation tokens.
pub fn hot_path_alloc(file: &SourceFile, manifest: &[HotPath], out: &mut Vec<Finding>) {
    for entry in manifest.iter().filter(|e| e.file == file.rel) {
        let ranges = fn_ranges(&file.lines, &entry.function);
        if ranges.is_empty() {
            out.push(Finding {
                file: file.rel.clone(),
                line: 1,
                rule: "hot_path_alloc",
                message: format!(
                    "registered hot path `fn {}` not found — fix or deregister it in \
                     crates/lint/hot_paths.toml",
                    entry.function
                ),
            });
            continue;
        }
        for (first, last) in ranges {
            for idx in first..=last {
                for token in ALLOC_TOKENS {
                    if file.lines[idx].code.contains(token) {
                        out.push(Finding {
                            file: file.rel.clone(),
                            line: idx + 1,
                            rule: "hot_path_alloc",
                            message: format!(
                                "`{token}` inside registered hot path `fn {}` — thread a scratch \
                                 buffer instead of allocating",
                                entry.function
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Rule 3 — atomic-ordering audit: every `Ordering::*` site needs an
/// adjacent `// ordering:` rationale; `SeqCst` must be named by it.
///
/// A comment containing `ordering:` covers its own line and the
/// contiguous non-blank run below it, capped at 16 lines — enough for
/// one rationale to cover a block of related sites (a gauge refresh, a
/// multi-line log call) without leaking across items.
pub fn atomic_ordering(file: &SourceFile, out: &mut Vec<Finding>) {
    const COVER_SPAN: usize = 16;
    let n = file.lines.len();
    // coverage[i] = index of the covering `ordering:` comment line.
    let mut coverage: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        if !file.lines[i].comment.to_lowercase().contains("ordering:") {
            continue;
        }
        let span_end = n.min(i + COVER_SPAN + 1);
        let covered = coverage.iter_mut().zip(&file.lines).enumerate();
        for (j, (slot, line)) in covered.take(span_end).skip(i) {
            if j > i && line.code.trim().is_empty() && line.comment.trim().is_empty() {
                break;
            }
            *slot = Some(i);
        }
    }
    for (idx, (line, covering)) in file.lines.iter().zip(&coverage).enumerate() {
        let code = &line.code;
        let variants: Vec<&str> = MEMORY_ORDERINGS
            .iter()
            .copied()
            .filter(|v| contains_token(code, &format!("Ordering::{v}")))
            .collect();
        if variants.is_empty() {
            continue;
        }
        let Some(comment_line) = *covering else {
            out.push(Finding {
                file: file.rel.clone(),
                line: idx + 1,
                rule: "atomic_ordering",
                message: format!(
                    "`Ordering::{}` has no adjacent `// ordering:` rationale comment",
                    variants.join("`/`Ordering::")
                ),
            });
            continue;
        };
        if variants.contains(&"SeqCst")
            && !file.lines[comment_line].comment.to_lowercase().contains("seqcst")
        {
            out.push(Finding {
                file: file.rel.clone(),
                line: idx + 1,
                rule: "atomic_ordering",
                message: format!(
                    "`Ordering::SeqCst` needs explicit justification — the covering `ordering:` \
                     comment (line {}) must say why SeqCst and not acquire/release",
                    comment_line + 1
                ),
            });
        }
    }
    documented_protocols(file, out);
}

/// Structural cross-checks of the documented concurrency protocols:
/// the seqlock journal must keep its release-publish / acquire-read
/// shape, and pure monotonic-counter files must stay Relaxed-only.
fn documented_protocols(file: &SourceFile, out: &mut Vec<Finding>) {
    let relaxed_only: [(&str, &str); 2] = [
        ("crates/obs/src/hist.rs", "histogram counters are independent monotonic accumulators"),
        ("crates/serve/src/telemetry.rs", "gauges are monotonic or last-writer-wins"),
    ];
    let joined = file.lines.iter().map(|l| l.code.as_str()).collect::<Vec<_>>().join("\n");
    for (rel, why) in relaxed_only {
        if file.rel != rel {
            continue;
        }
        for variant in ["Acquire", "Release", "AcqRel", "SeqCst"] {
            if contains_token(&joined, &format!("Ordering::{variant}")) {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: 1,
                    rule: "atomic_ordering",
                    message: format!(
                        "documented protocol drift: {rel} is Relaxed-only ({why}) but uses \
                         `Ordering::{variant}`"
                    ),
                });
            }
        }
    }
    if file.rel == "crates/obs/src/journal.rs" {
        let required: [(&str, &str); 3] = [
            ("Ordering::Release", "the seqlock publish needs a Release store of the even sequence"),
            ("fence(Ordering::Acquire)", "readers need an Acquire fence before the seq recheck"),
            ("compare_exchange", "slot claiming must CAS the sequence word"),
        ];
        for (needle, why) in required {
            if !joined.contains(needle) {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: 1,
                    rule: "atomic_ordering",
                    message: format!(
                        "documented seqlock protocol drift: `{needle}` missing ({why})"
                    ),
                });
            }
        }
        if contains_token(&joined, "Ordering::SeqCst") {
            out.push(Finding {
                file: file.rel.clone(),
                line: 1,
                rule: "atomic_ordering",
                message: "documented seqlock protocol drift: the journal is acquire/release by \
                          design; SeqCst indicates an unreviewed change"
                    .into(),
            });
        }
    }
}

/// Rule 4 — wire-tag exhaustiveness: every `TAG_*` const in
/// `serve/src/protocol.rs` must be sealed and matched there, and its
/// `Request`/`Response` variant handled by the server dispatch, the
/// client, and the corruption sweep.
pub fn wire_tags(files: &[SourceFile], out: &mut Vec<Finding>) {
    const PROTOCOL: &str = "crates/serve/src/protocol.rs";
    let by_rel = |rel: &str| files.iter().find(|f| f.rel == rel);
    let Some(protocol) = by_rel(PROTOCOL) else {
        return;
    };
    let joined =
        |f: &SourceFile| f.lines.iter().map(|l| l.code.as_str()).collect::<Vec<_>>().join("\n");
    let protocol_code = joined(protocol);
    let peers: [(&str, Option<String>); 3] = [
        ("crates/serve/src/server.rs", by_rel("crates/serve/src/server.rs").map(joined)),
        ("crates/serve/src/client.rs", by_rel("crates/serve/src/client.rs").map(joined)),
        (
            "crates/serve/tests/protocol_corruption.rs",
            by_rel("crates/serve/tests/protocol_corruption.rs").map(joined),
        ),
    ];

    let mut tags = Vec::new();
    for (idx, line) in protocol.lines.iter().enumerate() {
        if let Some((name, value)) = parse_tag_const(&line.code) {
            tags.push((idx, name, value));
        }
    }
    if tags.is_empty() {
        out.push(Finding {
            file: protocol.rel.clone(),
            line: 1,
            rule: "wire_tags",
            message: "no `const TAG_*` declarations found — the wire-tag audit has nothing to \
                      check (protocol drift?)"
                .into(),
        });
        return;
    }

    for (decl_idx, name, value) in &tags {
        let mut missing = |message: String| {
            out.push(Finding {
                file: protocol.rel.clone(),
                line: decl_idx + 1,
                rule: "wire_tags",
                message,
            });
        };
        if !contains_token(&protocol_code, &format!("seal({name}")) {
            missing(format!("`{name}` is never sealed — no `seal({name}, …)` encode site"));
        }
        let Some(arm_idx) = decode_arm(protocol, name) else {
            missing(format!("`{name}` has no decode arm (`{name} => …`) in protocol.rs"));
            continue;
        };
        let Some(variant) = arm_variant(protocol, arm_idx, &tags) else {
            missing(format!(
                "decode arm for `{name}` names no `Request::`/`Response::` variant — cannot audit \
                 peer coverage"
            ));
            continue;
        };
        let is_request = *value < 0x80;
        let expected_kind = if is_request { "Request::" } else { "Response::" };
        if !variant.starts_with(expected_kind) {
            missing(format!(
                "`{name}` (0x{value:02X}) decodes to `{variant}` but its tag range says \
                 {expected_kind}… — tag namespace drift"
            ));
        }
        for (peer_rel, peer_code) in &peers {
            // The server only dispatches requests; responses are born there,
            // not matched.
            if *peer_rel == "crates/serve/src/server.rs" && !is_request {
                continue;
            }
            match peer_code {
                None => missing(format!("cannot audit `{name}`: {peer_rel} not found")),
                Some(code) if !contains_token(code, &variant) => {
                    missing(format!("`{name}` → `{variant}` is not handled in {peer_rel}"));
                }
                Some(_) => {}
            }
        }
    }
}

/// Parses `const TAG_X: u8 = 0xNN;` (possibly `pub`).
fn parse_tag_const(code: &str) -> Option<(String, u8)> {
    let rest = code.trim_start();
    let rest = rest.strip_prefix("pub ").unwrap_or(rest);
    let rest = rest.strip_prefix("const ")?;
    if !rest.starts_with("TAG_") {
        return None;
    }
    let name_end = rest.find(':')?;
    let name = rest[..name_end].trim().to_string();
    let hex = rest.split("0x").nth(1)?;
    let hex: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
    let value = u8::from_str_radix(&hex, 16).ok()?;
    Some((name, value))
}

/// Line index of the `TAG_X => …` match arm.
fn decode_arm(protocol: &SourceFile, name: &str) -> Option<usize> {
    for (idx, line) in protocol.lines.iter().enumerate() {
        let code = &line.code;
        let mut search = 0;
        while let Some(pos) = code[search..].find(name) {
            let at = search + pos;
            search = at + 1;
            let after = &code[at + name.len()..];
            if after.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            if after.trim_start().starts_with("=>") {
                return Some(idx);
            }
        }
    }
    None
}

/// First `Request::X` / `Response::X` named inside the arm starting at
/// `arm_idx` (scan stops at the next tag arm or after 30 lines; a
/// nested `other =>` arm — e.g. a label-flag match — is scanned over).
fn arm_variant(
    protocol: &SourceFile,
    arm_idx: usize,
    tags: &[(usize, String, u8)],
) -> Option<String> {
    for (idx, line) in protocol.lines.iter().enumerate().skip(arm_idx) {
        if idx > arm_idx {
            let code = line.code.trim_start();
            let other_arm = tags.iter().any(|(_, name, _)| {
                code.strip_prefix(name.as_str())
                    .is_some_and(|after| after.trim_start().starts_with("=>"))
            });
            if other_arm || idx > arm_idx + 30 {
                return None;
            }
        }
        for kind in ["Request::", "Response::"] {
            if let Some(pos) = line.code.find(kind) {
                let ident: String = line.code[pos + kind.len()..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !ident.is_empty() {
                    return Some(format!("{kind}{ident}"));
                }
            }
        }
    }
    None
}

/// Rule 5 — unsafe-forbid: every crate root (libs, bins) must declare
/// `#![forbid(unsafe_code)]` unless allowlisted.
pub fn unsafe_forbid(files: &[SourceFile], out: &mut Vec<Finding>) {
    for file in files {
        if !is_crate_root(&file.rel) || UNSAFE_ALLOWLIST.contains(&file.rel.as_str()) {
            continue;
        }
        let declares = file.lines.iter().any(|line| line.code.contains("#![forbid(unsafe_code)]"));
        if !declares {
            out.push(Finding {
                file: file.rel.clone(),
                line: 1,
                rule: "unsafe_forbid",
                message: "crate root does not declare `#![forbid(unsafe_code)]`".into(),
            });
        }
    }
}

fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || (rel.starts_with("crates/")
            && (rel.ends_with("/src/lib.rs")
                || rel.ends_with("/src/main.rs")
                || rel.contains("/src/bin/")))
}
