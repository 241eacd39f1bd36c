//! A line-oriented, comment/string-aware scanner for Rust source.
//!
//! `smore_lint` deliberately does not parse Rust — no `syn`, no proc
//! macros, no dependencies (the same philosophy as `smore::wire`'s
//! hand-rolled codec). Instead this module lexes just enough of the
//! language to split every source line into its *code* and *comment*
//! halves with string/char-literal contents blanked out, so the rule
//! passes can do honest token matching without tripping over a
//! `"panic!"` inside a log message or an `unwrap()` in a doc comment.
//!
//! Handled: `//` line comments, nested `/* */` block comments, string
//! literals (including multi-line and `\"` escapes), raw strings
//! `r"…"` / `r#"…"#` (any hash depth, `b`-prefixed too), char literals
//! (escaped and plain) vs. lifetimes. Not handled (not needed): actual
//! token values — only their boundaries matter here.

/// One source line, split into scrubbed halves.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Code text with comments removed and string/char contents blanked
    /// (the delimiting quotes are kept so call shapes stay visible).
    pub code: String,
    /// Comment text on this line (contents of `//…` and `/* … */`).
    pub comment: String,
}

/// Scanner mode across line boundaries.
enum Mode {
    Code,
    LineComment,
    /// Nested block comment at the given depth.
    Block(u32),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a raw string closed by `"` followed by this many `#`.
    RawStr(usize),
}

/// Splits `source` into per-line code/comment halves.
pub fn scrub(source: &str) -> Vec<Line> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut line = Line::default();
    let mut mode = Mode::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(mode, Mode::LineComment) {
                mode = Mode::Code;
            }
            lines.push(std::mem::take(&mut line));
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    mode = Mode::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::Block(1);
                    i += 2;
                } else if c == '"' {
                    line.code.push('"');
                    mode = Mode::Str;
                    i += 1;
                } else if let Some(hashes) = raw_string_at(&chars, i, &line.code) {
                    line.code.push('"');
                    mode = Mode::RawStr(hashes.count);
                    i = hashes.body_start;
                } else if c == '\'' {
                    i = scan_quote(&chars, i, &mut line.code);
                } else {
                    line.code.push(c);
                    i += 1;
                }
            }
            Mode::LineComment => {
                line.comment.push(c);
                i += 1;
            }
            Mode::Block(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    mode = Mode::Block(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    mode = if depth == 1 { Mode::Code } else { Mode::Block(depth - 1) };
                    i += 2;
                } else {
                    line.comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    // An escaped newline continues the string on the next
                    // line; leave the newline for the top-level splitter.
                    i += if chars.get(i + 1) == Some(&'\n') { 1 } else { 2 };
                } else if c == '"' {
                    line.code.push('"');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            Mode::RawStr(count) => {
                if c == '"'
                    && chars[i + 1..].iter().take(count).filter(|h| **h == '#').count() == count
                {
                    line.code.push('"');
                    mode = Mode::Code;
                    i += 1 + count;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !line.code.is_empty() || !line.comment.is_empty() {
        lines.push(line);
    }
    lines
}

struct RawStart {
    count: usize,
    body_start: usize,
}

/// Detects a raw-string opener (`r"`, `r#"`, `br##"` …) at `i`. The
/// previous emitted code char must not be an identifier char, so an
/// identifier merely ending in `r` never triggers this.
fn raw_string_at(chars: &[char], i: usize, emitted: &str) -> Option<RawStart> {
    if let Some(prev) = emitted.chars().last() {
        if prev.is_alphanumeric() || prev == '_' {
            return None;
        }
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut count = 0;
    while chars.get(j) == Some(&'#') {
        count += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some(RawStart { count, body_start: j + 1 })
    } else {
        None
    }
}

/// Consumes a `'` at `i`: either a char literal (emitted as `''`) or a
/// lifetime tick (emitted verbatim). Returns the next scan position.
fn scan_quote(chars: &[char], i: usize, code: &mut String) -> usize {
    match chars.get(i + 1) {
        // Escaped char literal: '\n', '\'', '\u{1F600}', '\x41'.
        Some('\\') => {
            let mut j = i + 2;
            if chars.get(j) == Some(&'u') {
                while j < chars.len() && chars[j] != '}' {
                    j += 1;
                }
            } else if chars.get(j) == Some(&'x') {
                j += 2;
            }
            j += 1;
            // Expect the closing quote at j; tolerate malformed input.
            code.push_str("''");
            if chars.get(j) == Some(&'\'') {
                j + 1
            } else {
                j
            }
        }
        // Plain char literal 'x' (but not '' which cannot occur).
        Some(&c) if c != '\'' && chars.get(i + 2) == Some(&'\'') => {
            code.push_str("''");
            i + 3
        }
        // Lifetime ('a, '_, 'static) or stray quote.
        _ => {
            code.push('\'');
            i + 1
        }
    }
}

/// Marks every line that belongs to `#[cfg(test)]` / `#[test]` items so
/// the panic-path rule can skip test code. Detection is structural:
/// from the attribute line, brace depth is tracked until the item's
/// closing brace (or a top-level `;` for brace-less items).
pub fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = &lines[i].code;
        if !(code.contains("#[cfg(test)]") || code.contains("#[test]")) {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        'item: while j < lines.len() {
            mask[j] = true;
            for ch in lines[j].code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            break 'item;
                        }
                    }
                    ';' if !opened => break 'item,
                    _ => {}
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// All line ranges `(first, last)` (0-based, inclusive, signature
/// through closing brace) of functions named `name` in the file —
/// a name can repeat across impl blocks.
pub fn fn_ranges(lines: &[Line], name: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if fn_decl_at(&lines[i].code, name).is_none() {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        let mut end = None;
        'body: while j < lines.len() {
            for ch in lines[j].code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            end = Some(j);
                            break 'body;
                        }
                    }
                    // A trait method declaration with no body.
                    ';' if !opened => break 'body,
                    _ => {}
                }
            }
            j += 1;
        }
        if let Some(end) = end {
            ranges.push((i, end));
            i = end + 1;
        } else {
            i += 1;
        }
    }
    ranges
}

/// Returns `Some(())` when `code` declares `fn <name>` (exact identifier
/// match, so `record` never matches `record_n`).
fn fn_decl_at(code: &str, name: &str) -> Option<()> {
    let mut search = 0;
    while let Some(pos) = code[search..].find("fn ") {
        let at = search + pos;
        search = at + 3;
        // `fn ` must start a token: reject e.g. `self.fn ` (not Rust) or
        // an identifier ending in `fn`.
        if at > 0 {
            let prev = code[..at].chars().next_back();
            if prev.is_some_and(|p| p.is_alphanumeric() || p == '_') {
                continue;
            }
        }
        let rest = code[at + 3..].trim_start();
        if let Some(after) = rest.strip_prefix(name) {
            let boundary = after.chars().next();
            if matches!(boundary, Some('(' | '<') | None) {
                return Some(());
            }
        }
    }
    None
}

/// True when `hay` contains `token` followed by a non-identifier char
/// (or end of line) — so `TAG_PREDICT` never matches `TAG_PREDICTION`.
pub fn contains_token(hay: &str, token: &str) -> bool {
    let mut search = 0;
    while let Some(pos) = hay[search..].find(token) {
        let at = search + pos;
        search = at + 1;
        let after = hay[at + token.len()..].chars().next();
        if !after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_scrubbed() {
        let src = r#"let x = "unwrap() // not code"; // real.unwrap() comment
let y = 1; /* block .expect( */ let z = 2;
"#;
        let lines = scrub(src);
        assert_eq!(lines.len(), 2);
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].comment.contains("real.unwrap() comment"));
        assert!(lines[1].code.contains("let z = 2;"));
        assert!(lines[1].comment.contains(".expect("));
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let src = "let p = r#\"panic!(\"x\")\"#;\nlet c = '\\n'; let l: &'static str = \"y\";\n";
        let lines = scrub(src);
        assert!(!lines[0].code.contains("panic!"));
        assert!(lines[1].code.contains("'static"));
        assert!(!lines[1].code.contains("\\n"));
    }

    #[test]
    fn multiline_strings_span_lines() {
        let src = "let s = \"first\nsecond unwrap()\nthird\";\nlet t = 1.unwrap();\n";
        let lines = scrub(src);
        assert!(!lines[1].code.contains("unwrap"));
        assert!(lines[3].code.contains("unwrap()"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let a = 1;\n";
        let lines = scrub(src);
        assert!(lines[0].code.contains("let a = 1;"));
        assert!(lines[0].comment.contains("inner"));
    }

    #[test]
    fn test_mask_covers_cfg_test_items() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { y.unwrap(); }\n}\nfn live2() {}\n";
        let lines = scrub(src);
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, true, false]);
    }

    #[test]
    fn fn_ranges_finds_every_impl() {
        let src = "impl A {\n    fn record(&self) {\n        body();\n    }\n}\nimpl B {\n    fn record(&self) { body() }\n    fn record_n(&self) {}\n}\n";
        let lines = scrub(src);
        let ranges = fn_ranges(&lines, "record");
        assert_eq!(ranges, vec![(1, 3), (6, 6)]);
        assert_eq!(fn_ranges(&lines, "record_n"), vec![(7, 7)]);
    }

    #[test]
    fn token_boundaries_are_respected() {
        assert!(contains_token("seal(TAG_PREDICT,", "TAG_PREDICT"));
        assert!(!contains_token("seal(TAG_PREDICTION,", "TAG_PREDICT"));
        assert!(contains_token("TAG_PREDICT =>", "TAG_PREDICT"));
    }
}
