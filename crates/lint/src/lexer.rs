//! A small, dependency-free Rust lexer.
//!
//! The vendored dependency set has no `syn`, so the lint engine carries
//! its own tokenizer: enough of the Rust lexical grammar to classify
//! every byte of a source file as code, comment, or literal, with an
//! accurate line/column span on each token. That classification is what
//! a line-regex linter lacks — a banned pattern inside a string literal,
//! doc comment, or `/* ... */` block cannot fire, and every diagnostic
//! can point at the exact token rather than a whole line.
//!
//! Covered: line and (nested) block comments, string / raw-string /
//! byte-string / char literals, lifetimes, numbers (including float
//! and underscore forms), identifiers, and punctuation. `::` is fused
//! into a single token because the rule layer leans on it to walk type
//! paths; all other punctuation is one token per character.
//!
//! The lexer never fails: an unterminated literal or comment simply
//! extends to the end of the file, which is the most useful behaviour
//! for a linter that runs on code `rustc` may still be rejecting.

/// Classification of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Any literal: string, raw string, byte string, char, or number.
    Lit,
    /// A lifetime such as `'a` (kept distinct so the char-literal
    /// heuristics can't confuse the rule layer).
    Lifetime,
    /// Punctuation. One character per token, except `::` which is fused.
    Punct,
    /// A `//` line comment or `/* */` block comment, text included —
    /// the rule layer reads `lint: allow(...)` suppressions out of
    /// these.
    Comment,
}

/// One token with its 1-based source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok<'a> {
    /// What the token is.
    pub kind: TokKind,
    /// The exact source text of the token.
    pub text: &'a str,
    /// 1-based line of the token's first character.
    pub line: usize,
    /// 1-based byte column of the token's first character.
    pub col: usize,
}

impl<'a> Tok<'a> {
    /// Whether this is punctuation with exactly this text.
    #[must_use]
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text == p
    }

    /// Whether this is an identifier with exactly this text.
    #[must_use]
    pub fn is_ident(&self, id: &str) -> bool {
        self.kind == TokKind::Ident && self.text == id
    }
}

struct Cursor<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, tracking line/column. Multi-byte UTF-8
    /// continuation bytes do not advance the column, so columns count
    /// characters on ASCII-heavy source and stay monotone elsewhere.
    fn bump(&mut self) {
        let b = self.bytes[self.pos];
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            self.col += 1;
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            if self.pos < self.bytes.len() {
                self.bump();
            }
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenizes `src`. Whitespace is dropped; comments are kept.
#[must_use]
pub fn lex(src: &str) -> Vec<Tok<'_>> {
    let mut c = Cursor {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(b) = c.peek(0) {
        if b.is_ascii_whitespace() {
            c.bump();
            continue;
        }
        let (start, line, col) = (c.pos, c.line, c.col);
        let kind = scan_token(&mut c, b);
        out.push(Tok {
            kind,
            text: &c.src[start..c.pos],
            line,
            col,
        });
    }
    out
}

/// Scans one token starting at byte `b`; advances the cursor past it.
fn scan_token(c: &mut Cursor<'_>, b: u8) -> TokKind {
    match b {
        b'/' if c.peek(1) == Some(b'/') => {
            while c.peek(0).is_some_and(|b| b != b'\n') {
                c.bump();
            }
            TokKind::Comment
        }
        b'/' if c.peek(1) == Some(b'*') => {
            c.bump_n(2);
            let mut depth = 1usize;
            while depth > 0 && c.peek(0).is_some() {
                if c.peek(0) == Some(b'/') && c.peek(1) == Some(b'*') {
                    depth += 1;
                    c.bump_n(2);
                } else if c.peek(0) == Some(b'*') && c.peek(1) == Some(b'/') {
                    depth -= 1;
                    c.bump_n(2);
                } else {
                    c.bump();
                }
            }
            TokKind::Comment
        }
        b'"' => {
            scan_string(c);
            TokKind::Lit
        }
        b'r' | b'b' if raw_prefix_len(c).is_some() => {
            let skip = raw_prefix_len(c).unwrap_or(0);
            c.bump_n(skip);
            match c.peek(0) {
                Some(b'"') => scan_string(c),
                Some(b'r') | Some(b'#') => scan_raw_string(c),
                Some(b'\'') => scan_char(c),
                _ => {}
            }
            TokKind::Lit
        }
        b'\'' => scan_char_or_lifetime(c),
        _ if b.is_ascii_digit() => {
            scan_number(c);
            TokKind::Lit
        }
        _ if is_ident_start(b) => {
            while c.peek(0).is_some_and(is_ident_continue) {
                c.bump();
            }
            TokKind::Ident
        }
        b':' if c.peek(1) == Some(b':') => {
            c.bump_n(2);
            TokKind::Punct
        }
        _ => {
            c.bump();
            TokKind::Punct
        }
    }
}

/// If the cursor sits on a literal prefix (`r`, `b`, `br`) that opens a
/// raw/byte string or byte char, returns how many prefix bytes to skip
/// before the quote machinery takes over (`r` itself is left for
/// [`scan_raw_string`] when hashes follow).
fn raw_prefix_len(c: &Cursor<'_>) -> Option<usize> {
    let b0 = c.peek(0)?;
    match (b0, c.peek(1)) {
        // r"..." or r#"..."# — leave `r` in place for scan_raw_string.
        (b'r', Some(b'"' | b'#')) => Some(0),
        // b"..." or b'x'
        (b'b', Some(b'"' | b'\'')) => Some(1),
        // br"..." or br#"..."#
        (b'b', Some(b'r')) if matches!(c.peek(2), Some(b'"' | b'#')) => Some(1),
        _ => None,
    }
}

/// Scans a `"..."` string (cursor on the opening quote).
fn scan_string(c: &mut Cursor<'_>) {
    c.bump();
    while let Some(b) = c.peek(0) {
        match b {
            b'\\' => c.bump_n(2),
            b'"' => {
                c.bump();
                return;
            }
            _ => c.bump(),
        }
    }
}

/// Scans `r"..."` / `r#"..."#` (cursor on the `r`).
fn scan_raw_string(c: &mut Cursor<'_>) {
    c.bump(); // r
    let mut hashes = 0usize;
    while c.peek(0) == Some(b'#') {
        hashes += 1;
        c.bump();
    }
    if c.peek(0) != Some(b'"') {
        return;
    }
    c.bump();
    while c.peek(0).is_some() {
        if c.peek(0) == Some(b'"') {
            let closed = (1..=hashes).all(|i| c.peek(i) == Some(b'#'));
            c.bump();
            if closed {
                c.bump_n(hashes);
                return;
            }
        } else {
            c.bump();
        }
    }
}

/// Scans a `'x'` char literal (cursor on the quote, prefix consumed).
fn scan_char(c: &mut Cursor<'_>) {
    c.bump();
    while let Some(b) = c.peek(0) {
        match b {
            b'\\' => c.bump_n(2),
            b'\'' => {
                c.bump();
                return;
            }
            _ => c.bump(),
        }
    }
}

/// Disambiguates `'a'` (char literal) from `'a` (lifetime). The char
/// after the quote may be multi-byte, so the closing-quote probe walks
/// one full UTF-8 character.
fn scan_char_or_lifetime(c: &mut Cursor<'_>) -> TokKind {
    let rest = &c.src[c.pos + 1..];
    let mut chars = rest.chars();
    match chars.next() {
        // Escape: always a char literal.
        Some('\\') => {
            scan_char(c);
            TokKind::Lit
        }
        Some(ch) if chars.next() == Some('\'') => {
            // 'x' — one character then a closing quote.
            c.bump(); // opening '
            c.bump_n(ch.len_utf8());
            c.bump(); // closing '
            TokKind::Lit
        }
        _ => {
            // Lifetime: 'ident (no closing quote).
            c.bump();
            while c.peek(0).is_some_and(is_ident_continue) {
                c.bump();
            }
            TokKind::Lifetime
        }
    }
}

/// Scans a number. A `.` is consumed only when a digit follows, so
/// ranges (`0..n`) and method calls (`1.max(x)`) end the token.
fn scan_number(c: &mut Cursor<'_>) {
    while let Some(b) = c.peek(0) {
        let fraction_dot = b == b'.' && c.peek(1).is_some_and(|d| d.is_ascii_digit());
        if !is_ident_continue(b) && !fraction_dot {
            break;
        }
        c.bump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn code_comments_and_strings_are_separated() {
        let toks = kinds("let x = \"panic!( inside\"; // panic!( trailing");
        assert_eq!(
            toks,
            vec![
                (TokKind::Ident, "let"),
                (TokKind::Ident, "x"),
                (TokKind::Punct, "="),
                (TokKind::Lit, "\"panic!( inside\""),
                (TokKind::Punct, ";"),
                (TokKind::Comment, "// panic!( trailing"),
            ]
        );
    }

    #[test]
    fn path_separator_is_one_token() {
        let toks = kinds("std::time::Instant");
        assert_eq!(
            toks,
            vec![
                (TokKind::Ident, "std"),
                (TokKind::Punct, "::"),
                (TokKind::Ident, "time"),
                (TokKind::Punct, "::"),
                (TokKind::Ident, "Instant"),
            ]
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\n'; }");
        assert!(toks.contains(&(TokKind::Lifetime, "'a")));
        assert!(toks.contains(&(TokKind::Lit, "'x'")));
        assert!(toks.contains(&(TokKind::Lit, "'\\n'")));
    }

    #[test]
    fn raw_and_byte_strings_swallow_their_contents() {
        let toks = kinds(r##"let s = r#"has "quotes" and .unwrap()"#; done"##);
        assert_eq!(
            toks.last(),
            Some(&(TokKind::Ident, "done")),
            "raw string must not leak: {toks:?}"
        );
        assert!(!toks.iter().any(|(_, t)| *t == "unwrap"));
        let toks = kinds("let b = b\"bytes .iter()\"; end");
        assert!(!toks.iter().any(|(_, t)| *t == "iter"), "{toks:?}");
        assert_eq!(toks.last(), Some(&(TokKind::Ident, "end")));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let toks = kinds("a /* outer /* inner */ still outer */ b");
        assert_eq!(toks.first(), Some(&(TokKind::Ident, "a")));
        assert_eq!(toks.last(), Some(&(TokKind::Ident, "b")));
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn numbers_stop_before_ranges_and_method_calls() {
        let toks = kinds("0..10 1.5 1.max(2)");
        assert_eq!(toks[0], (TokKind::Lit, "0"));
        assert_eq!(toks[1], (TokKind::Punct, "."));
        assert_eq!(toks[2], (TokKind::Punct, "."));
        assert_eq!(toks[3], (TokKind::Lit, "10"));
        assert_eq!(toks[4], (TokKind::Lit, "1.5"));
        assert_eq!(toks[5], (TokKind::Lit, "1"));
        assert_eq!(toks[6], (TokKind::Punct, "."));
        assert_eq!(toks[7], (TokKind::Ident, "max"));
    }

    #[test]
    fn spans_are_one_based_and_accurate() {
        let toks = lex("ab cd\n  ef");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (1, 4));
        assert_eq!((toks[2].line, toks[2].col), (2, 3));
    }
}
