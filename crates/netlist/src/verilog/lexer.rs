//! Zero-copy pull lexer for structural Verilog.
//!
//! [`Lexer::next_tok`] hands out one identifier / number / symbol
//! token at a time, each carrying the byte offset where it starts; the
//! parser keeps one token of lookahead, so no token vector is ever
//! built. Offsets are resolved to a line and column only when an error
//! is built (see [`ParseError::at`]). Comments (`//` and `/* */`) and
//! compiler directives (`` ` `` to end of line) are skipped. Escaped
//! identifiers (`\name `) keep an `escaped` flag — the importer uses it
//! to distinguish a real name that *looks* like an anonymous-id pattern
//! from the pattern itself.

use super::error::ParseError;

/// One token, borrowing from the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Tok<'a> {
    pub kind: TokKind<'a>,
    /// Byte offset of the token's first byte (the source length for
    /// [`TokKind::Eof`]).
    pub pos: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TokKind<'a> {
    /// A simple or escaped identifier (escaped form has the leading
    /// backslash and trailing whitespace stripped).
    Ident { text: &'a str, escaped: bool },
    /// A literal number, kept raw (e.g. `1'b0`, `42`).
    Number(&'a str),
    /// A single punctuation character.
    Sym(char),
    /// End of input.
    Eof,
}

impl<'a> TokKind<'a> {
    /// A short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokKind::Ident { text, .. } => format!("`{text}`"),
            TokKind::Number(n) => format!("`{n}`"),
            TokKind::Sym(c) => format!("`{c}`"),
            TokKind::Eof => "end of input".to_owned(),
        }
    }
}

/// A byte-indexed membership table for the bytes in `members`.
const fn byte_set(members: &[u8]) -> [bool; 256] {
    let mut set = [false; 256];
    let mut i = 0;
    while i < members.len() {
        set[members[i] as usize] = true;
        i += 1;
    }
    set
}

/// Bytes that continue a simple identifier.
const IDENT_CONT: [bool; 256] =
    byte_set(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_$");

/// Single-character punctuation tokens.
const SYMBOLS: [bool; 256] = byte_set(b"();,.=~&|^?:[]#{}*/@<>+-");

/// Pulls tokens from a source text one at a time.
///
/// A lexical error ends the token stream: the lexer keeps the error and
/// reports end of input from then on, and [`Lexer::finish`] returns it.
/// A lexical error anywhere in the source takes precedence over any
/// parse error, so the parser asks `finish` before reporting its own.
pub(super) struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next unread byte.
    pos: usize,
    /// The first lexical error.
    error: Option<ParseError>,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            error: None,
        }
    }

    /// The next token; [`TokKind::Eof`] again and again once the input
    /// is exhausted or a lexical error has been met.
    pub fn next_tok(&mut self) -> Tok<'a> {
        if self.error.is_none() {
            match self.scan() {
                Ok(tok) => return tok,
                Err(e) => self.error = Some(e),
            }
        }
        Tok {
            kind: TokKind::Eof,
            pos: self.pos,
        }
    }

    /// Lexes the rest of the input.
    ///
    /// # Errors
    ///
    /// Returns the first lexical error in the source, if any.
    pub fn finish(mut self) -> Result<(), ParseError> {
        while self.next_tok().kind != TokKind::Eof {}
        self.error.map_or(Ok(()), Err)
    }

    /// Scans one token at `self.pos`.
    ///
    /// # Errors
    ///
    /// Returns a located [`ParseError`] for unterminated block comments,
    /// bare backslashes, and characters outside the structural subset,
    /// without advancing.
    fn scan(&mut self) -> Result<Tok<'a>, ParseError> {
        let bytes = self.src.as_bytes();
        let len = bytes.len();
        let mut i = self.pos;
        loop {
            let Some(&c) = bytes.get(i) else {
                self.pos = len;
                return Ok(Tok {
                    kind: TokKind::Eof,
                    pos: len,
                });
            };
            let start = i;
            let kind = match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    i += 1;
                    continue;
                }
                // Line comment or compiler directive (`timescale,
                // `define...): skip to the end of the line.
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    i = skip_line(bytes, i);
                    continue;
                }
                b'`' => {
                    i = skip_line(bytes, i);
                    continue;
                }
                b'/' if bytes.get(i + 1) == Some(&b'*') => {
                    i += 2;
                    loop {
                        if i + 1 >= len {
                            self.pos = start;
                            return Err(ParseError::at(
                                self.src,
                                start,
                                "unterminated block comment".into(),
                            ));
                        }
                        if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                            i += 2;
                            break;
                        }
                        i += 1;
                    }
                    continue;
                }
                b'\\' => {
                    // Escaped identifier: backslash to next whitespace.
                    i += 1;
                    while i < len && !bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    if i == start + 1 {
                        self.pos = start;
                        return Err(ParseError::at(
                            self.src,
                            start,
                            "escaped identifier `\\` must be followed by a name".into(),
                        ));
                    }
                    TokKind::Ident {
                        text: &self.src[start + 1..i],
                        escaped: true,
                    }
                }
                b'0'..=b'9' => {
                    // Number with optional based literal: digits ['\'' base digits].
                    while i < len && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    if i < len && bytes[i] == b'\'' {
                        i += 1;
                        if i < len && bytes[i].is_ascii_alphabetic() {
                            i += 1;
                        }
                        while i < len && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                            i += 1;
                        }
                    }
                    TokKind::Number(&self.src[start..i])
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => {
                    i += 1;
                    while i < len && IDENT_CONT[usize::from(bytes[i])] {
                        i += 1;
                    }
                    TokKind::Ident {
                        text: &self.src[start..i],
                        escaped: false,
                    }
                }
                _ if SYMBOLS[usize::from(c)] => {
                    i += 1;
                    TokKind::Sym(c as char)
                }
                _ => {
                    self.pos = start;
                    return Err(ParseError::at(
                        self.src,
                        start,
                        format!("unexpected character `{}`", c as char),
                    ));
                }
            };
            self.pos = i;
            return Ok(Tok { kind, pos: start });
        }
    }
}

/// The offset of the `\n` ending the line that contains `i` (or the
/// source length).
fn skip_line(bytes: &[u8], i: usize) -> usize {
    bytes[i..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |n| i + n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(src: &str) -> Result<Vec<Tok<'_>>, ParseError> {
        let mut lex = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lex.next_tok();
            out.push(t);
            if t.kind == TokKind::Eof {
                return lex.finish().map(|()| out);
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokKind<'_>> {
        tokens(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_idents_numbers_symbols() {
        let k = kinds("module m (a); assign y = 1'b0; endmodule");
        assert!(k.contains(&TokKind::Ident {
            text: "module",
            escaped: false
        }));
        assert!(k.contains(&TokKind::Number("1'b0")));
        assert!(k.contains(&TokKind::Sym(';')));
        assert_eq!(*k.last().unwrap(), TokKind::Eof);
    }

    #[test]
    fn escaped_identifier_keeps_flag_and_strips_backslash() {
        let k = kinds("wire \\d[0] ;");
        assert!(k.contains(&TokKind::Ident {
            text: "d[0]",
            escaped: true
        }));
    }

    #[test]
    fn comments_and_directives_are_skipped() {
        let k = kinds("// header\n`timescale 1ns/1ps\n/* block\ncomment */ wire a;");
        assert_eq!(
            k,
            vec![
                TokKind::Ident {
                    text: "wire",
                    escaped: false
                },
                TokKind::Ident {
                    text: "a",
                    escaped: false
                },
                TokKind::Sym(';'),
                TokKind::Eof,
            ]
        );
    }

    #[test]
    fn tracks_line_and_column() {
        let src = "wire a;\n  wire b;";
        let toks = tokens(src).unwrap();
        let b = toks
            .iter()
            .find(|t| {
                t.kind
                    == TokKind::Ident {
                        text: "b",
                        escaped: false,
                    }
            })
            .unwrap();
        assert_eq!(b.pos, 15);
        let e = ParseError::at(src, b.pos, String::new());
        assert_eq!((e.line, e.col), (2, 8));
    }

    #[test]
    fn unterminated_block_comment_is_located() {
        let e = tokens("wire a;\n/* oops").unwrap_err();
        assert_eq!((e.line, e.col), (2, 1));
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn stray_character_is_located() {
        let e = tokens("wire a%;").unwrap_err();
        assert_eq!((e.line, e.col), (1, 7));
    }

    #[test]
    fn eof_repeats_and_a_lexical_error_ends_the_stream() {
        let mut lex = Lexer::new("a");
        assert!(matches!(lex.next_tok().kind, TokKind::Ident { .. }));
        let eof = Tok {
            kind: TokKind::Eof,
            pos: 1,
        };
        assert_eq!(lex.next_tok(), eof);
        assert_eq!(lex.next_tok(), eof);
        assert!(lex.finish().is_ok());

        let mut lex = Lexer::new("a % b `c");
        lex.next_tok();
        assert_eq!(lex.next_tok().kind, TokKind::Eof, "the `%` ends the stream");
        assert_eq!(lex.next_tok().kind, TokKind::Eof);
        let e = lex.finish().unwrap_err();
        assert_eq!((e.col, e.message.as_str()), (3, "unexpected character `%`"));

        // `finish` lexes what the parser did not read.
        let mut lex = Lexer::new("a b % c");
        lex.next_tok();
        assert_eq!(lex.finish().unwrap_err().col, 5);
    }
}
