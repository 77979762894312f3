//! Located parse errors for the Verilog importer.

use std::fmt;

/// A structural-Verilog parse or elaboration error, located in the
/// source text.
///
/// `line` and `col` are 1-based and count bytes. `snippet` is the full
/// source line the error points into (empty when the location is past
/// the last line).
/// The [`fmt::Display`] rendering shows the message, the line, and a
/// caret marker:
///
/// ```text
/// verilog parse error at line 3, column 8: expected `;` after statement
///    3 | wire a wire b;
///      |        ^
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line of the error.
    pub line: usize,
    /// 1-based source column of the error.
    pub col: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// The source line the error points into.
    pub snippet: String,
}

impl ParseError {
    /// Builds an error at byte offset `pos` of `src`, resolving it to a
    /// line and column and capturing that source line as the snippet.
    ///
    /// Lines and columns count bytes: each `\n` starts a new line, and
    /// every other byte (tabs, `\r`, each byte of a multi-byte
    /// character) advances the column by one. Positions are only
    /// resolved here, on the error path, so the lexer never tracks them.
    pub(super) fn at(src: &str, pos: usize, message: String) -> Self {
        let pos = pos.min(src.len());
        let before = &src.as_bytes()[..pos];
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |nl| nl + 1);
        let col = 1 + pos - line_start;
        let snippet = src
            .lines()
            .nth(line.saturating_sub(1))
            .unwrap_or("")
            .to_owned();
        ParseError {
            line,
            col,
            message,
            snippet,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verilog parse error at line {}, column {}: {}",
            self.line, self.col, self.message
        )?;
        // Tab-free caret alignment: render tabs as single spaces.
        let shown: String = self
            .snippet
            .chars()
            .map(|c| if c == '\t' { ' ' } else { c })
            .collect();
        writeln!(f, "{:>5} | {}", self.line, shown)?;
        write!(f, "      |{:>width$}", "^", width = self.col + 1)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_location_and_caret() {
        let src = "module m (a);\nwire a wire b;\nendmodule\n";
        // Byte 21 is the second `wire` on line 2, column 8.
        let e = ParseError::at(src, 21, "expected `;` after statement".into());
        assert_eq!((e.line, e.col), (2, 8));
        let text = e.to_string();
        assert!(text.contains("line 2, column 8"), "{text}");
        assert!(text.contains("wire a wire b;"), "{text}");
        let caret_line = text.lines().last().unwrap();
        // The snippet line prefix `    2 | ` is 8 chars; column 8
        // (1-based) lands at rendered index 8 + 7.
        assert_eq!(caret_line.find('^'), Some(8 + 7), "{text}");
    }

    #[test]
    fn location_past_end_has_empty_snippet() {
        let e = ParseError::at("x\n", 2, "unexpected end of input".into());
        assert_eq!((e.line, e.col), (2, 1));
        assert_eq!(e.snippet, "");
        assert!(e.to_string().contains("line 2"));
    }
}
