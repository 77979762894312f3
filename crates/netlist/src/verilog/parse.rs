//! Recursive-descent parser for the flat structural-Verilog subset.
//!
//! Grammar (one module per file):
//!
//! ```text
//! module   := "module" ident "(" [ident {"," ident}] ")" ";" {stmt} "endmodule"
//! stmt     := decl | assign | instance
//! decl     := ("input"|"output"|"wire") ident {"," ident} ";"
//! assign   := "assign" ident "=" expr ";"
//! expr     := const1 | ident | "~" ident | "~(" ident op ident ")"
//!           | ident op ident [op ident] | ident "?" ident ":" ident
//! instance := primitive [ident] "(" ident {"," ident} ")" ";"
//!           | ident [ident] "(" named {"," named} ")" ";"
//! named    := "." ident "(" [ident] ")"
//! ```
//!
//! Behavioural constructs (`always`, `reg`, `initial`), vector ranges,
//! parameters and a second `module` are rejected with located errors —
//! the importer refuses to mis-elaborate what it cannot represent.
//!
//! The parser pulls tokens from the lexer with one token of lookahead,
//! and hands each `assign` and instance to [`super::resolve`] as soon as
//! its `;` is read.

use super::error::ParseError;
use super::lexer::{Lexer, Tok, TokKind};
use super::resolve::{self, RCell};

/// An identifier occurrence in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Ident<'a> {
    pub text: &'a str,
    pub escaped: bool,
    /// Byte offset of the identifier (of its backslash when escaped).
    pub pos: usize,
}

/// A parsed module, its instances and assigns already resolved.
///
/// Each statement is resolved to cells as soon as it is parsed, so no
/// per-statement syntax tree or pin list is kept.
#[derive(Debug)]
pub(super) struct SourceModule<'a> {
    pub name: Ident<'a>,
    pub header_ports: Vec<Ident<'a>>,
    pub inputs: Vec<Ident<'a>>,
    pub outputs: Vec<Ident<'a>>,
    pub wires: Vec<Ident<'a>>,
    /// Every instance and `assign`, resolved, in source order.
    pub cells: Vec<RCell<'a>>,
    /// The first instance that failed to resolve. Parse errors anywhere
    /// take precedence; the elaborator reports it after checking the
    /// declarations.
    pub unresolved: Option<ParseError>,
    /// Byte offset of the `module` keyword.
    pub pos: usize,
}

#[derive(Debug)]
pub(super) enum Expr<'a> {
    /// `1'b0` / `1'b1`.
    Const(bool),
    /// A bare net (port alias or buffer).
    Net(Ident<'a>),
    /// `~a`.
    Inv(Ident<'a>),
    /// `a op b [op c]` with a single operator `&`, `|` or `^`.
    Bin {
        op: char,
        a: Ident<'a>,
        b: Ident<'a>,
        c: Option<Ident<'a>>,
    },
    /// `~(a op b)`.
    NegBin {
        op: char,
        a: Ident<'a>,
        b: Ident<'a>,
    },
    /// `sel ? t : f`.
    Mux {
        sel: Ident<'a>,
        t: Ident<'a>,
        f: Ident<'a>,
    },
}

/// Verilog gate primitives accepted with positional connections.
pub(super) const PRIMITIVES: &[&str] = &["and", "nand", "or", "nor", "xor", "xnor", "buf", "not"];

const BEHAVIORAL: &[&str] = &[
    "always", "initial", "reg", "integer", "real", "time", "task", "function", "generate",
    "specify",
];
const UNSUPPORTED_DECLS: &[&str] = &[
    "parameter",
    "localparam",
    "defparam",
    "supply0",
    "supply1",
    "tri",
    "inout",
    "genvar",
];

struct Parser<'a> {
    src: &'a str,
    lex: Lexer<'a>,
    /// The one token of lookahead.
    tok: Tok<'a>,
    /// The `.PIN(net)` pairs of the instance being parsed.
    pins: Vec<(Ident<'a>, Option<Ident<'a>>)>,
    /// The positional nets of the primitive being parsed.
    nets: Vec<Ident<'a>>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Tok<'a> {
        self.tok
    }

    fn next(&mut self) -> Tok<'a> {
        let t = self.tok;
        self.tok = self.lex.next_tok();
        t
    }

    fn err(&self, tok: Tok<'a>, message: String) -> ParseError {
        ParseError::at(self.src, tok.pos, message)
    }

    fn expect_sym(&mut self, sym: char, what: &str) -> Result<(), ParseError> {
        let t = self.next();
        match t.kind {
            TokKind::Sym(c) if c == sym => Ok(()),
            _ => Err(self.err(
                t,
                format!("expected `{sym}` {what}, found {}", t.kind.describe()),
            )),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<Ident<'a>, ParseError> {
        let t = self.next();
        match t.kind {
            TokKind::Ident { text, escaped } => Ok(Ident {
                text,
                escaped,
                pos: t.pos,
            }),
            _ => Err(self.err(t, format!("expected {what}, found {}", t.kind.describe()))),
        }
    }

    fn at_sym(&self, sym: char) -> bool {
        matches!(self.peek().kind, TokKind::Sym(c) if c == sym)
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek().kind, TokKind::Ident { text, escaped: false } if text == kw)
    }

    /// `ident {"," ident}` until (but not consuming) `;` or `)`,
    /// appended to `out`.
    fn ident_list(&mut self, what: &str, out: &mut Vec<Ident<'a>>) -> Result<(), ParseError> {
        out.push(self.named_ident(what)?);
        while self.at_sym(',') {
            self.next();
            out.push(self.named_ident(what)?);
        }
        Ok(())
    }

    /// An identifier in declaration position; a `[` here means a vector
    /// range, which the flat importer rejects with a targeted message.
    fn named_ident(&mut self, what: &str) -> Result<Ident<'a>, ParseError> {
        if self.at_sym('[') {
            let t = self.peek();
            return Err(self.err(
                t,
                "vector ranges are not supported; bit-blast the design first".into(),
            ));
        }
        self.expect_ident(what)
    }

    fn parse_module(&mut self) -> Result<SourceModule<'a>, ParseError> {
        let t = self.peek();
        if !self.at_keyword("module") {
            return Err(self.err(t, format!("expected `module`, found {}", t.kind.describe())));
        }
        self.next();
        let name = self.expect_ident("a module name")?;
        let mut header_ports = Vec::new();
        self.expect_sym('(', "after the module name")?;
        if !self.at_sym(')') {
            self.ident_list("a port name", &mut header_ports)?;
        }
        self.expect_sym(')', "to close the port list")?;
        self.expect_sym(';', "after the module header")?;

        let mut module = SourceModule {
            name,
            header_ports,
            inputs: Vec::new(),
            outputs: Vec::new(),
            wires: Vec::new(),
            cells: Vec::new(),
            unresolved: None,
            pos: t.pos,
        };

        loop {
            let t = self.peek();
            match t.kind {
                TokKind::Eof => {
                    return Err(self.err(t, "missing `endmodule`".into()));
                }
                TokKind::Ident {
                    text: "endmodule",
                    escaped: false,
                } => {
                    self.next();
                    break;
                }
                _ => self.parse_stmt(&mut module)?,
            }
        }

        // Anything after `endmodule` (a second module, stray text) is out
        // of scope for the flat importer.
        let t = self.peek();
        if t.kind != TokKind::Eof {
            return Err(self.err(
                t,
                "only a single flat module is supported; flatten the design first".into(),
            ));
        }
        Ok(module)
    }

    fn parse_stmt(&mut self, module: &mut SourceModule<'a>) -> Result<(), ParseError> {
        let t = self.peek();
        let kw = match t.kind {
            TokKind::Ident {
                text,
                escaped: false,
            } => text,
            TokKind::Ident { escaped: true, .. } => "",
            _ => {
                return Err(self.err(
                    t,
                    format!("expected a statement, found {}", t.kind.describe()),
                ));
            }
        };
        if BEHAVIORAL.contains(&kw) {
            return Err(self.err(
                t,
                format!(
                    "behavioural construct `{kw}` is not supported; \
                     import the structural export instead"
                ),
            ));
        }
        if UNSUPPORTED_DECLS.contains(&kw) {
            return Err(self.err(t, format!("unsupported declaration `{kw}`")));
        }
        match kw {
            "input" => {
                self.next();
                self.ident_list("an input port name", &mut module.inputs)?;
                self.expect_sym(';', "after the input declaration")?;
            }
            "output" => {
                self.next();
                self.ident_list("an output port name", &mut module.outputs)?;
                self.expect_sym(';', "after the output declaration")?;
            }
            "wire" => {
                self.next();
                self.ident_list("a wire name", &mut module.wires)?;
                self.expect_sym(';', "after the wire declaration")?;
            }
            "assign" => {
                self.next();
                let lhs = self.named_ident("a net name")?;
                self.expect_sym('=', "in the assignment")?;
                let rhs = self.parse_expr()?;
                self.expect_sym(';', "after the assignment")?;
                module.cells.push(resolve::assign(lhs, &rhs, t.pos));
            }
            _ => self.parse_instance(module)?,
        }
        Ok(())
    }

    fn parse_instance(&mut self, module: &mut SourceModule<'a>) -> Result<(), ParseError> {
        let master = self.expect_ident("a cell name")?;
        let primitive = !master.escaped && PRIMITIVES.contains(&master.text);
        let inst = if self.at_sym('(') {
            None
        } else {
            Some(self.expect_ident("an instance name")?)
        };
        self.expect_sym('(', "to open the connection list")?;
        // The scratch lists leave `self` while the connections are read
        // (which borrows `self`) and come back to keep their capacity.
        let mut nets = std::mem::take(&mut self.nets);
        let mut pins = std::mem::take(&mut self.pins);
        nets.clear();
        pins.clear();
        if primitive {
            self.ident_list("a net", &mut nets)?;
        } else {
            let t = self.peek();
            if !self.at_sym('.') {
                return Err(self.err(
                    t,
                    format!(
                        "cell `{}` needs named connections (`.PIN(net)`); \
                         positional connections are only supported for gate primitives",
                        master.text
                    ),
                ));
            }
            loop {
                self.expect_sym('.', "before the pin name")?;
                let pin = self.expect_ident("a pin name")?;
                self.expect_sym('(', "after the pin name")?;
                let net = if self.at_sym(')') {
                    None
                } else {
                    Some(self.named_ident("a net")?)
                };
                self.expect_sym(')', "to close the pin connection")?;
                pins.push((pin, net));
                if self.at_sym(',') {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect_sym(')', "to close the connection list")?;
        self.expect_sym(';', "after the instance")?;
        // After the first failure only parse errors matter, so later
        // instances are not resolved.
        if module.unresolved.is_none() {
            let resolved = if primitive {
                resolve::primitive(self.src, &master, inst, &nets)
                    .map(|cell| module.cells.push(cell))
            } else {
                resolve::named(self.src, &master, inst, &pins, &mut module.cells)
            };
            module.unresolved = resolved.err();
        }
        self.nets = nets;
        self.pins = pins;
        Ok(())
    }

    fn parse_expr(&mut self) -> Result<Expr<'a>, ParseError> {
        let t = self.peek();
        match t.kind {
            TokKind::Number(n) => {
                self.next();
                match n {
                    "1'b0" | "1'h0" | "1'd0" => Ok(Expr::Const(false)),
                    "1'b1" | "1'h1" | "1'd1" => Ok(Expr::Const(true)),
                    _ => Err(self.err(t, format!("unsupported literal `{n}` (only 1'b0 / 1'b1)"))),
                }
            }
            TokKind::Sym('~') => {
                self.next();
                if self.at_sym('(') {
                    self.next();
                    let a = self.expect_ident("a net")?;
                    let op = self.binop()?;
                    let b = self.expect_ident("a net")?;
                    self.expect_sym(')', "to close the inverted expression")?;
                    Ok(Expr::NegBin { op, a, b })
                } else {
                    Ok(Expr::Inv(self.expect_ident("a net")?))
                }
            }
            TokKind::Ident { .. } => {
                let first = self.expect_ident("a net")?;
                let t = self.peek();
                match t.kind {
                    TokKind::Sym(op @ ('&' | '|' | '^')) => {
                        self.next();
                        let second = self.expect_ident("a net")?;
                        // Every further term is read (so a malformed one
                        // is reported first), but only the third is kept.
                        let mut third = None;
                        let mut terms = 2usize;
                        while let TokKind::Sym(next_op @ ('&' | '|' | '^')) = self.peek().kind {
                            let t2 = self.peek();
                            if next_op != op {
                                return Err(self.err(
                                    t2,
                                    "mixed operators in one expression are not supported".into(),
                                ));
                            }
                            self.next();
                            let term = self.expect_ident("a net")?;
                            third.get_or_insert(term);
                            terms += 1;
                        }
                        if terms > 3 {
                            return Err(self.err(
                                t,
                                format!("expressions with {terms} terms are not supported (max 3)"),
                            ));
                        }
                        Ok(Expr::Bin {
                            op,
                            a: first,
                            b: second,
                            c: third,
                        })
                    }
                    TokKind::Sym('?') => {
                        self.next();
                        let tt = self.expect_ident("a net")?;
                        self.expect_sym(':', "in the conditional expression")?;
                        let ff = self.expect_ident("a net")?;
                        Ok(Expr::Mux {
                            sel: first,
                            t: tt,
                            f: ff,
                        })
                    }
                    _ => Ok(Expr::Net(first)),
                }
            }
            _ => Err(self.err(
                t,
                format!("expected an expression, found {}", t.kind.describe()),
            )),
        }
    }

    fn binop(&mut self) -> Result<char, ParseError> {
        let t = self.next();
        match t.kind {
            TokKind::Sym(op @ ('&' | '|' | '^')) => Ok(op),
            _ => Err(self.err(
                t,
                format!("expected `&`, `|` or `^`, found {}", t.kind.describe()),
            )),
        }
    }
}

/// Parses one flat module from `src`.
///
/// A lexical error anywhere in `src` takes precedence over a parse
/// error: the rest of the input is lexed before a parse error is
/// reported, and the first lexical error, if any, is returned instead.
pub(super) fn parse(src: &str) -> Result<SourceModule<'_>, ParseError> {
    let mut lex = Lexer::new(src);
    let tok = lex.next_tok();
    let mut p = Parser {
        src,
        lex,
        tok,
        pins: Vec::new(),
        nets: Vec::new(),
    };
    let parsed = p.parse_module();
    p.lex.finish()?;
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_module() {
        let m = parse("module m (a, y);\ninput a;\noutput y;\nassign y = a;\nendmodule\n").unwrap();
        assert_eq!(m.name.text, "m");
        assert_eq!(m.header_ports.len(), 2);
        assert_eq!(m.inputs.len(), 1);
        assert_eq!(m.outputs.len(), 1);
        assert_eq!(m.cells.len(), 1);
    }

    #[test]
    fn parses_named_instance_with_unconnected_pin() {
        let m = parse("module m (); SDFF r0 (.Q(q), .D(d), .SI(), .SE(se)); endmodule").unwrap();
        let cell = &m.cells[0];
        assert_eq!(cell.kind, crate::GateKind::Sdff);
        assert_eq!(cell.name.unwrap().text, "r0");
        assert_eq!(cell.out.unwrap().text, "q");
        let ins: Vec<&str> = cell.input_nets().collect();
        assert_eq!(ins, ["d", "se"], "SI is unconnected");
    }

    #[test]
    fn parses_primitive_positional() {
        let m = parse("module m (); nand g1 (y, a, b); endmodule").unwrap();
        let cell = &m.cells[0];
        assert_eq!(cell.kind, crate::GateKind::Nand2);
        assert_eq!(cell.input_nets().collect::<Vec<_>>(), ["a", "b"]);
    }

    #[test]
    fn resolution_errors_wait_for_the_rest_of_the_parse() {
        let m = parse("module m (); AND9 g0 (.Y(y)); INV g1 (.Y(z), .A(y)); endmodule").unwrap();
        assert!(m
            .unresolved
            .unwrap()
            .message
            .contains("unknown cell `AND9`"));
        let e = parse("module m (); AND9 g0 (.Y(y)); INV g1 (.Y(z) .A(y)); endmodule").unwrap_err();
        assert!(e.message.contains("expected `)`"), "{e}");
    }

    #[test]
    fn rejects_behavioral_with_location() {
        let e =
            parse("module m (a);\ninput a;\nalways @(posedge a) x <= 1;\nendmodule").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("behavioural"), "{}", e.message);
    }

    #[test]
    fn rejects_vector_ranges() {
        let e = parse("module m (d);\ninput [7:0] d;\nendmodule").unwrap_err();
        assert!(e.message.contains("bit-blast"), "{}", e.message);
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_second_module() {
        let e = parse("module a (); endmodule\nmodule b (); endmodule").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("single flat module"), "{}", e.message);
    }

    #[test]
    fn rejects_positional_on_library_cell() {
        let e = parse("module m (); AND2 g0 (y, a, b); endmodule").unwrap_err();
        assert!(e.message.contains("named connections"), "{}", e.message);
    }

    #[test]
    fn rejects_mixed_operators() {
        let e = parse("module m (); assign y = a & b | c; endmodule").unwrap_err();
        assert!(e.message.contains("mixed operators"), "{}", e.message);
    }

    #[test]
    fn missing_semicolon_is_located() {
        let e = parse("module m (a);\ninput a\nwire w;\nendmodule").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("expected `;`"), "{}", e.message);
    }

    #[test]
    fn eof_inside_module_reports_missing_endmodule() {
        let e = parse("module m (a);\ninput a;\n").unwrap_err();
        assert!(e.message.contains("endmodule"), "{}", e.message);
    }
}
