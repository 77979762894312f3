//! Structural Verilog export and import.
//!
//! Two exporters and one importer:
//!
//! - [`to_verilog`] emits the *canonical structural form*: one `wire`
//!   per net in net-id order, one named cell-library instance per cell
//!   in cell-id order, `assign` only for output-port aliases. This form
//!   is the exact inverse of [`from_verilog`]: for any validated
//!   netlist, `from_verilog(&to_verilog(n))` reconstructs the same
//!   nets, cells, names and ports (same ids, same order).
//! - [`to_verilog_behavioral`] emits the simulator-facing form with
//!   `always @(posedge clk)` blocks and `assign` expressions — meant
//!   for feeding external event-driven simulators, not for re-import.
//! - [`from_verilog`] parses a flat gate-level module (our own cell
//!   library, Verilog gate primitives, `assign` netlists, and a
//!   built-in alias table for `sky130_fd_sc_*` cells and
//!   `cv32e40p_clock_gate` wrappers), reconstructs the netlist, and
//!   returns it validated. Errors carry line, column and a source
//!   snippet — see [`ParseError`].
//!
//! Both directions stream. The importer's pull lexer hands the parser
//! one token at a time (one token of lookahead, no token vector), and
//! every token and identifier carries only its byte offset: offsets
//! are resolved to a line and column when an error is built, never on
//! the happy path. Each instance is resolved to cells as soon as its
//! `;` is read, so the module is held as one flat cell list. The
//! canonical exporter renders each net identifier once and appends
//! everything into one pre-sized buffer.
//!
//! The canonical form leans on two conventions so that anonymous ids
//! survive the trip: an anonymous net at index `k` prints as `nk` and
//! an anonymous cell at index `k` prints as `gk`; a *named* net or
//! cell whose name happens to collide with its own pattern is printed
//! as an escaped identifier (`\n5 `), which the importer reads back as
//! a real name. Names that collide with another net's emitted name are
//! demoted to their index form (the name is dropped — only possible
//! for hand-built netlists with duplicate names).

mod alias;
mod elab;
mod error;
mod export;
mod lexer;
mod parse;
mod resolve;

pub use elab::from_verilog;
pub use error::ParseError;
pub use export::{to_verilog, to_verilog_behavioral};

#[cfg(test)]
mod tests;
