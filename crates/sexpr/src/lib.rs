//! S-expression reader and writer for the λSCT language.
//!
//! The PLDI'19 artifact represents programs as Racket syntax; this crate is
//! the corresponding substrate: a small, dependency-free reader producing
//! [`Datum`] trees from textual S-expressions, and a writer that prints them
//! back in `write` form. It supports the subset of Scheme lexical syntax that
//! the benchmark corpus needs: proper and dotted lists, fixnum and bignum
//! integer literals, booleans, characters, strings, symbols, the quotation
//! sugar (`'`, `` ` ``, `,`, `,@`), and line / block / datum comments.
//!
//! Symbols are interned once per parse: every occurrence of a name in one
//! text shares one [`Rc<str>`](std::rc::Rc), and list vectors are
//! allocated at their exact length.
//!
//! # Examples
//!
//! ```
//! use sct_sexpr::{parse_one, Datum};
//!
//! # fn main() -> Result<(), sct_sexpr::ParseError> {
//! let d = parse_one("(ack (- m 1) 1)")?;
//! assert_eq!(d.to_string(), "(ack (- m 1) 1)");
//! assert!(matches!(d, Datum::List(_)));
//! # Ok(())
//! # }
//! ```

mod datum;
mod intern;
mod lexer;
mod parser;

pub use datum::Datum;
pub use intern::{FxBuildHasher, FxHasher};
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::{parse_all, parse_one, ParseError, Parser};

/// A source position (1-based line and column) used in error reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Pos {
    /// The position of the first character of a source text.
    pub fn start() -> Pos {
        Pos { line: 1, col: 1 }
    }
}

impl Default for Pos {
    fn default() -> Self {
        Pos::start()
    }
}

impl std::fmt::Display for Pos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}
