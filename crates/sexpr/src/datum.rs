//! The [`Datum`] tree: the external representation of λSCT programs.

use std::fmt;
use std::rc::Rc;

/// A parsed S-expression.
///
/// Integer literals that fit in an `i64` are stored as [`Datum::Int`];
/// anything larger is kept as its decimal text in [`Datum::BigInt`] so this
/// crate stays independent of the bignum substrate (the interpreter converts
/// on demand).
///
/// # Examples
///
/// ```
/// use sct_sexpr::Datum;
///
/// let d = Datum::list(vec![Datum::sym("+"), Datum::Int(1), Datum::Int(2)]);
/// assert_eq!(d.to_string(), "(+ 1 2)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Datum {
    /// A fixnum integer literal such as `42` or `-7`.
    Int(i64),
    /// An integer literal too large for `i64`, kept as decimal text
    /// (sign included).
    BigInt(String),
    /// `#t` or `#f`.
    Bool(bool),
    /// A character literal such as `#\a`, `#\space`, or `#\newline`.
    Char(char),
    /// A string literal.
    Str(String),
    /// A symbol. The reader interns names, so every occurrence of a name
    /// in one parse shares one allocation.
    Sym(Rc<str>),
    /// A proper list `(d ...)`.
    List(Vec<Datum>),
    /// A dotted (improper) list `(d d ... . tail)`. The leading vector is
    /// non-empty and the tail is never itself a list (the parser normalizes).
    Improper(Vec<Datum>, Box<Datum>),
}

impl Datum {
    /// Builds a symbol datum.
    ///
    /// ```
    /// # use sct_sexpr::Datum;
    /// assert_eq!(Datum::sym("cons").to_string(), "cons");
    /// ```
    pub fn sym(s: impl Into<Rc<str>>) -> Datum {
        Datum::Sym(s.into())
    }

    /// Builds a proper-list datum.
    ///
    /// ```
    /// # use sct_sexpr::Datum;
    /// assert_eq!(Datum::list(vec![]).to_string(), "()");
    /// ```
    pub fn list(items: Vec<Datum>) -> Datum {
        Datum::List(items)
    }

    /// The empty list `()`.
    pub fn nil() -> Datum {
        Datum::List(Vec::new())
    }

    /// Returns the symbol name if this datum is a symbol.
    ///
    /// ```
    /// # use sct_sexpr::Datum;
    /// assert_eq!(Datum::sym("x").as_sym(), Some("x"));
    /// assert_eq!(Datum::Int(3).as_sym(), None);
    /// ```
    pub fn as_sym(&self) -> Option<&str> {
        match self {
            Datum::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the elements if this datum is a proper list.
    pub fn as_list(&self) -> Option<&[Datum]> {
        match self {
            Datum::List(items) => Some(items),
            _ => None,
        }
    }

    /// True when this is the empty list.
    pub fn is_nil(&self) -> bool {
        matches!(self, Datum::List(items) if items.is_empty())
    }

    /// True when this proper list starts with the given symbol, e.g.
    /// `(define ...)` for `head_is("define")`.
    ///
    /// ```
    /// # use sct_sexpr::{parse_one};
    /// let d = parse_one("(define (f x) x)").unwrap();
    /// assert!(d.head_is("define"));
    /// assert!(!d.head_is("lambda"));
    /// ```
    pub fn head_is(&self, name: &str) -> bool {
        match self {
            Datum::List(items) => items.first().and_then(Datum::as_sym) == Some(name),
            _ => false,
        }
    }

    /// Total number of atoms and list nodes in the tree; a cheap size proxy
    /// used by tests and fuzzers.
    pub fn node_count(&self) -> usize {
        match self {
            Datum::List(items) => 1 + items.iter().map(Datum::node_count).sum::<usize>(),
            Datum::Improper(items, tail) => {
                1 + items.iter().map(Datum::node_count).sum::<usize>() + tail.node_count()
            }
            _ => 1,
        }
    }
}

/// Writes a string in `write` form: double-quoted with escapes.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Writes a character in `write` form (`#\a`, `#\space`, `#\newline`, ...).
fn write_char(f: &mut fmt::Formatter<'_>, c: char) -> fmt::Result {
    match c {
        ' ' => f.write_str("#\\space"),
        '\n' => f.write_str("#\\newline"),
        '\t' => f.write_str("#\\tab"),
        '\r' => f.write_str("#\\return"),
        '\0' => f.write_str("#\\nul"),
        c => write!(f, "#\\{c}"),
    }
}

impl fmt::Display for Datum {
    /// Prints in `write` form, which round-trips through the parser.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Int(n) => write!(f, "{n}"),
            Datum::BigInt(s) => f.write_str(s),
            Datum::Bool(true) => f.write_str("#t"),
            Datum::Bool(false) => f.write_str("#f"),
            Datum::Char(c) => write_char(f, *c),
            Datum::Str(s) => write_string(f, s),
            Datum::Sym(s) => f.write_str(s),
            Datum::List(items) => {
                f.write_str("(")?;
                for (i, d) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{d}")?;
                }
                f.write_str(")")
            }
            Datum::Improper(items, tail) => {
                f.write_str("(")?;
                for (i, d) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, " . {tail})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_atoms() {
        assert_eq!(Datum::Int(-3).to_string(), "-3");
        assert_eq!(Datum::Bool(true).to_string(), "#t");
        assert_eq!(Datum::Bool(false).to_string(), "#f");
        assert_eq!(Datum::Char('x').to_string(), "#\\x");
        assert_eq!(Datum::Char(' ').to_string(), "#\\space");
        assert_eq!(Datum::Char('\n').to_string(), "#\\newline");
        assert_eq!(Datum::Str("a\"b\\c".into()).to_string(), "\"a\\\"b\\\\c\"");
        assert_eq!(Datum::sym("hello").to_string(), "hello");
        assert_eq!(
            Datum::BigInt("123456789012345678901234567890".into()).to_string(),
            "123456789012345678901234567890"
        );
    }

    #[test]
    fn display_lists() {
        let d = Datum::list(vec![
            Datum::sym("cons"),
            Datum::Int(1),
            Datum::list(vec![Datum::sym("quote"), Datum::nil()]),
        ]);
        assert_eq!(d.to_string(), "(cons 1 (quote ()))");
        let imp = Datum::Improper(vec![Datum::Int(1), Datum::Int(2)], Box::new(Datum::Int(3)));
        assert_eq!(imp.to_string(), "(1 2 . 3)");
    }

    #[test]
    fn helpers() {
        assert!(Datum::nil().is_nil());
        assert!(!Datum::Int(0).is_nil());
        assert_eq!(Datum::list(vec![Datum::Int(1)]).as_list().unwrap().len(), 1);
        assert_eq!(Datum::Int(1).as_list(), None);
        let d = Datum::list(vec![Datum::sym("a"), Datum::sym("b")]);
        assert_eq!(d.node_count(), 3);
    }
}
