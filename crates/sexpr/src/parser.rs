//! Recursive-descent parser from tokens to [`Datum`] trees.

use crate::intern::Interner;
use crate::lexer::{LexError, Lexeme, Lexer, TokenKind};
use crate::{Datum, Pos};
use std::fmt;

/// Error produced when source text is not a well-formed S-expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Lowercase description of the problem.
    pub message: String,
    /// Where the problem was found.
    pub pos: Pos,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            pos: e.pos,
        }
    }
}

/// A pull parser producing one [`Datum`] at a time.
///
/// # Examples
///
/// ```
/// use sct_sexpr::Parser;
///
/// # fn main() -> Result<(), sct_sexpr::ParseError> {
/// let mut p = Parser::new("1 (2 3)");
/// assert_eq!(p.next_datum()?.unwrap().to_string(), "1");
/// assert_eq!(p.next_datum()?.unwrap().to_string(), "(2 3)");
/// assert!(p.next_datum()?.is_none());
/// # Ok(())
/// # }
/// ```
pub struct Parser<'a> {
    lexer: Lexer<'a>,
    /// Every symbol name read so far: each occurrence of a name shares
    /// one allocation.
    symbols: Interner,
    /// The elements read so far of every open list, innermost last. A
    /// list moves its own elements out when it closes, so each list
    /// vector is allocated once, at its exact length.
    items: Vec<Datum>,
}

impl<'a> Parser<'a> {
    /// Creates a parser over `text`.
    pub fn new(text: &'a str) -> Parser<'a> {
        Parser {
            lexer: Lexer::new(text),
            symbols: Interner::default(),
            items: Vec::new(),
        }
    }

    fn next_tok(&mut self) -> Result<Option<(Lexeme<'a>, Pos)>, ParseError> {
        Ok(self.lexer.next_lexeme()?)
    }

    /// Parses the next datum, or returns `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed input: unbalanced parentheses,
    /// mismatched bracket kinds, misplaced dots, or lexical errors.
    pub fn next_datum(&mut self) -> Result<Option<Datum>, ParseError> {
        let Some((lexeme, pos)) = self.next_tok()? else {
            return Ok(None);
        };
        self.datum_from(lexeme, pos).map(Some)
    }

    /// The next datum; `why` is only formatted when there is none.
    fn expect_datum(&mut self, why: impl fmt::Display, pos: Pos) -> Result<Datum, ParseError> {
        match self.next_datum()? {
            Some(d) => Ok(d),
            None => Err(ParseError {
                message: format!("unexpected end of input: {why}"),
                pos,
            }),
        }
    }

    fn datum_from(&mut self, lexeme: Lexeme<'a>, pos: Pos) -> Result<Datum, ParseError> {
        let kind = match lexeme {
            Lexeme::Sym(name) => return Ok(Datum::Sym(self.symbols.intern(name))),
            Lexeme::Token(kind) => kind,
        };
        match kind {
            TokenKind::Int(n) => Ok(Datum::Int(n)),
            TokenKind::BigInt(s) => Ok(Datum::BigInt(s)),
            TokenKind::Bool(b) => Ok(Datum::Bool(b)),
            TokenKind::Char(c) => Ok(Datum::Char(c)),
            TokenKind::Str(s) => Ok(Datum::Str(s)),
            TokenKind::Sym(s) => Ok(Datum::Sym(self.symbols.intern(&s))),
            TokenKind::Quote => self.sugar("quote", pos),
            TokenKind::Quasiquote => self.sugar("quasiquote", pos),
            TokenKind::Unquote => self.sugar("unquote", pos),
            TokenKind::UnquoteSplicing => self.sugar("unquote-splicing", pos),
            TokenKind::DatumComment => {
                // Skip the next datum, then parse the one after it.
                let _ = self.expect_datum("datum expected after #;", pos)?;
                self.expect_datum("datum expected after commented datum", pos)
            }
            TokenKind::Open(open) => self.list(open, pos),
            TokenKind::Close(c) => Err(ParseError {
                message: format!("unexpected {c}"),
                pos,
            }),
            TokenKind::Dot => Err(ParseError {
                message: "unexpected .".into(),
                pos,
            }),
        }
    }

    fn sugar(&mut self, name: &str, pos: Pos) -> Result<Datum, ParseError> {
        let inner = self.expect_datum(format_args!("datum expected after {name}"), pos)?;
        Ok(Datum::List(vec![
            Datum::Sym(self.symbols.intern(name)),
            inner,
        ]))
    }

    fn list(&mut self, open: char, open_pos: Pos) -> Result<Datum, ParseError> {
        let base = self.items.len();
        let list = self.list_items(open, open_pos, base);
        if list.is_err() {
            self.items.truncate(base);
        }
        list
    }

    /// The elements of the open list starting at `base`, followed by
    /// `tail`'s, moved into one vector of their exact length.
    fn close_items(&mut self, base: usize, tail: Vec<Datum>) -> Vec<Datum> {
        let mut items = self.items.split_off(base);
        if !tail.is_empty() {
            items.reserve_exact(tail.len());
            items.extend(tail);
        }
        items
    }

    fn list_items(&mut self, open: char, open_pos: Pos, base: usize) -> Result<Datum, ParseError> {
        let want_close = if open == '(' { ')' } else { ']' };
        loop {
            let Some((lexeme, pos)) = self.next_tok()? else {
                return Err(ParseError {
                    message: format!("unclosed {open}"),
                    pos: open_pos,
                });
            };
            match lexeme {
                Lexeme::Token(TokenKind::Close(c)) => {
                    if c != want_close {
                        return Err(ParseError {
                            message: format!("mismatched {c}: expected {want_close}"),
                            pos,
                        });
                    }
                    return Ok(Datum::List(self.close_items(base, Vec::new())));
                }
                Lexeme::Token(TokenKind::Dot) => {
                    if self.items.len() == base {
                        return Err(ParseError {
                            message: "dot with no preceding datum".into(),
                            pos,
                        });
                    }
                    let tail = self.expect_datum("datum expected after .", pos)?;
                    let Some((close, close_pos)) = self.next_tok()? else {
                        return Err(ParseError {
                            message: format!("unclosed {open}"),
                            pos: open_pos,
                        });
                    };
                    match close {
                        Lexeme::Token(TokenKind::Close(c)) if c == want_close => {}
                        _ => {
                            return Err(ParseError {
                                message: "expected close paren after dotted tail".into(),
                                pos: close_pos,
                            })
                        }
                    }
                    // Normalize: a dotted tail that is itself a list folds in.
                    return Ok(match tail {
                        Datum::List(tail_items) => Datum::List(self.close_items(base, tail_items)),
                        Datum::Improper(mid, end) => {
                            Datum::Improper(self.close_items(base, mid), end)
                        }
                        atom => Datum::Improper(self.close_items(base, Vec::new()), Box::new(atom)),
                    });
                }
                _ => {
                    let d = self.datum_from(lexeme, pos)?;
                    self.items.push(d);
                }
            }
        }
    }
}

/// Parses exactly one datum; trailing input is an error.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, empty input, or trailing junk.
///
/// ```
/// use sct_sexpr::parse_one;
/// assert!(parse_one("(a b)").is_ok());
/// assert!(parse_one("(a b) extra").is_err());
/// assert!(parse_one("").is_err());
/// ```
pub fn parse_one(text: &str) -> Result<Datum, ParseError> {
    let mut p = Parser::new(text);
    let d = p.next_datum()?.ok_or(ParseError {
        message: "empty input".into(),
        pos: Pos::start(),
    })?;
    if let Some(extra) = p.next_datum()? {
        return Err(ParseError {
            message: format!("trailing datum {extra}"),
            pos: Pos::start(),
        });
    }
    Ok(d)
}

/// Parses all data in the text, in order.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input anywhere in the text.
///
/// ```
/// use sct_sexpr::parse_all;
/// let prog = parse_all("(define (f x) x) (f 1)").unwrap();
/// assert_eq!(prog.len(), 2);
/// ```
pub fn parse_all(text: &str) -> Result<Vec<Datum>, ParseError> {
    let mut p = Parser::new(text);
    let mut out = Vec::new();
    while let Some(d) = p.next_datum()? {
        out.push(d);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms() {
        assert_eq!(parse_one("42").unwrap(), Datum::Int(42));
        assert_eq!(parse_one("#t").unwrap(), Datum::Bool(true));
        assert_eq!(parse_one("x").unwrap(), Datum::sym("x"));
    }

    #[test]
    fn nested_lists() {
        let d = parse_one("(a (b c) [d])").unwrap();
        assert_eq!(d.to_string(), "(a (b c) (d))");
    }

    #[test]
    fn quote_sugar() {
        assert_eq!(parse_one("'x").unwrap().to_string(), "(quote x)");
        assert_eq!(
            parse_one("`(a ,b ,@c)").unwrap().to_string(),
            "(quasiquote (a (unquote b) (unquote-splicing c)))"
        );
    }

    #[test]
    fn dotted() {
        assert_eq!(parse_one("(a . b)").unwrap().to_string(), "(a . b)");
        assert_eq!(parse_one("(a b . c)").unwrap().to_string(), "(a b . c)");
        // Dotted list tail normalizes to a proper list.
        assert_eq!(parse_one("(a . (b c))").unwrap().to_string(), "(a b c)");
        assert_eq!(parse_one("(a . (b . c))").unwrap().to_string(), "(a b . c)");
    }

    #[test]
    fn datum_comment() {
        assert_eq!(parse_one("#;(skip me) 5").unwrap(), Datum::Int(5));
        let all = parse_all("1 #;2 3").unwrap();
        assert_eq!(all, vec![Datum::Int(1), Datum::Int(3)]);
    }

    #[test]
    fn bracket_matching() {
        assert!(parse_one("(a]").is_err());
        assert!(parse_one("[a)").is_err());
        assert!(parse_one("(a").is_err());
        assert!(parse_one(")").is_err());
        assert!(parse_one("(. a)").is_err());
        assert!(parse_one("(a . b c)").is_err());
    }

    #[test]
    fn parse_all_many() {
        let prog = parse_all("; a program\n(define x 1)\n(+ x 2)").unwrap();
        assert_eq!(prog.len(), 2);
        assert!(prog[0].head_is("define"));
    }

    #[test]
    fn roundtrip_samples() {
        for src in [
            "(define (ack m n) (cond [(= 0 m) (+ 1 n)] [(= 0 n) (ack (- m 1) 1)] [else (ack (- m 1) (ack m (- n 1)))]))",
            "(quote (1 2 (3 . 4) #\\a \"str\" #t))",
            "((lambda (x) (x x)) (lambda (y) (y y)))",
        ] {
            let d = parse_one(src).unwrap();
            let printed = d.to_string();
            let d2 = parse_one(&printed).unwrap();
            assert_eq!(d, d2, "roundtrip failed for {src}");
        }
    }
}
