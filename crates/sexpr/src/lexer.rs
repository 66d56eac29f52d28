//! Tokenizer for the Scheme-subset lexical syntax.

use crate::Pos;

/// A lexical token paired with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token's kind and payload.
    pub kind: TokenKind,
    /// Position of the token's first character.
    pub pos: Pos,
}

/// The kinds of token the reader understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// `(` or `[`.
    Open(char),
    /// `)` or `]`.
    Close(char),
    /// `'`
    Quote,
    /// `` ` ``
    Quasiquote,
    /// `,`
    Unquote,
    /// `,@`
    UnquoteSplicing,
    /// `.` used in dotted pairs.
    Dot,
    /// `#;` — comments out the following datum.
    DatumComment,
    /// An integer that fits in `i64`.
    Int(i64),
    /// An integer literal wider than `i64`, kept as text.
    BigInt(String),
    /// `#t` / `#f`.
    Bool(bool),
    /// A character literal.
    Char(char),
    /// A string literal (already unescaped).
    Str(String),
    /// A symbol.
    Sym(String),
}

/// A token as the reader consumes it: a symbol stays a slice of the
/// source text for the reader to intern, so reading a symbol allocates
/// nothing.
pub(crate) enum Lexeme<'a> {
    /// Any token but a symbol.
    Token(TokenKind),
    /// A symbol's name.
    Sym(&'a str),
}

/// Errors produced while tokenizing; converted into
/// [`ParseError`](crate::ParseError) by the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description, lowercase per convention.
    pub message: String,
    /// Where the problem was found.
    pub pos: Pos,
}

/// A streaming tokenizer over source text.
///
/// # Examples
///
/// ```
/// use sct_sexpr::{Lexer, TokenKind};
///
/// let toks: Vec<_> = Lexer::new("(+ 1 2)").collect::<Result<_, _>>().unwrap();
/// assert_eq!(toks.len(), 5);
/// assert_eq!(toks[1].kind, TokenKind::Sym("+".into()));
/// ```
pub struct Lexer<'a> {
    src: &'a [u8],
    text: &'a str,
    at: usize,
    pos: Pos,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `text`.
    pub fn new(text: &'a str) -> Lexer<'a> {
        Lexer {
            src: text.as_bytes(),
            text,
            at: 0,
            pos: Pos::start(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.at).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.at + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.at += 1;
        if b == b'\n' {
            self.pos.line += 1;
            self.pos.col = 1;
        } else {
            self.pos.col += 1;
        }
        Some(b)
    }

    fn err(&self, pos: Pos, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            pos,
        }
    }

    /// Skips whitespace, `;` line comments and `#| ... |#` block comments
    /// (which nest, as in Racket).
    fn skip_atmosphere(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(b) if (b as char).is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b';') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'#') if self.peek2() == Some(b'|') => {
                    let start = self.pos;
                    self.bump();
                    self.bump();
                    let mut depth = 1usize;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'|'), Some(b'#')) => {
                                self.bump();
                                self.bump();
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            (Some(b'#'), Some(b'|')) => {
                                self.bump();
                                self.bump();
                                depth += 1;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(self.err(start, "unterminated block comment"));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn is_delimiter(b: u8) -> bool {
        (b as char).is_ascii_whitespace() || matches!(b, b'(' | b')' | b'[' | b']' | b'"' | b';')
    }

    fn read_string(&mut self, start: Pos) -> Result<TokenKind, LexError> {
        // Opening quote already consumed.
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err(start, "unterminated string literal")),
                Some(b'"') => return Ok(TokenKind::Str(out)),
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'0') => out.push('\0'),
                    Some(other) => {
                        return Err(self.err(
                            self.pos,
                            format!("unknown string escape \\{}", other as char),
                        ))
                    }
                    None => return Err(self.err(start, "unterminated string literal")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(_) => {
                    // Re-decode the multibyte char from the text.
                    let back = self.at - 1;
                    let ch = self.text[back..].chars().next().unwrap();
                    for _ in 1..ch.len_utf8() {
                        self.bump();
                    }
                    out.push(ch);
                }
            }
        }
    }

    fn read_hash(&mut self, start: Pos) -> Result<TokenKind, LexError> {
        // '#' already consumed.
        match self.bump() {
            Some(b't') => Ok(TokenKind::Bool(true)),
            Some(b'f') => Ok(TokenKind::Bool(false)),
            Some(b';') => Ok(TokenKind::DatumComment),
            Some(b'\\') => {
                // Character literal: read one char, then any trailing name letters.
                let first = match self.peek() {
                    None => return Err(self.err(start, "unterminated character literal")),
                    Some(b) if b < 0x80 => {
                        self.bump();
                        b as char
                    }
                    Some(_) => {
                        let ch = self.text[self.at..].chars().next().unwrap();
                        for _ in 0..ch.len_utf8() {
                            self.bump();
                        }
                        ch
                    }
                };
                let mut name = String::new();
                name.push(first);
                while let Some(b) = self.peek() {
                    if b.is_ascii_alphanumeric() || b == b'-' {
                        self.bump();
                        name.push(b as char);
                    } else {
                        break;
                    }
                }
                if name.chars().count() == 1 {
                    Ok(TokenKind::Char(first))
                } else {
                    match name.as_str() {
                        "space" => Ok(TokenKind::Char(' ')),
                        "newline" | "linefeed" => Ok(TokenKind::Char('\n')),
                        "tab" => Ok(TokenKind::Char('\t')),
                        "return" => Ok(TokenKind::Char('\r')),
                        "nul" | "null" => Ok(TokenKind::Char('\0')),
                        other => Err(self.err(start, format!("unknown character name #\\{other}"))),
                    }
                }
            }
            Some(other) => Err(self.err(start, format!("unknown # syntax #{}", other as char))),
            None => Err(self.err(start, "unexpected end of input after #")),
        }
    }

    fn read_atom(&mut self) -> Lexeme<'a> {
        let begin = self.at;
        while let Some(b) = self.peek() {
            if Self::is_delimiter(b) {
                break;
            }
            self.bump();
        }
        let text: &'a str = &self.text[begin..self.at];
        match classify_atom(text) {
            Some(kind) => Lexeme::Token(kind),
            None => Lexeme::Sym(text),
        }
    }

    /// Produces the next token, or `None` at end of input.
    #[allow(clippy::should_implement_trait)]
    pub fn next_token(&mut self) -> Result<Option<Token>, LexError> {
        Ok(self.next_lexeme()?.map(|(lexeme, pos)| {
            let kind = match lexeme {
                Lexeme::Token(kind) => kind,
                Lexeme::Sym(name) => TokenKind::Sym(name.to_string()),
            };
            Token { kind, pos }
        }))
    }

    /// The next token and its position, or `None` at end of input.
    pub(crate) fn next_lexeme(&mut self) -> Result<Option<(Lexeme<'a>, Pos)>, LexError> {
        self.skip_atmosphere()?;
        let pos = self.pos;
        let Some(b) = self.peek() else {
            return Ok(None);
        };
        let kind = match b {
            b'(' | b'[' => {
                self.bump();
                TokenKind::Open(b as char)
            }
            b')' | b']' => {
                self.bump();
                TokenKind::Close(b as char)
            }
            b'\'' => {
                self.bump();
                TokenKind::Quote
            }
            b'`' => {
                self.bump();
                TokenKind::Quasiquote
            }
            b',' => {
                self.bump();
                if self.peek() == Some(b'@') {
                    self.bump();
                    TokenKind::UnquoteSplicing
                } else {
                    TokenKind::Unquote
                }
            }
            b'"' => {
                self.bump();
                self.read_string(pos)?
            }
            b'#' => {
                self.bump();
                self.read_hash(pos)?
            }
            _ => return Ok(Some((self.read_atom(), pos))),
        };
        Ok(Some((Lexeme::Token(kind), pos)))
    }
}

/// Decides whether a bare atom is a number or a dot; `None` means it is a
/// symbol.
fn classify_atom(text: &str) -> Option<TokenKind> {
    if text == "." {
        return Some(TokenKind::Dot);
    }
    let body = text.strip_prefix(['+', '-']).unwrap_or(text);
    if !body.is_empty() && body.bytes().all(|b| b.is_ascii_digit()) {
        Some(match text.parse::<i64>() {
            Ok(n) => TokenKind::Int(n),
            Err(_) => TokenKind::BigInt(text.to_string()),
        })
    } else {
        None
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token, LexError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_token().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn numbers_and_symbols() {
        assert_eq!(kinds("42"), vec![TokenKind::Int(42)]);
        assert_eq!(kinds("-7"), vec![TokenKind::Int(-7)]);
        assert_eq!(kinds("+3"), vec![TokenKind::Int(3)]);
        assert_eq!(kinds("+"), vec![TokenKind::Sym("+".into())]);
        assert_eq!(kinds("-"), vec![TokenKind::Sym("-".into())]);
        assert_eq!(kinds("a->b"), vec![TokenKind::Sym("a->b".into())]);
        assert_eq!(
            kinds("list->vector"),
            vec![TokenKind::Sym("list->vector".into())]
        );
        assert_eq!(
            kinds("99999999999999999999999"),
            vec![TokenKind::BigInt("99999999999999999999999".into())]
        );
    }

    #[test]
    fn punctuation() {
        assert_eq!(
            kinds("'(a . b)"),
            vec![
                TokenKind::Quote,
                TokenKind::Open('('),
                TokenKind::Sym("a".into()),
                TokenKind::Dot,
                TokenKind::Sym("b".into()),
                TokenKind::Close(')'),
            ]
        );
        assert_eq!(
            kinds("`(,x ,@ys)"),
            vec![
                TokenKind::Quasiquote,
                TokenKind::Open('('),
                TokenKind::Unquote,
                TokenKind::Sym("x".into()),
                TokenKind::UnquoteSplicing,
                TokenKind::Sym("ys".into()),
                TokenKind::Close(')'),
            ]
        );
    }

    #[test]
    fn strings_chars_bools() {
        assert_eq!(
            kinds("#t #f"),
            vec![TokenKind::Bool(true), TokenKind::Bool(false)]
        );
        assert_eq!(kinds("#\\a"), vec![TokenKind::Char('a')]);
        assert_eq!(kinds("#\\space"), vec![TokenKind::Char(' ')]);
        assert_eq!(kinds("#\\newline"), vec![TokenKind::Char('\n')]);
        assert_eq!(kinds("#\\("), vec![TokenKind::Char('(')]);
        assert_eq!(kinds(r#""a\nb""#), vec![TokenKind::Str("a\nb".into())]);
        assert_eq!(
            kinds(r#""say \"hi\"""#),
            vec![TokenKind::Str("say \"hi\"".into())]
        );
    }

    #[test]
    fn comments() {
        assert_eq!(kinds("; nothing\n1"), vec![TokenKind::Int(1)]);
        assert_eq!(kinds("#| block #| nested |# |# 2"), vec![TokenKind::Int(2)]);
        assert_eq!(kinds("#;"), vec![TokenKind::DatumComment]);
    }

    #[test]
    fn errors() {
        assert!(Lexer::new("\"unterminated")
            .collect::<Result<Vec<_>, _>>()
            .is_err());
        assert!(Lexer::new("#| open")
            .collect::<Result<Vec<_>, _>>()
            .is_err());
        assert!(Lexer::new("#q").collect::<Result<Vec<_>, _>>().is_err());
        assert!(Lexer::new("#\\badname")
            .collect::<Result<Vec<_>, _>>()
            .is_err());
    }

    #[test]
    fn positions_track_lines() {
        let toks: Vec<_> = Lexer::new("a\n  b").collect::<Result<Vec<_>, _>>().unwrap();
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(kinds("\"héllo\""), vec![TokenKind::Str("héllo".into())]);
    }
}
