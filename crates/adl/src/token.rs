//! Lexer for the Darwin-style ADL.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tok {
    /// `component`
    Component,
    /// `provide`
    Provide,
    /// `require`
    Require,
    /// `inst`
    Inst,
    /// `bind`
    Bind,
    /// `when`
    When,
    /// An identifier (letters, digits, `_`; must start with a letter or `_`).
    Ident(String),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `--` (a binding arrow: requirement -- provision)
    Arrow,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Component => write!(f, "component"),
            Tok::Provide => write!(f, "provide"),
            Tok::Require => write!(f, "require"),
            Tok::Inst => write!(f, "inst"),
            Tok::Bind => write!(f, "bind"),
            Tok::When => write!(f, "when"),
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::Semi => write!(f, ";"),
            Tok::Colon => write!(f, ":"),
            Tok::Dot => write!(f, "."),
            Tok::Comma => write!(f, ","),
            Tok::Arrow => write!(f, "--"),
        }
    }
}

/// A token with its source line (1-based) for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// A lexing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// The offending character.
    pub ch: char,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unexpected character {:?} on line {}", self.ch, self.line)
    }
}

impl std::error::Error for LexError {}

/// Tokenise a source string. `//` comments run to end of line.
///
/// # Errors
/// [`LexError`] on any character outside the language.
pub(crate) fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '/' => {
                chars.next();
                if chars.peek() == Some(&'/') {
                    for c2 in chars.by_ref() {
                        if c2 == '\n' {
                            line += 1;
                            break;
                        }
                    }
                } else {
                    return Err(LexError { ch: '/', line });
                }
            }
            '-' => {
                chars.next();
                if chars.peek() == Some(&'-') {
                    chars.next();
                    out.push(Spanned { tok: Tok::Arrow, line });
                } else {
                    return Err(LexError { ch: '-', line });
                }
            }
            '{' => {
                chars.next();
                out.push(Spanned { tok: Tok::LBrace, line });
            }
            '}' => {
                chars.next();
                out.push(Spanned { tok: Tok::RBrace, line });
            }
            ';' => {
                chars.next();
                out.push(Spanned { tok: Tok::Semi, line });
            }
            ':' => {
                chars.next();
                out.push(Spanned { tok: Tok::Colon, line });
            }
            '.' => {
                chars.next();
                out.push(Spanned { tok: Tok::Dot, line });
            }
            ',' => {
                chars.next();
                out.push(Spanned { tok: Tok::Comma, line });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c2) = chars.peek() {
                    if c2.is_ascii_alphanumeric() || c2 == '_' {
                        s.push(c2);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let tok = match s.as_str() {
                    "component" => Tok::Component,
                    "provide" => Tok::Provide,
                    "require" => Tok::Require,
                    "inst" => Tok::Inst,
                    "bind" => Tok::Bind,
                    "when" => Tok::When,
                    _ => Tok::Ident(s),
                };
                out.push(Spanned { tok, line });
            }
            other => return Err(LexError { ch: other, line }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_keywords_idents_and_symbols() {
        let toks = lex("component A { provide p; require q; }").unwrap();
        let kinds: Vec<Tok> = toks.into_iter().map(|s| s.tok).collect();
        assert_eq!(
            kinds,
            vec![
                Tok::Component,
                Tok::Ident("A".into()),
                Tok::LBrace,
                Tok::Provide,
                Tok::Ident("p".into()),
                Tok::Semi,
                Tok::Require,
                Tok::Ident("q".into()),
                Tok::Semi,
                Tok::RBrace,
            ]
        );
    }

    #[test]
    fn lexes_binding_arrow_and_dotted_refs() {
        let toks = lex("bind a.x -- b.y;").unwrap();
        assert!(toks.iter().any(|s| s.tok == Tok::Arrow));
        assert_eq!(toks.iter().filter(|s| s.tok == Tok::Dot).count(), 2);
    }

    #[test]
    fn comments_and_lines_tracked() {
        let toks = lex("// header\ncomponent A {\n}\n").unwrap();
        assert_eq!(toks[0].line, 2);
        assert_eq!(toks.last().unwrap().line, 3);
    }

    #[test]
    fn single_dash_is_an_error() {
        let err = lex("a - b").unwrap_err();
        assert_eq!(err.ch, '-');
        assert_eq!(err.line, 1);
    }

    #[test]
    fn bad_character_reports_line() {
        let err = lex("component A {\n  $bad\n}").unwrap_err();
        assert_eq!(err.ch, '$');
        assert_eq!(err.line, 2);
    }

    #[test]
    fn empty_source_lexes_to_nothing() {
        assert!(lex("").unwrap().is_empty());
        assert!(lex("   \n\t ").unwrap().is_empty());
    }
}
