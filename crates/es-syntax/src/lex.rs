//! The lexer: rc-style quoting, shell operators, adjacency tracking.
//!
//! Notable rules inherited from rc/es:
//!
//! * `'...'` quotes everything; a doubled `''` inside is a literal
//!   quote. There are no double quotes and backslash is not an escape
//!   (except that `\` + newline is a continuation).
//! * `#` starts a comment to end of line.
//! * `=` is special (so `x=foo` lexes as three tokens, which is how
//!   the paper can write `es> x=foo bar`).
//! * Adjacency matters: `$x.c` is an implicit concatenation, so every
//!   token records whether whitespace preceded it.
//! * `~ ! @` are operators when they begin a token (`!cmd`, `!~`);
//!   mid-word they are ordinary characters (`a~b` is one word).

use std::fmt;

/// A redirection operator token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedirOp {
    /// `>[fd]`
    Create(u32),
    /// `>>[fd]`
    Append(u32),
    /// `<[fd]`
    Open(u32),
    /// `>[a=b]`
    Dup(u32, u32),
    /// `>[a=]`
    CloseFd(u32),
    /// `<<[fd]` heredoc
    Here(u32),
}

/// One token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// A word with quoting segments: `(text, quoted)` pairs.
    Word(Vec<(String, bool)>),
    /// `$`
    Dollar,
    /// `$#`
    DollarCount,
    /// `$^`
    DollarFlat,
    /// `$&name`
    Prim(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// newline
    Newline,
    /// `&`
    Amp,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `|[out=in]` (defaults 1=0)
    Pipe(u32, u32),
    /// `!`
    Bang,
    /// `~`
    Tilde,
    /// `@`
    At,
    /// `=`
    Eq,
    /// `^`
    Caret,
    /// `` ` ``
    Backquote,
    /// `<>` (immediately before `{`)
    CmdSub,
    /// A redirection operator.
    Redir(RedirOp),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Word(segs) => {
                let text: String = segs.iter().map(|(t, _)| t.as_str()).collect();
                write!(f, "word `{text}`")
            }
            Tok::Dollar => write!(f, "`$`"),
            Tok::DollarCount => write!(f, "`$#`"),
            Tok::DollarFlat => write!(f, "`$^`"),
            Tok::Prim(n) => write!(f, "`$&{n}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Newline => write!(f, "newline"),
            Tok::Amp => write!(f, "`&`"),
            Tok::AndAnd => write!(f, "`&&`"),
            Tok::OrOr => write!(f, "`||`"),
            Tok::Pipe(..) => write!(f, "`|`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::Tilde => write!(f, "`~`"),
            Tok::At => write!(f, "`@`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Caret => write!(f, "`^`"),
            Tok::Backquote => write!(f, "backquote"),
            Tok::CmdSub => write!(f, "`<>`"),
            Tok::Redir(_) => write!(f, "redirection"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token plus layout information.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Whitespace (or line start) immediately before it?
    pub space_before: bool,
    /// Byte offset in the source (for error messages).
    pub pos: usize,
}

/// Lexer error: a quoting problem, a malformed fd designator, or a
/// character that cannot begin any token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable message.
    pub msg: String,
    /// True if more input could fix it (unterminated quote).
    pub incomplete: bool,
    /// Where the offending construct starts, counted like
    /// [`Token::pos`].
    pub pos: usize,
}

fn lex_err(msg: &str, pos: usize) -> LexError {
    LexError {
        msg: msg.into(),
        incomplete: false,
        pos,
    }
}

const SPECIAL: &str = " \t\n#;&|^$=`'{}()<>!@~\\";

/// True for characters that may appear in plain words.
pub fn is_word_char(c: char) -> bool {
    !SPECIAL.contains(c)
}

/// Splits `src` into tokens. Every iteration of the main loop
/// consumes at least one character or fails, so lexing is linear in
/// the input and always terminates.
pub fn tokens(src: &str) -> Result<Vec<Token>, LexError> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut space = true;
    while i < chars.len() {
        let c = chars[i];
        // Whitespace and comments.
        if c == ' ' || c == '\t' || c == '\r' {
            i += 1;
            space = true;
            continue;
        }
        if c == '\\' && chars.get(i + 1) == Some(&'\n') {
            i += 2;
            space = true;
            continue;
        }
        if c == '#' {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        let pos = i;
        let push = |out: &mut Vec<Token>, tok: Tok, space: bool| {
            out.push(Token { tok, space_before: space, pos });
        };
        match c {
            '\n' => {
                push(&mut out, Tok::Newline, space);
                i += 1;
                space = true;
                continue;
            }
            ';' => {
                push(&mut out, Tok::Semi, space);
                i += 1;
            }
            '(' => {
                push(&mut out, Tok::LParen, space);
                i += 1;
            }
            ')' => {
                push(&mut out, Tok::RParen, space);
                i += 1;
            }
            '{' => {
                push(&mut out, Tok::LBrace, space);
                i += 1;
            }
            '}' => {
                push(&mut out, Tok::RBrace, space);
                i += 1;
            }
            '=' => {
                // A single `=` is the assignment operator; runs like
                // `===` are ordinary words (banner lines in scripts).
                if chars.get(i + 1) == Some(&'=') {
                    let mut text = String::new();
                    while chars.get(i) == Some(&'=') {
                        text.push('=');
                        i += 1;
                    }
                    push(&mut out, Tok::Word(vec![(text, false)]), space);
                } else {
                    push(&mut out, Tok::Eq, space);
                    i += 1;
                }
            }
            '^' => {
                push(&mut out, Tok::Caret, space);
                i += 1;
            }
            '`' => {
                push(&mut out, Tok::Backquote, space);
                i += 1;
            }
            '&' => {
                if chars.get(i + 1) == Some(&'&') {
                    push(&mut out, Tok::AndAnd, space);
                    i += 2;
                } else {
                    push(&mut out, Tok::Amp, space);
                    i += 1;
                }
            }
            '|' => {
                if chars.get(i + 1) == Some(&'|') {
                    push(&mut out, Tok::OrOr, space);
                    i += 2;
                } else if chars.get(i + 1) == Some(&'[') {
                    let (nums, next) = bracket_numbers(&chars, i + 1)?;
                    let (a, b) = match nums {
                        Bracket::One(n) => (n, 0),
                        Bracket::Two(a, b) => (a, b),
                        Bracket::CloseMark(_) => {
                            return Err(lex_err("bad pipe fd designator", pos))
                        }
                    };
                    push(&mut out, Tok::Pipe(a, b), space);
                    i = next;
                } else {
                    push(&mut out, Tok::Pipe(1, 0), space);
                    i += 1;
                }
            }
            '$' => match chars.get(i + 1) {
                Some('#') => {
                    push(&mut out, Tok::DollarCount, space);
                    i += 2;
                }
                Some('^') => {
                    push(&mut out, Tok::DollarFlat, space);
                    i += 2;
                }
                Some('&') => {
                    let mut j = i + 2;
                    let mut name = String::new();
                    while j < chars.len() && is_word_char(chars[j]) {
                        name.push(chars[j]);
                        j += 1;
                    }
                    if name.is_empty() {
                        return Err(lex_err("missing primitive name after $&", pos));
                    }
                    push(&mut out, Tok::Prim(name), space);
                    i = j;
                }
                _ => {
                    push(&mut out, Tok::Dollar, space);
                    i += 1;
                }
            },
            '<' => {
                if chars.get(i + 1) == Some(&'>') {
                    push(&mut out, Tok::CmdSub, space);
                    i += 2;
                } else if chars.get(i + 1) == Some(&'<') {
                    if chars.get(i + 2) == Some(&'[') {
                        let (nums, next) = bracket_numbers(&chars, i + 2)?;
                        let fd = bracket_single(nums, pos)?;
                        push(&mut out, Tok::Redir(RedirOp::Here(fd)), space);
                        i = next;
                    } else {
                        push(&mut out, Tok::Redir(RedirOp::Here(0)), space);
                        i += 2;
                    }
                } else if chars.get(i + 1) == Some(&'[') {
                    let (nums, next) = bracket_numbers(&chars, i + 1)?;
                    let fd = bracket_single(nums, pos)?;
                    push(&mut out, Tok::Redir(RedirOp::Open(fd)), space);
                    i = next;
                } else {
                    push(&mut out, Tok::Redir(RedirOp::Open(0)), space);
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'>') {
                    if chars.get(i + 2) == Some(&'[') {
                        let (nums, next) = bracket_numbers(&chars, i + 2)?;
                        let fd = bracket_single(nums, pos)?;
                        push(&mut out, Tok::Redir(RedirOp::Append(fd)), space);
                        i = next;
                    } else {
                        push(&mut out, Tok::Redir(RedirOp::Append(1)), space);
                        i += 2;
                    }
                } else if chars.get(i + 1) == Some(&'[') {
                    let (nums, next) = bracket_numbers(&chars, i + 1)?;
                    match nums {
                        Bracket::One(fd) => {
                            push(&mut out, Tok::Redir(RedirOp::Create(fd)), space)
                        }
                        Bracket::Two(a, b) => push(&mut out, Tok::Redir(RedirOp::Dup(a, b)), space),
                        Bracket::CloseMark(fd) => {
                            push(&mut out, Tok::Redir(RedirOp::CloseFd(fd)), space)
                        }
                    }
                    i = next;
                } else {
                    push(&mut out, Tok::Redir(RedirOp::Create(1)), space);
                    i += 1;
                }
            }
            '!' | '@' | '~' => {
                // Operators whenever they *begin* a token (`!cmd`,
                // `!~`, `~ subj pat`); mid-word they are plain
                // characters (`a~b`). Quote a leading `~` or `!` to
                // get a literal.
                let tok = match c {
                    '!' => Tok::Bang,
                    '@' => Tok::At,
                    _ => Tok::Tilde,
                };
                push(&mut out, tok, space);
                i += 1;
            }
            _ => {
                let (word, next_i) = lex_word(&chars, i)?;
                if next_i == i {
                    // No arm claims this character and no word can
                    // start with it: only a `\` that does not escape
                    // a newline gets here.
                    return Err(lex_err(
                        &format!("unexpected `{c}` (a backslash only continues a line)"),
                        pos,
                    ));
                }
                push(&mut out, Tok::Word(word), space);
                i = next_i;
            }
        }
        space = false;
    }
    out.push(Token {
        tok: Tok::Eof,
        space_before: true,
        pos: chars.len(),
    });
    Ok(out)
}

enum Bracket {
    One(u32),
    Two(u32, u32),
    CloseMark(u32),
}

/// Parses `[n]`, `[n=m]` or `[n=]` starting at `chars[start] == '['`.
fn bracket_numbers(chars: &[char], start: usize) -> Result<(Bracket, usize), LexError> {
    let mut i = start + 1;
    let mut a = String::new();
    while i < chars.len() && chars[i].is_ascii_digit() {
        a.push(chars[i]);
        i += 1;
    }
    let a: u32 = a.parse().map_err(|_| lex_err("bad fd number", start))?;
    match chars.get(i) {
        Some(']') => Ok((Bracket::One(a), i + 1)),
        Some('=') => {
            i += 1;
            let mut b = String::new();
            while i < chars.len() && chars[i].is_ascii_digit() {
                b.push(chars[i]);
                i += 1;
            }
            if chars.get(i) != Some(&']') {
                return Err(lex_err("unterminated fd designator", start));
            }
            if b.is_empty() {
                Ok((Bracket::CloseMark(a), i + 1))
            } else {
                let b: u32 = b.parse().map_err(|_| lex_err("bad fd number", start))?;
                Ok((Bracket::Two(a, b), i + 1))
            }
        }
        _ => Err(lex_err("unterminated fd designator", start)),
    }
}

fn bracket_single(b: Bracket, pos: usize) -> Result<u32, LexError> {
    match b {
        Bracket::One(n) => Ok(n),
        _ => Err(lex_err("unexpected `=` in fd designator", pos)),
    }
}

/// Lexes one word starting at `chars[start]`, gathering quoted and
/// unquoted segments.
fn lex_word(chars: &[char], start: usize) -> Result<(Vec<(String, bool)>, usize), LexError> {
    let mut segs: Vec<(String, bool)> = Vec::new();
    let mut i = start;
    loop {
        match chars.get(i) {
            Some('\'') => {
                let open = i;
                let mut text = String::new();
                i += 1;
                loop {
                    match chars.get(i) {
                        None => {
                            return Err(LexError {
                                msg: "unterminated quote".into(),
                                incomplete: true,
                                pos: open,
                            })
                        }
                        Some('\'') if chars.get(i + 1) == Some(&'\'') => {
                            text.push('\'');
                            i += 2;
                        }
                        Some('\'') => {
                            i += 1;
                            break;
                        }
                        Some(&c) => {
                            text.push(c);
                            i += 1;
                        }
                    }
                }
                segs.push((text, true));
            }
            Some(&c) if is_word_char(c) || (c == '~' && i != start) || (c == '!' && i != start) || (c == '@' && i != start) => {
                let mut text = String::new();
                while let Some(&c) = chars.get(i) {
                    if is_word_char(c) || ((c == '~' || c == '!' || c == '@') && i != start) {
                        text.push(c);
                        i += 1;
                    } else {
                        break;
                    }
                }
                match segs.last_mut() {
                    Some((prev, false)) => prev.push_str(&text),
                    _ => segs.push((text, false)),
                }
            }
            _ => break,
        }
        // A quote directly adjacent to word chars continues the word.
        match chars.get(i) {
            Some('\'') => continue,
            Some(&c) if is_word_char(c) => continue,
            _ => break,
        }
    }
    Ok((segs, i))
}
