//! The pull decoder: one strict JSON grammar, read straight from the
//! text with no intermediate tree.

use crate::convert::FromJson;
use crate::value::{Json, Number};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// The deepest nesting of arrays and objects a document may have.
///
/// The decoder recurses once per level, so the cap bounds its stack use
/// on hostile input; real design documents nest well under 32 levels.
pub const MAX_DEPTH: usize = 128;

/// A parse or shape error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    pub(crate) fn at(pos: usize, msg: impl Into<String>) -> Self {
        Self {
            msg: format!("{} at byte {pos}", msg.into()),
        }
    }

    /// An error describing a document that parsed but has the wrong shape
    /// for the value being deserialized.
    pub fn shape(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }

    /// The shape error for a required object field that is absent.
    pub fn missing_field(name: &str) -> Self {
        Self::shape(format!("missing field `{name}`"))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON: {}", self.msg)
    }
}

impl Error for JsonError {}

impl Json {
    /// Parses a JSON document into a tree.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input, including trailing
    /// garbage after the document and nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        crate::from_str(text)
    }
}

/// A pull decoder over the text of one JSON document.
///
/// [`FromJson`] impls read their value off the decoder: they
/// [`peek`](Self::peek) at the next byte to learn the value's kind, then
/// read a scalar ([`null`](Self::null), [`bool`](Self::bool),
/// [`number`](Self::number), [`string`](Self::string)) or step through
/// a container ([`object`](Self::object)/[`next_key`](Self::next_key),
/// [`array`](Self::array)/[`next_element`](Self::next_element)).
/// Values nobody asked for are [`skip`](Self::skip)ped, which validates
/// them with the same grammar. Every reader skips leading whitespace.
///
/// Syntax errors carry the byte offset they were found at; shape errors
/// (a valid document of the wrong form) carry none.
/// [`from_str`](crate::from_str) reports the first syntax error of the
/// whole document ahead of any shape error, so a decode reports exactly
/// what parsing to a tree and converting it would.
#[derive(Debug)]
pub struct Decoder<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// Set on entering a container, cleared by its first `next_*` call:
    /// the first member has no `,` before it.
    fresh: bool,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.byte() {
            self.pos += 1;
        }
    }

    fn error(&self, msg: impl Into<String>) -> JsonError {
        JsonError::at(self.pos, msg)
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    /// The first byte of the next value, after whitespace, without
    /// consuming it; `None` at the end of the text.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// The syntax error for a byte that cannot start a value.
    pub(crate) fn not_a_value(&self) -> JsonError {
        self.error("expected a value")
    }

    /// Checks that only whitespace follows the value just read.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters"))
        }
    }

    /// Reads `null`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the next token is not `null`.
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        self.literal("null")
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the next token is neither.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        if self.peek() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// Scans a number, returning where it starts and whether it has a
    /// fraction or exponent.
    #[inline]
    fn scan_number(&mut self) -> Result<(usize, bool), JsonError> {
        self.skip_ws();
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a lone 0, or a nonzero digit followed by digits.
        match self.byte() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.error("expected a digit")),
        }
        let mut is_float = false;
        if self.byte() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.byte(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a fraction digit"));
            }
            self.digits();
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.byte(), Some(b'0'..=b'9')) {
                return Err(self.error("expected an exponent digit"));
            }
            self.digits();
        }
        Ok((start, is_float))
    }

    fn digits(&mut self) {
        while let Some(b'0'..=b'9') = self.byte() {
            self.pos += 1;
        }
    }

    /// Reads a number: an integer that fits is kept exact as
    /// [`Number::Uint`] or [`Number::Int`], anything else is a
    /// [`Number::Float`].
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the next token is not a number.
    #[inline]
    pub fn number(&mut self) -> Result<Number, JsonError> {
        let (start, is_float) = self.scan_number()?;
        let text = &self.text[start..self.pos];
        let float = || {
            text.parse::<f64>()
                .map(Number::Float)
                .map_err(|_| JsonError::at(start, "invalid number"))
        };
        if is_float {
            float()
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map_or_else(|_| float(), |i| Ok(Number::Int(i)))
        } else if text.len() < 20 {
            // At most 19 digits always fits a u64.
            Ok(Number::Uint(
                text.bytes().fold(0, |n, d| n * 10 + u64::from(d - b'0')),
            ))
        } else {
            text.parse::<u64>()
                .map_or_else(|_| float(), |u| Ok(Number::Uint(u)))
        }
    }

    /// Reads a string, borrowed from the text when it has no escapes.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the next token is not a well-formed
    /// string.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        self.expect(b'"')?;
        let start = self.pos;
        self.plain_run();
        match self.byte() {
            Some(b'"') => {
                let s = &self.text[start..self.pos];
                self.pos += 1;
                Ok(Cow::Borrowed(s))
            }
            Some(b'\\') => self.escaped_string(start).map(Cow::Owned),
            Some(_) => Err(self.error("control character in string")),
            None => Err(self.error("unterminated string")),
        }
    }

    /// Steps over string contents up to the next quote, backslash or
    /// control character. Multi-byte UTF-8 never contains an ASCII byte,
    /// so the stop is on a char boundary.
    #[inline]
    fn plain_run(&mut self) {
        self.pos = self.bytes()[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .map_or(self.text.len(), |n| self.pos + n);
    }

    /// The rest of a string from its first escape on; `start` is where
    /// its contents begin.
    fn escaped_string(&mut self, start: usize) -> Result<String, JsonError> {
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.byte() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .byte()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(JsonError::at(self.pos - 1, "unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.error("control character in string")),
                Some(_) => {
                    let run = self.pos;
                    self.plain_run();
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut code: u16 = 0;
        for _ in 0..4 {
            let d = self
                .byte()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.error("expected four hex digits"))?;
            code = code << 4 | d as u16;
            self.pos += 1;
        }
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: a second \uXXXX must follow.
            if self.byte() == Some(b'\\') && self.bytes().get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.error("invalid low surrogate"));
                }
                let c = 0x10000 + ((u32::from(hi) - 0xD800) << 10) + (u32::from(lo) - 0xDC00);
                return char::from_u32(c).ok_or_else(|| self.error("invalid codepoint"));
            }
            return Err(self.error("lone high surrogate"));
        }
        char::from_u32(u32::from(hi)).ok_or_else(|| self.error("invalid codepoint"))
    }

    /// Consumes the opening bracket of a container.
    #[inline]
    fn open(&mut self, bracket: u8) -> Result<(), JsonError> {
        self.skip_ws();
        self.expect(bracket)?;
        if self.depth == MAX_DEPTH {
            return Err(JsonError::at(
                self.pos - 1,
                format!("nesting deeper than {MAX_DEPTH}"),
            ));
        }
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Steps past the `,` before the next member, or past the closing
    /// bracket; returns false at the close.
    #[inline]
    fn next_member(&mut self, close: u8, msg: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        let first = std::mem::take(&mut self.fresh);
        match self.byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.error(msg)),
        }
    }

    pub(crate) fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[')
    }

    pub(crate) fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{')
    }

    /// Enters an array, or fails with the shape error `expected` when the
    /// next value is not one.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the next value is not an array, or it
    /// nests deeper than [`MAX_DEPTH`].
    pub fn array(&mut self, expected: &str) -> Result<(), JsonError> {
        if self.peek() != Some(b'[') {
            return Err(JsonError::shape(expected));
        }
        self.begin_array()
    }

    /// Steps to the next element of the array being read: true when one
    /// follows (read or skip it next), false past the closing `]`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when neither `,` nor `]` follows the
    /// previous element.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        self.next_member(b']', "expected ',' or ']'")
    }

    /// Enters an object, or fails with the shape error `expected` when
    /// the next value is not one.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the next value is not an object, or it
    /// nests deeper than [`MAX_DEPTH`].
    pub fn object(&mut self, expected: &str) -> Result<(), JsonError> {
        if self.peek() != Some(b'{') {
            return Err(JsonError::shape(expected));
        }
        self.begin_object()
    }

    /// Enters the object of a struct whose first field is `first`. When
    /// the next value is not an object, the shape error names that field
    /// and shows the value found.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the next value is not an object, or it
    /// nests deeper than [`MAX_DEPTH`].
    pub fn fields(&mut self, first: &str) -> Result<(), JsonError> {
        if self.peek() != Some(b'{') {
            let found = Json::from_json(self)?;
            return Err(JsonError::shape(format!(
                "expected an object with field `{first}`, found {found:?}"
            )));
        }
        self.begin_object()
    }

    /// Steps to the next member of the object being read: its key, with
    /// the decoder positioned at its value (read or skip it next), or
    /// `None` past the closing `}`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on a malformed member.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.next_member(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads an externally tagged enum value, `{"Tag": body}`: `body`
    /// decodes the value under the tag it is given. `not_object` is the
    /// shape error for a value that is not an object, `not_one_tag` for
    /// an object without exactly one key.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on a malformed or mis-shaped value, or the
    /// error `body` returns.
    pub fn variant<T>(
        &mut self,
        not_object: &str,
        not_one_tag: &str,
        body: impl FnOnce(&mut Self, &str) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        self.object(not_object)?;
        let tag = self
            .next_key()?
            .ok_or_else(|| JsonError::shape(not_one_tag))?;
        let value = body(self, &tag)?;
        match self.next_key()? {
            None => Ok(value),
            Some(_) => Err(JsonError::shape(not_one_tag)),
        }
    }

    /// Validates and steps over the next value, whatever it is.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the value is malformed.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'n') => self.null(),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.scan_number().map(drop),
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
            _ => Err(self.not_a_value()),
        }
    }

    /// Validates and steps over the next value, returning its text — a
    /// document of its own, for values that can only be decoded once a
    /// later member is known.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the value is malformed.
    pub fn raw(&mut self) -> Result<&'a str, JsonError> {
        self.skip_ws();
        let start = self.pos;
        self.skip()?;
        Ok(&self.text[start..self.pos])
    }
}
