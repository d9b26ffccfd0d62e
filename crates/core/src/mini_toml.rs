//! The mini-TOML text layer under every hand-written input format of the lab:
//! scenario files (`bsm_engine::ScenarioFile`) and adversary scripts
//! ([`crate::script::Script`]).
//!
//! One reader ([`parse`]), one value tree ([`Value`]), one typed accessor layer
//! ([`Table`]), one writer ([`Writer`], with [`Value`]'s `Display` as the only string
//! escaper) and one error type ([`TomlError`]), so the formats differ only in their
//! schemas. The grammar is exactly what those schemas use (`docs/SCENARIOS.md`,
//! "Syntax", is the reference):
//!
//! * blank lines, full-line `#` comments and `#` comments after a value;
//! * `[name]` and `[[name]]` headers, alone on their line;
//! * `key = value` pairs, keys unique per table; names and keys are bare
//!   (`A-Z a-z 0-9 _ -`);
//! * values: double-quoted strings whose only escapes are `\"` and `\\`;
//!   non-negative integers with no sign and no leading zeros that fit a `u64`;
//!   `true` / `false`; and homogeneous arrays of values, nested at most
//!   [`MAX_DEPTH`] deep, with at most one trailing comma.
//!
//! ```rust
//! use bsm_core::mini_toml::{parse, Value, Writer};
//!
//! let mut doc = parse("name = \"a \\\"b\\\"\"  # comment\n\n[[plan]]\nsizes = [3, 4,]\n").unwrap();
//! assert_eq!(doc.top.req::<String>("name").unwrap(), "a \"b\"");
//! let plan = &mut doc.sections[0];
//! assert_eq!(plan.header, "[[plan]]");
//! assert_eq!(plan.req::<Vec<u64>>("sizes").unwrap(), [3, 4]);
//!
//! let mut out = Writer::default();
//! out.pair("name", "a \"b\"").header("[[plan]]").pair("sizes", Value::from_iter([3u64, 4]));
//! assert_eq!(out.finish(), "name = \"a \\\"b\\\"\"\n\n[[plan]]\nsizes = [3, 4]\n");
//! ```

use std::fmt::{self, Write as _};

/// How deep arrays may nest (`[[1]]` is depth 2); deeper input is an error, so the
/// recursive reader cannot exhaust the stack.
pub const MAX_DEPTH: usize = 8;

/// A line-positioned error of the text layer or of a schema on top of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line of the problem (0: not tied to a line, e.g. a missing
    /// top-level key or an unreadable file).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl TomlError {
    /// An error at `line`.
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        Self { line, message: message.into() }
    }
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            0 => f.write_str(&self.message),
            line => write!(f, "line {line}: {}", self.message),
        }
    }
}

impl std::error::Error for TomlError {}

/// A value: string, non-negative integer, boolean or homogeneous array.
///
/// `Display` renders the canonical text the reader accepts back unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A double-quoted string.
    Str(String),
    /// A non-negative integer.
    Int(u64),
    /// `true` or `false`.
    Bool(bool),
    /// `[a, b, ...]`, every element of the same type.
    Array(Vec<Value>),
}

impl Value {
    /// The type's name in error messages.
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(text) => {
                f.write_char('"')?;
                for c in text.chars() {
                    if matches!(c, '"' | '\\') {
                        f.write_char('\\')?;
                    }
                    f.write_char(c)?;
                }
                f.write_char('"')
            }
            Value::Int(value) => write!(f, "{value}"),
            Value::Bool(value) => write!(f, "{value}"),
            Value::Array(items) => {
                f.write_char('[')?;
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
        }
    }
}

macro_rules! int_into_value {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(value: $t) -> Self {
                Value::Int(value as u64)
            }
        }
    )*};
}

int_into_value!(u8, u16, u32, u64, usize);

impl From<bool> for Value {
    fn from(value: bool) -> Self {
        Value::Bool(value)
    }
}

impl From<&str> for Value {
    fn from(value: &str) -> Self {
        Value::Str(value.to_string())
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// A Rust type a [`Value`] converts into, for the typed accessors of [`Table`].
pub trait FromValue: Sized {
    /// The type as error messages name it, in the singular or plural.
    fn describe(plural: bool) -> String;
    /// Converts `value`, or names the type of the value (or element) that does not fit.
    fn from_value(value: Value) -> Result<Self, &'static str>;
}

macro_rules! scalar_from_value {
    ($($t:ty => $variant:ident, $name:literal;)*) => {$(
        impl FromValue for $t {
            fn describe(plural: bool) -> String {
                if plural { concat!($name, "s") } else { $name }.to_string()
            }
            fn from_value(value: Value) -> Result<Self, &'static str> {
                match value {
                    Value::$variant(value) => Ok(value),
                    other => Err(other.type_name()),
                }
            }
        }
    )*};
}

scalar_from_value! {
    u64 => Int, "integer";
    bool => Bool, "boolean";
    String => Str, "string";
}

impl<T: FromValue> FromValue for Vec<T> {
    fn describe(plural: bool) -> String {
        format!("{} of {}", if plural { "arrays" } else { "array" }, T::describe(true))
    }

    fn from_value(value: Value) -> Result<Self, &'static str> {
        match value {
            Value::Array(items) => items.into_iter().map(T::from_value).collect(),
            other => Err(other.type_name()),
        }
    }
}

/// One table of a [`Document`]: the top-level pairs, or one `[name]` / `[[name]]`
/// section. A schema takes the keys it knows with [`opt`](Self::opt) /
/// [`req`](Self::req), then rejects the rest with [`finish`](Self::finish).
#[derive(Debug)]
pub struct Table {
    /// The header as written (`[grid]`, `[[faults]]`); empty for the top-level pairs.
    pub header: String,
    /// Line of the header (0 for the top-level pairs).
    pub line: usize,
    /// `(key, line, value)` in file order; the value is `None` once taken.
    pairs: Vec<(String, usize, Option<Value>)>,
    /// Every key a schema asked for, in order, for the unknown-key message.
    asked: Vec<&'static str>,
}

impl Table {
    fn new(header: String, line: usize) -> Self {
        Self { header, line, pairs: Vec::new(), asked: Vec::new() }
    }

    /// Takes `key` as a `T`: `None` when absent, an error at its line when the value
    /// has another type.
    ///
    /// # Errors
    ///
    /// `key: expected T, found U` at the key's line.
    pub fn opt<T: FromValue>(&mut self, key: &'static str) -> Result<Option<T>, TomlError> {
        self.asked.push(key);
        let Some((_, line, slot)) = self.pairs.iter_mut().find(|(k, ..)| k == key) else {
            return Ok(None);
        };
        let Some(value) = slot.take() else { return Ok(None) };
        T::from_value(value).map(Some).map_err(|found| {
            TomlError::new(*line, format!("{key}: expected {}, found {found}", T::describe(false)))
        })
    }

    /// Takes the required `key` as a `T`.
    ///
    /// # Errors
    ///
    /// The errors of [`opt`](Self::opt), and `missing required key` at the header
    /// line when the key is absent.
    pub fn req<T: FromValue>(&mut self, key: &'static str) -> Result<T, TomlError> {
        self.opt(key)?
            .ok_or_else(|| TomlError::new(self.line, format!("missing required key {key}")))
    }

    /// An error at `key`'s line, or at the header line when the key is absent.
    pub fn error_at(&self, key: &str, message: impl Into<String>) -> TomlError {
        let line = self.pairs.iter().find(|(k, ..)| k == key).map_or(self.line, |pair| pair.1);
        TomlError::new(line, message)
    }

    /// The keys no accessor has taken, with their lines, in file order.
    pub fn remaining(&self) -> impl Iterator<Item = (&str, usize)> {
        self.pairs
            .iter()
            .filter(|pair| pair.2.is_some())
            .map(|(key, line, _)| (key.as_str(), *line))
    }

    /// Rejects the first key no accessor has taken.
    ///
    /// # Errors
    ///
    /// `unknown [header] key "k" (expected a, b or c)` at that key's line, listing
    /// the keys the schema asked for.
    pub fn finish(&self) -> Result<(), TomlError> {
        let Some((key, line)) = self.remaining().next() else { return Ok(()) };
        let table =
            if self.header.is_empty() { String::new() } else { format!("{} ", self.header) };
        let expected = match self.asked.split_last() {
            Some((last, [])) => last.to_string(),
            Some((last, rest)) => format!("{} or {last}", rest.join(", ")),
            None => "no keys".to_string(),
        };
        Err(TomlError::new(line, format!("unknown {table}key {key:?} (expected {expected})")))
    }
}

/// A parsed file: its top-level pairs and its sections in file order.
#[derive(Debug)]
pub struct Document {
    /// The pairs before the first header.
    pub top: Table,
    /// Every `[name]` / `[[name]]` section, in file order.
    pub sections: Vec<Table>,
}

/// Reads `text` into a [`Document`], rejecting anything outside the grammar and
/// duplicate keys within a table.
///
/// # Errors
///
/// A [`TomlError`] at the first offending line.
pub fn parse(text: &str) -> Result<Document, TomlError> {
    let mut top = Table::new(String::new(), 0);
    let mut sections: Vec<Table> = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        let line = index + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed.starts_with('[') {
            let name = trimmed
                .strip_prefix("[[")
                .and_then(|rest| rest.strip_suffix("]]"))
                .or_else(|| trimmed.strip_prefix('[').and_then(|rest| rest.strip_suffix(']')));
            if !name.is_some_and(is_bare) {
                return Err(TomlError::new(line, format!("malformed table header {trimmed:?}")));
            }
            sections.push(Table::new(trimmed.to_string(), line));
            continue;
        }
        let Some((key, value)) = trimmed.split_once('=').filter(|(key, _)| is_bare(key.trim_end()))
        else {
            return Err(TomlError::new(line, format!("expected `key = value`, found {trimmed:?}")));
        };
        let key = key.trim_end();
        let table = sections.last_mut().unwrap_or(&mut top);
        if table.pairs.iter().any(|(k, ..)| k == key) {
            return Err(TomlError::new(line, format!("duplicate key {key}")));
        }
        let value = Cursor { rest: value, line }.line_value()?;
        table.pairs.push((key.to_string(), line, Some(value)));
    }
    Ok(Document { top, sections })
}

fn is_bare(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// A cursor over the value text of one line.
struct Cursor<'a> {
    rest: &'a str,
    line: usize,
}

impl Cursor<'_> {
    fn error(&self, message: String) -> TomlError {
        TomlError::new(self.line, message)
    }

    fn skip_spaces(&mut self) {
        self.rest = self.rest.trim_start_matches([' ', '\t']);
    }

    /// One value followed by nothing but spaces and an optional comment.
    fn line_value(mut self) -> Result<Value, TomlError> {
        let value = self.value(0)?;
        self.skip_spaces();
        if !(self.rest.is_empty() || self.rest.starts_with('#')) {
            return Err(self.error(format!("unexpected trailing content {:?}", self.rest)));
        }
        Ok(value)
    }

    fn value(&mut self, depth: usize) -> Result<Value, TomlError> {
        self.skip_spaces();
        let rest = self.rest;
        if rest.starts_with('"') {
            self.string()
        } else if rest.starts_with('[') {
            self.array(depth)
        } else if rest.starts_with(|c: char| c.is_ascii_digit()) {
            self.integer()
        } else if let Some(after) = rest.strip_prefix("true") {
            self.rest = after;
            Ok(Value::Bool(true))
        } else if let Some(after) = rest.strip_prefix("false") {
            self.rest = after;
            Ok(Value::Bool(false))
        } else {
            Err(self.error(format!(
                "invalid value {rest:?} (expected a string, integer, boolean or array)"
            )))
        }
    }

    fn string(&mut self) -> Result<Value, TomlError> {
        let mut out = String::new();
        let mut chars = self.rest.char_indices().skip(1); // the opening quote
        while let Some((index, c)) = chars.next() {
            match c {
                '"' => {
                    self.rest = &self.rest[index + 1..];
                    return Ok(Value::Str(out));
                }
                '\\' => match chars.next() {
                    Some((_, escaped @ ('"' | '\\'))) => out.push(escaped),
                    other => {
                        let shown = other.map(|(_, c)| c.to_string()).unwrap_or_default();
                        return Err(self.error(format!("unsupported string escape \\{shown}")));
                    }
                },
                other => out.push(other),
            }
        }
        Err(self.error("unterminated string".to_string()))
    }

    fn integer(&mut self) -> Result<Value, TomlError> {
        let end = self.rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(self.rest.len());
        let digits = &self.rest[..end];
        if digits.len() > 1 && digits.starts_with('0') {
            return Err(self.error(format!("integer {digits} has leading zeros")));
        }
        let value = digits
            .parse::<u64>()
            .map_err(|_| self.error(format!("integer {digits} is out of range")))?;
        self.rest = &self.rest[end..];
        Ok(Value::Int(value))
    }

    fn array(&mut self, depth: usize) -> Result<Value, TomlError> {
        if depth == MAX_DEPTH {
            return Err(self.error(format!("arrays nest deeper than {MAX_DEPTH} levels")));
        }
        self.rest = &self.rest[1..]; // the opening bracket
        let mut items: Vec<Value> = Vec::new();
        loop {
            self.skip_spaces();
            if let Some(rest) = self.rest.strip_prefix(']') {
                self.rest = rest;
                return Ok(Value::Array(items));
            }
            let item = self.value(depth + 1)?;
            if let Some(first) = items.first().filter(|first| first.type_name() != item.type_name())
            {
                return Err(self.error(format!(
                    "mixed array element types: {} and {}",
                    first.type_name(),
                    item.type_name()
                )));
            }
            items.push(item);
            self.skip_spaces();
            // A comma may also end the list: one trailing comma before `]`.
            if let Some(rest) = self.rest.strip_prefix(',') {
                self.rest = rest;
            } else if !self.rest.starts_with(']') {
                return Err(
                    self.error(format!("expected ',' or ']' in array, found {:?}", self.rest))
                );
            }
        }
    }
}

/// Builds canonical text: a blank line before every header except at the start,
/// then one `key = value` line per pair.
#[derive(Debug, Default)]
pub struct Writer(String);

impl Writer {
    /// Starts a section; `header` is written as given (`[grid]`, `[[faults]]`).
    pub fn header(&mut self, header: &str) -> &mut Self {
        if !self.0.is_empty() {
            self.0.push('\n');
        }
        self.0.push_str(header);
        self.0.push('\n');
        self
    }

    /// Writes `key = value`.
    pub fn pair(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        let _ = writeln!(self.0, "{key} = {}", value.into());
        self
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value_of(text: &str) -> Result<Value, TomlError> {
        let mut doc = parse(&format!("v = {text}\n"))?;
        Ok(doc.top.pairs.remove(0).2.expect("untaken"))
    }

    #[test]
    fn values_of_every_type_parse_and_render_back() {
        for text in
            ["\"plain\"", "0", "18446744073709551615", "true", "false", "[]", "[[1, 2], []]"]
        {
            assert_eq!(value_of(text).unwrap().to_string(), text);
        }
        assert_eq!(
            value_of("[\"a\", \"b\",]").unwrap(),
            Value::Array(vec![Value::Str("a".into()), Value::Str("b".into())])
        );
    }

    #[test]
    fn comments_blank_lines_and_trailing_commas_are_tolerated() {
        // Scenario-file shape: header comment, trailing comment, trailing comma.
        let text = "# header\nname = \"x\"  # trailing\n\n[grid]\nsizes = [3, 4,]\n";
        let mut doc = parse(text).unwrap();
        assert_eq!(doc.top.req::<String>("name").unwrap(), "x");
        assert_eq!(doc.sections[0].header, "[grid]");
        assert_eq!(doc.sections[0].line, 4);
        assert_eq!(doc.sections[0].req::<Vec<u64>>("sizes").unwrap(), [3, 4]);
        // Script shape: leading comment and blank line before a canonical script.
        let text = "# frozen by the fuzzer\n\n[script]\nname = \"empty\"\nk = 3\n\
                    topology = \"fully-connected\"\nauth = \"authenticated\"\nt_l = 1\nt_r = 1\n\
                    corrupt_left = [2]\ncorrupt_right = [2]\nseed = 1\n";
        let doc = parse(text).unwrap();
        assert_eq!(doc.sections.len(), 1);
        assert_eq!(doc.sections[0].line, 3);
        assert_eq!(doc.sections[0].remaining().count(), 9);
        // Trailing comments after any value type.
        assert_eq!(value_of("5 # note").unwrap(), Value::Int(5));
        assert_eq!(value_of("true# note").unwrap(), Value::Bool(true));
    }

    #[test]
    fn name_escapes_round_trip_through_the_canonical_form() {
        let mut doc = parse("name = \"quo\\\"te and back\\\\slash\"\n").unwrap();
        let name = doc.top.req::<String>("name").unwrap();
        assert_eq!(name, "quo\"te and back\\slash");
        let mut out = Writer::default();
        out.pair("name", name.as_str());
        let text = out.finish();
        assert_eq!(text, "name = \"quo\\\"te and back\\\\slash\"\n");
        assert_eq!(parse(&text).unwrap().top.req::<String>("name").unwrap(), name);
    }

    #[test]
    fn syntax_errors_are_positioned() {
        for (text, line, needle) in [
            ("a = 1\njust words\n", 2, "expected `key = value`"),
            ("a b = 1\n", 1, "expected `key = value`"),
            ("= 1\n", 1, "expected `key = value`"),
            ("a = 1\n\na = 2\n", 3, "duplicate key a"),
            ("[t\n", 1, "malformed table header"),
            ("[a b]\n", 1, "malformed table header"),
            ("[grid] # c\n", 1, "malformed table header"),
            ("a = 1 extra\n", 1, "trailing content"),
            ("a = [3\n", 1, "expected ',' or ']'"),
            ("a = [1,,]\n", 1, "invalid value"),
            ("a = [,]\n", 1, "invalid value"),
            ("a = [03]\n", 1, "leading zeros"),
            ("a = 007\n", 1, "leading zeros"),
            ("a = +5\n", 1, "invalid value"),
            ("a = -5\n", 1, "invalid value"),
            ("a = 1.5\n", 1, "trailing content"),
            ("a = 18446744073709551616\n", 1, "out of range"),
            ("a = nope\n", 1, "invalid value"),
            ("a = \"unterminated\n", 1, "unterminated string"),
            ("a = \"bad\\q\"\n", 1, "unsupported string escape \\q"),
            ("a = \"x\" \"y\"\n", 1, "trailing content"),
            ("a = [1, \"x\"]\n", 1, "mixed array element types"),
            ("a = [[1], 2]\n", 1, "mixed array element types"),
            ("a = [[[[[[[[[1]]]]]]]]]\n", 1, "nest deeper"),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.message.contains(needle), "{text:?}: {err}");
        }
        assert!(parse("a = [[[[[[[[1]]]]]]]]\n").is_ok(), "depth {MAX_DEPTH} is allowed");
        // Keys are unique per table; repeating a section is the schema's call.
        assert_eq!(parse("[t]\na = 1\n[t]\na = 2\n").unwrap().sections.len(), 2);
    }

    #[test]
    fn typed_accessors_report_missing_wrong_type_and_unknown_keys() {
        let mut doc = parse("[t]\nn = 1\ns = [\"x\"]\nextra = true\nmore = 2\n").unwrap();
        let table = &mut doc.sections[0];
        let err = table.req::<String>("n").unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (2, "n: expected string, found integer"));
        let err = table.opt::<Vec<u64>>("s").unwrap_err();
        assert_eq!(err.message, "s: expected array of integers, found string");
        let err = table.req::<u64>("absent").unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (1, "missing required key absent"));
        assert_eq!(table.error_at("more", "m").line, 5);
        assert_eq!(table.error_at("absent", "m").line, 1);
        let err = table.finish().unwrap_err();
        assert_eq!(err.line, 4);
        assert_eq!(err.message, "unknown [t] key \"extra\" (expected n, s or absent)");
        // An empty array converts to any array type.
        let mut doc = parse("v = []\n").unwrap();
        assert_eq!(doc.top.req::<Vec<String>>("v").unwrap(), Vec::<String>::new());
        assert!(doc.top.finish().is_ok());
    }

    #[test]
    fn errors_render_with_and_without_a_line() {
        assert_eq!(TomlError::new(3, "bad").to_string(), "line 3: bad");
        assert_eq!(TomlError::new(0, "bad").to_string(), "bad");
    }
}
