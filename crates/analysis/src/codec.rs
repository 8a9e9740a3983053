//! One exact-integer line codec for bulk records.
//!
//! Snapshots and the federation's bulk wire records carry exact state —
//! integer ledgers, token counts, `f64` values as IEEE-754 bit patterns —
//! as one compact JSON object per line, one integer per element.
//! [`LineWriter`] appends such a line straight into a caller-owned byte
//! buffer, and [`LineScanner`] reads it back in a single pass; neither
//! builds a [`Json`] tree per element. Small opaque payloads nested in a
//! record (a scenario document, a driver payload) still go through
//! [`Json`] via [`LineWriter::json`] / [`LineScanner::field_json`].
//!
//! # Format
//!
//! The writer emits compact JSON with no whitespace, byte-identical to
//! rendering the equivalent [`Json`] tree with [`Json::render`], so any
//! JSON reader still reads every record. Integers go through one
//! two-digit-table formatter, which [`Json`]'s own renderer shares.
//!
//! # Field-order rule
//!
//! A record is read in the order it was written: the scanner expects each
//! field by name at its position, and a missing, reordered or extra field
//! is an error. Every error is a [`ScanError`] located at a byte offset of
//! the line. Integers must be exact: fraction and exponent forms, a sign
//! on an unsigned value, and values outside the target type are rejected.
//! Insignificant whitespace between tokens is tolerated.

use crate::json::{value_at, Json};
use std::fmt;

/// `"00" "01" … "99"`: two ASCII digits per entry.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Digits of `u64::MAX`, the longest value the formatter writes.
const MAX_DIGITS: usize = 20;

/// Writes the decimal digits of `value` left-aligned into `buf` and
/// returns how many there are. Eight-digit chunks split off in `u64`
/// arithmetic; each chunk becomes four table pairs in `u32` arithmetic.
#[inline]
fn digits(value: u64, buf: &mut [u8; MAX_DIGITS]) -> usize {
    const CHUNK: u64 = 100_000_000;
    let len = value
        .checked_ilog10()
        .map_or(1, |log| usize::try_from(log).unwrap_or_default() + 1);
    let mut end = len;
    let mut rest = value;
    while rest >= CHUNK {
        let chunk = u32::try_from(rest % CHUNK).unwrap_or_default();
        rest /= CHUNK;
        end -= 8;
        let (high, low) = (chunk / 10_000, chunk % 10_000);
        buf[end..end + 2].copy_from_slice(pair(high / 100));
        buf[end + 2..end + 4].copy_from_slice(pair(high % 100));
        buf[end + 4..end + 6].copy_from_slice(pair(low / 100));
        buf[end + 6..end + 8].copy_from_slice(pair(low % 100));
    }
    let mut rest = u32::try_from(rest).unwrap_or_default();
    while rest >= 100 {
        end -= 2;
        buf[end..end + 2].copy_from_slice(pair(rest % 100));
        rest /= 100;
    }
    if rest >= 10 {
        buf[..2].copy_from_slice(pair(rest));
    } else {
        buf[0] = b'0' + u8::try_from(rest).unwrap_or_default();
    }
    len
}

/// The two ASCII digits of `value` (below 100).
#[inline]
fn pair(value: u32) -> &'static [u8] {
    let at = 2 * usize::try_from(value).unwrap_or_default();
    &DIGIT_PAIRS[at..at + 2]
}

/// Appends the decimal form of `value` to `out`.
#[inline]
fn push_u64(out: &mut Vec<u8>, value: u64) {
    let mut buf = [0u8; MAX_DIGITS];
    let len = digits(value, &mut buf);
    // A fixed-size copy then a truncation: cheaper than a variable-length
    // copy for integers this short.
    let at = out.len();
    out.extend_from_slice(&buf);
    out.truncate(at + len);
}

/// Appends the decimal form of `value` to `out`, with a leading `-` when
/// negative.
#[inline]
fn push_i64(out: &mut Vec<u8>, value: i64) {
    if value < 0 {
        out.push(b'-');
    }
    push_u64(out, value.unsigned_abs());
}

/// Appends the decimal form of `value` to a `String` (the [`Json`]
/// renderer's buffer), through the same formatter.
pub(crate) fn push_int_str(out: &mut String, negative: bool, magnitude: u64) {
    if negative {
        out.push('-');
    }
    let mut buf = [0u8; MAX_DIGITS];
    let len = digits(magnitude, &mut buf);
    out.push_str(std::str::from_utf8(&buf[..len]).unwrap_or_default());
}

/// Appends one record line — a compact JSON object — to a caller-owned
/// buffer. Commas are placed automatically: every value, array or object
/// written after another element (or after a key) is separated correctly.
///
/// ```
/// use lb_analysis::codec::{LineScanner, LineWriter};
///
/// let mut out = Vec::new();
/// let mut w = LineWriter::record(&mut out, "twin");
/// w.key("round").u64(3);
/// w.key("loads").f64s_bits(&[1.0, -0.0]);
/// w.end();
/// let line = std::str::from_utf8(&out).unwrap();
/// assert_eq!(
///     line,
///     r#"{"kind":"twin","round":3,"loads":[4607182418800017408,9223372036854775808]}"#
/// );
///
/// let mut scan = LineScanner::new(line);
/// assert_eq!(scan.kind().unwrap(), "twin");
/// assert_eq!(scan.field_u64("round").unwrap(), 3);
/// let loads = scan.field_f64s_bits("loads").unwrap();
/// assert_eq!(loads[1].to_bits(), (-0.0f64).to_bits());
/// scan.finish().unwrap();
/// ```
pub struct LineWriter<'a> {
    out: &'a mut Vec<u8>,
    /// An element precedes at this nesting level: the next one needs a
    /// comma.
    comma: bool,
}

impl<'a> LineWriter<'a> {
    /// Starts a record line `{"kind":"<kind>"` at the end of `out`.
    pub fn record(out: &'a mut Vec<u8>, kind: &str) -> Self {
        out.extend_from_slice(b"{\"kind\":\"");
        out.extend_from_slice(kind.as_bytes());
        out.push(b'"');
        LineWriter { out, comma: true }
    }

    #[inline]
    fn separate(&mut self) {
        if self.comma {
            self.out.push(b',');
        }
        self.comma = true;
    }

    /// Opens the next field, `"name":`. Names are plain ASCII identifiers;
    /// they are written verbatim.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.separate();
        self.out.push(b'"');
        self.out.extend_from_slice(name.as_bytes());
        self.out.extend_from_slice(b"\":");
        self.comma = false;
        self
    }

    /// Writes an unsigned integer.
    #[inline]
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.separate();
        push_u64(self.out, value);
        self
    }

    /// Writes a signed integer.
    #[inline]
    pub fn i64(&mut self, value: i64) -> &mut Self {
        self.separate();
        push_i64(self.out, value);
        self
    }

    /// Writes an `f64` as its IEEE-754 bit pattern: exact for every value,
    /// negative zero, subnormals and infinities included.
    #[inline]
    pub fn f64_bits(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.separate();
        self.out
            .extend_from_slice(if value { b"true" } else { b"false" });
        self
    }

    /// Writes an unsigned integer, or `null` for `None`.
    pub fn opt_u64(&mut self, value: Option<u64>) -> &mut Self {
        match value {
            Some(value) => self.u64(value),
            None => {
                self.separate();
                self.out.extend_from_slice(b"null");
                self
            }
        }
    }

    /// Writes an opaque [`Json`] value in its compact form.
    pub fn json(&mut self, value: &Json) -> &mut Self {
        self.separate();
        self.out.extend_from_slice(value.render().as_bytes());
        self
    }

    /// Opens a nested array, `[`.
    pub fn open_array(&mut self) -> &mut Self {
        self.separate();
        self.out.push(b'[');
        self.comma = false;
        self
    }

    /// Closes the innermost array, `]`.
    pub fn close_array(&mut self) -> &mut Self {
        self.out.push(b']');
        self.comma = true;
        self
    }

    /// Opens a nested object, `{`; its fields follow via [`key`](Self::key).
    pub fn open_object(&mut self) -> &mut Self {
        self.separate();
        self.out.push(b'{');
        self.comma = false;
        self
    }

    /// Closes the innermost object, `}`.
    pub fn close_object(&mut self) -> &mut Self {
        self.out.push(b'}');
        self.comma = true;
        self
    }

    /// Writes `[a,b,…]` of unsigned integers.
    pub fn u64s(&mut self, values: &[u64]) -> &mut Self {
        self.open_array();
        for &value in values {
            self.u64(value);
        }
        self.close_array()
    }

    /// Writes `[a,b,…]` of signed integers.
    pub fn i64s(&mut self, values: &[i64]) -> &mut Self {
        self.open_array();
        for &value in values {
            self.i64(value);
        }
        self.close_array()
    }

    /// Writes `[a,b,…]` of `f64` bit patterns.
    pub fn f64s_bits(&mut self, values: &[f64]) -> &mut Self {
        self.open_array();
        for &value in values {
            self.f64_bits(value);
        }
        self.close_array()
    }

    /// Writes `[[…],[…],…]`: one row of `N` unsigned integers per item.
    pub fn u64_rows<T, const N: usize>(
        &mut self,
        items: &[T],
        row: impl Fn(&T) -> [u64; N],
    ) -> &mut Self {
        self.open_array();
        for item in items {
            self.u64s(&row(item));
        }
        self.close_array()
    }

    /// Writes `[…]` with `each` writing one element per item.
    pub fn list<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) -> &mut Self {
        self.open_array();
        for item in items {
            each(self, item);
        }
        self.close_array()
    }

    /// Closes the record with `}`. No newline is appended.
    pub fn end(self) {
        self.out.push(b'}');
    }
}

/// A scan failure, located at a byte offset of the scanned line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanError {
    /// 0-based byte offset into the line where the failure was detected.
    pub byte: usize,
    /// What was expected or found there.
    pub reason: String,
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.byte)
    }
}

impl std::error::Error for ScanError {}

/// Names the field an error from reading its value belongs to.
fn in_field<T>(name: &str, result: Result<T, ScanError>) -> Result<T, ScanError> {
    result.map_err(|mut e| {
        e.reason = format!("field {name:?}: {}", e.reason);
        e
    })
}

fn arity(n: usize) -> String {
    match n {
        2 => "pair".to_string(),
        3 => "triple".to_string(),
        4 => "quadruple".to_string(),
        n => format!("{n}-tuple"),
    }
}

/// Reads one record line written by [`LineWriter`], in the writer's field
/// order, in a single pass. See the [module docs](self) for the rules.
///
/// Every reading method fails with a [`ScanError`] located at the
/// offending byte when the line does not hold what it expects; the
/// `field_*` readers name the field in the error.
pub struct LineScanner<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The next element is the first at its nesting level (or the value
    /// after a key): no comma precedes it.
    first: bool,
}

impl<'a> LineScanner<'a> {
    /// A scanner at the start of `line`.
    pub fn new(line: &'a str) -> Self {
        LineScanner {
            bytes: line.as_bytes(),
            pos: 0,
            first: true,
        }
    }

    /// A failure located at the current byte; callers use it for their own
    /// validation of an element they just read.
    pub fn fail(&self, reason: impl Into<String>) -> ScanError {
        ScanError {
            byte: self.pos,
            reason: reason.into(),
        }
    }

    #[inline]
    fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    #[inline]
    fn require(&mut self, token: u8) -> Result<(), ScanError> {
        if self.peek() == Some(token) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(&format!("'{}'", char::from(token))))
        }
    }

    fn expected(&mut self, what: &str) -> ScanError {
        let found = match self.peek() {
            Some(b) => format!("{:?}", char::from(b)),
            None => "the end of the line".to_string(),
        };
        self.fail(format!("expected {what}, found {found}"))
    }

    /// Consumes the comma that separates this element from the previous
    /// one, if one precedes it.
    #[inline]
    fn separate(&mut self) -> Result<(), ScanError> {
        if self.first {
            self.first = false;
            Ok(())
        } else {
            self.require(b',')
        }
    }

    /// A double-quoted string without escapes (record kinds and field
    /// names never need any).
    fn plain_string(&mut self) -> Result<&'a str, ScanError> {
        self.require(b'"')?;
        let start = self.pos;
        let len = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| self.fail("unterminated string"))?;
        self.pos = start + len;
        if self.bytes[self.pos] == b'\\' {
            return Err(self.fail("unsupported escape in a record kind or field name"));
        }
        self.pos += 1;
        std::str::from_utf8(&self.bytes[start..start + len])
            .map_err(|_| self.fail("invalid UTF-8 in string"))
    }

    /// Reads the record opener `{"kind":"<kind>"` and returns the kind.
    pub fn kind(&mut self) -> Result<&'a str, ScanError> {
        self.require(b'{')?;
        let at = self.pos;
        if self.plain_string().ok() != Some("kind") {
            self.pos = at;
            return Err(self.fail("record must lead with its \"kind\" field"));
        }
        self.require(b':')?;
        let kind = self.plain_string()?;
        self.first = false;
        Ok(kind)
    }

    /// Expects the next field, `"name":`.
    pub fn key(&mut self, name: &str) -> Result<(), ScanError> {
        if self.separate().is_err() {
            return Err(self.expected(&format!("field {name:?}")));
        }
        self.peek();
        let at = self.pos;
        match self.plain_string() {
            Ok(found) if found == name => {}
            Ok(found) => {
                return Err(ScanError {
                    byte: at,
                    reason: format!("expected field {name:?}, found field {found:?}"),
                })
            }
            Err(_) => {
                self.pos = at;
                return Err(self.expected(&format!("field {name:?}")));
            }
        }
        self.require(b':')?;
        self.first = true;
        Ok(())
    }

    /// The digits of an exact integer magnitude.
    #[inline]
    fn magnitude(&mut self, what: &str) -> Result<u64, ScanError> {
        let start = self.pos;
        let mut value: u64 = 0;
        // Up to 19 digits cannot overflow a u64; the 20th is checked.
        while let Some(&b) = self.bytes.get(self.pos) {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            if self.pos - start < 19 {
                value = value * 10 + u64::from(digit);
            } else {
                value = value
                    .checked_mul(10)
                    .and_then(|v| v.checked_add(u64::from(digit)))
                    .ok_or_else(|| self.fail(format!("{what} out of range")))?;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.expected(what));
        }
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(ScanError {
                byte: start,
                reason: format!("expected {what}, found a fraction or exponent"),
            });
        }
        Ok(value)
    }

    /// Reads a non-negative exact integer.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ScanError> {
        self.separate()?;
        self.peek();
        self.magnitude("a non-negative exact integer")
    }

    /// Reads an exact integer in the `i64` range.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, ScanError> {
        const WHAT: &str = "an exact integer";
        self.separate()?;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let start = self.pos;
        let magnitude = self.magnitude(WHAT)?;
        let value = if negative {
            0i64.checked_sub_unsigned(magnitude)
        } else {
            i64::try_from(magnitude).ok()
        };
        value.ok_or_else(|| ScanError {
            byte: start,
            reason: format!("{WHAT} out of range for i64"),
        })
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    #[inline]
    fn f64_bits(&mut self) -> Result<f64, ScanError> {
        self.u64().map(f64::from_bits)
    }

    fn literal(&mut self, text: &[u8]) -> bool {
        if self.bytes[self.pos..].starts_with(text) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, ScanError> {
        self.separate()?;
        self.peek();
        if self.literal(b"true") {
            Ok(true)
        } else if self.literal(b"false") {
            Ok(false)
        } else {
            Err(self.expected("a boolean"))
        }
    }

    /// Reads a non-negative exact integer, or `null` as `None`.
    fn opt_u64(&mut self) -> Result<Option<u64>, ScanError> {
        let (at, first) = (self.pos, self.first);
        self.separate()?;
        if self.peek() == Some(b'n') && self.literal(b"null") {
            return Ok(None);
        }
        (self.pos, self.first) = (at, first);
        self.u64().map(Some)
    }

    /// Reads one nested JSON value of any shape as a [`Json`] tree.
    fn json(&mut self) -> Result<Json, ScanError> {
        self.separate()?;
        self.peek();
        let (value, end) = value_at(self.bytes, self.pos).map_err(|e| self.fail(e))?;
        self.pos = end;
        Ok(value)
    }

    /// Opens a nested array, `[`.
    pub fn open_array(&mut self) -> Result<(), ScanError> {
        self.separate()?;
        self.require(b'[')?;
        self.first = true;
        Ok(())
    }

    /// Whether the current array has another element; consumes its `]`
    /// when it has not.
    #[inline]
    fn more(&mut self) -> Result<bool, ScanError> {
        match self.peek() {
            Some(b']') => {
                self.pos += 1;
                self.first = false;
                Ok(false)
            }
            Some(_) => Ok(true),
            None => Err(self.expected("']'")),
        }
    }

    /// Closes the innermost array, `]`.
    pub fn close_array(&mut self) -> Result<(), ScanError> {
        self.require(b']')?;
        self.first = false;
        Ok(())
    }

    /// Opens a nested object, `{`; read its fields with the `field_*`
    /// methods, in order.
    pub fn open_object(&mut self) -> Result<(), ScanError> {
        self.separate()?;
        self.require(b'{')?;
        self.first = true;
        Ok(())
    }

    /// Closes the innermost object, `}`.
    pub fn close_object(&mut self) -> Result<(), ScanError> {
        self.require(b'}')?;
        self.first = false;
        Ok(())
    }

    /// Reads `[a,b,…]` into a vector, one `read` per element.
    fn array_of<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, ScanError>,
    ) -> Result<Vec<T>, ScanError> {
        self.open_array()?;
        let mut out = Vec::new();
        while self.more()? {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Reads one row of exactly `N` non-negative exact integers.
    fn u64_row<const N: usize>(&mut self) -> Result<[u64; N], ScanError> {
        let read = |scan: &mut Self| -> Result<[u64; N], ScanError> {
            scan.open_array()?;
            let mut row = [0u64; N];
            for slot in &mut row {
                *slot = scan.u64()?;
            }
            scan.close_array()?;
            Ok(row)
        };
        read(self).map_err(|mut e| {
            e.reason = format!("expected a {} of exact integers: {}", arity(N), e.reason);
            e
        })
    }

    /// Reads the field `name` as a non-negative exact integer.
    pub fn field_u64(&mut self, name: &str) -> Result<u64, ScanError> {
        self.key(name)?;
        in_field(name, self.u64())
    }

    /// Reads the field `name` as an `f64` bit pattern.
    pub fn field_f64_bits(&mut self, name: &str) -> Result<f64, ScanError> {
        self.key(name)?;
        in_field(name, self.f64_bits())
    }

    /// Reads the field `name` as a boolean.
    pub fn field_bool(&mut self, name: &str) -> Result<bool, ScanError> {
        self.key(name)?;
        in_field(name, self.bool())
    }

    /// Reads the field `name` as an integer or `null`.
    pub fn field_opt_u64(&mut self, name: &str) -> Result<Option<u64>, ScanError> {
        self.key(name)?;
        in_field(name, self.opt_u64())
    }

    /// Reads the field `name` as an opaque [`Json`] value.
    pub fn field_json(&mut self, name: &str) -> Result<Json, ScanError> {
        self.key(name)?;
        in_field(name, self.json())
    }

    /// Reads the field `name` as an array of non-negative exact integers.
    pub fn field_u64s(&mut self, name: &str) -> Result<Vec<u64>, ScanError> {
        self.key(name)?;
        in_field(name, self.array_of(Self::u64))
    }

    /// Reads the field `name` as an array of `i64` integers.
    pub fn field_i64s(&mut self, name: &str) -> Result<Vec<i64>, ScanError> {
        self.key(name)?;
        in_field(name, self.array_of(Self::i64))
    }

    /// Reads the field `name` as an array of `f64` bit patterns.
    pub fn field_f64s_bits(&mut self, name: &str) -> Result<Vec<f64>, ScanError> {
        self.key(name)?;
        in_field(name, self.array_of(Self::f64_bits))
    }

    /// Reads the field `name` as an array of `N`-integer rows, each mapped
    /// through `make`.
    pub fn field_u64_rows<T, const N: usize>(
        &mut self,
        name: &str,
        make: impl Fn([u64; N]) -> T,
    ) -> Result<Vec<T>, ScanError> {
        self.key(name)?;
        in_field(name, self.array_of(|scan| scan.u64_row().map(&make)))
    }

    /// Reads the field `name` as an array whose elements `read` parses one
    /// at a time (it must consume exactly one element).
    pub fn field_list<T>(
        &mut self,
        name: &str,
        read: impl FnMut(&mut Self) -> Result<T, ScanError>,
    ) -> Result<Vec<T>, ScanError> {
        self.key(name)?;
        in_field(name, self.array_of(read))
    }

    /// Closes the record: expects its `}` and then the end of the line.
    pub fn finish(&mut self) -> Result<(), ScanError> {
        if self.peek() == Some(b',') {
            return Err(self.fail("unexpected field after the record's last field"));
        }
        self.require(b'}')?;
        if self.peek().is_some() {
            return Err(self.fail("unexpected trailing content after the record"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digits(value: u64) -> String {
        let mut out = Vec::new();
        push_u64(&mut out, value);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn the_formatter_matches_display_at_every_width() {
        let mut probes = vec![0u64, 1, 9, 10, 99, 100, 999, 1000, 9999, 10_000, u64::MAX];
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            probes.extend([p - 1, p, p + 1, next / 2 + 7]);
            p = next;
        }
        for value in probes {
            assert_eq!(digits(value), value.to_string());
        }
        for value in [0i64, -1, 7, -10, 12_345, i64::MIN, i64::MAX, i64::MIN + 1] {
            let mut out = Vec::new();
            push_i64(&mut out, value);
            assert_eq!(String::from_utf8(out).unwrap(), value.to_string());
        }
    }

    /// The writer's bytes are exactly what rendering the equivalent tree
    /// gives.
    #[test]
    fn the_writer_matches_the_tree_renderer() {
        let mut out = Vec::new();
        let mut w = LineWriter::record(&mut out, "k");
        w.key("a")
            .u64(u64::MAX)
            .key("b")
            .i64(i64::MIN)
            .key("c")
            .bool(true);
        w.key("d")
            .opt_u64(None)
            .key("e")
            .u64s(&[])
            .key("f")
            .f64s_bits(&[-0.0]);
        w.key("g").u64_rows(&[(1u64, 2u64)], |&(a, b)| [a, b]);
        w.key("h")
            .open_object()
            .key("x")
            .i64s(&[-1, 2])
            .close_object();
        w.key("i").list(&[3u64], |w, &v| {
            w.open_array().u64(v).bool(false).close_array();
        });
        w.key("j").json(&Json::obj([("s", Json::from("q\""))]));
        w.end();
        let tree = Json::obj([
            ("kind", Json::from("k")),
            ("a", Json::from(u64::MAX)),
            ("b", Json::from(i64::MIN)),
            ("c", Json::from(true)),
            ("d", Json::Null),
            ("e", Json::Arr(vec![])),
            ("f", Json::Arr(vec![Json::from((-0.0f64).to_bits())])),
            (
                "g",
                Json::Arr(vec![Json::Arr(vec![Json::from(1u64), Json::from(2u64)])]),
            ),
            (
                "h",
                Json::obj([("x", Json::Arr(vec![Json::from(-1i64), Json::from(2i64)]))]),
            ),
            (
                "i",
                Json::Arr(vec![Json::Arr(vec![Json::from(3u64), Json::from(false)])]),
            ),
            ("j", Json::obj([("s", Json::from("q\""))])),
        ]);
        assert_eq!(String::from_utf8(out).unwrap(), tree.render());
    }

    #[test]
    fn the_scanner_reads_what_the_writer_wrote() {
        let line = r#"{"kind":"k","a":18446744073709551615,"b":-9223372036854775808,"c":true,"d":null,"e":[],"g":[[1,2]],"h":{"x":[-1,2]},"j":{"s":[1]}}"#;
        let mut scan = LineScanner::new(line);
        assert_eq!(scan.kind().unwrap(), "k");
        assert_eq!(scan.field_u64("a").unwrap(), u64::MAX);
        scan.key("b").unwrap();
        assert_eq!(scan.i64().unwrap(), i64::MIN);
        assert!(scan.field_bool("c").unwrap());
        assert_eq!(scan.field_opt_u64("d").unwrap(), None);
        assert!(scan.field_u64s("e").unwrap().is_empty());
        assert_eq!(scan.field_u64_rows("g", |[a, b]| (a, b)).unwrap(), [(1, 2)]);
        scan.key("h").unwrap();
        scan.open_object().unwrap();
        assert_eq!(scan.field_i64s("x").unwrap(), [-1, 2]);
        scan.close_object().unwrap();
        assert_eq!(
            scan.field_json("j").unwrap(),
            Json::obj([("s", Json::Arr(vec![Json::from(1u64)]))])
        );
        scan.finish().unwrap();
    }

    #[test]
    fn whitespace_between_tokens_is_tolerated() {
        let mut scan = LineScanner::new(r#" { "kind" : "k" , "a" : [ 1 , 2 ] , "b" : null } "#);
        assert_eq!(scan.kind().unwrap(), "k");
        assert_eq!(scan.field_u64s("a").unwrap(), [1, 2]);
        assert_eq!(scan.field_opt_u64("b").unwrap(), None);
        scan.finish().unwrap();
        let mut scan = LineScanner::new(r#"{"kind":"k","b":7}"#);
        scan.kind().unwrap();
        assert_eq!(scan.field_opt_u64("b").unwrap(), Some(7));
    }

    fn scan_err(
        line: &str,
        read: impl FnOnce(&mut LineScanner<'_>) -> Result<(), ScanError>,
    ) -> ScanError {
        let mut scan = LineScanner::new(line);
        read(&mut scan).expect_err("the line must not scan")
    }

    #[test]
    fn errors_are_located_and_name_the_problem() {
        let err = scan_err(r#"{"kind":"k","round":0.5}"#, |s| {
            s.kind()?;
            s.field_u64("round").map(drop)
        });
        assert_eq!(err.byte, 20);
        assert!(err.reason.contains("\"round\""), "{err}");
        assert!(err.reason.contains("exact integer"), "{err}");
        assert!(err.to_string().ends_with("at byte 20"), "{err}");

        let err = scan_err(r#"{"kind":"k","b":1}"#, |s| {
            s.kind()?;
            s.field_u64("a").map(drop)
        });
        assert!(err.reason.contains("expected field \"a\""), "{err}");
        assert!(err.reason.contains("found field \"b\""), "{err}");
        assert_eq!(err.byte, 12);

        let err = scan_err(r#"{"round":1}"#, |s| s.kind().map(drop));
        assert!(err.reason.contains("lead with its \"kind\""), "{err}");

        for (line, what) in [
            (r#"{"kind":"k","a":-1}"#, "non-negative"),
            (r#"{"kind":"k","a":18446744073709551616}"#, "out of range"),
            (r#"{"kind":"k","a":1e3}"#, "fraction or exponent"),
            (r#"{"kind":"k","a":"1"}"#, "exact integer"),
        ] {
            let err = scan_err(line, |s| {
                s.kind()?;
                s.field_u64("a").map(drop)
            });
            assert!(err.reason.contains(what), "{line}: {err}");
        }
        let err = scan_err(r#"{"kind":"k","a":9223372036854775808}"#, |s| {
            s.kind()?;
            s.key("a")?;
            s.i64().map(drop)
        });
        assert!(err.reason.contains("out of range for i64"), "{err}");

        let err = scan_err(r#"{"kind":"k","e":[[1]]}"#, |s| {
            s.kind()?;
            s.field_u64_rows("e", |[a, b]| (a, b)).map(drop)
        });
        assert!(err.reason.contains("pair"), "{err}");

        let err = scan_err(r#"{"kind":"k","a":[1,2}"#, |s| {
            s.kind()?;
            s.field_u64s("a").map(drop)
        });
        assert!(err.reason.contains("expected ','"), "{err}");

        for line in [
            r#"{"kind":"k","a":1,"b":2}"#,
            r#"{"kind":"k","a":1} x"#,
            r#"{"kind":"k","a":1"#,
        ] {
            let err = scan_err(line, |s| {
                s.kind()?;
                s.field_u64("a")?;
                s.finish()
            });
            assert!(err.byte >= 17, "{line}: {err}");
        }
    }
}
