//! The one JSON-lines codec (std only — the workspace has no serde):
//! every checkpoint, journal, wire and verdict line is read and written
//! here. [`Obj`] reads one object, [`esc`] and [`array`] write, and
//! [`Log`] is the locked, replayed file that campaign checkpoints and
//! the `minnetd` journal both are. Fixed layouts stay `format!` calls at
//! their call sites, so each pinned byte layout is visible where it is
//! written. Readers accept any JSON whitespace and key order and ignore
//! unknown keys.

use std::fmt::{self, Write as _};
use std::fs::{File, TryLockError};
use std::io::{Read, Write};
use std::path::Path;
use std::str::Chars;

/// Most members one object may have. The largest object written is a
/// checkpointed report, with 20 keys; an object with more is malformed.
pub const MAX_MEMBERS: usize = 32;

/// The top level of one JSON object: at most [`MAX_MEMBERS`] `(key, raw
/// value)` pairs borrowed from the parsed text, in a fixed array —
/// nothing the reader allocates grows with the line. A getter looks
/// among this object's own members only, comparing keys as written.
#[derive(Clone, Debug)]
pub struct Obj<'a> {
    members: [(&'a str, &'a str); MAX_MEMBERS],
    len: usize,
}

impl<'a> Obj<'a> {
    /// Parse `text`, whitespace around it allowed, as one object in one
    /// pass over its top level: strings, numbers and literals validated,
    /// nested values skipped ([`skip_nested`]); `None` if malformed.
    pub fn parse(text: &'a str) -> Option<Obj<'a>> {
        let b = text.as_bytes();
        let mut obj = Obj {
            members: [("", ""); MAX_MEMBERS],
            len: 0,
        };
        let mut at = ws(b, 0);
        if b.get(at) != Some(&b'{') {
            return None;
        }
        at = ws(b, at + 1);
        if b.get(at) != Some(&b'}') {
            loop {
                let key_end = string(text, at)?;
                let key = &text[at + 1..key_end - 1];
                at = ws(b, key_end);
                if b.get(at) != Some(&b':') {
                    return None;
                }
                let start = ws(b, at + 1);
                let end = value(text, start)?;
                *obj.members.get_mut(obj.len)? = (key, &text[start..end]);
                obj.len += 1;
                at = ws(b, end);
                match b.get(at)? {
                    b',' => at = ws(b, at + 1),
                    b'}' => break,
                    _ => return None,
                }
            }
        }
        (ws(b, at + 1) == b.len()).then_some(obj)
    }

    /// The exact bytes of `key`'s value.
    pub fn raw(&self, key: &str) -> Option<&'a str> {
        self.members[..self.len].iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// `key`'s value as an unsigned integer.
    pub fn u64(&self, key: &str) -> Option<u64> {
        digits(self.raw(key)?)
    }

    /// `key`'s value as a boolean.
    pub fn bool(&self, key: &str) -> Option<bool> {
        self.raw(key)?.parse().ok()
    }

    /// `key`'s value as a string, unescaped.
    pub fn str(&self, key: &str) -> Option<String> {
        unescape(self.raw(key)?.strip_prefix('"')?.strip_suffix('"')?)
    }

    /// A float written as the quoted decimal of its `f64::to_bits`
    /// pattern, the bitwise-exact encoding of checkpoints and specs.
    pub fn bits(&self, key: &str) -> Option<f64> {
        bits(self.raw(key)?)
    }

    /// An array of [`Obj::bits`]-encoded floats.
    pub fn bits_array(&self, key: &str) -> Option<Vec<f64>> {
        let items = self.raw(key)?.strip_prefix('[')?.strip_suffix(']')?.trim_ascii();
        if items.is_empty() {
            return Some(Vec::new());
        }
        items.split(',').map(|item| bits(item.trim_ascii())).collect()
    }

    /// `key`'s value as an object of its own.
    pub fn obj(&self, key: &str) -> Option<Obj<'a>> {
        Obj::parse(self.raw(key)?)
    }
}

/// A run of ASCII digits as a `u64`.
fn digits(s: &str) -> Option<u64> {
    s.bytes().all(|c| c.is_ascii_digit()).then(|| s.parse().ok())?
}

/// A quoted `f64::to_bits` decimal.
fn bits(raw: &str) -> Option<f64> {
    digits(raw.strip_prefix('"')?.strip_suffix('"')?).map(f64::from_bits)
}

/// The first index at or after `at` that is not JSON whitespace.
fn ws(b: &[u8], at: usize) -> usize {
    at + b[at..].iter().take_while(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r')).count()
}

/// The end of the value starting at `at`.
fn value(text: &str, at: usize) -> Option<usize> {
    match *text.as_bytes().get(at)? {
        b'"' => string(text, at),
        b'{' | b'[' => skip_nested(text.as_bytes(), at),
        b'-' | b'0'..=b'9' => number(text.as_bytes(), at),
        _ => ["true", "false", "null"]
            .iter()
            .find(|w| text[at..].starts_with(*w))
            .map(|w| at + w.len()),
    }
}

/// The end of the object or array starting at `at`, found with a depth
/// counter, not recursion, so no line can overflow a stack. Brackets
/// must pair (one bit a level says which kind is open, 64 levels at
/// most) and a bracket inside a string is text; nothing else is checked
/// until [`Obj::obj`] reads the value. Eight bytes go at a time — the
/// quotes' running parity marks the bytes inside strings — but a word
/// holding a `\`, and the last few bytes, go one at a time.
fn skip_nested(b: &[u8], mut at: usize) -> Option<usize> {
    let (mut arrays, mut depth, mut in_string) = (0u64, 0u32, false);
    // Take one bracket outside a string; `Some(true)` when it closes
    // the value, `None` when it does not pair.
    let mut bracket = |c: u8| match c {
        b'{' | b'[' if depth < 64 => {
            (arrays, depth) = (arrays << 1 | u64::from(c == b'['), depth + 1);
            Some(false)
        }
        b'}' | b']' if depth > 0 && (arrays & 1 == 1) == (c == b']') => {
            (arrays, depth) = (arrays >> 1, depth - 1);
            Some(depth == 0)
        }
        _ => None,
    };
    let is_bracket = |c: u8| matches!(c, b'{' | b'[' | b'}' | b']');
    loop {
        let word = b.get(at..at + 8).map(|w| u64::from_le_bytes(w.try_into().unwrap_or_default()));
        match word {
            Some(v) if flag(v, b'\\') == 0 => {
                let mut inside = flag(v, b'"');
                inside ^= inside << 8;
                inside ^= inside << 16;
                inside ^= inside << 32;
                if in_string {
                    inside ^= FLAGS;
                }
                in_string = inside >> 63 == 1;
                // The brackets, and `Y`, `_`, `y` and DEL, which share
                // their bits and are passed over as the byte loop below
                // passes them.
                let mut outside = flag(v & (ONES * 0xd9), 0x59) & !inside;
                while outside != 0 {
                    let i = at + outside.trailing_zeros() as usize / 8;
                    if is_bracket(b[i]) && bracket(b[i])? {
                        return Some(i + 1);
                    }
                    outside &= outside - 1;
                }
                at += 8;
            }
            _ => {
                let c = *b.get(at)?;
                if in_string {
                    match c {
                        b'"' => in_string = false,
                        b'\\' => at += 1,
                        _ => {}
                    }
                } else if c == b'"' {
                    in_string = true;
                } else if is_bracket(c) && bracket(c)? {
                    return Some(at + 1);
                }
                at += 1;
            }
        }
    }
}

/// `0x01`, and bit 7, in every byte of a word.
const ONES: u64 = 0x0101_0101_0101_0101;
const FLAGS: u64 = ONES * 0x80;

/// Bit 7 set in exactly the bytes of `v` that equal `byte`.
fn flag(v: u64, byte: u8) -> u64 {
    let x = v ^ (ONES * u64::from(byte));
    !(((x & !FLAGS) + !FLAGS) | x | !FLAGS)
}

/// The end of the number starting at `at`, by JSON's grammar: no `+`, no
/// leading zero, digits on both sides of a `.` and after an exponent.
fn number(b: &[u8], at: usize) -> Option<usize> {
    // The end of a non-empty run of digits from `from`.
    let digits = |from: usize| {
        let end = from + b[from..].iter().take_while(|c| c.is_ascii_digit()).count();
        (end > from).then_some(end)
    };
    let start = at + usize::from(b[at] == b'-');
    let mut end = digits(start).filter(|&e| b[start] != b'0' || e == start + 1)?;
    if b.get(end) == Some(&b'.') {
        end = digits(end + 1)?;
    }
    if matches!(b.get(end), Some(b'e' | b'E')) {
        end = digits(end + 1 + usize::from(matches!(b.get(end + 1), Some(b'+' | b'-'))))?;
    }
    Some(end)
}

/// The end of the string whose opening quote is at `at`, past its
/// closing quote: no raw control character and only valid escapes.
fn string(text: &str, at: usize) -> Option<usize> {
    let mut rest = text.get(at..)?.strip_prefix('"')?.chars();
    loop {
        match rest.next()? {
            '"' => return Some(text.len() - rest.as_str().len()),
            '\\' => {
                escape(&mut rest)?;
            }
            c if c < ' ' => return None,
            _ => {}
        }
    }
}

/// The body of a string [`string`] has validated, unescaped.
fn unescape(body: &str) -> Option<String> {
    let mut rest = body.chars();
    let mut out = String::with_capacity(body.len());
    while let Some(c) = rest.next() {
        out.push(if c == '\\' { escape(&mut rest)? } else { c });
    }
    Some(out)
}

/// The character the escape after a `\` stands for. `\u` takes exactly
/// four hex digits, and a surrogate only as a high–low pair.
fn escape(rest: &mut Chars<'_>) -> Option<char> {
    fn hex4(rest: &mut Chars<'_>) -> Option<u32> {
        let digits = rest.as_str().get(..4).filter(|d| d.bytes().all(|c| c.is_ascii_hexdigit()))?;
        *rest = rest.as_str()[4..].chars();
        u32::from_str_radix(digits, 16).ok()
    }
    Some(match rest.next()? {
        quoted @ ('"' | '\\' | '/') => quoted,
        'b' => '\u{8}',
        'f' => '\u{c}',
        'n' => '\n',
        'r' => '\r',
        't' => '\t',
        'u' => match hex4(rest)? {
            high @ 0xD800..=0xDBFF => {
                *rest = rest.as_str().strip_prefix("\\u")?.chars();
                let low = hex4(rest).filter(|low| (0xDC00..=0xDFFF).contains(low))?;
                char::from_u32(0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00))?
            }
            unit => char::from_u32(unit)?, // a lone low surrogate is no char
        },
        _ => return None,
    })
}

/// `s` as the body of a JSON string — `"`, `\` and control characters
/// escaped — written without an allocation of its own. The one JSON
/// string escaper in the workspace.
pub fn esc(s: &str) -> impl fmt::Display + '_ {
    struct Esc<'a>(&'a str);
    impl fmt::Display for Esc<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for c in self.0.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    '\r' => f.write_str("\\r")?,
                    '\t' => f.write_str("\\t")?,
                    c if c < ' ' => write!(f, "\\u{:04x}", u32::from(c))?,
                    c => f.write_char(c)?,
                }
            }
            Ok(())
        }
    }
    Esc(s)
}

/// Append `[`, each item written by `each`, comma-separated, and `]`.
pub fn array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

/// Open `path` for reading and appending — creating it if absent, never
/// truncating it — take its exclusive lock, and only then read it whole.
/// The file holds the lock until it is dropped, so two processes never
/// interleave appends. The lock is the file's own advisory one
/// ([`File::try_lock`]), which the operating system drops however its
/// holder dies: no lock file, no stale owner to detect.
///
/// # Errors
///
/// `<path> is locked by another live process …` when a writer holds it;
/// otherwise the I/O failure opening, locking or reading it, naming the
/// path.
pub fn open_locked(path: &Path) -> Result<(File, String), String> {
    let shown = path.display();
    let mut file = File::options()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| format!("opening {shown}: {e}"))?;
    file.try_lock().map_err(|e| match e {
        TryLockError::WouldBlock => format!(
            "{shown} is locked by another live process; a second writer would \
             interleave appends — stop the other process or point this one at a \
             different file"
        ),
        TryLockError::Error(e) => format!("locking {shown}: {e}"),
    })?;
    let mut content = String::new();
    file.read_to_string(&mut content).map_err(|e| format!("reading {shown}: {e}"))?;
    Ok((file, content))
}

/// An append-only JSON-lines file whose first line is a header, under
/// its own exclusive lock ([`open_locked`]) for as long as the `Log`
/// lives: one writer, so lines never interleave.
#[derive(Debug)]
pub struct Log {
    file: File,
}

impl Log {
    /// Open (or create) `path`, the `what` (a noun for messages: one
    /// "checkpoint", "journal"), and take its lock. An empty file gets
    /// `header`; an existing one has its header read by `check_header`
    /// and each later line by `parse_line`. An unterminated last line —
    /// all a SIGKILL can tear — is truncated away; a complete line that
    /// is no object, or that `parse_line` refuses, is skipped, kept and
    /// counted. Returns the log and that count.
    ///
    /// # Errors
    ///
    /// The lock or I/O failure, a torn or unreadable header, or
    /// `check_header`'s refusal, each naming `what` and `path`.
    pub fn open(
        what: &str,
        path: &Path,
        header: &str,
        check_header: impl FnOnce(&Obj<'_>) -> Result<(), String>,
        mut parse_line: impl FnMut(&Obj<'_>) -> Option<()>,
    ) -> Result<(Log, usize), String> {
        let shown = path.display();
        let (file, content) = open_locked(path)?;
        let mut log = Log { file };
        if content.is_empty() {
            log.append(header.to_string()).map_err(|e| format!("writing {what} {shown}: {e}"))?;
            return Ok((log, 0));
        }
        let mut lines = content.split_inclusive('\n');
        let head = lines.next().filter(|h| h.ends_with('\n'));
        let head = head.ok_or_else(|| format!("{what} {shown}: torn header line"))?;
        let head = Obj::parse(head).ok_or_else(|| format!("{what} {shown}: malformed header"))?;
        check_header(&head).map_err(|e| format!("{what} {shown}: {e}"))?;
        let mut unreadable = 0;
        for line in lines {
            if !line.ends_with('\n') {
                let whole = content.len() - line.len();
                log.file
                    .set_len(whole as u64)
                    .map_err(|e| format!("dropping torn tail of {what} {shown}: {e}"))?;
            } else if !line.trim_ascii().is_empty()
                && Obj::parse(line).and_then(|o| parse_line(&o)).is_none()
            {
                unreadable += 1;
            }
        }
        Ok((log, unreadable))
    }

    /// Append `line` and its newline as one write: the file is
    /// unbuffered, so a kill tears at most the line in flight and never
    /// parts a whole line from its terminator.
    pub fn append(&mut self, mut line: String) -> std::io::Result<()> {
        line.push('\n');
        self.file.write_all(line.as_bytes())
    }
}

/// The header check both logs make: `"v"` must be `reads`.
pub fn check_version(head: &Obj<'_>, reads: u64) -> Result<(), String> {
    match head.u64("v") {
        Some(v) if v == reads => Ok(()),
        Some(v) => Err(format!("unsupported version {v} (this build reads {reads})")),
        None => Err("malformed header".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn getters_read_their_own_level_only() {
        let o = Obj::parse(r#"{"op":"wait","x":{"job_id":"inner"},"job_id":"outer","wait_ms":5}"#)
            .unwrap();
        assert_eq!(o.str("job_id").as_deref(), Some("outer"));
        assert_eq!(o.obj("x").unwrap().str("job_id").as_deref(), Some("inner"));
        assert_eq!(o.u64("wait_ms"), Some(5));
        assert_eq!(o.raw("x"), Some(r#"{"job_id":"inner"}"#));
    }

    #[test]
    fn escapes_are_validated_and_decoded() {
        let o = Obj::parse(r#"{"a":"\ud83d\ude00","b":"\u00e9\n\/","\u006b":1}"#).unwrap();
        assert_eq!(o.str("a").as_deref(), Some("😀"));
        assert_eq!(o.str("b").as_deref(), Some("é\n/"));
        assert_eq!(o.u64("\\u006b"), Some(1), "keys are compared as written");
        for bad in [r#"{"a":"\u+04a"}"#, r#"{"a":"\ud83d"}"#, r#"{"a":"\ude00"}"#, r#"{"a":"\x"}"#]
        {
            assert!(Obj::parse(bad).is_none(), "{bad}");
        }
        assert!(Obj::parse("{\"a\":\"tab\there\"}").is_none(), "a raw control character");
    }

    #[test]
    fn numbers_and_literals_follow_the_grammar() {
        for good in ["0", "-1.5e+3", "12", "true", "false", "null"] {
            assert!(Obj::parse(&format!("{{\"a\":{good}}}")).is_some(), "{good}");
        }
        for bad in ["01", "+1", "1.", ".5", "1e", "-", "tru", "nul"] {
            assert!(Obj::parse(&format!("{{\"a\":{bad}}}")).is_none(), "{bad}");
        }
        let o = Obj::parse(r#"{"a":-1,"b":1.0,"c":18446744073709551616}"#).unwrap();
        assert_eq!((o.u64("a"), o.u64("b"), o.u64("c")), (None, None, None));
    }

    #[test]
    fn structure_is_checked() {
        let bad = ["", "[]", "{", "{}x", r#"{"a":[}"#, r#"{"a":1,}"#, r#"{"a" 1}"#];
        for bad in bad.into_iter().chain([r#"{"a":1 "b":2}"#]) {
            assert!(Obj::parse(bad).is_none(), "{bad:?}");
        }
        assert!(Obj::parse(" { } \n").is_some());
        let o = Obj::parse(r#"{ "a" : [ "1" , "2" ] , "b":"]" }"#).unwrap();
        assert_eq!(o.bits_array("a"), Some(vec![f64::from_bits(1), f64::from_bits(2)]));
        assert_eq!(o.str("b").as_deref(), Some("]"));
    }

    #[test]
    fn a_nested_value_gets_one_answer_at_every_length() {
        // Skipping checks brackets and strings only, whether a byte is
        // read one at a time or in a word of eight.
        for pad in 0..16 {
            let tail = ",1".repeat(pad);
            for inner in ["y", "Y", "_", "\u{7f}", "1"] {
                let line = format!("{{\"a\":[{inner}{tail}],\"b\":2}}");
                assert_eq!(Obj::parse(&line).and_then(|o| o.u64("b")), Some(2), "{line}");
            }
            for bad in ["[}", "{]", "[[]", "\"]"] {
                assert!(Obj::parse(&format!("{{\"a\":[{tail}{bad}}}")).is_none(), "{bad} {pad}");
            }
        }
    }

    #[test]
    fn escaper_writes_the_pinned_bytes() {
        let escaped = esc("a\"b\\c\nd\re\tf\u{1}g\u{7f}é").to_string();
        assert_eq!(escaped, "a\\\"b\\\\c\\nd\\re\\tf\\u0001g\u{7f}é");
        let mut out = String::new();
        array(&mut out, [1, 2, 3], |s, i| s.push_str(&i.to_string()));
        array(&mut out, std::iter::empty::<u8>(), |_, _| {});
        assert_eq!(out, "[1,2,3][]");
    }

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("minnet_lock_{}_{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn second_open_is_refused_until_the_first_is_dropped() {
        let path = temp("double");
        std::fs::write(&path, "held\n").unwrap();
        let (first, content) = open_locked(&path).unwrap();
        assert_eq!(content, "held\n");
        let err = open_locked(&path).unwrap_err();
        assert!(err.contains("is locked by another live process"), "{err}");
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"held\n", "the refused open touched the file");
        drop(first);
        let (again, _) = open_locked(&path).unwrap();
        drop(again);
        assert!(!path.with_extension("jsonl.lock").exists(), "no sibling lock file");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_missing_file_is_created_empty() {
        let path = temp("fresh");
        let _ = std::fs::remove_file(&path);
        let (_file, content) = open_locked(&path).unwrap();
        assert!(content.is_empty() && path.exists());
        std::fs::remove_file(&path).unwrap();
    }
}
