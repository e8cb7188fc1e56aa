//! The little JSON and hashing the harness needs: string escaping for
//! what it writes, and the FNV-1a digest the goldens are kept as.

/// Escape `s` for embedding between double quotes in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A float as a JSON number with all its digits (`{:?}` round-trips);
/// non-finite values, which JSON cannot carry, become `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Incremental 64-bit FNV-1a.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("l1\nl2\tx\r"), "l1\\nl2\\tx\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("µs → ok"), "µs → ok");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(3.0), "3.0");
    }

    #[test]
    fn fnv1a_known_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv::new();
            h.update(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }
}
