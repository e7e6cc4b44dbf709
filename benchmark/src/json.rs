//! The little JSON this benchmark writes: result lines, span files and
//! `BENCHMARK.json`. Writing only — nothing here is parsed back.

use std::fmt::Write;

/// Appends `s` as a JSON string literal.
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` with every digit it was measured with. JSON has no NaN or
/// infinity; a measurement that produced one is a harness bug and prints
/// as `null`, which the result check then rejects.
pub fn number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_numbers() {
        let mut s = String::new();
        string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let mut n = String::new();
        number(&mut n, 1.25);
        n.push(' ');
        number(&mut n, 90123.0);
        n.push(' ');
        number(&mut n, f64::NAN);
        assert_eq!(n, "1.25 90123 null");
    }
}
