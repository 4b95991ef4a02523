//! Entity escaping and unescaping for character data and attribute values.
//!
//! Supports the five predefined XML entities (`&lt;`, `&gt;`, `&amp;`,
//! `&apos;`, `&quot;`) and decimal/hexadecimal character references
//! (`&#65;`, `&#x41;`).

/// Escapes `text` for use as element character data.
///
/// Only `<`, `>`, and `&` need escaping in character data.
///
/// ```
/// assert_eq!(xmlite::escape::escape_text("a < b & c"), "a &lt; b &amp; c");
/// ```
pub fn escape_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_text_into(text, &mut out);
    out
}

/// [`escape_text`] appending to `out` instead of allocating.
///
/// ```
/// let mut out = String::from("<a>");
/// xmlite::escape::escape_text_into("x & y", &mut out);
/// assert_eq!(out, "<a>x &amp; y");
/// ```
pub fn escape_text_into(text: &str, out: &mut String) {
    escape_into(text, out, |c| match c {
        '<' => Some("&lt;"),
        '>' => Some("&gt;"),
        '&' => Some("&amp;"),
        _ => None,
    });
}

/// Escapes `value` for use inside a double-quoted attribute value.
///
/// ```
/// assert_eq!(xmlite::escape::escape_attr("say \"hi\""), "say &quot;hi&quot;");
/// ```
pub fn escape_attr(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    escape_attr_into(value, &mut out);
    out
}

/// [`escape_attr`] appending to `out` instead of allocating.
///
/// ```
/// let mut out = String::from("v=\"");
/// xmlite::escape::escape_attr_into("a\"b", &mut out);
/// assert_eq!(out, "v=\"a&quot;b");
/// ```
pub fn escape_attr_into(value: &str, out: &mut String) {
    escape_into(value, out, |c| match c {
        '<' => Some("&lt;"),
        '>' => Some("&gt;"),
        '&' => Some("&amp;"),
        '"' => Some("&quot;"),
        '\'' => Some("&apos;"),
        '\n' => Some("&#10;"),
        '\t' => Some("&#9;"),
        _ => None,
    });
}

/// Appends `raw` to `out`, replacing each character `entity` maps. Runs
/// between special characters are copied whole. The specials are all
/// ASCII and bytes of multi-byte characters are all ≥ 0x80, so a byte
/// that maps is a whole character and its position a char boundary.
fn escape_into(raw: &str, out: &mut String, entity: impl Fn(char) -> Option<&'static str>) {
    let mut start = 0;
    for (i, b) in raw.bytes().enumerate() {
        if let Some(replacement) = entity(char::from(b)) {
            out.push_str(&raw[start..i]);
            out.push_str(replacement);
            start = i + 1;
        }
    }
    out.push_str(&raw[start..]);
}

/// Expands entity and character references in `raw`.
///
/// Returns `None` when a reference is malformed (unterminated, unknown
/// entity name, or an invalid character code).
///
/// ```
/// assert_eq!(xmlite::escape::unescape("x &lt; &#65;").as_deref(), Some("x < A"));
/// assert_eq!(xmlite::escape::unescape("bad &unknown;"), None);
/// ```
pub fn unescape(raw: &str) -> Option<String> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let rest = &raw[i + 1..];
        let semi = rest.find(';')?;
        let name = &rest[..semi];
        match name {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ => {
                let code = if let Some(hex) = name.strip_prefix("#x").or_else(|| name.strip_prefix("#X")) {
                    u32::from_str_radix(hex, 16).ok()?
                } else if let Some(dec) = name.strip_prefix('#') {
                    dec.parse::<u32>().ok()?
                } else {
                    return None;
                };
                out.push(char::from_u32(code)?);
            }
        }
        // Skip the reference body we just handled.
        for _ in 0..semi + 1 {
            chars.next();
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_unescape_text_roundtrip() {
        let samples = ["", "plain", "a<b", "a&b", "x>y", "mix <&> done", "já 名前"];
        for s in samples {
            assert_eq!(unescape(&escape_text(s)).as_deref(), Some(s), "sample {s:?}");
        }
    }

    #[test]
    fn escape_unescape_attr_roundtrip() {
        let samples = ["", "v", "a\"b", "a'b", "tab\there", "line\nbreak", "<&>"];
        for s in samples {
            assert_eq!(unescape(&escape_attr(s)).as_deref(), Some(s), "sample {s:?}");
        }
    }

    #[test]
    fn escape_into_appends_what_escape_returns() {
        let samples = [
            "",
            "plain",
            "a<b",
            "a>b",
            "a&b",
            "a\"b",
            "a'b",
            "tab\there",
            "line\nbreak",
            "<&>\"'\n\t",
            "já 名前 & <mixed>",
        ];
        for s in samples {
            let mut text = String::from("prefix|");
            escape_text_into(s, &mut text);
            assert_eq!(text, format!("prefix|{}", escape_text(s)), "text {s:?}");
            let mut attr = String::from("prefix|");
            escape_attr_into(s, &mut attr);
            assert_eq!(attr, format!("prefix|{}", escape_attr(s)), "attr {s:?}");
        }
    }

    /// Character-at-a-time reference escaper, independent of the
    /// run-copying one.
    fn reference(raw: &str, attr: bool) -> String {
        raw.chars()
            .map(|c| match c {
                '<' => "&lt;".to_string(),
                '>' => "&gt;".to_string(),
                '&' => "&amp;".to_string(),
                '"' if attr => "&quot;".to_string(),
                '\'' if attr => "&apos;".to_string(),
                '\n' if attr => "&#10;".to_string(),
                '\t' if attr => "&#9;".to_string(),
                c => c.to_string(),
            })
            .collect()
    }

    #[test]
    fn escapes_match_a_per_character_reference() {
        let samples = ["", "plain", "<&>\"'\n\t", "já<名>前&", "&&", "end<"];
        for s in samples {
            assert_eq!(escape_text(s), reference(s, false), "text {s:?}");
            assert_eq!(escape_attr(s), reference(s, true), "attr {s:?}");
        }
    }

    #[test]
    fn numeric_references() {
        assert_eq!(unescape("&#65;&#x42;&#x63;").as_deref(), Some("ABc"));
    }

    #[test]
    fn malformed_references_rejected() {
        assert_eq!(unescape("&lt"), None);
        assert_eq!(unescape("&nosuch;"), None);
        assert_eq!(unescape("&#xZZ;"), None);
        assert_eq!(unescape("&#1114112;"), None); // beyond char::MAX
    }
}
