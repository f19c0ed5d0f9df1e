//! Escaping and unescaping of XML character data.

use crate::ParseXmlError;

/// Escapes text for use as XML character data (element content).
///
/// Replaces `&`, `<` and `>` with their predefined entities. Quotes are left
/// alone because they are harmless in content position. A thin wrapper over
/// [`escape_text_into`].
///
/// # Examples
///
/// ```
/// assert_eq!(ezrt_xml::escape_text("a < b && c"), "a &lt; b &amp;&amp; c");
/// ```
pub fn escape_text(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    escape_text_into(&mut out, raw);
    out
}

/// Escapes text for use inside a double-quoted XML attribute value.
///
/// In addition to the substitutions of [`escape_text`] this replaces `"` with
/// `&quot;` and newlines/tabs with character references so they survive
/// attribute-value normalization. A thin wrapper over [`escape_attr_into`].
///
/// # Examples
///
/// ```
/// assert_eq!(ezrt_xml::escape_attr("say \"hi\""), "say &quot;hi&quot;");
/// ```
pub fn escape_attr(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    escape_attr_into(&mut out, raw);
    out
}

/// Appends `raw` to `out` escaped as character data, like [`escape_text`]
/// but without allocating: runs of clean text are copied whole.
///
/// # Examples
///
/// ```
/// let mut out = String::from("<v>");
/// ezrt_xml::escape_text_into(&mut out, "1 < 2");
/// assert_eq!(out, "<v>1 &lt; 2");
/// ```
pub fn escape_text_into(out: &mut String, raw: &str) {
    escape_into(out, raw, |byte| match byte {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        _ => None,
    });
}

/// Appends `raw` to `out` escaped as a double-quoted attribute value, like
/// [`escape_attr`] but without allocating: runs of clean text are copied
/// whole.
///
/// # Examples
///
/// ```
/// let mut out = String::new();
/// ezrt_xml::escape_attr_into(&mut out, "a\tb");
/// assert_eq!(out, "a&#9;b");
/// ```
pub fn escape_attr_into(out: &mut String, raw: &str) {
    escape_into(out, raw, |byte| match byte {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' => Some("&quot;"),
        b'\n' => Some("&#10;"),
        b'\t' => Some("&#9;"),
        b'\r' => Some("&#13;"),
        _ => None,
    });
}

/// Copies `raw` into `out`, replacing each byte `entity` maps. Every
/// escaped character is ASCII, so the clean runs between them always end
/// on `char` boundaries.
#[inline]
fn escape_into(out: &mut String, raw: &str, entity: impl Fn(u8) -> Option<&'static str>) {
    let mut clean = 0;
    for (at, byte) in raw.bytes().enumerate() {
        if let Some(replacement) = entity(byte) {
            out.push_str(&raw[clean..at]);
            out.push_str(replacement);
            clean = at + 1;
        }
    }
    out.push_str(&raw[clean..]);
}

/// Expands the five predefined entities and numeric character references.
///
/// This is the inverse of [`escape_text`] / [`escape_attr`].
///
/// # Errors
///
/// Returns [`ParseXmlError`] when an `&` is not followed by a well-formed
/// entity or character reference.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), ezrt_xml::ParseXmlError> {
/// assert_eq!(ezrt_xml::unescape("1 &lt; 2", 0)?, "1 < 2");
/// assert_eq!(ezrt_xml::unescape("&#65;&#x42;", 0)?, "AB");
/// # Ok(())
/// # }
/// ```
pub fn unescape(raw: &str, base_offset: usize) -> Result<String, ParseXmlError> {
    let mut out = String::with_capacity(raw.len());
    let bytes = raw.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            // Multi-byte UTF-8 sequences never contain b'&', so copying the
            // char as a whole is safe.
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&raw[i..i + ch_len]);
            i += ch_len;
            continue;
        }
        let semi = raw[i..]
            .find(';')
            .ok_or_else(|| ParseXmlError::new(base_offset + i, "unterminated entity reference"))?;
        let entity = &raw[i + 1..i + semi];
        let expanded = expand_entity(entity)
            .ok_or_else(|| ParseXmlError::new(base_offset + i, "unknown entity reference"))?;
        out.push(expanded);
        i += semi + 1;
    }
    Ok(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b < 0xe0 => 2,
        b if b < 0xf0 => 3,
        _ => 4,
    }
}

fn expand_entity(entity: &str) -> Option<char> {
    match entity {
        "lt" => Some('<'),
        "gt" => Some('>'),
        "amp" => Some('&'),
        "apos" => Some('\''),
        "quot" => Some('"'),
        _ => {
            let rest = entity.strip_prefix('#')?;
            let code = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X'))
            {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                rest.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_text_handles_all_specials() {
        assert_eq!(escape_text("<a> & </a>"), "&lt;a&gt; &amp; &lt;/a&gt;");
    }

    #[test]
    fn escape_text_leaves_plain_text_untouched() {
        assert_eq!(escape_text("plain text 123"), "plain text 123");
    }

    #[test]
    fn escape_attr_handles_quotes_and_whitespace() {
        assert_eq!(escape_attr("\"x\"\n"), "&quot;x&quot;&#10;");
    }

    #[test]
    fn escaping_appends_after_existing_text_and_keeps_non_ascii() {
        let mut out = String::from("x=");
        escape_attr_into(&mut out, "é\"ü<\r");
        escape_text_into(&mut out, "ß&\"'");
        assert_eq!(out, "x=é&quot;ü&lt;&#13;ß&amp;\"'");
    }

    #[test]
    fn unescape_round_trips_text_escape() {
        let raw = "a < b & c > d \"quoted\" 'single'";
        assert_eq!(unescape(&escape_text(raw), 0).unwrap(), raw);
        assert_eq!(unescape(&escape_attr(raw), 0).unwrap(), raw);
    }

    #[test]
    fn unescape_decimal_and_hex_references() {
        assert_eq!(unescape("&#65;", 0).unwrap(), "A");
        assert_eq!(unescape("&#x41;", 0).unwrap(), "A");
        assert_eq!(unescape("&#X41;", 0).unwrap(), "A");
    }

    #[test]
    fn unescape_rejects_unknown_entity() {
        let err = unescape("&nbsp;", 3).unwrap_err();
        assert_eq!(err.offset(), 3);
    }

    #[test]
    fn unescape_rejects_unterminated_entity() {
        assert!(unescape("&amp", 0).is_err());
    }

    #[test]
    fn unescape_preserves_multibyte_utf8() {
        assert_eq!(unescape("péri&lt;ode", 0).unwrap(), "péri<ode");
    }

    #[test]
    fn unescape_rejects_invalid_codepoint() {
        assert!(unescape("&#x110000;", 0).is_err());
    }
}
