//! XML character escaping and entity decoding.

use std::borrow::Cow;

/// Escapes `&`, `<`, `>` for text content.
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape_with(s, false)
}

/// Escapes `&`, `<`, `>`, `"`, `'` for attribute values.
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape_with(s, true)
}

fn escape_with(s: &str, quotes: bool) -> Cow<'_, str> {
    let needs = s
        .bytes()
        .any(|b| matches!(b, b'&' | b'<' | b'>') || (quotes && matches!(b, b'"' | b'\'')));
    if !needs {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if quotes => out.push_str("&quot;"),
            '\'' if quotes => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    Cow::Owned(out)
}

/// An error produced while decoding an entity reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityError {
    /// The offending reference text (without the surrounding `&`/`;`).
    pub reference: String,
}

impl std::fmt::Display for EntityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown or malformed entity reference `&{};`",
            self.reference
        )
    }
}

impl std::error::Error for EntityError {}

/// Decodes the five predefined entities plus decimal/hex character
/// references. Unknown references are an error.
pub fn decode_entities(s: &str) -> Result<Cow<'_, str>, EntityError> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    decode_append(s, &mut out)?;
    Ok(Cow::Owned(out))
}

/// [`decode_entities`], appending into a caller-supplied buffer: the
/// allocation-free form the streaming parser's reused scratch buffers
/// are fed through (no `Cow`, no intermediate `String` even when the
/// input contains references).
pub fn decode_entities_into(s: &str, out: &mut String) -> Result<(), EntityError> {
    if !s.contains('&') {
        out.push_str(s);
        return Ok(());
    }
    decode_append(s, out)
}

/// Checks every entity reference in `s` exactly as
/// [`decode_entities_into`] would, decoding into nothing: what a
/// tokenizer passing text or an attribute value over still validates.
pub(crate) fn check_entities(s: &str) -> Result<(), EntityError> {
    decode_append(s, &mut Discard)
}

/// Where decoded text goes: a `String`, or nowhere ([`Discard`]).
trait Decoded {
    fn push_str(&mut self, s: &str);
    fn push(&mut self, c: char);
}

impl Decoded for String {
    #[inline]
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }

    #[inline]
    fn push(&mut self, c: char) {
        String::push(self, c);
    }
}

/// Decodes into nothing: decoding into it only validates.
struct Discard;

impl Decoded for Discard {
    fn push_str(&mut self, _: &str) {}

    fn push(&mut self, _: char) {}
}

/// The XML 1.0 `Char` production: characters a numeric character
/// reference may denote. Excludes NUL and the other C0 controls
/// (except tab/LF/CR), surrogates (unreachable as `char` anyway), and
/// the non-characters U+FFFE/U+FFFF.
fn is_xml_char(c: char) -> bool {
    matches!(c,
        '\u{9}' | '\u{A}' | '\u{D}'
        | '\u{20}'..='\u{D7FF}'
        | '\u{E000}'..='\u{FFFD}'
        | '\u{10000}'..='\u{10FFFF}')
}

fn decode_append(s: &str, out: &mut impl Decoded) -> Result<(), EntityError> {
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos + 1..];
        let end = rest.find(';').ok_or_else(|| EntityError {
            reference: rest.to_string(),
        })?;
        let name = &rest[..end];
        match name {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ => {
                let cp = if let Some(hex) =
                    name.strip_prefix("#x").or_else(|| name.strip_prefix("#X"))
                {
                    u32::from_str_radix(hex, 16).ok()
                } else if let Some(dec) = name.strip_prefix('#') {
                    dec.parse::<u32>().ok()
                } else {
                    None
                };
                // `char::from_u32` rejects surrogates and > 0x10FFFF;
                // the `Char` filter additionally rejects NUL, stray C0
                // controls, and U+FFFE/U+FFFF — all fatal in XML.
                let c = cp
                    .and_then(char::from_u32)
                    .filter(|&c| is_xml_char(c))
                    .ok_or_else(|| EntityError {
                        reference: name.to_string(),
                    })?;
                out.push(c);
            }
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_text_passthrough_when_clean() {
        assert!(matches!(escape_text("hello world"), Cow::Borrowed(_)));
    }

    #[test]
    fn escape_text_escapes_specials() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    }

    #[test]
    fn escape_attr_escapes_quotes() {
        assert_eq!(
            escape_attr(r#"he said "hi"'s"#),
            "he said &quot;hi&quot;&apos;s"
        );
    }

    #[test]
    fn decode_predefined_entities() {
        assert_eq!(
            decode_entities("a&lt;b&amp;c&gt;d&quot;&apos;").unwrap(),
            "a<b&c>d\"'"
        );
    }

    #[test]
    fn decode_numeric_references() {
        assert_eq!(decode_entities("&#65;&#x42;&#x63;").unwrap(), "ABc");
    }

    #[test]
    fn decode_unknown_entity_is_error() {
        assert!(decode_entities("&bogus;").is_err());
        assert!(decode_entities("&unterminated").is_err());
        assert!(decode_entities("&#xZZ;").is_err());
    }

    #[test]
    fn decode_rejects_non_xml_chars() {
        // Out-of-range and surrogate references are malformed …
        assert!(decode_entities("&#x110000;").is_err());
        assert!(decode_entities("&#xD800;").is_err());
        assert!(decode_entities("&#55296;").is_err());
        // … and so are characters outside the XML `Char` production:
        // NUL, stray C0 controls, and the FFFE/FFFF non-characters.
        assert!(decode_entities("&#0;").is_err());
        assert!(decode_entities("&#x1F;").is_err());
        assert!(decode_entities("&#xFFFE;").is_err());
        assert!(decode_entities("&#xFFFF;").is_err());
        // Tab, LF, CR, and the plane boundaries stay valid.
        assert_eq!(decode_entities("&#x9;&#xA;&#xD;").unwrap(), "\t\n\r");
        assert_eq!(decode_entities("&#xD7FF;").unwrap(), "\u{d7ff}");
        assert_eq!(decode_entities("&#xE000;").unwrap(), "\u{e000}");
        assert_eq!(decode_entities("&#x10FFFF;").unwrap(), "\u{10ffff}");
    }

    #[test]
    fn round_trip_text() {
        let original = "x < y && y > \"z\"";
        let escaped = escape_attr(original);
        assert_eq!(decode_entities(&escaped).unwrap(), original);
    }
}
