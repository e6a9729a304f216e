//! Text normalization used before similarity comparisons.

/// Lowercases, replaces punctuation with spaces, and collapses whitespace.
///
/// This is the canonical form the simulated LLM and the baselines compare
/// strings in — e.g. `"St. John's"` and `"st johns"` normalize identically
/// apart from the possessive.
pub fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    normalize_into(text, &mut out);
    out
}

/// Appends the normalized form of `text` (see [`normalize`]) to `out`,
/// leaving what `out` already holds as it is. The appended form neither
/// starts nor ends with a space, so texts appended with a space between
/// them split into the same words as each text normalized alone.
///
/// ASCII bytes take a fast path with the same mapping as the character
/// path: letters and digits lowercased, whitespace and punctuation a word
/// break, other control characters kept. Note that `char::is_whitespace`
/// counts `\x0B` (vertical tab) as whitespace and
/// `u8::is_ascii_whitespace` does not; the fast path follows the former.
pub fn normalize_into(text: &str, out: &mut String) {
    let start = out.len();
    let mut last_space = true;
    let mut rest = text;
    while let Some(&b) = rest.as_bytes().first() {
        let mapped = if b.is_ascii() {
            rest = &rest[1..];
            if b.is_ascii_alphanumeric() {
                Some(b.to_ascii_lowercase() as char)
            } else if matches!(b, b'\t'..=b'\r' | b' ') || b.is_ascii_punctuation() {
                None
            } else {
                Some(b as char)
            }
        } else {
            let c = rest.chars().next().expect("a non-empty rest");
            rest = &rest[c.len_utf8()..];
            normalize_char(c)
        };
        match mapped {
            Some(c) => {
                out.push(c);
                last_space = false;
            }
            None => {
                if !last_space {
                    out.push(' ');
                    last_space = true;
                }
            }
        }
    }
    while out.len() > start && out.ends_with(' ') {
        out.pop();
    }
}

/// One character of [`normalize`]: `Some` of what it becomes, or `None`
/// for a word break.
fn normalize_char(c: char) -> Option<char> {
    if c.is_alphanumeric() {
        Some(c.to_lowercase().next().unwrap_or(c))
    } else if c.is_whitespace() || c.is_ascii_punctuation() {
        None
    } else {
        Some(c)
    }
}

/// Collapses runs of whitespace into single spaces and trims the ends.
pub fn collapse_whitespace(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut last_space = true;
    for c in text.chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.push(c);
            last_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Normalized word list of a string (see [`normalize`]).
pub fn normalized_words(text: &str) -> Vec<String> {
    normalize(text)
        .split(' ')
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_strips_punctuation() {
        assert_eq!(normalize("St. John's Pub!"), "st john s pub");
    }

    #[test]
    fn collapses_internal_whitespace() {
        assert_eq!(normalize("a   b\t\nc"), "a b c");
        assert_eq!(collapse_whitespace("  a   b  "), "a b");
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("!!! ..."), "");
        assert_eq!(collapse_whitespace("   "), "");
    }

    #[test]
    fn unicode_preserved() {
        assert_eq!(normalize("Café TOKYO"), "café tokyo");
    }

    #[test]
    fn appends_without_touching_the_prefix() {
        let mut out = String::from("kept ");
        normalize_into("  St. John's!  ", &mut out);
        assert_eq!(out, "kept st john s");
        normalize_into("...", &mut out);
        assert_eq!(out, "kept st john s", "a wordless text appends nothing");
        let mut out = String::from("trailing ");
        normalize_into("", &mut out);
        assert_eq!(out, "trailing ", "the caller's own space stays");
    }

    /// The char-by-char form every character took before ASCII got its
    /// fast path: the reference the fast path must match.
    fn char_wise_normalize_into(text: &str, out: &mut String) {
        let start = out.len();
        let mut last_space = true;
        for c in text.chars() {
            let mapped = if c.is_alphanumeric() {
                Some(c.to_lowercase().next().unwrap_or(c))
            } else if c.is_whitespace() || c.is_ascii_punctuation() {
                None
            } else {
                Some(c)
            };
            match mapped {
                Some(c) => {
                    out.push(c);
                    last_space = false;
                }
                None => {
                    if !last_space {
                        out.push(' ');
                        last_space = true;
                    }
                }
            }
        }
        while out.len() > start && out.ends_with(' ') {
            out.pop();
        }
    }

    #[test]
    fn ascii_fast_path_matches_the_char_wise_form() {
        // Every ASCII byte alone and between letters, `\x0B` among them.
        for b in 0u8..0x80 {
            let c = b as char;
            for text in [c.to_string(), format!("Ab{c}Cd"), format!(" {c}{c} ")] {
                let (mut got, mut want) = (String::from("x "), String::from("x "));
                normalize_into(&text, &mut got);
                char_wise_normalize_into(&text, &mut want);
                assert_eq!(got, want, "{text:?}");
            }
        }
        assert_eq!(normalize("a\u{b}b"), "a b", "a vertical tab breaks words");
        // Seeded mixtures with multi-byte characters.
        let alphabet: Vec<char> = (0u8..0x80)
            .map(char::from)
            .chain("éÉİß东京\u{a0}\u{2028}\u{1f600}ǅΣ".chars())
            .collect();
        let mut rng = dprep_rng::Rng::seed_from_u64(0x06e0_fa57);
        for _ in 0..5_000 {
            let len = rng.range_incl(0usize, 40);
            let text: String = (0..len)
                .map(|_| *rng.choose(&alphabet).expect("nonempty"))
                .collect();
            let (mut got, mut want) = (String::new(), String::new());
            normalize_into(&text, &mut got);
            char_wise_normalize_into(&text, &mut want);
            assert_eq!(got, want, "{text:?}");
        }
    }

    #[test]
    fn word_split() {
        assert_eq!(
            normalized_words("Bob's Diner, NYC"),
            vec!["bob", "s", "diner", "nyc"]
        );
        assert!(normalized_words("...").is_empty());
    }
}
