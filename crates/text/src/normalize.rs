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
pub fn normalize_into(text: &str, out: &mut String) {
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

    #[test]
    fn word_split() {
        assert_eq!(
            normalized_words("Bob's Diner, NYC"),
            vec!["bob", "s", "diner", "nyc"]
        );
        assert!(normalized_words("...").is_empty());
    }
}
