//! Property-style tests for the text substrate: metric bounds, symmetry,
//! and tokenizer consistency on arbitrary input.
//!
//! Cases are generated with the in-tree [`dprep_rng`] generator from a
//! fixed seed, so every run exercises the same inputs.

use dprep_rng::Rng;
use dprep_text::{
    count_tokens, dice_char_ngrams, jaccard_tokens, jaro, jaro_winkler, levenshtein, normalize,
    normalized_levenshtein, tokenize, within_one_edit,
};

const CASES: usize = 256;

/// Printable ASCII plus two multi-byte characters (é, 东) — the same
/// alphabet the proptest regex `[ -~é东]{0,40}` used to draw from.
fn any_text(rng: &mut Rng) -> String {
    let mut alphabet: Vec<char> = (' '..='~').collect();
    alphabet.push('\u{e9}');
    alphabet.push('\u{4e1c}');
    let len = rng.range_incl(0usize, 40);
    (0..len)
        .map(|_| *rng.choose(&alphabet).expect("nonempty"))
        .collect()
}

#[test]
fn count_tokens_matches_tokenize() {
    let mut rng = Rng::seed_from_u64(0x7e17_0001);
    for _ in 0..CASES {
        let text = any_text(&mut rng);
        assert_eq!(count_tokens(&text), tokenize(&text).len(), "{text:?}");
    }
}

#[test]
fn tokens_rejoin_to_non_whitespace_content() {
    let mut rng = Rng::seed_from_u64(0x7e17_0002);
    for _ in 0..CASES {
        let text = any_text(&mut rng);
        let rejoined: String = tokenize(&text).iter().map(|t| t.text.as_str()).collect();
        let expected: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        assert_eq!(rejoined, expected, "{text:?}");
    }
}

#[test]
fn levenshtein_is_a_metric() {
    let mut rng = Rng::seed_from_u64(0x7e17_0003);
    for _ in 0..CASES {
        let a = any_text(&mut rng);
        let b = any_text(&mut rng);
        let c = any_text(&mut rng);
        // Symmetry.
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        // Identity.
        assert_eq!(levenshtein(&a, &a), 0);
        // Triangle inequality.
        assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }
}

#[test]
fn similarity_scores_are_bounded() {
    let mut rng = Rng::seed_from_u64(0x7e17_0004);
    for _ in 0..CASES {
        let a = any_text(&mut rng);
        let b = any_text(&mut rng);
        for s in [
            normalized_levenshtein(&a, &b),
            jaro(&a, &b),
            jaro_winkler(&a, &b),
            jaccard_tokens(&a, &b),
            dice_char_ngrams(&a, &b, 2),
        ] {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&s),
                "score {s} out of bounds for {a:?} / {b:?}"
            );
        }
    }
}

#[test]
fn self_similarity_is_one() {
    let mut rng = Rng::seed_from_u64(0x7e17_0005);
    for _ in 0..CASES {
        let a = any_text(&mut rng);
        assert!((jaro(&a, &a) - 1.0).abs() < 1e-9);
        assert!((normalized_levenshtein(&a, &a) - 1.0).abs() < 1e-9);
        assert!((jaccard_tokens(&a, &a) - 1.0).abs() < 1e-9);
    }
}

#[test]
fn normalize_is_idempotent() {
    let mut rng = Rng::seed_from_u64(0x7e17_0006);
    for _ in 0..CASES {
        let a = any_text(&mut rng);
        let once = normalize(&a);
        assert_eq!(normalize(&once), once.clone(), "{a:?}");
    }
}

#[test]
fn normalize_output_is_clean() {
    let mut rng = Rng::seed_from_u64(0x7e17_0007);
    for _ in 0..CASES {
        let a = any_text(&mut rng);
        let n = normalize(&a);
        assert!(!n.starts_with(' ') && !n.ends_with(' '));
        assert!(!n.contains("  "), "double space in {n:?}");
        assert!(n.chars().all(|c| !c.is_ascii_punctuation() || c == ' '));
        assert!(n.chars().all(|c| !c.is_uppercase()));
    }
}

/// ASCII letters, digits and space, plus é (2 bytes), 东 (3 bytes), ß (which
/// uppercases to two chars) and İ (which lowercases to two chars).
fn edit_alphabet() -> Vec<char> {
    let mut alphabet: Vec<char> = ('a'..='z').chain('A'..='Z').chain('0'..='9').collect();
    alphabet.extend([' ', '\u{e9}', '\u{4e1c}', '\u{df}', '\u{130}']);
    alphabet
}

/// One random substitution, deletion or insertion, keeping `chars` within
/// seven chars.
fn random_edit(rng: &mut Rng, alphabet: &[char], chars: &mut Vec<char>) {
    let c = *rng.choose(alphabet).expect("nonempty");
    match rng.range_usize(0, 3) {
        0 if !chars.is_empty() => {
            let at = rng.range_usize(0, chars.len());
            chars[at] = c;
        }
        1 if !chars.is_empty() => {
            chars.remove(rng.range_usize(0, chars.len()));
        }
        _ if chars.len() < 7 => chars.insert(rng.range_incl(0, chars.len()), c),
        _ => {}
    }
}

#[test]
fn within_one_edit_is_levenshtein_at_most_one() {
    let mut rng = Rng::seed_from_u64(0x7e17_0008);
    let alphabet = edit_alphabet();
    // Verdict counts: [more than one edit apart, within one edit].
    let mut verdicts = [0usize; 2];
    for _ in 0..200_000 {
        let len = rng.range_incl(0usize, 7);
        let a: Vec<char> = (0..len)
            .map(|_| *rng.choose(&alphabet).expect("nonempty"))
            .collect();
        let mut b = a.clone();
        for _ in 0..rng.range_incl(0usize, 2) {
            random_edit(&mut rng, &alphabet, &mut b);
        }
        let (a, b): (String, String) = (a.into_iter().collect(), b.into_iter().collect());
        let expected = levenshtein(&a, &b) <= 1;
        assert_eq!(within_one_edit(&a, &b), expected, "{a:?} / {b:?}");
        assert_eq!(within_one_edit(&b, &a), expected, "{b:?} / {a:?}");
        verdicts[usize::from(expected)] += 1;
    }
    assert!(verdicts.iter().all(|&n| n > 40_000), "{verdicts:?}");
}

/// The allocating DP `levenshtein` ran before it reused one row per thread
/// and compared ASCII strings by byte: two char vectors and a row per call.
fn levenshtein_oracle(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            let next = (row[j + 1] + 1).min(row[j] + 1).min(prev_diag + cost);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

#[test]
fn levenshtein_matches_the_allocating_dp() {
    let mut rng = Rng::seed_from_u64(0x7e17_000b);
    let ascii: Vec<char> = "abcdefgh ".chars().collect();
    let mixed: Vec<char> = "abcé东\u{212a}".chars().collect();
    let draw = |rng: &mut Rng, alphabet: &[char]| -> String {
        let len = rng.range_incl(0usize, 24);
        (0..len)
            .map(|_| *rng.choose(alphabet).expect("nonempty"))
            .collect()
    };
    for case in 0..4 * CASES {
        // ASCII pairs take the byte path, the rest the char path; small
        // alphabets make near-equal strings common.
        let a = draw(&mut rng, if case % 3 == 0 { &mixed } else { &ascii });
        let b = match case % 5 {
            0 => a.clone(),
            1 => String::new(),
            2 => {
                let mut b = a.clone();
                b.push_str(&draw(&mut rng, &mixed));
                b
            }
            _ => draw(&mut rng, if case % 2 == 0 { &mixed } else { &ascii }),
        };
        for (x, y) in [(&a, &b), (&b, &a)] {
            assert_eq!(
                levenshtein(x, y),
                levenshtein_oracle(x, y),
                "{x:?} vs {y:?}"
            );
        }
    }
    assert_eq!(levenshtein("", ""), 0);
    assert_eq!(levenshtein("东京", "东"), 1);
    assert_eq!(
        levenshtein("caf\u{e9}", "cafe"),
        1,
        "é is one char, two bytes"
    );
}
