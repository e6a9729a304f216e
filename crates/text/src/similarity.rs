//! String-similarity measures.
//!
//! These power (a) the simulated LLM's internal matching heuristics — a real
//! LLM's latent sense of "these two product titles look like the same
//! thing" is modeled as a weighted combination of these measures — and
//! (b) the classical baselines (Magellan-style feature vectors, SMAT-style
//! similarity matrices).

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use crate::ngram::char_ngrams;
use crate::normalize::normalized_words;

/// Levenshtein edit distance (insert/delete/substitute, unit costs), on
/// chars.
///
/// One DP row per thread is reused from call to call, and two ASCII
/// strings are compared byte by byte, so a call allocates nothing once its
/// thread has seen a string as long as `b`. ED's lexicon check calls this
/// once per memorized member for every value that is not a member.
pub fn levenshtein(a: &str, b: &str) -> usize {
    thread_local! {
        static ROW: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }
    ROW.with_borrow_mut(|row| {
        if a.is_ascii() && b.is_ascii() {
            edit_distance(a.bytes(), b.bytes(), b.len(), row)
        } else {
            edit_distance(a.chars(), b.chars(), b.chars().count(), row)
        }
    })
}

/// The single-row Levenshtein DP of `a` against `b` (`b_len` items long),
/// in `row`, which it resizes.
fn edit_distance<T: PartialEq>(
    a: impl Iterator<Item = T>,
    b: impl Iterator<Item = T> + Clone,
    b_len: usize,
    row: &mut Vec<usize>,
) -> usize {
    row.clear();
    row.extend(0..=b_len);
    for (i, ca) in a.enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, cb) in b.clone().enumerate() {
            let cost = usize::from(ca != cb);
            let next = (row[j + 1] + 1).min(row[j] + 1).min(prev_diag + cost);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b_len]
}

/// True when `a` and `b` are at most one edit apart: exactly
/// `levenshtein(a, b) <= 1`, on chars, without allocating. After their
/// common prefix, the rests must match once one substitution, one deletion
/// or one insertion is undone at the first differing char.
pub fn within_one_edit(a: &str, b: &str) -> bool {
    // Equal chars are equal bytes, so the prefix ends at the same byte
    // offset in both strings.
    let split = a
        .char_indices()
        .zip(b.chars())
        .find(|((_, ca), cb)| ca != cb)
        .map_or(a.len().min(b.len()), |((at, _), _)| at);
    let (a, b) = (&a[split..], &b[split..]);
    let (a_tail, b_tail) = (after_first_char(a), after_first_char(b));
    a_tail == b_tail || a_tail == b || a == b_tail
}

/// `s` without its first char (empty stays empty).
fn after_first_char(s: &str) -> &str {
    let mut chars = s.chars();
    chars.next();
    chars.as_str()
}

/// Levenshtein similarity normalized to `[0, 1]` (1 = identical).
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches = 0usize;
    let mut a_matched = vec![false; a.len()];
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == *ca {
                b_used[j] = true;
                a_matched[i] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Count transpositions between the matched subsequences.
    let a_seq: Vec<char> = a
        .iter()
        .zip(&a_matched)
        .filter_map(|(c, &m)| m.then_some(*c))
        .collect();
    let b_seq: Vec<char> = b
        .iter()
        .zip(&b_used)
        .filter_map(|(c, &m)| m.then_some(*c))
        .collect();
    let transpositions = a_seq.iter().zip(&b_seq).filter(|(x, y)| x != y).count() / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler similarity (prefix bonus up to 4 chars, scaling 0.1).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// The normalized words of a text (see [`normalized_words`]), sorted and
/// deduplicated. Built once, a word set compares against any number of
/// others by merging two sorted lists, so comparing `k` texts pairwise
/// normalizes each text once instead of `k - 1` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordSet {
    words: Vec<String>,
}

impl WordSet {
    /// The word set of one text.
    pub fn new(text: &str) -> WordSet {
        WordSet::from_texts([text])
    }

    /// The word set of several texts together: the same set as that of the
    /// texts joined by spaces, since normalization never joins words across
    /// whitespace.
    pub fn from_texts<'a>(texts: impl IntoIterator<Item = &'a str>) -> WordSet {
        let mut words: Vec<String> = texts.into_iter().flat_map(normalized_words).collect();
        words.sort_unstable();
        words.dedup();
        WordSet { words }
    }

    /// Jaccard similarity `|A ∩ B| / |A ∪ B|`; two empty sets are identical.
    pub fn jaccard(&self, other: &WordSet) -> f64 {
        if self.words.is_empty() && other.words.is_empty() {
            return 1.0;
        }
        let inter = self.intersection_len(other);
        let union = self.words.len() + other.words.len() - inter;
        inter as f64 / union as f64
    }

    /// Number of words in both sets, by one merge of the sorted lists.
    fn intersection_len(&self, other: &WordSet) -> usize {
        let (mut i, mut j, mut shared) = (0, 0, 0);
        while i < self.words.len() && j < other.words.len() {
            match self.words[i].cmp(&other.words[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        shared
    }
}

/// Jaccard similarity over normalized word sets.
pub fn jaccard_tokens(a: &str, b: &str) -> f64 {
    WordSet::new(a).jaccard(&WordSet::new(b))
}

/// Overlap coefficient over normalized word sets:
/// `|A ∩ B| / min(|A|, |B|)`. More forgiving than Jaccard when one string is
/// a short form of the other (e.g. abbreviated product titles).
pub fn overlap_tokens(a: &str, b: &str) -> f64 {
    let (sa, sb) = (WordSet::new(a), WordSet::new(b));
    match (sa.words.len(), sb.words.len()) {
        (0, 0) => 1.0,
        (0, _) | (_, 0) => 0.0,
        (la, lb) => sa.intersection_len(&sb) as f64 / la.min(lb) as f64,
    }
}

/// Dice coefficient over character n-grams (multiset-free, set semantics).
pub fn dice_char_ngrams(a: &str, b: &str, n: usize) -> f64 {
    let sa: HashSet<String> = char_ngrams(a, n).into_iter().collect();
    let sb: HashSet<String> = char_ngrams(b, n).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let inter = sa.intersection(&sb).count();
    2.0 * inter as f64 / (sa.len() + sb.len()) as f64
}

/// Cosine similarity over normalized-word term frequencies.
pub fn cosine_tf(a: &str, b: &str) -> f64 {
    let mut ta: HashMap<String, f64> = HashMap::new();
    for w in normalized_words(a) {
        *ta.entry(w).or_insert(0.0) += 1.0;
    }
    let mut tb: HashMap<String, f64> = HashMap::new();
    for w in normalized_words(b) {
        *tb.entry(w).or_insert(0.0) += 1.0;
    }
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let dot: f64 = ta
        .iter()
        .filter_map(|(w, x)| tb.get(w).map(|y| x * y))
        .sum();
    let na: f64 = ta.values().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = tb.values().map(|x| x * x).sum::<f64>().sqrt();
    dot / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn normalized_levenshtein_bounds() {
        assert_eq!(normalized_levenshtein("", ""), 1.0);
        assert_eq!(normalized_levenshtein("abc", "abc"), 1.0);
        assert_eq!(normalized_levenshtein("abc", "xyz"), 0.0);
        let s = normalized_levenshtein("hospital", "hospitol");
        assert!(s > 0.8 && s < 1.0);
    }

    #[test]
    fn jaro_known_values() {
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert!((jaro("martha", "marhta") - 0.944_444).abs() < 1e-3);
        assert!((jaro("dixon", "dicksonx") - 0.766_666).abs() < 1e-3);
    }

    #[test]
    fn jaro_winkler_prefix_bonus() {
        let jw = jaro_winkler("martha", "marhta");
        assert!((jw - 0.961_111).abs() < 1e-3);
        assert!(jaro_winkler("prefixed", "prefixes") > jaro("prefixed", "prefixes"));
    }

    #[test]
    fn jaccard_and_overlap() {
        assert_eq!(jaccard_tokens("new york", "new york"), 1.0);
        assert_eq!(jaccard_tokens("", ""), 1.0);
        assert!((jaccard_tokens("new york city", "new york") - 2.0 / 3.0).abs() < 1e-12);
        // Overlap forgives the missing word entirely.
        assert_eq!(overlap_tokens("new york city", "new york"), 1.0);
        assert_eq!(overlap_tokens("abc", ""), 0.0);
    }

    #[test]
    fn dice_ngrams() {
        assert_eq!(dice_char_ngrams("night", "night", 2), 1.0);
        let d = dice_char_ngrams("night", "nacht", 2);
        assert!(d > 0.0 && d < 1.0);
        assert_eq!(dice_char_ngrams("", "", 2), 1.0);
        assert_eq!(dice_char_ngrams("ab", "", 2), 0.0);
    }

    #[test]
    fn cosine_tf_behaviour() {
        assert!((cosine_tf("a b c", "a b c") - 1.0).abs() < 1e-12);
        assert_eq!(cosine_tf("a b", "x y"), 0.0);
        let c = cosine_tf("apple iphone 12", "apple iphone 13");
        assert!(c > 0.5 && c < 1.0);
    }

    #[test]
    fn similarity_measures_are_symmetric() {
        let pairs = [("hello world", "world hello"), ("abc def", "abd cef")];
        for (a, b) in pairs {
            assert!((jaccard_tokens(a, b) - jaccard_tokens(b, a)).abs() < 1e-12);
            assert!((cosine_tf(a, b) - cosine_tf(b, a)).abs() < 1e-12);
            assert!((dice_char_ngrams(a, b, 2) - dice_char_ngrams(b, a, 2)).abs() < 1e-12);
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }
}
