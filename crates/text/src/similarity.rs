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
use std::ops::Range;

use crate::ngram::char_ngrams;
use crate::normalize::{normalize_into, normalized_words};

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
///
/// Each char of `a`, in order, matches the first unused equal char of `b`
/// within the match window; transpositions are half the matched pairs
/// that differ when both matched sequences are read in order.
///
/// Two ASCII strings whose second is at most 64 bytes long take a
/// bit-parallel path: one mask per byte value holds that byte's positions
/// in `b`, and one `u64` the positions already used, so a char's match is
/// one `AND` and one trailing-zeros count. Other inputs take the char path
/// on buffers reused per thread. Neither allocates once its thread has
/// seen inputs as long.
pub fn jaro(a: &str, b: &str) -> f64 {
    if a.is_ascii() && b.is_ascii() && b.len() <= 64 {
        jaro_ascii(a.as_bytes(), b.as_bytes())
    } else {
        jaro_chars(a, b)
    }
}

/// The Jaro formula over `matches` matched chars of which `transposed`
/// differ from their counterpart, for strings of `len_a` and `len_b`
/// chars.
fn jaro_score(matches: usize, transposed: usize, len_a: usize, len_b: usize) -> f64 {
    let transpositions = transposed / 2;
    let m = matches as f64;
    (m / len_a as f64 + m / len_b as f64 + (m - transpositions as f64) / m) / 3.0
}

/// The match window of strings `len_a` and `len_b` chars long.
fn jaro_window(len_a: usize, len_b: usize) -> usize {
    (len_a.max(len_b) / 2).saturating_sub(1)
}

/// [`jaro`] of two ASCII strings, `b` at most 64 bytes long.
fn jaro_ascii(a: &[u8], b: &[u8]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    /// The mask of positions below `n`.
    fn below(n: usize) -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1 << n) - 1
        }
    }
    let window = jaro_window(a.len(), b.len());
    let mut positions = [0u64; 128];
    for (j, &c) in b.iter().enumerate() {
        positions[usize::from(c)] |= 1 << j;
    }
    // Every match takes its own position of `b`, so at most 64 chars of
    // `a` match.
    let mut used = 0u64;
    let mut matched = [0u8; 64];
    let mut matches = 0;
    for (i, &c) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        if lo >= b.len() {
            break;
        }
        let hi = (i + window + 1).min(b.len());
        let free = positions[usize::from(c)] & !used & below(hi) & !below(lo);
        if free != 0 {
            used |= free & free.wrapping_neg();
            matched[matches] = c;
            matches += 1;
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // `b`'s matched chars are its used positions in order.
    let mut rest = used;
    let mut transposed = 0;
    for &c in &matched[..matches] {
        transposed += usize::from(b[rest.trailing_zeros() as usize] != c);
        rest &= rest - 1;
    }
    jaro_score(matches, transposed, a.len(), b.len())
}

/// [`jaro`] on chars, in buffers reused per thread.
fn jaro_chars(a: &str, b: &str) -> f64 {
    /// Both strings' chars, and which of them matched.
    #[derive(Default)]
    struct Scratch {
        a: Vec<char>,
        b: Vec<char>,
        a_matched: Vec<bool>,
        b_used: Vec<bool>,
    }
    thread_local! {
        static SCRATCH: RefCell<Scratch> = RefCell::default();
    }
    SCRATCH.with_borrow_mut(|s| {
        s.a.clear();
        s.a.extend(a.chars());
        s.b.clear();
        s.b.extend(b.chars());
        let (a, b) = (&s.a, &s.b);
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = jaro_window(a.len(), b.len());
        s.a_matched.clear();
        s.a_matched.resize(a.len(), false);
        s.b_used.clear();
        s.b_used.resize(b.len(), false);
        let mut matches = 0;
        for (i, ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            if let Some(j) = (lo..hi).find(|&j| !s.b_used[j] && b[j] == *ca) {
                s.b_used[j] = true;
                s.a_matched[i] = true;
                matches += 1;
            }
        }
        if matches == 0 {
            return 0.0;
        }
        let a_seq = a
            .iter()
            .zip(&s.a_matched)
            .filter_map(|(c, &m)| m.then_some(c));
        let b_seq = b.iter().zip(&s.b_used).filter_map(|(c, &m)| m.then_some(c));
        let transposed = a_seq.zip(b_seq).filter(|(x, y)| x != y).count();
        jaro_score(matches, transposed, a.len(), b.len())
    })
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

/// The normalized words of texts, in one buffer: each set of them sorted
/// and deduplicated, as byte spans of `text`.
#[derive(Debug, Clone, Default)]
struct Words {
    text: String,
    spans: Vec<(usize, usize)>,
}

impl Words {
    fn clear(&mut self) {
        self.text.clear();
        self.spans.clear();
    }

    /// Appends the normalized words of `texts` (see [`normalized_words`]),
    /// sorted and deduplicated, and returns where in `spans` they lie.
    fn push_set<'a>(&mut self, texts: impl IntoIterator<Item = &'a str>) -> Range<usize> {
        let Words { text, spans } = self;
        let first = spans.len();
        for source in texts {
            let mut start = text.len();
            normalize_into(source, text);
            for word in text[start..].split(' ') {
                if !word.is_empty() {
                    spans.push((start, start + word.len()));
                }
                start += word.len() + 1;
            }
        }
        // Words compare as their bytes, which order as the words do.
        let word = |&(from, to): &(usize, usize)| &text.as_bytes()[from..to];
        spans[first..].sort_unstable_by(|x, y| word(x).cmp(word(y)));
        let mut kept = first;
        for i in first..spans.len() {
            if kept == first || word(&spans[kept - 1]) != word(&spans[i]) {
                spans[kept] = spans[i];
                kept += 1;
            }
        }
        spans.truncate(kept);
        first..kept
    }

    /// The words of the set at `set`, in order, as their bytes.
    fn set(&self, set: Range<usize>) -> impl Iterator<Item = &[u8]> {
        self.spans[set]
            .iter()
            .map(|&(from, to)| &self.text.as_bytes()[from..to])
    }
}

/// Number of words two sorted, deduplicated word lists share, by one
/// merge.
fn shared_words<'a>(
    mut a: impl Iterator<Item = &'a [u8]>,
    mut b: impl Iterator<Item = &'a [u8]>,
) -> usize {
    let (mut x, mut y, mut shared) = (a.next(), b.next(), 0);
    while let (Some(wa), Some(wb)) = (x, y) {
        match wa.cmp(wb) {
            Ordering::Less => x = a.next(),
            Ordering::Greater => y = b.next(),
            Ordering::Equal => {
                shared += 1;
                x = a.next();
                y = b.next();
            }
        }
    }
    shared
}

/// The word sets of two texts in one buffer reused per thread, and their
/// sizes and shared count.
fn word_set_counts(a: &str, b: &str) -> (usize, usize, usize) {
    thread_local! {
        static WORDS: RefCell<Words> = RefCell::default();
    }
    WORDS.with_borrow_mut(|words| {
        words.clear();
        let set_a = words.push_set([a]);
        let set_b = words.push_set([b]);
        let shared = shared_words(words.set(set_a.clone()), words.set(set_b.clone()));
        (set_a.len(), set_b.len(), shared)
    })
}

/// The normalized words of a text (see [`normalized_words`]), sorted and
/// deduplicated, as spans of one buffer. Built once, a word set compares
/// against any number of others by merging two sorted lists, so comparing
/// `k` texts pairwise normalizes each text once instead of `k - 1` times.
#[derive(Debug, Clone)]
pub struct WordSet {
    words: Words,
}

/// Two word sets are equal when they hold the same words, however their
/// texts spelled them.
impl PartialEq for WordSet {
    fn eq(&self, other: &WordSet) -> bool {
        self.words
            .set(0..self.len())
            .eq(other.words.set(0..other.len()))
    }
}

impl Eq for WordSet {}

impl WordSet {
    /// The word set of one text.
    pub fn new(text: &str) -> WordSet {
        WordSet::from_texts([text])
    }

    /// The word set of several texts together: the same set as that of the
    /// texts joined by spaces, since normalization never joins words across
    /// whitespace.
    pub fn from_texts<'a>(texts: impl IntoIterator<Item = &'a str>) -> WordSet {
        let mut words = Words::default();
        words.push_set(texts);
        WordSet { words }
    }

    /// Jaccard similarity `|A ∩ B| / |A ∪ B|`; two empty sets are identical.
    pub fn jaccard(&self, other: &WordSet) -> f64 {
        jaccard_of(self.len(), other.len(), self.intersection_len(other))
    }

    /// Number of distinct words.
    fn len(&self) -> usize {
        self.words.spans.len()
    }

    /// Number of words in both sets, by one merge of the sorted lists.
    fn intersection_len(&self, other: &WordSet) -> usize {
        shared_words(
            self.words.set(0..self.len()),
            other.words.set(0..other.len()),
        )
    }
}

/// Jaccard of two sets of `la` and `lb` words sharing `shared`; two empty
/// sets are identical.
fn jaccard_of(la: usize, lb: usize, shared: usize) -> f64 {
    if la == 0 && lb == 0 {
        return 1.0;
    }
    shared as f64 / (la + lb - shared) as f64
}

/// Jaccard similarity over normalized word sets. Allocates nothing once
/// its thread has seen texts as long.
pub fn jaccard_tokens(a: &str, b: &str) -> f64 {
    let (la, lb, shared) = word_set_counts(a, b);
    jaccard_of(la, lb, shared)
}

/// Overlap coefficient over normalized word sets:
/// `|A ∩ B| / min(|A|, |B|)`. More forgiving than Jaccard when one string is
/// a short form of the other (e.g. abbreviated product titles). Allocates
/// nothing once its thread has seen texts as long.
pub fn overlap_tokens(a: &str, b: &str) -> f64 {
    match word_set_counts(a, b) {
        (0, 0, _) => 1.0,
        (0, _, _) | (_, 0, _) => 0.0,
        (la, lb, shared) => shared as f64 / la.min(lb) as f64,
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

    /// Jaro in the form it had before its bit-parallel path: every call
    /// collects both strings' chars and builds four more vectors. The
    /// reference both paths must match bit for bit.
    fn vec_jaro(a: &str, b: &str) -> f64 {
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

    /// Jaro-Winkler over [`vec_jaro`].
    fn vec_jaro_winkler(a: &str, b: &str) -> f64 {
        let j = vec_jaro(a, b);
        let prefix = a
            .chars()
            .zip(b.chars())
            .take(4)
            .take_while(|(x, y)| x == y)
            .count();
        j + prefix as f64 * 0.1 * (1.0 - j)
    }

    #[test]
    fn jaro_paths_are_bit_equal_to_the_vector_form() {
        let mut rng = dprep_rng::Rng::seed_from_u64(0x1a40_b175);
        // Small alphabets repeat chars, so windows hold several candidates
        // and transpositions are common; the multi-byte ones force the
        // char path.
        let alphabets: [Vec<char>; 4] = [
            "ab".chars().collect(),
            "abcde ".chars().collect(),
            (' '..='~').collect(),
            "aé东b ".chars().collect(),
        ];
        let text = |rng: &mut dprep_rng::Rng, alphabet: &[char], len: usize| -> String {
            (0..len)
                .map(|_| *rng.choose(alphabet).expect("nonempty"))
                .collect()
        };
        // Pairs by path taken: [bit-parallel, char path].
        let mut paths = [0usize; 2];
        for round in 0..6_000 {
            let alphabet = &alphabets[round % alphabets.len()];
            // Lengths around the 64-byte edge, and short ones.
            let len_a = if rng.bool(0.5) {
                rng.range_incl(0usize, 12)
            } else {
                rng.range_incl(50usize, 140)
            };
            let len_b = if rng.bool(0.5) {
                rng.range_incl(0usize, 12)
            } else {
                rng.range_incl(56usize, 72)
            };
            let a = text(&mut rng, alphabet, len_a);
            let mut b = text(&mut rng, alphabet, len_b);
            if rng.bool(0.3) {
                // A near copy of `a`: a shared prefix, then shuffled.
                let mut chars: Vec<char> = a.chars().take(len_b).collect();
                let n = chars.len();
                if n > 4 {
                    let (i, j) = (rng.range_usize(0, n), rng.range_usize(0, n));
                    chars.swap(i, j);
                }
                b = chars.into_iter().collect();
            }
            for (x, y) in [(&a, &b), (&b, &a)] {
                assert_eq!(
                    jaro(x, y).to_bits(),
                    vec_jaro(x, y).to_bits(),
                    "{x:?} {y:?}"
                );
                assert_eq!(
                    jaro_winkler(x, y).to_bits(),
                    vec_jaro_winkler(x, y).to_bits(),
                    "{x:?} {y:?}"
                );
                paths[usize::from(!(x.is_ascii() && y.is_ascii() && y.len() <= 64))] += 1;
            }
        }
        for (a, b) in [
            ("", ""),
            ("a", ""),
            ("", "a"),
            ("aaaa", "aaaa"),
            ("aaaaaaaaaa", "a"),
            ("martha", "marhta"),
            ("dixon", "dicksonx"),
            ("东京", "京东"),
        ] {
            assert_eq!(
                jaro(a, b).to_bits(),
                vec_jaro(a, b).to_bits(),
                "{a:?} {b:?}"
            );
        }
        let exact = "x".repeat(64);
        let past = "x".repeat(65);
        for (a, b) in [(&exact, &exact), (&past, &exact), (&exact, &past)] {
            assert_eq!(jaro(a, b).to_bits(), vec_jaro(a, b).to_bits());
        }
        assert!(paths.iter().all(|&n| n > 2_000), "pairs by path: {paths:?}");
    }

    #[test]
    fn jaccard_and_overlap() {
        assert_eq!(jaccard_tokens("new york", "new york"), 1.0);
        assert_eq!(jaccard_tokens("", ""), 1.0);
        assert!((jaccard_tokens("new york city", "new york") - 2.0 / 3.0).abs() < 1e-12);
        // Overlap forgives the missing word entirely.
        assert_eq!(overlap_tokens("new york city", "new york"), 1.0);
        assert_eq!(overlap_tokens("abc", ""), 0.0);
        // Word sets are equal when their words are, whatever the texts'
        // order, case or repeats.
        let city = WordSet::from_texts(["York, new", "NEW york city"]);
        assert_eq!(city, WordSet::new("city new york"));
        assert_ne!(city, WordSet::new("new york"));
        assert_eq!(city.jaccard(&WordSet::new("new york")), 2.0 / 3.0);
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
