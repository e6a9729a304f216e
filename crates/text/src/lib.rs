//! # dprep-text
//!
//! Text-processing substrate: a deterministic subword tokenizer used for LLM
//! token accounting, normalization helpers, character/word n-grams, and the
//! string-similarity measures that power the simulated LLM's matching
//! heuristics and the classical baselines (edit distance and an
//! allocation-free one-edit test, Jaro-Winkler, Jaccard, Dice, TF cosine).

pub mod ngram;
pub mod normalize;
pub mod similarity;
pub mod tokenize;

pub use ngram::{char_ngrams, word_ngrams};
pub use normalize::{collapse_whitespace, normalize, normalize_into};
pub use similarity::{
    cosine_tf, dice_char_ngrams, jaccard_tokens, jaro, jaro_winkler, levenshtein,
    normalized_levenshtein, overlap_tokens, within_one_edit, WordSet,
};
pub use tokenize::{count_tokens, tokenize, Token};
