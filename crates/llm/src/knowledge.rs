//! The world-knowledge corpus and per-model memorization.
//!
//! A real LLM answers data-preprocessing questions out of knowledge absorbed
//! during pretraining: which city a phone area code belongs to, which brand
//! makes a product, what values are legal for a column, which attribute
//! names are synonyms, which abbreviations expand to what. In this
//! reproduction, dataset generators *publish* exactly the facts their
//! instances depend on as a [`KnowledgeBase`] — the "pretraining corpus" —
//! and each simulated model memorizes a deterministic subset of it sized by
//! its `knowledge_coverage` (GPT-4 ≈ 0.97 … Vicuna ≈ 0.55).
//!
//! Whether a model knows a given fact is a pure function of
//! `(fact key, model name, corpus seed)`, so it is stable across requests —
//! exactly like real memorization — without any hidden state.

use std::collections::HashMap;

use dprep_text::normalize;

use dprep_rng::StableHasher;

/// One world fact.
#[derive(Debug, Clone, PartialEq)]
pub enum Fact {
    /// A phone area-code prefix locates a city (e.g. `770` → Marietta).
    AreaCode {
        /// The dialing prefix, digits only.
        prefix: String,
        /// The city it implies.
        city: String,
    },
    /// A product-name token implies a manufacturer (e.g. `thinkpad` → Lenovo).
    Brand {
        /// Lowercase product token.
        token: String,
        /// Manufacturer name.
        manufacturer: String,
    },
    /// `value` is a legal member of `domain` (e.g. domain `city`,
    /// value `marietta`). Used for typo detection.
    LexiconMember {
        /// Domain name, conventionally the attribute name.
        domain: String,
        /// A legal value, normalized lowercase.
        value: String,
    },
    /// Plausible numeric range for an attribute (e.g. `age` ∈ [17, 95]).
    NumericRange {
        /// Attribute name.
        attribute: String,
        /// Minimum plausible value.
        min: f64,
        /// Maximum plausible value.
        max: f64,
    },
    /// Two attribute names/descriptions refer to the same concept
    /// (schema matching).
    AttrSynonym {
        /// One normalized name.
        a: String,
        /// The other normalized name.
        b: String,
    },
    /// `variant` is another writing of `canonical`
    /// (e.g. `ipa` → `india pale ale`). Used by entity matching.
    Alias {
        /// Canonical form, normalized lowercase.
        canonical: String,
        /// Variant form, normalized lowercase.
        variant: String,
    },
    /// A token observed anywhere in a record implies a value for some
    /// attribute (e.g. token `powers ferry` implies `city` = `marietta`).
    /// The generic imputation cue.
    Cue {
        /// Attribute whose value is implied.
        attribute: String,
        /// Normalized lowercase token or phrase.
        token: String,
        /// Implied value.
        value: String,
    },
}

impl Fact {
    /// A stable identity string used for memorization hashing.
    pub fn key(&self) -> String {
        let mut key = String::new();
        self.write_key(&mut key);
        key
    }

    /// Writes the fact's [`key`](Fact::key) to `out` (a string, or a
    /// hasher that never needs the string).
    fn write_key(&self, out: &mut impl std::fmt::Write) {
        let _ = match self {
            Fact::AreaCode { prefix, city } => write!(out, "area:{prefix}:{city}"),
            Fact::Brand {
                token,
                manufacturer,
            } => write!(out, "brand:{token}:{manufacturer}"),
            Fact::LexiconMember { domain, value } => write!(out, "lex:{domain}:{value}"),
            Fact::NumericRange { attribute, .. } => write!(out, "range:{attribute}"),
            Fact::AttrSynonym { a, b } => {
                let (x, y) = if a <= b { (a, b) } else { (b, a) };
                write!(out, "syn:{x}:{y}")
            }
            Fact::Alias { canonical, variant } => write!(out, "alias:{canonical}:{variant}"),
            Fact::Cue {
                attribute,
                token,
                value,
            } => write!(out, "cue:{attribute}:{token}:{value}"),
        };
    }

    /// How long-tail this fact is: the exponent applied to a model's
    /// knowledge coverage when deciding retention (see
    /// [`Memorizer::knows`]). 1.0 = baseline; below 1 = common sense;
    /// above 1 = obscure.
    pub fn rarity(&self) -> f64 {
        match self {
            // "Ages run 0–100" is universal common sense.
            Fact::NumericRange { .. } => 0.2,
            Fact::LexiconMember { .. } => 0.8,
            Fact::Alias { .. } => 1.0,
            Fact::AreaCode { .. } => 1.0,
            // Consumer brands are heavily represented in web text.
            Fact::Brand { .. } => 0.6,
            // Cryptic cross-schema synonyms and niche cues are long-tail.
            Fact::AttrSynonym { .. } => 1.3,
            Fact::Cue { .. } => 1.2,
        }
    }
}

/// Decides which facts a given model has memorized.
#[derive(Debug, Clone)]
pub struct Memorizer {
    /// Model name, part of the hash so different models know different
    /// subsets.
    pub model_name: String,
    /// Fraction of facts known, in `[0, 1]`.
    pub coverage: f64,
    /// Corpus seed.
    pub seed: u64,
}

impl Memorizer {
    /// True when this model memorized `fact`.
    ///
    /// A fact's retention probability is `coverage^rarity(fact)`: common-
    /// sense facts (plausible numeric ranges) are retained by almost any
    /// model, while long-tail facts (street-name cues, cryptic schema
    /// synonyms) track the raw coverage or worse.
    pub fn knows(&self, fact: &Fact) -> bool {
        // The hash of `"{model name}::{fact key}"`, streamed.
        let mut hasher = StableHasher::new(self.seed);
        hasher.write(self.model_name.as_bytes());
        hasher.write(b"::");
        fact.write_key(&mut hasher);
        let h = hasher.finish();
        let effective = self.coverage.powf(fact.rarity());
        // Map to [0,1) and compare against coverage.
        (h as f64 / u64::MAX as f64) < effective
    }
}

/// One model's memorized lexicons, built once per model by
/// [`KnowledgeBase::lexicon_view`]: for every domain, the members the model
/// knows, in corpus order, each normalized. A value is then checked against
/// a domain in one pass over prepared strings, with no memorization hash
/// and no normalization per member.
#[derive(Debug, Clone)]
pub struct LexiconView {
    domains: HashMap<String, Vec<KnownMember>>,
}

impl LexiconView {
    /// The memorized members of `domain`, in corpus order.
    pub fn members(&self, domain: &str) -> &[KnownMember] {
        self.domains.get(domain).map_or(&[], Vec::as_slice)
    }
}

/// A memorized lexicon member. Its raw value stays in the corpus; see
/// [`KnowledgeBase::member_value`].
#[derive(Debug, Clone)]
pub struct KnownMember {
    /// Index of the member's fact in the corpus the view was built from.
    fact: usize,
    /// The member's value, normalized.
    pub norm: String,
}

/// The world-knowledge corpus with lookup indices.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    facts: Vec<Fact>,
    area_codes: HashMap<String, usize>,
    brands: HashMap<String, usize>,
    lexicons: HashMap<String, Vec<usize>>,
    ranges: HashMap<String, usize>,
    synonyms: HashMap<(String, String), usize>,
    aliases: HashMap<String, usize>,
    /// attribute -> (token -> fact index)
    cues: HashMap<String, HashMap<String, usize>>,
}

impl KnowledgeBase {
    /// An empty corpus.
    pub fn new() -> Self {
        KnowledgeBase::default()
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True when the corpus holds no facts.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// All facts.
    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }

    /// Adds one fact, indexing it for lookup.
    pub fn add(&mut self, fact: Fact) {
        let idx = self.facts.len();
        match &fact {
            Fact::AreaCode { prefix, .. } => {
                self.area_codes.insert(prefix.clone(), idx);
            }
            Fact::Brand { token, .. } => {
                self.brands.insert(token.clone(), idx);
            }
            Fact::LexiconMember { domain, .. } => {
                self.lexicons.entry(domain.clone()).or_default().push(idx);
            }
            Fact::NumericRange { attribute, .. } => {
                self.ranges.insert(attribute.clone(), idx);
            }
            Fact::AttrSynonym { a, b } => {
                let key = if a <= b {
                    (a.clone(), b.clone())
                } else {
                    (b.clone(), a.clone())
                };
                self.synonyms.insert(key, idx);
            }
            Fact::Alias { variant, .. } => {
                self.aliases.insert(variant.clone(), idx);
            }
            Fact::Cue {
                attribute, token, ..
            } => {
                self.cues
                    .entry(attribute.clone())
                    .or_default()
                    .insert(token.clone(), idx);
            }
        }
        self.facts.push(fact);
    }

    /// Bulk-add facts.
    pub fn extend(&mut self, facts: impl IntoIterator<Item = Fact>) {
        for f in facts {
            self.add(f);
        }
    }

    /// Merges another knowledge base into this one.
    pub fn merge(&mut self, other: &KnowledgeBase) {
        for f in other.facts() {
            self.add(f.clone());
        }
    }

    /// City implied by a phone prefix, if the model knows the fact.
    pub fn city_for_area_code(&self, mem: &Memorizer, prefix: &str) -> Option<&str> {
        let idx = *self.area_codes.get(prefix)?;
        let fact = &self.facts[idx];
        if !mem.knows(fact) {
            return None;
        }
        match fact {
            Fact::AreaCode { city, .. } => Some(city),
            _ => unreachable!("index points at an AreaCode fact"),
        }
    }

    /// Manufacturer implied by a product token, if known.
    pub fn manufacturer_for_token(&self, mem: &Memorizer, token: &str) -> Option<&str> {
        let idx = *self.brands.get(token)?;
        let fact = &self.facts[idx];
        if !mem.knows(fact) {
            return None;
        }
        match fact {
            Fact::Brand { manufacturer, .. } => Some(manufacturer),
            _ => unreachable!("index points at a Brand fact"),
        }
    }

    /// The values of `domain` this model has memorized.
    pub fn known_lexicon<'a>(
        &'a self,
        mem: &'a Memorizer,
        domain: &str,
    ) -> impl Iterator<Item = &'a str> + 'a {
        self.lexicons
            .get(domain)
            .into_iter()
            .flatten()
            .filter_map(move |&idx| {
                let fact = &self.facts[idx];
                if !mem.knows(fact) {
                    return None;
                }
                match fact {
                    Fact::LexiconMember { value, .. } => Some(value.as_str()),
                    _ => None,
                }
            })
    }

    /// Every lexicon as `mem` memorized it: [`known_lexicon`] of each
    /// domain, normalized.
    ///
    /// [`known_lexicon`]: KnowledgeBase::known_lexicon
    pub fn lexicon_view(&self, mem: &Memorizer) -> LexiconView {
        let domains = self
            .lexicons
            .iter()
            .map(|(domain, facts)| {
                let members = facts
                    .iter()
                    .filter_map(|&fact| match &self.facts[fact] {
                        Fact::LexiconMember { value, .. } if mem.knows(&self.facts[fact]) => {
                            Some(KnownMember {
                                fact,
                                norm: normalize(value),
                            })
                        }
                        _ => None,
                    })
                    .collect();
                (domain.clone(), members)
            })
            .collect();
        LexiconView { domains }
    }

    /// The raw value of `member`, from a view of this corpus.
    pub fn member_value(&self, member: &KnownMember) -> &str {
        match &self.facts[member.fact] {
            Fact::LexiconMember { value, .. } => value,
            _ => unreachable!("a lexicon view indexes LexiconMember facts"),
        }
    }

    /// True when the corpus has any lexicon for `domain` (whether or not the
    /// model memorized its members).
    pub fn has_lexicon(&self, domain: &str) -> bool {
        self.lexicons.contains_key(domain)
    }

    /// Plausible numeric range for an attribute, if known.
    pub fn numeric_range(&self, mem: &Memorizer, attribute: &str) -> Option<(f64, f64)> {
        let idx = *self.ranges.get(attribute)?;
        let fact = &self.facts[idx];
        if !mem.knows(fact) {
            return None;
        }
        match fact {
            Fact::NumericRange { min, max, .. } => Some((*min, *max)),
            _ => unreachable!("index points at a NumericRange fact"),
        }
    }

    /// True when the model knows `a` and `b` name the same concept.
    pub fn are_synonyms(&self, mem: &Memorizer, a: &str, b: &str) -> bool {
        let key = if a <= b {
            (a.to_string(), b.to_string())
        } else {
            (b.to_string(), a.to_string())
        };
        match self.synonyms.get(&key) {
            Some(&idx) => mem.knows(&self.facts[idx]),
            None => false,
        }
    }

    /// Value of `attribute` implied by `token`, if the model knows the cue.
    pub fn cue_value<'a>(
        &'a self,
        mem: &Memorizer,
        attribute: &str,
        token: &str,
    ) -> Option<&'a str> {
        let idx = *self.cues.get(attribute)?.get(token)?;
        let fact = &self.facts[idx];
        if !mem.knows(fact) {
            return None;
        }
        match fact {
            Fact::Cue { value, .. } => Some(value),
            _ => unreachable!("index points at a Cue fact"),
        }
    }

    /// Canonical form of `variant`, if the model knows the alias.
    pub fn canonicalize<'a>(&'a self, mem: &Memorizer, variant: &str) -> Option<&'a str> {
        let idx = *self.aliases.get(variant)?;
        let fact = &self.facts[idx];
        if !mem.knows(fact) {
            return None;
        }
        match fact {
            Fact::Alias { canonical, .. } => Some(canonical),
            _ => unreachable!("index points at an Alias fact"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_memorizer() -> Memorizer {
        Memorizer {
            model_name: "test".into(),
            coverage: 1.0,
            seed: 0,
        }
    }

    fn sample_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.add(Fact::AreaCode {
            prefix: "770".into(),
            city: "marietta".into(),
        });
        kb.add(Fact::Brand {
            token: "thinkpad".into(),
            manufacturer: "lenovo".into(),
        });
        kb.add(Fact::LexiconMember {
            domain: "city".into(),
            value: "atlanta".into(),
        });
        kb.add(Fact::LexiconMember {
            domain: "city".into(),
            value: "marietta".into(),
        });
        kb.add(Fact::NumericRange {
            attribute: "age".into(),
            min: 17.0,
            max: 95.0,
        });
        kb.add(Fact::AttrSynonym {
            a: "zip".into(),
            b: "postal code".into(),
        });
        kb.add(Fact::Alias {
            canonical: "india pale ale".into(),
            variant: "ipa".into(),
        });
        kb.add(Fact::Cue {
            attribute: "city".into(),
            token: "powers ferry".into(),
            value: "marietta".into(),
        });
        kb
    }

    #[test]
    fn cue_lookup() {
        let kb = sample_kb();
        let mem = full_memorizer();
        assert_eq!(kb.cue_value(&mem, "city", "powers ferry"), Some("marietta"));
        assert_eq!(kb.cue_value(&mem, "city", "nowhere st"), None);
        assert_eq!(kb.cue_value(&mem, "state", "powers ferry"), None);
    }

    #[test]
    fn lookups_with_full_coverage() {
        let kb = sample_kb();
        let mem = full_memorizer();
        assert_eq!(kb.city_for_area_code(&mem, "770"), Some("marietta"));
        assert_eq!(kb.city_for_area_code(&mem, "000"), None);
        assert_eq!(kb.manufacturer_for_token(&mem, "thinkpad"), Some("lenovo"));
        assert_eq!(kb.numeric_range(&mem, "age"), Some((17.0, 95.0)));
        assert!(kb.are_synonyms(&mem, "postal code", "zip"));
        assert!(!kb.are_synonyms(&mem, "zip", "city"));
        assert_eq!(kb.canonicalize(&mem, "ipa"), Some("india pale ale"));
        let cities: Vec<&str> = kb.known_lexicon(&mem, "city").collect();
        assert_eq!(cities, vec!["atlanta", "marietta"]);
        assert!(kb.has_lexicon("city"));
        assert!(!kb.has_lexicon("nope"));
    }

    #[test]
    fn zero_coverage_knows_nothing() {
        let kb = sample_kb();
        let mem = Memorizer {
            model_name: "amnesiac".into(),
            coverage: 0.0,
            seed: 0,
        };
        assert_eq!(kb.city_for_area_code(&mem, "770"), None);
        assert_eq!(kb.numeric_range(&mem, "age"), None);
        assert!(!kb.are_synonyms(&mem, "zip", "postal code"));
        assert_eq!(kb.known_lexicon(&mem, "city").count(), 0);
    }

    #[test]
    fn memorization_is_deterministic_and_model_specific() {
        let kb = sample_kb();
        let half_a = Memorizer {
            model_name: "model-a".into(),
            coverage: 0.5,
            seed: 9,
        };
        let half_b = Memorizer {
            model_name: "model-b".into(),
            coverage: 0.5,
            seed: 9,
        };
        let known_a: Vec<bool> = kb.facts().iter().map(|f| half_a.knows(f)).collect();
        let known_a2: Vec<bool> = kb.facts().iter().map(|f| half_a.knows(f)).collect();
        let known_b: Vec<bool> = kb.facts().iter().map(|f| half_b.knows(f)).collect();
        assert_eq!(known_a, known_a2);
        assert_ne!(
            known_a, known_b,
            "different models memorize different subsets"
        );
    }

    #[test]
    fn coverage_controls_fraction_known() {
        // Over many synthetic facts, the fraction known should approximate
        // the coverage parameter.
        let mut kb = KnowledgeBase::new();
        for i in 0..2000 {
            kb.add(Fact::LexiconMember {
                domain: "d".into(),
                value: format!("value-{i}"),
            });
        }
        let mem = Memorizer {
            model_name: "m".into(),
            coverage: 0.7,
            seed: 3,
        };
        let known = kb.facts().iter().filter(|f| mem.knows(f)).count();
        let frac = known as f64 / 2000.0;
        // Retention is coverage^rarity; lexicon facts have rarity 0.8.
        let expected = 0.7f64.powf(
            Fact::LexiconMember {
                domain: String::new(),
                value: String::new(),
            }
            .rarity(),
        );
        assert!(
            (frac - expected).abs() < 0.04,
            "frac = {frac}, expected {expected:.3}"
        );
    }

    #[test]
    fn lexicon_view_is_the_normalized_known_lexicon() {
        let mut kb = sample_kb();
        for i in 0..300 {
            kb.add(Fact::LexiconMember {
                domain: ["city", "state", "Team Name"][i % 3].into(),
                value: format!("Value-{i}. É{}", "'s".repeat(i % 2)),
            });
        }
        let mem = Memorizer {
            model_name: "m".into(),
            coverage: 0.55,
            seed: 11,
        };
        let view = kb.lexicon_view(&mem);
        for domain in ["city", "state", "Team Name", "absent"] {
            let members = view.members(domain);
            let known: Vec<&str> = kb.known_lexicon(&mem, domain).collect();
            let raw: Vec<&str> = members.iter().map(|m| kb.member_value(m)).collect();
            let norms: Vec<&str> = members.iter().map(|m| m.norm.as_str()).collect();
            assert_eq!(raw, known, "{domain}");
            assert_eq!(
                norms,
                known.iter().map(|v| normalize(v)).collect::<Vec<_>>(),
                "{domain}"
            );
        }
        // Coverage 0.55 keeps some members of each domain and drops others.
        let cities = view.members("city").len();
        assert!(cities > 20 && cities < 100, "{cities} cities known");
    }

    #[test]
    fn merge_combines_corpora() {
        let mut a = sample_kb();
        let mut b = KnowledgeBase::new();
        b.add(Fact::AreaCode {
            prefix: "404".into(),
            city: "atlanta".into(),
        });
        a.merge(&b);
        let mem = full_memorizer();
        assert_eq!(a.city_for_area_code(&mem, "404"), Some("atlanta"));
        assert_eq!(a.city_for_area_code(&mem, "770"), Some("marietta"));
    }

    #[test]
    fn synonym_key_is_order_insensitive() {
        let f1 = Fact::AttrSynonym {
            a: "x".into(),
            b: "y".into(),
        };
        let f2 = Fact::AttrSynonym {
            a: "y".into(),
            b: "x".into(),
        };
        assert_eq!(f1.key(), f2.key());
    }

    #[test]
    fn streamed_memorization_hash_matches_the_formatted_key() {
        let facts = [
            Fact::AreaCode {
                prefix: "770".into(),
                city: "marietta".into(),
            },
            Fact::Brand {
                token: "thinkpad".into(),
                manufacturer: "lenovo".into(),
            },
            Fact::LexiconMember {
                domain: "city".into(),
                value: "münchen".into(),
            },
            Fact::NumericRange {
                attribute: "age".into(),
                min: 0.0,
                max: 1.0,
            },
            Fact::AttrSynonym {
                a: "zip".into(),
                b: "postcode".into(),
            },
            Fact::Alias {
                canonical: "india pale ale".into(),
                variant: "ipa".into(),
            },
            Fact::Cue {
                attribute: "city".into(),
                token: "powers ferry".into(),
                value: "marietta".into(),
            },
        ];
        let mut known = 0;
        for seed in 0..64u64 {
            for model_name in ["sim-gpt-4", "sim-gpt-3.5", ""] {
                let mem = Memorizer {
                    model_name: model_name.into(),
                    coverage: 0.5,
                    seed,
                };
                for fact in &facts {
                    let key = format!("{}::{}", mem.model_name, fact.key());
                    let h = dprep_rng::stable_hash(seed, key.as_bytes());
                    let formatted = (h as f64 / u64::MAX as f64) < 0.5f64.powf(fact.rarity());
                    assert_eq!(mem.knows(fact), formatted, "{key}");
                    known += usize::from(formatted);
                }
            }
        }
        assert!(known > 200 && known < 64 * 3 * 7 - 200, "{known}");
    }
}
