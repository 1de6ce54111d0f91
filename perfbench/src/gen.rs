//! Seeded inputs: the paper §5 synthetic corpus, the query pool, and the
//! fresh-string streams. Everything here is a pure function of the seed;
//! the daemon only ever sees the request lines built from it.

use lexequal::{G2pRegistry, Language, MatchConfig, PhonemeString, Route, Router, ScriptProfile};
use lexequal_lexicon::Corpus as Lexicon;
use std::collections::{BTreeSet, HashSet};

/// splitmix64: small, fast and good enough to pick names.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Paper §5 thresholds, cycled through the query pool.
const THRESHOLDS: [f64; 3] = [0.25, 0.35, 0.45];

/// One stored name with the phonemes the daemon derives for it.
#[derive(Clone, Debug)]
pub struct Entry {
    pub text: String,
    pub lang: Language,
    pub phon: PhonemeString,
}

/// Base names by script, each validated to transform on its own.
pub struct Bases {
    /// `(english, hindi, tamil)` renderings of one lexicon name.
    pub triples: Vec<[String; 3]>,
    /// Total phoneme length of each triple's three renderings.
    pub lengths: Vec<usize>,
    pub greek: Vec<String>,
    pub cyrillic: Vec<String>,
}

impl Bases {
    pub fn build(config: &MatchConfig) -> Bases {
        let lex = Lexicon::build(config);
        let reg = &config.registry;
        let mut triples = Vec::new();
        let mut lengths = Vec::new();
        for group in lex.entries.chunks_exact(3) {
            let langs = [Language::English, Language::Hindi, Language::Tamil];
            if group.iter().zip(langs).all(|(e, l)| e.language == l) {
                triples.push([
                    group[0].text.clone(),
                    group[1].text.clone(),
                    group[2].text.clone(),
                ]);
                lengths.push(group.iter().map(|e| e.phonemes.len()).sum());
            }
        }
        let derive = |map: fn(char) -> &'static str, lang: Language| -> Vec<String> {
            triples
                .iter()
                .map(|t| t[0].to_lowercase().chars().map(map).collect::<String>())
                .filter(|s| !s.is_empty() && reg.transform(s, lang).is_ok_and(|p| !p.is_empty()))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect()
        };
        Bases {
            greek: derive(greek_letter, Language::Greek),
            cyrillic: derive(cyrillic_letter, Language::Russian),
            triples,
            lengths,
        }
    }
}

fn greek_letter(c: char) -> &'static str {
    match c {
        'a' => "α",
        'b' | 'v' => "β",
        'c' | 'k' | 'q' => "κ",
        'd' => "δ",
        'e' => "ε",
        'f' => "φ",
        'g' => "γ",
        'h' => "",
        'i' | 'y' => "ι",
        'j' | 'z' => "ζ",
        'l' => "λ",
        'm' => "μ",
        'n' => "ν",
        'o' => "ο",
        'p' => "π",
        'r' => "ρ",
        's' => "σ",
        't' => "τ",
        'u' => "υ",
        'w' => "ου",
        'x' => "ξ",
        _ => "",
    }
}

fn cyrillic_letter(c: char) -> &'static str {
    match c {
        'a' => "а",
        'b' => "б",
        'c' | 'k' | 'q' => "к",
        'd' => "д",
        'e' => "е",
        'f' => "ф",
        'g' => "г",
        'h' => "х",
        'i' => "и",
        'j' => "дж",
        'l' => "л",
        'm' => "м",
        'n' => "н",
        'o' => "о",
        'p' => "п",
        'r' => "р",
        's' => "с",
        't' => "т",
        'u' => "у",
        'v' | 'w' => "в",
        'x' => "кс",
        'y' => "й",
        'z' => "з",
        _ => "",
    }
}

/// One seeded pick from each of `k` equal strata of `order`. With
/// `order` sorted by phoneme length, every seed draws a sample of the
/// same length profile, so the work per request varies little with the
/// seed while the names themselves do.
fn stratified(order: &[usize], k: usize, rng: &mut Rng) -> Vec<usize> {
    let k = k.min(order.len());
    (0..k)
        .map(|s| {
            let (lo, hi) = (s * order.len() / k, (s + 1) * order.len() / k);
            order[lo + rng.below(hi - lo)]
        })
        .collect()
}

/// The synthetic corpus: every ordered in-language pair of `n` seeded
/// base names in English, Hindi and Tamil, in seeded order. `n` is the
/// paper generator's choice for the target size (83 for 20K names); the
/// names are drawn one per length stratum of the lexicon.
pub fn corpus(bases: &Bases, reg: &G2pRegistry, target: usize, rng: &mut Rng) -> Vec<Entry> {
    let per_language = target / 3;
    let n = ((1.0 + (1.0 + 4.0 * per_language as f64).sqrt()) / 2.0).ceil() as usize;
    let mut order: Vec<usize> = (0..bases.triples.len()).collect();
    order.sort_by_key(|&i| (bases.lengths[i], i));
    let picks = stratified(&order, n, rng);
    let mut entries = Vec::with_capacity(3 * n * (n - 1));
    for (li, lang) in [Language::English, Language::Hindi, Language::Tamil]
        .into_iter()
        .enumerate()
    {
        for &a in &picks {
            for &b in &picks {
                if a == b {
                    continue;
                }
                let text = format!("{}{}", bases.triples[a][li], bases.triples[b][li]);
                let phon = reg
                    .transform(&text, lang)
                    .expect("concatenated base names transform");
                entries.push(Entry { text, lang, phon });
            }
        }
    }
    rng.shuffle(&mut entries);
    entries
}

/// `count` distinct stored names, one per phoneme-length stratum of the
/// corpus, each with its paper threshold (cycled along the strata), in
/// seeded order.
pub fn pool(corpus: &[Entry], count: usize, rng: &mut Rng) -> Vec<(usize, f64)> {
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    order.sort_by_key(|&i| (corpus[i].phon.len(), i));
    let mut pool: Vec<(usize, f64)> = stratified(&order, count, rng)
        .into_iter()
        .enumerate()
        .map(|(j, i)| (i, THRESHOLDS[j % THRESHOLDS.len()]))
        .collect();
    rng.shuffle(&mut pool);
    pool
}

/// One generated request string and how it is sent.
#[derive(Clone, Debug)]
pub struct Fresh {
    pub text: String,
    /// `None` = untagged (`-`).
    pub lang: Option<Language>,
}

/// Distinct, never-stored strings: seeded 2–3-name concatenations in
/// Latin, Devanagari, Tamil, Greek and Cyrillic, half tagged, with a
/// Hangul/Thai `NORESOURCE` probe every 50th request.
pub struct FreshGen<'a> {
    bases: &'a Bases,
    rng: Rng,
    seen: HashSet<String>,
    issued: u64,
    /// Names per string: 2 or 3 (`ADD`s use 2 and the three paper
    /// languages only).
    max_parts: usize,
    all_scripts: bool,
}

impl<'a> FreshGen<'a> {
    /// Query stream: five scripts, 2–3 names, probes included.
    pub fn queries(bases: &'a Bases, stored: &HashSet<String>, seed: u64) -> FreshGen<'a> {
        FreshGen {
            bases,
            rng: Rng::new(seed, 7),
            seen: stored.clone(),
            issued: 0,
            max_parts: 3,
            all_scripts: true,
        }
    }

    /// `ADD` stream: 2-name En/Hi/Ta concatenations, half untagged.
    pub fn adds(bases: &'a Bases, stored: &HashSet<String>, seed: u64) -> FreshGen<'a> {
        FreshGen {
            bases,
            rng: Rng::new(seed, 11),
            seen: stored.clone(),
            issued: 0,
            max_parts: 2,
            all_scripts: false,
        }
    }

    pub fn next(&mut self) -> Fresh {
        loop {
            let k = self.issued;
            let tagged = k % 2 == 1;
            let f = if self.all_scripts && k % 50 == 49 {
                self.probe(tagged)
            } else {
                self.concat(tagged)
            };
            if self.seen.insert(f.text.clone()) {
                self.issued += 1;
                return f;
            }
        }
    }

    fn concat(&mut self, tagged: bool) -> Fresh {
        let parts = if self.max_parts == 3 {
            2 + self.rng.below(2)
        } else {
            2
        };
        // Script weights: Latin 4, Devanagari 2, Tamil 2, Greek 1, Cyrillic 1.
        let script = if self.all_scripts {
            [0, 0, 0, 0, 1, 1, 2, 2, 3, 4][self.rng.below(10)]
        } else {
            self.rng.below(3)
        };
        let b = self.bases;
        let mut text = String::new();
        for _ in 0..parts {
            let s = match script {
                0..=2 => &b.triples[self.rng.below(b.triples.len())][script],
                3 => &b.greek[self.rng.below(b.greek.len())],
                _ => &b.cyrillic[self.rng.below(b.cyrillic.len())],
            };
            text.push_str(s);
        }
        let lang = match script {
            0 if self.all_scripts => {
                [Language::English, Language::French, Language::Spanish][self.rng.below(3)]
            }
            // ADDs in Latin are tagged English: the paper corpus is En/Hi/Ta.
            0 => Language::English,
            1 => Language::Hindi,
            2 => Language::Tamil,
            3 => Language::Greek,
            _ => Language::Russian,
        };
        Fresh {
            text,
            lang: tagged.then_some(lang),
        }
    }

    fn probe(&mut self, tagged: bool) -> Fresh {
        let len = 2 + self.rng.below(3);
        if self.rng.below(2) == 0 {
            let text: String = (0..len)
                .map(|_| char::from_u32(0xAC00 + self.rng.below(11172) as u32).expect("hangul"))
                .collect();
            Fresh {
                text,
                lang: tagged.then_some(Language::Korean),
            }
        } else {
            let text: String = (0..len + 2)
                .map(|_| char::from_u32(0x0E01 + self.rng.below(46) as u32).expect("thai"))
                .collect();
            Fresh {
                text,
                lang: tagged.then_some(Language::Thai),
            }
        }
    }
}

/// The languages a request is transformed under, as the daemon routes
/// it: the tag itself, or the script profile's route for an untagged
/// request. `Err(lang)` is the paper's `NORESOURCE`.
pub fn route(
    reg: &G2pRegistry,
    text: &str,
    lang: Option<Language>,
) -> Result<Vec<Language>, Language> {
    if let Some(l) = lang {
        return if reg.supports(l) { Ok(vec![l]) } else { Err(l) };
    }
    match Router::route(&ScriptProfile::of(text)) {
        Route::Single(l) if reg.supports(l) => Ok(vec![l]),
        Route::Single(l) | Route::NoResource(l) => Err(l),
        Route::FanOut(set) => {
            let langs: Vec<Language> = set.iter().copied().filter(|l| reg.supports(*l)).collect();
            if langs.is_empty() {
                Err(set[0])
            } else {
                Ok(langs)
            }
        }
        Route::Unsupported(_) | Route::NoLetters => Ok(Vec::new()),
    }
}

/// The language an untagged `ADD` commits under: the first routed
/// language whose converter accepts the text.
pub fn resolve_add(reg: &G2pRegistry, text: &str) -> Option<Language> {
    route(reg, text, None)
        .ok()?
        .into_iter()
        .find(|l| reg.transform(text, *l).is_ok())
}
