//! Expected answers, computed off the clock, and the reply checks.
//!
//! Lossless answers come from a naive loop of `LexEqual::matches_phonemes`
//! (the predicate the `mdb` LexEQUAL UDF evaluates: no screens, no
//! batching). `phonidx` answers come from `core::phonidx` on one
//! unsharded `NameStore`. Untagged answers are the union of the routed
//! tagged answers.

use crate::gen::{self, Entry};
use lexequal::store::NameEntry;
use lexequal::{Language, LexEqual, MatchConfig, NameStore, PhonemeString, SearchMethod};

/// What the daemon should answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    Ids(Vec<u32>),
    NoResource(Language),
}

/// A parsed reply line.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    Ids { ids: Vec<u32>, e: f64 },
    NoResource(Language),
    Other(String),
}

pub fn parse_reply(line: &str) -> Reply {
    if let Some(rest) = line.strip_prefix("NORESOURCE ") {
        if let Ok(l) = rest.trim().parse::<Language>() {
            return Reply::NoResource(l);
        }
    }
    if line.starts_with("OK n=") {
        let field = |k: &str| {
            line.split_whitespace()
                .find_map(|kv| kv.strip_prefix(k).and_then(|v| v.strip_prefix('=')))
        };
        let (Some(n), Some(e), Some(ids)) = (field("n"), field("e"), field("ids")) else {
            return Reply::Other(line.to_owned());
        };
        let ids: Result<Vec<u32>, _> = ids
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::parse)
            .collect();
        if let (Ok(ids), Ok(n), Ok(e)) = (ids, n.parse::<usize>(), e.parse::<f64>()) {
            if ids.len() == n && ids.windows(2).all(|w| w[0] < w[1]) {
                return Reply::Ids { ids, e };
            }
        }
    }
    Reply::Other(line.to_owned())
}

/// Check one reply against its expectation at threshold `e`.
pub fn check(reply: &str, expect: &Expect, e: f64) -> Result<(), String> {
    match (parse_reply(reply), expect) {
        (Reply::Ids { ids, e: got_e }, Expect::Ids(want)) => {
            if got_e != e {
                return Err(format!("threshold e={got_e}, asked {e}"));
            }
            if &ids != want {
                return Err(diff(&ids, want));
            }
            Ok(())
        }
        (Reply::NoResource(l), Expect::NoResource(w)) if l == *w => Ok(()),
        (_, want) => Err(format!("expected {}", describe(want))),
    }
}

fn describe(e: &Expect) -> String {
    match e {
        Expect::Ids(ids) => format!("{} id(s)", ids.len()),
        Expect::NoResource(l) => format!("NORESOURCE {l}"),
    }
}

fn diff(got: &[u32], want: &[u32]) -> String {
    let extra: Vec<u32> = got.iter().filter(|i| !want.contains(i)).copied().collect();
    let missing: Vec<u32> = want.iter().filter(|i| !got.contains(i)).copied().collect();
    format!("ids differ: extra {extra:?}, missing {missing:?}")
}

/// The naive lossless answer: every corpus id whose phonemes satisfy the
/// predicate against `q` (candidate on the left, as every access path
/// calls it).
pub fn naive(op: &LexEqual, corpus: &[Entry], q: &PhonemeString, e: f64) -> Vec<u32> {
    corpus
        .iter()
        .enumerate()
        .filter(|(_, c)| op.matches_phonemes(&c.phon, q, e))
        .map(|(i, _)| i as u32)
        .collect()
}

/// Naive answers for many `(query, e)` pairs, split over two threads.
pub fn naive_many(
    op: &LexEqual,
    corpus: &[Entry],
    queries: &[(PhonemeString, f64)],
) -> Vec<Vec<u32>> {
    let half = queries.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = queries
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|(q, e)| naive(op, corpus, q, *e))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    })
}

/// `phonidx` answers from one unsharded store.
pub struct PhonidxOracle {
    store: NameStore,
    config: MatchConfig,
}

impl PhonidxOracle {
    pub fn new(config: &MatchConfig, corpus: &[Entry]) -> PhonidxOracle {
        let mut store = NameStore::new(config.clone());
        store.extend_transformed(
            corpus
                .iter()
                .map(|c| NameEntry {
                    text: c.text.clone(),
                    language: c.lang,
                    phonemes: c.phon.clone(),
                })
                .collect(),
        );
        store.build_phonetic_index();
        PhonidxOracle {
            store,
            config: config.clone(),
        }
    }

    /// The expected answer to `MATCH <lang|-> phonidx <e> <text>`.
    pub fn expect(&self, text: &str, lang: Option<Language>, e: f64) -> Expect {
        let reg = &self.config.registry;
        match gen::route(reg, text, lang) {
            Err(l) => Expect::NoResource(l),
            Ok(langs) => {
                let mut ids: Vec<u32> = Vec::new();
                for l in langs {
                    if let Ok(q) = reg.transform(text, l) {
                        ids.extend(
                            self.store
                                .search_phonemes(&q, e, SearchMethod::PhoneticIndex)
                                .ids,
                        );
                    }
                }
                ids.sort_unstable();
                ids.dedup();
                Expect::Ids(ids)
            }
        }
    }
}

/// One acknowledged (or at least sent) `ADD` of the write stream.
#[derive(Clone, Debug)]
pub struct AddRec {
    pub id: u32,
    pub phon: PhonemeString,
    pub sent: u64,
    pub acked: u64,
}

/// Check a `MATCH` reply served while the corpus grew. Ids below `n0`
/// must equal the oracle on the initial corpus; every other id must be
/// an `ADD` sent before the reply arrived whose text the predicate
/// matches; and every matching `ADD` acknowledged before the request was
/// sent must be there. `adds` is sorted by id and `matching` lists the
/// positions in `adds` whose phonemes satisfy the predicate for this
/// query and threshold.
#[allow(clippy::too_many_arguments)]
pub fn check_growing(
    reply: &str,
    base: &[u32],
    n0: u32,
    adds: &[AddRec],
    matching: &[usize],
    e: f64,
    sent: u64,
    done: u64,
) -> Result<(), String> {
    let Reply::Ids { ids, e: got_e } = parse_reply(reply) else {
        return Err("expected an id list".to_owned());
    };
    if got_e != e {
        return Err(format!("threshold e={got_e}, asked {e}"));
    }
    let (old, new): (Vec<u32>, Vec<u32>) = ids.iter().partition(|&&i| i < n0);
    if old != base {
        return Err(diff(&old, base));
    }
    for id in &new {
        let Ok(pos) = adds.binary_search_by_key(id, |a| a.id) else {
            return Err(format!("id {id} belongs to no ADD"));
        };
        if adds[pos].sent > done {
            return Err(format!("id {id} answered before its ADD was sent"));
        }
        if !matching.contains(&pos) {
            return Err(format!("id {id} does not satisfy the predicate"));
        }
    }
    for &pos in matching {
        let add = &adds[pos];
        if add.acked < sent && new.binary_search(&add.id).is_err() {
            return Err(format!(
                "ADD id {} acknowledged before the request is missing",
                add.id
            ));
        }
    }
    Ok(())
}

/// Durability: after a restart an acknowledged name must answer an
/// exact (`e=0`) phonidx probe with its own id.
pub fn check_present(id: u32, reply: &str) -> Result<(), String> {
    match parse_reply(reply) {
        Reply::Ids { ids, .. } if ids.binary_search(&id).is_ok() => Ok(()),
        _ => Err(format!("durability: acked id {id} lost after restart")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_id_lists_and_noresource() {
        assert_eq!(
            parse_reply("OK n=2 verified=9 method=scan e=0.35 ids=3,7"),
            Reply::Ids {
                ids: vec![3, 7],
                e: 0.35
            }
        );
        assert_eq!(
            parse_reply("OK n=0 verified=9 method=scan e=0.25 ids="),
            Reply::Ids {
                ids: vec![],
                e: 0.25
            }
        );
        assert_eq!(
            parse_reply("NORESOURCE Korean"),
            Reply::NoResource(Language::Korean)
        );
        assert!(matches!(
            parse_reply("OK n=3 verified=9 method=scan e=0.25 ids=1,2"),
            Reply::Other(_)
        ));
    }

    #[test]
    fn a_tampered_reply_is_flagged() {
        let want = Expect::Ids(vec![1, 4]);
        assert!(check("OK n=2 verified=5 method=scan e=0.35 ids=1,4", &want, 0.35).is_ok());
        assert!(check("OK n=1 verified=5 method=scan e=0.35 ids=1", &want, 0.35).is_err());
        assert!(check("OK n=2 verified=5 method=scan e=0.45 ids=1,4", &want, 0.35).is_err());
        assert!(check("ERR boom", &want, 0.35).is_err());
    }

    #[test]
    fn a_dropped_acked_add_is_flagged() {
        assert!(check_present(5, "OK n=2 verified=2 method=phonidx e=0 ids=3,5").is_ok());
        assert!(check_present(6, "OK n=0 verified=0 method=phonidx e=0 ids=").is_err());
    }
}
