//! Differential suite for the length-bucketed scan (DESIGN §5g):
//! `SearchMethod::Scan` through [`NameStore::search_phonemes_batched`]
//! screens the store's per-length cluster-id arenas before the verify
//! sink, and must still answer exactly like the row-at-a-time
//! reference [`NameStore::search_phonemes_with`] — same ids, same
//! `verifications`, and the same `fast_accept`/`fast_reject`/`full_dp`/
//! `bypass` totals — and like a naive [`LexEqual::matches_phonemes`]
//! loop.
//!
//! Covered: both cost models; e ∈ {0, 0.25, 0.35, 0.45, 1.0}; query
//! lengths 0, 1, 64, 65 and 70 (the last three straddle the 64-symbol
//! Myers window, so the pattern-less fallback runs too); corpora with
//! empty names and names past 64 phonemes; stores grown by every append
//! path, including growth interleaved with searches; every SIMD level
//! and several batch widths. Run again with `LEXEQUAL_FORCE_SCALAR=1`
//! to pin the process-wide dispatch as well.

use lexequal::store::NameEntry;
use lexequal::{
    available_simd_levels, BatchVerifier, CostModelKind, Language, LexEqual, MatchConfig,
    NameStore, ScreenCounters, SearchMethod, SharedEntry, Verifier, MAX_LANES,
};
use lexequal_phoneme::{ByteOwner, Inventory, Phoneme, PhonemeString, SharedBytes};
use std::sync::Arc;

const THRESHOLDS: [f64; 5] = [0.0, 0.25, 0.35, 0.45, 1.0];
const MODELS: [CostModelKind; 2] = [CostModelKind::Clustered, CostModelKind::Feature];

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

fn phonemes(ids: impl IntoIterator<Item = u64>) -> PhonemeString {
    let n = Inventory::len() as u64;
    PhonemeString::new(
        ids.into_iter()
            .map(|id| Phoneme::from_id((id % n) as u8).unwrap())
            .collect(),
    )
}

/// A corpus shaped like names: mostly 0–14 phonemes, one in eight past
/// the Myers window (60–70), every fourth row a one- or two-symbol edit
/// of an earlier row (so thresholds find near matches), plus exact
/// duplicates and two empty rows.
fn corpus(seed: u64) -> Vec<PhonemeString> {
    let mut next = xorshift(seed);
    let mut rows: Vec<PhonemeString> = vec![PhonemeString::new(Vec::new())];
    while rows.len() < 160 {
        let r = next();
        let row = if r % 4 == 0 {
            let mut ids: Vec<u64> = rows[(next() % rows.len() as u64) as usize]
                .iter()
                .map(|p| p.id() as u64)
                .collect();
            for _ in 0..=(r >> 8) % 2 {
                let at = (next() % (ids.len() as u64 + 1)) as usize;
                match next() % 3 {
                    0 if at < ids.len() => ids[at] = next(),
                    1 if at < ids.len() => {
                        ids.remove(at);
                    }
                    _ => ids.insert(at, next()),
                }
            }
            phonemes(ids)
        } else if r % 8 == 1 {
            let len = 60 + next() % 11;
            phonemes((0..len).map(|_| next()))
        } else {
            let len = next() % 15;
            phonemes((0..len).map(|_| next()))
        };
        rows.push(row);
    }
    rows.push(rows[7].clone());
    rows.push(PhonemeString::new(Vec::new()));
    rows
}

/// Queries of length 0, 1, 64, 65 and 70, plus a spread of corpus rows
/// (exact matches and near neighbours of stored names).
fn queries(rows: &[PhonemeString], seed: u64) -> Vec<PhonemeString> {
    let mut next = xorshift(seed);
    let mut qs: Vec<PhonemeString> = [0u64, 1, 64, 65, 70]
        .iter()
        .map(|&len| phonemes((0..len).map(|_| next())))
        .collect();
    qs.extend(rows.iter().step_by(17).cloned());
    qs
}

/// The outcome counters the bucketed scan must reproduce per query
/// (the `embed_*` overlays legitimately differ: rows the bucket pass
/// rejects never reach the embedding screen).
fn outcomes(c: ScreenCounters) -> [u64; 4] {
    [c.fast_accept, c.fast_reject, c.full_dp, c.bypass]
}

/// Check every query at every threshold, SIMD level and a few batch
/// widths against the per-row reference and the naive predicate loop.
fn check_store(store: &NameStore, queries: &[PhonemeString], what: &str) {
    let op = store.operator();
    let rows = store.phoneme_strings();
    for q in queries {
        for e in THRESHOLDS {
            let mut scalar = Verifier::new();
            let want = store.search_phonemes_with(q, e, SearchMethod::Scan, &mut scalar);
            let want_counters = outcomes(scalar.take_counters());
            let naive: Vec<u32> = (0..rows.len() as u32)
                .filter(|&i| op.matches_phonemes(&rows[i as usize], q, e))
                .collect();
            assert_eq!(
                want.ids,
                naive,
                "{what}: reference vs naive |q|={}",
                q.len()
            );
            assert_eq!(want.verifications, rows.len());
            for level in available_simd_levels() {
                for width in [1, 3, MAX_LANES] {
                    let mut batch = BatchVerifier::with_width_and_level(width, level);
                    let got = store.search_phonemes_batched(q, e, SearchMethod::Scan, &mut batch);
                    let ctx = format!("{what}: |q|={} e={e} level={level} width={width}", q.len());
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(outcomes(batch.take_counters()), want_counters, "{ctx}");
                }
            }
        }
    }
}

fn entries(rows: &[PhonemeString]) -> Vec<NameEntry> {
    rows.iter()
        .enumerate()
        .map(|(i, p)| NameEntry {
            text: format!("row{i}"),
            language: Language::English,
            phonemes: p.clone(),
        })
        .collect()
}

/// Every row's columns as views into one shared allocation, the way
/// an image loader hands them over. `with_embeds` false leaves the
/// embedding views empty (rows then bypass the embedding screen).
fn shared_entries(op: &LexEqual, rows: &[PhonemeString], with_embeds: bool) -> Vec<SharedEntry> {
    let mut buf = Vec::new();
    let mut spans = Vec::new();
    for (i, p) in rows.iter().enumerate() {
        let mut span = |bytes: &[u8]| {
            buf.extend_from_slice(bytes);
            (buf.len() - bytes.len(), bytes.len())
        };
        let text = span(format!("row{i}").as_bytes());
        let phon = span(p.id_bytes());
        let clus = span(&op.cluster_ids(p));
        let emb = if with_embeds {
            span(&op.embed_for(p))
        } else {
            span(&[])
        };
        spans.push([text, phon, clus, emb]);
    }
    let owner: Arc<ByteOwner> = Arc::new(buf);
    let view = |(off, len): (usize, usize)| SharedBytes::new(owner.clone(), off, len).unwrap();
    spans
        .into_iter()
        .map(|[text, phon, clus, emb]| SharedEntry {
            text: view(text),
            language: Language::English,
            phonemes: view(phon),
            clusters: view(clus),
            embed: view(emb),
        })
        .collect()
}

#[test]
fn bulk_extend_transformed_matches_the_per_row_scan() {
    for (m, kind) in MODELS.into_iter().enumerate() {
        let rows = corpus(0xb0c4_0001 + m as u64);
        let mut store = NameStore::new(MatchConfig::default().with_cost_model(kind));
        store.extend_transformed(entries(&rows));
        check_store(&store, &queries(&rows, 0x9e37), &format!("bulk {kind:?}"));
    }
}

#[test]
fn growth_interleaved_with_searches_matches_the_per_row_scan() {
    for (m, kind) in MODELS.into_iter().enumerate() {
        let rows = corpus(0xb0c4_0101 + m as u64);
        let qs = queries(&rows, 0x51ed);
        let op = LexEqual::new(MatchConfig::default().with_cost_model(kind));
        let shared = shared_entries(&op, &rows, true);
        let mut store = NameStore::new(MatchConfig::default().with_cost_model(kind));
        // Rotate through the three row-level append paths in uneven
        // chunks, searching after every chunk.
        let mut i = 0;
        let mut chunk = 1;
        while i < rows.len() {
            let end = (i + chunk).min(rows.len());
            match chunk % 3 {
                0 => {
                    store.extend_transformed(entries(&rows[i..end]));
                }
                1 => {
                    for e in &shared[i..end] {
                        store.push_shared_entry(e.clone()).unwrap();
                    }
                }
                _ => {
                    for e in &shared[i..end] {
                        store.push_shared_entry_prevalidated(e.clone());
                    }
                }
            }
            i = end;
            chunk += 7;
            // Ids are by row position, whatever the append path.
            assert_eq!(store.phoneme_strings(), &rows[..end]);
            check_store(
                &store,
                &qs[..6],
                &format!("interleaved {kind:?} at {end} rows"),
            );
        }
        check_store(&store, &qs, &format!("interleaved {kind:?} final"));
    }
}

#[test]
fn shared_entry_stores_match_the_per_row_scan() {
    for (m, kind) in MODELS.into_iter().enumerate() {
        let rows = corpus(0xb0c4_0201 + m as u64);
        let qs = queries(&rows, 0x7f4a);
        let op = LexEqual::new(MatchConfig::default().with_cost_model(kind));
        // Without stored embeddings the per-row scan bypasses the
        // embedding screen on every row; the outcomes still agree.
        for with_embeds in [true, false] {
            let config = MatchConfig::default().with_cost_model(kind);
            let mut checked = NameStore::new(config.clone());
            let mut prevalidated = NameStore::new(config);
            for e in shared_entries(&op, &rows, with_embeds) {
                checked.push_shared_entry(e.clone()).unwrap();
                prevalidated.push_shared_entry_prevalidated(e);
            }
            let what = format!("{kind:?} embeds={with_embeds}");
            check_store(&checked, &qs, &format!("push_shared_entry {what}"));
            check_store(&prevalidated, &qs, &format!("prevalidated {what}"));
        }
    }
}

#[test]
fn g2p_appended_stores_match_the_per_row_scan() {
    let long = "Venkataraghavan".repeat(6);
    let names: Vec<(String, Language)> = [
        ("Nehru", Language::English),
        ("नेहरु", Language::Hindi),
        ("நேரு", Language::Tamil),
        ("Nero", Language::English),
        ("Gandhi", Language::English),
        ("गांधी", Language::Hindi),
        ("Krishnan", Language::English),
        ("Kumar", Language::English),
        ("कुमार", Language::Hindi),
        ("Catherine", Language::English),
        ("Katherine", Language::English),
        (long.as_str(), Language::English),
    ]
    .into_iter()
    .map(|(n, l)| (n.to_owned(), l))
    .collect();
    for kind in MODELS {
        let mut store = NameStore::new(MatchConfig::default().with_cost_model(kind));
        let (head, tail) = names.split_at(5);
        store.extend(head.iter().cloned()).unwrap();
        let mut qs: Vec<PhonemeString> = store.phoneme_strings().to_vec();
        check_store(&store, &qs, &format!("extend {kind:?}"));
        for (n, l) in tail {
            store.insert(n, *l).unwrap();
            qs.push(store.phoneme_strings().last().unwrap().clone());
            check_store(&store, &qs[qs.len() - 2..], &format!("insert {kind:?} {n}"));
        }
        assert!(
            store.phoneme_strings().iter().any(|p| p.len() > 64),
            "the long name must cross the Myers window"
        );
        check_store(&store, &qs, &format!("g2p {kind:?} final"));
    }
}

#[test]
fn empty_store_scans_to_nothing() {
    let store = NameStore::new(MatchConfig::default());
    for q in queries(&[], 0x0e) {
        let got =
            store.search_phonemes_batched(&q, 0.45, SearchMethod::Scan, &mut BatchVerifier::new());
        assert!(got.ids.is_empty() && got.verifications == 0);
    }
}
