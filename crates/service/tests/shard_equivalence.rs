//! Sharding must be invisible: a [`ShardedStore`] with any shard count
//! returns exactly the same global id set as an unsharded [`NameStore`]
//! over the same data, for every access path.
//!
//! This holds because every access path's candidate predicate is
//! pairwise (query vs one stored string) — partitioning the collection
//! cannot change which pairs pass — and because global id striping is a
//! bijection (`id % N` → shard, `id / N` → local slot). The tests pin
//! both facts: shard counts that divide the data evenly (2, 4) and one
//! that doesn't (7), all four methods, and concurrent searchers racing
//! the same store. The length-bucketed scan (DESIGN §5g) is pinned to
//! the row-at-a-time reference at 1, 2 and 4 shards, on stores built by
//! ADD and on stores loaded from an mmap image.

use lexequal::{MatchConfig, NameStore, QgramMode, ScreenCounters, SearchMethod, Verifier};
use lexequal_lexicon::Corpus;
use lexequal_service::mmapstore;
use lexequal_service::shard::{BuildSpec, ShardedStore};
use std::sync::Arc;

const THRESHOLD: f64 = 0.3;

const METHODS: [SearchMethod; 4] = [
    SearchMethod::Scan,
    SearchMethod::Qgram,
    SearchMethod::PhoneticIndex,
    SearchMethod::BkTree,
];

fn corpus_rows() -> Vec<(String, lexequal::Language)> {
    let corpus = Corpus::build(&MatchConfig::default());
    corpus
        .entries
        .iter()
        .filter(|e| e.tag % 7 == 0) // a multiscript slice, kept fast
        .map(|e| (e.text.clone(), e.language))
        .collect()
}

fn reference_store(rows: &[(String, lexequal::Language)]) -> NameStore {
    let mut store = NameStore::new(MatchConfig::default());
    store.extend(rows.iter().cloned()).expect("bulk load");
    store.build_qgram(3, QgramMode::Strict);
    store.build_phonetic_index();
    store.build_bktree();
    store
}

fn sharded_store(rows: &[(String, lexequal::Language)], shards: usize) -> ShardedStore {
    let store = ShardedStore::new(MatchConfig::default(), shards);
    store.extend(rows.iter().cloned()).expect("bulk load");
    store.build(BuildSpec::Qgram {
        q: 3,
        mode: QgramMode::Strict,
    });
    store.build(BuildSpec::PhoneticIndex);
    store.build(BuildSpec::BkTree);
    store
}

fn query_ids(len: usize) -> impl Iterator<Item = u32> {
    (0..len as u32).step_by(29)
}

#[test]
fn every_shard_count_matches_the_unsharded_store_on_every_method() {
    let rows = corpus_rows();
    assert!(rows.len() > 100, "slice too small: {}", rows.len());
    let reference = reference_store(&rows);

    for shards in [2, 4, 7] {
        let sharded = sharded_store(&rows, shards);
        assert_eq!(sharded.len(), reference.len());

        // Ids address the same entries in both stores.
        for id in query_ids(rows.len()) {
            let a = reference.get(id).expect("reference id");
            let b = sharded.get(id).expect("sharded id");
            assert_eq!(a.text, b.text, "id {id} diverges at {shards} shards");
            assert_eq!(a.phonemes, b.phonemes);
        }

        for method in METHODS {
            for id in query_ids(rows.len()) {
                let q = &reference.get(id).expect("valid id").phonemes;
                let want = reference.search_phonemes(q, THRESHOLD, method);
                let got = sharded.search_phonemes(q, THRESHOLD, method);
                assert_eq!(
                    got.ids, want.ids,
                    "{method:?} diverges for id {id} at {shards} shards"
                );
                assert_eq!(
                    got.verifications, want.verifications,
                    "{method:?} does different verification work at {shards} shards"
                );
            }
        }
    }
}

#[test]
fn concurrent_searchers_agree_with_sequential_answers() {
    let rows = corpus_rows();
    let reference = reference_store(&rows);
    let sharded = Arc::new(sharded_store(&rows, 4));

    // Sequential ground truth for a spread of queries, via the q-gram
    // path (strict: no dismissals) and the scan.
    let cases: Vec<(u32, SearchMethod)> = query_ids(rows.len())
        .flat_map(|id| [(id, SearchMethod::Scan), (id, SearchMethod::Qgram)])
        .collect();
    let expected: Vec<Vec<u32>> = cases
        .iter()
        .map(|&(id, m)| {
            let q = &reference.get(id).expect("valid id").phonemes;
            reference.search_phonemes(q, THRESHOLD, m).ids
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..8 {
            let sharded = Arc::clone(&sharded);
            let reference = &reference;
            let cases = &cases;
            let expected = &expected;
            scope.spawn(move || {
                // Each thread walks the cases at a different phase so the
                // in-flight mix differs per thread.
                for k in 0..cases.len() {
                    let i = (k + t * 13) % cases.len();
                    let (id, m) = cases[i];
                    let q = &reference.get(id).expect("valid id").phonemes;
                    let got = sharded.search_phonemes(q, THRESHOLD, m);
                    assert_eq!(got.ids, expected[i], "thread {t}, case {i}");
                }
            });
        }
    });
}

/// The outcome counters a scan must reproduce per query; the `embed_*`
/// overlays may differ (the bucket pass rejects rows before the
/// embedding screen sees them).
fn outcomes(c: ScreenCounters) -> [u64; 4] {
    [c.fast_accept, c.fast_reject, c.full_dp, c.bypass]
}

/// The sharded scan — bucketed per shard — answers with the ids, the
/// verification count and the per-query screen outcome totals of the
/// unsharded row-at-a-time scan, at the paper's thresholds.
fn assert_scan_matches_reference(reference: &NameStore, sharded: &ShardedStore, what: &str) {
    for id in query_ids(reference.len()) {
        let q = &reference.get(id).expect("valid id").phonemes;
        for e in [0.25, 0.35, 0.45] {
            let mut verifier = Verifier::new();
            let want = reference.search_phonemes_with(q, e, SearchMethod::Scan, &mut verifier);
            let before = sharded.screen_totals();
            let got = sharded.search_phonemes(q, e, SearchMethod::Scan);
            let after = sharded.screen_totals();
            assert_eq!(got.ids, want.ids, "{what}: id {id} e={e}");
            assert_eq!(
                got.verifications, want.verifications,
                "{what}: id {id} e={e}"
            );
            let delta = outcomes(after)
                .iter()
                .zip(outcomes(before))
                .map(|(a, b)| a - b)
                .collect::<Vec<_>>();
            assert_eq!(
                delta,
                outcomes(verifier.take_counters()),
                "{what}: screen outcomes for id {id} e={e}"
            );
        }
    }
}

#[test]
fn bucketed_scan_matches_the_row_at_a_time_scan_at_every_shard_count() {
    let rows = corpus_rows();
    let reference = reference_store(&rows);
    for shards in [1, 2, 4] {
        let built = ShardedStore::new(MatchConfig::default(), shards);
        built.extend(rows.iter().cloned()).expect("bulk load");
        assert_scan_matches_reference(&reference, &built, &format!("{shards} shards"));

        // The length index is not in the image: loading rebuilds it.
        let image = mmapstore::encode(&built, 0).expect("encode");
        let loaded = mmapstore::load_bytes(MatchConfig::default(), None, image).expect("load");
        assert_eq!(loaded.store.len(), reference.len());
        let what = format!("{shards} shards loaded from an image");
        assert_scan_matches_reference(&reference, &loaded.store, &what);
    }
}
