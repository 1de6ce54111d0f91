//! Per-length index of a store's cluster-id strings (DESIGN §5g).
//!
//! The scan's cluster fast-reject screen settles almost every row, and
//! row-at-a-time it pays a pointer chase and a scalar tail per row.
//! Grouping rows by length fixes both: every row in a bucket has the
//! same length, so the kernel's length filter and its budget `k` are
//! decided once per bucket, and the bucket's cluster-id strings sit back
//! to back at a fixed stride, so lane-batched Myers steps through equal
//! lengths with no tails (see [`BatchVerifier::scan_buckets`]).
//!
//! The index is append-only and maintained by every store append path:
//! never built, never invalidated, never persisted (a loaded image
//! rebuilds it as its rows are adopted).
//!
//! [`BatchVerifier::scan_buckets`]: crate::verify::BatchVerifier::scan_buckets

/// Every entry of one length: its cluster-id strings back to back
/// (fixed stride `len`) and, parallel to them, its ids in ascending
/// order.
#[derive(Debug)]
struct LengthBucket {
    len: usize,
    arena: Vec<u8>,
    ids: Vec<u32>,
}

/// Non-empty [`LengthBucket`]s, sorted by length.
#[derive(Debug, Default)]
pub(crate) struct LengthIndex {
    buckets: Vec<LengthBucket>,
}

impl LengthIndex {
    /// Append entry `id` with cluster-id string `clusters`. Ids must
    /// arrive in increasing order (the store assigns them that way), so
    /// each bucket's id array stays sorted.
    pub(crate) fn push(&mut self, id: u32, clusters: &[u8]) {
        let len = clusters.len();
        let at = match self.buckets.binary_search_by_key(&len, |b| b.len) {
            Ok(at) => at,
            Err(at) => {
                let bucket = LengthBucket {
                    len,
                    arena: Vec::new(),
                    ids: Vec::new(),
                };
                self.buckets.insert(at, bucket);
                at
            }
        };
        let bucket = &mut self.buckets[at];
        debug_assert!(bucket.ids.last().map_or(true, |&last| last < id));
        bucket.arena.extend_from_slice(clusters);
        bucket.ids.push(id);
    }

    /// `(len, arena, ids)` for every bucket, shortest first.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (usize, &[u8], &[u32])> {
        self.buckets
            .iter()
            .map(|b| (b.len, b.arena.as_slice(), b.ids.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_group_by_length_in_id_order() {
        let mut idx = LengthIndex::default();
        for (id, s) in [&b"ab"[..], b"", b"xyz", b"cd", b"", b"ef"]
            .iter()
            .enumerate()
        {
            idx.push(id as u32, s);
        }
        let got: Vec<_> = idx.buckets().collect();
        assert_eq!(
            got,
            vec![
                (0, &b""[..], &[1u32, 4][..]),
                (2, &b"abcdef"[..], &[0, 3, 5][..]),
                (3, &b"xyz"[..], &[2][..]),
            ]
        );
    }
}
