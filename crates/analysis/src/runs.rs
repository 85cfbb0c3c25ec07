//! Sorted runs: the shape of every per-router partial state the report
//! folds. A delta's items for one router are sorted and deduplicated on
//! their own, then merged into the run held from earlier deltas, so a
//! fold pays for what the delta brings and the held run is never
//! re-sorted.

/// Merge `new` into `held`. Both are ascending by `key`, and neither
/// holds two items with one key.
///
/// An item whose key `held` already has is folded into the held item by
/// `combine`. Every other item is first seen: `fresh` sees it, then it
/// is inserted in key order. When every new key lands past the held
/// end, which is the batch case and the in-order stream case, the items
/// are appended. When every new key is held already, nothing is
/// allocated.
pub(crate) fn merge_run<T: Copy, K: Ord>(
    held: &mut Vec<T>,
    new: &[T],
    key: impl Fn(&T) -> K,
    mut combine: impl FnMut(&mut T, &T),
    mut fresh: impl FnMut(&T),
) {
    let past_end = match (held.last(), new.first()) {
        (Some(last), Some(first)) => key(last) < key(first),
        _ => true,
    };
    if past_end {
        new.iter().for_each(&mut fresh);
        extend(held, new);
        return;
    }
    // Fold the items held already into their twins and count the rest.
    let mut first_seen = 0;
    let mut at = 0;
    for item in new {
        let k = key(item);
        while at < held.len() && key(&held[at]) < k {
            at += 1;
        }
        match held.get_mut(at) {
            Some(twin) if key(twin) == k => combine(twin, item),
            _ => first_seen += 1,
        }
    }
    if first_seen == 0 {
        return;
    }
    // Then merge the first-seen items in.
    let mut out = Vec::with_capacity(held.len() + first_seen);
    let mut old = std::mem::take(held).into_iter().peekable();
    for item in new {
        let k = key(item);
        while let Some(h) = old.next_if(|h| key(h) < k) {
            out.push(h);
        }
        if old.peek().is_some_and(|h| key(h) == k) {
            continue;
        }
        fresh(item);
        out.push(*item);
    }
    out.extend(old);
    *held = out;
}

/// Merge the samples `new` into the run `held`, both ascending, keeping
/// duplicates: the result is the sorted multiset union. When every new
/// sample lands at or past the held end, the samples are appended.
pub(crate) fn merge_samples<T: Copy + Ord>(held: &mut Vec<T>, new: &[T]) {
    let past_end = match (held.last(), new.first()) {
        (Some(last), Some(first)) => last <= first,
        _ => true,
    };
    if past_end {
        extend(held, new);
        return;
    }
    let mut out = Vec::with_capacity(held.len() + new.len());
    let mut old = std::mem::take(held).into_iter().peekable();
    for &sample in new {
        while let Some(h) = old.next_if(|h| *h <= sample) {
            out.push(h);
        }
        out.push(sample);
    }
    out.extend(old);
    *held = out;
}

/// Append `new` to `held`. A first fill allocates exactly what it
/// holds, which is all a batch report ever allocates; later appends grow
/// the run amortized.
fn extend<T: Copy>(held: &mut Vec<T>, new: &[T]) {
    if held.is_empty() {
        held.reserve_exact(new.len());
    }
    held.extend_from_slice(new);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Merge `new` into `held` as sets, returning the merged run and the
    /// items `fresh` saw, and check both against a `BTreeSet` model.
    fn merge_sets(held: &[u32], new: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let mut run = held.to_vec();
        let mut seen = Vec::new();
        merge_run(&mut run, new, |x| *x, |_, _| {}, |x| seen.push(*x));
        let held_set: BTreeSet<u32> = held.iter().copied().collect();
        let new_set: BTreeSet<u32> = new.iter().copied().collect();
        let union: Vec<u32> = held_set.union(&new_set).copied().collect();
        let first_seen: Vec<u32> = new_set.difference(&held_set).copied().collect();
        assert_eq!(run, union, "held {held:?} + new {new:?}");
        assert_eq!(seen, first_seen, "first seen of held {held:?} + new {new:?}");
        (run, seen)
    }

    #[test]
    fn both_sides_empty() {
        assert_eq!(merge_sets(&[], &[]), (vec![], vec![]));
        assert_eq!(merge_sets(&[], &[4, 7]), (vec![4, 7], vec![4, 7]));
        assert_eq!(merge_sets(&[4, 7], &[]), (vec![4, 7], vec![]));
    }

    #[test]
    fn new_items_past_the_held_end_append() {
        let mut run = Vec::with_capacity(8);
        run.extend_from_slice(&[1, 3, 5]);
        let buffer = run.as_ptr();
        merge_run(&mut run, &[6, 9], |x| *x, |_, _| {}, |_| {});
        assert_eq!(run, [1, 3, 5, 6, 9]);
        assert_eq!(run.as_ptr(), buffer, "the append path keeps the held buffer");
        merge_sets(&[1, 3, 5], &[6, 9]);
    }

    #[test]
    fn interleaved_runs_merge() {
        merge_sets(&[2, 4, 6, 8], &[1, 5, 9]);
        merge_sets(&[2, 4, 6, 8], &[3, 4, 7, 8]);
        merge_sets(&[10], &[1, 10, 20]);
    }

    #[test]
    fn held_items_are_not_first_seen() {
        let mut run = vec![2, 4, 6];
        let buffer = run.as_ptr();
        let (merged, seen) = merge_sets(&run, &[2, 6]);
        assert_eq!((merged, seen), (vec![2, 4, 6], vec![]));
        merge_run(&mut run, &[2, 6], |x| *x, |_, _| {}, |_| panic!("nothing is new"));
        assert_eq!(run.as_ptr(), buffer, "nothing new, nothing allocated");
    }

    #[test]
    fn new_items_before_the_held_run() {
        merge_sets(&[50, 60], &[1, 2, 3]);
        merge_sets(&[50, 60], &[1, 50]);
    }

    #[test]
    fn twins_combine_into_the_held_item() {
        // (key, count) pairs: a held key's count adds up, a new key keeps
        // its own.
        let mut run = vec![(1u8, 2u32), (4, 1)];
        let mut seen = Vec::new();
        merge_run(
            &mut run,
            &[(0, 5), (4, 3), (9, 1)],
            |&(k, _)| k,
            |held, new| held.1 += new.1,
            |&(k, _)| seen.push(k),
        );
        assert_eq!(run, [(0, 5), (1, 2), (4, 4), (9, 1)]);
        assert_eq!(seen, [0, 9]);
    }

    #[test]
    fn sample_runs_keep_duplicates() {
        let cases: [(&[u64], &[u64]); 5] = [
            (&[], &[]),
            (&[10, 20], &[20, 30]),
            (&[10, 50, 50], &[5, 50, 70]),
            (&[40], &[10, 10]),
            (&[], &[30, 30]),
        ];
        for (held, new) in cases {
            let mut run = held.to_vec();
            merge_samples(&mut run, new);
            let mut model = [held, new].concat();
            model.sort();
            assert_eq!(run, model, "held {held:?} + new {new:?}");
        }
    }
}
