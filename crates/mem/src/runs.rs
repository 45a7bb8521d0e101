//! Set algebra over sorted, coalesced page-range run lists.
//!
//! The extent-based bookkeeping hands every consumer *runs* —
//! sorted, disjoint, maximal [`PageRange`]s — instead of per-page lists.
//! Restore planning is then pure run algebra: the restore set is
//! `(dirty ∩ snapshot) ∪ (snapshot ∖ present)`, computed here in
//! `O(runs_a + runs_b)` regardless of how many pages the runs cover.
//!
//! All functions accept runs that are sorted by start; `union` also
//! tolerates overlapping inputs. All functions produce **normalized**
//! output: sorted, disjoint, non-empty, and with adjacent runs merged.

use crate::addr::{PageRange, Vpn};

/// Pushes `r` onto `out`, merging with the last run when adjacent or
/// overlapping.
fn push_merged(out: &mut Vec<PageRange>, r: PageRange) {
    if r.is_empty() {
        return;
    }
    match out.last_mut() {
        Some(last) if last.end.0 >= r.start.0 => last.end = Vpn(last.end.0.max(r.end.0)),
        _ => out.push(r),
    }
}

/// Total pages covered by a run list.
pub fn runs_len(runs: &[PageRange]) -> u64 {
    runs.iter().map(|r| r.len()).sum()
}

/// Expands a run list to its pages, ascending.
pub fn runs_pages(runs: &[PageRange]) -> impl Iterator<Item = Vpn> + '_ {
    runs.iter().flat_map(|r| r.iter())
}

/// Groups a sorted page list into maximal runs.
pub fn runs_from_sorted(sorted: impl IntoIterator<Item = u64>) -> Vec<PageRange> {
    let mut out = Vec::new();
    runs_from_sorted_into(sorted, &mut out);
    out
}

/// [`runs_from_sorted`] into `out` (cleared first).
pub fn runs_from_sorted_into(sorted: impl IntoIterator<Item = u64>, out: &mut Vec<PageRange>) {
    out.clear();
    for v in sorted {
        push_merged(out, PageRange::at(Vpn(v), 1));
    }
}

/// `a ∪ b` (inputs may overlap).
pub fn runs_union(a: &[PageRange], b: &[PageRange]) -> Vec<PageRange> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    runs_union_into(a, b, &mut out);
    out
}

/// [`runs_union`] into `out` (cleared first).
pub fn runs_union_into(a: &[PageRange], b: &[PageRange], out: &mut Vec<PageRange>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let take_a = match (a.get(i), b.get(j)) {
            (Some(ra), Some(rb)) => ra.start.0 <= rb.start.0,
            (Some(_), None) => true,
            _ => false,
        };
        if take_a {
            push_merged(out, a[i]);
            i += 1;
        } else {
            push_merged(out, b[j]);
            j += 1;
        }
    }
}

/// `a ∩ b`.
pub fn runs_intersect(a: &[PageRange], b: &[PageRange]) -> Vec<PageRange> {
    let mut out = Vec::new();
    runs_intersect_into(a, b, &mut out);
    out
}

/// [`runs_intersect`] into `out` (cleared first). Runs of one side that
/// end before the other side's current run are skipped by binary
/// search, so a small list against a large one costs
/// `O(small × log large)`, not `O(small + large)`.
pub fn runs_intersect_into(a: &[PageRange], b: &[PageRange], out: &mut Vec<PageRange>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].end.0 <= b[j].start.0 {
            i += a[i..].partition_point(|r| r.end.0 <= b[j].start.0);
            continue;
        }
        if b[j].end.0 <= a[i].start.0 {
            j += b[j..].partition_point(|r| r.end.0 <= a[i].start.0);
            continue;
        }
        push_merged(out, a[i].intersect(b[j]));
        if a[i].end.0 <= b[j].end.0 {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// `a ∖ b`.
pub fn runs_subtract(a: &[PageRange], b: &[PageRange]) -> Vec<PageRange> {
    let mut out = Vec::new();
    runs_subtract_into(a, b, &mut out);
    out
}

/// [`runs_subtract`] into `out` (cleared first).
pub fn runs_subtract_into(a: &[PageRange], b: &[PageRange], out: &mut Vec<PageRange>) {
    out.clear();
    let mut j = 0;
    for &ra in a {
        let mut cur = ra;
        while j < b.len() && b[j].end.0 <= cur.start.0 {
            j += 1;
        }
        let mut k = j;
        while !cur.is_empty() && k < b.len() && b[k].start.0 < cur.end.0 {
            if b[k].start.0 > cur.start.0 {
                push_merged(out, PageRange::new(cur.start, b[k].start));
            }
            cur = PageRange::new(Vpn(cur.start.0.max(b[k].end.0)), cur.end);
            if b[k].end.0 < cur.end.0 {
                k += 1;
            } else {
                break;
            }
        }
        push_merged(out, cur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: u64, len: u64) -> PageRange {
        PageRange::at(Vpn(s), len)
    }

    fn pages(runs: &[PageRange]) -> Vec<u64> {
        runs_pages(runs).map(|v| v.0).collect()
    }

    #[test]
    fn union_merges_overlap_and_adjacency() {
        let a = [r(0, 4), r(10, 2)];
        let b = [r(2, 5), r(12, 1), r(20, 1)];
        assert_eq!(runs_union(&a, &b), vec![r(0, 7), r(10, 3), r(20, 1)]);
        assert_eq!(runs_union(&[], &b), b.to_vec());
        assert_eq!(runs_union(&a, &[]), a.to_vec());
    }

    #[test]
    fn intersect_cuts_exactly() {
        let a = [r(0, 10), r(20, 4)];
        let b = [r(5, 3), r(8, 4), r(22, 10)];
        assert_eq!(runs_intersect(&a, &b), vec![r(5, 5), r(22, 2)]);
        assert!(runs_intersect(&a, &[]).is_empty());
    }

    #[test]
    fn subtract_leaves_complement() {
        let a = [r(0, 10), r(20, 5)];
        let b = [r(2, 2), r(8, 14)];
        assert_eq!(runs_subtract(&a, &b), vec![r(0, 2), r(4, 4), r(22, 3)]);
        assert_eq!(runs_subtract(&a, &[]), a.to_vec());
        assert!(runs_subtract(&[], &a).is_empty());
    }

    #[test]
    fn algebra_matches_set_semantics_on_random_inputs() {
        use gh_sim::DetRng;
        use std::collections::BTreeSet;
        for case in 0..64u64 {
            let mut rng = DetRng::new(0x2045 ^ case);
            let mut mk = |n: u64| -> (Vec<PageRange>, BTreeSet<u64>) {
                let mut set = BTreeSet::new();
                for _ in 0..rng.next_below(n) {
                    let s = rng.next_below(200);
                    for p in s..(s + 1 + rng.next_below(8)).min(200) {
                        set.insert(p);
                    }
                }
                (runs_from_sorted(set.iter().copied()), set)
            };
            let (ra, sa) = mk(12);
            let (rb, sb) = mk(12);
            let u: Vec<u64> = sa.union(&sb).copied().collect();
            let i: Vec<u64> = sa.intersection(&sb).copied().collect();
            let d: Vec<u64> = sa.difference(&sb).copied().collect();
            assert_eq!(pages(&runs_union(&ra, &rb)), u, "case {case} union");
            assert_eq!(pages(&runs_intersect(&ra, &rb)), i, "case {case} isect");
            assert_eq!(
                runs_intersect(&ra, &rb),
                runs_intersect(&rb, &ra),
                "case {case} isect commutes"
            );
            assert_eq!(pages(&runs_subtract(&ra, &rb)), d, "case {case} sub");
            // Outputs are normalized: re-grouping the pages is identity.
            assert_eq!(
                runs_union(&ra, &rb),
                runs_from_sorted(u.iter().copied()),
                "case {case} normal form"
            );
            assert_eq!(runs_len(&ra), sa.len() as u64);
        }
    }
}
