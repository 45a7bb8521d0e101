//! A sparse, hierarchical page-number index.
//!
//! [`VpnIndex`] is a two-level, 64-ary bitmap over virtual page numbers:
//! the 47-bit VPN space is divided into 4096-page *groups* (64 leaves ×
//! 64 pages); groups materialize on demand in a sorted vector, and each
//! group carries a 64-bit *summary* word whose bit `i` marks leaf `i`
//! non-empty. Iteration therefore visits only groups that contain set
//! bits and, within a group, only non-empty leaves — `O(set + groups)`
//! work regardless of how many pages are mapped.
//!
//! This is the index that makes Groundhog's bookkeeping scale with the
//! *dirtied* state instead of the *mapped* state: the address space keeps
//! one `VpnIndex` per tracked page property (soft-dirty, userfaultfd log,
//! request taint, and the changes since the last snapshot), so
//! `soft_dirty_pages()` and friends are `O(dirty)` scans rather than full
//! page-table walks. Clearing follows the same rule:
//! [`VpnIndex::clear_runs`] clears a whole restore pass's runs in one
//! forward pass, visiting only the set leaves under them.
//!
//! An index is cleared and refilled on every request, so a group's leaf
//! array is not freed when the group empties: it goes to a per-thread
//! pool of spare leaf arrays, and the next group to materialize on that
//! thread — in any index — reuses it. A steady request loop therefore
//! touches the heap only when its footprint grows, while the retained
//! memory stays a small per-thread constant instead of growing with the
//! number of indices (processes) alive.

use std::cell::RefCell;

use crate::addr::{PageRange, Vpn};

/// Pages per leaf word.
const LEAF_BITS: u64 = 64;
/// Pages per group (64 leaves × 64 pages).
const GROUP_BITS: u64 = 64 * LEAF_BITS;
/// Spare leaf arrays a thread keeps (64 KiB).
const SPARE_CAP: usize = 128;

type Leaves = Box<[u64; 64]>;

thread_local! {
    /// Zeroed leaf arrays of emptied groups, reused by the next group
    /// that materializes on this thread.
    static SPARE: RefCell<Vec<Leaves>> = const { RefCell::new(Vec::new()) };
}

/// A zeroed leaf array, from the thread's spares when it has one.
fn take_leaves() -> Leaves {
    SPARE
        .with_borrow_mut(Vec::pop)
        .unwrap_or_else(|| Box::new([0u64; 64]))
}

/// Returns a zeroed leaf array to the thread's spares (or frees it when
/// they are full).
fn give_leaves(leaves: Leaves) {
    debug_assert!(leaves.iter().all(|&l| l == 0), "spare leaves must be zero");
    // During thread teardown the spares may already be gone: then the
    // array is simply freed.
    let _ = SPARE.try_with(|spare| {
        let mut spare = spare.borrow_mut();
        if spare.len() < SPARE_CAP {
            spare.push(leaves);
        }
    });
}

/// One 4096-page group: a summary word over 64 leaf words.
#[derive(Clone, Debug)]
struct Group {
    /// Group number (`vpn / 4096`).
    key: u64,
    /// Bit `i` set ⇔ `leaves[i] != 0`.
    summary: u64,
    /// 64 × 64-page bitmap leaves.
    leaves: Leaves,
}

/// Sparse two-level 64-ary bitmap over [`Vpn`]s.
#[derive(Clone, Debug, Default)]
pub struct VpnIndex {
    /// Materialized groups, sorted by key; each holds ≥ 1 set bit.
    groups: Vec<Group>,
    len: u64,
}

impl VpnIndex {
    /// An empty index.
    pub fn new() -> VpnIndex {
        VpnIndex::default()
    }

    #[inline]
    fn split(vpn: u64) -> (u64, usize, u64) {
        (
            vpn / GROUP_BITS,
            ((vpn / LEAF_BITS) % 64) as usize,
            vpn % LEAF_BITS,
        )
    }

    /// Position of group `g`, or where it would be inserted.
    #[inline]
    fn find(&self, g: u64) -> Result<usize, usize> {
        self.groups.binary_search_by_key(&g, |grp| grp.key)
    }

    /// The group `g`, materialized (from a spare leaf array when the
    /// thread has one) if absent.
    fn group_mut(&mut self, g: u64) -> &mut Group {
        let i = match self.find(g) {
            Ok(i) => i,
            Err(i) => {
                let leaves = take_leaves();
                self.groups.insert(
                    i,
                    Group {
                        key: g,
                        summary: 0,
                        leaves,
                    },
                );
                i
            }
        };
        &mut self.groups[i]
    }

    /// Removes the (empty) group at position `i`, sparing its leaves.
    fn retire(&mut self, i: usize) {
        give_leaves(self.groups.remove(i).leaves);
    }

    /// Sets the bit for `vpn`; returns `true` when it was newly set.
    pub fn set(&mut self, vpn: Vpn) -> bool {
        let (g, l, b) = Self::split(vpn.0);
        let group = self.group_mut(g);
        let mask = 1u64 << b;
        if group.leaves[l] & mask != 0 {
            return false;
        }
        group.leaves[l] |= mask;
        group.summary |= 1u64 << l;
        self.len += 1;
        true
    }

    /// Clears the bit for `vpn`; returns `true` when it was set.
    pub fn clear(&mut self, vpn: Vpn) -> bool {
        let (g, l, b) = Self::split(vpn.0);
        let Ok(i) = self.find(g) else {
            return false;
        };
        let group = &mut self.groups[i];
        let mask = 1u64 << b;
        if group.leaves[l] & mask == 0 {
            return false;
        }
        group.leaves[l] &= !mask;
        if group.leaves[l] == 0 {
            group.summary &= !(1u64 << l);
            if group.summary == 0 {
                self.retire(i);
            }
        }
        self.len -= 1;
        true
    }

    /// True when the bit for `vpn` is set.
    pub fn contains(&self, vpn: Vpn) -> bool {
        let (g, l, b) = Self::split(vpn.0);
        self.find(g)
            .is_ok_and(|i| self.groups[i].leaves[l] & (1u64 << b) != 0)
    }

    /// Number of set bits.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of materialized 4096-page groups (each holds ≥ 1 set bit).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Forgets every bit. `O(set leaves + groups)`; the leaf arrays go
    /// to the thread's spares.
    pub fn clear_all(&mut self) {
        for mut group in self.groups.drain(..) {
            let mut summary = group.summary;
            while summary != 0 {
                group.leaves[summary.trailing_zeros() as usize] = 0;
                summary &= summary - 1;
            }
            give_leaves(group.leaves);
        }
        self.len = 0;
    }

    /// Clears every bit inside `runs` (sorted, disjoint, possibly
    /// adjacent or empty) in one forward pass over the groups. In each
    /// group a run overlaps, only the non-empty leaves the run covers are
    /// visited — its summary is masked to the run's leaves first — so the
    /// work is proportional to the runs and the set leaves under them,
    /// not to the runs' width or to the rest of the group.
    pub fn clear_runs(&mut self, runs: &[PageRange]) {
        debug_assert!(
            runs.windows(2).all(|w| w[0].end <= w[1].start),
            "clear_runs requires sorted, disjoint runs"
        );
        let mut i = 0usize;
        for run in runs.iter().filter(|r| !r.is_empty()) {
            let (lo, hi) = (run.start.0, run.end.0);
            let last_group = (hi - 1) / GROUP_BITS;
            i += self.groups[i..].partition_point(|grp| grp.key < lo / GROUP_BITS);
            while let Some(group) = self.groups.get_mut(i).filter(|grp| grp.key <= last_group) {
                let base = group.key * GROUP_BITS;
                // Leaves `first..=last` of this group lie under the run.
                let first = (lo.max(base) - base) / LEAF_BITS;
                let last = (hi.min(base + GROUP_BITS) - 1 - base) / LEAF_BITS;
                let under = (u64::MAX >> (63 - last)) & (u64::MAX << first);
                let mut summary = group.summary & under;
                while summary != 0 {
                    let l = summary.trailing_zeros() as usize;
                    summary &= summary - 1;
                    let leaf_base = base + l as u64 * LEAF_BITS;
                    // Bits of this leaf inside the run.
                    let b_lo = lo.saturating_sub(leaf_base);
                    let b_hi = (hi - leaf_base).min(LEAF_BITS);
                    let mask = (u64::MAX >> (LEAF_BITS - (b_hi - b_lo))) << b_lo;
                    let hit = group.leaves[l] & mask;
                    if hit != 0 {
                        self.len -= hit.count_ones() as u64;
                        group.leaves[l] &= !mask;
                        if group.leaves[l] == 0 {
                            group.summary &= !(1u64 << l);
                        }
                    }
                }
                if group.summary == 0 {
                    self.retire(i);
                } else if group.key < last_group {
                    i += 1;
                } else {
                    break; // the next run may continue in this group
                }
            }
        }
    }

    /// Iterates set pages in ascending order. `O(set + groups)`.
    pub fn iter(&self) -> impl Iterator<Item = Vpn> + '_ {
        self.groups.iter().flat_map(|group| {
            let base = group.key * GROUP_BITS;
            BitIter(group.summary).flat_map(move |l| {
                let leaf_base = base + l as u64 * LEAF_BITS;
                BitIter(group.leaves[l as usize]).map(move |b| Vpn(leaf_base + b as u64))
            })
        })
    }

    /// Collects the set pages, ascending.
    pub fn to_vec(&self) -> Vec<Vpn> {
        let mut out = Vec::with_capacity(self.len as usize);
        out.extend(self.iter());
        out
    }

    /// The set pages coalesced into maximal contiguous [`PageRange`]
    /// runs, ascending. `O(set + groups)`.
    pub fn runs(&self) -> Vec<PageRange> {
        let mut out = Vec::new();
        self.runs_into(&mut out);
        out
    }

    /// Appends [`VpnIndex::runs`] to `out` (merging into its last run
    /// when adjacent).
    pub fn runs_into(&self, out: &mut Vec<PageRange>) {
        for vpn in self.iter() {
            match out.last_mut() {
                Some(last) if last.end == vpn => last.end = vpn.next(),
                _ => out.push(PageRange::at(vpn, 1)),
            }
        }
    }

    /// The work units a full scan performs: one per materialized group,
    /// one per non-empty leaf, one per set bit. This is the quantity the
    /// O(dirty)-scan counter tests assert on: it depends only on the set
    /// bits and their spread — never on how many pages are mapped.
    pub fn scan_work(&self) -> u64 {
        let leaves: u64 = self
            .groups
            .iter()
            .map(|g| g.summary.count_ones() as u64)
            .sum();
        self.groups.len() as u64 + leaves + self.len
    }
}

/// Iterates the set bit positions of one word, ascending.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_contains_roundtrip() {
        let mut ix = VpnIndex::new();
        assert!(ix.set(Vpn(5)));
        assert!(!ix.set(Vpn(5)), "second set is a no-op");
        assert!(ix.contains(Vpn(5)));
        assert!(!ix.contains(Vpn(6)));
        assert_eq!(ix.len(), 1);
        assert!(ix.clear(Vpn(5)));
        assert!(!ix.clear(Vpn(5)));
        assert!(ix.is_empty());
        assert_eq!(ix.group_count(), 0, "empty groups are reclaimed");
    }

    #[test]
    fn iteration_is_sorted_across_groups() {
        let mut ix = VpnIndex::new();
        let pages = [0u64, 63, 64, 4095, 4096, 1 << 20, (1 << 31) - 1];
        for &p in pages.iter().rev() {
            ix.set(Vpn(p));
        }
        let got: Vec<u64> = ix.iter().map(|v| v.0).collect();
        assert_eq!(got, pages);
        assert_eq!(ix.len(), pages.len() as u64);
    }

    #[test]
    fn runs_coalesce() {
        let mut ix = VpnIndex::new();
        for p in [1u64, 2, 3, 63, 64, 65, 4100] {
            ix.set(Vpn(p));
        }
        assert_eq!(
            ix.runs(),
            vec![
                PageRange::at(Vpn(1), 3),
                PageRange::at(Vpn(63), 3),
                PageRange::at(Vpn(4100), 1)
            ]
        );
    }

    #[test]
    fn clear_range_is_exact() {
        let mut ix = VpnIndex::new();
        for p in 0..10_000u64 {
            ix.set(Vpn(p * 3));
        }
        ix.clear_runs(&[PageRange::new(Vpn(3000), Vpn(15_000))]);
        // An empty run and a run over no set bit change nothing.
        ix.clear_runs(&[PageRange::at(Vpn(3001), 0), PageRange::at(Vpn(20_000), 1)]);
        for p in 0..10_000u64 {
            let vpn = Vpn(p * 3);
            assert_eq!(
                ix.contains(vpn),
                !(3000..15_000).contains(&vpn.0),
                "page {}",
                vpn.0
            );
        }
        let expect: u64 = (0..10_000u64)
            .filter(|p| !(3000..15_000).contains(&(p * 3)))
            .count() as u64;
        assert_eq!(ix.len(), expect);
        ix.clear_runs(&[PageRange::new(Vpn(0), Vpn(1 << 32))]);
        assert!(ix.is_empty());
        assert_eq!(ix.group_count(), 0);
    }

    /// `clear_runs` against a `BTreeSet` model: seeded sets spread over a
    /// few groups, cleared by seeded sorted runs (single pages, runs
    /// crossing leaf and group edges, adjacent runs, empty runs).
    #[test]
    fn clear_runs_matches_btreeset_model() {
        use std::collections::BTreeSet;
        let mut rng = gh_sim::DetRng::new(0xC1EA);
        let span = 3 * GROUP_BITS + 100;
        for round in 0..200 {
            let mut ix = VpnIndex::new();
            let mut model = BTreeSet::new();
            for _ in 0..rng.next_below(600) {
                let v = 5_000 + rng.next_below(span);
                ix.set(Vpn(v));
                model.insert(v);
            }
            let mut runs = Vec::new();
            let mut at = 5_000 + rng.next_below(200);
            while at < 5_000 + span {
                let len = match rng.next_below(4) {
                    0 => 0,
                    1 => 1,
                    2 => rng.next_below(70),
                    _ => rng.next_below(2 * GROUP_BITS),
                };
                runs.push(PageRange::at(Vpn(at), len));
                at += len + rng.next_below(3) * rng.next_below(300);
            }
            ix.clear_runs(&runs);
            for r in &runs {
                model.retain(|&v| !r.contains(Vpn(v)));
            }
            let got: Vec<u64> = ix.iter().map(|v| v.0).collect();
            let want: Vec<u64> = model.iter().copied().collect();
            assert_eq!(got, want, "round {round}");
            assert_eq!(ix.len(), model.len() as u64, "round {round}: len");
            let groups: BTreeSet<u64> = model.iter().map(|v| v / GROUP_BITS).collect();
            assert_eq!(ix.group_count(), groups.len(), "round {round}: groups");
            ix.clear_all();
        }
    }

    #[test]
    fn emptied_groups_spare_their_leaves_for_reuse() {
        // Each test runs on its own thread, so the spares start empty.
        let spares = || SPARE.with_borrow(Vec::len);
        let mut ix = VpnIndex::new();
        for p in [1u64, 5000, 9000] {
            ix.set(Vpn(p));
        }
        ix.clear(Vpn(5000));
        assert_eq!(spares(), 1);
        ix.clear_all();
        assert_eq!(spares(), 3);
        SPARE.with_borrow(|s| assert!(s.iter().all(|l| l.iter().all(|&w| w == 0))));
        // Another index on the thread reuses them.
        let mut other = VpnIndex::new();
        other.set(Vpn(123_456));
        assert_eq!(spares(), 2, "a new group reuses a spare leaf array");
        assert_eq!(other.to_vec(), vec![Vpn(123_456)]);
        other.clear_runs(&[PageRange::new(Vpn(0), Vpn(1 << 30))]);
        assert!(other.is_empty());
        assert_eq!(spares(), 3);
    }

    #[test]
    fn scan_work_is_independent_of_span() {
        // The defining property: the same number of set bits costs the
        // same scan work whether they live in a 4K-page or 4G-page span
        // (as long as they occupy the same number of groups/leaves).
        let mut dense_space = VpnIndex::new();
        let mut huge_space = VpnIndex::new();
        for i in 0..64u64 {
            dense_space.set(Vpn(i * 64)); // 64 leaves of one group
            huge_space.set(Vpn(i * GROUP_BITS)); // 64 groups, one leaf each
        }
        assert_eq!(dense_space.len(), huge_space.len());
        // Work differs only in the group/leaf constant, never in any
        // mapped-space term.
        assert!(dense_space.scan_work() <= 1 + 64 + 64);
        assert!(huge_space.scan_work() <= 64 + 64 + 64);
    }
}
