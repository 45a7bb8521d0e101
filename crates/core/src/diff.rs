//! Diffing memory layouts between snapshot and post-activation state
//! (§4.4: "identifies all changes to the memory layout by consulting
//! /proc/pid/maps and pagemap (e.g. grown, shrunk, merged, split,
//! deleted, new memory regions)").
//!
//! The diff is a two-pointer merge walk over the two address-ordered
//! VMA sequences (the heap excluded on both sides: `brk` owns it). Each
//! step starts at the lower of the two cursors and covers one piece up
//! to the nearest VMA boundary on either side, so a VMA equal on both
//! sides — most of them, since a request changes few regions — costs
//! one step, and a VMA is split only where the other side has a
//! boundary inside it. The work is `O(V_snap + V_cur)` with no sort and
//! nothing allocated beyond the output, so the restorer diffs the live
//! VMA map in place. The delta compiles into the syscall plan the
//! restorer injects via ptrace.

use gh_mem::{PageRange, Perms, Vma, VmaKind, Vpn};
use gh_proc::Syscall;

/// A region to re-create, with its snapshot-time attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemapRegion {
    /// Pages to map.
    pub range: PageRange,
    /// Snapshot-time permissions.
    pub perms: Perms,
    /// Snapshot-time backing.
    pub kind: VmaKind,
}

/// The layout delta between snapshot and current state.
#[derive(Clone, Debug, Default)]
pub struct LayoutDiff {
    /// Regions mapped now but absent from the snapshot → `munmap`.
    pub to_munmap: Vec<PageRange>,
    /// Regions in the snapshot but unmapped now → `mmap(MAP_FIXED)`.
    pub to_remap: Vec<RemapRegion>,
    /// Regions whose permissions changed → `mprotect` back.
    pub to_mprotect: Vec<(PageRange, Perms)>,
    /// `(current, snapshot)` program break, when they differ → `brk`.
    pub brk: Option<(Vpn, Vpn)>,
}

/// One side of the merge walk: its non-heap VMAs in address order,
/// with the unconsumed part of the current one.
struct Cursor<'a, I> {
    vmas: I,
    /// The current VMA and the start of its unconsumed part.
    at: Option<(&'a Vma, u64)>,
    /// End of the last VMA taken, for the address-order check.
    prev_end: u64,
}

impl<'a, I: Iterator<Item = &'a Vma>> Cursor<'a, I> {
    fn new(vmas: I) -> Self {
        let mut c = Cursor {
            vmas,
            at: None,
            prev_end: 0,
        };
        c.next_vma();
        c
    }

    /// Moves to the next non-empty, non-heap VMA. Panics if a VMA starts
    /// below the end of the one before it.
    fn next_vma(&mut self) {
        self.at = None;
        for vma in self.vmas.by_ref() {
            assert!(
                vma.range.start.0 >= self.prev_end,
                "LayoutDiff::compute: VMA {:?} is out of address order",
                vma.range
            );
            self.prev_end = vma.range.end.0;
            if !vma.range.is_empty() && !matches!(vma.kind, VmaKind::Heap) {
                self.at = Some((vma, vma.range.start.0));
                return;
            }
        }
    }

    /// Start of the unconsumed part; `u64::MAX` once exhausted (no VMA
    /// can start there, as it would be empty).
    fn pos(&self) -> u64 {
        self.at.map_or(u64::MAX, |(_, at)| at)
    }

    /// Marks the current VMA consumed up to page `to`.
    fn consume(&mut self, to: u64) {
        if let Some((vma, at)) = &mut self.at {
            if to < vma.range.end.0 {
                *at = to;
            } else {
                self.next_vma();
            }
        }
    }
}

impl LayoutDiff {
    /// Computes the delta from `current` back to the snapshot layout.
    ///
    /// Both sides must be in address order with no overlaps, as
    /// `/proc/pid/maps` (and [`gh_mem::AddressSpace::vmas_iter`]) yields
    /// them; the walk panics otherwise.
    pub fn compute<'s, 'c>(
        snap_vmas: impl IntoIterator<Item = &'s Vma>,
        snap_brk: Vpn,
        cur_vmas: impl IntoIterator<Item = &'c Vma>,
        cur_brk: Vpn,
    ) -> LayoutDiff {
        let mut diff = LayoutDiff::default();
        diff.compute_into(snap_vmas, snap_brk, cur_vmas, cur_brk);
        diff
    }

    /// [`LayoutDiff::compute`] into `self`, reusing its vectors.
    pub fn compute_into<'s, 'c>(
        &mut self,
        snap_vmas: impl IntoIterator<Item = &'s Vma>,
        snap_brk: Vpn,
        cur_vmas: impl IntoIterator<Item = &'c Vma>,
        cur_brk: Vpn,
    ) {
        let mut snap = Cursor::new(snap_vmas.into_iter());
        let mut cur = Cursor::new(cur_vmas.into_iter());
        let diff = self;
        diff.to_munmap.clear();
        diff.to_remap.clear();
        diff.to_mprotect.clear();
        diff.brk = None;
        loop {
            match (snap.at, cur.at) {
                (None, None) => break,
                // Snapshot only, up to where the current side resumes.
                (Some((s, at)), _) if at < cur.pos() => {
                    let end = s.range.end.0.min(cur.pos());
                    push_remap(&mut diff.to_remap, PageRange::new(Vpn(at), Vpn(end)), s);
                    snap.consume(end);
                }
                // Current only, up to where the snapshot side resumes.
                (_, Some((c, at))) if at < snap.pos() => {
                    let end = c.range.end.0.min(snap.pos());
                    push_coalesced(&mut diff.to_munmap, PageRange::new(Vpn(at), Vpn(end)));
                    cur.consume(end);
                }
                // Both sides, from the same page to the nearer VMA end.
                (Some((s, at)), Some((c, _))) => {
                    let end = s.range.end.0.min(c.range.end.0);
                    if s.perms != c.perms {
                        push_protect(
                            &mut diff.to_mprotect,
                            PageRange::new(Vpn(at), Vpn(end)),
                            s.perms,
                        );
                    }
                    snap.consume(end);
                    cur.consume(end);
                }
                _ => unreachable!("a live cursor is below an exhausted one"),
            }
        }

        if snap_brk != cur_brk {
            diff.brk = Some((cur_brk, snap_brk));
        }
    }

    /// True when the layout is unchanged.
    pub fn is_empty(&self) -> bool {
        self.to_munmap.is_empty()
            && self.to_remap.is_empty()
            && self.to_mprotect.is_empty()
            && self.brk.is_none()
    }

    /// Compiles the delta into the syscall injection plan, in the §4.4
    /// order: restore `brk`, remove added regions, remap removed regions,
    /// restore protections.
    pub fn plan(&self) -> Vec<Syscall> {
        let mut plan = Vec::new();
        self.plan_into(&mut plan);
        plan
    }

    /// Appends [`LayoutDiff::plan`] to `plan`.
    pub fn plan_into(&self, plan: &mut Vec<Syscall>) {
        if let Some((_cur, snap)) = self.brk {
            plan.push(Syscall::Brk(snap));
        }
        for r in &self.to_munmap {
            plan.push(Syscall::Munmap(*r));
        }
        for r in &self.to_remap {
            let file = match &r.kind {
                VmaKind::File(name) => Some(name.clone()),
                _ => None,
            };
            plan.push(Syscall::MmapFixed {
                range: r.range,
                perms: r.perms,
                file,
            });
        }
        for (range, perms) in &self.to_mprotect {
            plan.push(Syscall::Mprotect(*range, *perms));
        }
    }

    /// Total number of syscalls the plan will inject.
    pub fn syscall_count(&self) -> usize {
        self.to_munmap.len()
            + self.to_remap.len()
            + self.to_mprotect.len()
            + usize::from(self.brk.is_some())
    }
}

fn push_coalesced(v: &mut Vec<PageRange>, r: PageRange) {
    if let Some(last) = v.last_mut() {
        if last.end == r.start {
            last.end = r.end;
            return;
        }
    }
    v.push(r);
}

/// Appends `range` with `snap`'s attributes, extending the last region
/// when adjacent and alike; the kind is cloned only for a new region.
fn push_remap(v: &mut Vec<RemapRegion>, range: PageRange, snap: &Vma) {
    if let Some(last) = v.last_mut() {
        if last.range.end == range.start && last.perms == snap.perms && last.kind == snap.kind {
            last.range.end = range.end;
            return;
        }
    }
    v.push(RemapRegion {
        range,
        perms: snap.perms,
        kind: snap.kind.clone(),
    });
}

fn push_protect(v: &mut Vec<(PageRange, Perms)>, r: PageRange, p: Perms) {
    if let Some((last, lp)) = v.last_mut() {
        if last.end == r.start && *lp == p {
            last.end = r.end;
            return;
        }
    }
    v.push((r, p));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_sim::DetRng;

    /// The boundary sweep `LayoutDiff::compute` used before the merge
    /// walk, kept verbatim (plus its `push_remap`) as the reference the
    /// walk is tested against.
    mod sweep {
        use super::super::{push_coalesced, push_protect, LayoutDiff, RemapRegion};
        use gh_mem::{PageRange, Perms, Vma, VmaKind, Vpn};

        /// One side's attributes over an elementary interval.
        type Attrs = (Perms, VmaKind);

        /// Flattens a VMA list (minus the heap, which `brk` owns) into sorted
        /// disjoint `(range, attrs)` segments.
        fn segments(vmas: &[Vma]) -> Vec<(PageRange, Attrs)> {
            let mut v: Vec<(PageRange, Attrs)> = vmas
                .iter()
                .filter(|m| !matches!(m.kind, VmaKind::Heap))
                .map(|m| (m.range, (m.perms, m.kind.clone())))
                .collect();
            v.sort_by_key(|(r, _)| r.start.0);
            v
        }

        /// Attribute lookup at a point, advancing a cursor over sorted segments.
        fn attrs_at(segs: &[(PageRange, Attrs)], cursor: &mut usize, page: Vpn) -> Option<Attrs> {
            while *cursor < segs.len() && segs[*cursor].0.end.0 <= page.0 {
                *cursor += 1;
            }
            segs.get(*cursor)
                .filter(|(r, _)| r.contains(page))
                .map(|(_, a)| a.clone())
        }

        /// Computes the delta from `current` back to the snapshot layout.
        pub fn compute(
            snap_vmas: &[Vma],
            snap_brk: Vpn,
            cur_vmas: &[Vma],
            cur_brk: Vpn,
        ) -> LayoutDiff {
            let snap = segments(snap_vmas);
            let cur = segments(cur_vmas);

            // Boundary sweep.
            let mut bounds: Vec<u64> = snap
                .iter()
                .chain(cur.iter())
                .flat_map(|(r, _)| [r.start.0, r.end.0])
                .collect();
            bounds.sort_unstable();
            bounds.dedup();

            let mut diff = LayoutDiff::default();
            let (mut ci, mut si) = (0usize, 0usize);
            for w in bounds.windows(2) {
                let range = PageRange::new(Vpn(w[0]), Vpn(w[1]));
                if range.is_empty() {
                    continue;
                }
                let s = attrs_at(&snap, &mut si, range.start);
                let c = attrs_at(&cur, &mut ci, range.start);
                match (s, c) {
                    (None, None) => {}
                    (None, Some(_)) => push_coalesced(&mut diff.to_munmap, range),
                    (Some((perms, kind)), None) => {
                        push_remap(&mut diff.to_remap, RemapRegion { range, perms, kind })
                    }
                    (Some((sp, _)), Some((cp, _))) => {
                        if sp != cp {
                            push_protect(&mut diff.to_mprotect, range, sp);
                        }
                    }
                }
            }

            if snap_brk != cur_brk {
                diff.brk = Some((cur_brk, snap_brk));
            }
            diff
        }

        fn push_remap(v: &mut Vec<RemapRegion>, r: RemapRegion) {
            if let Some(last) = v.last_mut() {
                if last.range.end == r.range.start && last.perms == r.perms && last.kind == r.kind {
                    last.range.end = r.range.end;
                    return;
                }
            }
            v.push(r);
        }
    }

    /// Pages of the random-layout window.
    const WINDOW: u64 = 256;
    /// First page of the window.
    const BASE: u64 = 0x4000;

    /// A layout as one optional `(region id, perms, kind)` per page; runs
    /// of equal entries are VMAs, so two adjacent regions with the same
    /// attributes stay two VMAs (different ids).
    type PageLayout = Vec<Option<(u64, Perms, VmaKind)>>;

    fn random_attrs(rng: &mut DetRng) -> (Perms, VmaKind) {
        let perms = [Perms::RW, Perms::R, Perms::RX, Perms::NONE][rng.next_below(4) as usize];
        let kind = match rng.next_below(7) {
            0 => VmaKind::File("libc.so".into()),
            1 => VmaKind::File("app.rt".into()),
            2 => VmaKind::Guard,
            3 => VmaKind::Stack,
            4 => VmaKind::Heap,
            _ => VmaKind::Anon,
        };
        (perms, kind)
    }

    /// Regions of random kinds and perms, often packed with no gap (so
    /// neighbours differ only in id, kind or perms).
    fn random_layout(rng: &mut DetRng, next_id: &mut u64) -> PageLayout {
        let mut pages: PageLayout = vec![None; WINDOW as usize];
        let mut at = rng.next_below(8);
        while at < WINDOW {
            let len = (1 + rng.next_below(24)).min(WINDOW - at);
            let (perms, kind) = random_attrs(rng);
            *next_id += 1;
            for p in &mut pages[at as usize..(at + len) as usize] {
                *p = Some((*next_id, perms, kind.clone()));
            }
            at += len
                + match rng.next_below(3) {
                    0 => 0,
                    1 => 1,
                    _ => rng.next_below(16),
                };
        }
        pages
    }

    /// Random layout churn: new regions (also over existing ones), holes,
    /// grown and shrunk regions, and perm flips on subranges.
    fn churn(rng: &mut DetRng, pages: &mut PageLayout, next_id: &mut u64) {
        for _ in 0..rng.next_below(6) {
            let at = rng.next_below(WINDOW) as usize;
            let len = ((1 + rng.next_below(12)) as usize).min(WINDOW as usize - at);
            let span = at..at + len;
            match rng.next_below(5) {
                // A new region.
                0 => {
                    let (perms, kind) = random_attrs(rng);
                    *next_id += 1;
                    for p in &mut pages[span] {
                        *p = Some((*next_id, perms, kind.clone()));
                    }
                }
                // A hole.
                1 => pages[span].fill(None),
                // The region at `at` grows upward over `len` pages.
                2 => {
                    if let Some(region) = pages[at].clone() {
                        pages[span].fill(Some(region));
                    }
                }
                // The region at `at` loses its pages from `at` upward.
                3 => {
                    let id = pages[at].as_ref().map(|(id, _, _)| *id);
                    for p in &mut pages[at..] {
                        if p.as_ref().map(|(id, _, _)| *id) != id {
                            break;
                        }
                        *p = None;
                    }
                }
                // A perm flip on a subrange: the region splits in three.
                _ => {
                    let perms = [Perms::RW, Perms::R, Perms::NONE][rng.next_below(3) as usize];
                    *next_id += 1;
                    for p in pages[span].iter_mut().flatten() {
                        *p = (*next_id, perms, p.2.clone());
                    }
                }
            }
        }
    }

    fn to_vmas(pages: &PageLayout) -> Vec<Vma> {
        let mut vmas: Vec<Vma> = Vec::new();
        let mut prev: Option<&(u64, Perms, VmaKind)> = None;
        for (i, p) in pages.iter().enumerate() {
            let vpn = BASE + i as u64;
            match p {
                Some(region) if prev == Some(region) => {
                    vmas.last_mut().expect("open vma").range.end = Vpn(vpn + 1);
                }
                Some((_, perms, kind)) => vmas.push(vma(vpn, 1, *perms, kind.clone())),
                None => {}
            }
            prev = p.as_ref();
        }
        vmas
    }

    fn assert_same(walk: &LayoutDiff, sweep: &LayoutDiff, ctx: &str) {
        assert_eq!(walk.to_munmap, sweep.to_munmap, "{ctx}: to_munmap");
        assert_eq!(walk.to_remap, sweep.to_remap, "{ctx}: to_remap");
        assert_eq!(walk.to_mprotect, sweep.to_mprotect, "{ctx}: to_mprotect");
        assert_eq!(walk.brk, sweep.brk, "{ctx}: brk");
        assert_eq!(walk.plan(), sweep.plan(), "{ctx}: plan");
    }

    #[test]
    fn merge_walk_matches_the_boundary_sweep() {
        for case in 0..2_000u64 {
            let mut rng = DetRng::new(0x00D1_FF5E ^ case);
            let mut next_id = 0;
            let snap_pages = random_layout(&mut rng, &mut next_id);
            let mut cur_pages = snap_pages.clone();
            // One case in eight is the unchanged layout.
            if rng.next_below(8) != 0 {
                churn(&mut rng, &mut cur_pages, &mut next_id);
            }
            let (snap, cur) = (to_vmas(&snap_pages), to_vmas(&cur_pages));
            let snap_brk = Vpn(0x100 + rng.next_below(4));
            let cur_brk = Vpn(0x100 + rng.next_below(4));
            for (ctx, a, a_brk, b, b_brk) in [
                ("restore", &snap, snap_brk, &cur, cur_brk),
                ("reverse", &cur, cur_brk, &snap, snap_brk),
            ] {
                let ctx = format!("case {case} {ctx}");
                let walk = LayoutDiff::compute(a, a_brk, b, b_brk);
                assert_same(&walk, &sweep::compute(a, a_brk, b, b_brk), &ctx);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of address order")]
    fn out_of_order_input_panics() {
        let unsorted = vec![anon(200, 4), anon(100, 4)];
        LayoutDiff::compute(&unsorted, Vpn(50), &[anon(100, 4)], Vpn(50));
    }

    fn vma(start: u64, len: u64, perms: Perms, kind: VmaKind) -> Vma {
        Vma::new(PageRange::at(Vpn(start), len), perms, kind)
    }

    fn anon(start: u64, len: u64) -> Vma {
        vma(start, len, Perms::RW, VmaKind::Anon)
    }

    #[test]
    fn identical_layouts_diff_empty() {
        let vs = vec![
            anon(100, 10),
            vma(200, 5, Perms::RX, VmaKind::File("x".into())),
        ];
        let d = LayoutDiff::compute(&vs, Vpn(50), &vs, Vpn(50));
        assert!(d.is_empty());
        assert!(d.plan().is_empty());
        assert_eq!(d.syscall_count(), 0);
    }

    #[test]
    fn added_region_is_munmapped() {
        let snap = vec![anon(100, 10)];
        let cur = vec![anon(100, 10), anon(300, 4)];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert_eq!(d.to_munmap, vec![PageRange::at(Vpn(300), 4)]);
        assert!(d.to_remap.is_empty());
        assert_eq!(d.plan(), vec![Syscall::Munmap(PageRange::at(Vpn(300), 4))]);
    }

    #[test]
    fn removed_region_is_remapped_with_attrs() {
        let snap = vec![
            anon(100, 10),
            vma(200, 6, Perms::RX, VmaKind::File("lib".into())),
        ];
        let cur = vec![anon(100, 10)];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert_eq!(d.to_remap.len(), 1);
        let r = &d.to_remap[0];
        assert_eq!(r.range, PageRange::at(Vpn(200), 6));
        assert_eq!(r.perms, Perms::RX);
        assert_eq!(r.kind, VmaKind::File("lib".into()));
        match &d.plan()[0] {
            Syscall::MmapFixed { range, perms, file } => {
                assert_eq!(*range, PageRange::at(Vpn(200), 6));
                assert_eq!(*perms, Perms::RX);
                assert_eq!(file.as_deref(), Some("lib"));
            }
            other => panic!("expected mmap, got {other:?}"),
        }
    }

    #[test]
    fn grown_region_unmaps_only_the_growth() {
        let snap = vec![anon(100, 10)];
        let cur = vec![anon(100, 16)]; // grew by 6 pages
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert_eq!(d.to_munmap, vec![PageRange::at(Vpn(110), 6)]);
        assert!(d.to_remap.is_empty());
    }

    #[test]
    fn shrunk_region_remaps_only_the_loss() {
        let snap = vec![anon(100, 16)];
        let cur = vec![anon(100, 10)];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert_eq!(d.to_remap.len(), 1);
        assert_eq!(d.to_remap[0].range, PageRange::at(Vpn(110), 6));
    }

    #[test]
    fn split_region_remaps_the_hole() {
        let snap = vec![anon(100, 10)];
        // Middle two pages were munmapped by the function.
        let cur = vec![anon(100, 4), anon(106, 4)];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert_eq!(d.to_remap.len(), 1);
        assert_eq!(d.to_remap[0].range, PageRange::at(Vpn(104), 2));
        assert!(d.to_munmap.is_empty());
    }

    #[test]
    fn merged_regions_are_equivalent_not_diffed() {
        // Two adjacent anon VMAs merging into one is not a semantic change.
        let snap = vec![anon(100, 4), anon(104, 4)];
        let cur = vec![anon(100, 8)];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn perm_change_restores_protection() {
        let snap = vec![anon(100, 8)];
        let mut cur_vma = anon(100, 8);
        cur_vma.perms = Perms::R;
        let d = LayoutDiff::compute(&snap, Vpn(50), &[cur_vma], Vpn(50));
        assert_eq!(d.to_mprotect, vec![(PageRange::at(Vpn(100), 8), Perms::RW)]);
        assert_eq!(
            d.plan(),
            vec![Syscall::Mprotect(PageRange::at(Vpn(100), 8), Perms::RW)]
        );
    }

    #[test]
    fn partial_perm_change_is_ranged() {
        let snap = vec![anon(100, 8)];
        let cur = vec![
            anon(100, 2),
            vma(102, 3, Perms::R, VmaKind::Anon),
            anon(105, 3),
        ];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert_eq!(d.to_mprotect, vec![(PageRange::at(Vpn(102), 3), Perms::RW)]);
    }

    #[test]
    fn brk_restored_first() {
        let snap = vec![anon(100, 4)];
        let cur = vec![anon(100, 4), anon(300, 2)];
        let d = LayoutDiff::compute(&snap, Vpn(60), &cur, Vpn(80));
        assert_eq!(d.brk, Some((Vpn(80), Vpn(60))));
        let plan = d.plan();
        assert_eq!(plan[0], Syscall::Brk(Vpn(60)));
        assert_eq!(plan.len(), 2);
        assert_eq!(d.syscall_count(), 2);
    }

    #[test]
    fn heap_vmas_are_excluded_from_mapping_plan() {
        // The heap is restored via brk, not munmap/mmap.
        let snap = vec![vma(50, 10, Perms::RW, VmaKind::Heap)];
        let cur = vec![vma(50, 30, Perms::RW, VmaKind::Heap)];
        let d = LayoutDiff::compute(&snap, Vpn(60), &cur, Vpn(80));
        assert!(d.to_munmap.is_empty());
        assert!(d.to_remap.is_empty());
        assert_eq!(d.brk, Some((Vpn(80), Vpn(60))));
    }

    #[test]
    fn adjacent_changes_coalesce_into_single_syscalls() {
        let snap = vec![anon(100, 4)];
        // Two adjacent added regions with different kinds cannot merge in
        // the VMA list but coalesce into one munmap range.
        let cur = vec![
            anon(100, 4),
            anon(200, 4),
            vma(204, 4, Perms::R, VmaKind::Anon),
        ];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        assert_eq!(d.to_munmap, vec![PageRange::at(Vpn(200), 8)]);
    }

    #[test]
    fn complex_churn_round_trips() {
        // Snapshot: three regions. Current: one grew, one vanished, a new
        // one appeared, perms flipped on part of the third.
        let snap = vec![
            anon(100, 10),
            vma(200, 8, Perms::RX, VmaKind::File("lib".into())),
            anon(400, 6),
        ];
        let cur = vec![
            anon(100, 14),                        // grew
            vma(400, 3, Perms::R, VmaKind::Anon), // shrank + perms changed
            anon(600, 5),                         // new
        ];
        let d = LayoutDiff::compute(&snap, Vpn(50), &cur, Vpn(50));
        // Growth + new region unmapped.
        assert!(d.to_munmap.contains(&PageRange::at(Vpn(110), 4)));
        assert!(d.to_munmap.contains(&PageRange::at(Vpn(600), 5)));
        // Vanished file region + shrunk tail remapped.
        assert!(d
            .to_remap
            .iter()
            .any(|r| r.range == PageRange::at(Vpn(200), 8)));
        assert!(d
            .to_remap
            .iter()
            .any(|r| r.range == PageRange::at(Vpn(403), 3)));
        // Perms restored on the surviving overlap.
        assert_eq!(d.to_mprotect, vec![(PageRange::at(Vpn(400), 3), Perms::RW)]);
    }
}
