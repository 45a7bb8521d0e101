//! Differential oracle: the extent-based [`AddressSpace`] vs. the
//! retained per-page implementation.
//!
//! `legacy::LegacySpace` below preserves the pre-extent `AddressSpace`
//! fault and bookkeeping logic verbatim (one `BTreeMap` entry per
//! present page, full-map walks for every query), minus the I/O helpers
//! the oracle does not exercise. It is the independent reference for
//! the address space's one fault decision, which the single-page
//! `touch` and the batch walks share, and for its one restore and evict
//! walk behind `restore_page`, `zero_page` and `evict_page`. Seeded
//! random op streams — mapping churn, faults, tracking epochs, uffd
//! arming, CoW marking, fork, lazy arming/draining, restore writes, and
//! captures (an extra frame reference without a CoW mark, as an eager
//! snapshot holds one, so writes must unshare silently and restores
//! must not overwrite shared frames) — drive a legacy space and an
//! extent-based space side by side on separate frame tables, and every
//! observable must agree at every step: fault counters, present set,
//! soft-dirty set, uffd logs, taint scans, page contents, live-frame
//! counts, and the lazy conservation counters.

use std::collections::BTreeMap;

use gh_sim::DetRng;

use gh_mem::{
    AddressSpace, FrameData, FrameId, FrameTable, LazyPageSource, PageRange, Perms, RequestId,
    SpaceConfig, Taint, Touch, VmaKind, Vpn,
};

/// The pre-extent, per-page `AddressSpace`, retained as the oracle.
mod legacy {
    use std::collections::BTreeMap;

    use gh_mem::vma::{Perms, Vma, VmaKind};
    use gh_mem::{
        AccessError, FaultCounters, FrameData, FrameTable, LazyPageSource, PageRange, Pte,
        PteFlags, RequestId, SpaceConfig, StoreHandle, Taint, Touch, Vpn,
    };

    fn resolve(src: LazyPageSource, frames: &FrameTable) -> FrameData {
        match src {
            LazyPageSource::Data(d) => d,
            LazyPageSource::Frame(id) => frames.data(id).clone(),
            LazyPageSource::Store { store, frame } => {
                store.lock().expect("store poisoned").data(frame).clone()
            }
        }
    }

    pub struct LegacySpace {
        cfg: SpaceConfig,
        vmas: BTreeMap<u64, Vma>,
        pages: BTreeMap<u64, Pte>,
        brk: Vpn,
        counters: FaultCounters,
        uffd_armed: bool,
        uffd_log: Vec<Vpn>,
        lazy_pending: BTreeMap<u64, LazyPageSource>,
        lazy_dropped: u64,
    }

    #[allow(dead_code)]
    impl LegacySpace {
        pub fn new(cfg: SpaceConfig, _frames: &mut FrameTable) -> LegacySpace {
            let mut vmas = BTreeMap::new();
            let stack_range = PageRange::new(Vpn(cfg.stack_top.0 - cfg.stack_pages), cfg.stack_top);
            vmas.insert(
                stack_range.start.0,
                Vma::new(stack_range, Perms::RW, VmaKind::Stack),
            );
            LegacySpace {
                cfg,
                vmas,
                pages: BTreeMap::new(),
                brk: cfg.heap_base,
                counters: FaultCounters::default(),
                uffd_armed: false,
                uffd_log: Vec::new(),
                lazy_pending: BTreeMap::new(),
                lazy_dropped: 0,
            }
        }

        pub fn config(&self) -> SpaceConfig {
            self.cfg
        }

        pub fn vma_at(&self, vpn: Vpn) -> Option<&Vma> {
            self.vmas
                .range(..=vpn.0)
                .next_back()
                .map(|(_, v)| v)
                .filter(|v| v.range.contains(vpn))
        }

        pub fn maps(&self) -> Vec<Vma> {
            self.vmas.values().cloned().collect()
        }

        pub fn vma_count(&self) -> usize {
            self.vmas.len()
        }

        pub fn mapped_pages(&self) -> u64 {
            self.vmas.values().map(|v| v.range.len()).sum()
        }

        pub fn present_pages(&self) -> u64 {
            self.pages.len() as u64
        }

        pub fn brk(&self) -> Vpn {
            self.brk
        }

        pub fn counters(&self) -> FaultCounters {
            self.counters
        }

        fn find_free(&self, len: u64) -> Option<PageRange> {
            if len == 0 {
                return None;
            }
            let mut ceiling = self.cfg.mmap_top.0;
            for (_, vma) in self.vmas.range(..self.cfg.mmap_top.0).rev() {
                let gap_start = vma.range.end.0;
                if gap_start < ceiling && ceiling - gap_start >= len {
                    return Some(PageRange::new(Vpn(ceiling - len), Vpn(ceiling)));
                }
                ceiling = ceiling.min(vma.range.start.0);
            }
            if ceiling >= len {
                Some(PageRange::new(Vpn(ceiling - len), Vpn(ceiling)))
            } else {
                None
            }
        }

        pub fn mmap(
            &mut self,
            len: u64,
            perms: Perms,
            kind: VmaKind,
        ) -> Result<PageRange, AccessError> {
            let range = self.find_free(len).ok_or(AccessError::BadRange)?;
            self.insert_vma(Vma::new(range, perms, kind));
            Ok(range)
        }

        pub fn mmap_fixed(
            &mut self,
            range: PageRange,
            perms: Perms,
            kind: VmaKind,
        ) -> Result<(), AccessError> {
            if range.is_empty() {
                return Err(AccessError::BadRange);
            }
            if self.overlaps_any(range) {
                return Err(AccessError::BadRange);
            }
            self.insert_vma(Vma::new(range, perms, kind));
            Ok(())
        }

        fn overlaps_any(&self, range: PageRange) -> bool {
            self.vmas
                .range(..range.end.0)
                .next_back()
                .is_some_and(|(_, v)| v.range.overlaps(range))
                || self.vmas.range(range.start.0..range.end.0).next().is_some()
        }

        fn insert_vma(&mut self, mut vma: Vma) {
            if let Some((&start, prev)) = self.vmas.range(..vma.range.start.0).next_back() {
                if prev.range.end == vma.range.start && prev.can_merge_with(&vma) {
                    vma.range.start = prev.range.start;
                    self.vmas.remove(&start);
                }
            }
            if let Some((&start, next)) = self.vmas.range(vma.range.end.0..).next() {
                if next.range.start == vma.range.end && vma.can_merge_with(next) {
                    vma.range.end = next.range.end;
                    self.vmas.remove(&start);
                }
            }
            self.vmas.insert(vma.range.start.0, vma);
        }

        pub fn munmap(
            &mut self,
            range: PageRange,
            frames: &mut FrameTable,
        ) -> Result<(), AccessError> {
            if range.is_empty() {
                return Err(AccessError::BadRange);
            }
            let affected: Vec<u64> = self
                .vmas
                .range(..range.end.0)
                .filter(|(_, v)| v.range.overlaps(range))
                .map(|(&s, _)| s)
                .collect();
            for start in affected {
                let vma = self.vmas.remove(&start).expect("collected key");
                let cut = vma.range.intersect(range);
                if vma.range.start.0 < cut.start.0 {
                    let left = Vma::new(
                        PageRange::new(vma.range.start, cut.start),
                        vma.perms,
                        vma.kind.clone(),
                    );
                    self.vmas.insert(left.range.start.0, left);
                }
                if cut.end.0 < vma.range.end.0 {
                    let right =
                        Vma::new(PageRange::new(cut.end, vma.range.end), vma.perms, vma.kind);
                    self.vmas.insert(right.range.start.0, right);
                }
            }
            self.drop_pages_in(range, frames);
            Ok(())
        }

        pub fn mprotect(&mut self, range: PageRange, perms: Perms) -> Result<(), AccessError> {
            if range.is_empty() {
                return Err(AccessError::BadRange);
            }
            let mut cursor = range.start;
            while cursor.0 < range.end.0 {
                let vma = self.vma_at(cursor).ok_or(AccessError::Unmapped(cursor))?;
                cursor = vma.range.end;
            }
            let affected: Vec<u64> = self
                .vmas
                .range(..range.end.0)
                .filter(|(_, v)| v.range.overlaps(range))
                .map(|(&s, _)| s)
                .collect();
            let removed: Vec<Vma> = affected
                .iter()
                .map(|s| self.vmas.remove(s).expect("collected key"))
                .collect();
            for vma in removed {
                let cut = vma.range.intersect(range);
                if vma.range.start.0 < cut.start.0 {
                    self.vmas.insert(
                        vma.range.start.0,
                        Vma::new(
                            PageRange::new(vma.range.start, cut.start),
                            vma.perms,
                            vma.kind.clone(),
                        ),
                    );
                }
                self.insert_vma(Vma::new(cut, perms, vma.kind.clone()));
                if cut.end.0 < vma.range.end.0 {
                    self.vmas.insert(
                        cut.end.0,
                        Vma::new(PageRange::new(cut.end, vma.range.end), vma.perms, vma.kind),
                    );
                }
            }
            Ok(())
        }

        pub fn set_brk(
            &mut self,
            new_brk: Vpn,
            frames: &mut FrameTable,
        ) -> Result<Vpn, AccessError> {
            if new_brk.0 < self.cfg.heap_base.0 {
                return Err(AccessError::BadRange);
            }
            let old = self.brk;
            if new_brk.0 > old.0 {
                let grow = PageRange::new(old, new_brk);
                if self.overlaps_any(grow) {
                    return Err(AccessError::BadRange);
                }
                let existing = self
                    .vmas
                    .iter()
                    .find(|(_, v)| matches!(v.kind, VmaKind::Heap) && v.range.end == old)
                    .map(|(&s, _)| s);
                if let Some(s) = existing {
                    let mut v = self.vmas.remove(&s).expect("heap vma");
                    v.range.end = new_brk;
                    self.vmas.insert(v.range.start.0, v);
                } else {
                    self.vmas
                        .insert(grow.start.0, Vma::new(grow, Perms::RW, VmaKind::Heap));
                }
            } else if new_brk.0 < old.0 {
                let shrink = PageRange::new(new_brk, old);
                let existing = self
                    .vmas
                    .iter()
                    .find(|(_, v)| matches!(v.kind, VmaKind::Heap) && v.range.end == old)
                    .map(|(&s, _)| s);
                let Some(s) = existing else {
                    return Err(AccessError::BadRange);
                };
                let mut v = self.vmas.remove(&s).expect("heap vma");
                if new_brk.0 <= v.range.start.0 {
                } else {
                    v.range.end = new_brk;
                    self.vmas.insert(v.range.start.0, v);
                }
                self.drop_pages_in(shrink, frames);
            }
            self.brk = new_brk;
            Ok(self.brk)
        }

        pub fn madvise_dontneed(
            &mut self,
            range: PageRange,
            frames: &mut FrameTable,
        ) -> Result<(), AccessError> {
            if range.is_empty() {
                return Err(AccessError::BadRange);
            }
            self.drop_pages_in(range, frames);
            Ok(())
        }

        fn drop_pages_in(&mut self, range: PageRange, frames: &mut FrameTable) {
            let vpns: Vec<u64> = self
                .pages
                .range(range.start.0..range.end.0)
                .map(|(&v, _)| v)
                .collect();
            for v in vpns {
                let pte = self.pages.remove(&v).expect("collected key");
                frames.decref(pte.frame);
            }
            if !self.lazy_pending.is_empty() {
                let doomed: Vec<u64> = self
                    .lazy_pending
                    .range(range.start.0..range.end.0)
                    .map(|(&v, _)| v)
                    .collect();
                for v in doomed {
                    self.lazy_pending.remove(&v);
                    self.lazy_dropped += 1;
                }
            }
        }

        fn fresh_data(vma: &Vma, vpn: Vpn) -> FrameData {
            match &vma.kind {
                VmaKind::File(name) => {
                    let mut h = 0xcbf2_9ce4_8422_2325u64;
                    for b in name.bytes() {
                        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                    }
                    FrameData::Pattern(h ^ vpn.0)
                }
                _ => FrameData::Zero,
            }
        }

        fn page_read_access(
            &mut self,
            vpn: Vpn,
            frames: &mut FrameTable,
        ) -> Result<(), AccessError> {
            let vma = self.vma_at(vpn).ok_or(AccessError::Unmapped(vpn))?;
            if !vma.perms.r {
                return Err(AccessError::PermissionDenied(vpn));
            }
            if self.lazy_pending.contains_key(&vpn.0) {
                self.counters.lazy += 1;
                self.fault_in_lazy(vpn, false, frames);
                return Ok(());
            }
            let fresh = Self::fresh_data(vma, vpn);
            match self.pages.get_mut(&vpn.0) {
                None => {
                    self.counters.minor += 1;
                    let frame = frames.alloc(fresh, Taint::Clean);
                    self.pages
                        .insert(vpn.0, Pte::present(frame, PteFlags::SOFT_DIRTY));
                }
                Some(pte) => {
                    if pte.flags.contains(PteFlags::TLB_COLD) {
                        self.counters.tlb_cold += 1;
                        pte.flags = pte.flags.without(PteFlags::TLB_COLD);
                    } else {
                        self.counters.warm += 1;
                    }
                }
            }
            Ok(())
        }

        fn page_write_access(
            &mut self,
            vpn: Vpn,
            frames: &mut FrameTable,
        ) -> Result<(), AccessError> {
            let vma = self.vma_at(vpn).ok_or(AccessError::Unmapped(vpn))?;
            if !vma.perms.w {
                return Err(AccessError::PermissionDenied(vpn));
            }
            if self.lazy_pending.contains_key(&vpn.0) {
                self.counters.lazy += 1;
                self.fault_in_lazy(vpn, true, frames);
                return Ok(());
            }
            let fresh = Self::fresh_data(vma, vpn);
            match self.pages.get_mut(&vpn.0) {
                None => {
                    self.counters.minor += 1;
                    let frame = frames.alloc(fresh, Taint::Clean);
                    self.pages
                        .insert(vpn.0, Pte::present(frame, PteFlags::SOFT_DIRTY));
                }
                Some(pte) => {
                    let mut faulted = false;
                    if pte.flags.contains(PteFlags::TLB_COLD) {
                        self.counters.tlb_cold += 1;
                        pte.flags = pte.flags.without(PteFlags::TLB_COLD);
                        faulted = true;
                    }
                    if pte.flags.contains(PteFlags::COW) {
                        self.counters.cow += 1;
                        if frames.is_shared(pte.frame) {
                            pte.frame = frames.cow_copy(pte.frame);
                        }
                        pte.flags = pte.flags.without(PteFlags::COW);
                        faulted = true;
                    }
                    if pte.flags.contains(PteFlags::UFFD_WP) {
                        self.counters.uffd_wp += 1;
                        self.uffd_log.push(vpn);
                        pte.flags = pte
                            .flags
                            .without(PteFlags::UFFD_WP)
                            .with(PteFlags::SOFT_DIRTY);
                        faulted = true;
                    } else if pte.flags.contains(PteFlags::SD_WP) {
                        if !faulted {
                            self.counters.sd_wp += 1;
                        }
                        pte.flags = pte
                            .flags
                            .without(PteFlags::SD_WP)
                            .with(PteFlags::SOFT_DIRTY);
                        faulted = true;
                    } else {
                        pte.flags |= PteFlags::SOFT_DIRTY;
                    }
                    if !faulted {
                        self.counters.warm += 1;
                    }
                    // Parity with the extent-based space's eager-capture
                    // sharing: unshare a structurally shared frame
                    // without charging a fault.
                    if frames.is_shared(pte.frame) {
                        pte.frame = frames.cow_copy(pte.frame);
                    }
                }
            }
            Ok(())
        }

        pub fn touch(
            &mut self,
            vpn: Vpn,
            touch: Touch,
            taint: Taint,
            frames: &mut FrameTable,
        ) -> Result<(), AccessError> {
            match touch {
                Touch::Read => self.page_read_access(vpn, frames),
                Touch::WriteWord(val) => {
                    self.page_write_access(vpn, frames)?;
                    let pte = self.pages.get(&vpn.0).expect("just faulted in");
                    let (data, t) = frames.data_mut(pte.frame);
                    data.write_word(1, val);
                    *t = t.merge(taint);
                    Ok(())
                }
            }
        }

        pub fn arm_lazy(&mut self, pages: BTreeMap<u64, LazyPageSource>) {
            self.lazy_pending.extend(pages);
        }

        pub fn lazy_pending_len(&self) -> usize {
            self.lazy_pending.len()
        }

        pub fn take_lazy_dropped(&mut self) -> u64 {
            std::mem::take(&mut self.lazy_dropped)
        }

        pub fn lazy_dropped(&self) -> u64 {
            self.lazy_dropped
        }

        fn fault_in_lazy(&mut self, vpn: Vpn, for_write: bool, frames: &mut FrameTable) {
            let src = self.lazy_pending.remove(&vpn.0).expect("pending entry");
            let armed = if self.uffd_armed {
                PteFlags::UFFD_WP
            } else {
                PteFlags::SD_WP
            };
            if let (false, LazyPageSource::Frame(id)) = (for_write, &src) {
                let id = *id;
                frames.incref(id);
                if let Some(pte) = self.pages.get(&vpn.0) {
                    frames.decref(pte.frame);
                }
                self.pages
                    .insert(vpn.0, Pte::present(id, PteFlags::COW.with(armed)));
                return;
            }
            let data = resolve(src, frames);
            let flags = if for_write {
                if self.uffd_armed {
                    self.uffd_log.push(vpn);
                }
                PteFlags::SOFT_DIRTY
            } else {
                armed
            };
            self.install_private(vpn, data, flags, frames);
        }

        pub fn drain_lazy(&mut self, limit: u64, frames: &mut FrameTable) -> u64 {
            let mut drained = 0u64;
            while drained < limit {
                let Some((&vpn, _)) = self.lazy_pending.iter().next() else {
                    break;
                };
                let src = self.lazy_pending.remove(&vpn).expect("just observed");
                let data = resolve(src, frames);
                let armed = if self.uffd_armed {
                    PteFlags::UFFD_WP
                } else {
                    PteFlags::SD_WP
                };
                self.install_private(Vpn(vpn), data, armed, frames);
                drained += 1;
            }
            drained
        }

        fn install_private(
            &mut self,
            vpn: Vpn,
            data: FrameData,
            flags: PteFlags,
            frames: &mut FrameTable,
        ) {
            self.restore_page(vpn, &data, Taint::Clean, frames)
                .expect("pending pages always lie in a VMA");
            let pte = self.pages.get_mut(&vpn.0).expect("just installed");
            pte.flags = PteFlags::PRESENT.with(flags);
        }

        pub fn mark_all_cow(&mut self) {
            for pte in self.pages.values_mut() {
                pte.flags |= PteFlags::COW;
            }
        }

        pub fn clear_soft_dirty(&mut self) {
            for pte in self.pages.values_mut() {
                pte.flags = pte
                    .flags
                    .without(PteFlags::SOFT_DIRTY)
                    .with(PteFlags::SD_WP);
            }
        }

        pub fn arm_uffd_wp(&mut self) {
            self.uffd_armed = true;
            self.uffd_log.clear();
            for pte in self.pages.values_mut() {
                pte.flags = pte
                    .flags
                    .with(PteFlags::UFFD_WP)
                    .without(PteFlags::SOFT_DIRTY);
            }
        }

        pub fn disarm_uffd(&mut self) -> Vec<Vpn> {
            self.uffd_armed = false;
            for pte in self.pages.values_mut() {
                pte.flags = pte.flags.without(PteFlags::UFFD_WP);
            }
            std::mem::take(&mut self.uffd_log)
        }

        pub fn soft_dirty_pages(&self) -> Vec<Vpn> {
            self.pages
                .iter()
                .filter(|(_, pte)| pte.soft_dirty())
                .map(|(&v, _)| Vpn(v))
                .collect()
        }

        pub fn pagemap(&self) -> impl Iterator<Item = (Vpn, &Pte)> + '_ {
            self.pages.iter().map(|(&v, pte)| (Vpn(v), pte))
        }

        pub fn pte(&self, vpn: Vpn) -> Option<&Pte> {
            self.pages.get(&vpn.0)
        }

        pub fn peek_word(&self, vpn: Vpn, word_index: usize, frames: &FrameTable) -> Option<u64> {
            self.pages
                .get(&vpn.0)
                .map(|pte| frames.data(pte.frame).read_word(word_index))
        }

        pub fn restore_page(
            &mut self,
            vpn: Vpn,
            data: &FrameData,
            taint: Taint,
            frames: &mut FrameTable,
        ) -> Result<(), AccessError> {
            if self.vma_at(vpn).is_none() {
                return Err(AccessError::Unmapped(vpn));
            }
            match self.pages.get_mut(&vpn.0) {
                Some(pte) => {
                    if frames.is_shared(pte.frame) {
                        pte.frame = frames.cow_copy(pte.frame);
                        pte.flags = pte.flags.without(PteFlags::COW);
                    }
                    frames.overwrite(pte.frame, data.clone(), taint);
                }
                None => {
                    let frame = frames.alloc(data.clone(), taint);
                    self.pages
                        .insert(vpn.0, Pte::present(frame, PteFlags::empty()));
                }
            }
            Ok(())
        }

        pub fn evict_page(&mut self, vpn: Vpn, frames: &mut FrameTable) {
            if let Some(pte) = self.pages.remove(&vpn.0) {
                frames.decref(pte.frame);
            }
        }

        pub fn zero_page(&mut self, vpn: Vpn, frames: &mut FrameTable) -> Result<(), AccessError> {
            self.restore_page(vpn, &FrameData::Zero, Taint::Clean, frames)
        }

        pub fn release_all(&mut self, frames: &mut FrameTable) {
            for (_, pte) in std::mem::take(&mut self.pages) {
                frames.decref(pte.frame);
            }
            self.vmas.clear();
            self.lazy_dropped += self.lazy_pending.len() as u64;
            self.lazy_pending.clear();
        }

        pub fn fork(&mut self, frames: &mut FrameTable) -> LegacySpace {
            let mut child_pages = BTreeMap::new();
            for (&vpn, pte) in self.pages.iter_mut() {
                frames.incref(pte.frame);
                pte.flags |= PteFlags::COW;
                let child_flags = pte.flags.with(PteFlags::TLB_COLD);
                child_pages.insert(
                    vpn,
                    Pte {
                        frame: pte.frame,
                        flags: child_flags,
                    },
                );
            }
            LegacySpace {
                cfg: self.cfg,
                vmas: self.vmas.clone(),
                pages: child_pages,
                brk: self.brk,
                counters: FaultCounters::default(),
                uffd_armed: false,
                uffd_log: Vec::new(),
                lazy_pending: BTreeMap::new(),
                lazy_dropped: 0,
            }
        }

        pub fn tainted_pages(&self, req: RequestId, frames: &FrameTable) -> Vec<Vpn> {
            self.pages
                .iter()
                .filter(|(_, pte)| frames.taint(pte.frame).may_contain(req))
                .map(|(&v, _)| Vpn(v))
                .collect()
        }

        pub fn uffd_armed(&self) -> bool {
            self.uffd_armed
        }

        pub fn _store_marker(_: Option<StoreHandle>) {}
    }
}

use legacy::LegacySpace;

/// The address space's change indices against an independent model:
/// `fresh` must be `present ∖ baseline` and `dropped` `baseline ∖
/// present`, both empty while no baseline has been taken.
fn check_change_indices(
    space: &AddressSpace,
    present: &std::collections::BTreeSet<u64>,
    baseline: Option<&std::collections::BTreeSet<u64>>,
) -> Result<(), String> {
    let pages = |runs: &[PageRange]| -> Vec<u64> {
        runs.iter().flat_map(|r| r.iter().map(|v| v.0)).collect()
    };
    let (mut fresh, mut dropped) = (Vec::new(), Vec::new());
    space.fresh_runs_into(&mut fresh);
    space.dropped_runs_into(&mut dropped);
    let empty = std::collections::BTreeSet::new();
    let base = baseline.unwrap_or(&empty);
    let want_fresh: Vec<u64> = match baseline {
        Some(b) => present.difference(b).copied().collect(),
        None => Vec::new(),
    };
    let want_dropped: Vec<u64> = base.difference(present).copied().collect();
    if pages(&fresh) != want_fresh {
        return Err(format!(
            "fresh {fresh:?} != present ∖ baseline {want_fresh:?}"
        ));
    }
    if pages(&dropped) != want_dropped {
        return Err(format!(
            "dropped {dropped:?} != baseline ∖ present {want_dropped:?}"
        ));
    }
    Ok(())
}

/// One twin pair: identical op streams go to both spaces.
struct Twins {
    old: LegacySpace,
    old_frames: FrameTable,
    new: AddressSpace,
    new_frames: FrameTable,
    /// The legacy space's present pages when the extent space's change
    /// baseline was last reset (the model of the change indices).
    baseline: Option<std::collections::BTreeSet<u64>>,
    /// Frame references held by captures, as `(legacy, extent)` pairs.
    held: Vec<(FrameId, FrameId)>,
}

impl Twins {
    fn new() -> Twins {
        let mut old_frames = FrameTable::new();
        let mut new_frames = FrameTable::new();
        Twins {
            old: LegacySpace::new(SpaceConfig::default(), &mut old_frames),
            new: AddressSpace::new(SpaceConfig::default(), &mut new_frames),
            old_frames,
            new_frames,
            baseline: None,
            held: Vec::new(),
        }
    }

    /// Takes one extra reference on the frame of every present page of
    /// `range` in both spaces, as an eager snapshot's capture does: the
    /// frames become shared without a CoW mark.
    fn capture(&mut self, range: PageRange) {
        for v in range.iter() {
            if let (Some(a), Some(b)) = (self.old.pte(v), self.new.pte(v)) {
                let (a, b) = (a.frame, b.frame);
                self.old_frames.incref(a);
                self.new_frames.incref(b);
                self.held.push((a, b));
            }
        }
    }

    /// Drops every reference the captures hold.
    fn release_captures(&mut self) {
        for (a, b) in std::mem::take(&mut self.held) {
            self.old_frames.decref(a);
            self.new_frames.decref(b);
        }
    }

    /// Resets the extent space's change baseline, as a snapshot does,
    /// and the model's with it.
    fn reset_baseline(&mut self) {
        self.new.reset_change_baseline();
        self.baseline = Some(self.old.pagemap().map(|(v, _)| v.0).collect());
    }

    /// Every observable the two implementations share must agree.
    fn assert_equiv(&self, ctx: &str) {
        assert_eq!(
            self.old.counters(),
            self.new.counters(),
            "{ctx}: fault counters"
        );
        assert_eq!(
            self.old.present_pages(),
            self.new.present_pages(),
            "{ctx}: present pages"
        );
        assert_eq!(
            self.old.mapped_pages(),
            self.new.mapped_pages(),
            "{ctx}: mapped pages"
        );
        assert_eq!(self.old.maps(), self.new.maps(), "{ctx}: maps");
        assert_eq!(self.old.brk(), self.new.brk(), "{ctx}: brk");
        assert_eq!(
            self.old.soft_dirty_pages(),
            self.new.soft_dirty_pages(),
            "{ctx}: soft-dirty set"
        );
        assert_eq!(
            self.old.lazy_pending_len(),
            self.new.lazy_pending_len(),
            "{ctx}: lazy pending"
        );
        assert_eq!(
            self.old.lazy_dropped(),
            self.new.lazy_dropped(),
            "{ctx}: lazy dropped"
        );
        assert_eq!(
            self.old_frames.live(),
            self.new_frames.live(),
            "{ctx}: live frames"
        );
        // Page-for-page: presence, flags and word-1 contents.
        let old_pages: Vec<(Vpn, u8)> = self.old.pagemap().map(|(v, p)| (v, p.flags.0)).collect();
        let new_pages: Vec<(Vpn, u8)> = self.new.pagemap().map(|(v, p)| (v, p.flags.0)).collect();
        assert_eq!(old_pages, new_pages, "{ctx}: pagemap flags");
        for (vpn, _) in &old_pages {
            assert_eq!(
                self.old.peek_word(*vpn, 1, &self.old_frames),
                self.new.peek_word(*vpn, 1, &self.new_frames),
                "{ctx}: contents of {vpn:?}"
            );
        }
        // Taint scans for a handful of request ids.
        for req in 1..4u64 {
            assert_eq!(
                self.old.tainted_pages(RequestId(req), &self.old_frames),
                self.new.tainted_pages(RequestId(req), &self.new_frames),
                "{ctx}: tainted pages of req {req}"
            );
        }
        self.new
            .check_invariants_with_frames(&self.new_frames)
            .unwrap_or_else(|e| panic!("{ctx}: invariants: {e}"));
        let present = self.old.pagemap().map(|(v, _)| v.0).collect();
        check_change_indices(&self.new, &present, self.baseline.as_ref())
            .unwrap_or_else(|e| panic!("{ctx}: change indices: {e}"));
    }
}

/// A random page within the mapped regions (both spaces have identical
/// layouts, so one pick serves both).
fn pick_page(space: &AddressSpace, i: u64) -> Option<Vpn> {
    let maps = space.maps();
    if maps.is_empty() {
        return None;
    }
    let vma = &maps[(i % maps.len() as u64) as usize];
    let off = (i / maps.len().max(1) as u64) % vma.range.len();
    Some(Vpn(vma.range.start.0 + off))
}

/// A range from inside one VMA to inside another a few VMAs up (whole
/// VMAs and the holes between them included), for `munmap`/`mprotect`
/// calls that span several VMAs.
fn pick_span(space: &AddressSpace, rng: &mut DetRng) -> Option<PageRange> {
    let maps = space.maps();
    if maps.is_empty() {
        return None;
    }
    let lo = rng.next_below(maps.len() as u64) as usize;
    let hi = (lo + rng.next_below(4) as usize).min(maps.len() - 1);
    let (a, b) = (maps[lo].range, maps[hi].range);
    let start = a.start.0 + rng.next_below(2) * rng.next_below(a.len());
    let end = b.end.0 - rng.next_below(2) * rng.next_below(b.len());
    (start < end).then(|| PageRange::new(Vpn(start), Vpn(end)))
}

/// The free gap above each VMA, up to the next VMA or `mmap_top`,
/// lowest first (the open space below every VMA is not a gap).
fn packed_gaps(space: &AddressSpace) -> Vec<u64> {
    let top = space.config().mmap_top.0;
    let maps = space.maps();
    let next_starts = maps
        .iter()
        .skip(1)
        .map(|v| v.range.start.0.min(top))
        .chain([top]);
    maps.iter()
        .zip(next_starts)
        .map(|(v, next)| next.saturating_sub(v.range.end.0))
        .filter(|&g| g > 0)
        .collect()
}

#[test]
fn extent_space_is_bit_identical_to_per_page_space() {
    for case in 0..96u64 {
        let mut rng = DetRng::new(0x00E0_7E47 ^ case);
        let mut t = Twins::new();
        let n_ops = 20 + rng.next_below(140);
        for op_i in 0..n_ops {
            let ctx = format!("case {case} op {op_i}");
            // Snapshot points: the change indices are tracked from here.
            if op_i == 5 || op_i == n_ops / 2 {
                t.reset_baseline();
            }
            match rng.next_below(19) {
                18 => {
                    if let Some(vpn) = pick_page(&t.new, rng.next_u64()) {
                        t.capture(PageRange::at(vpn, 1 + rng.next_below(8)));
                    }
                }
                0 => {
                    let len = 1 + rng.next_below(31);
                    let a = t.old.mmap(len, Perms::RW, gh_mem::VmaKind::Anon);
                    let b = t.new.mmap(len, Perms::RW, gh_mem::VmaKind::Anon);
                    assert_eq!(a, b, "{ctx}: mmap");
                }
                14 => {
                    // An image-shaped run, as `FunctionProcess::build`
                    // lays one out: regions mapped top-down, each with a
                    // one-page guard fixed directly below it, so the run
                    // packs with no free gap.
                    let per = 1 + rng.next_below(12);
                    let kind = if rng.next_below(3) == 0 {
                        VmaKind::File("image.rt".into())
                    } else {
                        VmaKind::Anon
                    };
                    for _ in 0..1 + rng.next_below(6) {
                        let a = t.old.mmap(per, Perms::RW, kind.clone());
                        let b = t.new.mmap(per, Perms::RW, kind.clone());
                        assert_eq!(a, b, "{ctx}: image mmap");
                        let Ok(r) = b else { break };
                        let guard = PageRange::at(Vpn(r.start.0 - 1), 1);
                        let a = t.old.mmap_fixed(guard, Perms::NONE, VmaKind::Guard);
                        let b = t.new.mmap_fixed(guard, Perms::NONE, VmaKind::Guard);
                        assert_eq!(a, b, "{ctx}: guard mmap_fixed");
                    }
                }
                15 => {
                    // A file mapping (never merges with its neighbours).
                    let len = 1 + rng.next_below(9);
                    let perms = if rng.next_below(2) == 0 {
                        Perms::RX
                    } else {
                        Perms::R
                    };
                    let kind = VmaKind::File(format!("lib{}.so", rng.next_below(3)));
                    let a = t.old.mmap(len, perms, kind.clone());
                    let b = t.new.mmap(len, perms, kind);
                    assert_eq!(a, b, "{ctx}: file mmap");
                }
                16 => {
                    // A length that exactly fits one of the packed gaps,
                    // or fits none of them (landing in the open space
                    // below every mapping).
                    let gaps = packed_gaps(&t.new);
                    let len = match gaps.len() {
                        0 => 1 + rng.next_below(31),
                        n if rng.next_below(3) > 0 => gaps[rng.next_below(n as u64) as usize],
                        _ => gaps.iter().max().expect("non-empty") + 1 + rng.next_below(8),
                    };
                    let a = t.old.mmap(len, Perms::RW, gh_mem::VmaKind::Anon);
                    let b = t.new.mmap(len, Perms::RW, gh_mem::VmaKind::Anon);
                    assert_eq!(a, b, "{ctx}: fitted mmap");
                }
                17 => {
                    if let Some(r) = pick_span(&t.new, &mut rng) {
                        if rng.next_below(2) == 0 {
                            let a = t.old.munmap(r, &mut t.old_frames);
                            let b = t.new.munmap(r, &mut t.new_frames);
                            assert_eq!(a, b, "{ctx}: spanning munmap");
                        } else {
                            let perms =
                                [Perms::R, Perms::RW, Perms::NONE][rng.next_below(3) as usize];
                            let a = t.old.mprotect(r, perms);
                            let b = t.new.mprotect(r, perms);
                            assert_eq!(a, b, "{ctx}: spanning mprotect");
                        }
                    }
                }
                1 => {
                    if let Some(vpn) = pick_page(&t.new, rng.next_u64()) {
                        let r = PageRange::at(vpn, 1 + rng.next_below(5));
                        let a = t.old.munmap(r, &mut t.old_frames);
                        let b = t.new.munmap(r, &mut t.new_frames);
                        assert_eq!(a, b, "{ctx}: munmap");
                    }
                }
                2 => {
                    let heap_base = t.new.config().heap_base;
                    let delta = rng.next_below(60) as i64 - 12;
                    let cur = t.new.brk().0 as i64;
                    let new_brk = Vpn((cur + delta).max(heap_base.0 as i64) as u64);
                    let a = t.old.set_brk(new_brk, &mut t.old_frames);
                    let b = t.new.set_brk(new_brk, &mut t.new_frames);
                    assert_eq!(a, b, "{ctx}: brk");
                }
                3 => {
                    if let Some(vpn) = pick_page(&t.new, rng.next_u64()) {
                        let r = PageRange::at(vpn, 1 + rng.next_below(4));
                        let a = t.old.madvise_dontneed(r, &mut t.old_frames);
                        let b = t.new.madvise_dontneed(r, &mut t.new_frames);
                        assert_eq!(a, b, "{ctx}: madvise");
                    }
                }
                4 => {
                    if let Some(vpn) = pick_page(&t.new, rng.next_u64()) {
                        let r = PageRange::at(vpn, 1 + rng.next_below(3));
                        let perms = if rng.next_below(2) == 0 {
                            Perms::R
                        } else {
                            Perms::RW
                        };
                        let a = t.old.mprotect(r, perms);
                        let b = t.new.mprotect(r, perms);
                        assert_eq!(a, b, "{ctx}: mprotect");
                    }
                }
                5..=7 => {
                    if let Some(vpn) = pick_page(&t.new, rng.next_u64()) {
                        let val = rng.next_u64();
                        let taint = match rng.next_below(3) {
                            0 => Taint::Clean,
                            n => Taint::One(RequestId(n)),
                        };
                        let a = t
                            .old
                            .touch(vpn, Touch::WriteWord(val), taint, &mut t.old_frames);
                        let b = t
                            .new
                            .touch(vpn, Touch::WriteWord(val), taint, &mut t.new_frames);
                        assert_eq!(a, b, "{ctx}: write");
                    }
                }
                8 | 9 => {
                    if let Some(vpn) = pick_page(&t.new, rng.next_u64()) {
                        let a = t
                            .old
                            .touch(vpn, Touch::Read, Taint::Clean, &mut t.old_frames);
                        let b = t
                            .new
                            .touch(vpn, Touch::Read, Taint::Clean, &mut t.new_frames);
                        assert_eq!(a, b, "{ctx}: read");
                    }
                }
                10 => {
                    t.old.clear_soft_dirty();
                    t.new.clear_soft_dirty();
                }
                11 => {
                    if t.new.uffd_armed() {
                        let mut a = t.old.disarm_uffd();
                        let b = t.new.disarm_uffd();
                        // The legacy log is a push Vec in notification
                        // order that can even hold duplicates when a
                        // lazy arming lands mid-epoch (an interleaving
                        // no manager flow produces); the index is the
                        // deduped ascending set — which is what every
                        // consumer (`UffdTracker::collect` sorts +
                        // dedups) actually observes.
                        a.sort_unstable_by_key(|v| v.0);
                        a.dedup();
                        assert_eq!(a, b, "{ctx}: uffd log");
                    } else {
                        t.old.arm_uffd_wp();
                        t.new.arm_uffd_wp();
                    }
                }
                12 => {
                    // Lazy arming: every present page of one VMA against
                    // synthetic pattern sources (same on both sides).
                    if let Some(vpn) = pick_page(&t.new, rng.next_u64()) {
                        let len = 1 + rng.next_below(6);
                        let pages: BTreeMap<u64, LazyPageSource> = PageRange::at(vpn, len)
                            .iter()
                            .filter(|v| t.new.vma_at(*v).is_some())
                            .map(|v| (v.0, LazyPageSource::Data(FrameData::Pattern(v.0 ^ 7))))
                            .collect();
                        t.old.arm_lazy(pages.clone());
                        t.new.arm_lazy(pages);
                    }
                }
                _ => {
                    let limit = rng.next_below(6);
                    let a = t.old.drain_lazy(limit, &mut t.old_frames);
                    let b = t.new.drain_lazy(limit, &mut t.new_frames);
                    assert_eq!(a, b, "{ctx}: drained");
                }
            }
            t.assert_equiv(&ctx);
        }
        // Fork both and replay writes into parent + child.
        let mut old_child = t.old.fork(&mut t.old_frames);
        let mut new_child = t.new.fork(&mut t.new_frames);
        for i in 0..rng.next_below(20) {
            if let Some(vpn) = pick_page(&t.new, rng.next_u64()) {
                let _ = old_child.touch(vpn, Touch::WriteWord(i), Taint::Clean, &mut t.old_frames);
                let _ = new_child.touch(vpn, Touch::WriteWord(i), Taint::Clean, &mut t.new_frames);
                let _ = t
                    .old
                    .touch(vpn, Touch::WriteWord(!i), Taint::Clean, &mut t.old_frames);
                let _ = t
                    .new
                    .touch(vpn, Touch::WriteWord(!i), Taint::Clean, &mut t.new_frames);
            }
        }
        assert_eq!(
            old_child.counters(),
            new_child.counters(),
            "case {case}: child counters"
        );
        assert_eq!(
            old_child.soft_dirty_pages(),
            new_child.soft_dirty_pages(),
            "case {case}: child dirty set"
        );
        assert_eq!(
            old_child.maps(),
            new_child.maps(),
            "case {case}: child maps"
        );
        new_child
            .check_invariants()
            .unwrap_or_else(|e| panic!("case {case}: child invariants: {e}"));
        let child_present = old_child.pagemap().map(|(v, _)| v.0).collect();
        check_change_indices(&new_child, &child_present, None)
            .unwrap_or_else(|e| panic!("case {case}: child change indices: {e}"));
        old_child.release_all(&mut t.old_frames);
        new_child.release_all(&mut t.new_frames);
        t.assert_equiv(&format!("case {case} after fork/teardown"));
        t.release_captures();
        t.assert_equiv(&format!("case {case} after releasing captures"));
        // Full teardown is leak-free on both sides and unmaps everything.
        t.old.release_all(&mut t.old_frames);
        t.new.release_all(&mut t.new_frames);
        assert_eq!(t.old_frames.live(), 0, "case {case}: legacy leak");
        assert_eq!(t.new_frames.live(), 0, "case {case}: extent leak");
        assert_eq!(
            t.new.mapped_pages(),
            0,
            "case {case}: mapped after teardown"
        );
        t.new
            .check_invariants()
            .unwrap_or_else(|e| panic!("case {case}: invariants after teardown: {e}"));
        check_change_indices(&t.new, &Default::default(), t.baseline.as_ref())
            .unwrap_or_else(|e| panic!("case {case}: change indices after teardown: {e}"));
    }
}

/// Restore-path privileged writes agree too (restore_page / zero /
/// evict over churned state, captured pages included).
#[test]
fn privileged_restore_ops_agree() {
    for case in 0..48u64 {
        let mut rng = DetRng::new(0x09E5_702E ^ case);
        let mut t = Twins::new();
        let r_old = t.old.mmap(24, Perms::RW, gh_mem::VmaKind::Anon).unwrap();
        let r_new = t.new.mmap(24, Perms::RW, gh_mem::VmaKind::Anon).unwrap();
        assert_eq!(r_old, r_new);
        for _ in 0..rng.next_below(40) {
            let vpn = Vpn(r_new.start.0 + rng.next_below(24));
            match rng.next_below(6) {
                0 => {
                    let data = FrameData::Pattern(rng.next_u64());
                    let a = t
                        .old
                        .restore_page(vpn, &data, Taint::Clean, &mut t.old_frames);
                    let b = t
                        .new
                        .restore_page(vpn, &data, Taint::Clean, &mut t.new_frames);
                    assert_eq!(a, b);
                }
                1 => {
                    let a = t.old.zero_page(vpn, &mut t.old_frames);
                    let b = t.new.zero_page(vpn, &mut t.new_frames);
                    assert_eq!(a, b);
                }
                2 => {
                    t.old.evict_page(vpn, &mut t.old_frames);
                    t.new.evict_page(vpn, &mut t.new_frames);
                }
                3 => {
                    let taint = Taint::One(RequestId(1 + rng.next_below(2)));
                    let val = rng.next_u64();
                    let a = t
                        .old
                        .touch(vpn, Touch::WriteWord(val), taint, &mut t.old_frames);
                    let b = t
                        .new
                        .touch(vpn, Touch::WriteWord(val), taint, &mut t.new_frames);
                    assert_eq!(a, b);
                }
                4 => {
                    t.old.clear_soft_dirty();
                    t.new.clear_soft_dirty();
                }
                _ => t.capture(PageRange::at(vpn, 1 + rng.next_below(6))),
            }
        }
        t.assert_equiv(&format!("case {case}"));
        t.release_captures();
        t.assert_equiv(&format!("case {case}, captures released"));
    }
}

/// The scan-work counter: identical dirty sets cost identical index
/// work no matter how much is mapped or present — the O(dirty + extents)
/// property asserted structurally, not by timing.
#[test]
fn soft_dirty_scan_work_is_independent_of_present_size() {
    let build = |present_pages: u64| -> (AddressSpace, FrameTable, PageRange) {
        let mut frames = FrameTable::new();
        let mut s = AddressSpace::new(SpaceConfig::default(), &mut frames);
        let r = s
            .mmap(present_pages, Perms::RW, gh_mem::VmaKind::Anon)
            .unwrap();
        for vpn in r.iter() {
            s.touch(vpn, Touch::WriteWord(1), Taint::Clean, &mut frames)
                .unwrap();
        }
        s.clear_soft_dirty();
        (s, frames, r)
    };
    let (mut small, mut small_frames, r_small) = build(2_048);
    let (mut big, mut big_frames, r_big) = build(32_768);
    // Same relative dirty pattern in both.
    let offsets: Vec<u64> = (0..64u64).map(|i| i * 17).collect();
    for &off in &offsets {
        small
            .touch(
                Vpn(r_small.start.0 + off % 2_048),
                Touch::WriteWord(2),
                Taint::Clean,
                &mut small_frames,
            )
            .unwrap();
        big.touch(
            Vpn(r_big.start.0 + off % 2_048),
            Touch::WriteWord(2),
            Taint::Clean,
            &mut big_frames,
        )
        .unwrap();
    }
    assert_eq!(small.soft_dirty_pages().len(), big.soft_dirty_pages().len());
    let dirty = small.soft_dirty_pages().len() as u64;
    // The defining assertion: scan work is a function of the dirty set
    // alone. 16x more present pages, identical work counter.
    let w_small = small.soft_dirty_scan_work();
    let w_big = big.soft_dirty_scan_work();
    assert_eq!(w_small, w_big, "scan work must not see the present size");
    assert!(
        w_small <= 3 * dirty + 3,
        "work {w_small} must be O(dirty={dirty}), not O(present)"
    );
    // And extents stay O(initial + dirty): one armed run split by the
    // dirty pages.
    assert!(
        (big.extent_count() as u64) <= 2 * dirty + 4,
        "extents {} must be O(dirty)",
        big.extent_count()
    );
}
