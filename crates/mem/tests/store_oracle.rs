//! Differential oracle: `SnapshotStore::intern_refs` vs a per-page
//! reference model of the same store.
//!
//! The store keeps each function's base image as the founding capture's
//! frame runs and dedups a later capture by walking a cursor over them.
//! The model below keeps the base as a per-page `BTreeMap<vpn, frame>`
//! and interns page by page, each page on its own: a same-vpn base frame
//! with equal contents, else a live frame from the key's content-hash
//! index with equal contents, else a fresh frame. Both own a frame table
//! and allocate and free in the same order, so frame ids are comparable.
//!
//! Seeded sequences of captures under two keys split and merge runs
//! differently from the base, add pages the base lacks and drop base
//! pages, move content to other vpns, repeat earlier deltas, release
//! deltas and intern them again, and sometimes start with an empty
//! capture (which must establish nothing). After every step the
//! returned frame ids, the store's counters and its live frames must
//! equal the model's.

use std::collections::{BTreeMap, HashMap};

use gh_sim::DetRng;

use gh_mem::{FrameData, FrameId, FrameRuns, FrameTable, SnapshotStore, StoreStats, Taint, Vpn};

/// One key's base image in the model: per-page frames plus the
/// content-hash index.
#[derive(Default)]
struct ModelBase {
    pages: BTreeMap<u64, FrameId>,
    by_hash: HashMap<u64, Vec<FrameId>>,
}

/// The per-page reference store.
#[derive(Default)]
struct Model {
    frames: FrameTable,
    bases: BTreeMap<String, ModelBase>,
    stats: StoreStats,
}

impl Model {
    fn intern(
        &mut self,
        key: &str,
        runs: &[(Vpn, Vec<FrameId>)],
        frames: &FrameTable,
    ) -> Vec<(Vpn, FrameId)> {
        let established = self.bases.contains_key(key);
        let mut out = Vec::new();
        for (start, ids) in runs {
            if !established {
                self.bases.entry(key.to_string()).or_default();
            }
            for (i, &id) in ids.iter().enumerate() {
                let vpn = start.0 + i as u64;
                let data = frames.data(id);
                let got = if established {
                    self.intern_page(key, vpn, data)
                } else {
                    self.establish_page(key, vpn, data)
                };
                out.push((Vpn(vpn), got));
            }
        }
        out
    }

    fn establish_page(&mut self, key: &str, vpn: u64, data: &FrameData) -> FrameId {
        let hash = data.logical_hash();
        let id = self.frames.alloc(data.clone(), Taint::Clean);
        self.frames.incref(id);
        let base = self.bases.get_mut(key).expect("base entry");
        base.pages.insert(vpn, id);
        base.by_hash.entry(hash).or_default().push(id);
        self.stats.dedup_misses += 1;
        self.stats.logical_pages += 1;
        id
    }

    fn intern_page(&mut self, key: &str, vpn: u64, data: &FrameData) -> FrameId {
        self.stats.logical_pages += 1;
        let base = self.bases.get_mut(key).expect("base established");
        if let Some(&id) = base.pages.get(&vpn) {
            if self.frames.data(id).logical_eq(data) {
                self.stats.dedup_hits += 1;
                self.frames.incref(id);
                return id;
            }
        }
        let hash = data.logical_hash();
        if let Some(candidates) = base.by_hash.get_mut(&hash) {
            candidates.retain(|&id| self.frames.is_live(id));
            if let Some(&id) = candidates
                .iter()
                .find(|&&id| self.frames.data(id).logical_eq(data))
            {
                self.stats.hash_hits += 1;
                self.frames.incref(id);
                return id;
            }
        }
        self.stats.dedup_misses += 1;
        let id = self.frames.alloc(data.clone(), Taint::Clean);
        base.by_hash.entry(hash).or_default().push(id);
        id
    }

    fn release(&mut self, refs: &[(Vpn, FrameId)]) {
        for &(_, id) in refs {
            self.frames.decref(id);
        }
        self.stats.logical_pages = self.stats.logical_pages.saturating_sub(refs.len() as u64);
    }
}

/// Page contents drawn from small value sets, so equal contents recur
/// at different vpns, across captures and across representations.
fn content(rng: &mut DetRng) -> FrameData {
    let word = rng.next_below(512) as usize;
    match rng.next_below(6) {
        0 => FrameData::Zero,
        1 | 2 => FrameData::Pattern(rng.next_below(8)),
        3 => {
            let mut page = FrameData::Zero;
            page.write_word(word, 1 + rng.next_below(3));
            page
        }
        4 => {
            let mut page = FrameData::Pattern(rng.next_below(4));
            page.write_word(word, rng.next_below(3));
            page
        }
        _ => {
            // A zero-based patch holding 0: logically a zero page.
            let mut page = FrameData::Zero;
            page.write_word(word, 7);
            page.write_word(word, 0);
            page
        }
    }
}

/// The base image of one key: vpns `0..span` with a few holes.
fn base_image(rng: &mut DetRng) -> BTreeMap<u64, FrameData> {
    let span = 8 + rng.next_below(56);
    let mut pages = BTreeMap::new();
    for vpn in 0..span {
        if rng.next_below(5) != 0 {
            pages.insert(vpn, content(rng));
        }
    }
    pages
}

/// A later container's pages: `base` with drops, additions, changed
/// pages and moved contents.
fn derive(rng: &mut DetRng, base: &BTreeMap<u64, FrameData>) -> BTreeMap<u64, FrameData> {
    let mut pages = base.clone();
    let span = base.keys().next_back().map_or(8, |&v| v + 8);
    for _ in 0..rng.next_below(6) {
        let vpn = rng.next_below(span);
        match rng.next_below(4) {
            0 => {
                pages.remove(&vpn);
            }
            1 | 2 => {
                pages.insert(vpn, content(rng));
            }
            _ => {
                if let Some(data) = pages.remove(&vpn) {
                    pages.insert(rng.next_below(span), data);
                }
            }
        }
    }
    pages
}

/// Allocates `pages` in the process table `procs` as sorted runs, each
/// maximal run cut at random points into adjacent pieces.
fn capture(
    rng: &mut DetRng,
    procs: &mut FrameTable,
    pages: &BTreeMap<u64, FrameData>,
) -> Vec<(Vpn, Vec<FrameId>)> {
    let mut runs: Vec<(Vpn, Vec<FrameId>)> = Vec::new();
    for (&vpn, data) in pages {
        let id = procs.alloc(data.clone(), Taint::Clean);
        match runs.last_mut() {
            Some((start, ids)) if start.0 + ids.len() as u64 == vpn && rng.next_below(4) != 0 => {
                ids.push(id)
            }
            _ => runs.push((Vpn(vpn), vec![id])),
        }
    }
    runs
}

/// One interned capture still held by its container.
struct Held {
    key: usize,
    pages: BTreeMap<u64, FrameData>,
    runs: Vec<(Vpn, Vec<FrameId>)>,
    refs: FrameRuns,
    model: Vec<(Vpn, FrameId)>,
}

const KEYS: [&str; 2] = ["f", "g"];

/// Interns `pages` under key `key` in both stores and checks that they
/// agree.
fn intern(
    store: &mut SnapshotStore,
    model: &mut Model,
    procs: &mut FrameTable,
    rng: &mut DetRng,
    key: usize,
    pages: BTreeMap<u64, FrameData>,
    label: &str,
) -> Held {
    let runs = capture(rng, procs, &pages);
    let refs = store.intern_refs(KEYS[key], &runs, procs);
    let expect = model.intern(KEYS[key], &runs, procs);
    assert_eq!(
        refs.iter().collect::<Vec<_>>(),
        expect,
        "{label}: frame ids"
    );
    assert_eq!(refs.run_count(), runs.len(), "{label}: runs");
    for (vpn, id) in refs.iter() {
        assert!(
            store.data(id).logical_eq(&pages[&vpn.0]),
            "{label}: contents at {vpn:?}"
        );
    }
    agree(store, model, label);
    Held {
        key,
        pages,
        runs,
        refs,
        model: expect,
    }
}

/// Releases a held capture from both stores and from the process table.
fn release(
    store: &mut SnapshotStore,
    model: &mut Model,
    procs: &mut FrameTable,
    h: &mut Held,
    label: &str,
) {
    store.release_runs(&mut h.refs);
    model.release(&h.model);
    for (_, ids) in &h.runs {
        ids.iter().for_each(|&id| procs.decref(id));
    }
    agree(store, model, label);
}

fn agree(store: &SnapshotStore, model: &Model, label: &str) {
    assert_eq!(store.stats(), model.stats, "{label}: stats");
    assert_eq!(
        store.live_frames(),
        model.frames.live(),
        "{label}: live frames"
    );
}

#[test]
fn intern_refs_matches_the_per_page_model() {
    let mut totals = StoreStats::default();
    for seed in 0..96u64 {
        let mut rng = DetRng::new(0x5707_E0AC ^ seed);
        let mut store = SnapshotStore::new();
        let mut model = Model::default();
        let mut procs = FrameTable::new();
        let bases: Vec<BTreeMap<u64, FrameData>> =
            KEYS.iter().map(|_| base_image(&mut rng)).collect();
        // Page sets interned so far per key, for repeats.
        let mut seen: Vec<Vec<BTreeMap<u64, FrameData>>> = vec![Vec::new(); KEYS.len()];
        let mut held: Vec<Held> = Vec::new();
        let (s, m, p) = (&mut store, &mut model, &mut procs);
        if seed % 4 == 0 {
            // An empty first capture establishes nothing: the next
            // capture under the key is its base.
            let label = format!("seed {seed} empty");
            let empty = intern(s, m, p, &mut rng, 0, BTreeMap::new(), &label);
            assert_eq!(empty.refs.total_pages(), 0, "{label}");
            assert_eq!(s.stats(), StoreStats::default(), "{label}");
        }
        for step in 0..24 {
            let label = format!("seed {seed} step {step}");
            let k = rng.next_below(KEYS.len() as u64) as usize;
            let (k, pages) = if seen[k].is_empty() {
                (k, bases[k].clone())
            } else {
                match rng.next_below(8) {
                    // Release a held capture; half the time intern the
                    // same pages again under its key.
                    0 | 1 if !held.is_empty() => {
                        let i = rng.next_below(held.len() as u64) as usize;
                        let mut h = held.swap_remove(i);
                        release(s, m, p, &mut h, &label);
                        if rng.next_below(2) == 0 {
                            continue;
                        }
                        (h.key, h.pages)
                    }
                    // Repeat an earlier page set (a repeated delta).
                    2 | 3 => {
                        let i = rng.next_below(seen[k].len() as u64) as usize;
                        (k, seen[k][i].clone())
                    }
                    _ => (k, derive(&mut rng, &bases[k])),
                }
            };
            let label = format!("{label} key {}", KEYS[k]);
            seen[k].push(pages.clone());
            held.push(intern(s, m, p, &mut rng, k, pages, &label));
        }
        // Retire every container: only the base images stay resident.
        for mut h in held {
            release(s, m, p, &mut h, &format!("seed {seed} retire"));
        }
        assert_eq!(s.stats().logical_pages, 0, "seed {seed}");
        totals.dedup_hits += s.stats().dedup_hits;
        totals.hash_hits += s.stats().hash_hits;
        totals.dedup_misses += s.stats().dedup_misses;
    }
    // Every dedup outcome occurred, the content-hash index included.
    assert!(
        totals.dedup_hits > 0 && totals.hash_hits > 0 && totals.dedup_misses > 0,
        "{totals:?}"
    );
}
