//! Content-addressed result cache with deterministic virtual-time
//! expiry and an LRU byte budget.
//!
//! Idempotent requests are keyed by `(function, canonicalized payload)`
//! — [`Payload`] sorts its key-value pairs before hashing, so two
//! payloads that differ only in field order produce the same
//! [`CacheKey`]. A hit short-circuits the request at the gateway; the
//! container pool never sees it.
//!
//! Every decision is a pure function of the insert/lookup sequence and
//! the *virtual* clock, never the host clock:
//!
//! - **TTL expiry** is exact-boundary: an entry inserted visible at `v`
//!   with TTL `T` serves hits for `now ∈ [v, v+T)` and is expired *at*
//!   `v+T` ([`ResultCache::lookup`] is strict, pinned by a unit test).
//!   [`ResultCache::next_expiry`] exposes the earliest deadline so the
//!   driving event loop can schedule expiry as an event on its
//!   [`gh_sim::event::EventQueue`] and sweep with
//!   [`ResultCache::expire_due`].
//! - **LRU eviction** follows the operation sequence, not wall time,
//!   so eviction order is identical across serial and parallel
//!   drivers. Entries live in a slab threaded by an intrusive
//!   doubly-linked recency list: a hit or an insert moves the entry to
//!   the newest end, and victims come off the oldest end. A hit is one
//!   probe of the key index (a multiply-xor hash, since keys carry an
//!   already-mixed payload hash) plus a few link writes; only inserts,
//!   expiries and redeploys touch the ordered `(deadline, insert seq)`
//!   expiry index, whose sequence number breaks deadline ties in
//!   insertion order.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use gh_sim::Nanos;

/// Fixed per-entry bookkeeping charge (key, indices, expiry slot) added
/// to the payload bytes when accounting against the byte budget.
pub const ENTRY_OVERHEAD_BYTES: u64 = 64;

/// A request payload as the gateway sees it: named `u64` fields.
///
/// Construction canonicalizes — pairs are sorted by `(key, value)` — so
/// the hash is independent of the order the caller listed the fields
/// in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Payload {
    pairs: Vec<(String, u64)>,
}

impl Payload {
    /// Builds a canonicalized payload from `(field, value)` pairs.
    pub fn new<K: Into<String>>(pairs: impl IntoIterator<Item = (K, u64)>) -> Payload {
        let mut pairs: Vec<(String, u64)> = pairs.into_iter().map(|(k, v)| (k.into(), v)).collect();
        pairs.sort();
        Payload { pairs }
    }

    /// The canonical pairs, sorted.
    pub fn pairs(&self) -> &[(String, u64)] {
        &self.pairs
    }

    /// FNV-1a over the canonical encoding (length-prefixed field names,
    /// little-endian values). Deterministic across platforms and runs.
    pub fn hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for (k, v) in &self.pairs {
            eat(&(k.len() as u64).to_le_bytes());
            eat(k.as_bytes());
            eat(&v.to_le_bytes());
        }
        h
    }
}

/// The content address of a cacheable result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Function identity (fleet runs use 0; cluster runs use the trace
    /// `fn_id`).
    pub fn_id: u64,
    /// Deployment generation of the function. A redeploy bumps the
    /// driving loop's generation counter, so results produced by the
    /// old code become unreachable even before
    /// [`ResultCache::redeploy`] sweeps them.
    pub generation: u64,
    /// Canonical payload hash ([`Payload::hash`] or a trace-synthesized
    /// equivalent).
    pub payload_hash: u64,
}

impl CacheKey {
    /// Key of `payload` under function `fn_id`, generation 0.
    pub fn new(fn_id: u64, payload: &Payload) -> CacheKey {
        CacheKey {
            fn_id,
            generation: 0,
            payload_hash: payload.hash(),
        }
    }
}

/// Result-cache knobs.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Per-function TTL: an entry serves hits for `[visible, visible+ttl)`.
    pub ttl: Nanos,
    /// LRU byte budget over `output bytes + ENTRY_OVERHEAD_BYTES` per
    /// entry. Inserting past the budget evicts least-recently-used
    /// entries first.
    pub byte_budget: u64,
    /// Virtual-time cost charged to a request served from the cache
    /// (hash + lookup + response serialization at the gateway).
    pub hit_cost: Nanos,
}

impl CacheConfig {
    /// A small general-purpose cache: 30s TTL, 4 MiB budget, 50µs hits.
    pub fn default_for_ttl(ttl: Nanos) -> CacheConfig {
        CacheConfig {
            ttl,
            byte_budget: 4 << 20,
            hit_cost: Nanos::from_micros(50),
        }
    }
}

/// Cache outcome counters (all monotone).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Idempotent lookups that found nothing servable.
    pub misses: u64,
    /// Entries inserted (including replacements).
    pub insertions: u64,
    /// Entries evicted by the LRU byte budget.
    pub evictions: u64,
    /// Entries removed by TTL expiry.
    pub expired: u64,
    /// Entries dropped because their function was redeployed.
    pub invalidated: u64,
}

/// Slab link value meaning "no entry".
const NIL: u32 = u32::MAX;

/// Multiply-xor hasher for [`CacheKey`]s. A key is two small ids and a
/// payload hash that is already mixed ([`mix`], [`Payload::hash`]), so
/// one multiply per word plus a final fold spreads it across the table
/// without SipHash's rounds. Keys come from the simulator's own
/// workload generators, so there are no crafted collisions to resist.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The table indexes by the low bits, which a multiply mixes
        // least: fold the high half down.
        self.0 ^ (self.0 >> 32)
    }
}

/// One slab slot. A live entry sits in the key index, the expiry index
/// and the LRU list; a free slot is listed in `ResultCache::free`.
struct Entry {
    key: CacheKey,
    seq: u64,
    visible_from: Nanos,
    expires_at: Nanos,
    bytes: u64,
    output_kb: u64,
    /// LRU neighbour one step towards the victim end ([`NIL`] at it).
    older: u32,
    /// LRU neighbour one step towards the newest end ([`NIL`] at it).
    newer: u32,
}

/// The content-addressed result cache. See the module docs for the
/// determinism contract.
pub struct ResultCache {
    cfg: CacheConfig,
    /// Entry slots, live and free.
    slab: Vec<Entry>,
    /// Free slots of `slab`, reused before it grows.
    free: Vec<u32>,
    /// Key → live slot.
    index: HashMap<CacheKey, u32, BuildHasherDefault<KeyHasher>>,
    /// LRU list ends: the next victim and the last entry hit or inserted.
    oldest: u32,
    newest: u32,
    /// Expiry index: (deadline, insert seq) → slot.
    by_expiry: BTreeMap<(Nanos, u64), u32>,
    seq: u64,
    bytes: u64,
    /// Outcome counters.
    pub stats: CacheStats,
}

impl ResultCache {
    /// An empty cache under `cfg`.
    pub fn new(cfg: CacheConfig) -> ResultCache {
        ResultCache {
            cfg,
            slab: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
            oldest: NIL,
            newest: NIL,
            by_expiry: BTreeMap::new(),
            seq: 0,
            bytes: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache runs under.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Bytes currently charged against the budget — bounded by
    /// `byte_budget` by construction, independent of request count.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Takes slot `i` out of the LRU list.
    fn detach(&mut self, i: u32) {
        let (older, newer) = {
            let e = &self.slab[i as usize];
            (e.older, e.newer)
        };
        match older {
            NIL => self.oldest = newer,
            o => self.slab[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slab[n as usize].older = older,
        }
    }

    /// Puts detached slot `i` at the newest end of the LRU list.
    fn push_newest(&mut self, i: u32) {
        let prev = self.newest;
        let e = &mut self.slab[i as usize];
        e.older = prev;
        e.newer = NIL;
        match prev {
            NIL => self.oldest = i,
            p => self.slab[p as usize].newer = i,
        }
        self.newest = i;
    }

    /// Removes live slot `i` from every index and frees it.
    fn unlink(&mut self, i: u32) {
        self.detach(i);
        let e = &self.slab[i as usize];
        self.index.remove(&e.key);
        self.by_expiry.remove(&(e.expires_at, e.seq));
        self.bytes -= e.bytes;
        self.free.push(i);
    }

    /// Looks `key` up at virtual time `now`. Serves entries with
    /// `visible_from ≤ now < expires_at`; the upper bound is strict, so
    /// a lookup at exactly the expiry deadline misses. A hit moves the
    /// entry to the newest end of the LRU list and returns its output
    /// size (KiB).
    pub fn lookup(&mut self, key: CacheKey, now: Nanos) -> Option<u64> {
        let servable = self.index.get(&key).copied().filter(|&i| {
            let e = &self.slab[i as usize];
            e.visible_from <= now && now < e.expires_at
        });
        let Some(i) = servable else {
            self.stats.misses += 1;
            return None;
        };
        if i != self.newest {
            self.detach(i);
            self.push_newest(i);
        }
        self.stats.hits += 1;
        Some(self.slab[i as usize].output_kb)
    }

    /// Inserts (or replaces) the result for `key`: `output_kb` KiB
    /// becoming visible at `visible_from` (the backend response time)
    /// and expiring at `visible_from + ttl`. Evicts least-recently-used
    /// entries until the byte budget holds; an entry larger than the
    /// whole budget is not cached at all.
    pub fn insert(&mut self, key: CacheKey, output_kb: u64, visible_from: Nanos) {
        let bytes = output_kb * 1024 + ENTRY_OVERHEAD_BYTES;
        if bytes > self.cfg.byte_budget {
            return;
        }
        if let Some(&old) = self.index.get(&key) {
            self.unlink(old);
        }
        while self.bytes + bytes > self.cfg.byte_budget {
            assert_ne!(self.oldest, NIL, "over budget implies a resident entry");
            self.unlink(self.oldest);
            self.stats.evictions += 1;
        }
        self.seq += 1;
        let e = Entry {
            key,
            seq: self.seq,
            visible_from,
            expires_at: visible_from + self.cfg.ttl,
            bytes,
            output_kb,
            older: NIL,
            newer: NIL,
        };
        let deadline = (e.expires_at, e.seq);
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = e;
                i
            }
            None => {
                let i = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("fewer than 2^32 - 1 cache slots");
                self.slab.push(e);
                i
            }
        };
        self.push_newest(i);
        self.by_expiry.insert(deadline, i);
        self.index.insert(key, i);
        self.bytes += bytes;
        self.stats.insertions += 1;
    }

    /// The earliest expiry deadline among live entries — what the
    /// driving event loop schedules its next cache-expiry event at.
    pub fn next_expiry(&self) -> Option<Nanos> {
        self.by_expiry.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Drops every entry belonging to `fn_id`, across all generations —
    /// a redeploy makes cached results stale regardless of TTL. The
    /// caller bumps its generation counter as well, so in-flight fills
    /// from the old deployment land under unreachable keys. Returns how
    /// many entries were invalidated.
    pub fn redeploy(&mut self, fn_id: u64) -> usize {
        let mut dropped = 0;
        let mut i = self.oldest;
        while i != NIL {
            let e = &self.slab[i as usize];
            let newer = e.newer;
            if e.key.fn_id == fn_id {
                self.unlink(i);
                dropped += 1;
            }
            i = newer;
        }
        self.stats.invalidated += dropped as u64;
        dropped
    }

    /// Removes every entry whose deadline has passed (`expires_at ≤
    /// now`), returning how many were swept.
    pub fn expire_due(&mut self, now: Nanos) -> usize {
        let mut swept = 0;
        while let Some((&(at, _), &i)) = self.by_expiry.first_key_value() {
            if at > now {
                break;
            }
            self.unlink(i);
            self.stats.expired += 1;
            swept += 1;
        }
        swept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_sim::{mix, DetRng};

    fn cache(ttl_ms: u64, budget: u64) -> ResultCache {
        ResultCache::new(CacheConfig {
            ttl: Nanos::from_millis(ttl_ms),
            byte_budget: budget,
            hit_cost: Nanos::from_micros(50),
        })
    }

    #[test]
    fn payload_hash_is_order_independent() {
        let a = Payload::new([("user", 7u64), ("size", 3), ("op", 1)]);
        let b = Payload::new([("op", 1u64), ("user", 7), ("size", 3)]);
        assert_eq!(a, b, "canonicalization sorts the pairs");
        assert_eq!(a.hash(), b.hash());
        assert_eq!(CacheKey::new(4, &a), CacheKey::new(4, &b));
    }

    #[test]
    fn payload_hash_separates_values_fields_and_functions() {
        let a = Payload::new([("k", 1u64)]);
        let b = Payload::new([("k", 2u64)]);
        let c = Payload::new([("q", 1u64)]);
        assert_ne!(a.hash(), b.hash(), "value matters");
        assert_ne!(a.hash(), c.hash(), "field name matters");
        assert_ne!(CacheKey::new(0, &a), CacheKey::new(1, &a), "fn matters");
        // Length prefixing keeps ("ab",…) ≠ ("a",…) + ("b",…) style
        // ambiguity out of the encoding.
        let d = Payload::new([("ab", 1u64)]);
        let e = Payload::new([("a", 1u64), ("b", 1)]);
        assert_ne!(d.hash(), e.hash());
    }

    #[test]
    fn ttl_boundary_is_exact() {
        let mut c = cache(10, 1 << 20);
        let key = CacheKey::new(0, &Payload::new([("k", 1u64)]));
        let visible = Nanos::from_millis(100);
        c.insert(key, 2, visible);
        assert!(c.lookup(key, visible).is_some(), "servable at visibility");
        let last = visible + Nanos::from_millis(10) - Nanos::from_nanos(1);
        assert!(c.lookup(key, last).is_some(), "servable one tick before");
        let deadline = visible + Nanos::from_millis(10);
        assert!(
            c.lookup(key, deadline).is_none(),
            "expired at the exact deadline"
        );
        assert_eq!(c.next_expiry(), Some(deadline));
        assert_eq!(c.expire_due(deadline), 1);
        assert!(c.is_empty());
        assert_eq!(c.stats.expired, 1);
    }

    #[test]
    fn entries_are_invisible_before_their_fill_completes() {
        let mut c = cache(50, 1 << 20);
        let key = CacheKey::new(0, &Payload::new([("k", 9u64)]));
        c.insert(key, 1, Nanos::from_millis(20));
        assert!(
            c.lookup(key, Nanos::from_millis(10)).is_none(),
            "the backend response has not landed yet"
        );
        assert!(c.lookup(key, Nanos::from_millis(20)).is_some());
    }

    #[test]
    fn lru_budget_evicts_least_recently_used() {
        // Budget fits exactly two 1-KiB entries (1024 + 64 overhead each).
        let mut c = cache(1_000, 2 * (1024 + ENTRY_OVERHEAD_BYTES));
        let k = |i: u64| CacheKey {
            fn_id: 0,
            generation: 0,
            payload_hash: i,
        };
        let t = Nanos::from_millis(1);
        c.insert(k(1), 1, t);
        c.insert(k(2), 1, t);
        // Touch k1 so k2 is the LRU victim.
        assert!(c.lookup(k(1), Nanos::from_millis(2)).is_some());
        c.insert(k(3), 1, t);
        assert_eq!(c.stats.evictions, 1);
        assert!(c.lookup(k(1), Nanos::from_millis(3)).is_some(), "kept");
        assert!(c.lookup(k(2), Nanos::from_millis(3)).is_none(), "evicted");
        assert!(c.lookup(k(3), Nanos::from_millis(3)).is_some(), "inserted");
        assert!(c.bytes() <= 2 * (1024 + ENTRY_OVERHEAD_BYTES));
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let mut c = cache(1_000, 100);
        let key = CacheKey::new(0, &Payload::new([("k", 1u64)]));
        c.insert(key, 1, Nanos::ZERO); // 1088 B > 100 B budget
        assert!(c.is_empty());
        assert_eq!(c.stats.insertions, 0);
    }

    #[test]
    fn reinsert_replaces_and_reaccounts() {
        let mut c = cache(10, 1 << 20);
        let key = CacheKey::new(0, &Payload::new([("k", 1u64)]));
        c.insert(key, 4, Nanos::from_millis(1));
        let before = c.bytes();
        c.insert(key, 2, Nanos::from_millis(5));
        assert_eq!(c.len(), 1);
        assert!(c.bytes() < before, "smaller result re-accounted");
        // The replacement's TTL runs from its own visibility.
        assert_eq!(c.next_expiry(), Some(Nanos::from_millis(15)));
        assert_eq!(c.lookup(key, Nanos::from_millis(12)), Some(2));
    }

    #[test]
    fn redeploy_drops_only_the_functions_entries() {
        let mut c = cache(1_000, 1 << 20);
        let key = |f: u64, p: u64| CacheKey {
            fn_id: f,
            generation: 0,
            payload_hash: p,
        };
        let t = Nanos::from_millis(1);
        c.insert(key(0, 1), 1, t);
        c.insert(key(0, 2), 1, t);
        c.insert(key(1, 3), 1, t);
        assert_eq!(c.redeploy(0), 2);
        assert_eq!(c.stats.invalidated, 2);
        assert!(c.lookup(key(0, 1), t).is_none(), "fn 0 invalidated");
        assert!(c.lookup(key(1, 3), t).is_some(), "fn 1 untouched");
        // The expiry index is consistent: only fn 1's deadline remains.
        assert_eq!(c.next_expiry(), Some(t + Nanos::from_millis(1_000)));
    }

    #[test]
    fn generation_bump_hides_entries_even_inside_their_ttl() {
        // The TTL/generation interaction: an entry is servable for its
        // whole TTL window *only under the generation it was filled
        // at*. After a redeploy the driving loop looks up (and fills)
        // generation g+1 keys, so an un-swept old-generation entry can
        // never produce a hit, no matter how fresh its TTL is.
        let mut c = cache(1_000, 1 << 20);
        let old = CacheKey {
            fn_id: 0,
            generation: 0,
            payload_hash: 42,
        };
        let new = CacheKey {
            generation: 1,
            ..old
        };
        let t = Nanos::from_millis(1);
        c.insert(old, 1, t);
        assert!(c.lookup(old, t).is_some(), "inside TTL, same generation");
        assert!(
            c.lookup(new, t).is_none(),
            "inside TTL, bumped generation misses"
        );
        // The new generation fills independently; both coexist until
        // redeploy() or TTL sweeps the stale one.
        c.insert(new, 1, t);
        assert_eq!(c.len(), 2);
        assert_eq!(c.redeploy(0), 2, "redeploy sweeps all generations");
    }

    #[test]
    fn mix_spreads_small_integers() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            seen.insert(mix(i));
        }
        assert_eq!(seen.len(), 1000, "no collisions on small inputs");
    }

    /// The cache as it was before the slab, kept as the reference
    /// model: a SipHash key map plus two `BTreeMap`s, a recency index
    /// bumped by a logical tick and the `(deadline, insert seq)` expiry
    /// index.
    struct BTreeModel {
        cfg: CacheConfig,
        entries: HashMap<CacheKey, ModelEntry>,
        by_recency: BTreeMap<u64, CacheKey>,
        by_expiry: BTreeMap<(Nanos, u64), CacheKey>,
        tick: u64,
        seq: u64,
        bytes: u64,
        stats: CacheStats,
    }

    struct ModelEntry {
        recency: u64,
        seq: u64,
        visible_from: Nanos,
        expires_at: Nanos,
        bytes: u64,
        output_kb: u64,
    }

    impl BTreeModel {
        fn new(cfg: CacheConfig) -> BTreeModel {
            BTreeModel {
                cfg,
                entries: HashMap::new(),
                by_recency: BTreeMap::new(),
                by_expiry: BTreeMap::new(),
                tick: 0,
                seq: 0,
                bytes: 0,
                stats: CacheStats::default(),
            }
        }

        /// `[visible_from, expires_at)` of the live entry under `key`.
        fn window(&self, key: &CacheKey) -> Option<(Nanos, Nanos)> {
            self.entries
                .get(key)
                .map(|e| (e.visible_from, e.expires_at))
        }

        fn unlink(&mut self, key: &CacheKey) -> Option<ModelEntry> {
            let e = self.entries.remove(key)?;
            self.by_recency.remove(&e.recency);
            self.by_expiry.remove(&(e.expires_at, e.seq));
            self.bytes -= e.bytes;
            Some(e)
        }

        fn lookup(&mut self, key: CacheKey, now: Nanos) -> Option<u64> {
            let servable = self
                .entries
                .get(&key)
                .is_some_and(|e| e.visible_from <= now && now < e.expires_at);
            if !servable {
                self.stats.misses += 1;
                return None;
            }
            self.tick += 1;
            let tick = self.tick;
            let e = self.entries.get_mut(&key).expect("checked above");
            self.by_recency.remove(&e.recency);
            e.recency = tick;
            let out = e.output_kb;
            self.by_recency.insert(tick, key);
            self.stats.hits += 1;
            Some(out)
        }

        fn insert(&mut self, key: CacheKey, output_kb: u64, visible_from: Nanos) {
            let bytes = output_kb * 1024 + ENTRY_OVERHEAD_BYTES;
            if bytes > self.cfg.byte_budget {
                return;
            }
            self.unlink(&key);
            while self.bytes + bytes > self.cfg.byte_budget {
                let victim = *self.by_recency.values().next().expect("resident");
                self.unlink(&victim);
                self.stats.evictions += 1;
            }
            self.tick += 1;
            self.seq += 1;
            let e = ModelEntry {
                recency: self.tick,
                seq: self.seq,
                visible_from,
                expires_at: visible_from + self.cfg.ttl,
                bytes,
                output_kb,
            };
            self.by_recency.insert(e.recency, key);
            self.by_expiry.insert((e.expires_at, e.seq), key);
            self.bytes += bytes;
            self.entries.insert(key, e);
            self.stats.insertions += 1;
        }

        fn next_expiry(&self) -> Option<Nanos> {
            self.by_expiry.keys().next().map(|&(at, _)| at)
        }

        fn redeploy(&mut self, fn_id: u64) -> usize {
            let victims: Vec<CacheKey> = self
                .entries
                .keys()
                .filter(|k| k.fn_id == fn_id)
                .copied()
                .collect();
            for key in &victims {
                self.unlink(key);
            }
            self.stats.invalidated += victims.len() as u64;
            victims.len()
        }

        fn expire_due(&mut self, now: Nanos) -> usize {
            let mut swept = 0;
            while let Some((&(at, _), &key)) = self.by_expiry.iter().next() {
                if at > now {
                    break;
                }
                self.unlink(&key);
                self.stats.expired += 1;
                swept += 1;
            }
            swept
        }
    }

    #[test]
    fn the_slab_cache_matches_the_btree_model() {
        const MS: Nanos = Nanos::from_millis(1);
        const TICK: Nanos = Nanos::from_nanos(1);
        // Room for three or four entries of 1–2 KiB, so inserts evict.
        let cfg = CacheConfig {
            ttl: Nanos::from_millis(10),
            byte_budget: 4 * (1024 + ENTRY_OVERHEAD_BYTES) + 512,
            hit_cost: Nanos::from_micros(50),
        };
        let (mut replaced, mut tied, mut edges) = (0u64, 0u64, [0u64; 4]);
        let mut totals = CacheStats::default();
        for seed in 0..8u64 {
            let mut rng = DetRng::new(0xCAC4E ^ seed);
            let mut cache = ResultCache::new(cfg);
            let mut model = BTreeModel::new(cfg);
            // The clock moves on a 1 ms grid, so deadlines tie often.
            let mut now = Nanos::ZERO;
            for step in 0..5_000 {
                if rng.next_below(3) == 0 {
                    now += MS * rng.next_below(3);
                }
                // 3 functions × 3 generations × 4 payloads.
                let key = CacheKey {
                    fn_id: rng.next_below(3),
                    generation: rng.next_below(3),
                    payload_hash: mix(rng.next_below(4)),
                };
                let label = format!("seed {seed} step {step}");
                match rng.next_below(20) {
                    0..=5 => {
                        // Fills land out of order, up to 3 ms before or
                        // 5 ms after the clock, like the fleet gateway's
                        // at `resp_at`; now and then one outgrows the
                        // whole budget.
                        let kb = if rng.next_below(40) == 0 {
                            8
                        } else {
                            1 + rng.next_below(2)
                        };
                        let visible = (now + MS * rng.next_below(9)).saturating_sub(MS * 3);
                        let deadline = visible + cfg.ttl;
                        replaced += u64::from(model.entries.contains_key(&key));
                        tied += u64::from(
                            model
                                .by_expiry
                                .range((deadline, 0)..=(deadline, u64::MAX))
                                .next()
                                .is_some(),
                        );
                        cache.insert(key, kb, visible);
                        model.insert(key, kb, visible);
                    }
                    6..=14 => {
                        // At the clock, or at a live entry's edges: one
                        // tick before it is visible, at visibility, its
                        // last servable tick and its exact deadline.
                        let at = match model.window(&key) {
                            Some((visible, deadline)) if rng.next_below(2) == 0 => {
                                let edge = rng.next_below(4) as usize;
                                edges[edge] += 1;
                                [
                                    visible.saturating_sub(TICK),
                                    visible,
                                    deadline - TICK,
                                    deadline,
                                ][edge]
                            }
                            _ => now,
                        };
                        assert_eq!(cache.lookup(key, at), model.lookup(key, at), "{label}");
                    }
                    15..=18 => {
                        assert_eq!(cache.expire_due(now), model.expire_due(now), "{label}")
                    }
                    _ => assert_eq!(
                        cache.redeploy(key.fn_id),
                        model.redeploy(key.fn_id),
                        "{label}"
                    ),
                }
                assert_eq!(cache.len(), model.entries.len(), "{label}");
                assert_eq!(cache.is_empty(), model.entries.is_empty(), "{label}");
                assert_eq!(cache.bytes(), model.bytes, "{label}");
                assert_eq!(cache.next_expiry(), model.next_expiry(), "{label}");
                assert_eq!(cache.stats, model.stats, "{label}");
            }
            let s = cache.stats;
            totals.hits += s.hits;
            totals.evictions += s.evictions;
            totals.expired += s.expired;
            totals.invalidated += s.invalidated;
        }
        // Every path ran: hits, LRU evictions, expiries, redeploys,
        // replacements, tied deadlines and all four lookup edges.
        assert!(totals.hits > 0 && totals.evictions > 0, "{totals:?}");
        assert!(totals.expired > 0 && totals.invalidated > 0, "{totals:?}");
        assert!(replaced > 0 && tied > 0, "{replaced} {tied}");
        assert!(edges.iter().all(|&n| n > 0), "{edges:?}");
    }
}
