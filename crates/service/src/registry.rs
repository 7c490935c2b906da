//! The embedding registry: a concurrent, capacity-bounded cache from DTD
//! pairs to compiled embeddings.
//!
//! # Keying
//!
//! Entries are keyed by [`PairKey`] — the *canonical content hashes*
//! ([`DtdHash`]) of the reduced source and target DTDs — so two clients
//! sending the same schemas with reordered declarations or permuted
//! disjunction alternatives share one cache entry.
//!
//! # One slot per pair
//!
//! The registry is **lock-striped**: pairs are spread over
//! [`RegistryConfig::shards`] independent shards by a stable mix of the
//! pair's two content hashes, so a build or eviction on one shard never
//! blocks requests routed to another. Each shard keeps all it knows about
//! a pair in one slot of one reader-writer table: a state and the pair's
//! one recency clock (the shard tick of its last use). The state is one of
//!
//! * `Building`: the single-flight mark. The first request for a pair
//!   the shard has no verdict on sets it and runs discovery outside every
//!   lock; concurrent requests sleep on the shard condvar (counted as
//!   [`RegistryStats::single_flight_waits`]). A search that panics removes
//!   the slot and wakes them, so a failure never wedges the key.
//! * `Found`: discovery found an embedding. The slot keeps the discovered
//!   engine without its plan cache (the *recipe*), and the live engine
//!   unless it was evicted.
//! * `Unembeddable`: [`refute()`] proved that no embedding exists, or
//!   discovery failed. Until [`RegistryConfig::negative_ttl`] has passed,
//!   identical requests fail fast with `NoEmbedding` (counted as
//!   [`RegistryStats::negative_hits`]), since a failed search costs as much
//!   as a successful one. A failed search proves nothing: discovery is a
//!   heuristic for an NP-complete search (the paper's Thm 5.1), and it runs
//!   on the DTD text as received, so a permuted text with the same
//!   [`PairKey`] may search the types in a different order and succeed.
//!   A refutation is a proof, and it costs microseconds. Both verdicts
//!   expire alike: the slot does not record which one it holds, and
//!   refuting an expired verdict again is cheap. `negative_ttl: None`
//!   records no such verdict.
//!
//! The shard mutex guards the counters and serializes every table write.
//! A warm hit takes no mutex at all: one shared read lock, an `Arc` clone
//! and a few relaxed counter bumps, so it never waits for a build, not
//! even one for another pair on the same shard.
//!
//! # Refute, search once, rebuild after
//!
//! Finding an embedding is the NP-complete step (the paper's Thm 5.1);
//! checking a known `(λ, path)` is polynomial, and the recipe has already
//! passed those checks. Compiled state therefore lives in every `Found`
//! slot: the resolved paths, the target's minimum-default plans, both
//! DTDs and λ, all immutable and shared behind `Arc`s. A miss
//! on a `Found` slot *rebuilds* the engine with
//! [`CompiledEmbedding::without_plans`]: a few `Arc` clones and an empty
//! plan cache, no check and no compile, so it is settled under the shard
//! lock like a hit and never takes the `Building` mark. The rebuilt engine
//! is the discovered one, so a permuted DTD text gets exactly the
//! embedding first discovered, and since discovery is deterministic per
//! pair and [`DiscoveryConfig`], a rebuild answers byte for byte as a
//! fresh search would. [`EmbeddingRegistry::evict`] takes the engine out
//! of a `Found` slot and keeps the recipe, and drops an `Unembeddable`
//! slot so the pair is refuted or searched again.
//!
//! Before it searches, the registry calls [`refute()`], which checks in
//! polynomial time a condition every embedding meets. A pair that fails
//! it gets what a failed search gives (an `Unembeddable` slot,
//! `NoEmbedding`, one miss, its time in `compile_nanos`) without the
//! search.
//!
//! # Two bounds
//!
//! Both are enforced right after the build that overflowed them, and
//! neither touches that build's own slot:
//!
//! * **Engines.** A shard holds at most `⌈capacity / shards⌉` live
//!   engines; the bound counts live engines and, with them, their plan
//!   caches, which are all an eviction frees. The least recently used one
//!   goes: the live slot with the oldest shard tick. Ticks are unique per
//!   shard, so the victim is a function of the order of requests alone.
//!   The victim keeps its recipe, so undoing an eviction costs a rebuild,
//!   never a search.
//! * **Slots.** A shard holds at most 256 slots. Victims go in this order:
//!   expired `Unembeddable`, then soonest-expiring `Unembeddable`, then the
//!   least recently used `Found` without an engine. A slot that is
//!   building or has a live engine is never a victim, so a pair whose
//!   engine is serving is never searched again.
//!
//! # Stats
//!
//! [`EmbeddingRegistry::stats`] merges per-shard snapshots (each taken
//! under that shard's mutex) into one [`RegistryStats`]. Every counter is
//! per-shard monotone — eviction folds an engine's plan counters into the
//! shard's retired accumulators *under the shard lock, in the same
//! critical section that takes the engine out* — so the merged aggregate
//! never goes backwards even when two shards evict concurrently.
//! [`EmbeddingRegistry::shard_stats`] exposes the unmerged per-shard
//! snapshots.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use xse_core::{trim_to_capacity, CompiledEmbedding, SimilarityMatrix};
use xse_discovery::{find_embedding, refute, DiscoveryConfig};
use xse_dtd::{Dtd, DtdHash};

use crate::ServiceError;

/// Cache key: canonical content hashes of the (source, target) DTD pair.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PairKey {
    /// Hash of the reduced source DTD.
    pub source: DtdHash,
    /// Hash of the reduced target DTD.
    pub target: DtdHash,
}

/// The registry's default similarity heuristic:
/// [`SimilarityMatrix::by_name`] with a 0.25 fallback. A serving layer
/// only ever sees the two DTD texts, so name agreement is the strongest
/// signal available; the fallback keeps renamed types reachable for the
/// structural search.
pub fn default_similarity(source: &Dtd, target: &Dtd) -> SimilarityMatrix {
    SimilarityMatrix::by_name(source, target, 0.25)
}

/// Registry construction knobs.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Maximum number of cached (live) engines. The bound is striped:
    /// each shard holds at most `⌈capacity / shards⌉` engines, so the
    /// effective total is `capacity` rounded up to a multiple of the
    /// shard count. Minimum 1.
    pub capacity: usize,
    /// Number of lock stripes. Requests for different pairs on different
    /// shards never contend on a mutex; `1` puts every pair behind one
    /// mutex and makes `capacity` a single global bound. Minimum 1,
    /// default 8.
    pub shards: usize,
    /// Discovery configuration used for every compile.
    pub discovery: DiscoveryConfig,
    /// Builds the similarity matrix `att` for each compile (default:
    /// [`default_similarity`]).
    pub sim: fn(&Dtd, &Dtd) -> SimilarityMatrix,
    /// How long an `Unembeddable` verdict (a refutation or a failed
    /// discovery) is remembered: until it expires, identical requests
    /// return `NoEmbedding` without checking or searching again. `None`
    /// records no such verdict. `Found` verdicts have no TTL.
    pub negative_ttl: Option<Duration>,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            capacity: 64,
            shards: 8,
            discovery: DiscoveryConfig::default(),
            sim: default_similarity,
            negative_ttl: Some(Duration::from_secs(30)),
        }
    }
}

/// Aggregate registry counters (a point-in-time snapshot).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct RegistryStats {
    /// Requests served from a cached embedding.
    pub hits: u64,
    /// Requests that found no engine and started a build.
    pub misses: u64,
    /// Engines made live, by discovery or by a rebuild from a recipe.
    pub compiles: u64,
    /// Requests that blocked on another request's in-flight compile
    /// (neither a hit nor a miss).
    pub single_flight_waits: u64,
    /// Engines dropped (capacity pressure + explicit evictions).
    pub evictions: u64,
    /// Engines currently cached.
    pub entries: u64,
    /// Total wall-clock nanoseconds spent deciding pairs: every
    /// [`refute()`] check and every discovery run, failed ones included. A
    /// rebuild copies validated state and is not timed.
    pub compile_nanos: u64,
    /// Translation-plan cache hits summed over live engines *plus* every
    /// engine evicted so far (plan counters are folded into a retired
    /// accumulator when their engine leaves the cache, so the aggregate
    /// never goes backwards).
    pub plan_hits: u64,
    /// Translation-plan cache misses, accumulated the same way.
    pub plan_misses: u64,
    /// Plans currently cached across live engines (evicting an engine
    /// drops its plans, so this *does* shrink on eviction).
    pub plan_entries: u64,
    /// Requests answered `NoEmbedding` from an unexpired `Unembeddable`
    /// verdict (the full discovery search was skipped).
    pub negative_hits: u64,
}

impl RegistryStats {
    /// Fraction of resolution requests served from cache:
    /// `hits / (hits + misses + single_flight_waits)`; `0.0` when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.single_flight_waits;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of translations served from a cached plan:
    /// `plan_hits / (plan_hits + plan_misses)`; `0.0` when idle.
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }
}

/// Field-wise sum, so `shard_stats()` snapshots fold into the aggregate
/// `stats()` view.
impl std::ops::Add for RegistryStats {
    type Output = RegistryStats;

    fn add(self, rhs: RegistryStats) -> RegistryStats {
        RegistryStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            compiles: self.compiles + rhs.compiles,
            single_flight_waits: self.single_flight_waits + rhs.single_flight_waits,
            evictions: self.evictions + rhs.evictions,
            entries: self.entries + rhs.entries,
            compile_nanos: self.compile_nanos + rhs.compile_nanos,
            plan_hits: self.plan_hits + rhs.plan_hits,
            plan_misses: self.plan_misses + rhs.plan_misses,
            plan_entries: self.plan_entries + rhs.plan_entries,
            negative_hits: self.negative_hits + rhs.negative_hits,
        }
    }
}

/// Cap on the text → hash memo, bounding memory against clients that
/// stream never-repeating DTD texts. Every entry scores the same, so an
/// overflowing insert drops arbitrary older texts (never the two just
/// inserted); a dropped text re-canonicalizes on its next use.
const TEXT_KEY_CAP: usize = 1024;

/// Per-shard cap on slots. A dropped slot only costs speed: the pair's
/// next miss searches again.
const SLOT_CAP: usize = 256;

/// What a shard knows about a pair (see the module docs).
enum State {
    /// Discovery is in flight; waiters sleep on the shard condvar.
    Building,
    /// Discovery found an embedding: the recipe (the discovered engine
    /// without its plans) and the live engine unless it was evicted.
    Found(CompiledEmbedding, Option<Arc<CompiledEmbedding>>),
    /// Refuted, or discovery found none; the verdict holds until this
    /// instant.
    Unembeddable(Instant),
}

/// One pair's slot in a shard's table.
struct Slot {
    state: State,
    /// Shard tick of the most recent use (higher = more recent). Atomic so
    /// the warm path can bump it under a shared read lock.
    last_used: AtomicU64,
}

impl Slot {
    fn new(state: State, tick: u64) -> Slot {
        Slot {
            state,
            last_used: AtomicU64::new(tick),
        }
    }

    fn engine(&self) -> Option<&Arc<CompiledEmbedding>> {
        match &self.state {
            State::Found(_, engine) => engine.as_ref(),
            _ => None,
        }
    }
}

/// Shard state that needs the mutex: the monotone counters that aren't
/// hot enough to justify atomics. Holding it is also what licenses a
/// write to the shard's table.
#[derive(Default)]
struct ShardInner {
    negative_hits: u64,
    misses: u64,
    /// Engines built by a successful `find_embedding` run.
    discovered: u64,
    /// Engines copied from a recipe.
    rebuilt: u64,
    single_flight_waits: u64,
    evictions: u64,
    compile_nanos: u64,
    /// Plan-cache hit/miss totals of engines already evicted; folded in by
    /// [`ShardInner::retire`] so aggregate plan stats survive eviction.
    retired_plan_hits: u64,
    retired_plan_misses: u64,
}

impl ShardInner {
    /// Account for an engine just taken out of its slot: fold its plan
    /// counters into the retired accumulators and count the eviction.
    /// Callers take the engine out and retire it in one `inner`-locked
    /// critical section, so a concurrent `stats()` (which also holds
    /// `inner`) can never observe the engine both live in the table and
    /// already folded. That ordering is what keeps merged plan totals
    /// monotone when two shards evict at the same time.
    fn retire(&mut self, engine: &CompiledEmbedding) {
        let plan = engine.plan_stats();
        self.retired_plan_hits += plan.hits;
        self.retired_plan_misses += plan.misses;
        self.evictions += 1;
    }
}

struct Shard {
    /// Every pair this shard knows about. Written only with `inner` held.
    table: RwLock<HashMap<PairKey, Slot>>,
    inner: Mutex<ShardInner>,
    compiled: Condvar,
    /// Recency clock, bumped on every touch. Atomic so the lock-free warm
    /// path can advance it.
    tick: AtomicU64,
    /// Warm hits (atomic: bumped without the mutex on the fast path).
    hits: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            table: RwLock::new(HashMap::new()),
            inner: Mutex::new(ShardInner::default()),
            compiled: Condvar::new(),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Mark `slot` used now. `count_hit` is false for single-flight
    /// waiters: they were already counted as waits, and counting the hit
    /// too would double-count the request and inflate `hit_rate()`.
    fn touch(&self, slot: &Slot, count_hit: bool) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        slot.last_used.store(tick, Ordering::Relaxed);
        if count_hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One shard's snapshot, taken under its mutex so retire folds can't
    /// be half-observed.
    fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().unwrap();
        let table = self.table.read().unwrap();
        let mut plan_hits = inner.retired_plan_hits;
        let mut plan_misses = inner.retired_plan_misses;
        let mut plan_entries = 0;
        let mut entries = 0;
        for engine in table.values().filter_map(Slot::engine) {
            let plan = engine.plan_stats();
            plan_hits += plan.hits;
            plan_misses += plan.misses;
            plan_entries += plan.entries;
            entries += 1;
        }
        RegistryStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: inner.misses,
            compiles: inner.discovered + inner.rebuilt,
            single_flight_waits: inner.single_flight_waits,
            evictions: inner.evictions,
            entries,
            compile_nanos: inner.compile_nanos,
            plan_hits,
            plan_misses,
            plan_entries,
            negative_hits: inner.negative_hits,
        }
    }
}

/// Concurrent map from DTD pairs to compiled embeddings, with lock-striped
/// shards, single-flight builds, a mutex-free warm path, and least recently
/// used eviction. See the [module docs](self) for the design.
pub struct EmbeddingRegistry {
    shards: Vec<Shard>,
    /// Memo: exact DTD text → canonical hash. The warm path resolves both
    /// texts here with two string lookups under a shared read lock,
    /// skipping the parse + reduce + canonical-serialization work
    /// entirely; only texts never seen before (or dropped from the memo)
    /// pay it. Registry-level because the shard index *derives from* the
    /// resolved key.
    text_keys: RwLock<HashMap<String, DtdHash>>,
    /// Per-shard engine capacity: `⌈capacity / shards⌉`.
    shard_capacity: usize,
    config: RegistryConfig,
}

/// Removes the `Building` slot if the build unwinds or returns early, so
/// waiters are never left sleeping on a key nobody is working on.
struct PendingGuard<'a> {
    shard: &'a Shard,
    key: PairKey,
    armed: bool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let inner = self.shard.inner.lock().unwrap();
            self.shard.table.write().unwrap().remove(&self.key);
            drop(inner);
            self.shard.compiled.notify_all();
        }
    }
}

impl EmbeddingRegistry {
    /// An empty registry with the given configuration (`capacity` and
    /// `shards` are clamped to at least 1).
    pub fn new(mut config: RegistryConfig) -> Self {
        config.capacity = config.capacity.max(1);
        config.shards = config.shards.max(1);
        EmbeddingRegistry {
            shards: (0..config.shards).map(|_| Shard::new()).collect(),
            text_keys: RwLock::new(HashMap::new()),
            shard_capacity: config.capacity.div_ceil(config.shards),
            config,
        }
    }

    /// The registry's configuration.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// Which shard `key` is routed to — a stable (process-independent)
    /// mix of the pair's content hashes, so tests can reason about
    /// placement.
    pub fn shard_of(&self, key: PairKey) -> usize {
        let mixed = key
            .source
            .as_u128()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835)
            ^ key
                .target
                .as_u128()
                .rotate_left(64)
                .wrapping_mul(0xC2B2_AE3D_27D4_EB4F_1656_67B1_E3DB_A8A5);
        let folded = (mixed ^ (mixed >> 64)) as u64;
        (folded % self.shards.len() as u64) as usize
    }

    fn shard(&self, key: PairKey) -> &Shard {
        &self.shards[self.shard_of(key)]
    }

    /// Parse both DTD texts and return the pair's cache key without
    /// touching the cache.
    pub fn key_for(source_dtd: &str, target_dtd: &str) -> Result<PairKey, ServiceError> {
        let source = parse_dtd(source_dtd, "source")?;
        let target = parse_dtd(target_dtd, "target")?;
        Ok(PairKey {
            source: source.content_hash(),
            target: target.content_hash(),
        })
    }

    /// Resolve the pair to a compiled embedding: cache hit, single-flight
    /// wait, a rebuild from the pair's recipe, or a fresh [`refute()`] check
    /// and, unless it refutes the pair, a `find_embedding` run.
    ///
    /// # Errors
    /// [`ServiceError::BadDtd`] when either text fails to parse,
    /// [`ServiceError::NoEmbedding`] when [`refute()`] proves that no
    /// information-preserving embedding exists or discovery exhausts its
    /// restarts without finding one — remembered as an `Unembeddable`
    /// verdict for [`RegistryConfig::negative_ttl`], after which an
    /// identical request checks and searches again.
    pub fn get_or_compile(
        &self,
        source_dtd: &str,
        target_dtd: &str,
    ) -> Result<(PairKey, Arc<CompiledEmbedding>), ServiceError> {
        let key = self.resolve(source_dtd, target_dtd)?;
        let shard = self.shard(key);

        // The warm fast path: a shared read lock, an Arc clone, and a few
        // relaxed counter bumps. No mutex — an in-flight build on this
        // shard (necessarily for another pair) cannot delay us.
        if let Some(slot) = shard.table.read().unwrap().get(&key) {
            if let Some(engine) = slot.engine() {
                shard.touch(slot, true);
                return Ok((key, Arc::clone(engine)));
            }
        }

        let mut waited = false;
        let mut inner = shard.inner.lock().unwrap();
        loop {
            // Table writes happen with `inner` held, so what we read here
            // stays true until we let go of it.
            let mut table = shard.table.write().unwrap();
            if let Some(slot) = table.get_mut(&key) {
                match &mut slot.state {
                    State::Found(_, Some(engine)) => {
                        let engine = Arc::clone(engine);
                        shard.touch(slot, !waited);
                        return Ok((key, engine));
                    }
                    // A rebuild copies state that already passed the §4.1
                    // checks, so it is settled under the lock, like a hit.
                    State::Found(recipe, live @ None) => {
                        inner.misses += 1;
                        inner.rebuilt += 1;
                        let engine = Arc::new(recipe.without_plans());
                        *live = Some(Arc::clone(&engine));
                        shard.touch(slot, false);
                        self.trim_engines(&mut inner, &mut table, key);
                        return Ok((key, engine));
                    }
                    State::Building => {
                        drop(table);
                        if !waited {
                            waited = true;
                            inner.single_flight_waits += 1;
                        }
                        inner = shard.compiled.wait(inner).unwrap();
                        continue;
                    }
                    State::Unembeddable(expiry) if Instant::now() < *expiry => {
                        inner.negative_hits += 1;
                        return Err(ServiceError::NoEmbedding);
                    }
                    State::Unembeddable(_) => {}
                }
            }
            inner.misses += 1;
            table.insert(key, Slot::new(State::Building, 0));
            break;
        }
        drop(inner);

        // We own the `Building` slot; refute or search outside every lock.
        // Both texts parsed when they entered the memo, but propagate
        // errors regardless.
        let mut guard = PendingGuard {
            shard,
            key,
            armed: true,
        };
        let source = parse_dtd(source_dtd, "source")?;
        let target = parse_dtd(target_dtd, "target")?;
        let att = (self.config.sim)(&source, &target);
        let t0 = Instant::now();
        let found = if refute(&source, &target, &att) {
            None
        } else {
            find_embedding(&source, &target, &att, &self.config.discovery)
        };
        let nanos = t0.elapsed().as_nanos() as u64;

        // Settle the slot, then wake waiters: they find the engine or the
        // verdict instead of racing into their own searches.
        let mut inner = shard.inner.lock().unwrap();
        guard.armed = false;
        inner.compile_nanos += nanos;
        let mut table = shard.table.write().unwrap();
        let tick = shard.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let outcome = match found {
            Some(engine) => {
                inner.discovered += 1;
                let recipe = engine.without_plans();
                let engine = Arc::new(engine);
                let state = State::Found(recipe, Some(Arc::clone(&engine)));
                table.insert(key, Slot::new(state, tick));
                self.trim_engines(&mut inner, &mut table, key);
                Ok((key, engine))
            }
            None => {
                match self.config.negative_ttl {
                    Some(ttl) => {
                        let state = State::Unembeddable(Instant::now() + ttl);
                        table.insert(key, Slot::new(state, tick))
                    }
                    None => table.remove(&key),
                };
                Err(ServiceError::NoEmbedding)
            }
        };
        // The slot bound. `Some` sorts above `None`, so every `Unembeddable`
        // slot (soonest expiry first) goes before any engine-less `Found`
        // one (least recently used first).
        trim_to_capacity(&mut table, SLOT_CAP, |k, slot| {
            let unembeddable = match slot.state {
                _ if *k == key => return None,
                State::Unembeddable(expiry) => Some(Reverse(expiry)),
                State::Found(_, None) => None,
                State::Found(_, Some(_)) | State::Building => return None,
            };
            Some((
                unembeddable,
                Reverse(slot.last_used.load(Ordering::Relaxed)),
            ))
        });
        drop(table);
        drop(inner);
        shard.compiled.notify_all();
        outcome
    }

    /// Enforce the engine bound after `key`'s engine went live: the live
    /// engine with the oldest `last_used` tick goes. Each victim, never
    /// `key`, keeps its recipe.
    fn trim_engines(
        &self,
        inner: &mut ShardInner,
        table: &mut HashMap<PairKey, Slot>,
        key: PairKey,
    ) {
        let live = table.values().filter(|s| s.engine().is_some()).count();
        for _ in self.shard_capacity..live {
            let victim = table
                .iter_mut()
                .filter(|(k, slot)| **k != key && slot.engine().is_some())
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .and_then(|(_, slot)| match &mut slot.state {
                    State::Found(_, engine) => engine.take(),
                    _ => None,
                });
            if let Some(engine) = victim {
                inner.retire(&engine);
            }
        }
    }

    /// Drop the pair's cached engine and any `Unembeddable` verdict, so a
    /// failed pair is refuted or searched again: a failed search proves
    /// nothing, and a refutation, which does, is cheap to repeat. Both
    /// verdicts go alike. A `Found` slot keeps its recipe: the
    /// next request rebuilds the same engine without a search, so an
    /// eviction never changes an answer. Returns whether a *compiled*
    /// engine existed (in-flight builds are left alone and reported as
    /// absent, as is a pair that only has a verdict).
    ///
    /// # Errors
    /// [`ServiceError::BadDtd`] when either text fails to parse.
    pub fn evict(&self, source_dtd: &str, target_dtd: &str) -> Result<bool, ServiceError> {
        let key = self.resolve(source_dtd, target_dtd)?;
        let shard = self.shard(key);
        let mut inner = shard.inner.lock().unwrap();
        let mut table = shard.table.write().unwrap();
        let Some(slot) = table.get_mut(&key) else {
            return Ok(false);
        };
        match &mut slot.state {
            State::Found(_, engine) => Ok(engine.take().map(|e| inner.retire(&e)).is_some()),
            State::Unembeddable(_) => {
                table.remove(&key);
                Ok(false)
            }
            State::Building => Ok(false),
        }
    }

    /// Resolve both texts to the pair's key through the text memo. A memo
    /// hit parses nothing; a miss runs [`EmbeddingRegistry::key_for`] (so a
    /// bad text is always [`ServiceError::BadDtd`] and never enters the
    /// memo) and memoizes both hashes.
    fn resolve(&self, source_dtd: &str, target_dtd: &str) -> Result<PairKey, ServiceError> {
        {
            let memo = self.text_keys.read().unwrap();
            if let (Some(&source), Some(&target)) = (memo.get(source_dtd), memo.get(target_dtd)) {
                return Ok(PairKey { source, target });
            }
        }
        let key = Self::key_for(source_dtd, target_dtd)?;
        let mut memo = self.text_keys.write().unwrap();
        memo.insert(source_dtd.to_string(), key.source);
        memo.insert(target_dtd.to_string(), key.target);
        trim_to_capacity(&mut memo, TEXT_KEY_CAP, |text, _| {
            (text != source_dtd && text != target_dtd).then_some(())
        });
        Ok(key)
    }

    /// Point-in-time aggregate counters: the field-wise sum of every
    /// shard's snapshot. Plan counters sum the live engines' caches plus
    /// the retired totals of evicted engines.
    pub fn stats(&self) -> RegistryStats {
        self.shard_stats()
            .into_iter()
            .fold(RegistryStats::default(), |acc, s| acc + s)
    }

    /// Per-shard snapshots, indexed by shard. [`EmbeddingRegistry::stats`]
    /// is exactly the field-wise sum of this vector.
    pub fn shard_stats(&self) -> Vec<RegistryStats> {
        self.shards.iter().map(Shard::stats).collect()
    }
}

fn parse_dtd(text: &str, which: &'static str) -> Result<Dtd, ServiceError> {
    Dtd::parse(text).map_err(|e| ServiceError::BadDtd(format!("{which} DTD: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Identity-embeddable pair: the wrap fixture from the core crate's
    /// tests, rendered as DTD text.
    fn wrap_pair() -> (String, String) {
        let s1 = "<!ELEMENT r (a, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (c*)>\n<!ELEMENT c (#PCDATA)>";
        let s2 = "<!ELEMENT r (x, y)>\n<!ELEMENT x (a)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT y (w)>\n<!ELEMENT w (c2*)>\n<!ELEMENT c2 (c)>\n<!ELEMENT c (#PCDATA)>";
        (s1.to_string(), s2.to_string())
    }

    fn registry_with(
        capacity: usize,
        shards: usize,
        negative_ttl: Option<Duration>,
    ) -> EmbeddingRegistry {
        EmbeddingRegistry::new(RegistryConfig {
            capacity,
            shards,
            negative_ttl,
            ..RegistryConfig::default()
        })
    }

    fn small_registry_ttl(capacity: usize, negative_ttl: Option<Duration>) -> EmbeddingRegistry {
        // Single shard: one mutex and one global bound, so the counts and
        // eviction orders asserted below are exact.
        registry_with(capacity, 1, negative_ttl)
    }

    fn small_registry(capacity: usize) -> EmbeddingRegistry {
        small_registry_ttl(capacity, RegistryConfig::default().negative_ttl)
    }

    /// A pair with no information-preserving embedding: the source demands
    /// two distinct #PCDATA children; a single-type target has nowhere
    /// injective to put them.
    fn impossible_pair() -> (&'static str, &'static str) {
        (
            "<!ELEMENT r (a, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>",
            "<!ELEMENT r (#PCDATA)>",
        )
    }

    /// The key of a one-leaf identity pair, for filling a table with slots
    /// no request ever made.
    fn synthetic_key(i: usize) -> PairKey {
        let dtd = format!("<!ELEMENT r (n{i})>\n<!ELEMENT n{i} (#PCDATA)>");
        EmbeddingRegistry::key_for(&dtd, &dtd).unwrap()
    }

    /// The shard's (discovered, rebuilt) engine counts for `key`.
    fn build_counts(reg: &EmbeddingRegistry, key: PairKey) -> (u64, u64) {
        let inner = reg.shard(key).inner.lock().unwrap();
        (inner.discovered, inner.rebuilt)
    }

    /// Put a slot for `key` straight into shard 0's table, as if a request
    /// had settled it at shard tick `last_used`.
    fn plant(reg: &EmbeddingRegistry, key: PairKey, state: State, last_used: u64) {
        let _inner = reg.shards[0].inner.lock().unwrap();
        let slot = Slot::new(state, last_used);
        reg.shards[0].table.write().unwrap().insert(key, slot);
    }

    /// The keys of every slot in shard 0's table.
    fn slot_keys(reg: &EmbeddingRegistry) -> HashSet<PairKey> {
        reg.shards[0]
            .table
            .read()
            .unwrap()
            .keys()
            .copied()
            .collect()
    }

    /// The keys of every pair with a live engine, over all shards.
    fn live_keys(reg: &EmbeddingRegistry) -> HashSet<PairKey> {
        let mut keys = HashSet::new();
        for shard in &reg.shards {
            let table = shard.table.read().unwrap();
            keys.extend(
                table
                    .iter()
                    .filter(|(_, s)| s.engine().is_some())
                    .map(|(k, _)| *k),
            );
        }
        keys
    }

    /// What a `wrap_pair` engine answers: its description, `σd` of a fixed
    /// document, and the `(size, states)` of a translated query.
    fn wrap_answers(engine: &CompiledEmbedding) -> (String, String, (usize, usize)) {
        let doc = xse_xmltree::parse_xml("<r><a>x</a><b><c>1</c><c>2</c></b></r>").unwrap();
        let plan = engine
            .translate(&xse_rxpath::parse_query("b/c").unwrap())
            .unwrap();
        (
            engine.describe(),
            engine.apply(&doc).unwrap().tree.to_xml(),
            (plan.size(), plan.anfa.state_count()),
        )
    }

    #[test]
    fn hit_after_miss_shares_the_arc() {
        let reg = small_registry(4);
        let (s, t) = wrap_pair();
        let (k1, e1) = reg.get_or_compile(&s, &t).unwrap();
        let (k2, e2) = reg.get_or_compile(&s, &t).unwrap();
        assert_eq!(k1, k2);
        assert!(Arc::ptr_eq(&e1, &e2));
        let st = reg.stats();
        assert_eq!((st.hits, st.misses, st.compiles), (1, 1, 1));
        assert_eq!(st.entries, 1);
        assert!(st.compile_nanos > 0);
        assert!(st.hit_rate() > 0.49 && st.hit_rate() < 0.51);
    }

    #[test]
    fn permuted_dtd_text_is_the_same_key() {
        let reg = small_registry(4);
        let (s, t) = wrap_pair();
        // Same source schema, declarations listed in a different order
        // (root stays first — the parser roots at the first declaration).
        let s_permuted =
            "<!ELEMENT r (a, b)>\n<!ELEMENT b (c*)>\n<!ELEMENT c (#PCDATA)>\n<!ELEMENT a (#PCDATA)>";
        let (_, e1) = reg.get_or_compile(&s, &t).unwrap();
        let (_, e2) = reg.get_or_compile(s_permuted, &t).unwrap();
        assert!(Arc::ptr_eq(&e1, &e2), "permuted DTD text missed the cache");
        assert_eq!(reg.stats().compiles, 1);
    }

    #[test]
    fn bad_dtd_is_rejected_and_not_cached() {
        let reg = small_registry(4);
        let (s, _) = wrap_pair();
        let err = reg.get_or_compile(&s, "<!ELEMENT").unwrap_err();
        assert!(matches!(err, ServiceError::BadDtd(_)), "{err:?}");
        assert_eq!(reg.stats().misses, 0);
        assert_eq!(reg.stats().entries, 0);
    }

    #[test]
    fn failed_discovery_is_negatively_cached_until_ttl() {
        let reg = small_registry(4);
        let (s, t) = impossible_pair();
        for _ in 0..3 {
            let err = reg.get_or_compile(s, t).unwrap_err();
            assert!(matches!(err, ServiceError::NoEmbedding), "{err:?}");
        }
        let st = reg.stats();
        // Only the first attempt searched; the rest hit the negative cache.
        assert_eq!(st.misses, 1, "{st:?}");
        assert_eq!(st.negative_hits, 2, "{st:?}");
        assert_eq!(st.entries, 0);
        assert_eq!(st.compiles, 0);
    }

    #[test]
    fn negative_entry_expires_after_its_ttl() {
        let reg = small_registry_ttl(4, Some(Duration::from_millis(40)));
        let (s, t) = impossible_pair();
        reg.get_or_compile(s, t).unwrap_err();
        std::thread::sleep(Duration::from_millis(60));
        reg.get_or_compile(s, t).unwrap_err();
        let st = reg.stats();
        // The verdict expired, so the second attempt re-ran the search.
        assert_eq!(st.misses, 2, "{st:?}");
        assert_eq!(st.negative_hits, 0, "{st:?}");
    }

    #[test]
    fn disabling_the_negative_ttl_retries_every_request() {
        let reg = small_registry_ttl(4, None);
        let (s, t) = impossible_pair();
        for _ in 0..2 {
            let err = reg.get_or_compile(s, t).unwrap_err();
            assert!(matches!(err, ServiceError::NoEmbedding), "{err:?}");
        }
        let st = reg.stats();
        assert_eq!(st.misses, 2);
        assert_eq!(st.negative_hits, 0);
        assert_eq!(st.entries, 0);
        assert_eq!(st.compiles, 0);
    }

    #[test]
    fn evict_clears_the_negative_entry() {
        let reg = small_registry(4);
        let (s, t) = impossible_pair();
        reg.get_or_compile(s, t).unwrap_err();
        // No compiled entry existed, so evict reports false — but it still
        // clears the negative verdict, forcing a fresh search.
        assert!(!reg.evict(s, t).unwrap());
        reg.get_or_compile(s, t).unwrap_err();
        let st = reg.stats();
        assert_eq!(st.misses, 2, "{st:?}");
        assert_eq!(st.negative_hits, 0, "{st:?}");
    }

    /// Parse both texts and ask [`refute()`] under the registry's default
    /// similarity.
    fn refuted(source: &str, target: &str) -> bool {
        let (s, t) = (Dtd::parse(source).unwrap(), Dtd::parse(target).unwrap());
        refute(&s, &t, &default_similarity(&s, &t))
    }

    #[test]
    fn a_refuted_pair_answers_as_a_failed_search_does() {
        // The impossible pair is refuted. This one passes the check (both
        // leaves can reach `x`), but its two AND paths would be the same
        // path, so every search fails.
        let searched = (
            "<!ELEMENT r (a, b)>\n<!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>",
            "<!ELEMENT r (x)>\n<!ELEMENT x EMPTY>",
        );
        assert!(refuted(impossible_pair().0, impossible_pair().1));
        assert!(!refuted(searched.0, searched.1));
        for (s, t) in [impossible_pair(), searched] {
            let reg = small_registry(4);
            let no_embedding = |reg: &EmbeddingRegistry| {
                let err = reg.get_or_compile(s, t).unwrap_err();
                assert!(matches!(err, ServiceError::NoEmbedding), "{err:?}");
                reg.stats()
            };
            let st = no_embedding(&reg);
            assert_eq!((st.misses, st.negative_hits, st.compiles), (1, 0, 0));
            assert!(st.compile_nanos > 0, "the check is timed like a search");
            let st = no_embedding(&reg);
            assert_eq!((st.misses, st.negative_hits), (1, 1), "{st:?}");
            assert!(!reg.evict(s, t).unwrap());
            let st = no_embedding(&reg);
            assert_eq!((st.misses, st.negative_hits), (2, 1), "{st:?}");
            assert_eq!(st.entries, 0);
        }
    }

    /// Over pairs shaped like the benchmark's schema-churn population, the
    /// registry, which refutes before it searches, returns exactly what the
    /// search alone returns: corpus schemas against every noised target
    /// the benchmark may draw for them, identity pairs of random schemas,
    /// and random schemas against unrelated smaller ones.
    #[test]
    fn refuting_first_changes_no_verdict() {
        use xse_workloads::corpus::corpus;
        use xse_workloads::noise::{noised_copy, NoiseConfig};
        use xse_workloads::scale::random_schema;

        const PAIR_SEED: u64 = 0x5eed;
        let mut pairs: Vec<(Dtd, Dtd)> = Vec::new();
        for (i, (_, source)) in corpus().into_iter().enumerate() {
            let seed = PAIR_SEED.wrapping_add(i as u64).wrapping_mul(31);
            for (attempt, level) in [0.3, 0.3, 0.3, 0.2, 0.2, 0.1, 0.1, 0.05]
                .into_iter()
                .enumerate()
            {
                let copy = noised_copy(&source, NoiseConfig::level(level), seed + attempt as u64);
                pairs.push((source.clone(), copy.target));
            }
        }
        for (i, n) in [32, 64, 96, 128, 192, 256].into_iter().enumerate() {
            let source = random_schema(n, PAIR_SEED ^ (0x5ca1e + i as u64));
            pairs.push((source.clone(), source));
        }
        for c in 0..8u64 {
            let n = 12 + 4 * (c as usize % 4);
            let source = random_schema(n, PAIR_SEED ^ (0xfa11 + c));
            let target = random_schema(n / 2, PAIR_SEED.rotate_left(17) ^ (0x0bad + c));
            pairs.push((source, target));
        }

        let reg = registry_with(256, 8, RegistryConfig::default().negative_ttl);
        let (mut found, mut refuted_count, mut failed) = (0, 0, 0);
        for (source, target) in &pairs {
            let (s, t) = (source.to_string(), target.to_string());
            let (source, target) = (Dtd::parse(&s).unwrap(), Dtd::parse(&t).unwrap());
            let att = default_similarity(&source, &target);
            let direct = find_embedding(&source, &target, &att, &reg.config().discovery);
            match (reg.get_or_compile(&s, &t), direct) {
                (Ok((_, served)), Some(direct)) => {
                    assert_eq!(served.describe(), direct.describe());
                    found += 1;
                }
                (Err(ServiceError::NoEmbedding), None) => {
                    if refute(&source, &target, &att) {
                        refuted_count += 1;
                    } else {
                        failed += 1;
                    }
                }
                (served, direct) => panic!(
                    "registry {:?}, search {:?}:\n{s}\n---\n{t}",
                    served.map(|_| ()),
                    direct.is_some()
                ),
            }
        }
        // Every kind of verdict occurs: found, refuted, and failed without
        // a refutation.
        assert!(found > 0 && refuted_count > 0 && failed > 0);
    }

    #[test]
    fn negative_cache_past_its_cap_drops_expired_verdicts_first() {
        // New verdicts outlive every synthetic one below.
        let reg = small_registry_ttl(4, Some(Duration::from_secs(3600)));
        let now = Instant::now();
        let expired = synthetic_key(0);
        let unexpired: Vec<PairKey> = (1..SLOT_CAP).map(synthetic_key).collect();
        plant(&reg, expired, State::Unembeddable(now), 0);
        for (i, k) in unexpired.iter().enumerate() {
            let expiry = now + Duration::from_secs(60 + i as u64);
            plant(&reg, *k, State::Unembeddable(expiry), 0);
        }

        // Full with one expired verdict: recording a new one drops it.
        let (s, t) = impossible_pair();
        reg.get_or_compile(s, t).unwrap_err();
        let first = EmbeddingRegistry::key_for(s, t).unwrap();
        let keys = slot_keys(&reg);
        assert_eq!(keys.len(), SLOT_CAP);
        assert!(!keys.contains(&expired));
        assert!(keys.contains(&first));
        assert!(unexpired.iter().all(|k| keys.contains(k)));

        // Full with none expired: the verdict expiring soonest goes.
        let (s, t) = (
            "<!ELEMENT r (a, b, c)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>\n<!ELEMENT c (#PCDATA)>",
            "<!ELEMENT r (#PCDATA)>",
        );
        reg.get_or_compile(s, t).unwrap_err();
        let second = EmbeddingRegistry::key_for(s, t).unwrap();
        let keys = slot_keys(&reg);
        assert_eq!(keys.len(), SLOT_CAP);
        assert!(!keys.contains(&unexpired[0]));
        assert!(keys.contains(&first) && keys.contains(&second));
        assert!(unexpired[1..].iter().all(|k| keys.contains(k)));
        assert_eq!(reg.stats().misses, 2);
    }

    #[test]
    fn evicted_engines_rebuild_byte_identical_without_discovery() {
        let reg = small_registry(1);
        let (s, t) = wrap_pair();
        let (key, discovered) = reg.get_or_compile(&s, &t).unwrap();
        let expected = wrap_answers(&discovered);

        // Capacity eviction: another pair takes the only slot.
        let other = "<!ELEMENT r (a)>\n<!ELEMENT a (#PCDATA)>";
        reg.get_or_compile(other, other).unwrap();
        assert_eq!(reg.stats().evictions, 1);
        let (discoveries, _) = build_counts(&reg, key);
        let (_, rebuilt) = reg.get_or_compile(&s, &t).unwrap();
        assert!(!Arc::ptr_eq(&discovered, &rebuilt));
        assert_eq!(wrap_answers(&rebuilt), expected);
        assert_eq!(build_counts(&reg, key), (discoveries, 1));

        // Explicit eviction keeps the `Found` verdict too.
        assert!(reg.evict(&s, &t).unwrap());
        let (_, rebuilt) = reg.get_or_compile(&s, &t).unwrap();
        assert_eq!(wrap_answers(&rebuilt), expected);
        assert_eq!(build_counts(&reg, key), (discoveries, 2));

        let st = reg.stats();
        assert_eq!((st.misses, st.compiles, st.evictions), (4, 4, 3), "{st:?}");
        assert_eq!(st.compiles, st.entries + st.evictions);
    }

    #[test]
    fn a_rebuild_shares_the_validated_paths() {
        let reg = small_registry(4);
        let (s, t) = wrap_pair();
        let (_, discovered) = reg.get_or_compile(&s, &t).unwrap();
        assert!(reg.evict(&s, &t).unwrap());
        let (_, rebuilt) = reg.get_or_compile(&s, &t).unwrap();
        assert!(!Arc::ptr_eq(&discovered, &rebuilt));
        // The rebuild resolved nothing: its paths are the discovered
        // engine's own allocation.
        let root = discovered.source().root();
        assert!(std::ptr::eq(
            rebuilt.paths_of(root),
            discovered.paths_of(root)
        ));
    }

    #[test]
    fn permuted_text_after_eviction_rebuilds_the_discovered_embedding() {
        let reg = small_registry(4);
        let (s, t) = wrap_pair();
        let s_permuted =
            "<!ELEMENT r (a, b)>\n<!ELEMENT b (c*)>\n<!ELEMENT c (#PCDATA)>\n<!ELEMENT a (#PCDATA)>";
        let (key, discovered) = reg.get_or_compile(&s, &t).unwrap();
        assert!(reg.evict(&s, &t).unwrap());
        let (k, rebuilt) = reg.get_or_compile(s_permuted, &t).unwrap();
        assert_eq!(k, key);
        assert_eq!(rebuilt.describe(), discovered.describe());
        assert_eq!(build_counts(&reg, key), (1, 1));

        // A search on the permuted text numbers the source types in its
        // own order, so only the kept DTDs reproduce the first description.
        let source = Dtd::parse(s_permuted).unwrap();
        let target = Dtd::parse(&t).unwrap();
        let att = default_similarity(&source, &target);
        let searched = find_embedding(&source, &target, &att, &reg.config.discovery).unwrap();
        assert_ne!(searched.describe(), discovered.describe());
    }

    #[test]
    fn sixteen_concurrent_requests_rebuild_once() {
        let reg = small_registry(4);
        let (s, t) = wrap_pair();
        let (key, _) = reg.get_or_compile(&s, &t).unwrap();
        assert!(reg.evict(&s, &t).unwrap());
        let go = std::sync::Barrier::new(16);
        let engines: Vec<Arc<CompiledEmbedding>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    let (reg, s, t, go) = (&reg, &s, &t, &go);
                    scope.spawn(move || {
                        go.wait();
                        reg.get_or_compile(s, t).unwrap().1
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(build_counts(&reg, key), (1, 1));
        let st = reg.stats();
        assert_eq!((st.misses, st.compiles), (2, 2), "{st:?}");
        assert_eq!(st.hits + st.single_flight_waits, 15, "{st:?}");
        for e in &engines[1..] {
            assert!(Arc::ptr_eq(&engines[0], e));
        }
    }

    #[test]
    fn slots_past_their_cap_drop_the_least_recently_used_found_first() {
        let reg = small_registry(4);
        let (s, t) = wrap_pair();
        let engine = small_registry(4).get_or_compile(&s, &t).unwrap().1;
        let filler: Vec<PairKey> = (0..SLOT_CAP).map(synthetic_key).collect();
        // Every engine-less filler slot was used after anything the
        // registry builds below, whose shard ticks start at 1.
        for (i, k) in filler.iter().enumerate() {
            let state = State::Found(engine.without_plans(), None);
            plant(&reg, *k, state, 1000 + i as u64);
        }

        // The new slot is the least recently used, but it is the one just
        // settled: the oldest filler goes instead.
        let a = "<!ELEMENT r (a)>\n<!ELEMENT a (#PCDATA)>";
        let (first, _) = reg.get_or_compile(a, a).unwrap();
        let keys = slot_keys(&reg);
        assert_eq!(keys.len(), SLOT_CAP);
        assert!(keys.contains(&first) && !keys.contains(&filler[0]));
        assert!(filler[1..].iter().all(|k| keys.contains(k)));

        // An unexpired `Unembeddable` slot still goes before any `Found`,
        // even the least recently used one.
        let expiry = Instant::now() + Duration::from_secs(3600);
        plant(&reg, filler[1], State::Unembeddable(expiry), 0);
        let b = "<!ELEMENT r (b)>\n<!ELEMENT b (#PCDATA)>";
        let (second, _) = reg.get_or_compile(b, b).unwrap();
        let keys = slot_keys(&reg);
        assert_eq!(keys.len(), SLOT_CAP);
        assert!(keys.contains(&first) && keys.contains(&second));
        assert!(!keys.contains(&filler[1]));
        assert!(filler[2..].iter().all(|k| keys.contains(k)));
    }

    #[test]
    fn a_pair_with_a_live_engine_is_never_searched_again() {
        let reg = small_registry(4);
        let (s, t) = wrap_pair();
        let (hot, _) = reg.get_or_compile(&s, &t).unwrap();
        // Fill the shard with more pairs than it keeps slots for; the hot
        // pair serves a hit after each, so its engine stays live.
        for i in 0..SLOT_CAP {
            let dtd = format!("<!ELEMENT r (n{i})>\n<!ELEMENT n{i} (#PCDATA)>");
            reg.get_or_compile(&dtd, &dtd).unwrap();
            reg.get_or_compile(&s, &t).unwrap();
        }
        let discovered = SLOT_CAP as u64 + 1;
        assert_eq!(build_counts(&reg, hot), (discovered, 0));
        // Its next miss rebuilds: the shard discovers nothing more.
        assert!(reg.evict(&s, &t).unwrap());
        reg.get_or_compile(&s, &t).unwrap();
        assert_eq!(build_counts(&reg, hot), (discovered, 1));
    }

    #[test]
    fn a_panicking_build_leaves_the_pair_buildable() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        fn panics_once(source: &Dtd, target: &Dtd) -> SimilarityMatrix {
            if CALLS.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("similarity failed");
            }
            default_similarity(source, target)
        }
        let reg = EmbeddingRegistry::new(RegistryConfig {
            capacity: 4,
            shards: 1,
            sim: panics_once,
            ..RegistryConfig::default()
        });
        let (s, t) = wrap_pair();
        let built =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.get_or_compile(&s, &t)));
        assert!(built.is_err(), "the first build did not panic");
        reg.get_or_compile(&s, &t).unwrap();
        let st = reg.stats();
        assert_eq!((st.misses, st.compiles, st.entries), (2, 1, 1), "{st:?}");
    }

    #[test]
    fn text_memo_past_its_cap_keeps_resolving_pairs() {
        let reg = small_registry(4);
        let (s, t) = wrap_pair();
        let (key, engine) = reg.get_or_compile(&s, &t).unwrap();
        // Trailing blanks make a new text with the same canonical hash.
        for i in 1..=TEXT_KEY_CAP + 64 {
            let s_i = format!("{s}{}", " ".repeat(i));
            let (k, e) = reg.get_or_compile(&s_i, &t).unwrap();
            assert_eq!(k, key);
            assert!(Arc::ptr_eq(&e, &engine));
            let memo = reg.text_keys.read().unwrap();
            assert!(memo.len() <= TEXT_KEY_CAP, "memo grew to {}", memo.len());
            assert!(memo.contains_key(&s_i) && memo.contains_key(&t));
        }
        // An overflow drops single texts; the memo is never cleared.
        assert_eq!(reg.text_keys.read().unwrap().len(), TEXT_KEY_CAP);
        let (k, e) = reg.get_or_compile(&s, &t).unwrap();
        assert_eq!(k, key);
        assert!(Arc::ptr_eq(&e, &engine));
        assert!(reg.evict(&s, &t).unwrap());
        assert!(!reg.evict(&s, &t).unwrap());
        let st = reg.stats();
        assert_eq!((st.misses, st.compiles, st.evictions), (1, 1, 1), "{st:?}");
        assert_eq!(st.hits, TEXT_KEY_CAP as u64 + 65, "{st:?}");
    }

    #[test]
    fn evict_reports_bad_dtd_text() {
        let reg = small_registry(4);
        let (s, t) = wrap_pair();
        reg.get_or_compile(&s, &t).unwrap();
        let err = reg.evict(&s, "<!ELEMENT").unwrap_err();
        assert!(matches!(err, ServiceError::BadDtd(_)), "{err:?}");
        assert_eq!(reg.stats().entries, 1);
    }

    #[test]
    fn eviction_prefers_stale_entries() {
        let reg = small_registry(2);
        // Three distinct identity pairs (a schema always embeds into
        // itself), so each compiles under its own key.
        let schemas = [
            "<!ELEMENT r (a)>\n<!ELEMENT a (#PCDATA)>",
            "<!ELEMENT r (b)>\n<!ELEMENT b (#PCDATA)>",
            "<!ELEMENT r (c)>\n<!ELEMENT c (#PCDATA)>",
        ];
        let k0 = reg.get_or_compile(schemas[0], schemas[0]).unwrap().0;
        let k1 = reg.get_or_compile(schemas[1], schemas[1]).unwrap().0;
        assert_ne!(k0, k1);
        // Touch k0 repeatedly so k1 is the least recently used engine;
        // the engine bound must pick k1.
        for _ in 0..3 {
            reg.get_or_compile(schemas[0], schemas[0]).unwrap();
        }
        let k2 = reg.get_or_compile(schemas[2], schemas[2]).unwrap().0;
        assert_ne!(k2, k0);
        assert_ne!(k2, k1);
        let st = reg.stats();
        assert_eq!(st.entries, 2, "{st:?}");
        assert_eq!(st.evictions, 1, "{st:?}");
        // k0 (recently touched) and k2 (new) survive; k1 is gone.
        let keys = live_keys(&reg);
        assert!(keys.contains(&k0) && keys.contains(&k2) && !keys.contains(&k1));
    }

    #[test]
    fn eviction_drops_the_least_recently_used_engine() {
        let reg = small_registry_ttl(2, None);
        let tick_of = |key: PairKey| {
            let table = reg.shards[0].table.read().unwrap();
            table[&key].last_used.load(Ordering::Relaxed)
        };
        // A: a search, the costlier build, settled at tick 1.
        let (s, t) = wrap_pair();
        let a = reg.get_or_compile(&s, &t).unwrap().0;
        // B: discovered at tick 2, then evicted and rebuilt at tick 3, so
        // B's engine is both the cheaper build and the more recent use.
        let b_dtd = "<!ELEMENT r (b)>\n<!ELEMENT b (#PCDATA)>";
        let b = reg.get_or_compile(b_dtd, b_dtd).unwrap().0;
        assert!(reg.evict(b_dtd, b_dtd).unwrap());
        reg.get_or_compile(b_dtd, b_dtd).unwrap();
        assert_eq!(build_counts(&reg, b), (2, 1));
        assert_eq!((tick_of(a), tick_of(b)), (1, 3));
        // Three failed searches take ticks 4..=6, so at C's tick 7 A and B
        // are 6 and 4 ticks old: one power-of-two age bucket, where only
        // build cost could tell them apart.
        let (x, y) = impossible_pair();
        for _ in 0..3 {
            reg.get_or_compile(x, y).unwrap_err();
        }
        assert_eq!(reg.shards[0].tick.load(Ordering::Relaxed), 6);
        let c_dtd = "<!ELEMENT r (c)>\n<!ELEMENT c (#PCDATA)>";
        let c = reg.get_or_compile(c_dtd, c_dtd).unwrap().0;
        // The oldest use loses its engine, whatever it cost to build.
        assert_eq!(live_keys(&reg), HashSet::from([b, c]));
        assert_eq!(reg.stats().evictions, 2);
    }

    #[test]
    fn one_request_order_leaves_one_set_of_live_engines() {
        let (s, t) = wrap_pair();
        let identity: Vec<String> = (0..4)
            .map(|i| format!("<!ELEMENT r (e{i})>\n<!ELEMENT e{i} (#PCDATA)>"))
            .collect();
        let mut pairs: Vec<(&str, &str)> = identity.iter().map(|d| (&**d, &**d)).collect();
        pairs.push((&s, &t));
        pairs.push(impossible_pair());
        let regs = [small_registry(2), small_registry(2)];
        // Pair indices; every fourth step evicts instead of requesting.
        let order = [
            0, 1, 0, 2, 4, 0, 1, 1, 3, 4, 0, 4, 5, 2, 2, 0, 1, 4, 3, 3, 0, 5, 4, 1, 2, 0, 4, 0, 3,
            1, 1, 2,
        ];
        for (step, &i) in order.iter().enumerate() {
            let (s, t) = pairs[i];
            let live: Vec<HashSet<PairKey>> = regs
                .iter()
                .map(|reg| {
                    if step % 4 == 3 {
                        reg.evict(s, t).unwrap();
                    } else {
                        let _ = reg.get_or_compile(s, t);
                    }
                    live_keys(reg)
                })
                .collect();
            assert_eq!(live[0], live[1], "step {step}");
        }
        // Every counter but the build time agrees too.
        let [first, second] = regs.map(|reg| RegistryStats {
            compile_nanos: 0,
            ..reg.stats()
        });
        assert_eq!(first, second);
        assert!(first.evictions > 0 && first.hits > 0, "{first:?}");
    }

    #[test]
    fn explicit_evict_roundtrip() {
        let reg = small_registry(4);
        let (s, t) = wrap_pair();
        reg.get_or_compile(&s, &t).unwrap();
        assert!(reg.evict(&s, &t).unwrap());
        assert!(!reg.evict(&s, &t).unwrap(), "double evict must be a no-op");
        let st = reg.stats();
        assert_eq!(st.entries, 0);
        assert_eq!(st.evictions, 1);
        // Recompile works and bumps the compile counter.
        reg.get_or_compile(&s, &t).unwrap();
        assert_eq!(reg.stats().compiles, 2);
    }

    #[test]
    fn plan_counters_survive_eviction() {
        let reg = small_registry(4);
        let (s, t) = wrap_pair();
        let (_, engine) = reg.get_or_compile(&s, &t).unwrap();
        let q = xse_rxpath::parse_query("b/c").unwrap();
        engine.translate(&q).unwrap(); // compile miss
        engine.translate(&q).unwrap(); // cached hit
        let st = reg.stats();
        assert_eq!((st.plan_hits, st.plan_misses, st.plan_entries), (1, 1, 1));
        assert_eq!(live_keys(&reg).len(), 1);
        assert_eq!(engine.plan_stats().entries, 1);

        // Eviction drops the plans but folds the hit/miss totals into the
        // registry-wide aggregate.
        assert!(reg.evict(&s, &t).unwrap());
        let st = reg.stats();
        assert_eq!(
            (st.plan_hits, st.plan_misses, st.plan_entries),
            (1, 1, 0),
            "{st:?}"
        );

        // A recompiled engine starts cold and keeps accumulating on top.
        let (_, fresh) = reg.get_or_compile(&s, &t).unwrap();
        assert!(!Arc::ptr_eq(&engine, &fresh));
        fresh.translate(&q).unwrap();
        fresh.translate(&q).unwrap();
        let st = reg.stats();
        assert_eq!((st.plan_hits, st.plan_misses, st.plan_entries), (2, 2, 1));
        assert!(st.plan_hit_rate() > 0.49 && st.plan_hit_rate() < 0.51);
    }

    #[test]
    fn sixteen_concurrent_requests_compile_once() {
        let reg = std::sync::Arc::new(small_registry(4));
        let (s, t) = wrap_pair();
        let go = std::sync::Barrier::new(16);
        let engines: Vec<Arc<CompiledEmbedding>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let (s, t) = (s.clone(), t.clone());
                    let go = &go;
                    scope.spawn(move || {
                        go.wait();
                        reg.get_or_compile(&s, &t).unwrap().1
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Exactly one compile; every thread got the same Arc.
        let st = reg.stats();
        assert_eq!(st.compiles, 1, "{st:?}");
        assert_eq!(st.misses, 1, "{st:?}");
        assert_eq!(st.hits + st.single_flight_waits, 15, "{st:?}");
        for e in &engines[1..] {
            assert!(Arc::ptr_eq(&engines[0], e));
        }
    }

    #[test]
    fn failed_compile_wakes_waiters() {
        // All 8 threads race an impossible pair; every one must return
        // NoEmbedding (none may hang on a dropped pending mark).
        let reg = Arc::new(small_registry(4));
        let s = "<!ELEMENT r (a, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>";
        let t = "<!ELEMENT r (#PCDATA)>";
        let failures = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let reg = Arc::clone(&reg);
                let failures = &failures;
                scope.spawn(move || {
                    if matches!(reg.get_or_compile(s, t), Err(ServiceError::NoEmbedding)) {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(failures.load(Ordering::Relaxed), 8);
        assert_eq!(reg.stats().entries, 0);
    }

    #[test]
    fn sharded_registry_spreads_keys_and_merges_stats() {
        let reg = registry_with(64, 8, None);
        assert_eq!(reg.shards.len(), 8);
        let schemas: Vec<String> = (0..12)
            .map(|i| format!("<!ELEMENT r (e{i})>\n<!ELEMENT e{i} (#PCDATA)>"))
            .collect();
        let mut shards_touched = HashSet::new();
        for s in &schemas {
            let (k, _) = reg.get_or_compile(s, s).unwrap();
            shards_touched.insert(reg.shard_of(k));
            reg.get_or_compile(s, s).unwrap(); // warm hit via fast path
        }
        assert!(
            shards_touched.len() > 1,
            "12 distinct pairs all routed to one shard"
        );
        let merged = reg.stats();
        let summed = reg
            .shard_stats()
            .into_iter()
            .fold(RegistryStats::default(), |a, b| a + b);
        assert_eq!(merged, summed);
        assert_eq!(merged.misses, 12);
        assert_eq!(merged.hits, 12);
        assert_eq!(merged.entries, 12);
    }

    #[test]
    fn single_shard_routes_everything_to_shard_zero() {
        let reg = registry_with(4, 1, None);
        let (s, t) = wrap_pair();
        let (k, _) = reg.get_or_compile(&s, &t).unwrap();
        assert_eq!(reg.shard_of(k), 0);
        assert_eq!(reg.shard_stats().len(), 1);
        assert_eq!(reg.shard_stats()[0], reg.stats());
    }
}
