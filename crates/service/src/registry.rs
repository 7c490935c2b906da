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
//! # Sharding
//!
//! The registry is **lock-striped**: entries are distributed over
//! [`RegistryConfig::shards`] independent shards by a stable mix of the
//! pair's two content hashes. Each shard owns its own mutex, condvar,
//! single-flight set, and discovery verdicts, so a compile or eviction on
//! one shard never blocks requests routed to another. `shards: 1` restores
//! the seed's single-lock behavior exactly.
//!
//! # The warm fast path
//!
//! A warm hit never takes a shard mutex at all. Each shard keeps its
//! `Ready` entries in a reader-writer table whose writers only touch it
//! for the brief map insert/remove (never during a compile), so a warm
//! lookup is: one shared read-lock acquisition, an `Arc` clone, and a few
//! relaxed atomic counter bumps. A warm hit therefore cannot block behind
//! an in-flight compile — not even one for another pair on the same
//! shard.
//!
//! # Single-flight compilation
//!
//! Building an engine is the expensive operation the cache exists to
//! amortize, so each shard guarantees that N concurrent requests for the
//! same uncached pair trigger exactly **one** build: the first request
//! installs the key in the shard's pending set and builds outside the
//! lock; the rest block on the shard condvar and are counted as
//! [`RegistryStats::single_flight_waits`]. A failed or panicked build
//! removes the pending mark and wakes all waiters, so a transient
//! failure never wedges the key.
//!
//! # Discovery verdicts
//!
//! Finding an embedding is the NP-complete step (the paper's Thm 5.1);
//! checking and compiling a known `(λ, path)` is polynomial. Each shard
//! therefore keeps what discovery concluded for a pair in one bounded
//! verdict map that outlives the engines:
//!
//! * `Found` holds the discovered engine's two DTDs, its `λ` and its
//!   syntactic path function. A miss on such a pair *rebuilds* the engine
//!   with [`CompiledEmbedding::new`], which re-runs every §4.1 check but
//!   skips text parsing, the similarity matrix and `find_embedding`. The
//!   DTDs are the discovered engine's own, so a request with a permuted
//!   DTD text rebuilds exactly the embedding first discovered. Discovery
//!   is deterministic per pair and [`DiscoveryConfig`], so a rebuild
//!   answers every request byte for byte as a fresh search would.
//! * `Unembeddable` remembers a failed search for
//!   [`RegistryConfig::negative_ttl`]. Failing is as expensive as
//!   succeeding (the search exhausts its restarts), so until the verdict
//!   expires identical requests fail fast with `NoEmbedding` (counted as
//!   [`RegistryStats::negative_hits`]). The TTL keeps the verdict honest
//!   under config changes and similarity tweaks; `negative_ttl: None`
//!   records no such verdict (every request re-runs discovery).
//!
//! Explicit eviction drops the engine and any `Unembeddable` verdict but
//! keeps `Found`. The map is bounded per shard; its victim score drops
//! `Unembeddable` verdicts first (expired, then soonest-expiring) and
//! then the least recently built `Found` one.
//!
//! # Weighted eviction
//!
//! Every bound here — the `Ready` table, the verdict map and the text
//! memo — is enforced by [`xse_core::trim_to_capacity`]: after the insert
//! that overflowed, it drops the entries with the highest victim score.
//! Capacity is striped: each shard holds at most `⌈capacity / shards⌉`
//! `Ready` entries, scored by **compile-cost × recency**: the stalest
//! recency generation (the power-of-two bucket of the entry's age in
//! shard ticks) loses first, and within a generation the entry that was
//! *cheapest to compile* goes — recompiling it costs the least. Pending
//! (in-flight) keys live outside the `Ready` table and are structurally
//! impossible to evict. Explicit [`EmbeddingRegistry::evict`] uses the
//! same accounting.
//!
//! # Stats
//!
//! [`EmbeddingRegistry::stats`] merges per-shard snapshots (each taken
//! under that shard's mutex) into one [`RegistryStats`]. Every counter is
//! per-shard monotone — eviction folds an engine's plan counters into the
//! shard's retired accumulators *under the shard lock, in the same
//! critical section that removes the entry* — so the merged aggregate
//! never goes backwards even when two shards evict concurrently.
//! [`EmbeddingRegistry::shard_stats`] exposes the unmerged per-shard
//! snapshots.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use xse_core::{
    trim_to_capacity, CompiledEmbedding, PathMapping, PlanCacheStats, SimilarityMatrix, TypeMapping,
};
use xse_discovery::{find_embedding, DiscoveryConfig};
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
    /// Maximum number of cached (`Ready`) embeddings. The bound is
    /// striped: each shard holds at most `⌈capacity / shards⌉` entries,
    /// so the effective total is `capacity` rounded up to a multiple of
    /// the shard count. Minimum 1.
    pub capacity: usize,
    /// Number of lock stripes. Requests for different pairs on different
    /// shards never contend on a mutex; `1` restores the seed's
    /// single-lock behavior exactly. Minimum 1, default 8.
    pub shards: usize,
    /// Discovery configuration used for every compile.
    pub discovery: DiscoveryConfig,
    /// Builds the similarity matrix `att` for each compile (default:
    /// [`default_similarity`]).
    pub sim: fn(&Dtd, &Dtd) -> SimilarityMatrix,
    /// How long an `Unembeddable` verdict (a failed discovery) is
    /// remembered: until it expires, identical requests return
    /// `NoEmbedding` without re-running the search. `None` records no
    /// such verdict. `Found` verdicts have no TTL.
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
    /// Requests that found no entry and started a compile.
    pub misses: u64,
    /// Engines built, by discovery or by a rebuild from a `Found`
    /// verdict.
    pub compiles: u64,
    /// Requests that blocked on another request's in-flight compile
    /// (neither a hit nor a miss).
    pub single_flight_waits: u64,
    /// Entries dropped (capacity pressure + explicit evictions).
    pub evictions: u64,
    /// `Ready` entries currently cached.
    pub entries: u64,
    /// Total wall-clock nanoseconds spent building engines: discovery,
    /// including failed runs, or rebuild.
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

/// Per-entry counters, exposed by [`EmbeddingRegistry::entry_stats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EntryStats {
    /// Times this entry served a request after its compile.
    pub hits: u64,
    /// Wall-clock nanoseconds its build (discovery or rebuild) took.
    pub compile_nanos: u64,
    /// Shard tick of the most recent use (higher = more recent).
    pub last_used: u64,
    /// The engine's translation-plan cache counters.
    pub plan: PlanCacheStats,
}

/// A `Ready` entry in a shard's reader-writer table. Usage counters are
/// relaxed atomics so the warm path can bump them under a shared read
/// lock.
struct FastEntry {
    engine: Arc<CompiledEmbedding>,
    hits: AtomicU64,
    last_used: AtomicU64,
    compile_nanos: u64,
}

/// Cap on the text → hash memo, bounding memory against clients that
/// stream never-repeating DTD texts. Every entry scores the same, so an
/// overflowing insert drops arbitrary older texts (never the two just
/// inserted); a dropped text re-canonicalizes on its next use.
const TEXT_KEY_CAP: usize = 1024;

/// Per-shard cap on the verdict map. The verdict just recorded is never
/// dropped; a dropped one only costs speed, as the pair's next miss
/// searches again.
const VERDICT_CAP: usize = 256;

/// What a `Found` verdict rebuilds its engine from: the discovered
/// engine's own DTDs, `λ` and syntactic path function.
struct Recipe {
    source: Arc<Dtd>,
    target: Arc<Dtd>,
    lambda: TypeMapping,
    paths: PathMapping,
}

impl Recipe {
    fn of(engine: &CompiledEmbedding) -> Recipe {
        Recipe {
            source: engine.source_arc(),
            target: engine.target_arc(),
            lambda: engine.type_mapping().clone(),
            paths: engine.path_mapping().clone(),
        }
    }

    /// Re-run the §4.1 checks and compile. `None` would mean the recipe no
    /// longer validates; the caller then searches again.
    fn rebuild(&self) -> Option<CompiledEmbedding> {
        CompiledEmbedding::new(
            Arc::clone(&self.source),
            Arc::clone(&self.target),
            self.lambda.clone(),
            self.paths.clone(),
        )
        .ok()
    }
}

/// What discovery concluded for a pair (see the module docs).
enum Verdict {
    /// An embedding was found. `built` is the shard tick of the pair's
    /// latest engine build: the recency `Found` verdicts are dropped by.
    Found { recipe: Arc<Recipe>, built: u64 },
    /// No embedding was found; the verdict holds until this instant.
    Unembeddable(Instant),
}

/// The verdict map's victim score; the highest is dropped first. The
/// variant order puts every `Unembeddable` verdict above every `Found`
/// one: expired and soonest-expiring first, then the least recently
/// built `Found`.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum VerdictVictim {
    Found(Reverse<u64>),
    Unembeddable(Reverse<Instant>),
}

/// Shard state that needs the mutex: single-flight bookkeeping, the
/// discovery verdicts, and the monotone counters that aren't hot enough to
/// justify atomics.
#[derive(Default)]
struct ShardInner {
    /// Keys with a build in flight; waiters sleep on the shard condvar.
    /// Pending keys are *not* in the `Ready` table, so eviction can never
    /// select one.
    pending: HashSet<PairKey>,
    /// What discovery concluded, per pair. Outlives the engines.
    verdicts: HashMap<PairKey, Verdict>,
    negative_hits: u64,
    misses: u64,
    /// Engines built by a successful `find_embedding` run.
    discovered: u64,
    /// Engines rebuilt from a `Found` verdict.
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
    /// Record `verdict` for `key` and trim the map to [`VERDICT_CAP`],
    /// never dropping `key` itself.
    fn record(&mut self, key: PairKey, verdict: Verdict) {
        self.verdicts.insert(key, verdict);
        trim_to_capacity(&mut self.verdicts, VERDICT_CAP, |k, v| {
            (*k != key).then_some(match v {
                Verdict::Found { built, .. } => VerdictVictim::Found(Reverse(*built)),
                Verdict::Unembeddable(expiry) => VerdictVictim::Unembeddable(Reverse(*expiry)),
            })
        });
    }

    /// Account for an entry just removed from the `Ready` table: fold its
    /// plan counters into the retired accumulators and count the
    /// eviction. Callers remove the entry and retire it in one
    /// `inner`-locked critical section, so a concurrent `stats()` (which
    /// also holds `inner`) can never observe the engine both live in the
    /// table and already folded. That ordering is what keeps merged plan
    /// totals monotone when two shards evict at the same time.
    fn retire(&mut self, entry: &FastEntry) {
        let plan = entry.engine.plan_stats();
        self.retired_plan_hits += plan.hits;
        self.retired_plan_misses += plan.misses;
        self.evictions += 1;
    }
}

struct Shard {
    /// The `Ready` table: the only state the warm path touches.
    fast: RwLock<HashMap<PairKey, Arc<FastEntry>>>,
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
            fast: RwLock::new(HashMap::new()),
            inner: Mutex::new(ShardInner::default()),
            compiled: Condvar::new(),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Mark `entry` used now. `count_hit` is false for single-flight
    /// waiters: they were already counted as waits, and counting the hit
    /// too would double-count the request and inflate `hit_rate()`.
    fn touch(&self, entry: &FastEntry, count_hit: bool) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(tick, Ordering::Relaxed);
        entry.hits.fetch_add(1, Ordering::Relaxed);
        if count_hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One shard's snapshot, taken under its mutex so retire folds can't
    /// be half-observed.
    fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().unwrap();
        let fast = self.fast.read().unwrap();
        let mut plan_hits = inner.retired_plan_hits;
        let mut plan_misses = inner.retired_plan_misses;
        let mut plan_entries = 0;
        for e in fast.values() {
            let plan = e.engine.plan_stats();
            plan_hits += plan.hits;
            plan_misses += plan.misses;
            plan_entries += plan.entries;
        }
        RegistryStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: inner.misses,
            compiles: inner.discovered + inner.rebuilt,
            single_flight_waits: inner.single_flight_waits,
            evictions: inner.evictions,
            entries: fast.len() as u64,
            compile_nanos: inner.compile_nanos,
            plan_hits,
            plan_misses,
            plan_entries,
            negative_hits: inner.negative_hits,
        }
    }
}

/// The `Ready` table's victim score for an entry `age` shard ticks old
/// whose compile took `cost` nanoseconds; the highest score is evicted
/// first.
///
/// Ages are grouped into power-of-two *recency generations*; a staler
/// generation always loses first, and within a generation the entry that
/// was cheapest to compile goes (its loss costs the least to undo). The
/// key is a final deterministic tiebreak so eviction is a pure function
/// of observable entry state.
fn victim_score(age: u64, cost: u64, key: PairKey) -> (u32, Reverse<u64>, (u128, u128)) {
    // floor(log2(age + 1)): 0 is "just used", each generation doubles.
    let generation = 63 - age.saturating_add(1).leading_zeros().min(63);
    (
        generation,
        Reverse(cost.max(1)),
        (key.source.as_u128(), key.target.as_u128()),
    )
}

/// Concurrent map from DTD pairs to compiled embeddings, with lock-striped
/// shards, single-flight compilation, a mutex-free warm path, and
/// weighted (compile-cost × recency) eviction. See the [module
/// docs](self) for the design.
pub struct EmbeddingRegistry {
    shards: Vec<Shard>,
    /// Memo: exact DTD text → canonical hash. The warm path resolves both
    /// texts here with two string lookups under a shared read lock,
    /// skipping the parse + reduce + canonical-serialization work
    /// entirely; only texts never seen before (or dropped from the memo)
    /// pay it. Registry-level because the shard index *derives from* the
    /// resolved key.
    text_keys: RwLock<HashMap<String, DtdHash>>,
    /// Per-shard `Ready` capacity: `⌈capacity / shards⌉`.
    shard_capacity: usize,
    config: RegistryConfig,
}

/// Removes the pending mark if the compile unwinds or fails, so waiters
/// are never left sleeping on a key nobody is working on.
struct PendingGuard<'a> {
    shard: &'a Shard,
    key: PairKey,
    armed: bool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.shard.inner.lock().unwrap();
            inner.pending.remove(&self.key);
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

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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
    /// wait, a rebuild from the pair's `Found` verdict, or a fresh
    /// `find_embedding` run.
    ///
    /// # Errors
    /// [`ServiceError::BadDtd`] when either text fails to parse,
    /// [`ServiceError::NoEmbedding`] when discovery exhausts its restarts
    /// without finding an information-preserving embedding — remembered as
    /// an `Unembeddable` verdict for [`RegistryConfig::negative_ttl`], after
    /// which an identical request re-runs the search.
    pub fn get_or_compile(
        &self,
        source_dtd: &str,
        target_dtd: &str,
    ) -> Result<(PairKey, Arc<CompiledEmbedding>), ServiceError> {
        let (key, mut parsed) = self.resolve(source_dtd, target_dtd)?;
        let shard = self.shard(key);

        // The warm fast path: a shared read lock, an Arc clone, and a few
        // relaxed counter bumps. No mutex — an in-flight compile on this
        // shard (necessarily for another pair) cannot delay us.
        if let Some(e) = shard.fast.read().unwrap().get(&key) {
            shard.touch(e, true);
            return Ok((key, Arc::clone(&e.engine)));
        }

        let mut waited = false;
        let recipe = {
            let mut inner = shard.inner.lock().unwrap();
            loop {
                // Re-check under the mutex: inserts happen with `inner`
                // held, so this read is race-free against them.
                let ready = shard.fast.read().unwrap().get(&key).map(Arc::clone);
                if let Some(e) = ready {
                    shard.touch(&e, !waited);
                    return Ok((key, Arc::clone(&e.engine)));
                }
                if inner.pending.contains(&key) {
                    if !waited {
                        waited = true;
                        inner.single_flight_waits += 1;
                    }
                    inner = shard.compiled.wait(inner).unwrap();
                } else {
                    // Absent: consult the verdict before paying for a
                    // search.
                    let recipe = match inner.verdicts.get(&key) {
                        Some(Verdict::Found { recipe, .. }) => Some(Arc::clone(recipe)),
                        Some(Verdict::Unembeddable(expiry)) if Instant::now() < *expiry => {
                            inner.negative_hits += 1;
                            return Err(ServiceError::NoEmbedding);
                        }
                        Some(Verdict::Unembeddable(_)) => {
                            inner.verdicts.remove(&key);
                            None
                        }
                        None => None,
                    };
                    inner.misses += 1;
                    inner.pending.insert(key);
                    break recipe;
                }
            }
        };

        // We own the pending mark; build outside every lock. A recipe
        // skips parsing, the similarity matrix and the search. The memoized
        // path skipped parsing too, so discovery may have to do it now
        // (both texts parsed when they entered the memo, but propagate
        // errors regardless).
        let mut guard = PendingGuard {
            shard,
            key,
            armed: true,
        };
        let t0 = Instant::now();
        let mut found = recipe.as_deref().and_then(Recipe::rebuild);
        let rebuilt = found.is_some();
        let mut nanos = t0.elapsed().as_nanos() as u64;
        if !rebuilt {
            let (source, target) = match parsed.take() {
                Some(pair) => pair,
                None => (
                    parse_dtd(source_dtd, "source")?,
                    parse_dtd(target_dtd, "target")?,
                ),
            };
            let att = (self.config.sim)(&source, &target);
            let t0 = Instant::now();
            found = find_embedding(&source, &target, &att, &self.config.discovery);
            nanos += t0.elapsed().as_nanos() as u64;
        }

        let mut inner = shard.inner.lock().unwrap();
        inner.compile_nanos += nanos;
        let Some(engine) = found else {
            // Record the verdict *before* the guard's Drop removes the
            // pending mark and wakes waiters, so woken threads observe it
            // instead of racing into their own searches.
            if let Some(ttl) = self.config.negative_ttl {
                inner.record(key, Verdict::Unembeddable(Instant::now() + ttl));
            }
            drop(inner);
            return Err(ServiceError::NoEmbedding);
        };
        guard.armed = false;

        let engine = Arc::new(engine);
        let tick = shard.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if rebuilt {
            inner.rebuilt += 1;
        } else {
            inner.discovered += 1;
        }
        let recipe = recipe
            .filter(|_| rebuilt)
            .unwrap_or_else(|| Arc::new(Recipe::of(&engine)));
        inner.record(
            key,
            Verdict::Found {
                recipe,
                built: tick,
            },
        );
        inner.pending.remove(&key);
        let victims = {
            let mut fast = shard.fast.write().unwrap();
            fast.insert(
                key,
                Arc::new(FastEntry {
                    engine: Arc::clone(&engine),
                    hits: AtomicU64::new(0),
                    last_used: AtomicU64::new(tick),
                    compile_nanos: nanos,
                }),
            );
            let now = shard.tick.load(Ordering::Relaxed);
            trim_to_capacity(&mut fast, self.shard_capacity, |k, e| {
                let age = now.saturating_sub(e.last_used.load(Ordering::Relaxed));
                (*k != key).then(|| victim_score(age, e.compile_nanos, *k))
            })
        };
        for (_, victim) in &victims {
            inner.retire(victim);
        }
        drop(inner);
        shard.compiled.notify_all();
        Ok((key, engine))
    }

    /// Drop the pair's cached engine and any `Unembeddable` verdict, so a
    /// failed pair is searched again. A `Found` verdict stays: the next
    /// request rebuilds the same engine without a search, so an eviction
    /// never changes an answer. Returns whether a *compiled* entry existed
    /// (in-flight compiles are left alone and reported as absent, as is a
    /// pair that only has a verdict).
    ///
    /// # Errors
    /// [`ServiceError::BadDtd`] when either text fails to parse.
    pub fn evict(&self, source_dtd: &str, target_dtd: &str) -> Result<bool, ServiceError> {
        let (key, _) = self.resolve(source_dtd, target_dtd)?;
        Ok(self.evict_key(key))
    }

    /// [`EmbeddingRegistry::evict`] by precomputed key.
    pub fn evict_key(&self, key: PairKey) -> bool {
        let shard = self.shard(key);
        let mut inner = shard.inner.lock().unwrap();
        if matches!(inner.verdicts.get(&key), Some(Verdict::Unembeddable(_))) {
            inner.verdicts.remove(&key);
        }
        let removed = shard.fast.write().unwrap().remove(&key);
        if let Some(entry) = &removed {
            inner.retire(entry);
        }
        removed.is_some()
    }
    /// Resolve both texts to the pair's key through the text memo. A memo
    /// hit parses nothing and returns `None` for the parsed pair; a miss
    /// parses both texts (so a bad text is always [`ServiceError::BadDtd`]
    /// and never enters the memo), memoizes their hashes and returns the
    /// parsed DTDs for a compile to reuse.
    fn resolve(
        &self,
        source_dtd: &str,
        target_dtd: &str,
    ) -> Result<(PairKey, Option<(Dtd, Dtd)>), ServiceError> {
        {
            let memo = self.text_keys.read().unwrap();
            if let (Some(&source), Some(&target)) = (memo.get(source_dtd), memo.get(target_dtd)) {
                return Ok((PairKey { source, target }, None));
            }
        }
        let source = parse_dtd(source_dtd, "source")?;
        let target = parse_dtd(target_dtd, "target")?;
        let key = PairKey {
            source: source.content_hash(),
            target: target.content_hash(),
        };
        let mut memo = self.text_keys.write().unwrap();
        memo.insert(source_dtd.to_string(), key.source);
        memo.insert(target_dtd.to_string(), key.target);
        trim_to_capacity(&mut memo, TEXT_KEY_CAP, |text, _| {
            (text != source_dtd && text != target_dtd).then_some(())
        });
        Ok((key, Some((source, target))))
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

    /// Per-entry counters for every cached embedding (unordered).
    pub fn entry_stats(&self) -> Vec<(PairKey, EntryStats)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let _inner = shard.inner.lock().unwrap();
            let fast = shard.fast.read().unwrap();
            out.extend(fast.iter().map(|(k, e)| {
                (
                    *k,
                    EntryStats {
                        hits: e.hits.load(Ordering::Relaxed),
                        compile_nanos: e.compile_nanos,
                        last_used: e.last_used.load(Ordering::Relaxed),
                        plan: e.engine.plan_stats(),
                    },
                )
            }));
        }
        out
    }
}

fn parse_dtd(text: &str, which: &'static str) -> Result<Dtd, ServiceError> {
    Dtd::parse(text).map_err(|e| ServiceError::BadDtd(format!("{which} DTD: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Single shard: the seed's exact single-lock semantics, which the
        // legacy behavior tests below assert.
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

    /// The key of a one-leaf identity pair, for filling maps with verdicts
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

    #[test]
    fn negative_cache_past_its_cap_drops_expired_verdicts_first() {
        // New verdicts outlive every synthetic one below.
        let reg = small_registry_ttl(4, Some(Duration::from_secs(3600)));
        let now = Instant::now();
        let expired = synthetic_key(0);
        let unexpired: Vec<PairKey> = (1..VERDICT_CAP).map(synthetic_key).collect();
        {
            let mut inner = reg.shards[0].inner.lock().unwrap();
            inner.verdicts.insert(expired, Verdict::Unembeddable(now));
            for (i, k) in unexpired.iter().enumerate() {
                let expiry = now + Duration::from_secs(60 + i as u64);
                inner.verdicts.insert(*k, Verdict::Unembeddable(expiry));
            }
        }
        let negative_keys = || -> HashSet<PairKey> {
            let inner = reg.shards[0].inner.lock().unwrap();
            inner.verdicts.keys().copied().collect()
        };

        // Full with one expired verdict: recording a new one drops it.
        let (s, t) = impossible_pair();
        reg.get_or_compile(s, t).unwrap_err();
        let first = EmbeddingRegistry::key_for(s, t).unwrap();
        let keys = negative_keys();
        assert_eq!(keys.len(), VERDICT_CAP);
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
        let keys = negative_keys();
        assert_eq!(keys.len(), VERDICT_CAP);
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
    fn verdicts_past_their_cap_drop_the_least_recently_built_found_first() {
        let reg = small_registry(4);
        let (s, t) = wrap_pair();
        let recipe = Arc::new(Recipe::of(
            &small_registry(4).get_or_compile(&s, &t).unwrap().1,
        ));
        let filler: Vec<PairKey> = (0..VERDICT_CAP).map(synthetic_key).collect();
        {
            // Every filler verdict was built after anything the registry
            // builds below, whose shard ticks start at 1.
            let mut inner = reg.shards[0].inner.lock().unwrap();
            for (i, k) in filler.iter().enumerate() {
                let recipe = Arc::clone(&recipe);
                let built = 1000 + i as u64;
                inner.verdicts.insert(*k, Verdict::Found { recipe, built });
            }
        }
        let verdict_keys = || -> HashSet<PairKey> {
            let inner = reg.shards[0].inner.lock().unwrap();
            inner.verdicts.keys().copied().collect()
        };

        // The new verdict is the least recently built, but it is the one
        // just recorded: the oldest filler goes instead.
        let a = "<!ELEMENT r (a)>\n<!ELEMENT a (#PCDATA)>";
        let (first, _) = reg.get_or_compile(a, a).unwrap();
        let keys = verdict_keys();
        assert_eq!(keys.len(), VERDICT_CAP);
        assert!(keys.contains(&first) && !keys.contains(&filler[0]));
        assert!(filler[1..].iter().all(|k| keys.contains(k)));

        // An unexpired `Unembeddable` verdict still goes before any
        // `Found`, even the least recently built one.
        let expiry = Instant::now() + Duration::from_secs(3600);
        reg.shards[0]
            .inner
            .lock()
            .unwrap()
            .verdicts
            .insert(filler[1], Verdict::Unembeddable(expiry));
        let b = "<!ELEMENT r (b)>\n<!ELEMENT b (#PCDATA)>";
        let (second, _) = reg.get_or_compile(b, b).unwrap();
        let keys = verdict_keys();
        assert_eq!(keys.len(), VERDICT_CAP);
        assert!(keys.contains(&first) && keys.contains(&second));
        assert!(!keys.contains(&filler[1]));
        assert!(filler[2..].iter().all(|k| keys.contains(k)));
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
        // Touch k0 repeatedly so k1 falls a whole recency generation
        // behind — then the weighted policy must pick k1 regardless of
        // the two entries' compile costs.
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
        let keys: Vec<PairKey> = reg.entry_stats().into_iter().map(|(k, _)| k).collect();
        assert!(keys.contains(&k0) && keys.contains(&k2) && !keys.contains(&k1));
    }

    #[test]
    fn eviction_order_is_generation_first_then_cost() {
        // The policy itself is a pure function; pin its shape directly.
        let ka = EmbeddingRegistry::key_for(
            "<!ELEMENT r (a)>\n<!ELEMENT a (#PCDATA)>",
            "<!ELEMENT r (a)>\n<!ELEMENT a (#PCDATA)>",
        )
        .unwrap();
        let kb = EmbeddingRegistry::key_for(
            "<!ELEMENT r (b)>\n<!ELEMENT b (#PCDATA)>",
            "<!ELEMENT r (b)>\n<!ELEMENT b (#PCDATA)>",
        )
        .unwrap();
        // A whole generation staler always loses, even when far costlier.
        assert!(victim_score(7, 1_000_000, ka) > victim_score(2, 10, kb));
        assert!(victim_score(2, 10, kb) <= victim_score(7, 1_000_000, ka));
        // Same generation (ages 4..=6 share floor(log2(age+1)) == 2):
        // the cheaper compile is the better victim.
        assert!(victim_score(4, 10, ka) > victim_score(6, 1_000_000, kb));
        assert!(victim_score(6, 1_000_000, kb) <= victim_score(4, 10, ka));
        // Full tie: broken deterministically by key bits, antisymmetric.
        let by_key = victim_score(3, 50, ka) > victim_score(3, 50, kb);
        assert_ne!(by_key, victim_score(3, 50, kb) > victim_score(3, 50, ka));
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
        let per_entry = reg.entry_stats();
        assert_eq!(per_entry.len(), 1);
        assert_eq!(per_entry[0].1.plan.entries, 1);

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
        assert_eq!(reg.shard_count(), 8);
        let schemas: Vec<String> = (0..12)
            .map(|i| format!("<!ELEMENT r (e{i})>\n<!ELEMENT e{i} (#PCDATA)>"))
            .collect();
        let mut shards_touched = std::collections::HashSet::new();
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
