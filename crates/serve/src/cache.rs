//! Content-hash → program cache: one entry per distinct program, holding
//! its front end and then its compiled artifact, with single-flight
//! deduplication of both stages and a bounded LRU footprint.
//!
//! An entry is made by [`ProgramCache::program`], which the service calls
//! at submit time: exactly one thread runs the front end (parse +
//! optimize + abstract interpretation, [`FrontEnd::analyze`]) per content
//! hash, and every concurrent requester for the same hash parks on a
//! condvar and receives the shared [`CachedProgram`]. The entry keeps the
//! static fuel lower bound for later admissions, and the front end until an
//! executor asks [`ProgramCache::artifact`] for the compiled program; that
//! runs bytecode compilation and peephole fusion once, on the cached AST
//! and type facts, and drops the AST. Under a compile storm — many tenants
//! submitting the same script at once, the common case when a course or a
//! batch pipeline fans out one kernel — each stage therefore runs once.
//! Deterministic parse and compile *errors* are cached too, so a broken
//! script costs one front end and one compilation, not one per submission.
//!
//! An admitted job holds its entry, so the executor needs no second lookup,
//! and an entry evicted while its jobs wait in the queue still serves them.
//!
//! The cache is **bounded**: at most [`DEFAULT_CAPACITY`] resolved entries
//! (configurable via [`ProgramCache::with_capacity`]) are retained, and the
//! least-recently-used resolved entry is evicted when a new front end
//! pushes the cache over capacity. In-flight (still-analyzing) entries are
//! never evicted — single-flight deduplication holds even under churn — and
//! every eviction is counted in [`CacheStats::evictions`]. Eviction scans
//! the map for the oldest stamp, which is linear in the capacity; that is
//! the right trade at service cache sizes (hundreds to a few thousand
//! programs), where a heap would cost more in bookkeeping than the scan.
//! Evicted entries go back to the caller, which the service uses to free
//! them on an executor rather than in `submit`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use rcr_minilang::Error;

use crate::program::{content_hash, FrontEnd, ProgramArtifact};

/// Default bound on resolved cache entries. Compiled artifacts are small
/// (bytecode plus constants), so the default is sized for "every distinct
/// program a busy multi-tenant service sees in a session", not for memory
/// pressure; long-running services with hostile tenants should set an
/// explicit capacity via [`ProgramCache::with_capacity`].
pub const DEFAULT_CAPACITY: usize = 1024;

/// One distinct program: its static fuel lower bound, its front end until
/// the compile consumes it, and the compile's outcome.
#[derive(Debug)]
pub struct CachedProgram {
    /// `None` when the source does not parse.
    fuel_lo: Option<u64>,
    /// The front end (or the parse error) the compile has not consumed yet.
    pending: Mutex<Option<Result<FrontEnd, Error>>>,
    /// The compiled artifact or the deterministic error, built once.
    artifact: OnceLock<Result<Arc<ProgramArtifact>, Error>>,
}

impl CachedProgram {
    fn analyze(source: &str) -> CachedProgram {
        let front = FrontEnd::analyze(source);
        CachedProgram {
            fuel_lo: front.as_ref().ok().map(FrontEnd::fuel_lower_bound),
            pending: Mutex::new(Some(front)),
            artifact: OnceLock::new(),
        }
    }

    /// The static fuel lower bound ([`FrontEnd::fuel_lower_bound`]);
    /// `None` when the source does not parse.
    pub fn fuel_lower_bound(&self) -> Option<u64> {
        self.fuel_lo
    }

    fn compile(&self) -> Result<Arc<ProgramArtifact>, Error> {
        let front = self
            .pending
            .lock()
            .unwrap()
            .take()
            .expect("a program is compiled at most once");
        ProgramArtifact::from_front_end(front?).map(Arc::new)
    }
}

/// State of one cache slot.
enum Slot {
    /// Some thread is running this hash's front end; wait on the condvar.
    Analyzing,
    /// The front end has run.
    Resolved(Arc<CachedProgram>),
}

/// One slot plus its recency stamp (larger = more recently used).
struct Entry {
    slot: Slot,
    stamp: u64,
}

/// The map, the logical clock it is stamped by, and the number of
/// [`Slot::Analyzing`] entries in it, guarded together.
struct Slots {
    map: HashMap<u64, Entry>,
    clock: u64,
    analyzing: usize,
}

impl Slots {
    /// Resolved (evictable) entries, in O(1).
    fn resolved(&self) -> usize {
        self.map.len() - self.analyzing
    }
}

/// Cache counters (monotonic, readable at any time). `hits`, `misses` and
/// `coalesced` count requests for a compiled artifact; `analyses` counts
/// front ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from an already compiled (or failed) program.
    pub hits: u64,
    /// Requests that ran the compiler.
    pub misses: u64,
    /// Requests that parked behind an in-flight compile (single-flight
    /// deduplication at work).
    pub coalesced: u64,
    /// Resolved entries evicted to keep the cache within capacity.
    pub evictions: u64,
    /// Front ends run ([`FrontEnd::analyze`]): one per distinct program
    /// while its entry stays resident.
    pub analyses: u64,
}

/// The single-flight, capacity-bounded program cache.
pub struct ProgramCache {
    slots: Mutex<Slots>,
    done: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    analyses: AtomicU64,
}

impl Default for ProgramCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Dropped only if a front end unwinds: frees its [`Slot::Analyzing`] slot
/// so that waiters retry instead of parking forever.
struct AnalyzingGuard<'a> {
    cache: &'a ProgramCache,
    key: u64,
}

impl Drop for AnalyzingGuard<'_> {
    fn drop(&mut self) {
        let mut slots = self.cache.slots.lock().unwrap();
        slots.map.remove(&self.key);
        slots.analyzing -= 1;
        drop(slots);
        self.cache.done.notify_all();
    }
}

impl ProgramCache {
    /// Creates an empty cache bounded at [`DEFAULT_CAPACITY`] resolved
    /// entries.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an empty cache retaining at most `capacity` resolved
    /// entries (clamped to ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        ProgramCache {
            slots: Mutex::new(Slots {
                map: HashMap::new(),
                clock: 0,
                analyzing: 0,
            }),
            done: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            analyses: AtomicU64::new(0),
        }
    }

    /// The bound on resolved entries this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the entry for `source`, running its front end at most once
    /// per distinct content hash no matter how many threads ask
    /// concurrently. A lookup refreshes the entry's recency, so hot
    /// programs survive churn from one-shot submissions.
    ///
    /// Entries this call evicts are pushed onto `evicted` instead of being
    /// dropped here: freeing a program that has run costs more than the
    /// lookup, so the caller picks the thread that pays for it.
    pub fn program(
        &self,
        source: &str,
        evicted: &mut Vec<Arc<CachedProgram>>,
    ) -> Arc<CachedProgram> {
        let key = content_hash(source);
        let mut slots = self.slots.lock().unwrap();
        loop {
            slots.clock += 1;
            let stamp = slots.clock;
            match slots.map.get_mut(&key) {
                Some(Entry {
                    slot: Slot::Resolved(program),
                    stamp: last,
                }) => {
                    *last = stamp;
                    return Arc::clone(program);
                }
                // Single-flight: wait for the analyzing thread, then re-check.
                Some(_) => slots = self.done.wait(slots).unwrap(),
                None => {
                    slots.map.insert(
                        key,
                        Entry {
                            slot: Slot::Analyzing,
                            stamp,
                        },
                    );
                    slots.analyzing += 1;
                    break;
                }
            }
        }
        drop(slots);

        // Analyze outside the lock: other hashes stay fully concurrent and
        // same-hash requesters park on the condvar instead of spinning.
        let guard = AnalyzingGuard { cache: self, key };
        self.analyses.fetch_add(1, Ordering::Relaxed);
        let program = Arc::new(CachedProgram::analyze(source));
        std::mem::forget(guard);

        let mut slots = self.slots.lock().unwrap();
        slots.clock += 1;
        let stamp = slots.clock;
        slots.map.insert(
            key,
            Entry {
                slot: Slot::Resolved(Arc::clone(&program)),
                stamp,
            },
        );
        slots.analyzing -= 1;
        self.evict_over_capacity(&mut slots, evicted);
        drop(slots);
        self.done.notify_all();
        program
    }

    /// Returns `program`'s compiled artifact, compiling it at most once no
    /// matter how many threads ask concurrently. Needs no lookup, so it
    /// serves a program whose entry was evicted after admission too.
    ///
    /// # Errors
    /// The cached deterministic parse or compile [`Error`] for broken
    /// sources.
    pub fn artifact(&self, program: &CachedProgram) -> Result<Arc<ProgramArtifact>, Error> {
        if let Some(done) = program.artifact.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return done.clone();
        }
        let mut compiled = false;
        let done = program.artifact.get_or_init(|| {
            compiled = true;
            self.misses.fetch_add(1, Ordering::Relaxed);
            program.compile()
        });
        if !compiled {
            // Another thread's compile was in flight; this request waited
            // for it and is served like any other hit.
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        done.clone()
    }

    /// [`ProgramCache::program`] then [`ProgramCache::artifact`]: the
    /// compiled artifact for `source`.
    ///
    /// # Errors
    /// The cached deterministic parse or compile [`Error`] for broken
    /// sources.
    pub fn get_or_compile(&self, source: &str) -> Result<Arc<ProgramArtifact>, Error> {
        self.artifact(&self.program(source, &mut Vec::new()))
    }

    /// Evicts least-recently-used *resolved* entries until at most
    /// `capacity` remain. `Analyzing` entries are exempt: evicting one
    /// would orphan the waiters parked on the condvar.
    fn evict_over_capacity(&self, slots: &mut Slots, evicted: &mut Vec<Arc<CachedProgram>>) {
        while slots.resolved() > self.capacity {
            let victim = slots
                .map
                .iter()
                .filter(|(_, e)| matches!(e.slot, Slot::Resolved(_)))
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .expect("over-capacity cache has a resolved entry");
            if let Some(Entry {
                slot: Slot::Resolved(program),
                ..
            }) = slots.map.remove(&victim)
            {
                evicted.push(program);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            analyses: self.analyses.load(Ordering::Relaxed),
        }
    }

    /// Number of resolved entries.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().resolved()
    }

    /// True when no entry has been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_successes_and_failures() {
        let cache = ProgramCache::new();
        assert_eq!(cache.capacity(), DEFAULT_CAPACITY);
        let a = cache.get_or_compile("1 + 1").unwrap();
        let b = cache.get_or_compile("1 + 1").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same artifact instance expected");
        assert!(cache.get_or_compile("let = ;").is_err());
        assert!(cache.get_or_compile("let = ;").is_err());
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "{stats:?}");
        assert_eq!(stats.hits, 2, "{stats:?}");
        assert_eq!(stats.evictions, 0, "{stats:?}");
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn compile_storm_compiles_each_source_once() {
        let cache = ProgramCache::new();
        let sources: Vec<String> = (0..4)
            .map(|i| format!("let s = 0; for i in range(0, 50) {{ s = s + i * {i}; }} s"))
            .collect();
        std::thread::scope(|scope| {
            for t in 0..16 {
                let cache = &cache;
                let sources = &sources;
                scope.spawn(move || {
                    for round in 0..8 {
                        let src = &sources[(t + round) % sources.len()];
                        let artifact = cache.get_or_compile(src).unwrap();
                        assert!(artifact.code_len() > 0);
                    }
                });
            }
        });
        let stats = cache.stats();
        // Single-flight: at most one compile per distinct source; every
        // other request either hit or parked behind the in-flight build
        // (and then hit).
        assert_eq!(stats.misses, 4, "{stats:?}");
        assert_eq!(stats.hits + stats.misses, 16 * 8, "{stats:?}");
        assert!(stats.coalesced <= stats.hits, "{stats:?}");
    }

    #[test]
    fn churn_never_exceeds_capacity_and_counts_evictions() {
        let cache = ProgramCache::with_capacity(4);
        assert_eq!(cache.capacity(), 4);
        let sources: Vec<String> = (0..20).map(|i| format!("{i} + {i}")).collect();
        for src in &sources {
            cache.get_or_compile(src).unwrap();
            assert!(
                cache.len() <= 4,
                "cache grew to {} entries past capacity 4",
                cache.len()
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 20, "{stats:?}");
        assert_eq!(stats.evictions, 16, "{stats:?}");
        assert_eq!(cache.len(), 4);

        // The oldest sources were evicted, so asking again recompiles...
        cache.get_or_compile(&sources[0]).unwrap();
        // ...while the newest are still resident and hit.
        cache.get_or_compile(&sources[19]).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 21, "{stats:?}");
        assert_eq!(stats.hits, 1, "{stats:?}");
        assert_eq!(stats.evictions, 17, "{stats:?}");
    }

    #[test]
    fn evicted_entries_go_to_the_caller_and_still_compile() {
        let cache = ProgramCache::with_capacity(1);
        let mut evicted = Vec::new();
        let first = cache.program("1 + 1", &mut evicted);
        assert!(evicted.is_empty());
        cache.program("2 + 2", &mut evicted);
        assert_eq!(evicted.len(), 1);
        assert!(Arc::ptr_eq(&evicted[0], &first));
        // A job admitted before the eviction still compiles from its entry,
        // with no second front end.
        let artifact = cache.artifact(&first).unwrap();
        assert!(artifact.code_len() > 0);
        let stats = cache.stats();
        assert_eq!((stats.analyses, stats.misses, stats.evictions), (2, 1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hits_refresh_recency() {
        let cache = ProgramCache::with_capacity(2);
        cache.get_or_compile("1 + 1").unwrap();
        cache.get_or_compile("2 + 2").unwrap();
        // Touch the older entry, then insert a third: the *untouched*
        // entry is now least recently used and gets evicted.
        cache.get_or_compile("1 + 1").unwrap();
        cache.get_or_compile("3 + 3").unwrap();
        let before = cache.stats();
        cache.get_or_compile("1 + 1").unwrap(); // still resident → hit
        cache.get_or_compile("2 + 2").unwrap(); // evicted → recompile
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 1, "{after:?}");
        assert_eq!(after.misses, before.misses + 1, "{after:?}");
    }
}
