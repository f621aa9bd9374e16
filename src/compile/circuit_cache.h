// Compile-once / evaluate-many store over the d-DNNF compiler.
//
// Circuits are cached by the lineage CNF (hashed with Cnf::Hash64,
// compared exactly on the clause lists), so a caller that probes the same
// grounded structure at different tuple-probability settings pays for
// compilation once and a linear circuit pass per evaluation thereafter.
// Note the key is the CNF alone, not the weights: that is the whole point.
// The cache only looks up, compiles and runs a pass over a pinned
// circuit; grounding, grouping by structure and batching belong to its
// caller, GfomcSession (core/dichotomy.h).
//
// Thread safety: the cache is safe to share across threads. The memo is
// partitioned into hash stripes, each guarded by its own mutex, so lookups
// for different structures rarely contend; circuits are held by
// shared_ptr, and every lookup hands its caller a pin, so a circuit in use
// survives any concurrent eviction or Clear. Compilation of a new
// structure holds its stripe's lock (a second thread asking for the same
// CNF blocks instead of compiling twice) plus the compiler mutex (the
// compiler's sub-formula memo is shared state). The Stats counters are
// RelaxedCounters (util/relaxed_counter.h): stats() is a lock-free copy,
// each field read independently.

#ifndef GMC_COMPILE_CIRCUIT_CACHE_H_
#define GMC_COMPILE_CIRCUIT_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "compile/compiler.h"
#include "compile/gmc_options.h"
#include "compile/nnf.h"
#include "compile/vtree.h"
#include "store/circuit_store.h"
#include "util/rational.h"
#include "util/relaxed_counter.h"

namespace gmc {

/// Thread-safe compile-once / evaluate-many circuit store. EvaluatePinned
/// is exact (results are canonical reduced Rationals, bit-identical across
/// the dyadic/Rational routing, every order heuristic, and every thread
/// count); a lookup returns a shared_ptr that keeps its circuit alive for
/// as long as the caller holds it.
class CircuitCache {
 private:
  struct Entry;

 public:
  /// Monitoring counters, all cumulative except the resident_bytes gauge.
  /// The cache updates this struct in place; stats() copies it.
  struct Stats {
    /// Lookups (GetShared / TryGetShared / Repin): structures compiled,
    /// and lookups a resident circuit answered. A pass never counts here,
    /// so hits is not a count of evaluated vectors.
    RelaxedCounter compiles;
    RelaxedCounter hits;
    RelaxedCounter batch_passes;     ///< EvaluatePinned passes
    RelaxedCounter batched_vectors;  ///< weight vectors those passes served
    /// Dyadic routing: batches the dyadic kernel served because every
    /// weight its fold read (the columns of the circuit's variables) had a
    /// power-of-two denominator; the rest took the Rational walk (see
    /// nnf.h; results are bit-identical).
    RelaxedCounter dyadic_batches;
    RelaxedCounter dyadic_vectors;
    /// Width routing inside the dyadic path (see nnf_fixed.cc): vectors
    /// served at uint64 / UInt128 / BigInt mantissa width.
    /// fixed64 + fixed128 + bigint == dyadic_vectors.
    RelaxedCounter fixed64_vectors;
    RelaxedCounter fixed128_vectors;
    RelaxedCounter bigint_vectors;
    /// Sweep-and-merge payoff across all compiles (mirrors the compiler's
    /// minimize_nodes_before/after, surfaced here because this cache is
    /// the front end repeated-query traffic goes through).
    RelaxedCounter nodes_before_minimize;
    RelaxedCounter nodes_after_minimize;
    /// Vtree-order accounting: compiles that ran under a non-default
    /// OrderHeuristic, and the total edges (after minimization) of the
    /// circuits they produced.
    RelaxedCounter ordered_compiles;
    RelaxedCounter order_edges;
    /// Persistent-store traffic (zero unless a store is attached — the
    /// GMC_STORE knob or GmcOptions::store_directory). A store hit replaces
    /// a compile entirely; a rejected entry means a file was present but
    /// unusable (corrupt, version skew, or a CNF mismatch behind a hash
    /// collision) and the structure was recompiled. store_hits +
    /// store_misses + store_rejected == the compulsory in-memory misses
    /// that consulted the store.
    RelaxedCounter store_hits;
    RelaxedCounter store_misses;
    RelaxedCounter store_rejected;
    /// Self-healing (store_self_heal, the default): rejected entries whose
    /// bytes re-validated as durably corrupt and were moved into the
    /// store's quarantine/ subdirectory (store/scrub.h) — each such file
    /// costs ONE recompile total instead of one per cold process forever.
    /// Valid-but-mismatched files (hash collisions) count store_rejected
    /// but are never quarantined.
    RelaxedCounter store_quarantined;
    /// TryGetShared probes that came back empty: the compile hit its
    /// CompileBudget (or a memoized earlier failure under an
    /// equal-or-larger budget short-circuited it) and the caller was sent
    /// to the anytime tier.
    RelaxedCounter budget_exhausted;
    /// Memory governance (zero unless max_resident_bytes is set): entries
    /// dropped by the LRU sweep, and the current byte footprint of the
    /// cached circuits (a gauge, not cumulative — NnfCircuit::MemoryBytes
    /// per entry: the object plus 16 bytes per node record and 4 per
    /// child-pool entry, which is all a resident circuit holds). In-flight
    /// evaluations pin evicted circuits alive via shared_ptr, so
    /// resident_bytes tracks what the CACHE retains, not total process
    /// memory.
    RelaxedCounter evictions;
    RelaxedCounter resident_bytes;
  };

  /// Where a lookup left a resident entry: Repin pins that entry again
  /// without hashing or comparing a Cnf. A handle expires once the cache
  /// drops its entry (an eviction or Clear). Expiry is tracked per hash
  /// stripe, so dropping any entry of the same stripe expires it too; an
  /// expired handle costs its holder one ordinary lookup. Plain data:
  /// copying a handle takes no lock and keeps nothing alive.
  class EntryHandle {
   public:
    /// True when no entry was found or published (a lost insert, a null
    /// lookup): such a handle never re-pins.
    bool empty() const { return node_ == nullptr; }

   private:
    friend class CircuitCache;
    std::pair<const Cnf, Entry>* node_ = nullptr;
    size_t stripe_ = 0;
    uint64_t drops_ = 0;  // the stripe's drop count when the handle was set
  };

  /// A fresh cache adopts the environment defaults — one
  /// Configure(GmcOptions::FromEnv()): the GMC_ORDER heuristic and, when
  /// GMC_STORE names a directory, a persistent circuit store attached
  /// read-through + write-through at that path.
  CircuitCache();

  /// Applies every option this cache understands (num_threads, order,
  /// store_directory, store_write_through, store_self_heal,
  /// max_resident_bytes; the session-level routing fields are ignored) in
  /// one atomic step. A new order shapes only circuits compiled from now
  /// on (the cache key is the CNF alone; Clear() first for a clean A/B).
  /// The store is re-attached only when its directory changes, and
  /// in-flight Gets finish against the store they started with; a failed
  /// write-through is a lost cache entry, never a query failure. Results
  /// are bit-identical under every setting (store loads re-verify by
  /// exact clause comparison and fingerprint). Thread-safe.
  void Configure(const GmcOptions& options);
  /// Snapshot of the options currently in force (tweak-one-field-and-
  /// re-Configure is the intended update idiom).
  GmcOptions options() const;

  /// The compiled circuit for `cnf`, compiling on first sight; never
  /// null. The returned shared_ptr keeps the circuit alive across any
  /// concurrent eviction or Clear.
  std::shared_ptr<const NnfCircuit> GetShared(const Cnf& cnf);

  /// Budgeted GetShared — the routing probe of the anytime tier. Returns
  /// the circuit if `cnf` is already cached (in memory or in the attached
  /// store; budgets never apply to lookups) or compiles inside `budget`;
  /// nullptr once the compile exhausts it (Stats::budget_exhausted ticks
  /// and the failure is memoized per budget, so re-probing the same
  /// structure only recompiles when offered a strictly larger budget —
  /// see CompileBudget::AllowsMoreThan) or once `cancel` fires (not
  /// memoized, no stat) — callers under a deadline check
  /// cancel->cancelled() to tell the two apart. An unlimited budget fails
  /// only when `cancel` fires, and is otherwise exactly GetShared. When
  /// `entry` is given it is set to the handle of the entry that holds the
  /// returned circuit, and left empty when none does.
  std::shared_ptr<const NnfCircuit> TryGetShared(
      const Cnf& cnf, const CompileBudget& budget,
      const CancelToken* cancel = nullptr, EntryHandle* entry = nullptr);

  /// The circuit of `entry`'s entry, pinned exactly as a TryGetShared hit
  /// on its Cnf pins it: the hit is counted, the LRU clock stamped and the
  /// eviction sweep run. No Cnf is hashed or compared. nullptr when the
  /// handle is empty or has expired; the caller then looks its Cnf up.
  /// `expect`, when given, is that Cnf: builds with assertions check that
  /// it equals the entry's key, so the pinned circuit is the one a lookup
  /// would return.
  std::shared_ptr<const NnfCircuit> Repin(const EntryHandle& entry,
                                          const Cnf* expect = nullptr);

  /// One exact pass over a circuit the caller already pinned (GetShared /
  /// TryGetShared): EvaluateBatchDyadic, whose fold picks the route — the
  /// fixed64, fixed128 or BigInt kernel (see nnf_fixed.cc) when every
  /// weight of the circuit's variables has a power-of-two denominator, the
  /// Rational walk otherwise — identical reduced Rationals either way.
  /// Counts the pass and its routing; never a lookup, so hits/compiles stay
  /// the probe's business. `cancel` has EvaluateBatch's contract: the
  /// caller checks and discards.
  std::vector<Rational> EvaluatePinned(const NnfCircuit& circuit,
                                       const WeightMatrix& weights,
                                       const CancelToken* cancel = nullptr);
  /// The Shannon-order heuristic in force (the order SaveTo stamps into
  /// persisted circuits).
  OrderHeuristic order() const {
    return order_.load(std::memory_order_relaxed);
  }

  /// The attached store's directory, or "" when none is attached.
  std::string store_directory() const;

  /// Persists every currently cached circuit into `directory` (which need
  /// not be the attached store — flushing a read-only cache to a fresh
  /// snapshot directory is the replica-priming recipe of docs/SERVING.md).
  /// Returns the number saved; on I/O failure sets *error to the first
  /// failure and keeps going.
  size_t SaveTo(const std::string& directory, std::string* error = nullptr);

  /// Bulk-loads every valid .gmcc entry under `directory` into the
  /// in-memory cache (structures already cached keep their circuit).
  /// Invalid files count into Stats::store_rejected and are skipped.
  /// Returns the number of circuits inserted. Safe to run concurrently
  /// with lookup traffic — warm a replica while it serves.
  size_t WarmFrom(const std::string& directory);

  /// A copy of the live counters; takes no lock.
  Stats stats() const { return stats_; }
  Compiler::Stats compiler_stats() const;
  size_t size() const;
  /// Drops every cached circuit and budget-failure memo. Circuits that
  /// callers still pin stay alive with them.
  void Clear();

 private:
  // Hash stripes: 16 is plenty — contention is per distinct structure, and
  // callers batch per structure.
  static constexpr size_t kNumStripes = 16;
  // One cached circuit plus its eviction bookkeeping. shared_ptr (not
  // unique_ptr) so eviction can drop the map entry while in-flight
  // evaluations that pinned the circuit keep it alive; `bytes` is the
  // MemoryBytes() the entry charged against stats_.resident_bytes, and
  // `last_used` is a global use-clock reading (updated under the stripe
  // lock on every hit) that the LRU sweep compares across stripes.
  struct Entry {
    std::shared_ptr<const NnfCircuit> circuit;
    uint64_t bytes = 0;
    uint64_t last_used = 0;
  };
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<Cnf, Entry, CnfHash, CnfClauseEq> circuits;
    // Entries this stripe has dropped (evictions, Clear). A node outlives
    // every insert, so an EntryHandle whose count still matches points at
    // a live node.
    uint64_t drops = 0;
    // Budget-exhaustion memo: the largest budget each structure has failed
    // under. TryGetShared consults it to skip recompiling a known blow-up
    // unless the caller offers strictly more on some axis. Cleared by
    // Clear().
    std::unordered_map<Cnf, CompileBudget, CnfHash, CnfClauseEq> failed;
  };
  size_t StripeIndex(const Cnf& cnf) const;
  // A lookup's hit on a resident entry, under its stripe's lock: counts
  // it and stamps the entry with a fresh clock reading, which it returns
  // for the eviction tail to spare.
  uint64_t Touch(Entry& entry);
  // Every lookup's exit, outside every lock: the LRU sweep when the cache
  // is over its byte budget, sparing entries stamped at or after
  // `keep_from`.
  void EvictIfOver(uint64_t keep_from);
  // LRU sweep: drops globally least-recently-used entries until
  // stats_.resident_bytes fits `max_bytes`, never touching entries used at
  // or after `keep_from` (the just-inserted entry's clock reading —
  // evicting it immediately would thrash). Takes stripe locks one at a
  // time; callers must hold NONE.
  void MaybeEvict(uint64_t max_bytes, uint64_t keep_from);
  // The attached store (shared_ptr so in-flight lookups survive a
  // concurrent re-Configure), or nullptr.
  std::shared_ptr<const store::CircuitStore> store() const;

  mutable std::mutex compiler_mu_;  // guards compiler_ (shared memo + stats)
  Compiler compiler_;
  std::array<Stripe, kNumStripes> stripes_;
  Stats stats_;
  mutable std::mutex store_mu_;  // guards store_ (the pointer, not the store)
  std::shared_ptr<const store::CircuitStore> store_;
  std::atomic<bool> write_through_{true};
  std::atomic<bool> self_heal_{true};
  // Memory governance: byte cap (0 = unlimited; the current footprint is
  // stats_.resident_bytes) and the monotone use-clock every hit/insert
  // stamps entries with.
  std::atomic<uint64_t> max_resident_bytes_{0};
  std::atomic<uint64_t> use_clock_{0};
  std::atomic<int> num_threads_{0};
  std::atomic<OrderHeuristic> order_{OrderHeuristic::kDefault};
  // The options last Configured, for options() snapshots and store change
  // detection. The hot paths never touch this — they read the atomics
  // above, which Configure keeps in sync.
  mutable std::mutex options_mu_;
  GmcOptions options_;
};

}  // namespace gmc

#endif  // GMC_COMPILE_CIRCUIT_CACHE_H_
