// Compile-once / evaluate-many front end over the d-DNNF compiler.
//
// Circuits are cached by the lineage CNF (hashed with Cnf::Hash64,
// compared exactly on the clause lists), so any caller that probes the
// same grounded structure at different tuple-probability settings — the
// Type I interpolation sweep, the Type II Möbius inversion's per-block
// queries, a zig-zag cross-check — pays for compilation once and a linear
// circuit pass per evaluation thereafter. Note the key is the CNF alone,
// not the weights: that is the whole point.
//
// Thread safety: the cache is safe to share across threads. The memo is
// partitioned into hash stripes, each guarded by its own mutex, so lookups
// for different structures rarely contend; circuits are held by unique_ptr,
// so a returned reference stays valid across concurrent insertions (only
// Clear invalidates, and Clear must not race in-flight evaluations).
// Compilation of a new structure holds its stripe's lock (a second thread
// asking for the same CNF blocks instead of compiling twice) plus the
// compiler mutex (the compiler's sub-formula memo is shared state).
// Stats counters are atomics; stats() returns a coherent-enough snapshot
// for monitoring (counters are incremented independently).

#ifndef GMC_COMPILE_CIRCUIT_CACHE_H_
#define GMC_COMPILE_CIRCUIT_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "compile/compiler.h"
#include "compile/gmc_options.h"
#include "compile/nnf.h"
#include "compile/vtree.h"
#include "lineage/grounder.h"
#include "logic/query.h"
#include "prob/tid.h"
#include "store/circuit_store.h"
#include "util/rational.h"

namespace gmc {

/// The weight rows of lineages[members[0]], lineages[members[1]], ... as
/// one batch (row m of the result is member m) — the input of one grouped
/// pass over the circuit the members' shared structure compiles to.
WeightMatrix StackWeights(const std::vector<Lineage>& lineages,
                          const std::vector<size_t>& members);

/// Thread-safe compile-once / evaluate-many circuit store. All evaluation
/// entry points are exact (results are canonical reduced Rationals,
/// bit-identical across the dyadic/Rational routing, every order
/// heuristic, and every thread count); ownership of every compiled
/// circuit stays with the cache — references returned by Get are valid
/// until Clear() or destruction.
class CircuitCache {
 public:
  /// Monitoring counters, all cumulative. Snapshot semantics: see stats().
  struct Stats {
    uint64_t compiles = 0;
    uint64_t hits = 0;
    uint64_t batch_passes = 0;      ///< batched passes issued (either path)
    uint64_t batched_vectors = 0;   ///< weight vectors served by those passes
    /// Dyadic routing: batches whose weights all had power-of-two
    /// denominators and therefore took EvaluateBatchDyadic instead of the
    /// Rational EvaluateBatch (see nnf.h; results are bit-identical).
    uint64_t dyadic_batches = 0;
    uint64_t dyadic_vectors = 0;
    /// Width routing inside the dyadic path (see nnf_fixed.cc): vectors
    /// served by the uint64 / UInt128 fixed-width kernels vs the BigInt
    /// Dyadic arena. fixed64 + fixed128 + bigint == dyadic_vectors.
    uint64_t fixed64_vectors = 0;
    uint64_t fixed128_vectors = 0;
    uint64_t bigint_vectors = 0;
    /// Sweep-and-merge payoff across all compiles (mirrors the compiler's
    /// minimize_nodes_before/after, surfaced here because this cache is
    /// the front end repeated-query traffic goes through).
    uint64_t nodes_before_minimize = 0;
    uint64_t nodes_after_minimize = 0;
    /// Vtree-order accounting: compiles that ran under a non-default
    /// OrderHeuristic, and the total edges (after minimization) of the
    /// circuits they produced.
    uint64_t ordered_compiles = 0;
    uint64_t order_edges = 0;
    /// Persistent-store traffic (zero unless a store is attached — the
    /// GMC_STORE knob or GmcOptions::store_directory). A store hit replaces
    /// a compile entirely; a rejected entry means a file was present but
    /// unusable (corrupt, version skew, or a CNF mismatch behind a hash
    /// collision) and the structure was recompiled. store_hits +
    /// store_misses + store_rejected == the compulsory in-memory misses
    /// that consulted the store.
    uint64_t store_hits = 0;
    uint64_t store_misses = 0;
    uint64_t store_rejected = 0;
    /// Self-healing (store_self_heal, the default): rejected entries whose
    /// bytes re-validated as durably corrupt and were moved into the
    /// store's quarantine/ subdirectory (store/scrub.h) — each such file
    /// costs ONE recompile total instead of one per cold process forever.
    /// Valid-but-mismatched files (hash collisions) count store_rejected
    /// but are never quarantined.
    uint64_t store_quarantined = 0;
    /// TryGet probes that came back empty: the compile hit its
    /// CompileBudget (or a memoized earlier failure under an
    /// equal-or-larger budget short-circuited it) and the caller was sent
    /// to the anytime tier.
    uint64_t budget_exhausted = 0;
    /// Memory governance (zero unless max_resident_bytes is set): entries
    /// dropped by the LRU sweep, and the current byte footprint of the
    /// cached circuits (a gauge, not cumulative — NnfCircuit::MemoryBytes
    /// per entry). In-flight evaluations pin evicted circuits alive via
    /// shared_ptr, so resident_bytes tracks what the CACHE retains, not
    /// total process memory.
    uint64_t evictions = 0;
    uint64_t resident_bytes = 0;
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

  /// The compiled circuit for `cnf`, compiling on first sight. The
  /// reference stays valid until Clear() or destruction (concurrent Get
  /// calls never move existing circuits) — PROVIDED eviction is off
  /// (max_resident_bytes == 0, the default). With a byte budget set, an
  /// entry can be evicted while a bare reference is outstanding; eviction-
  /// aware callers must use GetShared, which pins the circuit.
  const NnfCircuit& Get(const Cnf& cnf);

  /// Pinning Get: the returned shared_ptr keeps the circuit alive across
  /// any concurrent eviction or Clear — THE lookup for callers running
  /// under max_resident_bytes. `cancel`, if non-null, is threaded into the
  /// compile; a fired token abandons the compile and returns nullptr
  /// WITHOUT caching the partial circuit or memoizing a failure (a
  /// deadline says nothing about the instance — see compiler.h). This is
  /// the only way GetShared returns null.
  std::shared_ptr<const NnfCircuit> GetShared(
      const Cnf& cnf, const CancelToken* cancel = nullptr);

  /// Budgeted Get — the routing probe of the anytime tier. Returns the
  /// circuit if `cnf` is already cached (in memory or in the attached
  /// store; budgets never apply to lookups) or compiles inside `budget`;
  /// nullptr once the compile exhausts it (Stats::budget_exhausted ticks
  /// and the failure is memoized per budget, so re-probing the same
  /// structure only recompiles when offered a strictly larger budget —
  /// see CompileBudget::AllowsMoreThan). An unlimited budget is exactly
  /// Get. Pointer lifetime matches Get's reference (same eviction caveat).
  const NnfCircuit* TryGet(const Cnf& cnf, const CompileBudget& budget);

  /// Pinning TryGet: TryGet's routing semantics with GetShared's lifetime
  /// and cancellation. Null means EITHER budget exhaustion (memoized,
  /// Stats::budget_exhausted ticks) or a fired `cancel` (not memoized, no
  /// stat) — callers under a deadline check cancel->cancelled() to tell
  /// the two apart.
  std::shared_ptr<const NnfCircuit> TryGetShared(
      const Cnf& cnf, const CompileBudget& budget,
      const CancelToken* cancel = nullptr);

  /// One circuit evaluation; compiles on the first call per CNF structure.
  Rational Probability(const Cnf& cnf,
                       const std::vector<Rational>& probabilities);
  Rational Probability(const Lineage& lineage);
  /// Grounds and evaluates: Pr_∆(Q) through the compiled path.
  Rational QueryProbability(const Query& query, const Tid& tid);

  /// Batched evaluate-many: all K weight vectors of one CNF structure in a
  /// single topological circuit pass (NnfCircuit::EvaluateBatch) instead
  /// of K independent walks. The pass itself is column-parallel (see
  /// nnf.h); GmcOptions::num_threads bounds the workers it may use.
  /// `cancel`, if non-null, covers both the compile and the batch pass; a
  /// fired token makes the RESULT meaningless (well-formed sizes, garbage
  /// values) — the caller owns the cancelled() check-and-discard, exactly
  /// as with NnfCircuit::EvaluateBatch.
  std::vector<Rational> ProbabilityBatch(const Cnf& cnf,
                                         const WeightMatrix& weights,
                                         const CancelToken* cancel = nullptr);
  /// Numeric routing for one exact pass over a circuit the caller already
  /// pinned (GetShared / TryGetShared): the dyadic walk (fixed64, fixed128
  /// or BigInt kernels, see nnf_fixed.cc) when every weight has a
  /// power-of-two denominator, the Rational walk otherwise —
  /// identical reduced Rationals either way. Counts the pass and its
  /// routing; never a lookup, so hits/compiles stay the probe's business.
  /// `cancel` has EvaluateBatch's contract: the caller checks and discards.
  std::vector<Rational> EvaluatePinned(const NnfCircuit& circuit,
                                       const WeightMatrix& weights,
                                       const CancelToken* cancel = nullptr);
  /// Mixed-structure form: groups the lineages by CNF structure, compiles
  /// each distinct structure once, and serves every group with one batch
  /// pass over that group's weight vectors. Results come back in input
  /// order, so callers need not know (or care) how the grouping fell out —
  /// gadget sweeps whose grounding folds different certain tuples per
  /// setting still batch within each surviving structure.
  std::vector<Rational> ProbabilityBatch(const std::vector<Lineage>& lineages);

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
  /// with Get traffic — warm a replica while it serves.
  size_t WarmFrom(const std::string& directory);

  /// Snapshot of the atomic counters (not a reference: counters move under
  /// concurrent traffic).
  Stats stats() const;
  Compiler::Stats compiler_stats() const;
  size_t size() const;
  /// Drops every cached circuit. NOT safe to call while other threads hold
  /// references from Get or are mid-evaluation.
  void Clear();

 private:
  // Hash stripes: 16 is plenty — contention is per distinct structure, and
  // callers batch per structure.
  static constexpr size_t kNumStripes = 16;
  // One cached circuit plus its eviction bookkeeping. shared_ptr (not
  // unique_ptr) so eviction can drop the map entry while in-flight
  // evaluations that pinned via GetShared keep the circuit alive; `bytes`
  // is the MemoryBytes() the entry charged against resident_bytes_, and
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
    // Budget-exhaustion memo: the largest budget each structure has failed
    // under. TryGet consults it to skip recompiling a known blow-up unless
    // the caller offers strictly more on some axis. Cleared by Clear().
    std::unordered_map<Cnf, CompileBudget, CnfHash, CnfClauseEq> failed;
  };
  struct AtomicStats {
    std::atomic<uint64_t> compiles{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> batch_passes{0};
    std::atomic<uint64_t> batched_vectors{0};
    std::atomic<uint64_t> dyadic_batches{0};
    std::atomic<uint64_t> dyadic_vectors{0};
    std::atomic<uint64_t> fixed64_vectors{0};
    std::atomic<uint64_t> fixed128_vectors{0};
    std::atomic<uint64_t> bigint_vectors{0};
    std::atomic<uint64_t> nodes_before_minimize{0};
    std::atomic<uint64_t> nodes_after_minimize{0};
    std::atomic<uint64_t> ordered_compiles{0};
    std::atomic<uint64_t> order_edges{0};
    std::atomic<uint64_t> store_hits{0};
    std::atomic<uint64_t> store_misses{0};
    std::atomic<uint64_t> store_rejected{0};
    std::atomic<uint64_t> store_quarantined{0};
    std::atomic<uint64_t> budget_exhausted{0};
    std::atomic<uint64_t> evictions{0};
  };

  Stripe& StripeFor(const Cnf& cnf);
  // Shared body of every lookup. Null iff the budget was spent (memoized)
  // or `cancel` fired (not memoized).
  std::shared_ptr<const NnfCircuit> GetOrCompile(const Cnf& cnf,
                                                 const CompileBudget* budget,
                                                 const CancelToken* cancel);
  // LRU sweep: drops globally least-recently-used entries until
  // resident_bytes_ fits `max_bytes`, never touching entries used at or
  // after `keep_from` (the just-inserted entry's clock reading — evicting
  // it immediately would thrash). Takes stripe locks one at a time;
  // callers must hold NONE.
  void MaybeEvict(uint64_t max_bytes, uint64_t keep_from);
  // The attached store (shared_ptr so in-flight Gets survive a concurrent
  // re-Configure), or nullptr.
  std::shared_ptr<const store::CircuitStore> store() const;

  mutable std::mutex compiler_mu_;  // guards compiler_ (shared memo + stats)
  Compiler compiler_;
  std::array<Stripe, kNumStripes> stripes_;
  AtomicStats stats_;
  mutable std::mutex store_mu_;  // guards store_ (the pointer, not the store)
  std::shared_ptr<const store::CircuitStore> store_;
  std::atomic<bool> write_through_{true};
  std::atomic<bool> self_heal_{true};
  // Memory governance: byte cap (0 = unlimited), current footprint, and
  // the monotone use-clock every hit/insert stamps entries with.
  std::atomic<uint64_t> max_resident_bytes_{0};
  std::atomic<uint64_t> resident_bytes_{0};
  std::atomic<uint64_t> use_clock_{0};
  // Circuits whose cache insertion was suppressed by fault injection
  // (fault::Point::kCacheInsert) are parked here so legacy Get references
  // honor their valid-until-Clear contract even when the map never held
  // the entry. Empty in production (no faults configured).
  mutable std::mutex pinned_mu_;
  std::vector<std::shared_ptr<const NnfCircuit>> pinned_;
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
