#include "compile/circuit_cache.h"

#include <bit>
#include <utility>

#include "store/scrub.h"
#include "util/check.h"
#include "util/fault.h"

namespace gmc {

CircuitCache::CircuitCache() { Configure(GmcOptions::FromEnv()); }

void CircuitCache::Configure(const GmcOptions& options) {
  std::lock_guard<std::mutex> lock(options_mu_);
  num_threads_.store(options.num_threads, std::memory_order_relaxed);
  order_.store(options.order, std::memory_order_relaxed);
  max_resident_bytes_.store(options.max_resident_bytes,
                            std::memory_order_relaxed);
  self_heal_.store(options.store_self_heal, std::memory_order_relaxed);
  write_through_.store(options.store_write_through,
                       std::memory_order_relaxed);
  if (options.store_directory != options_.store_directory) {
    std::shared_ptr<const store::CircuitStore> next =
        options.store_directory.empty()
            ? nullptr
            : std::make_shared<const store::CircuitStore>(
                  options.store_directory);
    std::lock_guard<std::mutex> store_lock(store_mu_);
    store_ = std::move(next);
  }
  options_ = options;
}

GmcOptions CircuitCache::options() const {
  std::lock_guard<std::mutex> lock(options_mu_);
  return options_;
}

std::string CircuitCache::store_directory() const {
  std::shared_ptr<const store::CircuitStore> s = store();
  return s != nullptr ? s->directory() : std::string();
}

std::shared_ptr<const store::CircuitStore> CircuitCache::store() const {
  std::lock_guard<std::mutex> lock(store_mu_);
  return store_;
}

size_t CircuitCache::SaveTo(const std::string& directory, std::string* error) {
  const store::CircuitStore target(directory);
  const OrderHeuristic order = order_.load(std::memory_order_relaxed);
  size_t saved = 0;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [cnf, entry] : stripe.circuits) {
      std::string save_error;
      if (target.Save(*entry.circuit, cnf, order, &save_error)) {
        ++saved;
      } else if (error != nullptr && error->empty()) {
        *error = save_error;
      }
    }
  }
  return saved;
}

size_t CircuitCache::WarmFrom(const std::string& directory) {
  const store::CircuitStore source(directory);
  size_t inserted = 0;
  for (const std::string& path : source.ListEntries()) {
    store::LoadedCircuit loaded;
    std::string load_error;
    if (!store::LoadCircuit(path, &loaded, &load_error)) {
      ++stats_.store_rejected;
      // Same self-heal as the read-through path: quarantine only what
      // re-validates as durably corrupt (an injected store.read failure
      // must not cost a healthy warm-start entry its place on disk).
      if (self_heal_.load(std::memory_order_relaxed) &&
          store::QuarantineIfCorrupt(path)) {
        ++stats_.store_quarantined;
      }
      continue;
    }
    Stripe& stripe = stripes_[StripeIndex(loaded.cnf)];
    std::lock_guard<std::mutex> lock(stripe.mu);
    // Keep an already-cached circuit: it may be pinned by an in-flight
    // evaluation, and evaluates identically anyway.
    Entry entry;
    entry.circuit =
        std::make_shared<const NnfCircuit>(std::move(loaded.circuit));
    entry.bytes = entry.circuit->MemoryBytes();
    entry.last_used = use_clock_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t bytes = entry.bytes;
    const bool fresh =
        stripe.circuits.try_emplace(loaded.cnf, std::move(entry)).second;
    if (fresh) {
      ++inserted;
      stats_.resident_bytes += bytes;
    }
  }
  // One sweep after the bulk load (protecting nothing: a warm scan has no
  // in-flight entry to shield) so warming a replica against a byte budget
  // ends within it rather than at the full store size.
  EvictIfOver(use_clock_.load(std::memory_order_relaxed));
  return inserted;
}

size_t CircuitCache::StripeIndex(const Cnf& cnf) const {
  // The stripe index uses the same 64-bit structural hash as the
  // per-stripe maps; taking the TOP bits keeps the two partitions
  // independent (the map buckets use the low bits). The shift tracks
  // kNumStripes so resizing the array keeps every stripe reachable.
  static_assert((kNumStripes & (kNumStripes - 1)) == 0,
                "stripe count must be a power of two");
  constexpr int kShift = 64 - std::bit_width(kNumStripes - 1);
  return CnfHash{}(cnf) >> kShift & (kNumStripes - 1);
}

uint64_t CircuitCache::Touch(Entry& entry) {
  ++stats_.hits;
  entry.last_used = use_clock_.fetch_add(1, std::memory_order_relaxed);
  return entry.last_used;
}

void CircuitCache::EvictIfOver(uint64_t keep_from) {
  const uint64_t max_bytes =
      max_resident_bytes_.load(std::memory_order_relaxed);
  if (max_bytes > 0 && stats_.resident_bytes > max_bytes) {
    MaybeEvict(max_bytes, keep_from);
  }
}

std::shared_ptr<const NnfCircuit> CircuitCache::GetShared(const Cnf& cnf) {
  return TryGetShared(cnf, CompileBudget{});
}

std::shared_ptr<const NnfCircuit> CircuitCache::TryGetShared(
    const Cnf& cnf, const CompileBudget& budget, const CancelToken* cancel,
    EntryHandle* entry) {
  const size_t index = StripeIndex(cnf);
  Stripe& stripe = stripes_[index];
  // Records where the returned circuit's entry lives (under the lock).
  if (entry != nullptr) *entry = EntryHandle();
  auto hand_out = [&](std::pair<const Cnf, Entry>& node) {
    if (entry == nullptr) return;
    entry->node_ = &node;
    entry->stripe_ = index;
    entry->drops_ = stripe.drops;
  };
  // The shared_ptr the caller takes home, and the clock reading the LRU
  // sweep must not evict (the just-inserted entry). Both escape the locked
  // scope: eviction runs after every lock is dropped.
  std::shared_ptr<const NnfCircuit> result;
  uint64_t keep_from = 0;
  // Inserts one freshly produced circuit (compiled or store-loaded) under
  // the stripe lock. The fault point models a lost insert — an allocator
  // or admission failure between compile and publish: the caller still
  // gets ITS circuit, the map just never learns about it and the next
  // lookup recompiles.
  auto publish = [&](NnfCircuit&& circuit) {
    stripe.failed.erase(cnf);
    result = std::make_shared<const NnfCircuit>(std::move(circuit));
    keep_from = use_clock_.fetch_add(1, std::memory_order_relaxed);
    if (fault::ShouldFail(fault::Point::kCacheInsert)) return;
    Entry fresh;
    fresh.circuit = result;
    fresh.bytes = result->MemoryBytes();
    fresh.last_used = keep_from;
    stats_.resident_bytes += fresh.bytes;
    hand_out(*stripe.circuits.emplace(cnf, std::move(fresh)).first);
  };
  {
    std::lock_guard<std::mutex> stripe_lock(stripe.mu);
    if (auto it = stripe.circuits.find(cnf); it != stripe.circuits.end()) {
      // A hit exits through the shared eviction tail below, not an early
      // return: under a byte budget, pure-hit traffic must also be able
      // to shrink an over-budget cache — eviction pressure cannot depend
      // on the next insert ever happening. The hit entry itself is
      // shielded by its fresh keep_from stamp.
      keep_from = Touch(it->second);
      result = it->second.circuit;
      hand_out(*it);
    }
    // Budget-exhaustion memo: a structure that already blew through an
    // equal-or-larger budget is not worth recompiling — fail fast so the
    // router's probe costs one hash lookup on repeat traffic. Only finite
    // budgets fail, and an unlimited one allows more than any of them.
    if (result == nullptr) {
      if (auto it = stripe.failed.find(cnf); it != stripe.failed.end()) {
        if (!budget.AllowsMoreThan(it->second)) {
          ++stats_.budget_exhausted;
          return nullptr;
        }
      }
    }
    // Read-through: an in-memory miss consults the persistent store (if one
    // is attached) before paying for compilation. A loaded circuit has been
    // checksum-, structure-, and fingerprint-validated AND clause-matched
    // against `cnf`, so it is exactly what the compiler would hand back.
    // Budgets never apply here: loading is linear in the stored circuit.
    // This is also what an EVICTED entry degrades to: a byte-budget drop of
    // a persisted circuit costs one load, never a recompile.
    const std::shared_ptr<const store::CircuitStore> persistent = store();
    if (result == nullptr && persistent != nullptr) {
      NnfCircuit loaded;
      std::string store_error;
      switch (persistent->TryLoad(cnf, &loaded, nullptr, &store_error)) {
        case store::StoreLookup::kLoaded:
          ++stats_.store_hits;
          publish(std::move(loaded));
          break;
        case store::StoreLookup::kMissing:
          ++stats_.store_misses;
          break;
        case store::StoreLookup::kRejected:
          ++stats_.store_rejected;
          // Self-heal: a durably corrupt file is quarantined NOW, so this
          // rejection is the last one it ever causes (the write-through
          // below re-fills the path with a fresh circuit). The probe
          // re-reads the bytes fault-point-free: a transient or injected
          // read failure never quarantines a healthy file.
          if (self_heal_.load(std::memory_order_relaxed) &&
              store::QuarantineIfCorrupt(persistent->PathFor(cnf))) {
            ++stats_.store_quarantined;
          }
          break;
        case store::StoreLookup::kMismatch:
          // A valid circuit for a DIFFERENT CNF (hash collision): counted
          // as a rejection, never quarantined — it may be someone else's
          // good entry.
          ++stats_.store_rejected;
          break;
      }
    }
    if (result == nullptr) {
      // Compile while holding the stripe lock: a second thread racing for
      // the SAME structure waits here instead of compiling twice, and
      // threads on other stripes only serialize on the compiler mutex
      // below (the compiler's sub-formula memo is shared state).
      const OrderHeuristic order = order_.load(std::memory_order_relaxed);
      std::optional<NnfCircuit> compiled;
      {
        std::lock_guard<std::mutex> compiler_lock(compiler_mu_);
        compiler_.set_order(order);
        const Compiler::Stats before = compiler_.stats();
        // An unlimited budget is exactly Compile, so it fails only when
        // `cancel` fires.
        compiled = compiler_.TryCompile(cnf, budget, cancel);
        if (!compiled.has_value()) {
          // A fired deadline is NOT a budget failure: it says nothing
          // about the instance, so no memo and no exhaustion tick — a
          // later unhurried probe must be free to compile.
          if (cancel != nullptr && cancel->cancelled()) return nullptr;
          // Remember the largest budget this structure has failed under.
          auto [it, fresh] = stripe.failed.try_emplace(cnf, budget);
          if (!fresh && budget.AllowsMoreThan(it->second)) {
            it->second = budget;
          }
          ++stats_.budget_exhausted;
          return nullptr;
        }
        ++stats_.compiles;
        const Compiler::Stats after = compiler_.stats();
        stats_.nodes_before_minimize +=
            after.minimize_nodes_before - before.minimize_nodes_before;
        stats_.nodes_after_minimize +=
            after.minimize_nodes_after - before.minimize_nodes_after;
      }
      // Edge accounting happens OUTSIDE the compiler mutex: the circuit is
      // a local, and compiler_mu_ serializes compiles across every stripe,
      // so the O(edges) ComputeStats walk must not lengthen that critical
      // section.
      if (order != OrderHeuristic::kDefault) {
        ++stats_.ordered_compiles;
        stats_.order_edges += compiled->ComputeStats().edges;
      }
      publish(std::move(*compiled));
      // Write-through AFTER the insert, from the caller's copy: a failed
      // save is a lost cache entry (the next cold process recompiles),
      // never a query failure, so the error is deliberately dropped.
      if (persistent != nullptr &&
          write_through_.load(std::memory_order_relaxed)) {
        std::string save_error;
        persistent->Save(*result, cnf, order, &save_error);
      }
    }
  }
  // LRU sweep outside every lock (it takes stripe locks itself). The
  // freshly published entry is shielded via keep_from; everything older is
  // fair game.
  EvictIfOver(keep_from);
  return result;
}

std::shared_ptr<const NnfCircuit> CircuitCache::Repin(
    const EntryHandle& entry, [[maybe_unused]] const Cnf* expect) {
  if (entry.empty()) return nullptr;
  Stripe& stripe = stripes_[entry.stripe_];
  std::shared_ptr<const NnfCircuit> result;
  uint64_t keep_from = 0;
  {
    std::lock_guard<std::mutex> stripe_lock(stripe.mu);
    if (stripe.drops != entry.drops_) return nullptr;
    GMC_DCHECK(expect == nullptr ||
               CnfClauseEq{}(entry.node_->first, *expect));
    keep_from = Touch(entry.node_->second);
    result = entry.node_->second.circuit;
  }
  EvictIfOver(keep_from);
  return result;
}

void CircuitCache::MaybeEvict(uint64_t max_bytes, uint64_t keep_from) {
  // Evict the globally least-recently-used entry, repeatedly, until the
  // footprint fits. Each round locks one stripe at a time (callers hold no
  // stripe lock), so a concurrent hit can bump last_used between the scan
  // and the erase — the re-check under the victim's lock keeps that race
  // harmless: worst case we evict the second-least-recent entry. Entries
  // stamped at or after keep_from are never touched, so the one circuit
  // the triggering caller just published survives its own sweep (a budget
  // smaller than a single circuit degrades to evict-on-next-insert, not to
  // thrash-on-every-lookup).
  const int kMaxRounds = 1024;  // paranoia bound, not a policy
  for (int round = 0; round < kMaxRounds; ++round) {
    if (stats_.resident_bytes <= max_bytes) return;
    size_t victim_stripe = kNumStripes;
    uint64_t victim_used = keep_from;
    Cnf victim_key;
    for (size_t s = 0; s < kNumStripes; ++s) {
      std::lock_guard<std::mutex> lock(stripes_[s].mu);
      for (const auto& [cnf, entry] : stripes_[s].circuits) {
        if (entry.last_used < victim_used) {
          victim_used = entry.last_used;
          victim_stripe = s;
          victim_key = cnf;
        }
      }
    }
    if (victim_stripe == kNumStripes) return;  // nothing evictable remains
    Stripe& stripe = stripes_[victim_stripe];
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.circuits.find(victim_key);
    if (it == stripe.circuits.end()) continue;  // raced with Clear
    if (it->second.last_used >= keep_from) continue;  // hit since the scan
    stats_.resident_bytes -= it->second.bytes;
    ++stats_.evictions;
    ++stripe.drops;
    // The erase drops the map's reference; an in-flight evaluation that
    // pinned via GetShared keeps the circuit alive until it finishes.
    stripe.circuits.erase(it);
  }
}

std::vector<Rational> CircuitCache::EvaluatePinned(const NnfCircuit& circuit,
                                                   const WeightMatrix& weights,
                                                   const CancelToken* cancel) {
  ++stats_.batch_passes;
  stats_.batched_vectors += weights.num_vectors();
  // Interpolation sweeps and GFOMC instances have power-of-two weight
  // denominators throughout, so the dyadic kernel's fold routes them to the
  // gcd-free pass; any other batch it hands to the Rational walk. Both
  // return identical reduced Rationals, so callers never see which ran.
  DyadicBatchStats routes;
  std::vector<Rational> result = circuit.EvaluateBatchDyadic(
      weights, num_threads_.load(std::memory_order_relaxed), &routes, cancel);
  if (routes.rational_vectors == 0) {
    ++stats_.dyadic_batches;
    stats_.dyadic_vectors += weights.num_vectors();
  }
  stats_.fixed64_vectors += routes.fixed64_vectors;
  stats_.fixed128_vectors += routes.fixed128_vectors;
  stats_.bigint_vectors += routes.bigint_vectors;
  return result;
}

Compiler::Stats CircuitCache::compiler_stats() const {
  std::lock_guard<std::mutex> lock(compiler_mu_);
  return compiler_.stats();
}

size_t CircuitCache::size() const {
  size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    total += stripe.circuits.size();
  }
  return total;
}

void CircuitCache::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [cnf, entry] : stripe.circuits) {
      stats_.resident_bytes -= entry.bytes;
    }
    stripe.drops += stripe.circuits.size();
    stripe.circuits.clear();
    stripe.failed.clear();
  }
}

}  // namespace gmc
