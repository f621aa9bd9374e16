// Lineage computation: grounding a ∀CNF query over a TID into monotone CNF.
//
// Implements Φ_∆(Q) from §2 (footnote 4). Tuples with probability exactly 1
// or 0 are folded away during grounding (true/false constants), so lineage
// variables are exactly the "uncertain" tuples — this is what makes the
// paper's gadget databases, whose bulk has probability 1, tractable.
//
// Type II clauses ∀b(∨_ℓ ∀i D_ℓ(b,i)) are disjunctions of conjunctions after
// grounding; they are converted to CNF by distribution (the blow-up is
// |Dom|^m for m subclauses, polynomial for fixed queries, per §C.4).
//
// Grounding templates. Folding looks at nothing but whether a tuple is 0, 1
// or uncertain, so a lineage's clauses, its variable numbering and is_false
// are fixed by the query, the domain sides and the support pattern (the
// class of every ground tuple of the query's symbols); the weights only fill
// `probabilities`. GroundingTemplates keeps, per pattern seen, the structure
// Ground produced, and builds the Lineage of a repeat from it and the TID's
// weights: no distribution step, no RemoveSubsumed, no per-variable map.
// The key is exact: the query's clause list (Clause::operator==), the
// domain sides, and the pattern at 2 bits per tuple, in slot order; a
// 64-bit hash only picks the bucket. A template is one flat uint16 array,
// and the table is bounded by a constant byte cap (kMaxBytes).
//
// Bindings. The template fixes the lineage, so it also fixes what the
// owner derives from the lineage's structure alone. The owner may attach
// one opaque TemplateBinding to a template (GfomcSession: the handle of the
// cache entry holding the circuit its Cnf compiled to); a later hit then
// hands back the binding and the instance's weights in variable order,
// without building the Lineage. The table only stores a binding: it never
// reads one, and it drops one with its template.

#ifndef GMC_LINEAGE_GROUNDER_H_
#define GMC_LINEAGE_GROUNDER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lineage/boolean_formula.h"
#include "logic/query.h"
#include "prob/tid.h"

namespace gmc {

// A grounded query: CNF over lineage variables plus their tuple identities
// and probabilities.
struct Lineage {
  Cnf cnf;
  std::vector<TupleKey> variables;      // var id -> tuple
  std::vector<Rational> probabilities;  // var id -> probability in (0, 1)
  // True if some ground clause is unsatisfiable (so Pr(Q) = 0).
  bool is_false = false;

  // Lineage variable of a tuple, or -1 if the tuple was folded away (a scan
  // of `variables`).
  int VarOf(const TupleKey& key) const;
};

// Incremental lineage builder; lets callers ground a query plus extra
// clauses pinned to particular constants (needed by the Type II machinery,
// which grounds G_α(u) at a single u — Eq. (53)).
class Grounder {
 public:
  explicit Grounder(const Tid* tid);

  // Grounds ∀b clause(b) over all base constants, or only at `only_base`.
  void AddClause(const Clause& clause,
                 std::optional<ConstantId> only_base = std::nullopt);
  void AddQuery(const Query& query);

  // Finalizes: optionally removes subsumed clauses (canonical minimal CNF).
  Lineage Take(bool minimize = true);

 private:
  // Grounds one (clause, base constant) pair into zero or more CNF clauses.
  void GroundAt(const Clause& clause, ConstantId base);
  int VarFor(const TupleKey& key, const Rational& p);

  const Tid* tid_;
  Lineage lineage_;
  std::unordered_map<TupleKey, int, TupleKeyHash> var_ids_;  // tuple -> var
};

// One-shot convenience: the lineage Φ_∆(Q).
Lineage Ground(const Query& query, const Tid& tid, bool minimize = true);

// What a template's owner attaches to it (see the header comment).
using TemplateBinding = std::shared_ptr<const void>;

// A session's grounding templates (see the header comment): Ground once per
// (query, domain sides, support pattern). Not thread-safe: the owner
// serializes calls.
class GroundingTemplates {
 private:
  struct Template;

 public:
  // The byte cap on templates plus query records, each charged its arrays
  // and about 64 B of bookkeeping, and each template 64 B more for a
  // binding. An insert that would pass it first resets the whole table:
  // the price is one Ground per pattern afterwards, never a wrong lineage.
  // A C9 3×3 template takes about 0.6 KiB; the 1,600 H1 4×4 patterns of
  // e2ebench's hot pool about 0.33 MiB.
  static constexpr size_t kMaxBytes = size_t{4} << 20;

  // IsSafe(query), analysed once per query record — the dichotomy verdict
  // the record keeps next to its templates.
  bool IsSafe(const Query& query);

  // Names a stored template for a later Bind. It stays good until the
  // table next drops or replaces any template (a reset, or a pattern-hash
  // replacement); Bind ignores it after that.
  class TemplateRef {
   private:
    friend class GroundingTemplates;
    Template* entry_ = nullptr;
    uint64_t generation_ = 0;
  };

  // What Find saw of one instance.
  struct Sight {
    bool hit = false;  // a stored template matched, as Ground's *hit
    // On a bound hit, the matched template's binding; valid until the
    // table's next call. Find then built no lineage: it appended the
    // instance's weight of each lineage variable, in id order, to its
    // `weights` (pointers into the Tid).
    const TemplateBinding* binding = nullptr;
    int num_vars = 0;  // the lineage's variable count, on a bound hit
    // The matched or stored template; names none when nothing was stored.
    TemplateRef ref;
  };

  // Φ_∆(Q), equal field for field to Ground(query, tid); a FALSE query is
  // refused the same way. On a hit (*hit set) it is built from the stored
  // template and `tid`'s weights; on a miss Ground runs and its structure
  // is stored. The lineage.template fault point aliases a lost template: a
  // fired crossing skips the lookup and the insert, so the instance
  // grounds.
  Lineage Ground(const Query& query, const Tid& tid, bool* hit);
  // Ground for an owner that binds templates: *lineage is Ground's lineage,
  // except on a hit whose template carries a binding when `bound_hits` is
  // set (see Sight), where *lineage is left untouched.
  Sight Find(const Query& query, const Tid& tid, bool bound_hits,
             Lineage* lineage, std::vector<const Rational*>* weights);
  // Attaches `binding` to the template `ref` names, replacing any binding
  // it had, when the table still holds that template.
  void Bind(const TemplateRef& ref, TemplateBinding binding);

  // Test hook: while set, every pattern's key is `key`, so each new
  // pattern of a query and domain replaces the template stored before it
  // (the pattern-hash collision path). nullopt restores the hash.
  void ForcePatternKeyForTesting(std::optional<uint64_t> key) {
    forced_key_ = key;
  }

  size_t bytes() const { return bytes_; }  // charged bytes, <= kMaxBytes
  size_t size() const { return size_; }    // templates held

 private:
  struct Template {
    std::vector<uint16_t> layout;  // see kHeader in grounder.cc
    TemplateBinding binding;
  };
  // One query's scope under its clause list (the key's first part): the
  // tuple slot layout, the verdict and the templates.
  struct QueryRecord {
    // Every symbol of the query with its vocabulary kind (where Ground
    // reads its tuples), sorted: the slot order.
    std::vector<std::pair<SymbolId, SymbolKind>> ranges;
    // Index into `ranges` by symbol id, or -1.
    std::vector<int> range_of;
    std::optional<bool> safe;
    // Pattern hash -> template; a colliding pattern replaces the entry.
    std::unordered_map<uint64_t, Template> templates;
  };

  struct ClauseListHash {
    size_t operator()(const std::vector<Clause>& clauses) const;
  };
  using Records =
      std::unordered_map<std::vector<Clause>, QueryRecord, ClauseListHash>;

  QueryRecord& RecordOf(const Query& query);
  // Lays out `tid`'s slots under `record` into offsets_, and fills pattern_
  // and weights_; false when a side or the slot count does not fit the
  // uint16 layout.
  bool ReadSupport(const QueryRecord& record, const Tid& tid);
  // The slot of `key` under offsets_, or -1 if the query does not read it.
  int64_t SlotOf(const QueryRecord& record, const TupleKey& key,
                 int64_t num_right) const;
  Lineage Build(const QueryRecord& record, const std::vector<uint16_t>& entry,
                int num_right) const;
  void Reset();

  Records records_;
  size_t bytes_ = 0;
  size_t size_ = 0;
  // Templates dropped or replaced so far: a TemplateRef taken at another
  // count may name a freed or reused entry.
  uint64_t generation_ = 0;
  std::optional<uint64_t> forced_key_;
  // Per-call scratch, kept to spare the allocations: each range's first
  // slot (plus the total), the pattern words, and each slot's probability.
  std::vector<int64_t> offsets_;
  std::vector<uint16_t> pattern_;
  std::vector<const Rational*> weights_;
};

}  // namespace gmc

#endif  // GMC_LINEAGE_GROUNDER_H_
