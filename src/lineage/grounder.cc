#include "lineage/grounder.h"

#include <algorithm>
#include <utility>

#include "logic/bipartite.h"
#include "util/check.h"
#include "util/fault.h"

namespace gmc {

int Lineage::VarOf(const TupleKey& key) const {
  const auto it = std::find(variables.begin(), variables.end(), key);
  return it == variables.end() ? -1 : static_cast<int>(it - variables.begin());
}

Grounder::Grounder(const Tid* tid) : tid_(tid) { GMC_CHECK(tid != nullptr); }

int Grounder::VarFor(const TupleKey& key, const Rational& p) {
  const auto [it, fresh] = var_ids_.try_emplace(
      key, static_cast<int>(lineage_.variables.size()));
  if (!fresh) return it->second;
  lineage_.variables.push_back(key);
  lineage_.probabilities.push_back(p);
  return it->second;
}

void Grounder::AddClause(const Clause& clause,
                         std::optional<ConstantId> only_base) {
  if (lineage_.is_false) return;
  const int num_base =
      clause.base() == Side::kLeft ? tid_->num_left() : tid_->num_right();
  if (only_base.has_value()) {
    GMC_CHECK(*only_base >= 0 && *only_base < num_base);
    GroundAt(clause, *only_base);
    return;
  }
  for (ConstantId b = 0; b < num_base; ++b) {
    GroundAt(clause, b);
    if (lineage_.is_false) return;
  }
}

void Grounder::AddQuery(const Query& query) {
  GMC_CHECK_MSG(!query.IsFalse(), "grounding a FALSE query");
  for (const Clause& clause : query.clauses()) AddClause(clause);
}

void Grounder::GroundAt(const Clause& clause, ConstantId base) {
  const Side base_side = clause.base();
  const int num_inner =
      base_side == Side::kLeft ? tid_->num_right() : tid_->num_left();

  auto unary_key = [&](SymbolId s, Side side, ConstantId c) {
    return side == Side::kLeft ? TupleKey{s, c, -1} : TupleKey{s, -1, c};
  };
  auto binary_key = [&](SymbolId s, ConstantId inner) {
    return base_side == Side::kLeft ? TupleKey{s, base, inner}
                                    : TupleKey{s, inner, base};
  };

  // Base unary literals.
  std::vector<int> unary_lits;
  for (SymbolId s : clause.base_unaries()) {
    TupleKey key = unary_key(s, base_side, base);
    const Rational& p = tid_->Probability(key);
    if (p.IsOne()) return;  // clause satisfied at this base constant
    if (p.IsZero()) continue;
    unary_lits.push_back(VarFor(key, p));
  }

  // Ground each subclause into its list of per-inner-constant disjunctions.
  // A subclause whose event is false disappears as a disjunct; one whose
  // event is true satisfies the whole clause.
  std::vector<std::vector<std::vector<int>>> surviving_subclauses;
  for (const Subclause& sub : clause.subclauses()) {
    std::vector<std::vector<int>> conjuncts;
    bool subclause_false = false;
    for (ConstantId i = 0; i < num_inner && !subclause_false; ++i) {
      std::vector<int> lits;
      bool conjunct_true = false;
      for (SymbolId s : sub.binaries) {
        TupleKey key = binary_key(s, i);
        const Rational& p = tid_->Probability(key);
        if (p.IsOne()) {
          conjunct_true = true;
          break;
        }
        if (!p.IsZero()) lits.push_back(VarFor(key, p));
      }
      if (!conjunct_true) {
        for (SymbolId s : sub.inner_unaries) {
          TupleKey key = unary_key(s, Opposite(base_side), i);
          const Rational& p = tid_->Probability(key);
          if (p.IsOne()) {
            conjunct_true = true;
            break;
          }
          if (!p.IsZero()) lits.push_back(VarFor(key, p));
        }
      }
      if (conjunct_true) continue;
      if (lits.empty()) {
        subclause_false = true;
        break;
      }
      conjuncts.push_back(std::move(lits));
    }
    if (subclause_false) continue;
    if (conjuncts.empty()) return;  // ∀i event is vacuously true
    surviving_subclauses.push_back(std::move(conjuncts));
  }

  if (surviving_subclauses.empty()) {
    if (unary_lits.empty()) {
      lineage_.is_false = true;
      return;
    }
    lineage_.cnf.clauses.push_back(std::move(unary_lits));
    return;
  }

  // Distribute the disjunction of conjunctions into CNF: one output clause
  // per choice of conjunct from each surviving subclause.
  std::vector<size_t> choice(surviving_subclauses.size(), 0);
  while (true) {
    std::vector<int> out = unary_lits;
    for (size_t s = 0; s < surviving_subclauses.size(); ++s) {
      const auto& lits = surviving_subclauses[s][choice[s]];
      out.insert(out.end(), lits.begin(), lits.end());
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    lineage_.cnf.clauses.push_back(std::move(out));
    // Next choice vector.
    size_t pos = 0;
    while (pos < choice.size()) {
      if (++choice[pos] < surviving_subclauses[pos].size()) break;
      choice[pos] = 0;
      ++pos;
    }
    if (pos == choice.size()) break;
  }
}

Lineage Grounder::Take(bool minimize) {
  lineage_.cnf.num_vars = static_cast<int>(lineage_.variables.size());
  if (lineage_.is_false) {
    lineage_.cnf.clauses = {{}};
    return std::move(lineage_);
  }
  if (minimize) lineage_.cnf.RemoveSubsumed();
  return std::move(lineage_);
}

Lineage Ground(const Query& query, const Tid& tid, bool minimize) {
  Grounder grounder(&tid);
  grounder.AddQuery(query);
  return grounder.Take(minimize);
}

// --- Grounding templates ----------------------------------------------------

namespace {

// A template's uint16 layout: this header, the pattern words, the slot of
// every variable in id order, then the clause literals with kEndOfClause
// after each clause. Every value fits: sides are at most 0xffff and slot
// counts (hence variable ids) below kEndOfClause, or nothing is stored.
enum : size_t { kLeftAt, kRightAt, kFalseAt, kVarsAt, kHeader };
constexpr uint16_t kEndOfClause = 0xffff;
// Bytes charged per template and per record beyond their arrays: the map
// node, the vector header, and the allocator's headers.
constexpr size_t kEntryOverhead = 64;
// Charged per template on top: its binding's pointer and the owner's small
// block behind it, charged up front so that Bind never passes the cap.
constexpr size_t kBindingOverhead = 64;

void Fnv(uint64_t* h, uint32_t word) {
  *h = (*h ^ word) * 1099511628211ull;  // FNV-1a, as Cnf::Hash64
}

// The 2-bit support class: 0, 1, or uncertain.
unsigned SupportClass(const Rational& p) {
  return p.IsZero() ? 0u : p.IsOne() ? 1u : 2u;
}

SymbolKind KindOf(const TupleKey& key) {
  return key.right < 0   ? SymbolKind::kUnaryLeft
         : key.left < 0  ? SymbolKind::kUnaryRight
                         : SymbolKind::kBinary;
}

}  // namespace

size_t GroundingTemplates::ClauseListHash::operator()(
    const std::vector<Clause>& clauses) const {
  uint64_t h = 14695981039346656037ull;
  for (const Clause& clause : clauses) {
    Fnv(&h, static_cast<uint32_t>(clause.base()));
    for (SymbolId s : clause.base_unaries()) Fnv(&h, ~static_cast<uint32_t>(s));
    for (const Subclause& sub : clause.subclauses()) {
      for (SymbolId s : sub.binaries) Fnv(&h, static_cast<uint32_t>(s));
      for (SymbolId s : sub.inner_unaries) Fnv(&h, ~static_cast<uint32_t>(s));
      Fnv(&h, 0xffffffffu);  // subclause separator
    }
  }
  return static_cast<size_t>(h);
}

bool GroundingTemplates::IsSafe(const Query& query) {
  QueryRecord& record = RecordOf(query);
  if (!record.safe.has_value()) record.safe = gmc::IsSafe(query);
  return *record.safe;
}

GroundingTemplates::QueryRecord& GroundingTemplates::RecordOf(
    const Query& query) {
  auto it = records_.find(query.clauses());
  if (it == records_.end()) {
    QueryRecord record;
    for (SymbolId s : query.Symbols()) {
      record.ranges.emplace_back(s, query.vocab().kind(s));
    }
    record.range_of.assign(
        record.ranges.empty()
            ? 0
            : 1 + static_cast<size_t>(record.ranges.back().first),
        -1);
    for (size_t r = 0; r < record.ranges.size(); ++r) {
      record.range_of[static_cast<size_t>(record.ranges[r].first)] =
          static_cast<int>(r);
    }
    // The clause list's copy is charged one entry overhead per clause.
    const size_t bytes = sizeof(Records::value_type) +
                         kEntryOverhead * (1 + query.clauses().size()) +
                         8 * record.ranges.size() +
                         4 * record.range_of.size();
    if (bytes_ + bytes > kMaxBytes) Reset();
    bytes_ += bytes;
    it = records_.emplace(query.clauses(), std::move(record)).first;
  }
  return it->second;
}

bool GroundingTemplates::ReadSupport(const QueryRecord& record,
                                     const Tid& tid) {
  const int64_t num_left = tid.num_left();
  const int64_t num_right = tid.num_right();
  offsets_.clear();
  int64_t slots = 0;
  for (const auto& [symbol, kind] : record.ranges) {
    offsets_.push_back(slots);
    slots += kind == SymbolKind::kBinary      ? num_left * num_right
             : kind == SymbolKind::kUnaryLeft ? num_left
                                              : num_right;
  }
  offsets_.push_back(slots);
  if (num_left > 0xffff || num_right > 0xffff || slots >= kEndOfClause) {
    return false;
  }
  // Every slot starts at the default's class, then each explicit tuple of
  // the query's symbols overwrites its own. The last word's unused bits
  // stay zero, so equal patterns are equal word for word.
  const Rational& fallback = tid.default_probability();
  pattern_.assign(static_cast<size_t>((slots + 7) / 8),
                  static_cast<uint16_t>(SupportClass(fallback) * 0x5555u));
  if (slots % 8 != 0) pattern_.back() &= (1u << (2 * (slots % 8))) - 1;
  weights_.assign(static_cast<size_t>(slots), &fallback);
  for (const auto& [key, p] : tid.explicit_tuples()) {
    const int64_t slot = SlotOf(record, key, num_right);
    if (slot < 0) continue;
    const auto shift = static_cast<unsigned>(2 * (slot % 8));
    uint16_t& word = pattern_[static_cast<size_t>(slot / 8)];
    word = static_cast<uint16_t>((word & ~(3u << shift)) |
                                 (SupportClass(p) << shift));
    weights_[static_cast<size_t>(slot)] = &p;
  }
  return true;
}

int64_t GroundingTemplates::SlotOf(const QueryRecord& record,
                                   const TupleKey& key,
                                   int64_t num_right) const {
  const auto symbol = static_cast<size_t>(key.symbol);
  if (symbol >= record.range_of.size() || record.range_of[symbol] < 0) {
    return -1;
  }
  const auto range = static_cast<size_t>(record.range_of[symbol]);
  const SymbolKind kind = record.ranges[range].second;
  if (KindOf(key) != kind) return -1;
  return offsets_[range] +
         (kind == SymbolKind::kBinary      ? key.left * num_right + key.right
          : kind == SymbolKind::kUnaryLeft ? key.left
                                           : key.right);
}

Lineage GroundingTemplates::Build(const QueryRecord& record,
                                  const std::vector<uint16_t>& entry,
                                  int num_right) const {
  Lineage lineage;
  lineage.is_false = entry[kFalseAt] != 0;
  const int num_vars = entry[kVarsAt];
  lineage.cnf.num_vars = num_vars;
  lineage.variables.reserve(static_cast<size_t>(num_vars));
  lineage.probabilities.reserve(static_cast<size_t>(num_vars));
  const uint16_t* slot = entry.data() + kHeader + pattern_.size();
  for (int v = 0; v < num_vars; ++v, ++slot) {
    // The range holding the slot: the last one starting at or before it
    // (an empty range starts where the next one does).
    const size_t range = static_cast<size_t>(
        std::upper_bound(offsets_.begin(), offsets_.end(), *slot) -
        offsets_.begin() - 1);
    const auto [symbol, kind] = record.ranges[range];
    const auto local = static_cast<ConstantId>(*slot - offsets_[range]);
    lineage.variables.push_back(
        kind == SymbolKind::kBinary
            ? TupleKey{symbol, local / num_right, local % num_right}
        : kind == SymbolKind::kUnaryLeft ? TupleKey{symbol, local, -1}
                                         : TupleKey{symbol, -1, local});
    lineage.probabilities.push_back(*weights_[static_cast<size_t>(*slot)]);
  }
  const uint16_t* const end = entry.data() + entry.size();
  lineage.cnf.clauses.reserve(
      static_cast<size_t>(std::count(slot, end, kEndOfClause)));
  while (slot != end) {
    const uint16_t* stop = std::find(slot, end, kEndOfClause);
    lineage.cnf.clauses.emplace_back(slot, stop);
    slot = stop + 1;
  }
  return lineage;
}

Lineage GroundingTemplates::Ground(const Query& query, const Tid& tid,
                                   bool* hit) {
  Lineage lineage;
  *hit = Find(query, tid, /*bound_hits=*/false, &lineage, nullptr).hit;
  return lineage;
}

GroundingTemplates::Sight GroundingTemplates::Find(
    const Query& query, const Tid& tid, bool bound_hits, Lineage* lineage,
    std::vector<const Rational*>* weights) {
  GMC_CHECK_MSG(!query.IsFalse(), "grounding a FALSE query");
  Sight sight;
  // lineage.template aliases "the template was lost": the instance grounds
  // and nothing is stored — the same lineage, only Ground's cost paid
  // again (the faults CI job exercises it across the whole suite).
  if (fault::ShouldFail(fault::Point::kLineageTemplate)) {
    *lineage = gmc::Ground(query, tid);
    return sight;
  }
  QueryRecord* record = &RecordOf(query);
  if (!ReadSupport(*record, tid)) {
    *lineage = gmc::Ground(query, tid);
    return sight;
  }
  uint64_t key = 14695981039346656037ull;
  Fnv(&key, static_cast<uint32_t>(tid.num_left()));
  Fnv(&key, static_cast<uint32_t>(tid.num_right()));
  for (uint16_t word : pattern_) Fnv(&key, word);
  if (forced_key_.has_value()) key = *forced_key_;
  const auto found = record->templates.find(key);
  if (found != record->templates.end()) {
    Template& entry = found->second;
    const std::vector<uint16_t>& layout = entry.layout;
    if (layout[kLeftAt] == tid.num_left() &&
        layout[kRightAt] == tid.num_right() &&
        std::equal(pattern_.begin(), pattern_.end(),
                   layout.begin() + kHeader)) {
      sight.hit = true;
      sight.ref.entry_ = &entry;
      sight.ref.generation_ = generation_;
      if (bound_hits && entry.binding != nullptr) {
        sight.binding = &entry.binding;
        sight.num_vars = layout[kVarsAt];
        const uint16_t* slot = layout.data() + kHeader + pattern_.size();
        for (int v = 0; v < sight.num_vars; ++v) {
          weights->push_back(weights_[slot[v]]);
        }
        return sight;
      }
      *lineage = Build(*record, layout, tid.num_right());
      return sight;
    }
  }

  *lineage = gmc::Ground(query, tid);
  size_t literals = 0;
  for (const auto& clause : lineage->cnf.clauses) literals += clause.size() + 1;
  std::vector<uint16_t> layout;
  layout.reserve(kHeader + pattern_.size() + lineage->variables.size() +
                 literals);
  layout.push_back(static_cast<uint16_t>(tid.num_left()));
  layout.push_back(static_cast<uint16_t>(tid.num_right()));
  layout.push_back(lineage->is_false ? 1 : 0);
  layout.push_back(static_cast<uint16_t>(lineage->variables.size()));
  layout.insert(layout.end(), pattern_.begin(), pattern_.end());
  for (const TupleKey& variable : lineage->variables) {
    const int64_t slot = SlotOf(*record, variable, tid.num_right());
    GMC_CHECK(slot >= 0);  // Ground reads only the query's tuples
    layout.push_back(static_cast<uint16_t>(slot));
  }
  for (const auto& clause : lineage->cnf.clauses) {
    for (int literal : clause) layout.push_back(static_cast<uint16_t>(literal));
    layout.push_back(kEndOfClause);
  }
  const size_t need =
      sizeof(uint16_t) * layout.size() + kEntryOverhead + kBindingOverhead;
  if (bytes_ + need > kMaxBytes) {
    Reset();
    record = &RecordOf(query);
  }
  if (bytes_ + need <= kMaxBytes) {
    const auto [slot, fresh] = record->templates.try_emplace(key);
    if (!fresh) {  // a pattern-hash collision: the newer pattern replaces it
      bytes_ -= sizeof(uint16_t) * slot->second.layout.size() +
                kEntryOverhead + kBindingOverhead;
      --size_;
      ++generation_;
    }
    slot->second = Template{std::move(layout), nullptr};
    bytes_ += need;
    ++size_;
    sight.ref.entry_ = &slot->second;
    sight.ref.generation_ = generation_;
  }
  return sight;
}

void GroundingTemplates::Bind(const TemplateRef& ref, TemplateBinding binding) {
  if (ref.entry_ != nullptr && ref.generation_ == generation_) {
    ref.entry_->binding = std::move(binding);
  }
}

void GroundingTemplates::Reset() {
  records_.clear();
  bytes_ = 0;
  size_ = 0;
  ++generation_;
}

}  // namespace gmc
