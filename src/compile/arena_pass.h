// The one bottom-up arena pass behind every batch walk: the Rational walk
// (nnf_walk.cc), the dyadic kernel at each mantissa width (nnf_fixed.cc)
// and the directed-rounding interval walk (nnf_interval.cc). A walk brings
// its preamble, its value type and its AND and decision inner loops; this
// header brings the rest — the column slicing over the shared pool, one
// arena per slice, the deadline poll, the node-kind switch and the root
// copy-out — so every route slices, cancels and scales with threads the
// same way. Private to those three files.

#ifndef GMC_COMPILE_ARENA_PASS_H_
#define GMC_COMPILE_ARENA_PASS_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "compile/nnf.h"
#include "compile/nnf_walk.h"
#include "util/cancel.h"
#include "util/dyadic_fixed.h"
#include "util/parallel.h"

namespace gmc::walk_internal {

// Variables per chunk for a walk's per-variable preamble.
inline constexpr int64_t kMinVarsPerChunk = 8;
// Arena nodes between deadline polls (see util/cancel.h): the poll is one
// relaxed load on the common path, so the stride exists only to amortize
// the clock read of the worker that happens to observe expiry first.
inline constexpr size_t kCancelNodeStride = 64;
// Columns per parallel slice, at minimum: below this, slice setup (one
// nodes × W arena per slice) costs more than the columns it covers. A
// machine-word mantissa column is cheap enough that a slice needs more.
template <typename Value>
inline constexpr int64_t kMinColumnsPerSlice =
    std::is_same_v<Value, uint64_t> || std::is_same_v<Value, UInt128> ? 16
                                                                       : 4;

// Runs prepare(v) once for every variable v < num_vars, chunked over the
// pool; chunks own disjoint variables, so prepare may write v's slots.
template <typename Prepare>
void ForEachVariable(int num_vars, int num_threads, const Prepare& prepare) {
  ParallelFor(num_vars, num_threads, kMinVarsPerChunk,
              [&](int64_t v0, int64_t v1, int /*chunk*/) {
                for (int64_t v = v0; v < v1; ++v) {
                  prepare(static_cast<int>(v));
                }
              });
}

// The topological pass over K weight columns, returning the K root values
// in column order. `Kernel` is one walk's arithmetic:
//
//   using Value;                 the arena's element type; a
//                                value-initialized Value is zero
//   const Value* probability;    the weight columns, column v at v·K
//   const Value* complement;     1 − p, same layout, for decision vars
//   Value One() const;
//   void And(Value* out, const Value* child, int num_w) const;
//                                out[k] ← out[k] · child[k]
//   void Decision(size_t id, const FlatNode& node, const Value* p,
//                 const Value* q, const Value* high, const Value* low,
//                 Value* out, int num_w) const;
//                                out[k] ← p·high + q·low
//
// The K columns split into contiguous slices (at most `num_threads`;
// 0 = process default), each one pass over its own row-major arena: the
// W = k1 − k0 values of node `id` live at value[id·W .. id·W + W). A fired
// cancel token abandons the slice mid-pass, so its roots keep their
// zero (meaningless) values and the CALLER discards the batch — the
// contract in nnf_walk.h.
template <typename Kernel>
std::vector<typename Kernel::Value> ArenaPass(const CircuitWalkView& view,
                                              int num_k, int num_threads,
                                              const Kernel& kernel,
                                              const CancelToken* cancel) {
  using Value = typename Kernel::Value;
  std::vector<Value> roots(num_k);
  ParallelFor(
      num_k, num_threads, kMinColumnsPerSlice<Value>,
      [&](int64_t k0_64, int64_t k1_64, int /*chunk*/) {
        const size_t k0 = static_cast<size_t>(k0_64);
        const int num_w = static_cast<int>(k1_64 - k0_64);
        const Value one = kernel.One();
        std::vector<Value> value(view.num_nodes * num_w);
        for (size_t id = 0; id < view.num_nodes; ++id) {
          if (cancel != nullptr && (id % kCancelNodeStride) == 0 &&
              cancel->Poll()) {
            return;
          }
          const FlatNode& node = view.nodes[id];
          Value* out = value.data() + id * num_w;
          switch (static_cast<NnfKind>(node.kind)) {
            case NnfKind::kFalse:
              break;  // the arena value-initializes to zero
            case NnfKind::kTrue:
              for (int k = 0; k < num_w; ++k) out[k] = one;
              break;
            case NnfKind::kVar: {
              const Value* p = kernel.probability +
                               static_cast<size_t>(node.var) * num_k + k0;
              for (int k = 0; k < num_w; ++k) out[k] = p[k];
              break;
            }
            case NnfKind::kAnd: {
              const int32_t* child_ids = view.children + node.a;
              const Value* first =
                  value.data() + static_cast<size_t>(child_ids[0]) * num_w;
              for (int k = 0; k < num_w; ++k) out[k] = first[k];
              for (int32_t c = 1; c < node.b; ++c) {
                kernel.And(out,
                           value.data() +
                               static_cast<size_t>(child_ids[c]) * num_w,
                           num_w);
              }
              break;
            }
            case NnfKind::kDecision: {
              const size_t column = static_cast<size_t>(node.var) * num_k + k0;
              kernel.Decision(
                  id, node, kernel.probability + column,
                  kernel.complement + column,
                  value.data() + static_cast<size_t>(node.a) * num_w,
                  value.data() + static_cast<size_t>(node.b) * num_w, out,
                  num_w);
              break;
            }
          }
        }
        Value* root = value.data() + static_cast<size_t>(view.root) * num_w;
        for (int k = 0; k < num_w; ++k) roots[k0 + k] = std::move(root[k]);
      });
  return roots;
}

}  // namespace gmc::walk_internal

#endif  // GMC_COMPILE_ARENA_PASS_H_
