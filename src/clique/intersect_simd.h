// Sorted-set intersection and the vectorized kernel-row primitives, with
// runtime CPU dispatch.
//
// Design note — shuffle intersection + per-primitive dispatch
// -----------------------------------------------------------
// IntersectSorted is the merge every solver path funnels through (counting,
// scoring, HG FindOne, LP FindMin, dynamic rebuilds — via the kernel's
// sorted-merge fallback for >4096-node universes). Three regimes:
//
//   * extreme size skew (>= kGallopSkew): galloping scan, O(small * log);
//   * near-equal sizes, SIMD host: shuffle-based block intersection — load a
//     block of each input, compare one block against every rotation of the
//     other, movemask the hits, and left-pack the matching lanes through a
//     precomputed shuffle table (AVX2: 8x8 blocks, 8 cross-lane rotations,
//     256-entry permute table; SSE4.2: 4x4 blocks, 4 in-lane rotations,
//     16-entry pshufb table). Whole blocks advance on a single max-element
//     comparison, so the per-element mispredicted branch of the scalar
//     merge disappears;
//   * portable / tiny inputs: the classic three-way scalar merge.
//
// The row primitives vectorize the other half of the kernel hot path:
// AndPopcountWords fuses the multi-word cand &= row step with its popcount
// reduction (AVX2: 4 words per AND + the pshufb nibble-LUT positional
// popcount); GatherValidLocalIds compacts the epoch-valid local ids of a
// neighbor list in 8-wide gather/compare/compress steps, turning
// MaterializeRow's stamp-check branch (per-neighbor, data-dependent) into
// branch-free word batches.
//
// Dispatch: each primitive is compiled per-level with function target
// attributes in intersect_simd.cc and selected once through a cached
// function-pointer table keyed by ActiveSimdLevel() (cpuid probe, DKC_SIMD
// env cap, test override — see util/cpu.h). Every level produces
// byte-identical outputs; DKC_PORTABLE builds compile none of this and keep
// the scalar merge bit-for-bit.
//
// Aliasing: `out` must not alias the storage behind `a` or `b` — the
// implementations resize `out` before (or while) reading the inputs, so an
// aliased call reads freed or clobbered memory. Debug builds assert this.

#ifndef DKC_CLIQUE_INTERSECT_SIMD_H_
#define DKC_CLIQUE_INTERSECT_SIMD_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

// Compiled SIMD support: x86-64 with a compiler that has per-function
// target attributes and __builtin_cpu_supports. CMake probes the same
// combination (DKC_HAVE_SIMD_INTERSECT) so the build summary reflects it;
// DKC_PORTABLE turns it off at the source level regardless.
#if !defined(DKC_PORTABLE) && defined(DKC_HAVE_SIMD_INTERSECT) && \
    defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DKC_X86_SIMD 1
#else
#define DKC_X86_SIMD 0
#endif

namespace dkc {

/// Size ratio at which IntersectSorted switches from merging to galloping.
inline constexpr size_t kGallopSkew = 32;

/// out = a ∩ b for sorted unique spans. `out` is overwritten and must not
/// alias the storage behind `a` or `b` (asserted in debug builds). Switches
/// to a galloping (exponential-probe) scan when the inputs differ in size
/// by kGallopSkew or more; otherwise the merge runs at the dispatched SIMD
/// level (scalar three-way merge in portable builds or on pre-SSE4.2
/// hosts). Identical output at every level.
void IntersectSorted(std::span<const NodeId> a, std::span<const NodeId> b,
                     std::vector<NodeId>* out);

namespace simd_internal {

/// The dispatched primitive table. Resolved once at static init (and again
/// whenever the level override changes); constinit to the scalar rows so a
/// call from any other translation unit's initializer is safe.
struct SimdOps {
  /// Merge-intersect sorted unique ranges into *out (overwritten; resized
  /// internally). Inputs must not alias *out.
  void (*merge)(const NodeId* a, size_t na, const NodeId* b, size_t nb,
                std::vector<NodeId>* out);
  /// out[i] = a[i] & b[i] for i < words; returns the total popcount of out.
  /// `out` may alias `a` or `b` (word-wise forward pass).
  Count (*and_popcount)(const uint64_t* a, const uint64_t* b, uint64_t* out,
                        size_t words);
  /// Total popcount of words[0..n).
  Count (*popcount)(const uint64_t* words, size_t n);
  /// Compacts local_of[nbrs[i]] for every i with stamps[nbrs[i]] == epoch
  /// into out (order-preserving); returns the count. `out` needs capacity
  /// n; nbrs values must be < 2^31 (in-bounds indices into stamps /
  /// local_of either way).
  size_t (*gather_valid)(const NodeId* nbrs, size_t n, const uint32_t* stamps,
                         uint32_t epoch, const NodeId* local_of, NodeId* out);
};

extern SimdOps g_ops;

}  // namespace simd_internal

/// Fused cand-AND-row + popcount reduction over `words` 64-bit words.
/// Small rows stay on the inline scalar loop (the dispatch indirection
/// costs more than it saves below ~8 words); wide rows take the vectorized
/// kernel. Bit-identical either way.
inline Count AndPopcountWords(const uint64_t* a, const uint64_t* b,
                              uint64_t* out, size_t words) {
  if (words < 8) {
    Count n = 0;
    for (size_t w = 0; w < words; ++w) {
      out[w] = a[w] & b[w];
      n += static_cast<Count>(std::popcount(out[w]));
    }
    return n;
  }
  return simd_internal::g_ops.and_popcount(a, b, out, words);
}

/// Total popcount of words[0..n), dispatched above the same width gate.
inline Count PopcountWords(const uint64_t* words, size_t n) {
  if (n < 8) {
    Count c = 0;
    for (size_t w = 0; w < n; ++w) {
      c += static_cast<Count>(std::popcount(words[w]));
    }
    return c;
  }
  return simd_internal::g_ops.popcount(words, n);
}

/// Compacts the epoch-valid local ids of `nbrs` into `out` (which needs
/// room for n entries, order preserved); returns how many were valid. The
/// bulk step of MaterializeRow: the stamp check runs 8 lanes at a time
/// instead of one data-dependent branch per neighbor.
inline size_t GatherValidLocalIds(const NodeId* nbrs, size_t n,
                                  const uint32_t* stamps, uint32_t epoch,
                                  const NodeId* local_of, NodeId* out) {
  if (n < 8) {
    size_t o = 0;
    for (size_t i = 0; i < n; ++i) {
      if (stamps[nbrs[i]] == epoch) out[o++] = local_of[nbrs[i]];
    }
    return o;
  }
  return simd_internal::g_ops.gather_valid(nbrs, n, stamps, epoch, local_of,
                                           out);
}

namespace simd_internal {

// Raw per-level kernels, exposed for the byte-identity sweep and the
// bench_micro crossover rows (callers must check CpuSimdLevel() before
// invoking a SIMD one). The scalar rows are the reference semantics.
void MergeScalar(const NodeId* a, size_t na, const NodeId* b, size_t nb,
                 std::vector<NodeId>* out);
Count AndPopcountScalar(const uint64_t* a, const uint64_t* b, uint64_t* out,
                        size_t words);
Count PopcountScalar(const uint64_t* words, size_t n);
size_t GatherValidScalar(const NodeId* nbrs, size_t n, const uint32_t* stamps,
                         uint32_t epoch, const NodeId* local_of, NodeId* out);
#if DKC_X86_SIMD
void MergeSse(const NodeId* a, size_t na, const NodeId* b, size_t nb,
              std::vector<NodeId>* out);
void MergeAvx2(const NodeId* a, size_t na, const NodeId* b, size_t nb,
               std::vector<NodeId>* out);
Count AndPopcountAvx2(const uint64_t* a, const uint64_t* b, uint64_t* out,
                      size_t words);
Count PopcountAvx2(const uint64_t* words, size_t n);
size_t GatherValidAvx2(const NodeId* nbrs, size_t n, const uint32_t* stamps,
                       uint32_t epoch, const NodeId* local_of, NodeId* out);
#endif  // DKC_X86_SIMD

}  // namespace simd_internal

}  // namespace dkc

#endif  // DKC_CLIQUE_INTERSECT_SIMD_H_
