// Byte-identity sweep for the dispatched intersection and kernel-row
// primitives: every compiled level (scalar / SSE4.2 / AVX2 where the host
// supports it) and the galloping path must produce identical bytes on
// identical inputs — the dispatch level is only ever allowed to change
// speed. The sweep is exhaustive over small sizes (0..80 on both sides)
// because that is where the block kernels' tail handling, both-advance
// break, and store slack live.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "clique/intersect_simd.h"
#include "gtest/gtest.h"
#include "util/cpu.h"

namespace dkc {
namespace {

using simd_internal::AndPopcountScalar;
using simd_internal::GatherValidScalar;
using simd_internal::MergeScalar;
using simd_internal::PopcountScalar;

std::vector<NodeId> Reference(const std::vector<NodeId>& a,
                              const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// Sorted unique draw of `n` values from [base, base + universe), seeded
// deterministically per (n, salt) so failures replay.
std::vector<NodeId> Draw(size_t n, uint64_t salt, NodeId base,
                         NodeId universe) {
  std::mt19937_64 rng(0x1D5EC7ULL * (n + 1) + salt);
  std::vector<NodeId> pool(universe);
  for (NodeId i = 0; i < universe; ++i) pool[i] = base + i;
  std::shuffle(pool.begin(), pool.end(), rng);
  pool.resize(std::min<size_t>(n, pool.size()));
  std::sort(pool.begin(), pool.end());
  return pool;
}

// Every level the host can actually run. kScalar is always present, so the
// sweep is meaningful even on a non-SIMD host (it still pins galloping
// against the reference).
std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (CpuSimdLevel() >= SimdLevel::kSse42) levels.push_back(SimdLevel::kSse42);
  if (CpuSimdLevel() >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

class LevelOverrideGuard {
 public:
  explicit LevelOverrideGuard(SimdLevel level) { SetSimdLevelOverride(level); }
  ~LevelOverrideGuard() { ClearSimdLevelOverride(); }
};

void ExpectAllVariantsMatch(const std::vector<NodeId>& a,
                            const std::vector<NodeId>& b,
                            const std::string& what) {
  const std::vector<NodeId> want = Reference(a, b);
  std::vector<NodeId> got;
  for (SimdLevel level : AvailableLevels()) {
    LevelOverrideGuard guard(level);
    IntersectSorted(a, b, &got);
    EXPECT_EQ(got, want) << what << " IntersectSorted@" << SimdLevelName(level)
                         << " na=" << a.size() << " nb=" << b.size();
    IntersectSorted(b, a, &got);
    EXPECT_EQ(got, want) << what << " IntersectSorted(swapped)@"
                         << SimdLevelName(level) << " na=" << a.size()
                         << " nb=" << b.size();
  }
  // Raw kernels, bypassing the gallop-skew front end.
  MergeScalar(a.data(), a.size(), b.data(), b.size(), &got);
  EXPECT_EQ(got, want) << what << " MergeScalar na=" << a.size()
                       << " nb=" << b.size();
#if DKC_X86_SIMD
  if (CpuSimdLevel() >= SimdLevel::kSse42) {
    simd_internal::MergeSse(a.data(), a.size(), b.data(), b.size(), &got);
    EXPECT_EQ(got, want) << what << " MergeSse na=" << a.size()
                         << " nb=" << b.size();
    simd_internal::MergeSse(b.data(), b.size(), a.data(), a.size(), &got);
    EXPECT_EQ(got, want) << what << " MergeSse(swapped) na=" << a.size()
                         << " nb=" << b.size();
  }
  if (CpuSimdLevel() >= SimdLevel::kAvx2) {
    simd_internal::MergeAvx2(a.data(), a.size(), b.data(), b.size(), &got);
    EXPECT_EQ(got, want) << what << " MergeAvx2 na=" << a.size()
                         << " nb=" << b.size();
    simd_internal::MergeAvx2(b.data(), b.size(), a.data(), a.size(), &got);
    EXPECT_EQ(got, want) << what << " MergeAvx2(swapped) na=" << a.size()
                         << " nb=" << b.size();
  }
#endif
}

// Exhaustive small-size sweep: all (na, nb) in [0, 80]^2 from a tight
// universe (high collision rate — every block compare finds hits and the
// left-pack tables see varied masks). 81x81 pairs x all variants.
TEST(IntersectByteIdentityTest, ExhaustiveSmallSizes) {
  for (size_t na = 0; na <= 80; ++na) {
    for (size_t nb = 0; nb <= 80; ++nb) {
      const std::vector<NodeId> a = Draw(na, 7 * nb + 1, 0, 128);
      const std::vector<NodeId> b = Draw(nb, 13 * na + 2, 0, 128);
      const std::vector<NodeId> want = Reference(a, b);
      std::vector<NodeId> got;
      for (SimdLevel level : AvailableLevels()) {
        LevelOverrideGuard guard(level);
        IntersectSorted(a, b, &got);
        ASSERT_EQ(got, want) << "IntersectSorted@" << SimdLevelName(level)
                             << " na=" << na << " nb=" << nb;
      }
#if DKC_X86_SIMD
      if (CpuSimdLevel() >= SimdLevel::kSse42) {
        simd_internal::MergeSse(a.data(), na, b.data(), nb, &got);
        ASSERT_EQ(got, want) << "MergeSse na=" << na << " nb=" << nb;
      }
      if (CpuSimdLevel() >= SimdLevel::kAvx2) {
        simd_internal::MergeAvx2(a.data(), na, b.data(), nb, &got);
        ASSERT_EQ(got, want) << "MergeAvx2 na=" << na << " nb=" << nb;
      }
#endif
    }
  }
}

// Structured boundary inputs the random sweep is unlikely to hit: identical
// lists, fully disjoint interleaves, shared prefixes/suffixes, single
// straddling match — each at block-boundary sizes (multiples of 4/8 +/- 1).
TEST(IntersectByteIdentityTest, StructuredBoundaryInputs) {
  const size_t sizes[] = {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63,
                          64, 65};
  for (size_t n : sizes) {
    std::vector<NodeId> evens, odds, all;
    for (size_t i = 0; i < n; ++i) {
      evens.push_back(static_cast<NodeId>(2 * i));
      odds.push_back(static_cast<NodeId>(2 * i + 1));
      all.push_back(static_cast<NodeId>(i));
    }
    ExpectAllVariantsMatch(all, all, "identical");
    ExpectAllVariantsMatch(evens, odds, "disjoint-interleaved");
    // Shared prefix, disjoint tails.
    std::vector<NodeId> pre_a = all, pre_b = all;
    pre_a.push_back(static_cast<NodeId>(n + 10));
    pre_b.push_back(static_cast<NodeId>(n + 20));
    ExpectAllVariantsMatch(pre_a, pre_b, "shared-prefix");
    // One match at the very last lane of the last full block.
    std::vector<NodeId> lo = all;
    std::vector<NodeId> hi;
    for (size_t i = 0; i < n; ++i) {
      hi.push_back(static_cast<NodeId>(n - 1 + i));
    }
    ExpectAllVariantsMatch(lo, hi, "single-straddle");
  }
}

// Values at the top of the NodeId range: the block-advance comparisons are
// scalar unsigned and the lane compares are equality-only, so ids near
// 2^32 - 1 must behave exactly like small ones.
TEST(IntersectByteIdentityTest, MaxNodeIdValues) {
  const NodeId top = std::numeric_limits<NodeId>::max();
  for (size_t n : {4u, 8u, 9u, 16u, 33u}) {
    std::vector<NodeId> a, b;
    for (size_t i = 0; i < n; ++i) {
      a.push_back(top - static_cast<NodeId>(2 * (n - i) - 2));
      b.push_back(top - static_cast<NodeId>(3 * (n - i) - 3));
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    ExpectAllVariantsMatch(a, b, "max-nodeid");
  }
  // The literal extremes in one list.
  const std::vector<NodeId> extremes = {0, 1, top - 1, top};
  ExpectAllVariantsMatch(extremes, extremes, "extremes-identical");
  const std::vector<NodeId> other = {1, 2, top};
  ExpectAllVariantsMatch(extremes, other, "extremes-partial");
}

// Exactly the kGallopSkew boundary: small * kGallopSkew == large flips
// IntersectSorted from the dispatched merge to galloping. Both sides of the
// flip (and the boundary itself) must agree with the reference at every
// level.
TEST(IntersectByteIdentityTest, GallopSkewBoundary) {
  for (size_t small_n : {1u, 2u, 5u, 8u}) {
    for (long delta : {-1L, 0L, 1L}) {
      const size_t large_n = static_cast<size_t>(
          static_cast<long>(small_n * kGallopSkew) + delta);
      const std::vector<NodeId> small_set = Draw(small_n, 5, 0, 4096);
      const std::vector<NodeId> large_set =
          Draw(large_n, 11, 0, static_cast<NodeId>(4 * large_n + 8));
      ExpectAllVariantsMatch(small_set, large_set, "gallop-boundary");
    }
  }
}

// Larger randomized spot-check so the block loop runs many iterations with
// mixed advance patterns (a-only, b-only, both) before the tail.
TEST(IntersectByteIdentityTest, LargeRandomSpotCheck) {
  for (uint64_t salt = 0; salt < 4; ++salt) {
    const std::vector<NodeId> a = Draw(1500, salt, 0, 5000);
    const std::vector<NodeId> b = Draw(1400, salt + 100, 0, 5000);
    ExpectAllVariantsMatch(a, b, "large-random");
  }
}

// ---------------------------------------------------------------- words ---

TEST(WordPrimitiveByteIdentityTest, AndPopcountAllLevels) {
  std::mt19937_64 rng(0xC0DE);
  for (size_t words : {0u, 1u, 3u, 4u, 7u, 8u, 9u, 16u, 63u, 64u, 65u}) {
    std::vector<uint64_t> a(words), b(words);
    for (auto& w : a) w = rng();
    for (auto& w : b) w = rng();
    std::vector<uint64_t> want_out(words);
    const Count want =
        AndPopcountScalar(a.data(), b.data(), want_out.data(), words);
    for (SimdLevel level : AvailableLevels()) {
      LevelOverrideGuard guard(level);
      std::vector<uint64_t> out(words, ~uint64_t{0});
      const Count got = AndPopcountWords(a.data(), b.data(), out.data(), words);
      EXPECT_EQ(got, want) << "words=" << words << " @"
                           << SimdLevelName(level);
      EXPECT_EQ(out, want_out) << "words=" << words << " @"
                               << SimdLevelName(level);
      // The documented aliasing allowance: out == a (the kernel's
      // cand &= row runs in place).
      std::vector<uint64_t> in_place = a;
      const Count got2 =
          AndPopcountWords(in_place.data(), b.data(), in_place.data(), words);
      EXPECT_EQ(got2, want) << "in-place words=" << words;
      EXPECT_EQ(in_place, want_out) << "in-place words=" << words;
    }
  }
}

TEST(WordPrimitiveByteIdentityTest, PopcountAllLevels) {
  std::mt19937_64 rng(0xFACE);
  for (size_t n : {0u, 1u, 5u, 8u, 12u, 64u, 100u}) {
    std::vector<uint64_t> words(n);
    for (auto& w : words) w = rng();
    const Count want = PopcountScalar(words.data(), n);
    for (SimdLevel level : AvailableLevels()) {
      LevelOverrideGuard guard(level);
      EXPECT_EQ(PopcountWords(words.data(), n), want)
          << "n=" << n << " @" << SimdLevelName(level);
    }
  }
  // All-ones / all-zeros saturate the nibble LUT accumulator paths.
  std::vector<uint64_t> ones(64, ~uint64_t{0});
  std::vector<uint64_t> zeros(64, 0);
  for (SimdLevel level : AvailableLevels()) {
    LevelOverrideGuard guard(level);
    EXPECT_EQ(PopcountWords(ones.data(), ones.size()), Count{64 * 64});
    EXPECT_EQ(PopcountWords(zeros.data(), zeros.size()), Count{0});
  }
}

TEST(WordPrimitiveByteIdentityTest, GatherValidAllLevels) {
  std::mt19937_64 rng(0xBEEF);
  constexpr uint32_t kEpoch = 7;
  constexpr size_t kUniverse = 512;
  std::vector<uint32_t> stamps(kUniverse);
  std::vector<NodeId> local_of(kUniverse);
  for (size_t v = 0; v < kUniverse; ++v) {
    stamps[v] = (rng() % 3 == 0) ? kEpoch : static_cast<uint32_t>(rng() % 6);
    local_of[v] = static_cast<NodeId>(rng() % 4096);
  }
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 40u, 100u}) {
    std::vector<NodeId> nbrs(n);
    for (auto& x : nbrs) x = static_cast<NodeId>(rng() % kUniverse);
    std::vector<NodeId> want(n, 0);
    const size_t want_n = GatherValidScalar(nbrs.data(), n, stamps.data(),
                                            kEpoch, local_of.data(),
                                            want.data());
    want.resize(want_n);
    for (SimdLevel level : AvailableLevels()) {
      LevelOverrideGuard guard(level);
      std::vector<NodeId> got(n, 0);
      const size_t got_n =
          GatherValidLocalIds(nbrs.data(), n, stamps.data(), kEpoch,
                              local_of.data(), got.data());
      got.resize(got_n);
      EXPECT_EQ(got, want) << "n=" << n << " @" << SimdLevelName(level);
    }
  }
  // All-invalid and all-valid blocks (the mask==0 skip and the full
  // left-pack).
  std::vector<NodeId> nbrs(32);
  for (size_t i = 0; i < nbrs.size(); ++i) {
    nbrs[i] = static_cast<NodeId>(i);
  }
  std::vector<uint32_t> none(kUniverse, 0), every(kUniverse, kEpoch);
  for (SimdLevel level : AvailableLevels()) {
    LevelOverrideGuard guard(level);
    std::vector<NodeId> out(nbrs.size(), 0);
    EXPECT_EQ(GatherValidLocalIds(nbrs.data(), nbrs.size(), none.data(),
                                  kEpoch, local_of.data(), out.data()),
              0u);
    EXPECT_EQ(GatherValidLocalIds(nbrs.data(), nbrs.size(), every.data(),
                                  kEpoch, local_of.data(), out.data()),
              nbrs.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(out[i], local_of[i]) << i;
    }
  }
}

// ------------------------------------------------------------- dispatch ---

TEST(SimdDispatchTest, OverrideClampsAndRestores) {
  const SimdLevel cpu = CpuSimdLevel();
  SetSimdLevelOverride(SimdLevel::kAvx2);
  EXPECT_LE(ActiveSimdLevel(), cpu);  // never above the host's capability
  SetSimdLevelOverride(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  ClearSimdLevelOverride();
  EXPECT_LE(ActiveSimdLevel(), cpu);
#if defined(DKC_PORTABLE)
  EXPECT_EQ(cpu, SimdLevel::kScalar);
#endif
}

TEST(SimdDispatchTest, LevelNamesRoundTrip) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kSse42), "sse4.2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
}

// ------------------------------------------------------------- aliasing ---

// Regression for the aliasing contract (the bug class this PR's sweep was
// chartered to close): out sharing storage with an input reads freed or
// clobbered memory once the implementation resizes out. Debug builds must
// refuse loudly rather than return garbage.
#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(IntersectAliasingDeathTest, OutAliasingInputAsserts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  std::vector<NodeId> buf = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::span<const NodeId> view(buf.data(), 4);
  std::vector<NodeId> other = {2, 4, 6, 8};
  EXPECT_DEATH(IntersectSorted(view, other, &buf), "must not alias");
  EXPECT_DEATH(IntersectSorted(other, view, &buf), "must not alias");
}
#endif  // !NDEBUG && GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace dkc
