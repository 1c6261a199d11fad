// Tests for the ℓ₀-sampler (Theorem 2.1): correctness of samples, deletion
// handling, merge linearity, and uniformity over the support.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/hash/random.h"
#include "src/sketch/l0_sampler.h"

namespace gsketch {
namespace {

TEST(L0Sampler, EmptyVectorYieldsNoSample) {
  L0Sampler s(1000, 8, 1);
  EXPECT_TRUE(s.IsZero());
  EXPECT_FALSE(s.Sample().has_value());
}

TEST(L0Sampler, SampleComesFromSupportWithExactValue) {
  L0Sampler s(10000, 8, 3);
  std::map<uint64_t, int64_t> truth;
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    uint64_t idx = rng.Below(10000);
    int64_t delta = static_cast<int64_t>(rng.Below(5)) + 1;
    truth[idx] += delta;
    s.Update(idx, delta);
  }
  auto r = s.Sample();
  ASSERT_TRUE(r.has_value());
  auto it = truth.find(r->index);
  ASSERT_NE(it, truth.end());
  EXPECT_EQ(r->value, it->second);
}

TEST(L0Sampler, DeletionsShrinkSupportToSurvivor) {
  L0Sampler s(5000, 8, 9);
  for (uint64_t i = 0; i < 100; ++i) s.Update(i * 7, 1);
  for (uint64_t i = 0; i < 100; ++i) {
    if (i != 42) s.Update(i * 7, -1);
  }
  auto r = s.Sample();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->index, 42u * 7);
  EXPECT_EQ(r->value, 1);
}

TEST(L0Sampler, FullCancellationIsZero) {
  L0Sampler s(5000, 6, 10);
  for (uint64_t i = 0; i < 64; ++i) s.Update(i, 2);
  for (uint64_t i = 0; i < 64; ++i) s.Update(i, -2);
  EXPECT_TRUE(s.IsZero());
  EXPECT_FALSE(s.Sample().has_value());
}

TEST(L0Sampler, MergeEqualsSingleStream) {
  L0Sampler a(4096, 6, 77), b(4096, 6, 77), whole(4096, 6, 77);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    uint64_t idx = rng.Below(4096);
    if (i % 2 == 0) {
      a.Update(idx, 1);
    } else {
      b.Update(idx, 1);
    }
    whole.Update(idx, 1);
  }
  a.Merge(b);
  auto ra = a.Sample(), rw = whole.Sample();
  ASSERT_EQ(ra.has_value(), rw.has_value());
  if (ra.has_value()) {
    // Identical linear measurements => identical decode.
    EXPECT_EQ(ra->index, rw->index);
    EXPECT_EQ(ra->value, rw->value);
  }
}

TEST(L0Sampler, SeedDeterminism) {
  L0Sampler a(1024, 5, 123), b(1024, 5, 123);
  for (uint64_t i = 0; i < 50; ++i) {
    a.Update(i * 3, 1);
    b.Update(i * 3, 1);
  }
  auto ra = a.Sample(), rb = b.Sample();
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(ra->index, rb->index);
}

TEST(L0Sampler, SuccessRateHighAcrossSeeds) {
  int success = 0;
  constexpr int kTrials = 100;
  for (int t = 0; t < kTrials; ++t) {
    L0Sampler s(1 << 16, 8, 1000 + t);
    Rng rng(t);
    for (int i = 0; i < 500; ++i) s.Update(rng.Below(1 << 16), 1);
    if (s.Sample().has_value()) ++success;
  }
  // 8 repetitions: failure probability should be well under 10%.
  EXPECT_GE(success, 95);
}

TEST(L0Sampler, UniformityChiSquaredOverSmallSupport) {
  // Fixed 8-element support; sample once per seed. Chi-squared with 7 dof:
  // 99.9% critical value ~ 24.3; allow 30 for slack.
  constexpr int kSupport = 8;
  constexpr int kTrials = 800;
  std::map<uint64_t, int> counts;
  int success = 0;
  for (int t = 0; t < kTrials; ++t) {
    L0Sampler s(1 << 12, 6, 5000 + t);
    for (int i = 0; i < kSupport; ++i) {
      s.Update(static_cast<uint64_t>(100 + i * 37), 1);
    }
    auto r = s.Sample();
    if (!r.has_value()) continue;
    ++success;
    counts[r->index]++;
  }
  ASSERT_GT(success, kTrials / 2);
  double expected = static_cast<double>(success) / kSupport;
  double chi2 = 0;
  for (int i = 0; i < kSupport; ++i) {
    double got = counts[static_cast<uint64_t>(100 + i * 37)];
    chi2 += (got - expected) * (got - expected) / expected;
  }
  EXPECT_LT(chi2, 30.0) << "support sampling far from uniform";
}

// Parameterized sweep: samplers across domains and support sizes always
// return true support members with exact values.
class L0SamplerSweep : public ::testing::TestWithParam<
                           std::tuple<uint64_t, int, uint32_t>> {};

TEST_P(L0SamplerSweep, SampleInSupport) {
  auto [domain, support, reps] = GetParam();
  L0Sampler s(domain, reps, domain * 31 + support);
  std::set<uint64_t> truth;
  Rng rng(support);
  while (truth.size() < static_cast<size_t>(support)) {
    truth.insert(rng.Below(domain));
  }
  for (uint64_t idx : truth) s.Update(idx, 3);
  auto r = s.Sample();
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(truth.count(r->index) > 0);
  EXPECT_EQ(r->value, 3);
}

INSTANTIATE_TEST_SUITE_P(
    DomainsAndSupports, L0SamplerSweep,
    ::testing::Combine(::testing::Values<uint64_t>(64, 4096, 1 << 20),
                       ::testing::Values(1, 5, 40),
                       ::testing::Values<uint32_t>(4, 8)));

}  // namespace
}  // namespace gsketch
