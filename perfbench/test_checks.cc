/**
 * @file
 * Each output check of the benchmark passes on the right value and
 * fires on a deliberately wrong one: a flipped resolution, a byte
 * count off by one, a perturbed logit, a lost terminal.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "perfbench/checks.hh"

using namespace perfbench;

namespace {

const std::vector<int> kGrid = {112, 168, 224, 280, 336, 392, 448};

TEST(Checks, DecisionFiresOnFlippedResolution)
{
    const ExpectedDecision want{3, 4};
    EXPECT_EQ(checkDecision({3, 280, 4}, want, kGrid), "");
    EXPECT_NE(checkDecision({4, 336, 4}, want, kGrid), "");
    // Index and pixels must agree with each other as well.
    EXPECT_NE(checkDecision({3, 336, 4}, want, kGrid), "");
}

TEST(Checks, DecisionFiresOnWrongDepth)
{
    const ExpectedDecision want{3, 4};
    EXPECT_NE(checkDecision({3, 280, 5}, want, kGrid), "");
    EXPECT_NE(checkDecision({3, 280, 3}, want, kGrid), "");
}

TEST(Checks, RequestBytesFireOffByOne)
{
    EXPECT_EQ(checkRequestBytes(1000, 1000), "");
    EXPECT_NE(checkRequestBytes(1001, 1000), "");
    EXPECT_NE(checkRequestBytes(999, 1000), "");
}

TEST(Checks, ByteMetersFireOffByOne)
{
    EXPECT_EQ(checkByteMeters(5000, 5000, 5000, 0), "");
    EXPECT_NE(checkByteMeters(4999, 5000, 5000, 0), "");
    EXPECT_NE(checkByteMeters(5001, 5000, 5000, 0), "");
    EXPECT_NE(checkByteMeters(5000, 5001, 5000, 0), "");
    // A hedge loser may move store bytes no request carries...
    EXPECT_EQ(checkByteMeters(4900, 5000, 5000, 100), "");
    // ...but never more than the hedges allow.
    EXPECT_NE(checkByteMeters(4899, 5000, 5000, 100), "");
}

TEST(Checks, HedgeAllowanceIsTheLargerRangePerHedge)
{
    EXPECT_EQ(hedgeAllowance(0, 400, 1000), 0u);
    EXPECT_EQ(hedgeAllowance(1, 400, 1000), 600u); // tail [400, 1000)
    EXPECT_EQ(hedgeAllowance(1, 700, 1000), 700u); // preview [0, 700)
    EXPECT_EQ(hedgeAllowance(2, 700, 1000), 1400u);
    EXPECT_EQ(hedgeAllowance(1, 0, 1000), 1000u);  // static: one range
}

TEST(Checks, DeepHitSignatureOnlyMatchesTheCacheFault)
{
    // Cold 392 px at 5 scans; the deep hit decided 336 px on the cached
    // 5-scan prefix and was served there (336's schedule is 4 scans).
    const ServedDecision deep_hit{4, 336, 5};
    EXPECT_TRUE(isDeepHitDecision(deep_hit, 4, 4, 2, kGrid));
    // A flipped resolution the served depth does not explain fires.
    EXPECT_FALSE(isDeepHitDecision({3, 280, 5}, 4, 4, 2, kGrid));
    EXPECT_FALSE(isDeepHitDecision({4, 280, 5}, 4, 4, 2, kGrid));
    // So does a decision served short of its schedule...
    EXPECT_FALSE(isDeepHitDecision({4, 336, 3}, 4, 4, 2, kGrid));
    // ...or at the preview depth, which no deep entry explains.
    EXPECT_FALSE(isDeepHitDecision({0, 112, 2}, 0, 2, 2, kGrid));
}

TEST(Checks, BitwiseFiresOnPerturbedLogit)
{
    tamres::Tensor served({1, 1000});
    for (int64_t i = 0; i < served.numel(); ++i)
        served.data()[i] = 0.001f * static_cast<float>(i) - 0.3f;
    tamres::Tensor oracle = served.clone();
    EXPECT_EQ(checkBitwiseEqual(served, oracle), "");
    oracle.data()[517] = std::nextafter(oracle.data()[517], 1.0f);
    EXPECT_NE(checkBitwiseEqual(served, oracle), "");
    EXPECT_NE(checkBitwiseEqual(served, tamres::Tensor({1, 999})), "");
}

TEST(Checks, TerminalConservationFiresOnLostRequest)
{
    tamres::StagedStats s;
    s.admitted = 10;
    s.done = 8;
    s.degraded = 1;
    s.shed_admission = 1;
    EXPECT_EQ(checkTerminalConservation(s), "");
    s.done = 7;
    EXPECT_NE(checkTerminalConservation(s), "");
}

TEST(Checks, CacheConservationFiresOffByOne)
{
    tamres::DecodeCacheStats c;
    c.insertions = 20;
    c.entries = 5;
    c.evictions = 14;
    c.invalidations = 1;
    EXPECT_EQ(checkCacheConservation(c), "");
    c.evictions = 13;
    EXPECT_NE(checkCacheConservation(c), "");
}

TEST(Checks, DecisionSpread)
{
    EXPECT_EQ(checkDecisionSpread({224, 280, 336, 280}, 3, 0), "");
    EXPECT_NE(checkDecisionSpread({224, 280, 280}, 3, 0), "");
    EXPECT_EQ(checkDecisionSpread({224, 224}, 1, 224), "");
    EXPECT_NE(checkDecisionSpread({224, 280}, 1, 224), "");
}

} // namespace
