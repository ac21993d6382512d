/**
 * @file
 * Unit tests for the common utilities: RNG, saturating counter,
 * histogram, the mixing hash, and the x-smt-lz transfer codec.
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/lz.hh"
#include "common/ring.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"

namespace smt
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next64() == b.next64();
    EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(7);
    const std::uint64_t first = a.next64();
    a.next64();
    a.reseed(7);
    EXPECT_EQ(a.next64(), first);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng r(4);
    bool hit_lo = false;
    bool hit_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = r.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        hit_lo |= v == 5;
        hit_hi |= v == 8;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(5);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(6);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GeometricMeanApproximatelyRight)
{
    Rng r(8);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const unsigned v = r.geometric(4.0);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, 64u);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 4.0, 0.3);
}

TEST(Rng, GeometricMeanOneIsAlwaysOne)
{
    Rng r(9);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.geometric(1.0), 1u);
}

TEST(Mix64, InjectiveishAndStable)
{
    EXPECT_EQ(mix64(12345), mix64(12345));
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.insert(mix64(i));
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(SatCounter, SaturatesAtBothEnds)
{
    SatCounter c(2, 0);
    EXPECT_EQ(c.value(), 0);
    c.decrement();
    EXPECT_EQ(c.value(), 0);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3);
    c.increment();
    EXPECT_EQ(c.value(), 3);
}

TEST(SatCounter, IsSetThreshold)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.isSet()); // 0
    c.increment();
    EXPECT_FALSE(c.isSet()); // 1 (weakly not taken)
    c.increment();
    EXPECT_TRUE(c.isSet()); // 2 (weakly taken)
    c.increment();
    EXPECT_TRUE(c.isSet()); // 3
}

TEST(SatCounter, OneBitCounter)
{
    SatCounter c(1, 0);
    EXPECT_FALSE(c.isSet());
    c.increment();
    EXPECT_TRUE(c.isSet());
    EXPECT_EQ(c.max(), 1);
}

TEST(Histogram, MeanAndBuckets)
{
    Histogram h(8);
    h.sample(1);
    h.sample(3);
    h.sample(3);
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 7.0 / 3.0);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
}

TEST(Histogram, OverflowLandsInLastBucket)
{
    Histogram h(4);
    h.sample(100);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.samples(), 1u);
}

TEST(Histogram, WeightedSamples)
{
    Histogram h(4);
    h.sample(2, 5);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Percentile, NearestRankOfASortedSample)
{
    const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_EQ(percentile(ten, 0.0), 1.0);
    EXPECT_EQ(percentile(ten, 50.0), 5.0);
    EXPECT_EQ(percentile(ten, 90.0), 9.0);
    EXPECT_EQ(percentile(ten, 99.0), 10.0);
    EXPECT_EQ(percentile(ten, 100.0), 10.0);
    EXPECT_EQ(percentile({7.5}, 50.0), 7.5);
    EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Histogram, ResetClears)
{
    Histogram h(4);
    h.sample(1);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Ring, MatchesADequeAcrossWrapAndGrowth)
{
    // Random pushes and pops from both ends, against std::deque: the
    // contents, front/back and indexed reads agree through every wrap
    // of the head and every doubling (which relinearizes).
    Ring<int> ring(4);
    std::deque<int> ref;
    Rng rng(7);
    int next = 0;
    for (int step = 0; step < 20000; ++step) {
        const unsigned op = static_cast<unsigned>(rng.below(10));
        if (op < 5 || ref.empty()) {
            ring.push_back(next);
            ref.push_back(next++);
        } else if (op < 8) {
            ring.pop_front();
            ref.pop_front();
        } else {
            ring.pop_back();
            ref.pop_back();
        }
        ASSERT_EQ(ring.size(), ref.size());
        ASSERT_EQ(ring.empty(), ref.empty());
        if (!ref.empty()) {
            ASSERT_EQ(ring.front(), ref.front());
            ASSERT_EQ(ring.back(), ref.back());
            const std::size_t i = rng.below(ref.size());
            ASSERT_EQ(ring[i], ref[i]);
        }
        const std::size_t cap = ring.capacity();
        ASSERT_EQ(cap & (cap - 1), 0u);
    }
    std::vector<int> seen(ring.begin(), ring.end());
    EXPECT_EQ(seen, std::vector<int>(ref.begin(), ref.end()));
}

TEST(Ring, StopsAllocatingAtItsHighWaterMark)
{
    Ring<int> ring;
    EXPECT_EQ(ring.capacity(), 0u); // nothing allocated until used.
    for (int i = 0; i < 100; ++i)
        ring.push_back(i);
    const std::size_t cap = ring.capacity();
    EXPECT_GE(cap, 100u);
    // A steady-state FIFO no deeper than the high-water mark never
    // grows the buffer, however far the head travels.
    for (int i = 0; i < 100000; ++i) {
        ring.pop_front();
        ring.push_back(i);
    }
    EXPECT_EQ(ring.capacity(), cap);
    EXPECT_EQ(ring.front(), 100000 - 100);
}

TEST(Lz, RoundTripsRepresentativeInputs)
{
    std::vector<std::string> inputs = {
        "",
        "x",
        "ab",
        "abc",
        std::string(10000, 'a'), // overlapping-copy run-length case.
        "no repeats here at all: 0123456789!@#$%^&*()",
    };
    // A cache-entry-shaped JSON body, the codec's actual workload.
    std::string entry = "{\n  \"digest\": \"0123456789abcdef\",\n";
    for (int i = 0; i < 200; ++i)
        entry += "  \"committedInstructions." + std::to_string(i)
                 + "\": " + std::to_string(i * 977) + ",\n";
    entry += "  \"cycles\": 123456789\n}\n";
    inputs.push_back(entry);
    // Incompressible noise must still round-trip (it just grows).
    Rng rng(1234);
    std::string noise;
    for (int i = 0; i < 4096; ++i)
        noise.push_back(static_cast<char>(rng.next64() & 0xff));
    inputs.push_back(noise);

    for (const std::string &in : inputs) {
        const std::string packed = lzCompress(in);
        const std::optional<std::string> out =
            lzDecompress(packed, in.size());
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(*out, in);
    }
}

TEST(Lz, CompressesTheProtocolsJsonSeveralFold)
{
    std::string entry;
    for (int i = 0; i < 100; ++i)
        entry += "      \"histogramBucket\": 1234567,\n";
    const std::string packed = lzCompress(entry);
    EXPECT_LT(packed.size(), entry.size() / 3);
}

TEST(Lz, MalformedStreamsDecodeToNothing)
{
    const std::string input =
        "the quick brown fox jumps over the lazy dog; "
        "the quick brown fox jumps over the lazy dog";
    const std::string packed = lzCompress(input);

    // Not an SLZ stream at all.
    EXPECT_FALSE(lzDecompress("plainly not compressed", 1 << 20)
                     .has_value());
    EXPECT_FALSE(lzDecompress("", 1 << 20).has_value());

    // Every truncation must fail cleanly — a prefix can never decode
    // to the full declared size.
    for (std::size_t cut = 0; cut < packed.size(); ++cut)
        EXPECT_FALSE(lzDecompress(packed.substr(0, cut), 1 << 20)
                         .has_value());

    // Trailing garbage is corruption, not slack.
    EXPECT_FALSE(lzDecompress(packed + "x", 1 << 20).has_value());

    // A declared size above the cap is rejected before any decode.
    EXPECT_FALSE(lzDecompress(packed, input.size() - 1).has_value());

    // Flipped bytes anywhere must decode to nothing or to *different*
    // bytes — never crash, and never silently reproduce the input.
    // (The protocol layers a content digest on top for exactly the
    // "different bytes" case.)
    for (std::size_t i = 4; i < packed.size(); ++i) {
        std::string bent = packed;
        bent[i] = static_cast<char>(bent[i] ^ 0x5a);
        const std::optional<std::string> out =
            lzDecompress(bent, 1 << 20);
        if (out.has_value()) {
            EXPECT_NE(*out, input);
        }
    }
}

} // namespace
} // namespace smt
