/**
 * @file
 * Unit tests for FlatMap (src/common/flat_map.hh): edge keys, probe
 * chains that wrap past the last slot, growth, clear-and-reuse,
 * forEach coverage, the sentinel contract, and a randomized
 * differential test against std::unordered_map at fixed seeds.
 */

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_map.hh"
#include "common/rng.hh"

namespace carve {
namespace {

/** Home slot of @p key in a fresh 16-slot table: the top four bits
 * of the table's Fibonacci hash. */
std::size_t
homeSlotOf16(Addr key)
{
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 60);
}

TEST(FlatMap, EmptyTableFindsNothing)
{
    FlatMap<int> m;
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(0), nullptr);
    EXPECT_EQ(m.find(invalid_addr), nullptr);
    const FlatMap<int> &cm = m;
    EXPECT_EQ(cm.find(42), nullptr);
}

TEST(FlatMap, EdgeKeysRoundTrip)
{
    FlatMap<std::uint64_t> m;
    const std::vector<Addr> keys = {0, 1, invalid_addr - 1,
                                    invalid_addr - 2, 1ull << 63};
    for (Addr k : keys) {
        const auto [v, inserted] = m.tryEmplace(k);
        EXPECT_TRUE(inserted) << k;
        EXPECT_EQ(*v, 0u) << "new values are value-initialized";
        *v = k ^ 0x5a5a;
    }
    EXPECT_EQ(m.size(), keys.size());
    for (Addr k : keys) {
        const std::uint64_t *v = m.find(k);
        ASSERT_NE(v, nullptr) << k;
        EXPECT_EQ(*v, k ^ 0x5a5a);
        EXPECT_FALSE(m.tryEmplace(k).second) << k;
    }
    // The sentinel is never a key, even though empty slots hold it.
    EXPECT_EQ(m.find(invalid_addr), nullptr);
    EXPECT_EQ(m.find(2), nullptr);
}

TEST(FlatMap, ProbeChainWrapsPastTheLastSlot)
{
    // Three keys whose home is the last of 16 slots land in slots 15,
    // 0 and 1; three stays under the 3/4 load bound, so no growth.
    std::vector<Addr> last;
    for (Addr k = 0; last.size() < 3; ++k) {
        if (homeSlotOf16(k) == 15)
            last.push_back(k);
    }
    FlatMap<Addr> m;
    for (Addr k : last)
        m[k] = k + 1;

    for (Addr k : last) {
        ASSERT_NE(m.find(k), nullptr) << k;
        EXPECT_EQ(*m.find(k), k + 1);
    }
    // Slot order shows the wrap: the two displaced keys sit at the
    // front of the table, the first one at the very end.
    std::vector<Addr> order;
    m.forEach([&order](Addr k, Addr) { order.push_back(k); });
    EXPECT_EQ(order, (std::vector<Addr>{last[1], last[2], last[0]}));

    // A missing key with the same home walks the whole wrapped chain.
    Addr absent = last.back() + 1;
    while (homeSlotOf16(absent) != 15)
        ++absent;
    EXPECT_EQ(m.find(absent), nullptr);
}

TEST(FlatMap, GrowthKeepsEveryEntry)
{
    FlatMap<std::uint64_t> m;
    constexpr Addr n = 100000;
    for (Addr k = 0; k < n; ++k) {
        m[k * 128] = k;
        // Values written before earlier growth steps survive them.
        if ((k & (k - 1)) == 0) {
            for (Addr j = 0; j <= k; j += 1 + k / 64)
                ASSERT_EQ(*m.find(j * 128), j);
        }
    }
    EXPECT_EQ(m.size(), n);
    for (Addr k = 0; k < n; ++k) {
        const std::uint64_t *v = m.find(k * 128);
        ASSERT_NE(v, nullptr) << k;
        EXPECT_EQ(*v, k);
    }
    EXPECT_EQ(m.find(n * 128), nullptr);
}

TEST(FlatMap, ClearThenReuse)
{
    FlatMap<int> m;
    for (Addr k = 0; k < 1000; ++k)
        m[k] = 7;
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    for (Addr k = 0; k < 1000; ++k)
        EXPECT_EQ(m.find(k), nullptr);
    int visits = 0;
    m.forEach([&visits](Addr, int) { ++visits; });
    EXPECT_EQ(visits, 0);

    // Re-inserted keys start from a fresh value, not the stale one.
    const auto [v, inserted] = m.tryEmplace(5);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*v, 0);
    m[2000] = 3;
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(*m.find(2000), 3);
    EXPECT_EQ(m.find(6), nullptr);
}

TEST(FlatMap, ForEachVisitsEachLiveKeyOnce)
{
    FlatMap<int> m;
    Rng rng(3);
    std::unordered_map<Addr, int> want;
    for (int i = 0; i < 5000; ++i) {
        const Addr k = rng.below(1u << 20) << 7;
        m[k] += 1;
        want[k] += 1;
    }
    std::unordered_map<Addr, int> seen;
    m.forEach([&seen](Addr k, int v) {
        EXPECT_TRUE(seen.emplace(k, v).second) << "visited twice: " << k;
    });
    EXPECT_EQ(seen, want);

    // The mutable walk reaches every stored value.
    m.forEach([](Addr, int &v) { v = -v; });
    for (const auto &[k, v] : want)
        EXPECT_EQ(*m.find(k), -v);
}

TEST(FlatMap, ReserveKeepsEntriesAndAllowsReuse)
{
    FlatMap<int> m;
    m.reserve(0);
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(1), nullptr);
    for (Addr k = 0; k < 100; ++k)
        m[k] = static_cast<int>(k);
    m.reserve(50);  // smaller than the table: a no-op
    m.reserve(100000);
    EXPECT_EQ(m.size(), 100u);
    for (Addr k = 0; k < 100; ++k) {
        ASSERT_NE(m.find(k), nullptr) << k;
        EXPECT_EQ(*m.find(k), static_cast<int>(k));
    }
    for (Addr k = 100; k < 100000; ++k)
        m[k] = static_cast<int>(k);
    EXPECT_EQ(m.size(), 100000u);
    EXPECT_EQ(*m.find(99999), 99999);
}

TEST(FlatMap, CopyingAWalkIntoAnEmptyTableIsLinear)
{
    // A walk visits keys in hash order. Copied into an empty table
    // that grew step by step, they would pile into one probe run and
    // take hundreds of times longer (over 15 s at this size on a
    // 4-vCPU Xeon VM); after reserve() they take tens of ms.
    constexpr Addr n = 700000;
    FlatMap<Addr> from;
    for (Addr k = 0; k < n; ++k)
        from[k * 128] = k;

    const auto start = std::chrono::steady_clock::now();
    FlatMap<Addr> into;
    into.reserve(from.size());
    from.forEach([&into](Addr k, Addr v) { into[k] = v; });
    const double secs = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();

    EXPECT_EQ(into.size(), n);
    for (Addr k = 0; k < n; k += 997)
        EXPECT_EQ(*into.find(k * 128), k);
    EXPECT_LT(secs, 4.0) << "the copy took " << secs << " s";
}

TEST(FlatMapDeathTest, InsertingTheSentinelIsFatal)
{
    FlatMap<int> m;
    EXPECT_DEATH(m.tryEmplace(invalid_addr), "key != invalid_addr");
    m[1] = 1;
    EXPECT_DEATH(m[invalid_addr] = 2, "key != invalid_addr");
}

/** Draw a key: mostly from small line- and page-aligned domains, so
 * finds and re-inserts hit, plus edge and arbitrary 64-bit keys. */
Addr
drawKey(Rng &rng)
{
    switch (rng.below(6)) {
      case 0: return rng.below(512);
      case 1: return rng.below(4096) * 128;
      case 2: return rng.below(64) << 21;
      case 3: return invalid_addr - 1 - rng.below(8);
      case 4: return rng.below(8);
      default: {
        const Addr k = rng.next();
        return k == invalid_addr ? 0 : k;
      }
    }
}

class FlatMapDifferential : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FlatMapDifferential, MatchesUnorderedMap)
{
    Rng rng(GetParam());
    FlatMap<std::uint64_t> m;
    std::unordered_map<Addr, std::uint64_t> oracle;

    for (int op = 0; op < 100000; ++op) {
        const std::uint64_t dice = rng.below(10000);
        const Addr k = drawKey(rng);
        if (dice == 0) {
            m.clear();
            oracle.clear();
        } else if (dice < 5000) {
            const auto [v, inserted] = m.tryEmplace(k);
            const auto [it, oracle_inserted] = oracle.try_emplace(k, 0);
            ASSERT_EQ(inserted, oracle_inserted) << "op " << op;
            ASSERT_EQ(*v, it->second) << "op " << op;
            *v += static_cast<std::uint64_t>(op);
            it->second += static_cast<std::uint64_t>(op);
        } else {
            const std::uint64_t *v = m.find(k);
            const auto it = oracle.find(k);
            ASSERT_EQ(v != nullptr, it != oracle.end()) << "op " << op;
            if (v) {
                ASSERT_EQ(*v, it->second) << "op " << op;
            }
        }
        ASSERT_EQ(m.size(), oracle.size()) << "op " << op;
    }

    std::unordered_map<Addr, std::uint64_t> walked;
    m.forEach([&walked](Addr k, std::uint64_t v) { walked.emplace(k, v); });
    EXPECT_EQ(walked, oracle);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatMapDifferential,
                         ::testing::Values(1u, 2u, 1001u));

} // namespace
} // namespace carve
