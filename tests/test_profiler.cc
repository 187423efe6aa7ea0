/** @file Unit tests for the sharing profiler (Figure 4/5 analysis). */

#include <chrono>

#include <gtest/gtest.h>

#include "common/units.hh"
#include "numa/sharing_profiler.hh"

namespace carve {
namespace {

constexpr std::uint64_t page = 2 * MiB;
constexpr std::uint64_t line = 128;

TEST(Profiler, SingleNodeIsPrivate)
{
    SharingProfiler p(page, line);
    p.record(0x100, 0, AccessType::Read);
    p.record(0x100, 0, AccessType::Write);
    EXPECT_EQ(p.pageClass(0x100), SharingClass::Private);
    EXPECT_EQ(p.lineClass(0x100), SharingClass::Private);
    EXPECT_EQ(p.pageBreakdown().private_accesses, 2u);
    EXPECT_EQ(p.sharedPageFootprint(), 0u);
}

TEST(Profiler, TwoReadersAreReadOnlyShared)
{
    SharingProfiler p(page, line);
    p.record(0x100, 0, AccessType::Read);
    p.record(0x100, 1, AccessType::Read);
    EXPECT_EQ(p.pageClass(0x100), SharingClass::ReadOnlyShared);
    EXPECT_EQ(p.lineClass(0x100), SharingClass::ReadOnlyShared);
    EXPECT_EQ(p.sharedPageFootprint(), page);
    EXPECT_EQ(p.sharedLineFootprint(), line);
}

TEST(Profiler, SharedWithAnyWriteIsReadWriteShared)
{
    SharingProfiler p(page, line);
    p.record(0x100, 0, AccessType::Read);
    p.record(0x100, 1, AccessType::Write);
    EXPECT_EQ(p.pageClass(0x100), SharingClass::ReadWriteShared);
}

TEST(Profiler, FalseSharingDivergesAcrossGranularities)
{
    // The paper's core observation: two nodes write *different lines*
    // of the same page. The page is read-write shared; every line is
    // private.
    SharingProfiler p(page, line);
    p.record(0 * line, 0, AccessType::Write);
    p.record(1 * line, 1, AccessType::Write);
    p.record(2 * line, 0, AccessType::Read);
    p.record(3 * line, 1, AccessType::Read);
    EXPECT_EQ(p.pageClass(0), SharingClass::ReadWriteShared);
    EXPECT_EQ(p.lineClass(0 * line), SharingClass::Private);
    EXPECT_EQ(p.lineClass(1 * line), SharingClass::Private);

    const SharingBreakdown pages = p.pageBreakdown();
    const SharingBreakdown lines = p.lineBreakdown();
    EXPECT_DOUBLE_EQ(pages.fracReadWriteShared(), 1.0);
    EXPECT_DOUBLE_EQ(lines.fracPrivate(), 1.0);
    EXPECT_EQ(p.sharedPageFootprint(), page);
    EXPECT_EQ(p.sharedLineFootprint(), 0u);
}

TEST(Profiler, BreakdownWeightsByAccessCount)
{
    SharingProfiler p(page, line);
    // 3 accesses to a private page, 1 to a shared one.
    for (int i = 0; i < 3; ++i)
        p.record(0, 0, AccessType::Read);
    p.record(10 * page, 0, AccessType::Read);
    p.record(10 * page, 1, AccessType::Read);
    const SharingBreakdown b = p.pageBreakdown();
    EXPECT_EQ(b.private_accesses, 3u);
    EXPECT_EQ(b.read_only_shared, 2u);
    EXPECT_DOUBLE_EQ(b.fracPrivate(), 0.6);
    EXPECT_DOUBLE_EQ(b.fracReadOnlyShared(), 0.4);
}

TEST(Profiler, FootprintCountsDistinctTouchedPages)
{
    SharingProfiler p(page, line);
    p.record(0, 0, AccessType::Read);
    p.record(page + 5, 0, AccessType::Read);
    p.record(7 * page, 1, AccessType::Read);
    EXPECT_EQ(p.totalPageFootprint(), 3 * page);
    EXPECT_EQ(p.trackedPages(), 3u);
}

TEST(Profiler, DisabledGranularitiesTrackNothing)
{
    SharingProfiler p(page, line, /* pages */ true, /* lines */ false);
    p.record(0x100, 0, AccessType::Read);
    EXPECT_EQ(p.trackedLines(), 0u);
    EXPECT_EQ(p.trackedPages(), 1u);
    EXPECT_EQ(p.lineBreakdown().total(), 0u);
}

TEST(Profiler, UntouchedAddressDefaultsToPrivate)
{
    SharingProfiler p(page, line);
    EXPECT_EQ(p.pageClass(0xDEAD000), SharingClass::Private);
}

TEST(Profiler, AbsorbMergesCountsAndMasks)
{
    SharingProfiler a(page, line);
    SharingProfiler b(page, line);
    a.record(0x100, 0, AccessType::Read);
    b.record(0x100, 1, AccessType::Read);
    b.record(0x100, 1, AccessType::Read);
    b.record(page + 0x100, 2, AccessType::Write);
    a.absorb(b);
    EXPECT_EQ(b.trackedPages(), 0u);
    EXPECT_EQ(b.trackedLines(), 0u);
    EXPECT_EQ(a.trackedPages(), 2u);
    EXPECT_EQ(a.lineClass(0x100), SharingClass::ReadOnlyShared);
    EXPECT_EQ(a.lineBreakdown().read_only_shared, 3u);
    EXPECT_EQ(a.lineClass(page + 0x100), SharingClass::Private);
    EXPECT_EQ(a.lineBreakdown().private_accesses, 1u);
}

TEST(Profiler, AbsorbingALargeShardIsLinear)
{
    // A shard's lines come out of its table in hash order. Merged
    // into a small table that grew step by step, they would pile into
    // one probe run (over 15 s at this size on a 4-vCPU Xeon VM);
    // absorb() sizes the table first.
    constexpr std::uint64_t lines = 700000;
    SharingProfiler shard(page, line);
    for (std::uint64_t i = 0; i < lines; ++i) {
        shard.record(i * line, static_cast<NodeId>(i % 3),
                     AccessType::Read);
    }
    SharingProfiler total(page, line);
    total.record(lines * line, 5, AccessType::Write);

    const auto start = std::chrono::steady_clock::now();
    total.absorb(shard);
    const double secs = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();

    EXPECT_EQ(total.trackedLines(), lines + 1);
    EXPECT_EQ(total.lineBreakdown().private_accesses, lines + 1);
    EXPECT_EQ(total.pageBreakdown().total(), lines + 1);
    EXPECT_EQ(shard.trackedLines(), 0u);
    EXPECT_EQ(shard.trackedPages(), 0u);
    EXPECT_LT(secs, 4.0) << "absorb took " << secs << " s";

    // An empty profiler takes a shard's tables over whole.
    SharingProfiler empty(page, line);
    empty.absorb(total);
    EXPECT_EQ(empty.trackedLines(), lines + 1);
    EXPECT_EQ(empty.lineBreakdown().private_accesses, lines + 1);
    EXPECT_EQ(empty.lineClass(lines * line), SharingClass::Private);
    EXPECT_EQ(total.trackedLines(), 0u);
}

TEST(Profiler, EmptyBreakdownFractionsAreZero)
{
    SharingBreakdown b;
    EXPECT_DOUBLE_EQ(b.fracPrivate(), 0.0);
    EXPECT_DOUBLE_EQ(b.fracReadOnlyShared(), 0.0);
    EXPECT_DOUBLE_EQ(b.fracReadWriteShared(), 0.0);
}

} // namespace
} // namespace carve
