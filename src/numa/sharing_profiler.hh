/**
 * @file
 * Sharing profiler: classifies memory traffic as private, read-only
 * shared, or read-write shared at both OS-page (2 MB) and cacheline
 * (128 B) granularity — the analysis behind Figures 4 and 5 of the
 * paper, which show that most page-level read-write sharing is *false*
 * sharing that disappears at line granularity.
 *
 * Every access passes through record(), so the per-page and per-line
 * entries (an access count plus reader and writer node masks) live in
 * FlatMaps keyed by the aligned address. Entries are never removed
 * one at a time; absorb() empties a shard profiler whole. All
 * statistics are sums or counts over the entries, so they do not
 * depend on the tables' slot order.
 */

#ifndef CARVE_NUMA_SHARING_PROFILER_HH
#define CARVE_NUMA_SHARING_PROFILER_HH

#include <cstdint>
#include <limits>

#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace carve {

/** Sharing class of a page or line. */
enum class SharingClass : std::uint8_t {
    Private,
    ReadOnlyShared,
    ReadWriteShared,
};

/** Access counts bucketed by the final sharing class of the target. */
struct SharingBreakdown
{
    std::uint64_t private_accesses = 0;
    std::uint64_t read_only_shared = 0;
    std::uint64_t read_write_shared = 0;

    std::uint64_t
    total() const
    {
        return private_accesses + read_only_shared + read_write_shared;
    }

    /** Fraction helpers (0 when no accesses). */
    double fracPrivate() const;
    double fracReadOnlyShared() const;
    double fracReadWriteShared() const;
};

/**
 * Passive observer of every (post-coalescing) memory access.
 *
 * Classification is retrospective: a page/line's class is determined
 * by all nodes that ever touched it, and every access it received is
 * attributed to that final class — matching how the paper's trace
 * analysis buckets accesses.
 */
class SharingProfiler
{
  public:
    /**
     * @param page_size page granularity in bytes
     * @param line_size line granularity in bytes
     * @param track_pages enable page-granularity tracking
     * @param track_lines enable line-granularity tracking (costs
     *        memory proportional to touched lines)
     */
    SharingProfiler(std::uint64_t page_size, std::uint64_t line_size,
                    bool track_pages = true, bool track_lines = true);

    /** Record one access by @p node. */
    void record(Addr addr, NodeId node, AccessType type);

    /** Fold @p other's entries into this profiler and empty @p other,
     * freeing its tables.
     * Entry updates commute (counts sum, masks OR), so per-domain
     * shard profilers merged in any fixed order reproduce the counts
     * a single shared profiler would have accumulated. */
    void absorb(SharingProfiler &other);

    /** Access distribution at page granularity. */
    SharingBreakdown pageBreakdown() const;
    /** Access distribution at line granularity. */
    SharingBreakdown lineBreakdown() const;

    /** Bytes of pages touched by more than one node (Figure 5). */
    std::uint64_t sharedPageFootprint() const;
    /** Bytes of lines touched by more than one node. */
    std::uint64_t sharedLineFootprint() const;
    /** Total bytes of pages touched at all. */
    std::uint64_t totalPageFootprint() const;

    /** Final class of the page containing @p addr. */
    SharingClass pageClass(Addr addr) const;
    /** Final class of the line containing @p addr. */
    SharingClass lineClass(Addr addr) const;

    std::size_t trackedPages() const { return pages_.size(); }
    std::size_t trackedLines() const { return lines_.size(); }

    /** Register this profiler's (all derived) stats into @p g. The
     * breakdowns are retrospective map walks, so they are exposed as
     * on-demand derived values rather than live counters. */
    void registerStats(stats::StatGroup &g);

  private:
    struct Entry
    {
        /** 32 bits keep a table slot at 16 B (most of the memory of
         * a profile_lines run); record() and absorb() panic rather
         * than wrap it. */
        std::uint32_t accesses = 0;
        std::uint16_t readers = 0;  ///< bitmask of reading nodes
        std::uint16_t writers = 0;  ///< bitmask of writing nodes
    };
    static_assert(sizeof(Entry) == 8);
    static_assert(max_gpus <= std::numeric_limits<std::uint16_t>::digits,
                  "node masks hold one bit per GPU");

    static constexpr std::uint32_t max_accesses =
        std::numeric_limits<std::uint32_t>::max();

    static SharingClass classify(const Entry &e);
    static SharingBreakdown breakdown(const FlatMap<Entry> &map);
    static std::uint64_t sharedBytes(const FlatMap<Entry> &map,
                                     std::uint64_t granule);

    std::uint64_t page_size_;
    std::uint64_t line_size_;
    bool track_pages_;
    bool track_lines_;
    FlatMap<Entry> pages_;
    FlatMap<Entry> lines_;
};

} // namespace carve

#endif // CARVE_NUMA_SHARING_PROFILER_HH
