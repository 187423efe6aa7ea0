/**
 * @file
 * Global page table of the transparent multi-GPU runtime: per-page
 * home node, replica set, sharing history and per-node access counts
 * that the placement / migration / replication policies consume.
 */

#ifndef CARVE_NUMA_PAGE_TABLE_HH
#define CARVE_NUMA_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace carve {

/** Runtime state of one 2 MB virtual page. */
struct PageEntry
{
    NodeId home = invalid_node;     ///< owning memory (or cpu_node)
    std::uint16_t replica_mask = 0; ///< GPUs holding a local replica
    std::uint16_t touch_mask = 0;   ///< GPUs that ever accessed it
    bool written = false;           ///< any store observed
    bool collapsed = false;         ///< replicas dropped; never again
    std::uint32_t migrations = 0;   ///< times this page moved
    /** Until this tick, accesses are serviced at @ref prev_home (a
     * migration's TLB-shootdown/remap stall is in progress). */
    Cycle ready_at = 0;
    /** Home before the in-progress move (valid while ready_at is in
     * the future). */
    NodeId prev_home = invalid_node;
    /** Post-LLC accesses per node since the last policy action. */
    std::array<std::uint32_t, max_gpus> access_counts{};
    /** Accesses while resident in CPU memory (Unified Memory). */
    std::uint32_t cpu_accesses = 0;

    /** True when @p node holds the home or a replica. */
    bool
    localAt(NodeId node) const
    {
        return home == node ||
            (replica_mask & static_cast<std::uint16_t>(1u << node));
    }
};

static_assert(max_gpus <= std::numeric_limits<std::uint16_t>::digits,
              "replica and touch masks hold one bit per GPU");

/**
 * Lazily-populated table over the virtual address space, plus
 * per-node physical capacity accounting (pages homed + replicas).
 */
class PageTable
{
  public:
    /** @param cfg geometry (page size, node count, capacities) */
    explicit PageTable(const SystemConfig &cfg);

    /** Page base address containing @p addr. */
    Addr
    pageOf(Addr addr) const
    {
        return addr & ~(page_size_ - 1);
    }

    /** Entry for the page containing @p addr, creating it unmapped. */
    PageEntry &entry(Addr addr);

    /** Entry if present, nullptr otherwise. */
    const PageEntry *find(Addr addr) const;

    /** Record that @p node now homes one more page. */
    void addHomedPage(NodeId node);
    /** Record that @p node dropped one homed page (migration). */
    void removeHomedPage(NodeId node);
    /** Record a replica added at @p node. */
    void addReplica(NodeId node);
    /** Record a replica dropped at @p node. */
    void removeReplica(NodeId node);

    /** Pages homed at @p node. */
    std::uint64_t homedPages(NodeId node) const;
    /** Replicas resident at @p node. */
    std::uint64_t replicaPages(NodeId node) const;

    /** Page frames that fit in @p node's OS-visible memory. */
    std::uint64_t capacityPages(NodeId node) const;

    /** True when @p node can hold one more page (home or replica). */
    bool
    hasFreeFrame(NodeId node) const
    {
        return homedPages(node) + replicaPages(node) <
            capacityPages(node);
    }

    /**
     * Memory expansion factor across all GPUs:
     * (homed + replicated) / homed. The paper reports 2.4x average
     * under unbounded replication.
     */
    double capacityPressure() const;

    std::uint64_t pageSize() const { return page_size_; }
    std::size_t mappedPages() const { return pages_.size(); }

  private:
    std::uint64_t page_size_;
    std::uint64_t capacity_pages_;
    std::unordered_map<Addr, PageEntry> pages_;
    std::vector<std::uint64_t> homed_;
    std::vector<std::uint64_t> replicas_;
};

} // namespace carve

#endif // CARVE_NUMA_PAGE_TABLE_HH
