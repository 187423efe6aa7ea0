#include "numa/replication.hh"

#include <bit>

#include "common/logging.hh"

namespace carve {

ReplicationManager::ReplicationManager(const NumaConfig &cfg,
                                       PageTable &table)
    : cfg_(cfg), table_(table)
{
}

bool
ReplicationManager::maybeReplicate(PageEntry &page, NodeId node)
{
    carve_assert(node < max_gpus);
    if (page.home == node || page.home == cpu_node ||
        page.localAt(node)) {
        return false;
    }

    switch (cfg_.replication) {
      case ReplicationPolicy::None:
        return false;

      case ReplicationPolicy::All:
        // Ideal: free replication of everything, even written pages.
        page.replica_mask |= static_cast<std::uint16_t>(1u << node);
        table_.addReplica(node);
        ++replications_;
        return true;

      case ReplicationPolicy::ReadOnly:
        if (page.written || page.collapsed)
            return false;
        if (!table_.hasFreeFrame(node)) {
            ++capacity_skips_;
            return false;
        }
        page.replica_mask |= static_cast<std::uint16_t>(1u << node);
        table_.addReplica(node);
        ++replications_;
        return true;
    }
    return false;
}

bool
ReplicationManager::onWrite(PageEntry &page, NodeId node)
{
    (void)node;
    if (cfg_.replication != ReplicationPolicy::ReadOnly)
        return false;
    if (page.replica_mask == 0)
        return false;

    // Collapse: drop every replica; the page is demoted to a single
    // home copy and never replicated again (software cost of doing
    // this repeatedly is prohibitive -- Section II-C).
    for (unsigned g = 0; g < max_gpus; ++g) {
        if (page.replica_mask & (1u << g))
            table_.removeReplica(g);
    }
    page.replica_mask = 0;
    page.collapsed = true;
    ++collapses_;
    return true;
}

} // namespace carve
