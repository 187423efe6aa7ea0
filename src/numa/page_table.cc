#include "numa/page_table.hh"

#include "common/logging.hh"

namespace carve {

PageTable::PageTable(const SystemConfig &cfg)
    : page_size_(cfg.page_size),
      homed_(cfg.num_gpus, 0), replicas_(cfg.num_gpus, 0)
{
    const std::uint64_t visible = cfg.dram.capacity -
        (cfg.rdc.enabled ? cfg.rdc.size : 0);
    capacity_pages_ = visible / cfg.page_size;
}

PageEntry &
PageTable::entry(Addr addr)
{
    return pages_[pageOf(addr)];
}

const PageEntry *
PageTable::find(Addr addr) const
{
    const auto it = pages_.find(pageOf(addr));
    return it == pages_.end() ? nullptr : &it->second;
}

void
PageTable::addHomedPage(NodeId node)
{
    carve_assert(node < homed_.size());
    ++homed_[node];
}

void
PageTable::removeHomedPage(NodeId node)
{
    carve_assert(node < homed_.size() && homed_[node] > 0);
    --homed_[node];
}

void
PageTable::addReplica(NodeId node)
{
    carve_assert(node < replicas_.size());
    ++replicas_[node];
}

void
PageTable::removeReplica(NodeId node)
{
    carve_assert(node < replicas_.size() && replicas_[node] > 0);
    --replicas_[node];
}

std::uint64_t
PageTable::homedPages(NodeId node) const
{
    carve_assert(node < homed_.size());
    return homed_[node];
}

std::uint64_t
PageTable::replicaPages(NodeId node) const
{
    carve_assert(node < replicas_.size());
    return replicas_[node];
}

std::uint64_t
PageTable::capacityPages(NodeId) const
{
    return capacity_pages_;
}

double
PageTable::capacityPressure() const
{
    std::uint64_t homed = 0, repl = 0;
    for (std::size_t g = 0; g < homed_.size(); ++g) {
        homed += homed_[g];
        repl += replicas_[g];
    }
    return homed == 0
        ? 1.0
        : static_cast<double>(homed + repl) /
              static_cast<double>(homed);
}

} // namespace carve
