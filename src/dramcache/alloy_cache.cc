#include "dramcache/alloy_cache.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace carve {

AlloyCache::AlloyCache(std::uint64_t size, std::uint64_t line_size)
    : line_size_(line_size)
{
    if (line_size == 0 || size == 0 || size % line_size != 0)
        fatal("AlloyCache: size must be a nonzero multiple of the "
              "line size");
    sets_ = size / line_size;
}

RdcLookup
AlloyCache::lookup(Addr line_addr, std::uint32_t epoch)
{
    ++probes_;
    const SetEntry *e = sets_map_.find(setIndex(line_addr));
    if (!e || !e->valid || e->tag != line_addr) {
        ++misses_;
        return RdcLookup::Miss;
    }
    if (e->epoch != epoch) {
        ++stale_;
        return RdcLookup::StaleEpoch;
    }
    ++hits_;
    return RdcLookup::Hit;
}

std::optional<RdcVictim>
AlloyCache::insert(Addr line_addr, std::uint32_t epoch, bool dirty,
                   NodeId home)
{
    carve_assert(home < max_gpus);
    SetEntry &entry = sets_map_[setIndex(line_addr)];
    const bool resident = entry.valid && entry.tag == line_addr;
    if (resident && entry.dirty && !dirty) {
        // A clean fill of a line that a racing write already dirtied
        // keeps the write's data, and the home the write recorded.
        entry.epoch = epoch;
        return std::nullopt;
    }
    std::optional<RdcVictim> victim;
    if (entry.valid && !resident) {
        ++conflicts_;
        if (entry.dirty)
            ++dirty_evictions_;
        victim = RdcVictim{entry.tag, entry.home, entry.dirty};
    }
    entry = SetEntry{line_addr, epoch, static_cast<std::uint8_t>(home),
                     /* valid */ true, dirty};
    return victim;
}

bool
AlloyCache::markDirty(Addr line_addr, std::uint32_t epoch, NodeId home)
{
    carve_assert(home < max_gpus);
    SetEntry *e = sets_map_.find(setIndex(line_addr));
    if (!e || !e->valid || e->tag != line_addr || e->epoch != epoch)
        return false;
    e->dirty = true;
    e->home = static_cast<std::uint8_t>(home);
    return true;
}

bool
AlloyCache::lineDirty(Addr line_addr) const
{
    const SetEntry *e = sets_map_.find(setIndex(line_addr));
    return e && e->valid && e->tag == line_addr && e->dirty;
}

void
AlloyCache::cleanAll()
{
    sets_map_.forEach([](Addr, SetEntry &e) { e.dirty = false; });
}

bool
AlloyCache::peek(Addr line_addr, std::uint32_t epoch) const
{
    const SetEntry *e = sets_map_.find(setIndex(line_addr));
    return e && e->valid && e->tag == line_addr && e->epoch == epoch;
}

bool
AlloyCache::invalidateLine(Addr line_addr)
{
    SetEntry *e = sets_map_.find(setIndex(line_addr));
    if (!e || !e->valid || e->tag != line_addr)
        return false;
    e->valid = false;
    return true;
}

void
AlloyCache::resetAll()
{
    sets_map_.clear();
}

} // namespace carve
