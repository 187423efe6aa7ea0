#include "coherence/imst.hh"

#include "common/logging.hh"

namespace carve {

const char *
sharingStateName(SharingState s)
{
    switch (s) {
      case SharingState::Uncached: return "uncached";
      case SharingState::Private: return "private";
      case SharingState::ReadShared: return "read-shared";
      case SharingState::ReadWriteShared: return "read-write-shared";
    }
    return "?";
}

Imst::Imst(NodeId home, double demote_probability, std::uint64_t seed)
    : home_(home), demote_probability_(demote_probability),
      rng_(seed + home)
{
}

SharingState
Imst::state(Addr line_addr) const
{
    const LineState *ls = states_.find(line_addr);
    return ls ? ls->sharing() : SharingState::Uncached;
}

NodeId
Imst::owner(Addr line_addr) const
{
    const LineState *ls = states_.find(line_addr);
    if (!ls || ls->sharing() != SharingState::Private)
        return invalid_node;
    return ls->owner;
}

SharingState
Imst::onAccess(Addr line_addr, NodeId requester, AccessType type,
               bool &needs_invalidate)
{
    carve_assert(requester < max_gpus);
    needs_invalidate = false;
    const bool write = isWrite(type);
    LineState &ls = states_[line_addr];

    switch (ls.sharing()) {
      case SharingState::Uncached:
        ls.set(SharingState::Private, requester);
        break;

      case SharingState::Private:
        if (requester != ls.owner) {
            // A foreign write leaves the old owner with a possibly
            // stale copy: invalidate.
            needs_invalidate = write;
            ls.set(write ? SharingState::ReadWriteShared
                         : SharingState::ReadShared);
        }
        break;

      case SharingState::ReadShared:
        if (write) {
            needs_invalidate = true;
            ls.set(SharingState::ReadWriteShared);
        }
        break;

      case SharingState::ReadWriteShared:
        if (write)
            needs_invalidate = true;
        break;
    }

    // Sticky-state escape: a write to a shared line occasionally
    // resets it to Private for the writer (after the invalidate
    // broadcast) so lines whose sharing phase ended stop paying
    // broadcast costs.
    if (write && needs_invalidate && rng_.chance(demote_probability_)) {
        ls.set(SharingState::Private, requester);
        ++demotions_;
    }

    if (write) {
        if (needs_invalidate)
            ++shared_writes_;
        else
            ++filtered_writes_;
    }

    return ls.sharing();
}

} // namespace carve
