#include "numa/migration.hh"

#include "common/logging.hh"

namespace carve {

MigrationEngine::MigrationEngine(const NumaConfig &cfg, PageTable &table)
    : cfg_(cfg), table_(table)
{
}

bool
MigrationEngine::maybeMigrate(PageEntry &page, NodeId node)
{
    carve_assert(node < max_gpus);
    if (!cfg_.migration || page.home == node ||
        page.home == cpu_node || page.home == invalid_node) {
        return false;
    }

    const std::uint32_t mine = page.access_counts[node];
    if (mine < cfg_.migration_threshold)
        return false;

    std::uint32_t others = 0;
    for (unsigned n = 0; n < max_gpus; ++n) {
        if (n != node)
            others += page.access_counts[n];
    }
    if (mine < 4 * others)
        return false;  // genuinely shared: migration would ping-pong

    table_.removeHomedPage(page.home);
    table_.addHomedPage(node);
    page.home = node;
    ++page.migrations;
    page.access_counts.fill(0);
    ++migrations_;
    return true;
}

} // namespace carve
