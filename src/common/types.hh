/**
 * @file
 * Fundamental scalar types used throughout carve-sim.
 */

#ifndef CARVE_COMMON_TYPES_HH
#define CARVE_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace carve {

/** Virtual or physical byte address. */
using Addr = std::uint64_t;

/** Simulation time in GPU cycles (1 GHz => 1 cycle == 1 ns). */
using Cycle = std::uint64_t;

/** Identifier of a GPU node in the multi-GPU system. */
using NodeId = std::uint32_t;

/** Most GPUs a system may have. SystemConfig::validate() enforces it;
 * the per-node bitmasks, the IMST owner field and the RDC home field
 * are sized by it and static_assert so. */
inline constexpr unsigned max_gpus = 16;

/** Identifier of an SM within one GPU. */
using SmId = std::uint32_t;

/** Identifier of a Cooperative Thread Array (thread block). */
using CtaId = std::uint64_t;

/** Identifier of a warp within an SM. */
using WarpId = std::uint32_t;

/** Kernel invocation index within a workload. */
using KernelId = std::uint32_t;

/** Sentinel for "no node" (e.g., unmapped page, CPU-resident page). */
inline constexpr NodeId invalid_node =
    std::numeric_limits<NodeId>::max();

/** Sentinel node id used for pages living in CPU system memory. */
inline constexpr NodeId cpu_node = invalid_node - 1;

/** Sentinel address. */
inline constexpr Addr invalid_addr = std::numeric_limits<Addr>::max();

/** Sentinel cycle used for "never" / "not scheduled". */
inline constexpr Cycle never = std::numeric_limits<Cycle>::max();

/** Kind of memory access carried by a request. */
enum class AccessType : std::uint8_t {
    Read,
    Write,
};

/** True when the access type is a write. */
inline bool
isWrite(AccessType t)
{
    return t == AccessType::Write;
}

} // namespace carve

#endif // CARVE_COMMON_TYPES_HH
