/**
 * @file
 * Content-addressed identity of a simulation. A key is the FNV-1a
 * 64-bit hash of a canonical JSON serialization — fixed member order,
 * configuration keys sorted — rendered as 16 lowercase hex digits.
 * Two descriptions of the same simulation serialize to identical
 * bytes no matter how (or in what order) their configs were
 * assembled; any difference that can change the result bytes or the
 * run's side effects yields a different key.
 *
 * runSweep() keys RunSpecs with specKey() to simulate each distinct
 * spec once; the carve-served job key (service/job_key.hh) is built
 * from the same workload/config serializers and the same hash.
 */

#ifndef CARVE_HARNESS_SPEC_KEY_HH
#define CARVE_HARNESS_SPEC_KEY_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "common/config.hh"
#include "harness/json.hh"
#include "harness/run_spec.hh"
#include "workloads/synthetic.hh"

namespace carve {
namespace harness {

/** FNV-1a 64-bit over @p bytes. */
std::uint64_t fnv1a64(std::string_view bytes);

/** @p h as 16 lowercase hex digits. */
std::string hexKey(std::uint64_t h);

/** Canonical JSON of a complete workload description (regions
 * included, in declaration order). */
json::Value workloadToJson(const WorkloadParams &w);

/** Canonical JSON of a complete configuration: the full override
 * registry dump, keys sorted (SystemConfig::canonicalOverrides()). */
json::Value configToJson(const SystemConfig &config);

/**
 * Content key of @p spec. Its preimage holds everything in the spec
 * that can change the result bytes or side effects: preset, workload,
 * configuration, every RunOptions field (seed, watchdogs,
 * profile_lines, audit, telemetry and trace options, engine and
 * sim_threads overrides) and host_stats. RunSpec::key()
 * ("preset/workload/seed") is a display name, not a content key: two
 * specs sharing it can still differ here.
 */
std::string specKey(const RunSpec &spec);

} // namespace harness
} // namespace carve

#endif // CARVE_HARNESS_SPEC_KEY_HH
