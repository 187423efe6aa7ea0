/**
 * @file
 * Content-addressed job identity. A job's key is the FNV-1a 64-bit
 * hash of its canonical serialization (jobSpecToJson().dump(0), which
 * fixes member order and sorts configuration keys), rendered as 16
 * lowercase hex digits. The hash and the workload/config serializers
 * are the harness's (harness/spec_key.hh). Two JobSpecs describing
 * the same simulation hash identically no matter how (or in what
 * order) their configs were assembled; any semantic difference —
 * one override value, a different seed, host-stats on vs off, a
 * bumped kJobSchema — yields a different key. The key doubles as the
 * result-cache file name.
 */

#ifndef CARVE_SERVICE_JOB_KEY_HH
#define CARVE_SERVICE_JOB_KEY_HH

#include <string>

#include "service/protocol.hh"

namespace carve {
namespace service {

/** 16-hex-digit content key of @p spec (see file comment). */
std::string jobKey(const JobSpec &spec);

/** True when @p key looks like a jobKey() product (16 hex digits). */
bool isJobKey(const std::string &key);

} // namespace service
} // namespace carve

#endif // CARVE_SERVICE_JOB_KEY_HH
