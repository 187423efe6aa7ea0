#include "service/job_key.hh"

#include "harness/spec_key.hh"

namespace carve {
namespace service {

std::string
jobKey(const JobSpec &spec)
{
    // The canonical dump already embeds kJobSchema, so a schema bump
    // re-keys every job.
    return harness::hexKey(
        harness::fnv1a64(jobSpecToJson(spec).dump(0)));
}

bool
isJobKey(const std::string &key)
{
    if (key.size() != 16)
        return false;
    for (const char c : key) {
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    }
    return true;
}

} // namespace service
} // namespace carve
