#include "service/protocol.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "harness/spec_key.hh"

namespace carve {
namespace service {

namespace {

/** parseRegionKind: inverse of regionKindName(). */
RegionKind
parseRegionKind(const std::string &s)
{
    static constexpr RegionKind kinds[] = {
        RegionKind::PrivateStream,    RegionKind::InterleavedStream,
        RegionKind::SharedStream,     RegionKind::Lookup,
        RegionKind::Halo,             RegionKind::Atomic,
        RegionKind::RandomGlobal,
    };
    for (const RegionKind k : kinds) {
        if (s == regionKindName(k))
            return k;
    }
    fatal("job: unknown region kind '%s'", s.c_str());
}

/** Member lookup that fails loudly instead of returning null. */
const json::Value &
require(const json::Value &v, const char *key, const char *what)
{
    if (!v.has(key))
        fatal("job: %s is missing member '%s'", what, key);
    return v.at(key);
}

std::uint64_t
requireU64(const json::Value &v, const char *key, const char *what)
{
    const json::Value &m = require(v, key, what);
    if (m.kind() != json::Value::Kind::Int)
        fatal("job: %s member '%s' must be an integer", what, key);
    return static_cast<std::uint64_t>(m.asInt());
}

double
requireDouble(const json::Value &v, const char *key, const char *what)
{
    const json::Value &m = require(v, key, what);
    if (!m.isNumber())
        fatal("job: %s member '%s' must be a number", what, key);
    return m.asDouble();
}

bool
requireBool(const json::Value &v, const char *key, const char *what)
{
    const json::Value &m = require(v, key, what);
    if (m.kind() != json::Value::Kind::Bool)
        fatal("job: %s member '%s' must be a bool", what, key);
    return m.asBool();
}

std::string
requireString(const json::Value &v, const char *key, const char *what)
{
    const json::Value &m = require(v, key, what);
    if (!m.isString())
        fatal("job: %s member '%s' must be a string", what, key);
    return m.asString();
}

RegionSpec
regionFromJson(const json::Value &v)
{
    RegionSpec r;
    r.kind = parseRegionKind(requireString(v, "kind", "region"));
    r.bytes = requireU64(v, "bytes", "region");
    r.access_frac = requireDouble(v, "access_frac", "region");
    r.write_frac = requireDouble(v, "write_frac", "region");
    r.zipf = requireDouble(v, "zipf", "region");
    r.lanes =
        static_cast<std::uint8_t>(requireU64(v, "lanes", "region"));
    r.neighbor_frac = requireDouble(v, "neighbor_frac", "region");
    return r;
}

WorkloadParams
workloadFromJson(const json::Value &v)
{
    WorkloadParams w;
    w.name = requireString(v, "name", "workload");
    w.kernels = static_cast<unsigned>(
        requireU64(v, "kernels", "workload"));
    w.ctas = requireU64(v, "ctas", "workload");
    w.warps_per_cta = static_cast<unsigned>(
        requireU64(v, "warps_per_cta", "workload"));
    w.insts_per_warp = requireU64(v, "insts_per_warp", "workload");
    w.compute_min = static_cast<std::uint16_t>(
        requireU64(v, "compute_min", "workload"));
    w.compute_max = static_cast<std::uint16_t>(
        requireU64(v, "compute_max", "workload"));
    w.iterative = requireBool(v, "iterative", "workload");
    const json::Value &regions = require(v, "regions", "workload");
    if (!regions.isArray())
        fatal("job: workload member 'regions' must be an array");
    for (const json::Value &r : regions.asArray())
        w.regions.push_back(regionFromJson(r));
    return w;
}

} // namespace

json::Value
jobSpecToJson(const JobSpec &spec)
{
    json::Value o{json::Members{}};
    o.set("schema", kJobSchema);
    o.set("preset", spec.preset);
    o.set("workload", harness::workloadToJson(spec.workload));
    // Sorted override keys: the canonical configuration form, so the
    // dump is independent of how the config was assembled.
    o.set("config", harness::configToJson(spec.config));
    json::Value opts{json::Members{}};
    opts.set("seed", spec.seed);
    opts.set("max_cycles", spec.max_cycles);
    opts.set("max_wall_seconds", spec.max_wall_seconds);
    opts.set("profile_lines", spec.profile_lines);
    opts.set("audit", spec.audit);
    opts.set("host_stats", spec.host_stats);
    o.set("options", std::move(opts));
    return o;
}

JobSpec
jobSpecFromJson(const json::Value &v)
{
    const std::string schema = requireString(v, "schema", "job");
    if (schema != kJobSchema) {
        fatal("job: schema mismatch: got '%s', this server speaks "
              "'%s'", schema.c_str(), kJobSchema);
    }
    JobSpec spec;
    spec.preset = requireString(v, "preset", "job");
    spec.workload = workloadFromJson(require(v, "workload", "job"));
    const json::Value &cfg = require(v, "config", "job");
    if (!cfg.isObject())
        fatal("job: member 'config' must be an object");
    for (const auto &[key, value] : cfg.asObject()) {
        if (!value.isString())
            fatal("job: config value for '%s' must be a string",
                  key.c_str());
        spec.config.applyOverride(key, value.asString());
    }
    const json::Value &opts = require(v, "options", "job");
    spec.seed = requireU64(opts, "seed", "options");
    spec.max_cycles = requireU64(opts, "max_cycles", "options");
    spec.max_wall_seconds =
        requireDouble(opts, "max_wall_seconds", "options");
    spec.profile_lines = requireBool(opts, "profile_lines", "options");
    spec.audit = requireBool(opts, "audit", "options");
    spec.host_stats = requireBool(opts, "host_stats", "options");
    return spec;
}

json::Value
errorResponse(const std::string &op, const std::string &error,
              bool retriable)
{
    json::Value o{json::Members{}};
    o.set("ok", false);
    o.set("op", op);
    o.set("error", error);
    if (retriable)
        o.set("retriable", true);
    return o;
}

LineChannel::~LineChannel()
{
    close();
}

LineChannel::LineChannel(LineChannel &&other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_))
{
    other.fd_ = -1;
}

LineChannel &
LineChannel::operator=(LineChannel &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        buf_ = std::move(other.buf_);
        other.fd_ = -1;
    }
    return *this;
}

bool
LineChannel::readLine(std::string &out)
{
    while (true) {
        const std::size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            out.assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            return true;
        }
        if (fd_ < 0)
            return false;
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;  // EOF; any partial line is dropped
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
LineChannel::writeLine(const std::string &line)
{
    if (fd_ < 0)
        return false;
    std::string framed = line;
    framed += '\n';
    std::size_t off = 0;
    while (off < framed.size()) {
        // MSG_NOSIGNAL: a dead peer must be an error return, not a
        // process-killing SIGPIPE in the middle of serving.
        const ssize_t n = ::send(fd_, framed.data() + off,
                                 framed.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void
LineChannel::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
LineChannel::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

LineChannel
connectUnix(const std::string &path)
{
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        errno = ENAMETOOLONG;
        return LineChannel();
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return LineChannel();
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        return LineChannel();
    }
    return LineChannel(fd);
}

int
listenUnix(const std::string &path, int backlog)
{
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        errno = ENAMETOOLONG;
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    // A stale socket file from a crashed daemon would make bind()
    // fail forever; connecting clients get ECONNREFUSED from it, so
    // replacing it is always safe.
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, backlog) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        return -1;
    }
    return fd;
}

} // namespace service
} // namespace carve
