#include "campaign/health.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "sim/error.hpp"
#include "sim/fnv.hpp"

namespace maple::campaign {

// ---------------------------------------------------------------------------
// HeartbeatPipe
// ---------------------------------------------------------------------------

void
HeartbeatPipe::open()
{
    closeAll();
    int fds[2];
    MAPLE_CHECK(::pipe(fds) == 0, sim::FatalError,
                "heartbeat pipe creation failed: %s", std::strerror(errno));
    read_fd_ = fds[0];
    write_fd_ = fds[1];
    ::fcntl(read_fd_, F_SETFL, O_NONBLOCK);
    // The read end must not leak into exec'd job binaries; the write end
    // must survive exec so cooperating exec jobs can beat.
    ::fcntl(read_fd_, F_SETFD, FD_CLOEXEC);
}

void
HeartbeatPipe::becomeChild()
{
    if (read_fd_ >= 0) {
        ::close(read_fd_);
        read_fd_ = -1;
    }
}

void
HeartbeatPipe::becomeParent()
{
    if (write_fd_ >= 0) {
        ::close(write_fd_);
        write_fd_ = -1;
    }
}

bool
HeartbeatPipe::drain()
{
    if (read_fd_ < 0)
        return false;
    char buf[256];
    bool beat = false;
    for (;;) {
        ssize_t n = ::read(read_fd_, buf, sizeof buf);
        if (n > 0) {
            beat = true;
            continue;
        }
        break;  // 0 = writer gone, <0 = EAGAIN/EINTR; both end the drain
    }
    return beat;
}

void
HeartbeatPipe::closeAll()
{
    if (read_fd_ >= 0)
        ::close(read_fd_);
    if (write_fd_ >= 0)
        ::close(write_fd_);
    read_fd_ = write_fd_ = -1;
}

void
heartbeatBeat(int fd)
{
    if (fd < 0)
        return;
    const char beat = 'b';
    // Best-effort: a full pipe or a dead reader must never hurt the worker.
    [[maybe_unused]] ssize_t n = ::write(fd, &beat, 1);
}

// ---------------------------------------------------------------------------
// Retry taxonomy
// ---------------------------------------------------------------------------

OutcomeClass
classifyOutcome(const std::string &status, int exit_code, int term_signal,
                const std::string &stderr_tail)
{
    (void)term_signal;
    if (status == "ok" || status == "cached")
        return OutcomeClass::Success;
    // Hung and timed-out workers, and signal deaths, are environmental
    // until proven otherwise: the chaos harness and real flaky
    // infrastructure both present this way.
    if (status == "timeout" || status == "hung" || status == "crashed")
        return OutcomeClass::Transient;
    // Scenario children: 3 = result failed validation, 4 = nondeterministic
    // across repeat runs. Both mean the *answer* is wrong — a retry that
    // succeeded would hide a correctness bug.
    if (exit_code == 3 || exit_code == 4)
        return OutcomeClass::Permanent;
    // execvp failure: the binary does not exist / is not executable.
    if (exit_code == 127)
        return OutcomeClass::Permanent;
    // Typed configuration errors reported by scenario children: the spec
    // itself is wrong, no retry can fix it.
    if (stderr_tail.find("sim::ConfigError") != std::string::npos)
        return OutcomeClass::Permanent;
    return OutcomeClass::Transient;
}

double
RetryPolicy::backoffSeconds(unsigned attempt)
{
    const unsigned exp = attempt > 0 ? attempt - 1 : 0;
    double d = base_s_ * static_cast<double>(1ull << std::min(exp, 20u));
    d = std::min(d, cap_s_);
    // Jitter in [0.5, 1.5): deterministic (dedicated stream), desynchronizes
    // retry bursts — the same discipline as MapleDriver's recovery backoff.
    return d * (0.5 + rng_.uniform());
}

// ---------------------------------------------------------------------------
// ChaosPlan
// ---------------------------------------------------------------------------

ChaosPlan
ChaosPlan::parse(const std::string &text)
{
    ChaosPlan p;
    // Rightmost two ':' fields are seed and rate; everything before is the
    // comma-separated mode list (mode names contain no ':').
    const size_t rate_colon = text.rfind(':');
    MAPLE_CHECK(rate_colon != std::string::npos && rate_colon > 0,
                sim::ConfigError,
                "MAPLE_CAMPAIGN_CHAOS=\"%s\": want <modes>:<seed>:<rate>",
                text.c_str());
    const size_t seed_colon = text.rfind(':', rate_colon - 1);
    MAPLE_CHECK(seed_colon != std::string::npos, sim::ConfigError,
                "MAPLE_CAMPAIGN_CHAOS=\"%s\": want <modes>:<seed>:<rate>",
                text.c_str());

    const std::string modes = text.substr(0, seed_colon);
    const std::string seed_s =
        text.substr(seed_colon + 1, rate_colon - seed_colon - 1);
    const std::string rate_s = text.substr(rate_colon + 1);

    char *end = nullptr;
    errno = 0;
    p.seed = std::strtoull(seed_s.c_str(), &end, 0);
    MAPLE_CHECK(end && *end == '\0' && !seed_s.empty() && errno == 0,
                sim::ConfigError, "chaos seed \"%s\" is not a number",
                seed_s.c_str());
    errno = 0;
    p.rate = std::strtod(rate_s.c_str(), &end);
    MAPLE_CHECK(end && *end == '\0' && !rate_s.empty() && errno == 0 &&
                    p.rate >= 0.0 && p.rate <= 1.0,
                sim::ConfigError, "chaos rate \"%s\" is not in [0, 1]",
                rate_s.c_str());

    size_t pos = 0;
    while (pos <= modes.size()) {
        size_t comma = modes.find(',', pos);
        if (comma == std::string::npos)
            comma = modes.size();
        const std::string mode = modes.substr(pos, comma - pos);
        if (mode == "crash")
            p.crash = true;
        else if (mode == "hang")
            p.hang = true;
        else if (mode == "corrupt-cache")
            p.corrupt_cache = true;
        else if (mode == "corrupt-snapshot")
            p.corrupt_snapshot = true;
        else if (mode == "slow-io")
            p.slow_io = true;
        else
            MAPLE_THROW(sim::ConfigError,
                        "unknown chaos mode \"%s\" (want crash, hang, "
                        "corrupt-cache, corrupt-snapshot, slow-io)",
                        mode.c_str());
        pos = comma + 1;
    }
    return p;
}

ChaosPlan
ChaosPlan::env()
{
    const char *e = std::getenv("MAPLE_CAMPAIGN_CHAOS");
    return e && *e ? parse(e) : ChaosPlan{};
}

bool
ChaosPlan::draw(const std::string &site) const
{
    if (rate <= 0)
        return false;
    sim::Rng rng(sim::fnv1a(site) ^ seed);
    return rng.uniform() < rate;
}

void
ChaosPlan::maybeCrashOrHang(const std::string &job, unsigned attempt) const
{
    if (!enabled())
        return;
    const std::string id = job + "#" + std::to_string(attempt);
    if (crash && draw("crash:" + id)) {
        std::fprintf(stderr, "chaos: injected crash (%s)\n", id.c_str());
        std::fflush(stderr);
        // Sanitizer builds install their own SIGSEGV handler, which would
        // turn this into a reported clean exit instead of a signal death;
        // the parent must observe a real signal 11 (same interaction as
        // MAPLE_CAMPAIGN_CRASH_JOB).
        ::signal(SIGSEGV, SIG_DFL);
        ::raise(SIGSEGV);
    }
    if (hang && draw("hang:" + id)) {
        std::fprintf(stderr, "chaos: injected hang (%s)\n", id.c_str());
        std::fflush(stderr);
        // Beat-less busy sleep: the runner's heartbeat timeout must reclaim
        // this worker; the per-job wall clock is the backstop.
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(1));
    }
}

void
ChaosPlan::maybeCorruptFile(const std::string &path,
                            const std::string &site) const
{
    if (!enabled() || !draw(site))
        return;
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    if (!f.good())
        return;
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    if (size <= 0)
        return;
    // Deterministic victim byte, past any header so structural checks don't
    // always trip before the checksum does.
    sim::Rng rng(sim::fnv1a("victim:" + site) ^ seed);
    const std::streamoff off =
        static_cast<std::streamoff>(rng.below(static_cast<std::uint64_t>(size)));
    f.seekg(off);
    char c = 0;
    f.get(c);
    f.seekp(off);
    f.put(static_cast<char>(c ^ 0x5a));
    f.flush();
    std::fprintf(stderr, "chaos: corrupted byte %lld of %s\n",
                 static_cast<long long>(off), path.c_str());
}

void
ChaosPlan::maybeSlowIo(const std::string &site) const
{
    if (enabled() && slow_io && draw("slow-io:" + site))
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

}  // namespace maple::campaign
