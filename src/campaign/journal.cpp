#include "campaign/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sim/error.hpp"
#include "sim/fnv.hpp"

namespace maple::campaign {

void
Journal::open(const std::string &path, bool truncate)
{
    close();
    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (truncate)
        flags |= O_TRUNC;
    fd_ = ::open(path.c_str(), flags, 0644);
    MAPLE_CHECK(fd_ >= 0, sim::ConfigError, "cannot open journal %s: %s",
                path.c_str(), std::strerror(errno));
    // Exec'd job binaries must not inherit the journal fd.
    ::fcntl(fd_, F_SETFD, FD_CLOEXEC);
}

void
Journal::append(const json::Value &record)
{
    if (fd_ < 0)
        return;
    std::string line = json::dumpCompact(record);
    line.push_back('\n');
    // One write() to an O_APPEND fd: the line lands whole or not at all
    // (PIPE_BUF-sized lines; ours are well under 4K). A torn line can only
    // come from the kernel interrupting mid-write on a dying process, and
    // replayJournal() skips it.
    ssize_t n = ::write(fd_, line.data(), line.size());
    MAPLE_CHECK(n == static_cast<ssize_t>(line.size()), sim::FatalError,
                "journal append wrote %zd of %zu bytes: %s", n, line.size(),
                std::strerror(errno));
}

void
Journal::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

JournalReplay
replayJournal(const std::string &path)
{
    JournalReplay rep;
    std::ifstream f(path);
    if (!f.good())
        return rep;
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty())
            continue;
        json::Value rec;
        try {
            rec = json::parse(line);
        } catch (const json::JsonError &) {
            ++rep.torn_lines;
            continue;
        }
        const std::string event = rec.getString("event", "");
        if (event == "campaign") {
            rep.header_seen = true;
            rep.campaign = rec.getString("name", "");
            rep.spec_fnv = static_cast<std::uint64_t>(
                std::strtoull(rec.getString("spec_fnv", "0").c_str(),
                              nullptr, 16));
        } else if (event == "start") {
            JournalJob &j = rep.jobs[rec.getString("job", "")];
            ++j.attempts;
            j.in_flight = true;
        } else if (event == "finish") {
            JournalJob &j = rep.jobs[rec.getString("job", "")];
            j.in_flight = false;
            j.last_status = rec.getString("status", "");
            const bool retry = rec.getBool("retry", false);
            j.completed = !retry && (j.last_status == "ok" ||
                                     j.last_status == "cached");
        }
    }
    return rep;
}

std::uint64_t
specFingerprint(const json::Value &doc)
{
    return sim::fnv1a(json::dump(doc));
}

}  // namespace maple::campaign
