#include "mem/coherence.hpp"

namespace maple::mem {

const char *
coherenceModeName(CoherenceMode m)
{
    switch (m) {
    case CoherenceMode::None: return "none";
    case CoherenceMode::Msi: return "msi";
    }
    return "?";
}

std::optional<CoherenceMode>
parseCoherenceMode(std::string_view s)
{
    if (s == "none" || s == "off")
        return CoherenceMode::None;
    if (s == "msi")
        return CoherenceMode::Msi;
    return std::nullopt;
}

const char *
msiStateName(MsiState s)
{
    switch (s) {
    case MsiState::I: return "I";
    case MsiState::S: return "S";
    case MsiState::M: return "M";
    }
    return "?";
}

const char *
cohMsgName(CohMsg m)
{
    switch (m) {
    case CohMsg::GetS: return "GetS";
    case CohMsg::GetM: return "GetM";
    case CohMsg::PutM: return "PutM";
    case CohMsg::Inv: return "Inv";
    case CohMsg::InvAck: return "InvAck";
    case CohMsg::FwdGetS: return "FwdGetS";
    case CohMsg::FwdGetM: return "FwdGetM";
    case CohMsg::Downgrade: return "Downgrade";
    case CohMsg::WbAck: return "WbAck";
    case CohMsg::Data: return "Data";
    case CohMsg::kCount: break;
    }
    return "?";
}

unsigned
CoherenceChecker::registerCache(std::string name)
{
    names_.push_back(std::move(name));
    return static_cast<unsigned>(names_.size() - 1);
}

const char *
CoherenceChecker::cacheName(unsigned cache) const
{
    return cache < names_.size() ? names_[cache].c_str() : "?";
}

std::vector<std::pair<unsigned, std::uint64_t>>::iterator
CoherenceChecker::findHolder(LineShadow &sh, unsigned cache)
{
    for (auto it = sh.holders.begin(); it != sh.holders.end(); ++it)
        if (it->first == cache)
            return it;
    return sh.holders.end();
}

void
CoherenceChecker::onInstall(unsigned cache, sim::Addr line, MsiState st)
{
    LineShadow &sh = shadow(line);
    MAPLE_CHECK(findHolder(sh, cache) == sh.holders.end(), CoherenceError,
                "%s installs line 0x%llx it already holds", cacheName(cache),
                (unsigned long long)line);
    if (st == MsiState::M) {
        MAPLE_CHECK(sh.holders.empty(), CoherenceError,
                    "%s installs line 0x%llx in M with %zu other holders "
                    "alive (first: %s) — missed invalidation",
                    cacheName(cache), (unsigned long long)line,
                    sh.holders.size(), cacheName(sh.holders.front().first));
        sh.owner = static_cast<int>(cache);
    } else {
        MAPLE_CHECK(st == MsiState::S, CoherenceError,
                    "install of line 0x%llx in state %s", (unsigned long long)line,
                    msiStateName(st));
        MAPLE_CHECK(sh.owner < 0, CoherenceError,
                    "%s installs line 0x%llx in S while %s owns it in M — "
                    "missed downgrade",
                    cacheName(cache), (unsigned long long)line,
                    cacheName(static_cast<unsigned>(sh.owner)));
    }
    sh.holders.emplace_back(cache, sh.version);
}

void
CoherenceChecker::onUpgrade(unsigned cache, sim::Addr line)
{
    LineShadow &sh = shadow(line);
    auto it = findHolder(sh, cache);
    MAPLE_CHECK(it != sh.holders.end(), CoherenceError,
                "%s upgrades line 0x%llx it does not hold", cacheName(cache),
                (unsigned long long)line);
    MAPLE_CHECK(sh.holders.size() == 1, CoherenceError,
                "%s upgrades line 0x%llx to M with %zu holders alive — "
                "missed invalidation",
                cacheName(cache), (unsigned long long)line, sh.holders.size());
    MAPLE_CHECK(sh.owner < 0, CoherenceError,
                "%s upgrades line 0x%llx already owned by %s", cacheName(cache),
                (unsigned long long)line,
                cacheName(static_cast<unsigned>(sh.owner)));
    // An upgrade grants write permission to the *existing* copy; that copy
    // must still be current or the grant publishes a stale line.
    MAPLE_CHECK(it->second == sh.version, CoherenceError,
                "%s upgrades a stale copy of line 0x%llx (has version %llu, "
                "current %llu)",
                cacheName(cache), (unsigned long long)line,
                (unsigned long long)it->second, (unsigned long long)sh.version);
    sh.owner = static_cast<int>(cache);
}

void
CoherenceChecker::onDowngrade(unsigned cache, sim::Addr line)
{
    LineShadow &sh = shadow(line);
    MAPLE_CHECK(sh.owner == static_cast<int>(cache), CoherenceError,
                "%s downgrades line 0x%llx it does not own", cacheName(cache),
                (unsigned long long)line);
    sh.owner = -1;
}

void
CoherenceChecker::onRelease(unsigned cache, sim::Addr line)
{
    LineShadow &sh = shadow(line);
    auto it = findHolder(sh, cache);
    MAPLE_CHECK(it != sh.holders.end(), CoherenceError,
                "%s releases line 0x%llx it does not hold", cacheName(cache),
                (unsigned long long)line);
    sh.holders.erase(it);
    if (sh.owner == static_cast<int>(cache))
        sh.owner = -1;
}

void
CoherenceChecker::onLoad(unsigned cache, sim::Addr line)
{
    LineShadow &sh = shadow(line);
    auto it = findHolder(sh, cache);
    MAPLE_CHECK(it != sh.holders.end(), CoherenceError,
                "%s loads from line 0x%llx it does not hold", cacheName(cache),
                (unsigned long long)line);
    MAPLE_CHECK(it->second == sh.version, CoherenceError,
                "STALE READ: %s loads line 0x%llx at version %llu but the "
                "line is at version %llu — a store was never invalidated "
                "through to this cache",
                cacheName(cache), (unsigned long long)line,
                (unsigned long long)it->second, (unsigned long long)sh.version);
    ++loads_checked_;
}

void
CoherenceChecker::onStore(unsigned cache, sim::Addr line)
{
    LineShadow &sh = shadow(line);
    auto it = findHolder(sh, cache);
    MAPLE_CHECK(it != sh.holders.end(), CoherenceError,
                "%s stores to line 0x%llx it does not hold", cacheName(cache),
                (unsigned long long)line);
    MAPLE_CHECK(sh.owner == static_cast<int>(cache), CoherenceError,
                "%s stores to line 0x%llx without owning it in M (owner: %s)",
                cacheName(cache), (unsigned long long)line,
                sh.owner < 0 ? "none"
                             : cacheName(static_cast<unsigned>(sh.owner)));
    MAPLE_CHECK(sh.holders.size() == 1, CoherenceError,
                "%s stores to line 0x%llx with %zu holders alive — SWMR "
                "violated",
                cacheName(cache), (unsigned long long)line, sh.holders.size());
    ++sh.version;
    it->second = sh.version;
    ++stores_checked_;
}

void
CoherenceChecker::onDmaRead(sim::Addr line)
{
    // A coherent DMA read (MAPLE consume, core uncached atomic load) goes
    // through the home slice, which recalled/downgraded any M copy first:
    // legal in any state, nothing to assert — but it must not observe an
    // outstanding owner, which would mean the recall was skipped.
    LineShadow &sh = shadow(line);
    MAPLE_CHECK(sh.owner < 0, CoherenceError,
                "coherent DMA read of line 0x%llx while %s owns it in M — "
                "recall was skipped",
                (unsigned long long)line,
                cacheName(static_cast<unsigned>(sh.owner)));
    ++loads_checked_;
}

void
CoherenceChecker::onDmaWrite(sim::Addr line)
{
    LineShadow &sh = shadow(line);
    MAPLE_CHECK(sh.holders.empty(), CoherenceError,
                "coherent DMA write to line 0x%llx with %zu cached copies "
                "alive (first: %s) — invalidation was skipped",
                (unsigned long long)line, sh.holders.size(),
                sh.holders.empty() ? "?" : cacheName(sh.holders.front().first));
    ++sh.version;
    ++stores_checked_;
}

void
CoherenceChecker::reset()
{
    lines_.clear();
}

void
CoherenceChecker::seedHolder(unsigned cache, sim::Addr line, MsiState st)
{
    LineShadow &sh = shadow(line);
    if (st == MsiState::M)
        sh.owner = static_cast<int>(cache);
    sh.holders.emplace_back(cache, sh.version);
}

}  // namespace maple::mem
