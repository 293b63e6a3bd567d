#include "campaign/runner.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/health.hpp"
#include "campaign/journal.hpp"
#include "ckpt/snapshot.hpp"
#include "harness/scenario.hpp"
#include "soc/soc.hpp"

namespace maple::campaign {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

/** Environment variable naming a job that must crash (CI fault injection). */
constexpr const char *kCrashJobEnv = "MAPLE_CAMPAIGN_CRASH_JOB";

/** Kill the *runner* (exit 70) after this many terminal job finishes. */
constexpr const char *kCrashRunnerEnv = "MAPLE_CAMPAIGN_CRASH_RUNNER_AFTER";

struct JobState {
    const Job *job = nullptr;
    std::string cache_key;
    std::string warm_image;  ///< scenario jobs: warm-image path ("" = cold)
    double timeout_s = 0;

    pid_t pid = -1;
    unsigned phase = 0;  ///< exec jobs run once per phase (determinism)
    unsigned attempt = 0;  ///< phase-0 launches so far (journal "start"s)
    Clock::time_point started;
    Clock::time_point last_beat;
    Clock::time_point term_time;   ///< when SIGTERM was sent
    Clock::time_point not_before;  ///< backoff deadline while cooling
    bool timed_out = false;
    bool hung = false;       ///< no heartbeat for heartbeat_timeout_s
    bool term_sent = false;
    bool killed = false;
    bool quarantined = false;
    int first_exit = 0;  ///< exec: phase-0 exit code

    HeartbeatPipe hb;

    std::string status;  ///< ok | failed | crashed | timeout | hung | cached
    int exit_code = 0;
    int term_signal = 0;
    double host_seconds = 0.0;
    bool cache_hit = false;
    std::optional<bool> deterministic;
    std::string diagnostics;
    json::Value result;  ///< the job's result document (null if none)
};

std::string
readTail(const std::string &path, size_t max_bytes = 2000)
{
    std::ifstream f(path, std::ios::binary);
    if (!f.good())
        return "";
    std::ostringstream ss;
    ss << f.rdbuf();
    std::string s = ss.str();
    if (s.size() > max_bytes)
        s = "..." + s.substr(s.size() - max_bytes);
    return s;
}

std::string
readAll(const std::string &path, size_t max_bytes = 1 << 16)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    std::string s = ss.str();
    if (s.size() > max_bytes)
        s.resize(max_bytes);
    return s;
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::trunc | std::ios::binary);
    f << text;
}

void
redirectTo(const std::string &out_path, const std::string &err_path)
{
    int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int err = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out >= 0)
        ::dup2(out, STDOUT_FILENO);
    if (err >= 0)
        ::dup2(err, STDERR_FILENO);
    if (out >= 0)
        ::close(out);
    if (err >= 0)
        ::close(err);
}

void
maybeInjectCrash(const std::string &job_name)
{
    const char *crash = std::getenv(kCrashJobEnv);
    if (crash && job_name == crash) {
        std::fprintf(stderr, "injected crash (%s=%s)\n", kCrashJobEnv, crash);
        // Sanitizer builds install their own SIGSEGV handler, which would
        // turn this into a reported clean exit instead of a signal death;
        // the parent must observe a real signal 11.
        ::signal(SIGSEGV, SIG_DFL);
        ::raise(SIGSEGV);
    }
}

/** One scenario execution: restore the warm image, or warm from cold. */
struct ScenarioRun {
    json::Value result;
    std::uint64_t executed_cycles = 0;
    bool restored = false;
};

ScenarioRun
runScenarioOnce(const harness::ScenarioSpec &ss, const std::string &warm_image,
                int hb_fd)
{
    if (!warm_image.empty()) {
        std::ifstream f(warm_image, std::ios::binary);
        if (f.good()) {
            soc::Soc soc(harness::scenarioSocConfig(ss));
            bool restored = true;
            try {
                soc.restore(f);
            } catch (const ckpt::SnapshotError &e) {
                // Includes BadChecksum from a corrupt/truncated image: the
                // partially-restored Soc is discarded below and the run
                // falls back to a fresh cold warm-up -- correctness never
                // depends on the image.
                std::fprintf(stderr,
                             "warm-image restore failed (%s); cold run\n",
                             e.what());
                restored = false;
            }
            if (restored) {
                heartbeatBeat(hb_fd);
                const sim::Cycle base = soc.eq().now();
                harness::ScenarioResult r = harness::measureScenario(soc, ss);
                return {harness::scenarioResultJson(r), r.end_cycle - base,
                        true};
            }
        }
    }
    soc::Soc soc(harness::scenarioSocConfig(ss));
    harness::warmScenario(soc, ss);
    heartbeatBeat(hb_fd);
    harness::ScenarioResult r = harness::measureScenario(soc, ss);
    return {harness::scenarioResultJson(r), r.end_cycle, false};
}

/**
 * Scenario-job child body. Exit codes: 0 ok, 2 exception, 3 invalid result,
 * 4 nondeterministic. Typed sim:: errors are printed with their type name
 * ("sim::ConfigError: ...") so the parent's retry taxonomy can classify
 * them from the captured stderr.
 */
[[noreturn]] void
scenarioChild(const JobState &st, unsigned runs, const ResultCache &cache,
              const std::string &result_path, int hb_fd, unsigned attempt)
{
    maybeInjectCrash(st.job->name);
    ChaosPlan::env().maybeCrashOrHang(st.job->name, attempt);
    heartbeatBeat(hb_fd);
    int code = 0;
    try {
        harness::ScenarioSpec ss = harness::parseScenarioSpec(st.job->spec);
        ScenarioRun r1 = runScenarioOnce(ss, st.warm_image, hb_fd);
        heartbeatBeat(hb_fd);
        std::uint64_t executed = r1.executed_cycles;
        std::optional<bool> deterministic;
        if (runs >= 2) {
            ScenarioRun r2 = runScenarioOnce(ss, st.warm_image, hb_fd);
            heartbeatBeat(hb_fd);
            executed += r2.executed_cycles;
            deterministic = json::dump(r1.result) == json::dump(r2.result);
        }

        json::Object doc;
        doc.emplace_back("job", st.job->spec);
        doc.emplace_back("cache_key", json::Value(st.cache_key));
        doc.emplace_back("result", r1.result);
        doc.emplace_back("deterministic",
                         deterministic ? json::Value(*deterministic)
                                       : json::Value(nullptr));
        doc.emplace_back("simulated_cycles", json::Value(executed));
        doc.emplace_back("restored_from_warm_image", json::Value(r1.restored));
        json::Value v(std::move(doc));
        json::writeFile(result_path, v);

        const bool valid = r1.result.getBool("valid", false);
        if (!valid)
            code = 3;
        else if (deterministic && !*deterministic)
            code = 4;
        else
            cache.store(st.cache_key, v);
    } catch (const sim::ConfigError &e) {
        std::fprintf(stderr, "job failed: sim::ConfigError: %s\n", e.what());
        code = 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "job failed: %s\n", e.what());
        code = 2;
    }
    std::fflush(nullptr);
    ::_exit(code);
}

/** Exec-job child body: apply env, redirect, exec the argv. */
[[noreturn]] void
execChild(const JobState &st, const std::string &out_path,
          const std::string &err_path, unsigned attempt)
{
    redirectTo(out_path, err_path);
    maybeInjectCrash(st.job->name);
    ChaosPlan::env().maybeCrashOrHang(st.job->name, attempt);
    if (const json::Value *env = st.job->spec.get("env")) {
        for (const auto &[k, v] : env->asObject()) {
            std::string val = v.isString() ? v.asString() : json::dump(v);
            ::setenv(k.c_str(), val.c_str(), 1);
        }
    }
    const json::Array &argv_json = st.job->spec.get("argv")->asArray();
    std::vector<std::string> argv_s;
    argv_s.reserve(argv_json.size());
    for (const json::Value &a : argv_json)
        argv_s.push_back(a.isString() ? a.asString() : json::dump(a));
    std::vector<char *> argv;
    argv.reserve(argv_s.size() + 1);
    for (std::string &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execvp(argv[0], argv.data());
    std::fprintf(stderr, "exec %s: %s\n", argv[0], std::strerror(errno));
    ::_exit(127);
}

std::string
hex64(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
    return buf;
}

std::uint64_t
fnvString(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

}  // namespace

int
runCampaign(const CampaignSpec &spec, const RunnerOptions &opts)
{
    const std::string out = opts.out_dir;
    const std::string jobs_dir = out + "/jobs";
    const std::string warm_dir = out + "/warm";
    fs::create_directories(jobs_dir);
    fs::create_directories(warm_dir);
    ResultCache cache(out + "/cache", opts.use_cache);
    const unsigned workers = opts.workers ? opts.workers : spec.workers;
    const ChaosPlan chaos = ChaosPlan::env();
    const bool use_hb = spec.heartbeat_timeout_s > 0;

    // Journal: replay first on resume (the fingerprint pins the journal to
    // this spec), then open for appending -- truncating on fresh runs.
    const std::string journal_path = out + "/journal.jsonl";
    const std::uint64_t spec_fnv = specFingerprint(spec.doc);
    JournalReplay replay;
    if (opts.resume) {
        replay = replayJournal(journal_path);
        if (replay.header_seen)
            MAPLE_CHECK(replay.spec_fnv == spec_fnv, sim::ConfigError,
                        "cannot resume %s: journal was written by a "
                        "different campaign spec (fnv %s != %s)",
                        out.c_str(), hex64(replay.spec_fnv).c_str(),
                        hex64(spec_fnv).c_str());
        if (replay.torn_lines)
            std::fprintf(stderr,
                         "resume: skipped %u torn journal line(s)\n",
                         replay.torn_lines);
    }
    Journal journal;
    journal.open(journal_path, /*truncate=*/!opts.resume);
    {
        json::Object hdr;
        hdr.emplace_back("event", json::Value("campaign"));
        hdr.emplace_back("name", json::Value(spec.name));
        hdr.emplace_back("spec_fnv", json::Value(hex64(spec_fnv)));
        hdr.emplace_back("resume", json::Value(opts.resume));
        journal.append(json::Value(std::move(hdr)));
    }
    // A copy of the spec next to the journal makes `maple_campaign resume
    // <out>` self-contained.
    if (!spec.doc.isNull())
        json::writeFile(out + "/spec.json", spec.doc);

    long crash_runner_after = 0;
    if (const char *e = std::getenv(kCrashRunnerEnv))
        crash_runner_after = std::strtol(e, nullptr, 10);
    unsigned terminal_finishes = 0;
    unsigned retries_total = 0;

    // Terminal ("retry": false) finish records end a job; with the runner
    // kill-switch armed, the runner dies right after journaling the n-th
    // one -- the window the resume path must cover.
    auto journalFinish = [&](const JobState &st, const std::string &status,
                             bool retry) {
        json::Object r;
        r.reserve(5);
        r.emplace_back("event", json::Value("finish"));
        r.emplace_back("job", json::Value(st.job->name));
        r.emplace_back("attempt",
                       json::Value(st.attempt ? st.attempt - 1 : 0));
        r.emplace_back("status", json::Value(status));
        r.emplace_back("retry", json::Value(retry));
        journal.append(json::Value(std::move(r)));
        if (!retry) {
            ++terminal_finishes;
            if (crash_runner_after > 0 &&
                terminal_finishes >=
                    static_cast<unsigned>(crash_runner_after)) {
                std::fprintf(stderr,
                             "injected runner crash (%s=%ld) after %u "
                             "terminal finishes\n",
                             kCrashRunnerEnv, crash_runner_after,
                             terminal_finishes);
                std::fflush(nullptr);
                ::_exit(70);
            }
        }
    };

    RetryPolicy policy(spec.retry_budget, spec.retry_backoff_base_s,
                       spec.retry_backoff_cap_s,
                       spec_fnv ^ 0x9e3779b97f4a7c15ull);

    std::vector<JobState> states(spec.jobs.size());
    unsigned warmups_run = 0;

    // Cache probe (and, on resume, journal replay) decide which jobs still
    // need to run; warm images are then prepared for those. Warm images are
    // keyed by the scenario's warm key: every variant of one dataset/SoC
    // shape shares a single warm simulation.
    std::map<std::string, std::string> warm_paths;
    for (size_t i = 0; i < spec.jobs.size(); ++i) {
        JobState &st = states[i];
        st.job = &spec.jobs[i];
        st.timeout_s = st.job->spec.getDouble("timeout_s", spec.timeout_s);
        try {
            st.cache_key = cache.keyFor(*st.job);
        } catch (const sim::ConfigError &e) {
            // E.g. an exec job whose binary does not exist: the job is
            // failed with typed diagnostics, the campaign keeps going.
            st.status = "failed";
            st.diagnostics = std::string("sim::ConfigError: ") + e.what();
            journalFinish(st, st.status, false);
            continue;
        }
        if (auto hit = cache.load(st.cache_key)) {
            st.status = "cached";
            st.cache_hit = true;
            st.result = std::move(*hit);
            json::writeFile(jobs_dir + "/" + st.job->name + ".json",
                            st.result);
            if (st.job->type == "exec") {
                // Re-materialize captured output for downstream scripts.
                writeText(jobs_dir + "/" + st.job->name + ".stdout",
                          st.result.getString("stdout", ""));
                writeText(jobs_dir + "/" + st.job->name + ".stderr",
                          st.result.getString("stderr", ""));
            }
            if (const json::Value *d = st.result.get("deterministic"))
                if (d->isBool())
                    st.deterministic = d->asBool();
            journalFinish(st, "cached", false);
            continue;
        }
        if (opts.resume) {
            auto it = replay.jobs.find(st.job->name);
            if (it != replay.jobs.end()) {
                // Completed on a previous incarnation but not in the cache
                // (disabled or evicted): serve the per-job result file.
                if (it->second.completed) {
                    const std::string rp =
                        jobs_dir + "/" + st.job->name + ".json";
                    bool served = false;
                    try {
                        st.result = json::parseFile(rp);
                        served = true;
                    } catch (const json::JsonError &) {
                        // Result file gone/torn: fall through and re-run.
                    }
                    if (served) {
                        st.status = "ok";
                        if (const json::Value *d =
                                st.result.get("deterministic"))
                            if (d->isBool())
                                st.deterministic = d->asBool();
                        cache.store(st.cache_key, st.result);
                        journalFinish(st, st.status, false);
                        continue;
                    }
                }
                // In-flight or failed: re-queue. Attempts already journaled
                // keep counting against the retry budget.
                st.attempt = it->second.attempts;
            }
        }
        if (st.job->type != "scenario")
            continue;
        harness::ScenarioSpec ss = harness::parseScenarioSpec(st.job->spec);
        const std::string wk = json::dump(harness::scenarioWarmKey(ss));
        auto it = warm_paths.find(wk);
        if (it == warm_paths.end()) {
            const std::string path =
                warm_dir + "/" + hex64(fnvString(wk)) + ".img";
            if (opts.resume && fs::exists(path)) {
                // Reuse the previous incarnation's image; children fall
                // back to a cold run if it fails its checksum.
                it = warm_paths.emplace(wk, path).first;
            } else {
                soc::Soc soc(harness::scenarioSocConfig(ss));
                harness::warmScenario(soc, ss);
                std::ofstream f(path, std::ios::binary | std::ios::trunc);
                soc.snapshot(f);
                f.close();
                ++warmups_run;
                if (chaos.corrupt_snapshot)
                    chaos.maybeCorruptFile(
                        path, "corrupt-snapshot:" + hex64(fnvString(wk)));
                it = warm_paths.emplace(wk, path).first;
            }
        }
        st.warm_image = it->second;
    }

    // Schedule: fork up to `workers` children, poll with WNOHANG, enforce
    // per-job deadlines and heartbeat liveness. Exec jobs with runs=2 get a
    // second phase (a second process) and a byte-compare of the captured
    // stdout. Transient failures re-enter the queue through `cooling` until
    // their backoff deadline passes.
    std::vector<size_t> pending;
    for (size_t i = 0; i < states.size(); ++i)
        if (states[i].status.empty())
            pending.push_back(i);
    std::vector<size_t> cooling;
    std::vector<size_t> running;

    auto stdoutPath = [&](const JobState &st, unsigned phase) {
        std::string p = jobs_dir + "/" + st.job->name + ".stdout";
        return phase ? p + "." + std::to_string(phase) : p;
    };
    auto stderrPath = [&](const JobState &st, unsigned phase) {
        std::string p = jobs_dir + "/" + st.job->name + ".stderr";
        return phase ? p + "." + std::to_string(phase) : p;
    };

    auto launch = [&](size_t i) {
        JobState &st = states[i];
        st.started = Clock::now();
        st.last_beat = st.started;
        unsigned attempt_now = st.attempt;
        if (st.phase == 0) {
            json::Object r;
            r.emplace_back("event", json::Value("start"));
            r.emplace_back("job", json::Value(st.job->name));
            r.emplace_back("attempt", json::Value(st.attempt));
            journal.append(json::Value(std::move(r)));
            ++st.attempt;
        } else {
            attempt_now = st.attempt ? st.attempt - 1 : 0;
        }
        if (use_hb)
            st.hb.open();
        pid_t pid = ::fork();
        MAPLE_CHECK(pid >= 0, sim::FatalError, "fork failed: %s",
                    std::strerror(errno));
        if (pid == 0) {
            if (use_hb) {
                st.hb.becomeChild();
                // Cooperating exec jobs find the beat fd here; the fd is
                // not close-on-exec, so it survives into the binary.
                ::setenv(kHeartbeatFdEnv,
                         std::to_string(st.hb.writeFd()).c_str(), 1);
            }
            const int hb_fd = use_hb ? st.hb.writeFd() : -1;
            if (st.job->type == "scenario") {
                redirectTo(stdoutPath(st, 0), stderrPath(st, 0));
                scenarioChild(st, spec.runs, cache,
                              jobs_dir + "/" + st.job->name + ".json", hb_fd,
                              attempt_now);
            }
            execChild(st, stdoutPath(st, st.phase), stderrPath(st, st.phase),
                      attempt_now);
        }
        if (use_hb)
            st.hb.becomeParent();
        st.pid = pid;
        running.push_back(i);
    };

    auto finishExec = [&](JobState &st) {
        const auto expect = st.job->spec.getInt("expect_exit", 0);
        json::Object doc;
        doc.emplace_back("job", st.job->spec);
        doc.emplace_back("cache_key", json::Value(st.cache_key));
        doc.emplace_back("exit_code", json::Value(st.exit_code));
        doc.emplace_back("deterministic",
                         st.deterministic ? json::Value(*st.deterministic)
                                          : json::Value(nullptr));
        doc.emplace_back("stdout",
                         json::Value(readAll(stdoutPath(st, 0))));
        doc.emplace_back("stderr",
                         json::Value(readAll(stderrPath(st, 0))));
        st.result = json::Value(std::move(doc));
        json::writeFile(jobs_dir + "/" + st.job->name + ".json", st.result);
        if (st.status.empty())
            st.status = st.exit_code == expect ? "ok" : "failed";
        if (st.status == "ok" && !(st.deterministic && !*st.deterministic))
            cache.store(st.cache_key, st.result);
    };

    // A terminal outcome either sticks (success / permanent / budget spent)
    // or re-queues the job with backoff. Quarantine is reserved for jobs
    // that burned a real retry budget: with retry_budget=0 a failure is
    // just a failure, exactly as before the retry machinery existed.
    auto finalize = [&](size_t i) {
        JobState &st = states[i];
        const OutcomeClass oc =
            classifyOutcome(st.status, st.exit_code, st.term_signal,
                            readTail(stderrPath(st, 0)));
        if (oc == OutcomeClass::Transient && policy.budget() > 0) {
            if (st.attempt <= policy.budget()) {
                journalFinish(st, st.status, /*retry=*/true);
                ++retries_total;
                const double delay = policy.backoffSeconds(st.attempt);
                std::fprintf(stderr,
                             "campaign: job %s %s (attempt %u); retrying "
                             "in %.3fs\n",
                             st.job->name.c_str(), st.status.c_str(),
                             st.attempt, delay);
                st.status.clear();
                st.exit_code = 0;
                st.term_signal = 0;
                st.timed_out = false;
                st.hung = false;
                st.term_sent = false;
                st.killed = false;
                st.phase = 0;
                st.first_exit = 0;
                st.deterministic.reset();
                st.diagnostics.clear();
                st.result = json::Value();
                st.not_before =
                    Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(delay));
                cooling.push_back(i);
                return;
            }
            st.quarantined = true;
            std::fprintf(stderr,
                         "campaign: job %s quarantined after %u attempts "
                         "(last: %s)\n",
                         st.job->name.c_str(), st.attempt,
                         st.status.c_str());
        }
        journalFinish(st, st.status, /*retry=*/false);
    };

    auto reap = [&](size_t i, int wstatus) {
        JobState &st = states[i];
        st.pid = -1;
        st.hb.closeAll();
        st.host_seconds += std::chrono::duration<double>(Clock::now() -
                                                         st.started)
                               .count();
        if (st.timed_out) {
            st.status = "timeout";
            st.diagnostics = "stopped after exceeding the per-job timeout";
        } else if (st.hung) {
            st.status = "hung";
            st.diagnostics =
                "no heartbeat for " +
                std::to_string(spec.heartbeat_timeout_s) + "s";
        } else if (WIFSIGNALED(wstatus)) {
            st.status = "crashed";
            st.term_signal = WTERMSIG(wstatus);
            st.diagnostics = "terminated by signal " +
                             std::to_string(st.term_signal) + "; stderr: " +
                             readTail(stderrPath(st, st.phase));
        } else {
            st.exit_code = WEXITSTATUS(wstatus);
        }

        if (st.job->type == "scenario") {
            if (st.status.empty()) {
                switch (st.exit_code) {
                case 0: st.status = "ok"; break;
                case 3:
                    st.status = "failed";
                    st.diagnostics = "result failed validation";
                    break;
                case 4:
                    st.status = "failed";
                    st.diagnostics = "nondeterministic across repeat runs";
                    break;
                default:
                    st.status = "failed";
                    st.diagnostics = "exit code " +
                                     std::to_string(st.exit_code) +
                                     "; stderr: " +
                                     readTail(stderrPath(st, 0));
                }
            }
            const std::string rp = jobs_dir + "/" + st.job->name + ".json";
            if (fs::exists(rp)) {
                try {
                    st.result = json::parseFile(rp);
                    if (const json::Value *d = st.result.get("deterministic"))
                        if (d->isBool())
                            st.deterministic = d->asBool();
                } catch (const json::JsonError &) {
                }
            }
            finalize(i);
            return;
        }

        // Exec job: maybe run phase 2 for the determinism double-run.
        if (st.status.empty() && spec.runs >= 2 && st.phase == 0) {
            st.first_exit = st.exit_code;
            st.phase = 1;
            launch(i);
            return;
        }
        if (st.phase == 1 && st.status.empty())
            st.deterministic = st.exit_code == st.first_exit &&
                               readAll(stdoutPath(st, 0)) ==
                                   readAll(stdoutPath(st, 1));
        finishExec(st);
        finalize(i);
    };

    while (!pending.empty() || !cooling.empty() || !running.empty()) {
        const auto now = Clock::now();
        for (size_t c = 0; c < cooling.size();) {
            if (now >= states[cooling[c]].not_before) {
                pending.push_back(cooling[c]);
                cooling.erase(cooling.begin() + static_cast<long>(c));
                continue;
            }
            ++c;
        }
        while (!pending.empty() && running.size() < workers) {
            size_t i = pending.back();
            pending.pop_back();
            launch(i);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        for (size_t r = 0; r < running.size();) {
            size_t i = running[r];
            JobState &st = states[i];
            int wstatus = 0;
            pid_t got = ::waitpid(st.pid, &wstatus, WNOHANG);
            if (got == st.pid) {
                running.erase(running.begin() + static_cast<long>(r));
                reap(i, wstatus);  // may relaunch (exec phase 2 / retry)
                continue;
            }
            const auto poll_now = Clock::now();
            if (use_hb && st.hb.drain())
                st.last_beat = poll_now;
            const double elapsed =
                std::chrono::duration<double>(poll_now - st.started).count();
            if (!st.term_sent) {
                // Escalation: SIGTERM first so a cooperating child can
                // flush partial results, SIGKILL after the grace window.
                // `hung` (beat-less) is distinct from merely slow, which
                // only the wall-clock budget bounds.
                const double since_beat =
                    std::chrono::duration<double>(poll_now - st.last_beat)
                        .count();
                if (elapsed > st.timeout_s)
                    st.timed_out = true;
                else if (use_hb && since_beat > spec.heartbeat_timeout_s)
                    st.hung = true;
                if (st.timed_out || st.hung) {
                    ::kill(st.pid, SIGTERM);
                    st.term_sent = true;
                    st.term_time = poll_now;
                }
            } else if (!st.killed &&
                       std::chrono::duration<double>(poll_now - st.term_time)
                               .count() > spec.grace_s) {
                ::kill(st.pid, SIGKILL);
                st.killed = true;
            }
            ++r;
        }
    }

    // Manifest + report.
    unsigned ok = 0, failed = 0, cached = 0, quarantined = 0;
    std::uint64_t simulated_cycles = 0;
    json::Array rows;
    json::Array quarantine;
    for (const JobState &st : states) {
        if (st.status == "ok")
            ++ok;
        else if (st.status == "cached")
            ++cached;
        else if (st.quarantined)
            ++quarantined;
        else
            ++failed;
        std::uint64_t cycles = 0;
        if (!st.cache_hit && !st.result.isNull())
            cycles = static_cast<std::uint64_t>(
                st.result.getInt("simulated_cycles", 0));
        simulated_cycles += cycles;

        json::Object row;
        row.emplace_back("name", json::Value(st.job->name));
        row.emplace_back("type", json::Value(st.job->type));
        row.emplace_back("status", json::Value(st.status));
        row.emplace_back("cache_key", json::Value(st.cache_key));
        row.emplace_back("cache_hit", json::Value(st.cache_hit));
        row.emplace_back("attempts", json::Value(st.attempt));
        row.emplace_back("quarantined", json::Value(st.quarantined));
        row.emplace_back("exit_code", json::Value(st.exit_code));
        row.emplace_back("signal", json::Value(st.term_signal));
        row.emplace_back("host_seconds", json::Value(st.host_seconds));
        row.emplace_back("simulated_cycles", json::Value(cycles));
        row.emplace_back("deterministic",
                         st.deterministic ? json::Value(*st.deterministic)
                                          : json::Value(nullptr));
        row.emplace_back("result",
                         json::Value("jobs/" + st.job->name + ".json"));
        row.emplace_back("diagnostics", json::Value(st.diagnostics));
        rows.push_back(json::Value(std::move(row)));

        if (st.quarantined) {
            json::Object q;
            q.emplace_back("name", json::Value(st.job->name));
            q.emplace_back("status", json::Value(st.status));
            q.emplace_back("attempts", json::Value(st.attempt));
            q.emplace_back("diagnostics", json::Value(st.diagnostics));
            quarantine.push_back(json::Value(std::move(q)));
        }
    }

    {
        json::Object rec;
        rec.emplace_back("event", json::Value("end"));
        rec.emplace_back("ok", json::Value(ok));
        rec.emplace_back("failed", json::Value(failed));
        rec.emplace_back("cached", json::Value(cached));
        rec.emplace_back("quarantined", json::Value(quarantined));
        journal.append(json::Value(std::move(rec)));
    }

    json::Object totals;
    totals.emplace_back("jobs", json::Value(states.size()));
    totals.emplace_back("ok", json::Value(ok));
    totals.emplace_back("failed", json::Value(failed));
    totals.emplace_back("cached", json::Value(cached));
    totals.emplace_back("quarantined", json::Value(quarantined));
    totals.emplace_back("retries", json::Value(retries_total));
    totals.emplace_back("warmups_run", json::Value(warmups_run));
    totals.emplace_back("cache_hits", json::Value(cached));
    totals.emplace_back("cache_evictions", json::Value(cache.evictions()));
    totals.emplace_back("simulated_cycles", json::Value(simulated_cycles));

    json::Object manifest;
    manifest.emplace_back("campaign", json::Value(spec.name));
    manifest.emplace_back("workers", json::Value(workers));
    manifest.emplace_back("runs", json::Value(spec.runs));
    manifest.emplace_back("totals", json::Value(std::move(totals)));
    manifest.emplace_back("quarantine", json::Value(std::move(quarantine)));
    manifest.emplace_back("jobs", json::Value(std::move(rows)));
    json::writeFile(out + "/manifest.json", json::Value(std::move(manifest)));

    {
        std::ofstream md(out + "/report.md", std::ios::trunc);
        md << "# Campaign: " << spec.name << "\n\n"
           << "- jobs: " << states.size() << " (ok " << ok << ", cached "
           << cached << ", failed " << failed << ", quarantined "
           << quarantined << ")\n"
           << "- retries: " << retries_total
           << ", cache evictions: " << cache.evictions() << "\n"
           << "- warm simulations: " << warmups_run << "\n"
           << "- simulated cycles: " << simulated_cycles << "\n\n"
           << "| job | status | cycles | valid | deterministic | cache |\n"
           << "|---|---|---:|---|---|---|\n";
        for (const JobState &st : states) {
            std::string valid = "-";
            std::uint64_t cycles = 0;
            if (const json::Value *r = st.result.get("result")) {
                valid = r->getBool("valid", false) ? "yes" : "NO";
                cycles = static_cast<std::uint64_t>(r->getInt("cycles", 0));
            }
            md << "| " << st.job->name << " | " << st.status << " | "
               << cycles << " | " << valid << " | "
               << (st.deterministic ? (*st.deterministic ? "yes" : "NO")
                                    : "-")
               << " | " << (st.cache_hit ? "hit" : "miss") << " |\n";
        }
    }

    std::fprintf(stderr,
                 "campaign %s: %zu jobs, %u ok, %u cached, %u failed, "
                 "%u quarantined (%u retries, %u warmups, %u evictions, "
                 "%llu simulated cycles) -> %s\n",
                 spec.name.c_str(), states.size(), ok, cached, failed,
                 quarantined, retries_total, warmups_run, cache.evictions(),
                 (unsigned long long)simulated_cycles, out.c_str());
    return failed > 0 && opts.strict ? 1 : 0;
}

}  // namespace maple::campaign
