#include "campaign/spec.hpp"

#include <set>

#include "harness/scenario.hpp"

namespace maple::campaign {

namespace {

/** Axis value rendered for a job name ("maple", "8"); strings unquoted. */
std::string
valueLabel(const json::Value &v)
{
    if (v.isString())
        return v.asString();
    std::string s = json::dump(v);
    while (!s.empty() && s.back() == '\n')
        s.pop_back();
    return s;
}

}  // namespace

CampaignSpec
parseCampaignSpec(const json::Value &doc)
{
    MAPLE_CHECK(doc.isObject(), json::JsonError,
                "campaign spec is not an object");
    CampaignSpec c;
    c.name = json::field(doc, "name", c.name);
    c.workers = json::field(doc, "workers", c.workers);
    c.runs = json::field(doc, "runs", c.runs);
    c.timeout_s = json::field(doc, "timeout_s", c.timeout_s);
    MAPLE_CHECK(c.workers >= 1 && (c.runs == 1 || c.runs == 2) &&
                    c.timeout_s > 0,
                json::JsonError, "bad campaign parameters");
    c.retry_budget = json::field(doc, "retry_budget", c.retry_budget);
    c.retry_backoff_base_s =
        json::field(doc, "retry_backoff_base_s", c.retry_backoff_base_s);
    c.retry_backoff_cap_s =
        json::field(doc, "retry_backoff_cap_s", c.retry_backoff_cap_s);
    c.heartbeat_timeout_s =
        json::field(doc, "heartbeat_timeout_s", c.heartbeat_timeout_s);
    c.grace_s = json::field(doc, "grace_s", c.grace_s);
    MAPLE_CHECK(c.retry_backoff_base_s > 0 &&
                    c.retry_backoff_cap_s >= c.retry_backoff_base_s &&
                    c.heartbeat_timeout_s >= 0 && c.grace_s >= 0,
                json::JsonError, "bad campaign retry/liveness parameters");
    c.doc = doc;

    // Cartesian expansion: base x axes x seeds. Each variant carries a
    // label naming exactly the members that vary.
    if (const json::Value *base = doc.get("base")) {
        MAPLE_CHECK(base->isObject(), json::JsonError,
                    "\"base\" is not an object");
        std::vector<std::pair<std::string, json::Value>> variants;
        variants.emplace_back("", *base);

        auto expand = [&variants](const std::string &axis,
                                  const json::Array &values) {
            MAPLE_CHECK(!values.empty(), json::JsonError,
                        "axis \"%s\" has no values", axis.c_str());
            std::vector<std::pair<std::string, json::Value>> next;
            for (const auto &[label, v] : variants) {
                for (const json::Value &value : values) {
                    json::Value j = v;
                    j.set(axis, value);
                    std::string l = label.empty() ? "" : label + ",";
                    next.emplace_back(l + axis + "=" + valueLabel(value), j);
                }
            }
            variants = std::move(next);
        };

        if (const json::Value *axes = doc.get("axes")) {
            MAPLE_CHECK(axes->isObject(), json::JsonError,
                        "\"axes\" is not an object");
            for (const auto &[axis, values] : axes->asObject()) {
                MAPLE_CHECK(values.isArray(), json::JsonError,
                            "axis \"%s\" is not an array", axis.c_str());
                expand(axis, values.asArray());
            }
        }
        if (const json::Value *seeds = doc.get("seeds")) {
            MAPLE_CHECK(seeds->isArray(), json::JsonError,
                        "\"seeds\" is not an array");
            expand("seed", seeds->asArray());
        }

        for (auto &[label, v] : variants) {
            Job job;
            job.name = label.empty() ? "base" : label;
            job.type = json::field(v, "type", std::string("scenario"));
            MAPLE_CHECK(job.type == "scenario", json::JsonError,
                        "expanded jobs must be scenario jobs");
            job.spec = std::move(v);
            c.jobs.push_back(std::move(job));
        }
    }

    if (const json::Value *jobs = doc.get("jobs")) {
        MAPLE_CHECK(jobs->isArray(), json::JsonError,
                    "\"jobs\" is not an array");
        for (const json::Value &v : jobs->asArray()) {
            MAPLE_CHECK(v.isObject(), json::JsonError,
                        "job entry is not an object");
            Job job;
            job.name = json::field(v, "name",
                                   "job-" + std::to_string(c.jobs.size()));
            job.type = json::field(v, "type", std::string("scenario"));
            MAPLE_CHECK(job.type == "scenario" || job.type == "exec",
                        json::JsonError, "job \"%s\": unknown type \"%s\"",
                        job.name.c_str(), job.type.c_str());
            if (job.type == "exec") {
                const json::Value *argv = v.get("argv");
                MAPLE_CHECK(argv && argv->isArray() &&
                                !argv->asArray().empty(),
                            json::JsonError,
                            "exec job \"%s\" needs a non-empty \"argv\"",
                            job.name.c_str());
            }
            job.spec = v;
            c.jobs.push_back(std::move(job));
        }
    }

    MAPLE_CHECK(!c.jobs.empty(), json::JsonError, "campaign has no jobs");
    std::set<std::string> names;
    for (Job &job : c.jobs) {
        MAPLE_CHECK(names.insert(job.name).second, json::JsonError,
                    "duplicate job name \"%s\"", job.name.c_str());
        // The runner reads a per-job timeout_s: check its type up front.
        (void)json::field(job.spec, "timeout_s", c.timeout_s);
        // Validate scenario jobs now so a typo fails fast, campaign-wide.
        if (job.type == "scenario")
            (void)harness::parseScenarioSpec(job.spec);
    }
    return c;
}

}  // namespace maple::campaign
