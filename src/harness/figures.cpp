#include "harness/figures.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "harness/stats_io.hpp"
#include "sim/stats.hpp"
#include "soc/knobs.hpp"

namespace maple::harness {

std::string
applyGridJsonFlag(int &argc, char **argv)
{
    std::string path;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--json", 6) == 0) {
            const char *value = nullptr;
            if (arg[6] == '=')
                value = arg + 7;
            else if (arg[6] == '\0' && i + 1 < argc)
                value = argv[++i];
            if (!value || !*value) {
                std::fprintf(stderr, "--json requires a value\n");
                std::exit(2);
            }
            path = value;
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    argv[argc] = nullptr;
    return path;
}

void
writeGridJson(const std::string &path, const std::string &bench,
              const Grid &grid)
{
    if (path.empty())
        return;
    json::Value doc = gridToJson(grid);
    json::Object out;
    out.emplace_back("bench", json::Value(bench));
    for (auto &kv : doc.asObject())
        out.push_back(std::move(kv));
    json::writeFile(path, json::Value(std::move(out)));
    std::fprintf(stderr, "wrote %s\n", path.c_str());
}

namespace {

[[noreturn]] void
listKnobsAndExit()
{
    std::printf("MAPLE_* knobs (flag or environment variable; an empty value "
                "is unset):\n\n");
    for (const soc::Knob &k : soc::knobs()) {
        std::printf("  %s=%s  (default %s)\n", soc::knobFlag(k).c_str(),
                    k.syntax, k.def);
        std::printf("      %s: %s\n\n", k.env, k.help);
    }
    std::exit(0);
}

}  // namespace

void
applyKnobFlags(int &argc, char **argv)
{
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (arg == "--list-knobs")
            listKnobsAndExit();
        const soc::Knob *hit = nullptr;
        std::string flag;
        for (const soc::Knob &k : soc::knobs()) {
            flag = soc::knobFlag(k);
            if (arg.starts_with(flag) &&
                (arg.size() == flag.size() || arg[flag.size()] == '=')) {
                hit = &k;
                break;
            }
        }
        if (!hit) {
            argv[out++] = argv[i];
            continue;
        }
        const char *value = arg.size() > flag.size() ? argv[i] + flag.size() + 1
                            : i + 1 < argc           ? argv[++i]
                                                     : nullptr;
        if (!value || !*value) {
            std::fprintf(stderr, "%s requires a value\n", flag.c_str());
            std::exit(2);
        }
        setenv(hit->env, value, /*overwrite=*/1);
    }
    argc = out;
    argv[argc] = nullptr;
}

Grid
runGrid(const std::vector<std::unique_ptr<app::Workload>> &workloads,
        const std::vector<app::Technique> &techniques,
        const app::RunConfig &base,
        const std::function<void(app::RunConfig &, app::Technique)> &tweak)
{
    Grid grid;
    for (const auto &w : workloads) {
        for (app::Technique t : techniques) {
            app::RunConfig cfg = base;
            cfg.tech = t;
            if (tweak)
                tweak(cfg, t);
            app::RunResult r = w->run(cfg);
            if (!r.valid) {
                MAPLE_FATAL("invalid result: %s under %s (checksum mismatch)",
                            r.workload.c_str(), r.technique.c_str());
            }
            std::fprintf(stderr, "  [run] %-6s %-15s %12llu cycles%s\n",
                         r.workload.c_str(), r.technique.c_str(),
                         (unsigned long long)r.cycles,
                         r.fell_back_to_doall ? "  (fell back to doall)" : "");
            grid.put(std::move(r));
        }
    }
    return grid;
}

std::vector<std::string>
workloadNames(const std::vector<std::unique_ptr<app::Workload>> &ws)
{
    std::vector<std::string> names;
    for (const auto &w : ws)
        names.push_back(w->name());
    return names;
}

void
printSpeedupTable(const std::string &title, const Grid &grid,
                  const std::vector<std::string> &workloads,
                  const std::vector<app::Technique> &series,
                  app::Technique baseline)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("%-8s", "app");
    for (app::Technique t : series)
        std::printf("  %14s", app::techniqueName(t));
    std::printf("\n");

    std::vector<std::vector<double>> cols(series.size());
    for (const std::string &w : workloads) {
        std::printf("%-8s", w.c_str());
        double base_cycles =
            static_cast<double>(grid.at(w, baseline).cycles);
        for (size_t i = 0; i < series.size(); ++i) {
            double sp = base_cycles /
                        static_cast<double>(grid.at(w, series[i]).cycles);
            cols[i].push_back(sp);
            std::printf("  %13.2fx", sp);
        }
        std::printf("\n");
    }
    std::printf("%-8s", "geomean");
    for (auto &c : cols)
        std::printf("  %13.2fx", sim::geomean(c));
    std::printf("\n");
}

void
printMetricTable(const std::string &title, const Grid &grid,
                 const std::vector<std::string> &workloads,
                 const std::vector<app::Technique> &series,
                 const std::function<double(const app::RunResult &)> &metric,
                 const std::string &unit)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("%-8s", "app");
    for (app::Technique t : series)
        std::printf("  %14s", app::techniqueName(t));
    std::printf("\n");
    for (const std::string &w : workloads) {
        std::printf("%-8s", w.c_str());
        for (app::Technique t : series)
            std::printf("  %12.2f%s", metric(grid.at(w, t)), unit.c_str());
        std::printf("\n");
    }
}

}  // namespace maple::harness
