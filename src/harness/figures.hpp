/**
 * @file
 * Shared experiment runner for the per-figure bench binaries: runs a
 * (workload x technique) grid on a given SoC configuration and prints
 * paper-style rows (one line per workload, one column per technique,
 * geomean at the bottom). Every cell is backed by a checksum-validated run.
 */
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace maple::harness {

struct Cell {
    app::RunResult result;
};

/** Results keyed by (workload, technique). */
class Grid {
  public:
    void
    put(app::RunResult r)
    {
        // Build the key before moving r: the assignment's right side is
        // sequenced first and would otherwise read moved-from strings.
        std::pair<std::string, std::string> key{r.workload, r.technique};
        cells_[key] = Cell{std::move(r)};
    }

    const app::RunResult &
    at(const std::string &workload, app::Technique t) const
    {
        auto it = cells_.find({workload, app::techniqueName(t)});
        MAPLE_ASSERT(it != cells_.end(), "missing grid cell %s/%s",
                     workload.c_str(), app::techniqueName(t));
        return it->second.result;
    }

    /** All cells, sorted by (workload, technique) -- for serialization. */
    const std::map<std::pair<std::string, std::string>, Cell> &
    cells() const
    {
        return cells_;
    }

  private:
    std::map<std::pair<std::string, std::string>, Cell> cells_;
};

/**
 * Run every workload under every technique. @p tweak lets a figure adjust
 * the RunConfig per technique (e.g. thread counts). Aborts the bench if any
 * run produces an invalid (checksum-mismatched) result.
 */
Grid runGrid(const std::vector<std::unique_ptr<app::Workload>> &workloads,
             const std::vector<app::Technique> &techniques,
             const app::RunConfig &base,
             const std::function<void(app::RunConfig &, app::Technique)> &tweak = {});

/**
 * Print a speedup table: value(workload, tech) = cycles(baseline) /
 * cycles(tech), plus a geomean row.
 */
void printSpeedupTable(const std::string &title, const Grid &grid,
                       const std::vector<std::string> &workloads,
                       const std::vector<app::Technique> &series,
                       app::Technique baseline);

/** Print a table of an arbitrary per-cell metric (no geomean constraints). */
void printMetricTable(
    const std::string &title, const Grid &grid,
    const std::vector<std::string> &workloads,
    const std::vector<app::Technique> &series,
    const std::function<double(const app::RunResult &)> &metric,
    const std::string &unit);

/** Workload name list in figure order. */
std::vector<std::string>
workloadNames(const std::vector<std::unique_ptr<app::Workload>> &ws);

/**
 * Strip every knob flag from argv into its MAPLE_* environment variable,
 * which every Soc construction then reads (soc/knobs.hpp). Each knob's flag
 * is derived from its name: MAPLE_FAULT_COH_DROP is --fault-coh-drop, taking
 * --flag=value or --flag value. Unknown flags stay in argv for the caller.
 * --list-knobs prints every knob with its flag, syntax, default and help,
 * then exits. Multi-SoC binaries write one trace file per SoC (".1", ".2"
 * suffixes).
 */
void applyKnobFlags(int &argc, char **argv);

/**
 * Strip `--json=<path>` (or `--json <path>`) from argv and return the path,
 * empty when absent. Figure benches pass the result to writeGridJson so
 * their tables are also available machine-readably.
 */
std::string applyGridJsonFlag(int &argc, char **argv);

/**
 * Write the grid through the canonical serializer (harness/stats_io.hpp):
 * {"bench": <name>, "cells": [<RunResult>...]}. No-op when @p path is empty.
 */
void writeGridJson(const std::string &path, const std::string &bench,
                   const Grid &grid);

}  // namespace maple::harness
