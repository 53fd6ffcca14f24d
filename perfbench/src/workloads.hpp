// The benchmark's workloads and their one-time setup.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "scenario/experiment.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep_runner.hpp"

namespace perfbench {

using namespace pathload;

/// A named mix of estimator measurements. Single-thread workloads run one
/// measurement at a time, cycling through scenario × estimator cells;
/// matrix workloads run scenario::run_matrix batches on `threads` threads.
struct WorkloadDef {
  std::string name;
  scenario::EngineVersion engine;
  std::vector<std::string> scenarios;
  /// Estimator and its weight: how many measurements of it each cycle
  /// runs per scenario (bulk-tcp weights delivery-rate 3:1 over btc so the
  /// median and p90 each fall inside one cost mode).
  std::vector<std::pair<std::string, int>> estimators;
  int threads{1};
  int matrix_runs{0};  ///< runs per matrix cell (matrix workloads only)
  /// Passes over the unit list in an end-to-end run; each unit keeps its
  /// fastest. Long measurements get few passes over many distinct inputs
  /// (their cost varies most with the input), short ones many passes.
  int passes{1};
  /// Units (measurements, or run_matrix calls) per host-second on the
  /// reference machine (perfbench/README.md). It only sizes the unit
  /// lists so a run takes about --seconds; it never enters a metric.
  double units_per_s{1.0};

  bool matrix() const { return threads > 1; }
};

const std::vector<WorkloadDef>& workloads();
const WorkloadDef* find_workload(const std::string& name);

/// One scenario × estimator cell of a single-thread workload's cycle.
struct Cell {
  std::size_t scenario;  ///< index into Prepared::specs
  std::size_t column;    ///< index into Prepared::columns[scenario]
};

/// Everything setup produces: validated specs, configured estimator
/// columns per scenario (gap-model tools carry that scenario's
/// narrow-link capacity hint, exactly as scenario_runner supplies it), the
/// measurement cycle, and the matrix runner.
struct Prepared {
  std::vector<scenario::ScenarioSpec> specs;
  std::vector<Rate> narrow;  ///< narrow-link capacity per spec
  std::vector<std::vector<scenario::MatrixEstimator>> columns;
  std::vector<Cell> cycle;
  std::unique_ptr<scenario::SweepRunner> runner;
};

/// The timed one-time setup: preset and estimator registries, spec
/// validation, estimator config parsing and SweepRunner construction.
Prepared prepare(const WorkloadDef& w);

}  // namespace perfbench
