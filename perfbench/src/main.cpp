// perfbench: estimator measurements per host-second, end to end and per
// layer. See perfbench/README.md for the workloads and metrics; run.py is
// the entry point (it builds this binary).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//   perfbench --workload <name> --setup-only
//
// --trace 0 runs the workload closed-loop for about --seconds and prints
// the end-to-end metrics. --trace 1 runs a fixed list of measurements
// three times (untraced, traced, traced again) and prints the per-layer
// metrics; it fails unless all three produce byte-identical reports and
// the two traced passes repeat every count. The last stdout line is one
// JSON object; the exit code is non-zero when any check failed.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "baselines/estimators.hpp"
#include "scenario/experiment.hpp"
#include "scenario/shard.hpp"
#include "scenario/sim_channel.hpp"
#include "trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kMinSamples = 100;     // so p90 keeps ten samples beyond it
constexpr double kTimedShare = 0.85;  // of --seconds, for the timed passes
constexpr Rate kPointSlack = Rate::mbps(1.0);  // scenario_runner's covers_A slack
constexpr int kMaxViolationLines = 10;
constexpr int kSetupSamples = 15;  // cold set-ups per end-to-end run

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of measurement (or matrix batch) `i` of a run seeded `seed`.
std::uint64_t unit_seed(std::uint64_t seed, std::uint64_t i) {
  return splitmix64(seed * 0x100000001b3ULL + i) >> 24;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Continued fraction of the incomplete beta function (modified Lentz).
double beta_cf(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const auto guard = [](double v) { return std::abs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 100000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::abs(step - 1.0) < 1e-15) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_cf(a, b, x) / a;
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

/// Harrell-Davis estimate of quantile q: a Beta-weighted mean of all order
/// statistics. Where a mix of measurement kinds leaves a gap in the
/// distribution right at q (compare-v2's p90 sits between btc and the
/// rest), the plain sample quantile jumps with one extreme sample; this
/// estimate moves smoothly.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  // Outside 12 standard deviations of Beta(a, b) the weights vanish.
  const double sd = std::sqrt(a * b / ((a + b) * (a + b) * (a + b + 1.0)));
  double prev = 0.0;
  double sum = 0.0;
  for (std::size_t i = 1; i <= v.size(); ++i) {
    const double x = static_cast<double>(i) / n;
    const double cdf = x < q - 12.0 * sd ? 0.0
                       : x > q + 12.0 * sd ? 1.0
                                           : incomplete_beta(a, b, x);
    sum += (cdf - prev) * v[i - 1];
    prev = cdf;
  }
  return sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Cold set-up time of `workload` in a fresh process: this binary rerun
/// with --setup-only, which prints the seconds its set-up took. Negative
/// when the child could not run.
double cold_setup_seconds(const std::string& workload) {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string self = "/proc/self/exe";
  std::string flag_w = "--workload";
  std::string name = workload;
  std::string flag_s = "--setup-only";
  char* argv[] = {self.data(), flag_w.data(), name.data(), flag_s.data(), nullptr};
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  for (ssize_t k; (k = read(fds[0], buf, sizeof buf)) > 0;) {
    out.append(buf, static_cast<std::size_t>(k));
  }
  close(fds[0]);
  if (rc != 0) return -1.0;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  double v = -1.0;
  return std::sscanf(out.c_str(), "setup_s %lf", &v) == 1 ? v : -1.0;
}

/// The finite-estimate and physical-bound invariants of scenario_fuzz, and
/// its no-crash rule (a failed report must not come from an exception).
std::string check_report(const core::EstimateReport& r, Rate narrow) {
  using Outcome = core::EstimateReport::Outcome;
  if (r.outcome == Outcome::kFailed &&
      (r.outcome_note.rfind("error:", 0) == 0 ||
       r.outcome_note.rfind("channel fault:", 0) == 0)) {
    return "no-crash: " + r.outcome_note;
  }
  if (!r.valid) return {};
  const double lo = r.low.bits_per_sec();
  const double hi = r.high.bits_per_sec();
  if (!std::isfinite(lo) || !std::isfinite(hi) || lo < 0.0 || lo > hi) {
    return "finite-estimate: low=" + std::to_string(lo) + " high=" + std::to_string(hi);
  }
  if (Rate::bps(hi) > narrow * 1.5 + Rate::mbps(1.0)) {
    return "physical-bound: high=" + std::to_string(hi) + " bps exceeds 1.5x narrow " +
           std::to_string(narrow.bits_per_sec());
  }
  return {};
}

/// Outcome tallies and output checks over every measurement of a run.
struct Stats {
  std::int64_t attempted{0};
  std::int64_t est_failed{0};  ///< outcome failed (the estimator gave no estimate)
  std::int64_t degraded{0};
  std::int64_t timeouts{0};
  std::int64_t violations{0};  ///< output invariant broken
  std::int64_t invalid{0};     ///< failed outcome or broken invariant
  std::int64_t probe_packets{0};
  std::int64_t covered{0};
  double rel_err_sum{0.0};
  std::int64_t rel_err_n{0};

  void add(const core::EstimateReport& r, const scenario::ScenarioSpec& spec, Rate narrow) {
    using Outcome = core::EstimateReport::Outcome;
    ++attempted;
    const std::string violation = check_report(r, narrow);
    if (!violation.empty()) {
      if (violations < kMaxViolationLines) {
        std::printf("VIOLATION %s on %s: %s\n", r.estimator.c_str(), spec.name.c_str(),
                    violation.c_str());
      }
      ++violations;
    }
    if (r.outcome == Outcome::kFailed) ++est_failed;
    if (r.outcome == Outcome::kDegraded) ++degraded;
    if (r.outcome == Outcome::kTimeout) ++timeouts;
    if (r.outcome == Outcome::kFailed || !violation.empty()) ++invalid;
    probe_packets += r.packets_sent;
    const Rate truth = spec.avail_bw();
    if (r.covers(truth, kPointSlack)) ++covered;
    if (r.valid && truth > Rate::zero()) {
      rel_err_sum += std::abs(r.center().bits_per_sec() - truth.bits_per_sec()) /
                     truth.bits_per_sec();
      ++rel_err_n;
    }
  }
};

/// Per-layer spans of single measurements (traced passes and the matrix
/// replay). Times are summed host nanoseconds; events are exact counts.
struct LayerTrace {
  std::int64_t measurements{0};
  std::int64_t total_ns{0};
  std::int64_t build_ns{0};
  std::int64_t warmup_ns{0};
  std::int64_t teardown_ns{0};
  std::int64_t self_ns{0};
  std::uint64_t events_warmup{0};
  ChannelTally channel;
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> self_by_est;  // ns, count
};

/// Host-side record of one run_matrix call.
struct MatrixCall {
  std::int64_t begin_ns{0};
  std::int64_t end_ns{0};
  std::vector<TaskRecord> tasks;
};

/// Everything a sequence of units recorded besides their own results.
struct Pass {
  Stats stats;
  LayerTrace layers;
  std::vector<MatrixCall> calls;
  std::int64_t wall_ns{0};
  std::vector<std::string> texts;  ///< report bytes per unit (traced runs only)
};

/// What one unit produced.
struct UnitResult {
  std::int64_t wall_ns{0};      ///< host time of the whole unit
  std::vector<double> meas_ms;  ///< host time of each measurement in it
  double sim_s{0.0};            ///< simulated seconds its measurements advanced
  std::string text;             ///< its reports' bytes
};

struct Sample {
  core::EstimateReport report;
  std::int64_t host_ns{0};
  double sim_s{0.0};
};

/// One measurement exactly as scenario::run_estimator_once makes it: a
/// fresh ScenarioInstance at `seed`, warmed up, and the estimator run
/// guarded on a SimProbeChannel with Rng{seed}. `trace` (may be null)
/// receives the spans. Host time runs from instance construction to its
/// destruction.
Sample measure(const scenario::ScenarioSpec& spec, const scenario::MatrixEstimator& col,
               std::uint64_t seed, LayerTrace* trace) {
  const auto est = col.make();
  Sample s;
  ChannelTally tally;
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = 0;
  std::int64_t t2 = 0;
  std::int64_t t3 = 0;
  std::uint64_t events_warmup = 0;
  {
    scenario::ScenarioSpec seeded = spec;
    seeded.seed = seed;
    scenario::ScenarioInstance inst{std::move(seeded)};
    t1 = now_ns();
    const std::uint64_t ev1 = inst.simulator().events_processed();
    inst.start();
    events_warmup = inst.simulator().events_processed() - ev1;
    t2 = now_ns();
    scenario::SimProbeChannel channel{inst.simulator(), inst.path()};
    Rng rng{seed};
    if (trace != nullptr) {
      TracedChannel traced{channel, &inst.simulator(), tally};
      s.report = core::run_guarded(*est, traced, rng);
    } else {
      s.report = core::run_guarded(*est, channel, rng);
    }
    s.sim_s = inst.simulator().now().secs();
    t3 = now_ns();
  }
  const std::int64_t t4 = now_ns();
  s.host_ns = t4 - t0;
  if (trace != nullptr) {
    const std::int64_t self = (t3 - t2) - tally.ns();
    ++trace->measurements;
    trace->total_ns += t4 - t0;
    trace->build_ns += t1 - t0;
    trace->warmup_ns += t2 - t1;
    trace->teardown_ns += t4 - t3;
    trace->self_ns += self;
    trace->events_warmup += events_warmup;
    trace->channel.add(tally);
    auto& slot = trace->self_by_est[col.name];
    slot.first += self;
    ++slot.second;
  }
  return s;
}

/// The report's bytes in the stable text form of scenario/shard.hpp
/// (%.17g doubles). The seed is left out: it is an input, and the
/// second-seed check compares outputs only.
std::string report_text(const core::EstimateReport& r, const scenario::ScenarioSpec& spec) {
  scenario::MatrixCell cell;
  cell.estimator = r.estimator;
  cell.scenario = spec.name;
  cell.reports.push_back(r);
  return scenario::cell_to_text(cell, 0);
}

/// Runs the units of a workload. A unit is one measurement for a
/// single-thread workload, and one run_matrix call (one scenario of a
/// batch) for a matrix workload. Unit u's inputs depend only on u and the
/// run's seed, so a list of units can be repeated exactly.
class Bench {
 public:
  Bench(const WorkloadDef& w, Prepared& p) : w_{w}, p_{p} {}

  enum class Mode { kPlain, kTraced, kReplay };

  std::size_t units_per_cycle() const {
    return w_.matrix() ? p_.specs.size() : p_.cycle.size();
  }

  /// "scenario/estimator" of a measurement, or the scenario of a matrix call.
  std::string unit_label(std::size_t u) const {
    if (w_.matrix()) return p_.specs[u % p_.specs.size()].name;
    const Cell& cell = p_.cycle[u % p_.cycle.size()];
    return p_.specs[cell.scenario].name + "/" + p_.columns[cell.scenario][cell.column].name;
  }

  /// Whole cycles that take about `seconds` on the reference machine
  /// (at least one).
  std::size_t cycles_for_seconds(double seconds) const {
    const double cycles =
        std::round(w_.units_per_s * seconds / static_cast<double>(units_per_cycle()));
    return static_cast<std::size_t>(std::max(cycles, 1.0));
  }

  /// Whole cycles holding at least `measurements` measurements.
  std::size_t cycles_for_measurements(std::int64_t measurements) const {
    std::int64_t per_cycle = 0;
    for (std::size_t u = 0; u < units_per_cycle(); ++u) {
      per_cycle +=
          w_.matrix() ? static_cast<std::int64_t>(p_.columns[u].size()) * w_.matrix_runs : 1;
    }
    return static_cast<std::size_t>((measurements + per_cycle - 1) / per_cycle);
  }

  /// `with_text` renders the reports' bytes into UnitResult::text.
  UnitResult run_unit(std::size_t u, std::uint64_t seed, Mode mode, bool with_text, Pass& out) {
    UnitResult res;
    if (w_.matrix()) {
      if (mode == Mode::kReplay) {
        replay_matrix_unit(u, seed, with_text, out, res);
      } else {
        matrix_unit(u, seed, mode == Mode::kTraced, with_text, out, res);
      }
    } else {
      const Cell& cell = p_.cycle[u % p_.cycle.size()];
      const scenario::ScenarioSpec& spec = p_.specs[cell.scenario];
      const Sample s = measure(spec, p_.columns[cell.scenario][cell.column],
                               unit_seed(seed, u),
                               mode == Mode::kPlain ? nullptr : &out.layers);
      res.wall_ns = s.host_ns;
      res.meas_ms.push_back(static_cast<double>(s.host_ns) * 1e-6);
      res.sim_s = s.sim_s;
      out.stats.add(s.report, spec, p_.narrow[cell.scenario]);
      if (with_text) res.text = report_text(s.report, spec);
    }
    out.wall_ns += res.wall_ns;
    return res;
  }

 private:
  struct MatrixUnit {
    std::size_t scenario;
    std::uint64_t seed0;
  };
  MatrixUnit matrix_unit_of(std::size_t u, std::uint64_t seed) const {
    const std::size_t n = p_.specs.size();
    return {u % n, unit_seed(seed, u / n)};
  }

  void matrix_unit(std::size_t u, std::uint64_t seed, bool traced, bool with_text, Pass& out,
                   UnitResult& res) {
    const MatrixUnit mu = matrix_unit_of(u, seed);
    TaskLog log;
    std::vector<scenario::MatrixEstimator> cols;
    for (const scenario::MatrixEstimator& c : p_.columns[mu.scenario]) {
      cols.push_back({c.name, [&log, traced, make = c.make] {
                        return std::make_unique<TimedEstimator>(make(), log, traced);
                      }});
    }
    MatrixCall call;
    call.begin_ns = now_ns();
    const std::vector<scenario::MatrixCell> cells = scenario::run_matrix(
        cols, {p_.specs[mu.scenario]}, {}, w_.matrix_runs, mu.seed0, *p_.runner);
    call.end_ns = now_ns();
    call.tasks = log.take();
    res.wall_ns = call.end_ns - call.begin_ns;
    for (const TaskRecord& t : call.tasks) {
      res.meas_ms.push_back(static_cast<double>(t.run_end_ns - t.made_ns) * 1e-6);
      res.sim_s += t.sim_end_s;
      out.layers.channel.add(t.channel);
    }
    record_cells(cells, mu.scenario, with_text, out, res);
    out.calls.push_back(std::move(call));
  }

  /// The same tasks as matrix_unit, run one by one through measure() so
  /// the simulator is at hand for event counts. Must reproduce the
  /// matrix's bytes exactly.
  void replay_matrix_unit(std::size_t u, std::uint64_t seed, bool with_text, Pass& out,
                          UnitResult& res) {
    const MatrixUnit mu = matrix_unit_of(u, seed);
    std::vector<scenario::MatrixCell> cells;
    for (const scenario::MatrixCellPlan& plan : scenario::plan_matrix(
             p_.columns[mu.scenario], {p_.specs[mu.scenario]}, {}, mu.seed0)) {
      scenario::MatrixCell cell;
      for (int r = 0; r < w_.matrix_runs; ++r) {
        Sample s = measure(plan.spec, *plan.est, plan.seed0 + static_cast<std::uint64_t>(r),
                           &out.layers);
        res.wall_ns += s.host_ns;
        res.meas_ms.push_back(static_cast<double>(s.host_ns) * 1e-6);
        res.sim_s += s.sim_s;
        cell.reports.push_back(std::move(s.report));
      }
      cells.push_back(std::move(cell));
    }
    record_cells(cells, mu.scenario, with_text, out, res);
  }

  void record_cells(const std::vector<scenario::MatrixCell>& cells, std::size_t scenario,
                    bool with_text, Pass& out, UnitResult& res) {
    const scenario::ScenarioSpec& spec = p_.specs[scenario];
    for (const scenario::MatrixCell& cell : cells) {
      for (const core::EstimateReport& r : cell.reports) {
        out.stats.add(r, spec, p_.narrow[scenario]);
        if (with_text) res.text += report_text(r, spec);
      }
    }
  }

  const WorkloadDef& w_;
  Prepared& p_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.10g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss would not do: exec carries over the high-water mark of the
/// forking parent, such as the Python interpreter of run.py.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

void print_outcomes(const Stats& s) {
  std::printf("outcomes: %lld attempted, %lld failed (fail_frac %.6f), %lld timeout, "
              "%lld degraded, %lld output-invariant violations\n",
              static_cast<long long>(s.attempted), static_cast<long long>(s.est_failed),
              ratio(static_cast<double>(s.invalid), static_cast<double>(s.attempted)),
              static_cast<long long>(s.timeouts), static_cast<long long>(s.degraded),
              static_cast<long long>(s.violations));
}

void warm_up(Bench& bench, std::uint64_t seed) {
  Pass warm;
  for (std::size_t u = 0; u < bench.units_per_cycle(); ++u) {
    bench.run_unit(u, seed ^ 0x5eedULL, Bench::Mode::kPlain, false, warm);
  }
}

/// End-to-end run. A list of whole cycles of distinct units runs
/// w.passes times, one whole pass after another. The list is the longest
/// whose passes fill kTimedShare of --seconds on the reference machine,
/// and holds at least kMinSamples measurements (fewer passes run where
/// that floor would overrun --seconds). Each unit keeps the fastest host
/// time of its passes (for a matrix call: its wall time, and per rank its
/// sorted task times). A shared machine only ever adds time, in slow
/// stretches of a few seconds: passes spread over the run let each unit
/// meet a calm moment. Then the first cycle runs once more, untimed, and
/// must reproduce the first pass's report bytes.
int run_untraced(const WorkloadDef& w, Prepared& p, std::uint64_t seed, double seconds) {
  Bench bench{w, p};
  warm_up(bench, seed);
  const std::size_t n =
      std::max(bench.cycles_for_measurements(kMinSamples),
               bench.cycles_for_seconds(seconds * kTimedShare / w.passes)) *
      bench.units_per_cycle();
  // Short runs, where the kMinSamples floor sets the list, drop passes.
  const double fit = w.units_per_s * seconds * kTimedShare / static_cast<double>(n);
  const int reps = std::clamp(static_cast<int>(std::lround(fit)), 1, w.passes);

  Pass pass;
  std::vector<std::int64_t> best_wall(n);
  std::vector<std::vector<double>> best_ms(n);
  std::vector<std::uint64_t> unit_hash(n);
  std::uint64_t digest = kFnvBasis;
  double sim_s = 0.0;
  // Cold set-ups run in child processes spread evenly over the run, so
  // their median spans the machine's slow and calm phases like the units.
  std::vector<double> setups;
  const std::size_t total_units = static_cast<std::size_t>(reps) * n;
  std::size_t next_setup = 0;
  const std::int64_t t0 = now_ns();
  int passes_run = 0;
  for (int rep = 0; rep < reps; ++rep) {
    // On a machine much slower than the reference, stop once the passes
    // have used all of --seconds.
    if (rep > 0 && static_cast<double>(now_ns() - t0) * 1e-9 > seconds) break;
    ++passes_run;
    // Rendering report bytes on every pass would cost more than the
    // measurements; the first pass renders them for the digest and the
    // repeat check.
    const bool with_text = rep == 0;
    for (std::size_t u = 0; u < n; ++u) {
      const std::size_t index = static_cast<std::size_t>(rep) * n + u;
      if (setups.size() < kSetupSamples && index >= next_setup) {
        setups.push_back(cold_setup_seconds(w.name));
        next_setup = setups.size() * total_units / kSetupSamples;
      }
      UnitResult res = bench.run_unit(u, seed, Bench::Mode::kPlain, with_text, pass);
      std::sort(res.meas_ms.begin(), res.meas_ms.end());
      if (rep == 0) {
        unit_hash[u] = fnv1a(kFnvBasis, res.text);
        digest = fnv1a(digest, res.text);
        sim_s += res.sim_s;
        best_wall[u] = res.wall_ns;
        best_ms[u] = std::move(res.meas_ms);
        continue;
      }
      best_wall[u] = std::min(best_wall[u], res.wall_ns);
      for (std::size_t k = 0; k < best_ms[u].size() && k < res.meas_ms.size(); ++k) {
        best_ms[u][k] = std::min(best_ms[u][k], res.meas_ms[k]);
      }
    }
  }
  Pass again;
  std::int64_t mismatches = 0;
  for (std::size_t u = 0; u < bench.units_per_cycle(); ++u) {
    const UnitResult res = bench.run_unit(u, seed, Bench::Mode::kPlain, true, again);
    if (fnv1a(kFnvBasis, res.text) != unit_hash[u]) ++mismatches;
  }

  std::vector<double> meas_ms;
  std::int64_t wall_ns = 0;
  for (std::size_t u = 0; u < n; ++u) {
    meas_ms.insert(meas_ms.end(), best_ms[u].begin(), best_ms[u].end());
    wall_ns += best_wall[u];
  }
  const double wall_s = static_cast<double>(wall_ns) * 1e-9;
  const Stats& s = pass.stats;

  std::printf("workload %s: %zu measurements x %d passes, closed loop, %d thread(s), "
              "%.3f s timed\n",
              w.name.c_str(), meas_ms.size(), passes_run, w.threads,
              static_cast<double>(pass.wall_ns) * 1e-9);
  std::printf("samples: meas_ms_p50 and meas_ms_p90 over %zu measurements "
              "(fastest of %d passes each)\n",
              meas_ms.size(), passes_run);
  std::printf("latency ms: p10 %.4g p25 %.4g p50 %.4g p75 %.4g p90 %.4g p99 %.4g\n",
              quantile(meas_ms, 0.10), quantile(meas_ms, 0.25), quantile(meas_ms, 0.5),
              quantile(meas_ms, 0.75), quantile(meas_ms, 0.90), quantile(meas_ms, 0.99));
  print_outcomes(s);
  std::printf("digest: %s seed %llu reports %zu fnv1a64 %016llx\n", w.name.c_str(),
              static_cast<unsigned long long>(seed), meas_ms.size(),
              static_cast<unsigned long long>(digest));
  const bool setup_ok =
      std::none_of(setups.begin(), setups.end(), [](double v) { return v < 0.0; });
  std::string setup_list;
  for (const double v : setups) setup_list += " " + std::to_string(v);
  std::printf("setup_s: median of %zu cold set-ups spread over the run:%s\n", setups.size(),
              setup_list.c_str());
  if (!setup_ok) std::printf("CHECK FAILED: a set-up child process failed\n");
  if (mismatches > 0) {
    std::printf("CHECK FAILED: %lld units changed their reports when run again\n",
                static_cast<long long>(mismatches));
  }

  const std::vector<Metric> metrics = {
      {"meas_per_s", ratio(static_cast<double>(meas_ms.size()), wall_s), "1/s"},
      {"meas_ms_p50", quantile(meas_ms, 0.5), "ms"},
      {"meas_ms_p90", quantile(meas_ms, 0.9), "ms"},
      {"sim_s_per_s", ratio(sim_s, wall_s), "s/s"},
      {"setup_s", quantile(setups, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"valid_frac",
       1.0 - ratio(static_cast<double>(s.invalid), static_cast<double>(s.attempted)),
       "ratio"},
  };
  const std::int64_t violations = s.violations + again.stats.violations;
  const bool correct = violations == 0 && mismatches == 0 && setup_ok;
  print_result(correct, s.attempted + again.stats.attempted, violations + mismatches, metrics);
  return correct ? 0 : 1;
}

/// Counts a traced pass must repeat exactly at the same seed.
std::vector<std::int64_t> exact_counts(const Pass& pass) {
  const ChannelTally& c = pass.layers.channel;
  return {static_cast<std::int64_t>(pass.layers.events_warmup),
          static_cast<std::int64_t>(c.idle.events),
          static_cast<std::int64_t>(c.stream.events),
          static_cast<std::int64_t>(c.bulk.events),
          c.streams,
          c.stream_packets,
          c.acks,
          c.retx,
          pass.stats.probe_packets};
}

/// Per-layer run: a fixed list of units, run untraced, traced and traced
/// again, interleaved unit by unit so the untraced and traced timings see
/// the same machine state and their ratio is the tracing overhead. Matrix
/// workloads add a sequential replay of the same tasks: it gives the spans
/// and event counts (the matrix hides its simulators), while the matrix
/// passes give the fan-out metrics.
int run_traced(const WorkloadDef& w, Prepared& p, std::uint64_t seed, double seconds) {
  Bench bench{w, p};
  warm_up(bench, seed);
  const std::size_t per_cycle = bench.units_per_cycle();
  // Three passes, and for a matrix its replay on one thread.
  const double passes = 3.0 + (w.matrix() ? w.threads : 0);
  const std::size_t units =
      bench.cycles_for_seconds(seconds * kTimedShare / passes) * per_cycle;

  Pass plain;
  Pass traced;
  Pass again;
  Pass replay;
  auto run = [&](std::size_t u, std::uint64_t s, Bench::Mode mode, Pass& pass) {
    pass.texts.push_back(bench.run_unit(u, s, mode, true, pass).text);
  };
  for (std::size_t u = 0; u < units; ++u) {
    // Rotate which pass meets a unit's inputs first (and colder).
    for (std::size_t k = 0; k < 3; ++k) {
      switch ((u + k) % 3) {
        case 0: run(u, seed, Bench::Mode::kPlain, plain); break;
        case 1: run(u, seed, Bench::Mode::kTraced, traced); break;
        default: run(u, seed, Bench::Mode::kTraced, again); break;
      }
    }
    if (w.matrix()) run(u, seed, Bench::Mode::kReplay, replay);
  }
  // Information only: does another seed change the reports of the first
  // cycle, and in how many of its units?
  Pass other;
  std::uint64_t digest = kFnvBasis;
  std::uint64_t first_digest = kFnvBasis;
  std::uint64_t other_digest = kFnvBasis;
  std::vector<std::string> changed;
  for (std::size_t u = 0; u < units; ++u) {
    digest = fnv1a(digest, plain.texts[u]);
    if (u >= per_cycle) continue;
    run(u, seed + 1, Bench::Mode::kPlain, other);
    first_digest = fnv1a(first_digest, plain.texts[u]);
    other_digest = fnv1a(other_digest, other.texts[u]);
    if (other.texts[u] != plain.texts[u]) changed.push_back(bench.unit_label(u));
  }
  const bool seed_changes = other_digest != first_digest;

  bool correct = true;
  auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("CHECK FAILED: %s\n", what);
      correct = false;
    }
    return ok;
  };
  const bool same_bytes =
      check(traced.texts == plain.texts, "traced reports differ from untraced reports") &
      check(again.texts == plain.texts, "second traced pass reports differ") &
      check(!w.matrix() || replay.texts == plain.texts,
            "sequential replay reports differ from run_matrix reports");
  const bool same_counts = check(exact_counts(traced) == exact_counts(again),
                                 "traced counts differ between two runs at the same seed");
  check(plain.stats.violations == 0, "output invariant violated");

  const Stats& s = plain.stats;
  std::printf("workload %s: traced list of %lld measurements (%zu units), 3 passes%s\n",
              w.name.c_str(), static_cast<long long>(s.attempted), units,
              w.matrix() ? " + sequential replay" : "");
  print_outcomes(s);
  std::printf("digest: %s seed %llu reports %lld fnv1a64 %016llx\n", w.name.c_str(),
              static_cast<unsigned long long>(seed), static_cast<long long>(s.attempted),
              static_cast<unsigned long long>(digest));
  std::string changed_list;
  for (const std::string& label : changed) changed_list += " " + label;
  std::printf("digest: first cycle at seed %llu %s the first cycle at seed %llu; "
              "%zu of %zu units changed:%s (information only)\n",
              static_cast<unsigned long long>(seed + 1),
              seed_changes ? "differs from" : "is identical to",
              static_cast<unsigned long long>(seed), changed.size(), per_cycle,
              changed_list.c_str());
  std::printf("determinism: traced == untraced bytes: %s; counts repeat: %s\n",
              same_bytes ? "yes" : "NO", same_counts ? "yes" : "NO");

  const LayerTrace& L = (w.matrix() ? replay : traced).layers;
  const ChannelTally& c = L.channel;
  const auto n = static_cast<double>(std::max<std::int64_t>(L.measurements, 1));
  const auto ms = [&](std::int64_t ns) { return static_cast<double>(ns) * 1e-6 / n; };
  const auto per = [](std::int64_t ns, double count, double scale) {
    return count > 0 ? static_cast<double>(ns) * scale / count : 0.0;
  };
  const std::int64_t sim_ns = L.warmup_ns + c.idle.ns + c.stream.ns;
  const double sim_events =
      static_cast<double>(L.events_warmup + c.idle.events + c.stream.events);
  const std::int64_t spans = L.build_ns + L.warmup_ns + c.ns() + L.self_ns;

  // Matrix fan-out: summed task time over threads x wall, and the time
  // from the first worker's last estimator return to the end of the call.
  double busy_ns = 0.0;
  double wall_ns = 0.0;
  double tail_ns = 0.0;
  for (const MatrixCall& call : traced.calls) {
    std::map<std::thread::id, std::int64_t> last_end;
    for (const TaskRecord& t : call.tasks) {
      busy_ns += static_cast<double>(t.run_end_ns - t.made_ns);
      std::int64_t& end = last_end[t.thread];
      end = std::max(end, t.run_end_ns);
    }
    std::int64_t first_idle = call.end_ns;
    for (const auto& [thread, end] : last_end) first_idle = std::min(first_idle, end);
    wall_ns += static_cast<double>(call.end_ns - call.begin_ns);
    tail_ns += static_cast<double>(call.end_ns - first_idle);
  }
  const double n_calls = static_cast<double>(std::max<std::size_t>(traced.calls.size(), 1));

  std::vector<Metric> metrics = {
      {"channel.idle_ms", ms(c.idle.ns), "ms/meas"},
      {"channel.stream_ms", ms(c.stream.ns), "ms/meas"},
      {"channel.streams", static_cast<double>(c.streams), "count"},
      {"channel.stream_us_per_pkt", per(c.stream.ns, static_cast<double>(c.stream_packets), 1e-3), "us/pkt"},
      {"sim.events_warmup", static_cast<double>(L.events_warmup), "count"},
      {"sim.events_idle", static_cast<double>(c.idle.events), "count"},
      {"sim.events_stream", static_cast<double>(c.stream.events), "count"},
      {"sim.events_bulk", static_cast<double>(c.bulk.events), "count"},
      {"sim.ns_per_event", per(sim_ns, sim_events, 1.0), "ns/event"},
      {"tcp.bulk_ms", ms(c.bulk.ns), "ms/meas"},
      {"tcp.ns_per_event", per(c.bulk.ns, static_cast<double>(c.bulk.events), 1.0), "ns/event"},
      {"tcp.us_per_ack", per(c.bulk.ns, static_cast<double>(c.acks), 1e-3), "us/ack"},
      {"tcp.acks", static_cast<double>(c.acks), "count"},
      {"tcp.retx", static_cast<double>(c.retx), "count"},
  };
  for (const auto& e : baselines::builtin_estimators().entries()) {
    const auto it = L.self_by_est.find(e.name);
    const double v = it == L.self_by_est.end()
                         ? 0.0
                         : static_cast<double>(it->second.first) * 1e-6 /
                               static_cast<double>(it->second.second);
    metrics.push_back({"est.self_ms." + e.name, v, "ms/meas"});
  }
  const auto frac = [&](std::int64_t k) {
    return ratio(static_cast<double>(k), static_cast<double>(s.attempted));
  };
  const std::vector<Metric> rest = {
      {"est.self_frac", ratio(static_cast<double>(L.self_ns), static_cast<double>(L.total_ns)), "ratio"},
      {"est.probe_packets", static_cast<double>(s.probe_packets), "count"},
      {"est.coverage", frac(s.covered), "ratio"},
      {"est.rel_err", ratio(s.rel_err_sum, static_cast<double>(s.rel_err_n)), "ratio"},
      {"est.fail_frac", frac(s.invalid), "ratio"},
      {"est.timeouts", static_cast<double>(s.timeouts), "count"},
      {"est.degraded", static_cast<double>(s.degraded), "count"},
      {"scenario.build_ms", ms(L.build_ns), "ms/meas"},
      {"scenario.warmup_ms", ms(L.warmup_ns), "ms/meas"},
      {"scenario.teardown_ms", ms(L.teardown_ns), "ms/meas"},
      {"scenario.matrix_busy_frac", ratio(busy_ns, w.threads * wall_ns), "ratio"},
      {"scenario.matrix_tail_ms", w.matrix() ? tail_ns * 1e-6 / n_calls : 0.0, "ms/call"},
      {"trace.overhead_frac",
       ratio(static_cast<double>(traced.wall_ns), static_cast<double>(plain.wall_ns)) - 1.0,
       "ratio"},
      {"trace.unattributed_frac",
       ratio(static_cast<double>(L.total_ns - spans), static_cast<double>(L.total_ns)), "ratio"},
      {"trace.measurements", static_cast<double>(L.measurements), "count"},
      {"det.seed_changes_digest", seed_changes ? 1.0 : 0.0, "bool"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const Pass* pass : {&plain, &traced, &again, &replay, &other}) {
    attempted += pass->stats.attempted;
    failed += pass->stats.violations;
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace 0|1\n       perfbench --workload <name> --setup-only\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--setup-only") {
      setup_only = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else {
      return usage(("unknown or incomplete argument '" + a + "'").c_str());
    }
  }
  const WorkloadDef* w = find_workload(workload);
  if (w == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  if (!(seconds > 0.0) || (trace != 0 && trace != 1)) return usage("bad --seconds or --trace");

  const std::int64_t t0 = now_ns();
  Prepared p = prepare(*w);
  const double setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (setup_only) {
    std::printf("setup_s %.9g\n", setup_s);
    return 0;
  }
  return trace == 0 ? run_untraced(*w, p, seed, seconds) : run_traced(*w, p, seed, seconds);
}
