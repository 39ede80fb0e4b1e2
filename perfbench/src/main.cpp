// perfbench — the end-to-end and per-layer benchmark (see README.md).
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out PATH]
//
// --trace 0 (default) times the workload in-process with telemetry off:
// repeated set-up, one untimed warm-up job whose result is the reference,
// then timed jobs for --seconds, each checked bit for bit against the
// reference. It reports the end-to-end metrics.
//
// --trace 1 replays the workload layer by layer with spans around each
// library call, alternating with untraced jobs of the same workload, and
// reports the per-layer metrics. --trace-out writes the spans as Chrome
// trace-event JSON.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit codes: 0 run completed (whatever `correct` says), 1 the run could
// not be carried out, 2 usage error.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "checks.hpp"
#include "metrics.hpp"
#include "nessa/telemetry/telemetry.hpp"
#include "nessa/util/timer.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace nc = nessa::core;
namespace fleet = nessa::fleet;
using nessa::util::Stopwatch;

namespace {

/// Timed jobs (or fleet runs) per run even when --seconds has passed.
constexpr std::size_t kMinTimedJobs = 3;

/// The timed loops' condition: at least kMinTimedJobs, then until `seconds`.
bool keep_timing(std::size_t done, const Stopwatch& window, double seconds) {
  return done < kMinTimedJobs || window.elapsed_seconds() < seconds;
}

/// replay.coverage band: the replay does core::run's work plus span
/// bookkeeping, so its total should sit within a few percent of an
/// untraced job. Outside the band the layer shares no longer describe
/// core::run.
constexpr double kCoverageLow = 0.85;
constexpr double kCoverageHigh = 1.15;

/// Every per-layer metric, in output order, with its unit. A traced run
/// prints all of them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<const char*, const char*>>& layer_schema() {
  static const std::vector<std::pair<const char*, const char*>> schema = {
      {"quant.score_s", "s"},          {"quant.score_share", "ratio"},
      {"quant.rows_per_s", "1/s"},     {"quant.refresh_s", "s"},
      {"nn.forward_s", "s"},           {"nn.backward_s", "s"},
      {"nn.optimizer_s", "s"},         {"nn.train_s", "s"},
      {"nn.train_share", "ratio"},     {"nn.embed_s", "s"},
      {"nn.embed_share", "ratio"},     {"nn.eval_s", "s"},
      {"nn.eval_share", "ratio"},      {"selection.select_s", "s"},
      {"selection.select_share", "ratio"},
      {"selection.gain_evals", "count"},
      {"selection.useful_ratio", "ratio"},
      {"selection.similarity_ops", "count"},
      {"selection.greedy_ops", "count"},
      {"data.synth_s", "s"},           {"fleet.run_s", "s"},
      {"sim.events", "count"},         {"fleet.ns_per_event", "ns"},
      {"ckpt.snapshots", "count"},     {"fleet.peak_queue_depth", "count"},
      {"fleet.gpu_util", "ratio"},     {"fleet.fpga_util", "ratio"},
      {"telemetry.overhead_x", "x"},   {"telemetry.rss_mb", "MB"},
      {"mem.peak_rss_mb", "MB"},
      {"replay.coverage", "ratio"},    {"replay.glue_s", "s"},
      {"replay.match", "flag"},        {"replay.in_band", "flag"},
      {"final_accuracy_pct", "%"},     {"sim_epoch_s", "s"},
      {"sim_p50_s", "s"},              {"sim_p99_s", "s"},
  };
  return schema;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  std::uint64_t seconds = 10;
  bool trace = false;
  std::string trace_out;
};

void print_usage(std::ostream& out) {
  out << "usage: perfbench --workload NAME [--seed N] [--seconds S] "
         "[--trace 0|1] [--trace-out PATH]\nworkloads:";
  for (const Workload& w : workloads()) out << " " << w.name;
  out << "\n";
}

bool parse_u64(const char* text, std::uint64_t& value) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  return ec == std::errc{} && ptr == end && ptr != text;
}

/// Empty on success, else the error message.
std::string parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return "missing value for " + arg;
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, opt.seed)) return "--seed: not a whole number";
    } else if (arg == "--seconds") {
      if (!parse_u64(value, opt.seconds) || opt.seconds == 0) {
        return "--seconds: not a positive whole number";
      }
    } else if (arg == "--trace") {
      if (!parse_u64(value, number) || number > 1) return "--trace: 0 or 1";
      opt.trace = number == 1;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      return "unknown option " + arg;
    }
  }
  if (opt.workload.empty()) return "--workload is required";
  return {};
}

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<std::string> notes;  ///< printed above the metrics
  std::vector<Metric> metrics;

  /// Count one failed operation, keeping its first problem.
  void fail(const std::string& what, const std::vector<std::string>& why) {
    ++failed;
    problems.push_back(what + (why.empty() ? "" : ": " + why.front()));
  }
};

/// Runs `job` counting it as one attempted operation; a throw counts as a
/// failure and yields nullopt.
template <typename Job>
auto attempt(Report& report, const char* what, Job&& job)
    -> std::optional<decltype(job())> {
  ++report.attempted;
  try {
    return job();
  } catch (const std::exception& e) {
    report.fail(what, {std::string("threw: ") + e.what()});
    return std::nullopt;
  }
}

/// "what: min .. median .. max over n" for the human-readable output.
std::string spread_note(const char* what, const std::vector<double>& v) {
  std::ostringstream out;
  out << what << ": lowest " << lowest(v) << ", median " << median(v)
      << ", highest " << highest(v) << " over " << v.size();
  return out.str();
}

std::vector<Metric> layer_metrics(const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  std::size_t used = 0;
  for (const auto& [name, unit] : layer_schema()) {
    const auto it = values.find(name);
    used += it != values.end();
    out.push_back({name, it != values.end() ? it->second : 0.0, unit});
  }
  if (used != values.size()) {
    throw std::logic_error("a per-layer value is missing from the schema");
  }
  return out;
}

// --- training workloads ---------------------------------------------------

struct TrainingRun {
  nc::RunConfig config;
  std::optional<nessa::data::Dataset> dataset;
  nc::PipelineInputs inputs;
  std::optional<nc::RunResult> reference;

  /// One core::run on a freshly built modeled system; returns its wall
  /// seconds (the system build is not timed).
  nc::RunResult run(double* wall_s = nullptr) const {
    nessa::smartssd::SmartSsdSystem system(config.system);
    Stopwatch sw;
    nc::RunResult result = nc::run(inputs, config, system);
    if (wall_s != nullptr) *wall_s = sw.elapsed_seconds();
    return result;
  }
};

/// Untimed warm-up job: pays first-use costs (page faults, the thread
/// pool) and yields the reference result every later job must match.
void warm_up(TrainingRun& tr, const Workload& w, Report& report) {
  tr.inputs = pipeline_inputs(tr.config, *tr.dataset);
  tr.reference = attempt(report, "warm-up job", [&] { return tr.run(); });
  if (!tr.reference) return;
  if (const auto p = check_run_result(*tr.reference, w.epochs); !p.empty()) {
    report.fail("warm-up job", p);
  }
}

void check_repeat(const TrainingRun& tr, const nc::RunResult& result,
                  Report& report) {
  if (const auto d = diff_run_results(*tr.reference, result); !d.empty()) {
    report.fail("repeat differs from the warm-up job", d);
  }
}

/// True when two synthesized datasets hold the same samples.
bool same_data(const nessa::data::Dataset& a, const nessa::data::Dataset& b) {
  return a.train().features == b.train().features &&
         a.train().labels == b.train().labels &&
         a.test().features == b.test().features &&
         a.test().labels == b.test().labels;
}

Report timed_training(const Workload& w, const Options& opt) {
  Report report;
  TrainingRun tr;
  tr.config = training_config(w, opt.seed);
  tr.config.validate_or_throw();

  // Set-up runs a few times before the warm-up job and once more before
  // every timed job, so its repeats sample the whole run, as the jobs do.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    Stopwatch sw;
    nessa::data::Dataset dataset = synthesize(tr.config);
    const nessa::smartssd::SmartSsdSystem system(tr.config.system);
    setup_s.push_back(sw.elapsed_seconds());
    return dataset;
  };
  for (std::size_t i = 0; i < w.setup_repeats; ++i) tr.dataset.emplace(set_up());
  warm_up(tr, w, report);

  // Work per job: every epoch passes over the whole substrate train set,
  // whatever subset it trains on, so pipelines compare on one scale.
  const double samples_per_job = static_cast<double>(w.epochs) *
                                 static_cast<double>(tr.dataset->train_size());
  std::vector<double> throughput;
  Stopwatch window;
  for (std::size_t jobs = 0;
       tr.reference && keep_timing(jobs, window, static_cast<double>(opt.seconds));
       ++jobs) {
    if (!same_data(set_up(), *tr.dataset)) {
      report.problems.push_back("dataset synthesis is not deterministic");
    }
    double wall = 0.0;
    const auto result = attempt(report, "timed job", [&] { return tr.run(&wall); });
    if (!result) continue;
    throughput.push_back(samples_per_job / wall);
    check_repeat(tr, *result, report);
  }

  report.notes = {spread_note("set-up s", setup_s),
                  spread_note("throughput 1/s", throughput)};
  report.metrics = {
      {"setup_s", lowest(setup_s), "s"},
      {"throughput_per_s", highest(throughput), "1/s"},
      {"quality_pct",
       tr.reference ? tr.reference->final_accuracy * 100.0 : 0.0, "%"},
  };
  return report;
}

Report traced_training(const Workload& w, const Options& opt,
                       SpanRecorder& spans) {
  Report report;
  TrainingRun tr;
  tr.config = training_config(w, opt.seed);
  tr.config.validate_or_throw();
  {
    auto s = spans.scope("data.synth");
    tr.dataset.emplace(synthesize(tr.config));
  }
  warm_up(tr, w, report);

  // Untraced jobs and replays alternate, so a slow spell of the host
  // touches both sides of replay.coverage alike.
  double untraced_s = 0.0;
  std::size_t replays = 0;
  std::size_t mismatches = 0;
  ReplayOutcome replay;
  Stopwatch window;
  for (std::size_t pairs = 0;
       tr.reference && keep_timing(pairs, window, static_cast<double>(opt.seconds));
       ++pairs) {
    double wall = 0.0;
    const auto result = attempt(report, "untraced job", [&] { return tr.run(&wall); });
    if (!result) continue;
    check_repeat(tr, *result, report);
    auto outcome = attempt(report, "replay",
                           [&] { return replay_training(tr.inputs, tr.config, spans); });
    if (!outcome) continue;
    if (const auto d = diff_replay(*outcome, *tr.reference); !d.empty()) {
      ++mismatches;
      std::cerr << "WARNING: " << d.front() << "\n";
    }
    untraced_s += wall;
    replay = std::move(*outcome);
    ++replays;
  }

  auto total = spans.total_seconds();
  auto self = spans.self_seconds();
  const double n = replays > 0 ? static_cast<double>(replays) : 1.0;
  const double job_s = total["job"] / n;
  const auto per_job = [&](const char* name) { return total[name] / n; };
  const auto share = [&](const char* name) {
    return job_s > 0.0 ? per_job(name) / job_s : 0.0;
  };
  const double coverage = untraced_s > 0.0 ? total["job"] / untraced_s : 0.0;
  const bool in_band = coverage >= kCoverageLow && coverage <= kCoverageHigh;
  if (!in_band) {
    std::cerr << "WARNING: replay.coverage " << coverage << " is outside ["
              << kCoverageLow << ", " << kCoverageHigh
              << "]: the replay no longer times what core::run does\n";
  }

  std::map<std::string, double> v;
  v["quant.score_s"] = per_job("quant.score");
  v["quant.score_share"] = share("quant.score");
  v["quant.rows_per_s"] =
      per_job("quant.score") > 0.0
          ? static_cast<double>(replay.rows_scored) / per_job("quant.score")
          : 0.0;
  v["quant.refresh_s"] = per_job("quant.refresh") + per_job("quant.build");
  v["nn.forward_s"] = per_job("nn.forward");
  v["nn.backward_s"] = per_job("nn.backward");
  v["nn.optimizer_s"] = per_job("nn.optimizer");
  v["nn.train_s"] = per_job("nn.train");
  v["nn.train_share"] = share("nn.train");
  v["nn.embed_s"] = per_job("nn.embed");
  v["nn.embed_share"] = share("nn.embed");
  v["nn.eval_s"] = per_job("nn.eval");
  v["nn.eval_share"] = share("nn.eval");
  v["selection.select_s"] = per_job("selection.select");
  v["selection.select_share"] = share("selection.select");
  v["selection.gain_evals"] = static_cast<double>(replay.gain_evaluations);
  v["selection.useful_ratio"] =
      replay.gain_evaluations > 0
          ? static_cast<double>(replay.selected) /
                static_cast<double>(replay.gain_evaluations)
          : 0.0;
  v["selection.similarity_ops"] = static_cast<double>(replay.similarity_ops);
  v["selection.greedy_ops"] = static_cast<double>(replay.greedy_ops);
  v["data.synth_s"] = total["data.synth"];
  v["replay.coverage"] = coverage;
  v["replay.glue_s"] = self["epoch"] / n;
  v["replay.match"] = replays > 0 && mismatches == 0 ? 1.0 : 0.0;
  v["replay.in_band"] = in_band ? 1.0 : 0.0;
  v["mem.peak_rss_mb"] = peak_rss_mb();
  if (tr.reference) {
    v["final_accuracy_pct"] = tr.reference->final_accuracy * 100.0;
    v["sim_epoch_s"] = nessa::util::to_seconds(tr.reference->mean_epoch_time);
  }
  report.metrics = layer_metrics(v);
  return report;
}

// --- fleet workload -------------------------------------------------------

struct FleetRun {
  fleet::FleetConfig config;
  std::vector<fleet::Arrival> arrivals;
  std::optional<fleet::FleetResult> reference;

  fleet::FleetResult run(double* wall_s = nullptr) const {
    Stopwatch sw;
    fleet::FleetResult result = fleet::run_fleet(config, arrivals);
    if (wall_s != nullptr) *wall_s = sw.elapsed_seconds();
    return result;
  }
};

/// One fleet run, counted by arrival: rejected and permanently failed
/// arrivals are failures, and a run that throws fails all of them. Once a
/// reference exists, the run must match it bit for bit.
std::optional<fleet::FleetResult> fleet_job(const FleetRun& fr, const char* what,
                                            Report& report,
                                            double* wall_s = nullptr) {
  report.attempted += fr.arrivals.size();
  std::optional<fleet::FleetResult> result;
  try {
    result = fr.run(wall_s);
  } catch (const std::exception& e) {
    report.failed += fr.arrivals.size();
    report.problems.push_back(std::string(what) + " threw: " + e.what());
    return std::nullopt;
  }
  report.failed += result->rejected + result->failed_permanently;
  if (fr.reference) {
    if (const auto d = diff_fleet_results(*fr.reference, *result); !d.empty()) {
      report.problems.push_back(std::string(what) +
                                " differs from the warm-up run: " + d.front());
    }
  }
  return result;
}

void warm_up(FleetRun& fr, Report& report) {
  fr.reference = fleet_job(fr, "warm-up fleet run", report);
  if (!fr.reference) return;
  const auto p =
      check_fleet_result(*fr.reference, job_latency(fr.reference->jobs));
  for (const auto& problem : p) report.problems.push_back(problem);
}

Report timed_fleet(const Workload& w, const Options& opt) {
  Report report;
  FleetRun fr;
  fr.config = fleet_config(w);
  const auto poisson = arrival_config(w, opt.seed);

  // As for training, set-up repeats are spread over the whole run.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    Stopwatch sw;
    std::vector<fleet::Arrival> arrivals = fleet::poisson_arrivals(poisson);
    setup_s.push_back(sw.elapsed_seconds());
    return arrivals;
  };
  for (std::size_t i = 0; i < w.setup_repeats; ++i) fr.arrivals = set_up();
  warm_up(fr, report);

  std::vector<double> throughput;
  Stopwatch window;
  for (std::size_t runs = 0;
       fr.reference && keep_timing(runs, window, static_cast<double>(opt.seconds));
       ++runs) {
    const auto arrivals = set_up();
    if (!std::equal(arrivals.begin(), arrivals.end(), fr.arrivals.begin(),
                    fr.arrivals.end(), [](const auto& a, const auto& b) {
                      return a.at == b.at && a.tenant == b.tenant &&
                             a.weight == b.weight && a.epochs == b.epochs;
                    })) {
      report.problems.push_back("arrival generation is not deterministic");
    }
    double wall = 0.0;
    const auto result = fleet_job(fr, "timed fleet run", report, &wall);
    if (result) throughput.push_back(static_cast<double>(result->completed) / wall);
  }

  report.notes = {spread_note("set-up s", setup_s),
                  spread_note("throughput 1/s", throughput)};
  report.metrics = {
      {"setup_s", lowest(setup_s), "s"},
      {"throughput_per_s", highest(throughput), "1/s"},
      {"quality_pct",
       fr.reference ? fr.reference->jain_fairness * 100.0 : 0.0, "%"},
  };
  return report;
}

double mean_utilization(const fleet::FleetResult& r, std::string_view suffix) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& c : r.components) {
    if (c.name.ends_with(suffix)) {
      sum += c.utilization;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

Report traced_fleet(const Workload& w, const Options& opt, SpanRecorder& spans) {
  Report report;
  FleetRun fr;
  fr.config = fleet_config(w);
  {
    auto s = spans.scope("fleet.arrivals");
    fr.arrivals = fleet::poisson_arrivals(arrival_config(w, opt.seed));
  }
  warm_up(fr, report);

  std::vector<double> untraced;
  Stopwatch window;
  // Half the run goes to untraced runs; the traced run follows.
  for (std::size_t runs = 0;
       fr.reference &&
       keep_timing(runs, window, static_cast<double>(opt.seconds) / 2.0);
       ++runs) {
    auto s = spans.scope("fleet.run");
    double wall = 0.0;
    if (fleet_job(fr, "untraced fleet run", report, &wall)) {
      untraced.push_back(wall);
    }
  }

  // One run under a telemetry Session: its counters give the event count,
  // and its cost against the untraced runs is the tracing overhead.
  const double rss_untraced = peak_rss_mb();
  double traced_wall = 0.0;
  std::uint64_t events = 0;
  if (fr.reference) {
    nessa::telemetry::Session session;
    auto s = spans.scope("fleet.run_traced");
    if (fleet_job(fr, "traced fleet run", report, &traced_wall)) {
      events = session.metrics().counter_value("sim.engine.events");
    }
  }
  const double rss_growth = peak_rss_mb() - rss_untraced;

  std::map<std::string, double> v;
  const double run_s = median(untraced);
  v["fleet.run_s"] = run_s;
  v["sim.events"] = static_cast<double>(events);
  v["fleet.ns_per_event"] =
      events > 0 ? run_s * 1e9 / static_cast<double>(events) : 0.0;
  v["telemetry.overhead_x"] = run_s > 0.0 ? traced_wall / run_s : 0.0;
  v["telemetry.rss_mb"] = rss_growth;
  v["mem.peak_rss_mb"] = rss_untraced;
  if (fr.reference) {
    const auto& r = *fr.reference;
    const LatencySummary latency = job_latency(r.jobs);
    v["ckpt.snapshots"] = static_cast<double>(r.preemptions + r.resumes);
    v["fleet.peak_queue_depth"] = static_cast<double>(r.peak_queue_depth);
    v["fleet.gpu_util"] = mean_utilization(r, ".gpu");
    v["fleet.fpga_util"] = mean_utilization(r, ".fpga");
    v["sim_p50_s"] = latency.p50_s;
    v["sim_p99_s"] = latency.p99_s;
    report.notes.push_back(
        "simulated latency over " + std::to_string(latency.samples) +
        " completed jobs, " + std::to_string(latency.beyond_p99) +
        " beyond p99");
  }
  report.metrics = layer_metrics(v);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const std::string error = parse(argc, argv, opt); !error.empty()) {
    std::cerr << "perfbench: " << error << "\n";
    print_usage(std::cerr);
    return 2;
  }
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) {
    std::cerr << "perfbench: unknown workload " << opt.workload << "\n";
    print_usage(std::cerr);
    return 2;
  }

  Report report;
  try {
    SpanRecorder spans;
    if (w->kind == Kind::kTraining) {
      report = opt.trace ? traced_training(*w, opt, spans)
                         : timed_training(*w, opt);
    } else {
      report = opt.trace ? traced_fleet(*w, opt, spans) : timed_fleet(*w, opt);
    }
    if (!opt.trace_out.empty()) {
      std::ofstream out(opt.trace_out);
      spans.write_chrome_trace(out);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.problems.push_back(m.name + " is not finite");
    }
  }
  for (const auto& problem : report.problems) {
    std::cerr << "CHECK FAILED: " << problem << "\n";
  }
  std::cout << "perfbench " << w->name << " seed " << opt.seed << ", "
            << opt.seconds << " s, trace " << opt.trace << ": "
            << report.attempted << " attempted, " << report.failed
            << " failed\n";
  for (const auto& note : report.notes) std::cout << "  " << note << "\n";
  for (const Metric& m : report.metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  const bool correct = report.problems.empty() && report.failed == 0;
  std::cout << result_json(correct, report.attempted, report.failed,
                           report.metrics)
            << std::endl;
  return 0;
}
