// nessa — command-line front end for the training pipelines.
//
//   nessa [options]
//     --dataset NAME      Table-1 dataset stand-in (default CIFAR-10)
//     --pipeline NAME     nessa | full | full-cached | craig | kcenter |
//                         random | loss-topk        (default nessa)
//     --fraction F        subset fraction            (default 0.3)
//     --epochs N          substrate epochs           (default 30)
//     --scale S           substrate scale            (default 0.03)
//     --devices D         SmartSSD count (nessa only, default 1)
//     --gpu NAME          A100 | V100 | K1200        (default V100)
//     --seed N            RNG seed                   (default 42)
//     --no-feedback       disable §3.2.1 quantized-weight feedback
//     --no-biasing        disable §3.2.2 subset biasing
//     --no-partitioning   disable §3.2.3 dataset partitioning
//     --no-dynamic        disable dynamic subset sizing
//     --parallel          run the selection engine on the thread pool
//     --perf-model NAME   analytic | event epoch-cost model (default analytic)
//     --fault-plan X      fault preset (flaky-p2p | slow-nand | fpga-stall)
//                         or plan-file path; faults degrade the run
//     --checkpoint-dir P  write crash-consistent snapshots into P
//     --checkpoint-every N  snapshot cadence in epochs (default 1)
//     --resume            resume from the newest valid snapshot in the
//                         checkpoint dir (strips any crash kill point from
//                         the fault plan); exits nonzero when none exists
//     --scenario NAME     non-stationary stream preset (drift | imbalance |
//                         noise-burst | duplicates) instead of a static
//                         substrate dataset; adds a class-mix column
//     --scenario-summary P  with --scenario: run nessa vs random vs full
//                         over the same stream and write the comparison
//                         summary JSON to P (used by CI scenario-smoke)
//     --chunk-samples N   stream the selection scan through N-sample
//                         storage chunks (0 = monolithic scan, default)
//     --trace PATH        write a Chrome trace-event JSON of the run
//     --metrics PATH      write the counters/gauges/histograms JSON
//     --csv PATH          also write the per-epoch table as CSV
//     --json PATH         also write the full run report as JSON
//     --help
//
// Exit codes: 0 success, 1 usage/config error (including --resume with no
// valid snapshot), 3 run terminated by an injected crash kill point.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "nessa/ckpt/errors.hpp"
#include "nessa/core/energy.hpp"
#include "nessa/core/report.hpp"
#include "nessa/core/run.hpp"
#include "nessa/core/scenario_run.hpp"
#include "nessa/fault/crash.hpp"
#include "nessa/telemetry/telemetry.hpp"
#include "nessa/util/table.hpp"
#include "parse_number.hpp"

using namespace nessa;

namespace {

struct Options {
  std::string dataset = "CIFAR-10";
  std::string pipeline = "nessa";
  std::string gpu = "V100";
  double fraction = 0.3;
  std::size_t epochs = 30;
  double scale = 0.03;
  std::size_t devices = 1;
  std::uint64_t seed = 42;
  bool feedback = true;
  bool biasing = true;
  bool partitioning = true;
  bool dynamic_sizing = true;
  bool parallel = false;
  std::string perf_model = "analytic";
  std::string fault_plan;
  std::string scenario;
  std::string scenario_summary_path;
  std::size_t chunk_samples = 0;
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 1;
  bool resume = false;
  std::string trace_path;
  std::string metrics_path;
  std::string csv_path;
  std::string json_path;
};

void print_usage() {
  std::cout <<
      "usage: nessa [--dataset NAME] [--pipeline nessa|full|full-cached|"
      "craig|kcenter|random|loss-topk]\n"
      "             [--fraction F] [--epochs N] [--scale S] [--devices D]\n"
      "             [--gpu A100|V100|K1200] [--seed N] [--no-feedback]\n"
      "             [--no-biasing] [--no-partitioning] [--no-dynamic]\n"
      "             [--parallel] [--perf-model analytic|event]\n"
      "             [--fault-plan flaky-p2p|slow-nand|fpga-stall|FILE]\n"
      "             [--scenario drift|imbalance|noise-burst|duplicates]\n"
      "             [--scenario-summary PATH] [--chunk-samples N]\n"
      "             [--checkpoint-dir PATH] [--checkpoint-every N] "
      "[--resume]\n"
      "             [--trace PATH] [--metrics PATH]\n"
      "             [--csv PATH] [--json PATH]\n";
}

enum class ParseResult { kRun, kHelp, kError };

ParseResult parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << what << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    auto number = [&](auto& field) {
      const char* v = next(arg.c_str());
      return v != nullptr && tools::parse_number(arg, v, field);
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return ParseResult::kHelp;
    } else if (arg == "--dataset") {
      const char* v = next("--dataset");
      if (!v) return ParseResult::kError;
      opt.dataset = v;
    } else if (arg == "--pipeline") {
      const char* v = next("--pipeline");
      if (!v) return ParseResult::kError;
      opt.pipeline = v;
    } else if (arg == "--gpu") {
      const char* v = next("--gpu");
      if (!v) return ParseResult::kError;
      opt.gpu = v;
    } else if (arg == "--fraction") {
      if (!number(opt.fraction)) return ParseResult::kError;
    } else if (arg == "--epochs") {
      if (!number(opt.epochs)) return ParseResult::kError;
    } else if (arg == "--scale") {
      if (!number(opt.scale)) return ParseResult::kError;
    } else if (arg == "--devices") {
      if (!number(opt.devices)) return ParseResult::kError;
    } else if (arg == "--seed") {
      if (!number(opt.seed)) return ParseResult::kError;
    } else if (arg == "--no-feedback") {
      opt.feedback = false;
    } else if (arg == "--no-biasing") {
      opt.biasing = false;
    } else if (arg == "--no-partitioning") {
      opt.partitioning = false;
    } else if (arg == "--no-dynamic") {
      opt.dynamic_sizing = false;
    } else if (arg == "--parallel") {
      opt.parallel = true;
    } else if (arg == "--perf-model") {
      const char* v = next("--perf-model");
      if (!v) return ParseResult::kError;
      opt.perf_model = v;
    } else if (arg == "--fault-plan") {
      const char* v = next("--fault-plan");
      if (!v) return ParseResult::kError;
      opt.fault_plan = v;
    } else if (arg == "--scenario") {
      const char* v = next("--scenario");
      if (!v) return ParseResult::kError;
      opt.scenario = v;
    } else if (arg == "--scenario-summary") {
      const char* v = next("--scenario-summary");
      if (!v) return ParseResult::kError;
      opt.scenario_summary_path = v;
    } else if (arg == "--chunk-samples") {
      if (!number(opt.chunk_samples)) return ParseResult::kError;
    } else if (arg == "--checkpoint-dir") {
      const char* v = next("--checkpoint-dir");
      if (!v) return ParseResult::kError;
      opt.checkpoint_dir = v;
    } else if (arg == "--checkpoint-every") {
      if (!number(opt.checkpoint_every)) return ParseResult::kError;
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--trace") {
      const char* v = next("--trace");
      if (!v) return ParseResult::kError;
      opt.trace_path = v;
    } else if (arg == "--metrics") {
      const char* v = next("--metrics");
      if (!v) return ParseResult::kError;
      opt.metrics_path = v;
    } else if (arg == "--csv") {
      const char* v = next("--csv");
      if (!v) return ParseResult::kError;
      opt.csv_path = v;
    } else if (arg == "--json") {
      const char* v = next("--json");
      if (!v) return ParseResult::kError;
      opt.json_path = v;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      print_usage();
      return ParseResult::kError;
    }
  }
  return ParseResult::kRun;
}

/// Compact per-epoch class-distribution cell: per-class percentages of the
/// epoch's visible pool, slash-separated ("23/9/11/...").
std::string class_mix_cell(const std::vector<std::uint32_t>& mix) {
  if (mix.empty()) return "-";
  std::uint64_t total = 0;
  for (std::uint32_t count : mix) total += count;
  if (total == 0) return "-";
  std::string cell;
  for (std::size_t c = 0; c < mix.size(); ++c) {
    if (c > 0) cell += "/";
    cell += std::to_string(
        (static_cast<std::uint64_t>(mix[c]) * 100 + total / 2) / total);
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  switch (parse(argc, argv, opt)) {
    case ParseResult::kRun: break;
    case ParseResult::kHelp: return 0;
    case ParseResult::kError: return 1;
  }

  // One validated RunConfig drives the run end to end. It is checked
  // before anything is looked up by name, so a bad name or value is a
  // config error, never an abort.
  core::RunConfig rc;
  rc.system.gpu = opt.gpu;
  rc.train.epochs = opt.epochs;
  rc.train.batch_size = 128;
  rc.train.seed = opt.seed;
  rc.train.chunk_samples = opt.chunk_samples;
  rc.nessa.subset_fraction = opt.fraction;
  rc.nessa.weight_feedback = opt.feedback;
  rc.nessa.subset_biasing = opt.biasing;
  rc.nessa.partition_quota = opt.partitioning ? 8 : 0;
  rc.nessa.dynamic_sizing = opt.dynamic_sizing;
  rc.nessa.drop_interval_epochs = std::max<std::size_t>(3, opt.epochs / 4);
  rc.nessa.loss_window_epochs = std::max<std::size_t>(2, opt.epochs / 40);
  rc.parallelism = opt.parallel;
  rc.dataset = opt.dataset;
  rc.dataset_scale = opt.scale;
  rc.devices = opt.devices;
  try {
    rc.pipeline = core::pipeline_kind_from_string(opt.pipeline);
    rc.perf_model = core::perf_model_from_string(opt.perf_model);
    if (!opt.fault_plan.empty()) {
      rc.fault_plan = fault::FaultPlan::parse(opt.fault_plan);
    }
  } catch (const std::exception& e) {
    std::cerr << "config error: " << e.what() << "\n";
    print_usage();
    return 1;
  }
  rc.checkpoint.dir = opt.checkpoint_dir;
  rc.checkpoint.every_epochs = opt.checkpoint_every;
  rc.checkpoint.resume = opt.resume;
  if (opt.resume) {
    // The kill point belongs to the run that crashed; the resuming run
    // finishes the remaining epochs.
    rc.fault_plan = rc.fault_plan.without_crash_point();
  }
  rc.telemetry.enabled =
      !opt.trace_path.empty() || !opt.metrics_path.empty();
  rc.telemetry.trace_path = opt.trace_path;
  rc.telemetry.metrics_path = opt.metrics_path;
  if (const auto errors = rc.validate(); !errors.empty()) {
    for (const auto& e : errors) std::cerr << "config error: " << e << "\n";
    return 1;
  }

  const auto& info = data::dataset_info(opt.dataset);

  // A scenario preset replaces the static substrate dataset with a
  // non-stationary per-epoch stream over the same paper-scale metadata.
  data::scenario::ScenarioConfig scenario_config;
  std::unique_ptr<data::scenario::EpochStream> stream;
  std::optional<data::Dataset> substrate;
  if (!opt.scenario.empty()) {
    try {
      scenario_config.kind = data::scenario::kind_from_string(opt.scenario);
    } catch (const std::exception& e) {
      std::cerr << "config error: " << e.what() << "\n";
      return 1;
    }
    scenario_config.seed = opt.seed;
    scenario_config.train_size = std::max<std::size_t>(
        200, static_cast<std::size_t>(
                 static_cast<double>(info.paper_train_size) * opt.scale));
    stream = data::scenario::make_scenario(scenario_config);
  } else {
    if (!opt.scenario_summary_path.empty()) {
      std::cerr << "config error: --scenario-summary requires --scenario\n";
      return 1;
    }
    substrate = data::make_substrate_dataset(info, opt.scale, 0, opt.seed);
  }

  core::PipelineInputs inputs;
  inputs.dataset = stream ? &stream->base() : &*substrate;
  inputs.stream = stream.get();
  inputs.info = info;
  inputs.model = nn::model_spec(info.paper_network);
  inputs.train = rc.train;
  inputs.perf_model = rc.perf_model;
  // The non-RunConfig entry points (multi-device, baselines) read the fault
  // plan and checkpoint config straight from the staged inputs.
  inputs.fault_plan = rc.fault_plan;
  inputs.checkpoint = rc.checkpoint;

  std::optional<telemetry::Session> session;
  if (rc.telemetry.enabled) session.emplace();

  if (!opt.scenario_summary_path.empty()) {
    // Comparison mode: nessa vs random vs full over the SAME stream.
    core::ScenarioRunConfig scfg;
    scfg.scenario = scenario_config;
    scfg.dataset = opt.dataset;
    scfg.train = inputs.train;
    scfg.nessa = rc.nessa;
    scfg.perf_model = rc.perf_model;
    scfg.system = rc.system;
    const auto result = core::run_scenario(scfg);
    core::write_scenario_summary_json_file(result, opt.scenario_summary_path);

    std::cout << "scenario " << opt.scenario << " on " << info.name
              << " (stream " << scenario_config.train_size
              << " samples/epoch, seed " << scenario_config.seed;
    if (opt.chunk_samples > 0) {
      std::cout << ", " << opt.chunk_samples << "-sample chunks";
    }
    std::cout << ")\n\n";
    util::Table cmp("scenario comparison");
    cmp.set_header({"pipeline", "final acc (%)", "best acc (%)",
                    "mean subset (%)", "mean overlap", "chunk fetches",
                    "total time (s)"});
    for (const auto& outcome : result.outcomes) {
      const core::RunResult& r = outcome.result;
      std::uint64_t fetches = 0;
      double overlap = 0.0;
      for (const auto& e : r.epochs) {
        fetches += e.chunk_fetches;
        overlap += e.selection_overlap;
      }
      if (!r.epochs.empty()) overlap /= static_cast<double>(r.epochs.size());
      cmp.add_row({std::string(core::to_string(outcome.pipeline)),
                   util::Table::pct(r.final_accuracy),
                   util::Table::pct(r.best_accuracy),
                   util::Table::pct(r.mean_subset_fraction),
                   util::Table::num(overlap, 3), util::Table::num(fetches),
                   util::Table::num(util::to_seconds(r.total_time), 2)});
    }
    cmp.print(std::cout);
    std::cout << "\nscenario summary    : " << opt.scenario_summary_path
              << "\n";
    if (session) {
      if (!rc.telemetry.trace_path.empty()) {
        session->trace().write_chrome_trace_file(rc.telemetry.trace_path);
      }
      if (!rc.telemetry.metrics_path.empty()) {
        session->metrics().write_json_file(rc.telemetry.metrics_path);
      }
    }
    return 0;
  }

  smartssd::SmartSsdSystem system(rc.system);

  core::RunResult run;
  // The energy report prices the selection pass by where it ran.
  auto site = core::SelectionSite::kNone;
  switch (rc.pipeline) {
    case core::PipelineKind::kNessa:
      site = core::SelectionSite::kFpga;
      break;
    case core::PipelineKind::kCraig:
    case core::PipelineKind::kKCenter:
      site = core::SelectionSite::kHostCpu;
      break;
    default:
      break;
  }
  try {
    run = core::run(inputs, rc, system);
  } catch (const fault::InjectedCrash& crash) {
    std::cerr << "run terminated by injected crash: " << crash.what() << "\n";
    if (!opt.checkpoint_dir.empty()) {
      std::cerr << "resume with: --checkpoint-dir " << opt.checkpoint_dir
                << " --resume\n";
    }
    return 3;
  } catch (const ckpt::SnapshotError& e) {
    std::cerr << "checkpoint error: " << e.what() << "\n";
    if (e.fault() == ckpt::SnapshotFault::kNoSnapshot) print_usage();
    return 1;
  }

  std::cout << opt.pipeline << " on " << info.name;
  if (stream) std::cout << " (scenario " << opt.scenario << "; stream ";
  else std::cout << " (substrate ";
  std::cout << inputs.dataset->train_size() << " samples; paper scale "
            << info.paper_train_size << " x "
            << info.stored_bytes_per_sample << " B, " << info.paper_network
            << ", " << opt.gpu;
  if (opt.devices > 1) std::cout << ", " << opt.devices << " SmartSSDs";
  std::cout << ")\n";
  if (!opt.fault_plan.empty()) {
    std::cout << "fault plan: " << rc.fault_plan.summary() << "\n";
  }
  std::cout << "\n";

  util::Table table("per-epoch report");
  std::vector<std::string> header = {"epoch",      "acc (%)", "loss",
                                     "subset (%)", "pool",    "epoch time (s)"};
  if (stream) header.push_back("class mix (%)");
  table.set_header(header);
  for (const auto& e : run.epochs) {
    std::vector<std::string> row = {
        util::Table::num(e.epoch),
        util::Table::pct(e.test_accuracy),
        util::Table::num(e.train_loss, 3),
        util::Table::pct(e.subset_fraction),
        util::Table::num(e.pool_size),
        util::Table::num(util::to_seconds(e.cost.total()), 2)};
    if (stream) row.push_back(class_mix_cell(e.class_mix));
    table.add_row(row);
  }
  table.print(std::cout);

  auto energy = core::estimate_energy(run, system.gpu(), site);
  std::cout << "\nfinal accuracy      : "
            << util::Table::pct(run.final_accuracy) << " %\n"
            << "best accuracy       : " << util::Table::pct(run.best_accuracy)
            << " %\n"
            << "mean subset         : "
            << util::Table::pct(run.mean_subset_fraction) << " %\n"
            << "mean epoch time     : "
            << util::Table::num(util::to_seconds(run.mean_epoch_time), 2)
            << " s (simulated, paper scale)\n"
            << "interconnect traffic: "
            << util::Table::num(
                   static_cast<double>(run.interconnect_bytes) / 1e9, 2)
            << " GB\n"
            << "energy estimate     : "
            << util::Table::num(energy.total() / 1e3, 2) << " kJ\n";
  if (!opt.fault_plan.empty()) {
    std::cout << "fault fallbacks     : " << run.fault_fallback_epochs
              << " epoch(s) re-priced over the host path\n"
              << "stale subsets       : " << run.fault_stale_epochs
              << " epoch(s) trained on a carried-forward subset\n";
  }

  if (!opt.json_path.empty()) {
    core::RunMetadata run_meta{opt.pipeline, info.name, info.paper_network,
                               opt.gpu, opt.devices, opt.seed};
    core::write_json_report_file(run_meta, run, opt.json_path);
    std::cout << "run JSON            : " << opt.json_path << "\n";
  }
  if (!opt.csv_path.empty()) {
    std::ofstream csv(opt.csv_path);
    if (!csv) {
      std::cerr << "cannot write " << opt.csv_path << "\n";
      return 1;
    }
    table.write_csv(csv);
    std::cout << "per-epoch CSV       : " << opt.csv_path << "\n";
  }
  if (session) {
    if (!rc.telemetry.trace_path.empty()) {
      session->trace().write_chrome_trace_file(rc.telemetry.trace_path);
      std::cout << "trace JSON          : " << rc.telemetry.trace_path
                << "\n";
    }
    if (!rc.telemetry.metrics_path.empty()) {
      session->metrics().write_json_file(rc.telemetry.metrics_path);
      std::cout << "metrics JSON        : " << rc.telemetry.metrics_path
                << "\n";
    }
  }
  return 0;
}
