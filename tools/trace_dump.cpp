// trace-dump — exercise the instrumented NeSSA stack end to end and export
// the telemetry artifacts:
//
//   trace-dump [--trace PATH] [--metrics PATH] [--pipeline-epochs N]
//              [--train-epochs N] [--scale S] [--seed N]
//              [--fault-plan PRESET|FILE] [--fleet-jobs N]
//              [--scenario PRESET]
//
// Runs (1) the batch-granular SmartSSD pipeline simulation, which emits
// sim-clock spans for every modeled resource (flash-read, fpga-forward,
// selection, host-link, gpu-link, gpu-train, feedback — plus chunk-fetch
// when --scenario switches the flash plan to chunked streaming), (2) a
// short substrate NeSSA training run, which emits wall-clock spans from
// the selection engine and the trainers plus the bytes-moved counters
// (with --scenario the run trains on the non-stationary stream through
// the chunked Loader and prints the per-epoch class distribution), and —
// with --fleet-jobs — (3) a small multi-tenant fleet run, which adds the
// prefixed per-device spans ("ssd0.flash_bus", "gpu1.gpu", ...) and the
// fleet.jobs.* counters. A trace file therefore holds spans from however
// many pipelines and device graphs ran in the session, NOT one pipeline
// trace per file. Then writes the Chrome trace-event JSON (load in
// chrome://tracing or Perfetto) and the flat metrics JSON. CI parses both
// and checks the phase names.
#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "nessa/fleet/fleet_sim.hpp"
#include "nessa/nessa.hpp"
#include "nessa/util/table.hpp"
#include "parse_number.hpp"

using namespace nessa;

namespace {

struct Options {
  std::string trace_path = "trace.json";
  std::string metrics_path = "metrics.json";
  std::size_t pipeline_epochs = 6;
  std::size_t train_epochs = 3;
  double scale = 0.01;
  std::uint64_t seed = 42;
  std::string fault_plan;
  std::size_t fleet_jobs = 0;  ///< 0 = skip the fleet stage
  std::string scenario;        ///< empty = static substrate dataset
};

void print_usage() {
  std::cout << "usage: trace-dump [--trace PATH] [--metrics PATH]\n"
               "                  [--pipeline-epochs N] [--train-epochs N]\n"
               "                  [--scale S] [--seed N]\n"
               "                  [--fault-plan flaky-p2p|slow-nand|"
               "fpga-stall|FILE]\n"
               "                  [--fleet-jobs N]\n"
               "                  [--scenario drift|imbalance|noise-burst|"
               "duplicates]\n";
}

using tools::ParseResult;

ParseResult parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    auto number = [&](auto& field) {
      const char* v = next();
      return v != nullptr && tools::parse_number(arg, v, field);
    };
    auto text = [&](std::string& field) {
      const char* v = next();
      if (v != nullptr) field = v;
      return v != nullptr;
    };
    bool ok = true;
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return ParseResult::kHelp;
    } else if (arg == "--trace") {
      ok = text(opt.trace_path);
    } else if (arg == "--metrics") {
      ok = text(opt.metrics_path);
    } else if (arg == "--pipeline-epochs") {
      ok = number(opt.pipeline_epochs);
    } else if (arg == "--train-epochs") {
      ok = number(opt.train_epochs);
    } else if (arg == "--scale") {
      ok = number(opt.scale);
    } else if (arg == "--seed") {
      ok = number(opt.seed);
    } else if (arg == "--fault-plan") {
      ok = text(opt.fault_plan);
    } else if (arg == "--fleet-jobs") {
      ok = number(opt.fleet_jobs);
    } else if (arg == "--scenario") {
      ok = text(opt.scenario);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      print_usage();
      return ParseResult::kError;
    }
    if (!ok) return ParseResult::kError;
  }
  return ParseResult::kRun;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  switch (parse(argc, argv, opt)) {
    case ParseResult::kRun: break;
    case ParseResult::kHelp: return 0;
    case ParseResult::kError: return 1;
  }

  core::RunConfig rc;
  rc.train.epochs = opt.train_epochs;
  rc.train.seed = opt.seed;
  if (!opt.scenario.empty()) {
    // Scenario mode exercises the chunked streaming plan in BOTH clock
    // domains: the DES feeds the scan from sequential chunk fetches and the
    // substrate run pulls the scoring pool through fixed-budget chunks.
    rc.workload.chunk_records = 2048;
    rc.train.chunk_samples = 256;
  }
  rc.nessa.subset_fraction = 0.3;
  rc.nessa.partition_quota = 8;
  rc.nessa.drop_interval_epochs = 2;
  rc.nessa.loss_window_epochs = 2;
  rc.parallelism = true;
  rc.pipeline_epochs = opt.pipeline_epochs;
  rc.telemetry.enabled = true;
  rc.telemetry.trace_path = opt.trace_path;
  rc.telemetry.metrics_path = opt.metrics_path;
  if (!opt.fault_plan.empty()) {
    try {
      rc.fault_plan = fault::FaultPlan::parse(opt.fault_plan);
    } catch (const std::exception& e) {
      std::cerr << "fault plan error: " << e.what() << "\n";
      return 1;
    }
  }
  if (const auto errors = rc.validate(); !errors.empty()) {
    for (const auto& e : errors) std::cerr << "config error: " << e << "\n";
    return 1;
  }

  telemetry::Session session;

  // (1) Sim-clock domain: batch-granular pipeline schedule over the
  // component DeviceGraph.
  const auto trace = core::simulate(rc);
  std::cout << "pipeline: steady epoch "
            << util::to_seconds(trace.steady_epoch_time) << " s over "
            << rc.pipeline_epochs << " epochs";
  if (trace.chunk_fetches > 0) {
    std::cout << " (" << trace.chunk_fetches << " chunk fetches of "
              << rc.workload.chunk_records << " records)";
  }
  std::cout << "\n";
  if (rc.fault_plan.enabled()) {
    std::cout << "fault plan: " << rc.fault_plan.summary() << "\n";
  }

  util::Table usage("device-graph utilization");
  usage.set_header({"component", "busy (s)", "queue wait (s)", "util (%)",
                    "requests", "rejected", "failed", "GB moved"});
  for (const auto& u : trace.usage) {
    usage.add_row({u.name, util::Table::num(util::to_seconds(u.busy_time), 3),
                   util::Table::num(util::to_seconds(u.queue_wait), 3),
                   util::Table::pct(u.utilization),
                   util::Table::num(u.requests), util::Table::num(u.rejected),
                   util::Table::num(u.failed),
                   util::Table::num(static_cast<double>(u.bytes) / 1e9, 2)});
  }
  usage.print(std::cout);
  if (trace.fault.any()) {
    std::cout << "faults: " << trace.fault.injected_total() << " injected ("
              << trace.fault.injected_failures << " failures, "
              << trace.fault.injected_slowdowns << " slowdowns, "
              << trace.fault.injected_stalls << " stalls, "
              << trace.fault.injected_rejections << " rejections), "
              << trace.fault.retries << " retries, " << trace.fault.giveups
              << " give-ups, " << trace.fault.dropped_batches
              << " dropped batches"
              << (trace.fault.host_fallback ? ", host-path fallback" : "")
              << "\n";
  }

  // (2) Wall-clock domain: a short substrate NeSSA training run — on the
  // static substrate dataset, or with --scenario on the non-stationary
  // stream through the chunked Loader.
  const auto& info = data::dataset_info("CIFAR-10");
  std::unique_ptr<data::scenario::EpochStream> stream;
  std::optional<data::Dataset> substrate;
  if (!opt.scenario.empty()) {
    data::scenario::ScenarioConfig sc;
    try {
      sc.kind = data::scenario::kind_from_string(opt.scenario);
    } catch (const std::exception& e) {
      std::cerr << "scenario error: " << e.what() << "\n";
      return 1;
    }
    sc.seed = opt.seed;
    sc.train_size = std::max<std::size_t>(
        200, static_cast<std::size_t>(
                 static_cast<double>(info.paper_train_size) * opt.scale));
    stream = data::scenario::make_scenario(sc);
  } else {
    substrate = data::make_substrate_dataset(info, opt.scale, 0, opt.seed);
  }
  core::PipelineInputs inputs;
  inputs.dataset = stream ? &stream->base() : &*substrate;
  inputs.stream = stream.get();
  inputs.info = info;
  inputs.model = nn::model_spec(info.paper_network);
  inputs.train = rc.train;
  smartssd::SmartSsdSystem system(rc.system);
  const auto run = core::run(inputs, rc, system);
  std::cout << "train: " << run.epochs.size() << " epochs, final accuracy "
            << run.final_accuracy * 100.0 << " %";
  if (stream) std::cout << " (scenario " << opt.scenario << ")";
  std::cout << "\n";
  if (stream) {
    util::Table mix("per-epoch class distribution");
    mix.set_header({"epoch", "pool", "class counts"});
    for (const auto& e : run.epochs) {
      std::string counts;
      for (std::size_t c = 0; c < e.class_mix.size(); ++c) {
        if (c > 0) counts += " ";
        counts += std::to_string(e.class_mix[c]);
      }
      mix.add_row({util::Table::num(e.epoch), util::Table::num(e.pool_size),
                   counts});
    }
    mix.print(std::cout);
  }

  // (3) Fleet domain: a small multi-tenant run adds the per-device
  // prefixed component spans and the per-tenant job columns below.
  if (opt.fleet_jobs > 0) {
    fleet::FleetConfig fc;
    fc.devices = 2;
    fc.gpus = 2;
    fc.preempt_quantum_epochs = 2;
    fc.job.pipeline_epochs = 4;
    fleet::PoissonConfig poisson;
    poisson.jobs = opt.fleet_jobs;
    poisson.tenants = 4;
    poisson.rate_per_s = 200.0;
    poisson.seed = opt.seed;
    const auto fr = fleet::run_fleet(fc, fleet::poisson_arrivals(poisson));
    std::cout << "fleet: " << fr.arrivals << " arrivals, " << fr.completed
              << " completed, Jain " << fr.jain_fairness << "\n";
    util::Table tenants("fleet per-tenant");
    tenants.set_header({"tenant", "admitted", "rejected", "preempted",
                        "p50 (s)", "p99 (s)"});
    for (const auto& t : fr.tenants) {
      tenants.add_row({util::Table::num(static_cast<std::size_t>(t.tenant)),
                       util::Table::num(t.admitted),
                       util::Table::num(t.rejected),
                       util::Table::num(t.preemptions),
                       util::Table::num(t.p50_latency_s, 3),
                       util::Table::num(t.p99_latency_s, 3)});
    }
    tenants.print(std::cout);
  }

  try {
    session.trace().write_chrome_trace_file(rc.telemetry.trace_path);
    session.metrics().write_json_file(rc.telemetry.metrics_path);
  } catch (const std::exception& e) {
    std::cerr << "export failed: " << e.what() << "\n";
    return 1;
  }
  std::cout << "trace JSON  : " << rc.telemetry.trace_path << " ("
            << session.trace().size() << " events)\n"
            << "metrics JSON: " << rc.telemetry.metrics_path << "\n";
  return 0;
}
