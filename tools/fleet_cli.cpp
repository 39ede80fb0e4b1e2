// fleet — drive the multi-tenant SmartSSD fleet simulator.
//
//   fleet [--devices N] [--gpus M] [--jobs-per-device N]
//         [--jobs N] [--tenants N] [--rate R] [--seed N]     (Poisson source)
//         [--arrivals FILE]                                  (trace source)
//         [--pipeline NAME] [--epochs N]
//         [--queue-capacity N] [--policy reject|defer] [--quantum N]
//         [--chunk-records N] [--fault-plan NAME|FILE] [--probe-us N]
//         [--engine calendar|heap] [--summary PATH] [--metrics PATH]
//
// Builds the arrival stream (a seeded Poisson process by default, or a
// `<at_us> <tenant> [weight] [epochs]` text trace via --arrivals), runs it
// through fleet::run_fleet, prints the per-tenant and per-component tables,
// and optionally writes the machine-readable summary JSON that the CI
// fleet-smoke job validates.
#include <fstream>
#include <iostream>
#include <string>

#include "nessa/fleet/fleet_sim.hpp"
#include "nessa/nessa.hpp"
#include "nessa/util/table.hpp"
#include "parse_number.hpp"

using namespace nessa;

namespace {

struct Options {
  std::size_t devices = 4;
  std::size_t gpus = 2;
  std::size_t jobs_per_device = 4;
  std::size_t jobs = 1000;
  std::uint32_t tenants = 8;
  double rate = 50.0;
  std::uint64_t seed = 42;
  std::string arrivals_path;
  std::string pipeline = "nessa";
  std::size_t epochs = 4;
  std::size_t queue_capacity = 64;
  std::string policy = "defer";
  std::size_t quantum = 0;
  std::size_t chunk_records = 0;
  std::string fault_plan;
  std::uint64_t probe_us = 0;
  std::string engine = "calendar";
  std::string summary_path;
  std::string metrics_path;
};

void print_usage() {
  std::cout
      << "usage: fleet [--devices N] [--gpus M] [--jobs-per-device N]\n"
         "             [--jobs N] [--tenants N] [--rate R] [--seed N]\n"
         "             [--arrivals FILE] [--pipeline NAME] [--epochs N]\n"
         "             [--queue-capacity N] [--policy reject|defer]\n"
         "             [--quantum N] [--chunk-records N]\n"
         "             [--fault-plan NAME|FILE] [--probe-us N]\n"
         "             [--engine calendar|heap]\n"
         "             [--summary PATH] [--metrics PATH]\n";
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
    } else if (arg == "--devices") {
      ok = number(opt.devices);
    } else if (arg == "--gpus") {
      ok = number(opt.gpus);
    } else if (arg == "--jobs-per-device") {
      ok = number(opt.jobs_per_device);
    } else if (arg == "--jobs") {
      ok = number(opt.jobs);
    } else if (arg == "--tenants") {
      ok = number(opt.tenants);
    } else if (arg == "--rate") {
      ok = number(opt.rate);
    } else if (arg == "--seed") {
      ok = number(opt.seed);
    } else if (arg == "--arrivals") {
      ok = text(opt.arrivals_path);
    } else if (arg == "--pipeline") {
      ok = text(opt.pipeline);
    } else if (arg == "--epochs") {
      ok = number(opt.epochs);
    } else if (arg == "--queue-capacity") {
      ok = number(opt.queue_capacity);
    } else if (arg == "--policy") {
      ok = text(opt.policy);
    } else if (arg == "--quantum") {
      ok = number(opt.quantum);
    } else if (arg == "--chunk-records") {
      ok = number(opt.chunk_records);
    } else if (arg == "--fault-plan") {
      ok = text(opt.fault_plan);
    } else if (arg == "--probe-us") {
      ok = number(opt.probe_us);
    } else if (arg == "--engine") {
      ok = text(opt.engine);
    } else if (arg == "--summary") {
      ok = text(opt.summary_path);
    } else if (arg == "--metrics") {
      ok = text(opt.metrics_path);
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

  fleet::FleetConfig config;
  config.devices = opt.devices;
  config.gpus = opt.gpus;
  config.jobs_per_device = opt.jobs_per_device;
  config.queue_capacity = opt.queue_capacity;
  config.preempt_quantum_epochs = opt.quantum;
  config.job.workload.chunk_records = opt.chunk_records;
  config.job.pipeline_epochs = opt.epochs < 2 ? 2 : opt.epochs;
  if (opt.policy == "reject") {
    config.policy = fleet::AdmissionPolicy::kReject;
  } else if (opt.policy == "defer") {
    config.policy = fleet::AdmissionPolicy::kDefer;
  } else {
    std::cerr << "unknown policy: " << opt.policy << "\n";
    return 1;
  }
  if (opt.engine == "calendar") {
    config.engine = sim::QueueKind::kCalendar;
  } else if (opt.engine == "heap") {
    config.engine = sim::QueueKind::kHeap;
  } else {
    std::cerr << "unknown engine: " << opt.engine << "\n";
    return 1;
  }
  try {
    config.job.pipeline = core::pipeline_kind_from_string(opt.pipeline);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  if (!opt.fault_plan.empty()) {
    try {
      config.job.fault_plan = fault::FaultPlan::parse(opt.fault_plan);
    } catch (const std::exception& e) {
      std::cerr << "fault plan error: " << e.what() << "\n";
      return 1;
    }
  }
  if (opt.probe_us > 0) {
    config.health.probe_interval =
        static_cast<util::SimTime>(opt.probe_us) * util::kMicrosecond;
  }

  std::vector<fleet::Arrival> arrivals;
  try {
    if (!opt.arrivals_path.empty()) {
      arrivals = fleet::load_arrival_trace(opt.arrivals_path);
    } else {
      fleet::PoissonConfig poisson;
      poisson.rate_per_s = opt.rate;
      poisson.jobs = opt.jobs;
      poisson.tenants = opt.tenants;
      poisson.seed = opt.seed;
      arrivals = fleet::poisson_arrivals(poisson);
    }
  } catch (const std::exception& e) {
    std::cerr << "arrival stream error: " << e.what() << "\n";
    return 1;
  }

  telemetry::Session session;
  fleet::FleetResult result;
  try {
    result = fleet::run_fleet(config, arrivals);
  } catch (const std::exception& e) {
    std::cerr << "fleet error: " << e.what() << "\n";
    return 1;
  }

  std::cout << "fleet: " << config.devices << " SmartSSDs, " << config.gpus
            << " GPUs, " << result.arrivals << " arrivals ("
            << (opt.arrivals_path.empty() ? "poisson" : opt.arrivals_path)
            << "), engine " << opt.engine << "\n"
            << "jobs: " << result.admitted << " admitted, " << result.rejected
            << " rejected, " << result.deferred << " deferred, "
            << result.completed << " completed, " << result.preemptions
            << " preemptions, " << result.resumes << " resumes\n"
            << "failures: " << result.migrations << " migrations, "
            << result.failed_permanently << " failed permanently, "
            << result.chunk_corruptions << " corrupt fetches, "
            << result.quarantined_chunks << " quarantined chunks\n"
            << "latency: p50 " << result.p50_latency_s << " s, p99 "
            << result.p99_latency_s << " s, mean " << result.mean_latency_s
            << " s over " << util::to_seconds(result.makespan)
            << " s makespan\n"
            << "fairness: Jain " << result.jain_fairness
            << ", peak queue depth " << result.peak_queue_depth
            << ", peak overflow " << result.peak_overflow_depth << "\n";

  util::Table tenants("per-tenant");
  tenants.set_header({"tenant", "weight", "arrivals", "admitted", "rejected",
                      "completed", "preempted", "p50 (s)", "p99 (s)",
                      "gpu (s)"});
  for (const auto& t : result.tenants) {
    tenants.add_row({util::Table::num(static_cast<std::size_t>(t.tenant)), util::Table::num(static_cast<std::size_t>(t.weight)),
                     util::Table::num(t.arrivals),
                     util::Table::num(t.admitted),
                     util::Table::num(t.rejected),
                     util::Table::num(t.completed),
                     util::Table::num(t.preemptions),
                     util::Table::num(t.p50_latency_s, 3),
                     util::Table::num(t.p99_latency_s, 3),
                     util::Table::num(t.gpu_service_s, 3)});
  }
  tenants.print(std::cout);

  util::Table components("per-component utilization");
  components.set_header({"component", "util (%)", "requests", "GB moved"});
  for (const auto& c : result.components) {
    components.add_row(
        {c.name, util::Table::pct(c.utilization), util::Table::num(c.requests),
         util::Table::num(static_cast<double>(c.bytes) / 1e9, 2)});
  }
  components.print(std::cout);

  if (!result.health.empty()) {
    util::Table health("device health");
    health.set_header({"device", "failures", "detections", "migrated out",
                       "availability", "detect (s)", "mttr (s)"});
    for (const auto& h : result.health) {
      health.add_row({util::Table::num(static_cast<std::size_t>(h.device)),
                      util::Table::num(static_cast<std::size_t>(h.failures)),
                      util::Table::num(h.detections),
                      util::Table::num(h.migrations_out),
                      util::Table::num(h.availability, 4),
                      util::Table::num(h.mean_detection_latency_s, 6),
                      util::Table::num(h.mttr_s, 6)});
    }
    health.print(std::cout);
  }

  if (!opt.summary_path.empty()) {
    std::ofstream out(opt.summary_path);
    if (!out) {
      std::cerr << "cannot write summary: " << opt.summary_path << "\n";
      return 1;
    }
    result.write_summary_json(out);
    std::cout << "summary JSON: " << opt.summary_path << "\n";
  }
  if (!opt.metrics_path.empty()) {
    try {
      session.metrics().write_json_file(opt.metrics_path);
    } catch (const std::exception& e) {
      std::cerr << "metrics export failed: " << e.what() << "\n";
      return 1;
    }
    std::cout << "metrics JSON: " << opt.metrics_path << "\n";
  }
  return 0;
}
