// nessa-sweep — subset-fraction sweep across pipelines: the classic
// accuracy-vs-budget coreset curve (what Table 3's columns sample at three
// points), plus epoch time and data movement per point.
//
//   nessa-sweep [--dataset NAME] [--epochs N] [--scale S] [--seed N]
//               [--fractions 0.05,0.1,0.2,0.3,0.5]
//               [--pipelines nessa,random,craig,kcenter,loss-topk]
//               [--csv PATH]
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nessa/core/run.hpp"
#include "nessa/util/table.hpp"
#include "parse_number.hpp"

using namespace nessa;

namespace {

using tools::ParseResult;

struct Options {
  std::string dataset = "CIFAR-10";
  std::size_t epochs = 20;
  double scale = 0.03;
  std::uint64_t seed = 42;
  std::vector<double> fractions;
  std::vector<std::string> pipelines;
  std::string csv_path;
};

void print_usage() {
  std::cout << "usage: nessa-sweep [--dataset NAME] [--epochs N] [--scale S]\n"
               "                   [--seed N] [--fractions F,F,...]\n"
               "                   [--pipelines nessa,random,craig,kcenter,"
               "loss-topk]\n"
               "                   [--csv PATH]\n";
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

ParseResult parse(int argc, char** argv, Options& opt) {
  std::string fractions = "0.05,0.1,0.2,0.3,0.5";
  std::string pipelines = "nessa,random";
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
    } else if (arg == "--dataset") {
      ok = text(opt.dataset);
    } else if (arg == "--epochs") {
      ok = number(opt.epochs);
    } else if (arg == "--scale") {
      ok = number(opt.scale);
    } else if (arg == "--seed") {
      ok = number(opt.seed);
    } else if (arg == "--fractions") {
      ok = text(fractions);
    } else if (arg == "--pipelines") {
      ok = text(pipelines);
    } else if (arg == "--csv") {
      ok = text(opt.csv_path);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      print_usage();
      return ParseResult::kError;
    }
    if (!ok) return ParseResult::kError;
  }
  for (const auto& item : split_csv(fractions)) {
    double fraction = 0.0;
    if (!tools::parse_number("--fractions", item.c_str(), fraction)) {
      return ParseResult::kError;
    }
    if (fraction <= 0.0 || fraction > 1.0) {
      std::cerr << "config error: --fractions: " << item
                << " is not in (0, 1]\n";
      return ParseResult::kError;
    }
    opt.fractions.push_back(fraction);
  }
  opt.pipelines = split_csv(pipelines);
  return ParseResult::kRun;
}

/// One point of the sweep: the run config of `pipeline` at `fraction`.
core::RunConfig point_config(const core::RunConfig& base,
                             core::PipelineKind pipeline, double fraction,
                             std::size_t epochs) {
  core::RunConfig rc = base;
  rc.pipeline = pipeline;
  rc.nessa.subset_fraction = fraction;
  if (pipeline == core::PipelineKind::kNessa) {
    rc.nessa.dynamic_sizing = false;
    rc.nessa.min_subset_fraction = fraction;
    rc.nessa.partition_quota = 8;
    rc.nessa.drop_interval_epochs = std::max<std::size_t>(3, epochs / 4);
    rc.nessa.loss_window_epochs = std::max<std::size_t>(2, epochs / 40);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  switch (parse(argc, argv, opt)) {
    case ParseResult::kRun: break;
    case ParseResult::kHelp: return 0;
    case ParseResult::kError: return 1;
  }

  // Every point's config is built and validated before anything is looked
  // up by name, so a bad name or value is a config error, never an abort.
  core::RunConfig base_rc;
  base_rc.dataset = opt.dataset;
  base_rc.dataset_scale = opt.scale;
  base_rc.train.epochs = opt.epochs;
  base_rc.train.batch_size = 128;
  base_rc.train.seed = opt.seed;
  base_rc.pipeline = core::PipelineKind::kFull;
  std::vector<std::string> errors = base_rc.validate();
  std::vector<std::pair<std::string, core::RunConfig>> points;
  for (const auto& name : opt.pipelines) {
    core::PipelineKind kind{};
    try {
      kind = core::pipeline_kind_from_string(name);
    } catch (const std::exception& e) {
      errors.emplace_back(e.what());
      continue;
    }
    for (const double fraction : opt.fractions) {
      points.emplace_back(name,
                          point_config(base_rc, kind, fraction, opt.epochs));
    }
  }
  if (errors.empty()) {
    for (const auto& point : points) {
      for (auto& e : point.second.validate()) errors.push_back(std::move(e));
    }
  }
  if (!errors.empty()) {
    for (const auto& e : errors) std::cerr << "config error: " << e << "\n";
    return 1;
  }

  util::Table table;
  try {
    const auto& info = data::dataset_info(opt.dataset);
    auto ds = data::make_substrate_dataset(info, opt.scale, 0, opt.seed);

    core::PipelineInputs inputs;
    inputs.dataset = &ds;
    inputs.info = info;
    inputs.model = nn::model_spec(info.paper_network);
    inputs.train = base_rc.train;

    std::cout << "fraction sweep on " << opt.dataset << " ("
              << ds.train_size() << " substrate samples, " << opt.epochs
              << " epochs)\n\n";

    // The full-data reference.
    smartssd::SmartSsdSystem full_sys;
    auto full = core::run(inputs, base_rc, full_sys);

    table.set_header({"pipeline", "fraction", "accuracy (%)", "epoch (s)",
                      "interconnect (GB)"});
    table.add_row(
        {"full", "1.00", util::Table::pct(full.final_accuracy),
         util::Table::num(util::to_seconds(full.mean_epoch_time), 2),
         util::Table::num(static_cast<double>(full.interconnect_bytes) / 1e9,
                          2)});

    for (const auto& [pipeline, rc] : points) {
      smartssd::SmartSsdSystem sys;
      core::RunResult run = core::run(inputs, rc, sys);
      table.add_row(
          {pipeline, util::Table::num(rc.nessa.subset_fraction, 2),
           util::Table::pct(run.final_accuracy),
           util::Table::num(util::to_seconds(run.mean_epoch_time), 2),
           util::Table::num(
               static_cast<double>(run.interconnect_bytes) / 1e9, 2)});
      std::cerr << "[sweep] " << pipeline << " @ " << rc.nessa.subset_fraction
                << " done\n";
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "config error: " << e.what() << "\n";
    return 1;
  }
  table.print(std::cout);

  if (!opt.csv_path.empty()) {
    std::ofstream csv(opt.csv_path);
    if (!csv) {
      std::cerr << "cannot write " << opt.csv_path << "\n";
      return 1;
    }
    table.write_csv(csv);
    std::cout << "\nCSV written to " << opt.csv_path << "\n";
  }
  return 0;
}
