// nessa-sweep — subset-fraction sweep across pipelines: the classic
// accuracy-vs-budget coreset curve (what Table 3's columns sample at three
// points), plus epoch time and data movement per point.
//
//   nessa-sweep [--dataset NAME] [--epochs N] [--scale S] [--seed N]
//               [--fractions 0.05,0.1,0.2,0.3,0.5]
//               [--pipelines nessa,random,craig,kcenter,loss-topk]
//               [--csv PATH]
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "nessa/core/run.hpp"
#include "nessa/util/table.hpp"
#include "parse_number.hpp"

using namespace nessa;

namespace {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset = "CIFAR-10";
  std::size_t epochs = 20;
  double scale = 0.03;
  std::uint64_t seed = 42;
  std::string fractions_arg = "0.05,0.1,0.2,0.3,0.5";
  std::string pipelines_arg = "nessa,random";
  std::string csv_path;

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
    if (arg == "--dataset") {
      ok = text(dataset);
    } else if (arg == "--epochs") {
      ok = number(epochs);
    } else if (arg == "--scale") {
      ok = number(scale);
    } else if (arg == "--seed") {
      ok = number(seed);
    } else if (arg == "--fractions") {
      ok = text(fractions_arg);
    } else if (arg == "--pipelines") {
      ok = text(pipelines_arg);
    } else if (arg == "--csv") {
      ok = text(csv_path);
    } else {
      std::cerr << "unknown option " << arg << "\n";
      return 1;
    }
    if (!ok) return 1;
  }
  std::vector<double> fractions;
  for (const auto& item : split_csv(fractions_arg)) {
    double fraction = 0.0;
    if (!tools::parse_number("--fractions", item.c_str(), fraction)) return 1;
    if (fraction <= 0.0 || fraction > 1.0) {
      std::cerr << "config error: --fractions: " << item
                << " is not in (0, 1]\n";
      return 1;
    }
    fractions.push_back(fraction);
  }

  const auto& info = data::dataset_info(dataset);
  auto ds = data::make_substrate_dataset(info, scale, 0, seed);

  core::PipelineInputs inputs;
  inputs.dataset = &ds;
  inputs.info = info;
  inputs.model = nn::model_spec(info.paper_network);
  inputs.train.epochs = epochs;
  inputs.train.batch_size = 128;
  inputs.train.seed = seed;

  std::cout << "fraction sweep on " << dataset << " (" << ds.train_size()
            << " substrate samples, " << epochs << " epochs)\n\n";

  // The full-data reference.
  core::RunConfig base_rc;
  base_rc.train = inputs.train;
  base_rc.pipeline = core::PipelineKind::kFull;
  smartssd::SmartSsdSystem full_sys;
  auto full = core::run(inputs, base_rc, full_sys);

  util::Table table;
  table.set_header({"pipeline", "fraction", "accuracy (%)", "epoch (s)",
                    "interconnect (GB)"});
  table.add_row({"full", "1.00", util::Table::pct(full.final_accuracy),
                 util::Table::num(util::to_seconds(full.mean_epoch_time), 2),
                 util::Table::num(
                     static_cast<double>(full.interconnect_bytes) / 1e9, 2)});

  for (const auto& pipeline : split_csv(pipelines_arg)) {
    for (const double fraction : fractions) {
      smartssd::SmartSsdSystem sys;
      core::RunConfig rc = base_rc;
      try {
        rc.pipeline = core::pipeline_kind_from_string(pipeline);
      } catch (const std::exception&) {
        std::cerr << "unknown pipeline " << pipeline << "\n";
        return 1;
      }
      rc.nessa.subset_fraction = fraction;
      if (rc.pipeline == core::PipelineKind::kNessa) {
        rc.nessa.dynamic_sizing = false;
        rc.nessa.min_subset_fraction = fraction;
        rc.nessa.partition_quota = 8;
        rc.nessa.drop_interval_epochs = std::max<std::size_t>(3, epochs / 4);
        rc.nessa.loss_window_epochs = std::max<std::size_t>(2, epochs / 40);
      }
      core::RunResult run = core::run(inputs, rc, sys);
      table.add_row(
          {pipeline, util::Table::num(fraction, 2),
           util::Table::pct(run.final_accuracy),
           util::Table::num(util::to_seconds(run.mean_epoch_time), 2),
           util::Table::num(
               static_cast<double>(run.interconnect_bytes) / 1e9, 2)});
      std::cerr << "[sweep] " << pipeline << " @ " << fraction << " done\n";
    }
  }
  table.print(std::cout);

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    if (!csv) {
      std::cerr << "cannot write " << csv_path << "\n";
      return 1;
    }
    table.write_csv(csv);
    std::cout << "\nCSV written to " << csv_path << "\n";
  }
  return 0;
}
