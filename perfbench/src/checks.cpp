#include "checks.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>

namespace perfbench {

namespace {

/// Records `field` as a mismatch unless `a` and `b` are bit-identical.
class Differ {
 public:
  explicit Differ(std::vector<std::string>& out) : out_(out) {}

  template <typename T>
  void operator()(const std::string& field, const T& a, const T& b) {
    bool same = false;
    if constexpr (std::is_same_v<T, double>) {
      same = std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    } else {
      same = a == b;
    }
    if (!same) out_.push_back(field + " differs");
  }

 private:
  std::vector<std::string>& out_;
};

}  // namespace

std::vector<std::string> diff_run_results(const nessa::core::RunResult& a,
                                          const nessa::core::RunResult& b) {
  std::vector<std::string> out;
  Differ diff(out);
  diff("epochs.size", a.epochs.size(), b.epochs.size());
  if (!out.empty()) return out;
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    const auto& x = a.epochs[e];
    const auto& y = b.epochs[e];
    const std::string at = "epoch " + std::to_string(e) + " ";
    diff(at + "epoch", x.epoch, y.epoch);
    diff(at + "train_loss", x.train_loss, y.train_loss);
    diff(at + "test_accuracy", x.test_accuracy, y.test_accuracy);
    diff(at + "subset_size", x.subset_size, y.subset_size);
    diff(at + "pool_size", x.pool_size, y.pool_size);
    diff(at + "subset_fraction", x.subset_fraction, y.subset_fraction);
    diff(at + "selection_overlap", x.selection_overlap, y.selection_overlap);
    diff(at + "chunk_fetches", x.chunk_fetches, y.chunk_fetches);
    diff(at + "class_mix", x.class_mix, y.class_mix);
    diff(at + "cost.storage_scan", x.cost.storage_scan, y.cost.storage_scan);
    diff(at + "cost.selection", x.cost.selection, y.cost.selection);
    diff(at + "cost.subset_transfer", x.cost.subset_transfer,
         y.cost.subset_transfer);
    diff(at + "cost.gpu_compute", x.cost.gpu_compute, y.cost.gpu_compute);
    diff(at + "cost.feedback", x.cost.feedback, y.cost.feedback);
    diff(at + "cost.selection_overlapped", x.cost.selection_overlapped,
         y.cost.selection_overlapped);
    diff(at + "cost.modeled_total", x.cost.modeled_total,
         y.cost.modeled_total);
  }
  diff("final_accuracy", a.final_accuracy, b.final_accuracy);
  diff("best_accuracy", a.best_accuracy, b.best_accuracy);
  diff("mean_subset_fraction", a.mean_subset_fraction, b.mean_subset_fraction);
  diff("total_time", a.total_time, b.total_time);
  diff("mean_epoch_time", a.mean_epoch_time, b.mean_epoch_time);
  diff("interconnect_bytes", a.interconnect_bytes, b.interconnect_bytes);
  diff("p2p_bytes", a.p2p_bytes, b.p2p_bytes);
  diff("fault_fallback_epochs", a.fault_fallback_epochs,
       b.fault_fallback_epochs);
  diff("fault_stale_epochs", a.fault_stale_epochs, b.fault_stale_epochs);
  diff("chunk_corruptions", a.chunk_corruptions, b.chunk_corruptions);
  diff("chunk_refetches", a.chunk_refetches, b.chunk_refetches);
  diff("quarantined_chunks", a.quarantined_chunks, b.quarantined_chunks);
  return out;
}

std::vector<std::string> check_run_result(const nessa::core::RunResult& r,
                                          std::size_t epochs) {
  std::vector<std::string> out;
  if (r.epochs.size() != epochs) {
    out.push_back("expected " + std::to_string(epochs) + " epochs, got " +
                  std::to_string(r.epochs.size()));
  }
  if (!std::isfinite(r.final_accuracy) || r.final_accuracy < 0.0 ||
      r.final_accuracy > 1.0) {
    out.push_back("final_accuracy out of [0, 1]");
  }
  for (const auto& e : r.epochs) {
    if (!std::isfinite(e.test_accuracy) || e.test_accuracy < 0.0 ||
        e.test_accuracy > 1.0) {
      out.push_back("epoch " + std::to_string(e.epoch) +
                    " test_accuracy out of [0, 1]");
    }
    if (!std::isfinite(e.train_loss) || e.train_loss < 0.0) {
      out.push_back("epoch " + std::to_string(e.epoch) +
                    " train_loss not finite and >= 0");
    }
  }
  if (r.mean_epoch_time <= 0) out.push_back("mean_epoch_time not > 0");
  return out;
}

std::vector<std::string> diff_fleet_results(
    const nessa::fleet::FleetResult& a, const nessa::fleet::FleetResult& b) {
  std::vector<std::string> out;
  Differ diff(out);
  diff("arrivals", a.arrivals, b.arrivals);
  diff("admitted", a.admitted, b.admitted);
  diff("rejected", a.rejected, b.rejected);
  diff("deferred", a.deferred, b.deferred);
  diff("completed", a.completed, b.completed);
  diff("preemptions", a.preemptions, b.preemptions);
  diff("resumes", a.resumes, b.resumes);
  diff("failed_permanently", a.failed_permanently, b.failed_permanently);
  diff("makespan", a.makespan, b.makespan);
  diff("p50_latency_s", a.p50_latency_s, b.p50_latency_s);
  diff("p99_latency_s", a.p99_latency_s, b.p99_latency_s);
  diff("mean_latency_s", a.mean_latency_s, b.mean_latency_s);
  diff("jain_fairness", a.jain_fairness, b.jain_fairness);
  diff("peak_queue_depth", a.peak_queue_depth, b.peak_queue_depth);
  diff("jobs.size", a.jobs.size(), b.jobs.size());
  if (a.jobs.size() != b.jobs.size()) return out;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& x = a.jobs[i];
    const auto& y = b.jobs[i];
    std::vector<std::string> job;
    Differ job_diff(job);
    job_diff("first_dispatch", x.first_dispatch, y.first_dispatch);
    job_diff("finish", x.finish, y.finish);
    job_diff("epochs_done", x.epochs_done, y.epochs_done);
    job_diff("preemptions", x.preemptions, y.preemptions);
    job_diff("resumes", x.resumes, y.resumes);
    job_diff("device", x.device, y.device);
    job_diff("gpu", x.gpu, y.gpu);
    job_diff("completed", x.completed, y.completed);
    if (!job.empty()) {
      out.push_back("job " + std::to_string(i) + " " + job.front());
      break;  // one differing job is enough to report
    }
  }
  return out;
}

std::vector<std::string> check_fleet_result(
    const nessa::fleet::FleetResult& r, const LatencySummary& latency) {
  std::vector<std::string> out;
  if (r.admitted + r.rejected != r.arrivals) {
    out.push_back("admitted + rejected != arrivals");
  }
  if (r.completed + r.failed_permanently != r.admitted) {
    out.push_back("completed + failed_permanently != admitted");
  }
  if (latency.samples == 0) out.push_back("no completed jobs");
  if (!(latency.p99_s >= latency.p50_s)) out.push_back("p99 < p50");
  if (!(r.jain_fairness > 0.0 && r.jain_fairness <= 1.0)) {
    out.push_back("Jain index out of (0, 1]");
  }
  if (r.deferred != 0) {
    out.push_back(std::to_string(r.deferred) +
                  " arrivals deferred: the load is above capacity");
  }
  return out;
}

}  // namespace perfbench
