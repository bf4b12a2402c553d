// table5_jobs: the paper's five Table-5 services, end to end, as batch jobs.
//
// Each pass runs RunWorkload(kEreborFull) over llama.cpp, yolo, drugbank,
// graphchi and unicorn at their registered sizes, with the client input drawn
// from the run's seed. This is the Fig. 9 / Table 6 path: MMU-, EMC-, page-walk-
// and kernel-heavy, with no channel crypto (client data goes in through the
// paper artifact's DebugFS install; see NOTES.md for why not the channel). Every
// pass replays the same inputs, so each must reproduce the first pass's
// simulated report bit for bit.
#include <cmath>

#include "perfbench/harness.h"
#include "src/workloads/runner.h"

namespace perfbench {
namespace {

using namespace erebor;

class Table5Jobs : public Workload {
 public:
  explicit Table5Jobs(const RunConfig& config) : config_(config) {}

  Status Setup() override;
  void Window(Outcome& out) override;
  void Timed(double seconds, SpanLog& spans, Outcome& out) override;
  uint64_t trace_block_ops() const override { return workloads_.size(); }
  const char* op_span_name() const override { return "table5.job"; }
  double tail_quantile() const override { return 0.90; }

 private:
  // Runs job `index` once; returns false if it failed or its output is wrong.
  bool RunJob(size_t index, uint64_t op, SpanLog& spans, Outcome& out, RunReport* report);

  RunConfig config_;
  RunnerOptions options_;
  std::vector<std::unique_ptr<erebor::Workload>> workloads_;
  std::vector<Bytes> inputs_;
  std::vector<RunReport> reference_;  // the window pass
  std::vector<double> host_ms_sum_;
  std::vector<uint64_t> host_ms_count_;
  uint64_t next_op_ = 0;
};

Status Table5Jobs::Setup() {
  options_.input_seed = DeriveSeed(config_.seed, 4);
  workloads_ = MakePaperWorkloads();
  for (const auto& workload : workloads_) {
    inputs_.push_back(workload->MakeClientInput(options_.input_seed));
  }
  host_ms_sum_.assign(workloads_.size(), 0);
  host_ms_count_.assign(workloads_.size(), 0);
  // The part of every job outside RunReport's init+run cycles: booting a World
  // the way RunWorkload does.
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.machine.memory_frames = options_.memory_frames;
  config.machine.num_cpus = options_.num_cpus;
  World world(config);
  return world.Boot();
}

bool Table5Jobs::RunJob(size_t index, uint64_t op, SpanLog& spans, Outcome& out,
                        RunReport* report) {
  erebor::Workload& workload = *workloads_[index];
  const int root = spans.Open("table5.job", op, -1, 0);
  const int run = spans.Open("workload.run", op, root, 0);
  *report = RunWorkload(workload, SimMode::kEreborFull, options_);
  const Cycles sim = report->init_cycles + report->run_cycles;
  spans.Close(run, sim);
  const int check = spans.Open("workload.check", op, root, sim);
  const bool output_ok = report->ok && workload.CheckOutput(inputs_[index], report->output);
  spans.Close(check, sim);
  spans.Close(root, sim);
  if (!report->ok) {
    ++out.failures[report->error.find("xhaust") != std::string::npos ? "pool_exhausted"
                                                                    : "job_error"];
    return false;
  }
  if (!output_ok) {
    out.Fail(workload.name() + ": output failed Workload::CheckOutput");
  }
  return true;
}

void Table5Jobs::Window(Outcome& out) {
  SpanLog off;
  const CounterSnapshot snap = CounterSnapshot::Take();
  for (size_t i = 0; i < workloads_.size(); ++i) {
    RunReport report;
    const bool ok = RunJob(i, ++next_op_, off, out, &report);
    const Cycles sim = report.init_cycles + report.run_cycles;
    out.sim_op_cycles.push_back(ok ? static_cast<double>(sim) : kFailed);
    out.sim_window_cycles += static_cast<double>(sim);
    out.failed += ok ? 0 : 1;
    if (Tracer::Global().enabled() && report.trace_emc_enter != report.emc_total) {
      out.Fail(report.workload + ": traced EMC gate entries differ from emc_total");
    }
    const std::string prefix = "job." + workloads_[i]->name();
    out.extra[prefix + ".init_mcycles"] = report.init_cycles / 1e6;
    out.extra[prefix + ".run_mcycles"] = report.run_cycles / 1e6;
    out.extra[prefix + ".emc"] = static_cast<double>(report.emc_total);
    out.extra[prefix + ".page_faults"] = std::round(report.pf_per_sec * report.run_seconds);
    for (const uint64_t value : {report.init_cycles, report.run_cycles, report.emc_total,
                                 report.confined_bytes}) {
      out.fingerprint.Add(value);
    }
    out.fingerprint.AddBytes(report.output.data(), report.output.size());
    reference_.push_back(std::move(report));
  }
  out.window_ops = workloads_.size();
  out.attempted += workloads_.size();
  out.counters = CounterSnapshot::Take().Minus(snap);
}

void Table5Jobs::Timed(double seconds, SpanLog& spans, Outcome& out) {
  const int64_t start = HostNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  // Whole passes only, so every job kind weighs the same in the percentiles.
  while (HostNs() < deadline) {
    for (size_t i = 0; i < workloads_.size(); ++i) {
      const int64_t job_start = HostNs();
      RunReport report;
      const bool ok = RunJob(i, ++next_op_, spans, out, &report);
      const double ms = (HostNs() - job_start) / 1e6;
      const RunReport& ref = reference_[i];
      if (ok && (report.init_cycles != ref.init_cycles || report.run_cycles != ref.run_cycles ||
                 report.emc_total != ref.emc_total || report.output != ref.output)) {
        out.Fail(report.workload + ": a replayed job differs from the first pass");
      }
      out.host_op_ms.push_back(ok ? ms : kFailed);
      host_ms_sum_[i] += ms;
      ++host_ms_count_[i];
      ++out.attempted;
      if (ok) {
        ++out.timed_ops;
      } else {
        ++out.failed;
      }
      spans.OpFinished();
    }
  }
  out.timed_seconds = (HostNs() - start) / 1e9;
  for (size_t i = 0; i < workloads_.size(); ++i) {
    out.extra["job." + workloads_[i]->name() + ".host_ms"] =
        host_ms_count_[i] == 0 ? 0 : host_ms_sum_[i] / static_cast<double>(host_ms_count_[i]);
  }
}

}  // namespace

std::unique_ptr<Workload> MakeTable5Jobs(const RunConfig& config) {
  return std::make_unique<Table5Jobs>(config);
}

}  // namespace perfbench
