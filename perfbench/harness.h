// Shared pieces of the end-to-end benchmark driver: the host clock, the span log
// the traced run records, the simulated-counter snapshot, and the interface each
// workload implements.
//
// Two clocks run through every workload. Host time is std::chrono::steady_clock
// around calls into the simulator's public API. Simulated time is the largest
// per-vCPU cycle counter of the World (vCPU clocks advance independently; the
// furthest one is "now"), converted at the paper's 2.1 GHz where a time is shown.
#ifndef EREBOR_PERFBENCH_HARNESS_H_
#define EREBOR_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/world.h"

namespace perfbench {

inline constexpr double kGhz = 2.1e9;
inline constexpr double kFailed = std::numeric_limits<double>::infinity();

inline int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Largest per-vCPU cycle counter: the simulated "now" of a multi-vCPU World.
uint64_t SimNow(erebor::World& world);

// The service every sandbox runs: XOR-transform each input record, charge a
// fixed compute cost, send the result. A clone (clone_of != null) adopts its
// template's LibOS state instead of initializing; `ready` counts services up.
// It exits when RecvInput fails with anything but EAGAIN (e.g. after teardown),
// so a torn-down sandbox's task is reaped instead of polling forever.
inline constexpr uint8_t kTransformKey = 0x5A;
erebor::ProgramFn EchoService(std::shared_ptr<erebor::LibosEnv> env,
                              std::shared_ptr<erebor::LibosEnv> clone_of,
                              std::shared_ptr<int> ready, erebor::Cycles compute_cycles);
erebor::Bytes Transform(const erebor::Bytes& input);

// FNV-1a accumulator for the determinism fingerprint.
class Fingerprint {
 public:
  void Add(uint64_t value);
  void AddBytes(const uint8_t* data, size_t len);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// One traced interval. `op` groups the spans of one request, session or job
// (0: shared work such as a scheduler run serving several in-flight requests);
// `parent` indexes the enclosing span, -1 for a root.
struct Span {
  const char* name = nullptr;  // string literal
  uint64_t op = 0;
  int32_t parent = -1;
  int64_t host_start_ns = 0;
  int64_t host_end_ns = 0;
  uint64_t sim_start = 0;
  uint64_t sim_end = 0;
};

// In-memory span store. While disabled, Open returns -1 and Close ignores it, so
// call sites need no branch of their own.
class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int Open(const char* name, uint64_t op, int parent, uint64_t sim_now);
  // Ends span `index` now, or at `host_end_ns` when the caller took that time.
  void Close(int index, uint64_t sim_now, int64_t host_end_ns = 0);
  // Records a span whose bounds were taken by the caller. A child (parent >= 0)
  // is kept even after tracing was switched off, so an op traced from its start
  // keeps all of its children.
  int Add(const char* name, uint64_t op, int parent, int64_t host_start_ns,
          int64_t host_end_ns, uint64_t sim_start, uint64_t sim_end);

  const std::deque<Span>& spans() const { return spans_; }
  erebor::Status WriteTsv(const std::string& path) const;

  // Trace mode: the timed phase alternates blocks of `block_ops` finished ops
  // with recording off and on, starting off, so the two halves give the
  // tracing overhead. OpFinished advances the block; FinishBlocks closes it.
  void StartBlocks(uint64_t block_ops);
  void OpFinished();
  void FinishBlocks();
  double seconds(bool traced) const { return block_seconds_[traced ? 1 : 0]; }
  uint64_t ops(bool traced) const { return block_op_count_[traced ? 1 : 0]; }

 private:
  void CloseBlock();

  bool enabled_ = false;
  std::deque<Span> spans_;  // no reallocation copies while a traced run records
  uint64_t block_ops_ = 0;  // 0: not alternating
  uint64_t ops_in_block_ = 0;
  int64_t block_start_ns_ = 0;
  double block_seconds_[2] = {0, 0};
  uint64_t block_op_count_[2] = {0, 0};
};

// Per-name totals and op coverage over a span log: self time is a span's
// duration minus the union of its children's intervals; coverage is, per root
// op span, the share of its host duration its children cover.
struct SpanSummary {
  struct PerName {
    uint64_t count = 0;
    double host_us = 0;
    double self_us = 0;
    double sim_cycles = 0;
  };
  std::map<std::string, PerName> by_name;
  uint64_t op_spans = 0;
  double coverage_min = 1.0;
  double coverage_mean = 1.0;
};
SpanSummary Summarize(const std::deque<Span>& spans, const char* op_span_name);

// Exact deltas of the counters the program exports, taken over a workload's
// deterministic window. The EMC families come from the program's Tracer (its
// per-kind counts are exact and cover Worlds the benchmark does not own, such as
// RunWorkload's), so they are filled only while the Tracer is enabled.
struct CounterSnapshot {
  std::map<std::string, double> values;
  static CounterSnapshot Take();
  CounterSnapshot Minus(const CounterSnapshot& before) const;
};

// What a workload hands back. Host figures come from the timed phase, simulated
// figures and counters from the deterministic window.
struct Outcome {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failures;  // per cause

  // Deterministic window.
  uint64_t window_ops = 0;
  std::vector<double> sim_op_cycles;  // per op, kFailed for a failed op
  double sim_window_cycles = 0;       // simulated time the window took
  CounterSnapshot counters;           // exact deltas over the window
  Fingerprint fingerprint;

  // Timed phase.
  uint64_t timed_ops = 0;
  double timed_seconds = 0;
  std::vector<double> host_op_ms;  // per op, kFailed for a failed op

  std::map<std::string, double> extra;  // workload-specific per-layer figures

  void Fail(const std::string& error) {
    correct = false;
    if (errors.size() < 8) {
      errors.push_back(error);
    }
  }
};

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// One workload. The driver calls Setup (timed as setup_s), Window (fixed,
// seed-determined work whose simulated results must replay bit-identically), and
// then Timed for the run's host-time measurement.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual erebor::Status Setup() = 0;
  virtual void Window(Outcome& out) = 0;
  // Calls spans.OpFinished() once per finished op.
  virtual void Timed(double seconds, SpanLog& spans, Outcome& out) = 0;
  // Ops per tracing block in trace mode.
  virtual uint64_t trace_block_ops() const = 0;
  // Name of the per-op root span.
  virtual const char* op_span_name() const = 0;
  // Percentile used for the tail metric: the highest of p99/p90 with at least
  // ten timed samples beyond it in a 20 s run of this workload.
  virtual double tail_quantile() const = 0;
};

std::unique_ptr<Workload> MakeRpcSteady(const RunConfig& config);
std::unique_ptr<Workload> MakeSessionChurn(const RunConfig& config);
std::unique_ptr<Workload> MakeTable5Jobs(const RunConfig& config);

// Nearest-rank percentile (q in [0,1]); failed samples sort as +infinity.
double Percentile(std::vector<double> values, double q);

// Seed derivation: every input of a run comes from its one seed argument.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // EREBOR_PERFBENCH_HARNESS_H_
