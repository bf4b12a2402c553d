// perfbench_e2e: runs one workload of the end-to-end benchmark and prints a
// RESULT line (JSON) with every end-to-end and per-layer figure; run.py builds
// this binary, runs it and turns RESULT into the benchmark's output line.
//
//   perfbench_e2e --workload rpc_steady|session_churn|table5_jobs --seed N
//                 --seconds S --trace 0|1 [--spans PATH]
//
// A run sets the workload up five times (setup_s is the median), runs the
// deterministic window on the last two instances (their simulated fingerprints
// must match), then measures host time on the last instance for S seconds. With
// --trace 1 the program's Tracer is on during the last window (exact per-kind
// counts), and the timed phase alternates blocks with span recording off and on.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "perfbench/harness.h"
#include "src/common/rng.h"
#include "src/common/trace.h"
#include "src/workloads/workload.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;

// Spans whose mean host time per op is reported as "<name>_us", and the subset
// with a simulated twin "<name>_kcycles".
const char* const kHostSpans[] = {
    "client.hello",     "client.server_hello", "client.seal",    "client.open",
    "client.fin",       "client.wait",         "cvm.handshake",  "cvm.request",
    "cvm.run",
    "sandbox.clone",    "sandbox.activate",    "sandbox.teardown", "sandbox.reap",
    "workload.run",     "workload.check",
};
const char* const kSimSpans[] = {
    "cvm.handshake",    "cvm.request",         "cvm.run",        "sandbox.clone",
    "sandbox.activate", "sandbox.teardown",    "sandbox.reap",
};
// Window counters reported per op.
const char* const kPerOpCounters[] = {
    "monitor.emc_pte",     "monitor.emc_ptp",       "monitor.emc_cr",
    "monitor.emc_msr",     "monitor.emc_usercopy",  "monitor.emc_tdcall",
    "monitor.emc_sandbox", "monitor.emc_channel",   "monitor.emc_ring",
    "monitor.policy_denials", "kernel.syscalls",    "kernel.page_faults",
    "kernel.context_switches", "kernel.interrupts", "kernel.ve_exits",
    "tdx.vmcalls",         "channel.records_decrypted", "channel.records_encrypted",
    "channel.rejects",     "channel.retries",       "channel.duplicates",
    "tlb.hits",            "tlb.misses",            "tlb.shootdowns",
    "paging.walk_read64s",
};
const char* const kExtras[] = {
    "client.bytes_sealed", "client.retries", "cvm.packets_in", "cvm.packets_out",
    "cvm.session_share_min", "kernel.pool_frames_in_use", "kernel.frames_retained_per_op",
};
const char* const kFailureCauses[] = {
    "timeouts", "retry_exhausted", "killed", "pool_exhausted", "launch", "job_error",
};

struct Args {
  std::string workload;
  RunConfig config;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->config.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->config.trace = value == "1";
    } else if (key == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->config.seconds > 0;
}

// Minimal JSON object writer: numbers keep all 17 significant digits.
class JsonObject {
 public:
  void Number(const std::string& key, double value) {
    char buf[64];
    if (std::isinf(value)) {
      std::snprintf(buf, sizeof(buf), "Infinity");
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    }
    Raw(key, buf);
  }
  void String(const std::string& key, const std::string& value) { Raw(key, Quote(value)); }
  static std::string Quote(const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
      }
      quoted += (c >= 0x20) ? c : ' ';
    }
    return quoted + "\"";
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

// Host time of a fixed integer loop that does not touch the program. Taken
// around the timed phase, it shows how fast the machine itself ran, so a host
// metric that moved with it can be told apart from one the program moved.
double ReferenceMs() {
  const int64_t start = HostNs();
  erebor::SplitMix64 mix(1);
  uint64_t sink = 0;
  for (int i = 0; i < (1 << 23); ++i) {
    sink ^= mix.Next();
  }
  const double ms = (HostNs() - start) / 1e6;
  volatile uint64_t keep = sink;
  (void)keep;
  return ms;
}

int Run(const Args& args) {
  std::function<std::unique_ptr<Workload>(const RunConfig&)> make;
  if (args.workload == "rpc_steady") {
    make = MakeRpcSteady;
  } else if (args.workload == "session_churn") {
    make = MakeSessionChurn;
  } else if (args.workload == "table5_jobs") {
    make = MakeTable5Jobs;
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const RunConfig& config = args.config;
  erebor::Tracer& tracer = erebor::Tracer::Global();

  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  Outcome out;
  uint64_t replay_fingerprint = 0;
  for (int k = 0; k < kSetups; ++k) {
    workload.reset();
    workload = make(config);
    const int64_t start = HostNs();
    const erebor::Status st = workload->Setup();
    setup_s.push_back((HostNs() - start) / 1e9);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 3;
    }
    if (k < kSetups - 2) {
      continue;
    }
    const bool last = k == kSetups - 1;
    Outcome window;
    if (last && config.trace) {
      tracer.Enable();
    }
    workload->Window(window);
    tracer.Disable();
    std::printf("window %d: %llu ops, fingerprint %016llx\n", k,
                static_cast<unsigned long long>(window.window_ops),
                static_cast<unsigned long long>(window.fingerprint.value()));
    if (!last) {
      replay_fingerprint = window.fingerprint.value();
      for (const std::string& error : window.errors) {
        out.Fail("first window: " + error);
      }
      continue;
    }
    const std::vector<std::string> earlier = out.errors;
    out = std::move(window);
    for (const std::string& error : earlier) {
      out.Fail(error);
    }
    if (out.fingerprint.value() != replay_fingerprint) {
      out.Fail("simulated results of the deterministic window differ between two "
               "same-seed instances");
    }
  }

  SpanLog spans;
  if (config.trace) {
    spans.StartBlocks(workload->trace_block_ops());
  }
  const double reference_before = ReferenceMs();
  workload->Timed(config.seconds, spans, out);
  spans.FinishBlocks();
  const double reference_ms = (reference_before + ReferenceMs()) / 2;
  const double tail = workload->tail_quantile();
  const char* const op_span = workload->op_span_name();
  workload.reset();

  // ---- End-to-end figures: host from the timed phase, simulated from the window ----
  JsonObject e2e;
  e2e.Number("op_p50_ms", Percentile(out.host_op_ms, 0.5));
  e2e.Number("op_tail_ms", Percentile(out.host_op_ms, tail));
  e2e.Number("ops_per_s", static_cast<double>(out.timed_ops) / out.timed_seconds);
  e2e.Number("sim_op_p50_kcycles", Percentile(out.sim_op_cycles, 0.5) / 1e3);
  e2e.Number("sim_op_tail_kcycles", Percentile(out.sim_op_cycles, tail) / 1e3);
  e2e.Number("sim_kcycles_per_op",
             out.sim_window_cycles / static_cast<double>(std::max<uint64_t>(out.window_ops, 1)) /
                 1e3);
  e2e.Number("setup_s", Median(setup_s));

  // ---- Per-layer figures ----
  JsonObject layers;
  const SpanSummary summary = Summarize(spans.spans(), op_span);
  const double traced_ops = static_cast<double>(std::max<uint64_t>(summary.op_spans, 1));
  const auto per_name = [&](const char* name) {
    const auto it = summary.by_name.find(name);
    return it == summary.by_name.end() ? SpanSummary::PerName{} : it->second;
  };
  for (const char* name : kHostSpans) {
    layers.Number(std::string(name) + "_us", per_name(name).host_us / traced_ops);
  }
  for (const char* name : kSimSpans) {
    layers.Number(std::string(name) + "_kcycles", per_name(name).sim_cycles / traced_ops / 1e3);
  }
  layers.Number("op.self_us", per_name(op_span).self_us / traced_ops);
  const double window_ops = static_cast<double>(std::max<uint64_t>(out.window_ops, 1));
  auto& counters = out.counters.values;
  layers.Number("monitor.emc_per_op", counters["monitor.emc_total"] / window_ops);
  for (const char* name : kPerOpCounters) {
    layers.Number(name, counters[name] / window_ops);
  }
  const double lookups = counters["tlb.hits"] + counters["tlb.misses"];
  layers.Number("tlb.hit_ratio", lookups == 0 ? 0 : counters["tlb.hits"] / lookups);
  for (const char* name : kExtras) {
    layers.Number(name, out.extra[name]);
  }
  for (const auto& job : erebor::MakePaperWorkloads()) {
    for (const char* field : {".host_ms", ".init_mcycles", ".run_mcycles", ".emc",
                              ".page_faults"}) {
      const std::string name = "job." + job->name() + field;
      layers.Number(name, out.extra[name]);
    }
  }
  layers.Number("fail_ratio", static_cast<double>(out.failed) /
                                  static_cast<double>(std::max<uint64_t>(out.attempted, 1)));
  for (const char* cause : kFailureCauses) {
    layers.Number(std::string("fail.") + cause, static_cast<double>(out.failures[cause]));
  }
  // Tracing overhead: host time per op with spans on against off, same run.
  const double off_per_op = spans.seconds(false) / static_cast<double>(spans.ops(false));
  const double on_per_op = spans.seconds(true) / static_cast<double>(spans.ops(true));
  const bool have_blocks = spans.ops(false) > 0 && spans.ops(true) > 0;
  layers.Number("trace.overhead_pct", have_blocks ? 100.0 * (on_per_op / off_per_op - 1) : 0);
  layers.Number("trace.op_coverage_min", summary.op_spans > 0 ? summary.coverage_min : 0);
  layers.Number("trace.op_coverage_mean", summary.op_spans > 0 ? summary.coverage_mean : 0);
  layers.Number("trace.spans", static_cast<double>(spans.spans().size()));
  layers.Number("host.reference_ms", reference_ms);

  if (config.trace && summary.op_spans == 0) {
    out.Fail("the traced run recorded no op spans");
  } else if (config.trace && summary.coverage_min < 0.9) {
    out.Fail("child spans cover less than 90% of an op span");
  }
  if (!args.spans_path.empty()) {
    const erebor::Status written = spans.WriteTsv(args.spans_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 3;
    }
  }

  std::printf("setup: %.4f s median of %d; window: %llu ops; timed: %llu ops in %.3f s\n",
              Median(setup_s), kSetups, static_cast<unsigned long long>(out.window_ops),
              static_cast<unsigned long long>(out.timed_ops), out.timed_seconds);
  for (const std::string& error : out.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  JsonObject result;
  result.Raw("correct", out.correct ? "true" : "false");
  result.Number("attempted", static_cast<double>(out.attempted));
  result.Number("failed", static_cast<double>(out.failed));
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(out.fingerprint.value()));
  result.String("fingerprint", fingerprint);
  std::string errors;
  for (const std::string& error : out.errors) {
    errors += (errors.empty() ? "" : ", ") + JsonObject::Quote(error);
  }
  result.Raw("errors", "[" + errors + "]");
  result.Raw("end_to_end", e2e.str());
  result.Raw("per_layer", layers.str());
  std::printf("RESULT %s\n", result.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans PATH]\n");
    return 2;
  }
  return perfbench::Run(args);
}
