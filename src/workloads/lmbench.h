// LMBench-style system microbenchmarks (Figure 8). Each benchmark runs as a normal
// (non-sandboxed) process and measures cycles/operation, so running it under Native
// and Erebor worlds yields the paper's relative-latency bars plus the EMC/s rates.
#ifndef EREBOR_SRC_WORKLOADS_LMBENCH_H_
#define EREBOR_SRC_WORKLOADS_LMBENCH_H_

#include "src/sim/world.h"
#include "src/workloads/runner.h"

namespace erebor {

struct LmbenchResult {
  std::string name;
  uint64_t operations = 0;
  Cycles total_cycles = 0;
  uint64_t emc_count = 0;
  // Trace-measured EMC gate entries over the same window (0 when the global tracer is
  // disabled; must equal emc_count when it is enabled).
  uint64_t trace_emc_enter = 0;
  double cycles_per_op() const {
    return operations == 0 ? 0 : static_cast<double>(total_cycles) / operations;
  }
  double emc_per_sec() const {
    return total_cycles == 0 ? 0 : emc_count * 2.1e9 / total_cycles;
  }
};

// The Figure 8 benchmark set.
std::vector<std::string> LmbenchNames();

// How the kernel under test submits MMU updates to the monitor (the section 9.1
// ablation axis). kPerOp is the paper's measured configuration: one EMC gate
// crossing per PTE store. kRing routes the MMU-heavy kernel paths through the
// submission/completion rings — descriptors staged in shared memory, one
// doorbell crossing per drained window.
enum class MmuUpdateMode { kPerOp, kRing };

// Runs one named benchmark (`null`, `read`, `write`, `stat`, `sig`, `fork`, `mmap`,
// `pagefault`) in the given world-mode for `iterations` operations.
// options.num_cpus sizes the machine (Figure 8 is a single-core measurement, so
// the default stays 1 vCPU via SingleCpuRunnerOptions).
StatusOr<LmbenchResult> RunLmbench(const std::string& name, SimMode mode,
                                   uint64_t iterations = 2000,
                                   MmuUpdateMode mmu = MmuUpdateMode::kPerOp,
                                   const RunnerOptions& options = SingleCpuRunnerOptions());

}  // namespace erebor

#endif  // EREBOR_SRC_WORKLOADS_LMBENCH_H_
