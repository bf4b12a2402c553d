// Ablation for the MMU-update submission machinery on the MMU-heavy LMBench
// benchmarks (fork/mmap/pagefault — Fig8's worst bars):
//
//   per-op   one EMC gate crossing per PTE store (the paper's measured config)
//   ring     submission/completion rings (section 9.1's batched MMU updates):
//            descriptors staged in shared memory, one doorbell crossing per
//            drained window, demand faults served with a fault-around window
//
// Also runs a ring-vs-oracle burst: the same multi-vCPU ring workload on the
// real-thread engine and the deterministic engine must agree bit-for-bit on
// monitor counters and per-vCPU charged cycles (set EREBOR_EXEC=deterministic
// to skip the threaded half).
//
// Iterations come from EREBOR_BENCH_ITERS (default 500). With
// EREBOR_BENCH_JSON set, per-bench cycles/op for native, per-op and ring land
// in BENCH_batched_mmu.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/kernel/mmu_ring.h"
#include "src/sim/world.h"
#include "src/workloads/lmbench.h"

using namespace erebor;

namespace {

uint64_t IterationsFromEnv() {
  const char* env = std::getenv("EREBOR_BENCH_ITERS");
  if (env == nullptr) {
    return 500;
  }
  const long parsed = std::strtol(env, nullptr, 10);
  return parsed > 0 ? static_cast<uint64_t>(parsed) : 500;
}

// ---- Ring oracle burst ----------------------------------------------------
//
// Drives the rings directly (frame-reclaim descriptors against disjoint
// per-vCPU frame ranges) from every vCPU at once. Under kRealThreads the
// doorbells contend on real locks; under kDeterministic the same burst is the
// oracle. Both must agree on every simulated observable.
struct RingOracleCell {
  MonitorCounters counters{};
  std::vector<uint64_t> cpu_cycles;
};

constexpr int kOracleVcpus = 4;
constexpr int kOracleRounds = 32;
constexpr int kOracleReclaimsPerRound = 24;

bool RunRingOracleCell(ExecMode exec, RingOracleCell* out) {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.exec = exec;
  config.machine.num_cpus = kOracleVcpus;
  config.machine.memory_frames = 32 * 1024;
  World world(config);
  if (!world.Boot().ok()) {
    std::printf("batched_mmu: oracle boot failed (%s)\n", ExecModeName(exec));
    return false;
  }
  EreborMonitor* monitor = world.monitor();
  monitor->EnableMmuRings(true);
  monitor->SetEmcLocking(EmcLocking::kSharded);
  monitor->SetLockContention(false);
  LockAudit::Global().Reset();

  Machine& machine = world.machine();
  // Reclaim targets: untouched normal frames at the top of memory, disjoint
  // per vCPU so the sharded frame locks actually run in parallel.
  const uint64_t frames = machine.memory().num_frames();
  const uint64_t base = frames - kOracleVcpus * kOracleReclaimsPerRound - 16;

  std::vector<Cycles> start(kOracleVcpus);
  for (int c = 0; c < kOracleVcpus; ++c) {
    start[c] = machine.cpu(c).cycles().now();
  }
  const Status st = world.RunOnThreads([&](int cpu) -> Status {
    EmcRing* ring = world.privops().mmu_ring(cpu);
    if (ring == nullptr) {
      return InternalError("ring not enabled for vCPU");
    }
    for (int round = 0; round < kOracleRounds; ++round) {
      MmuRingBatch batch(ring);
      for (int i = 0; i < kOracleReclaimsPerRound; ++i) {
        if (!batch.StageFrameReclaim(base + cpu * kOracleReclaimsPerRound + i)) {
          return InternalError("oracle burst overflowed the SQ");
        }
      }
      batch.Publish();
      EREBOR_RETURN_IF_ERROR(world.privops().RingDoorbell(machine.cpu(cpu)));
      int32_t first_error = 0;
      batch.Reap(&first_error);
      if (first_error != 0) {
        return InternalError("oracle burst descriptor refused");
      }
    }
    return OkStatus();
  });
  if (!st.ok()) {
    std::printf("batched_mmu: oracle burst failed (%s): %s\n", ExecModeName(exec),
                st.ToString().c_str());
    return false;
  }
  if (LockAudit::Global().violations() != 0 || !monitor->AuditInvariants().ok()) {
    std::printf("batched_mmu: lock/invariant audit failed (%s)\n",
                ExecModeName(exec));
    return false;
  }
  out->counters = monitor->counters();
  out->cpu_cycles.clear();
  for (int c = 0; c < kOracleVcpus; ++c) {
    out->cpu_cycles.push_back(
        static_cast<uint64_t>(machine.cpu(c).cycles().now() - start[c]));
  }
  return true;
}

}  // namespace

int main() {
  const uint64_t iterations = IterationsFromEnv();
  std::printf("=== Ring MMU updates ablation (%llu iterations) ===\n",
              static_cast<unsigned long long>(iterations));
  std::printf("%-10s %13s %13s %13s %9s\n", "bench", "native c/op", "per-op c/op",
              "ring c/op", "rec.ring");

  Json benches = Json::Array();
  bool ok = true;
  bool ring_majority = true;
  for (const std::string name : {"fork", "mmap", "pagefault"}) {
    const auto native = RunLmbench(name, SimMode::kNative, iterations);
    const auto plain =
        RunLmbench(name, SimMode::kEreborFull, iterations, MmuUpdateMode::kPerOp);
    const auto ring =
        RunLmbench(name, SimMode::kEreborFull, iterations, MmuUpdateMode::kRing);
    if (!native.ok() || !plain.ok() || !ring.ok()) {
      std::printf("%-10s FAILED\n", name.c_str());
      ok = false;
      continue;
    }
    // Fraction of the Erebor-added cost the ring recovers.
    const double added = plain->cycles_per_op() - native->cycles_per_op();
    const double rec_ring =
        added > 0 ? (plain->cycles_per_op() - ring->cycles_per_op()) / added : 0;
    std::printf("%-10s %13.0f %13.0f %13.0f %8.0f%%\n", name.c_str(),
                native->cycles_per_op(), plain->cycles_per_op(), ring->cycles_per_op(),
                100 * rec_ring);
    if (rec_ring < 0.5) {
      std::printf("%-10s FAIL: ring recovers %.0f%% of the added cost (target > 50%%)\n",
                  name.c_str(), 100 * rec_ring);
      ring_majority = false;
    }
    benches.Push(Json::Object()
                     .Set("name", name)
                     .Set("native_cyc_per_op", native->cycles_per_op())
                     .Set("per_op_cyc_per_op", plain->cycles_per_op())
                     .Set("ring_cyc_per_op", ring->cycles_per_op())
                     .Set("per_op_emc", plain->emc_count)
                     .Set("ring_emc", ring->emc_count)
                     .Set("recovered_ring", rec_ring));
  }
  ok = ok && ring_majority;

  // ---- Ring oracle: threaded vs deterministic ----
  bool oracle_match = true;
  bool oracle_ran = false;
  const char* exec_env = std::getenv("EREBOR_EXEC");
  if (exec_env == nullptr || std::string(exec_env) != "deterministic") {
    RingOracleCell threaded, oracle;
    if (!RunRingOracleCell(ExecMode::kRealThreads, &threaded) ||
        !RunRingOracleCell(ExecMode::kDeterministic, &oracle)) {
      ok = false;
    } else {
      oracle_ran = true;
      oracle_match =
          threaded.cpu_cycles == oracle.cpu_cycles &&
          std::memcmp(&threaded.counters, &oracle.counters,
                      sizeof(MonitorCounters)) == 0;
      std::printf("\nring oracle (%d vCPUs, %d doorbells/vCPU): %s\n", kOracleVcpus,
                  kOracleRounds, oracle_match ? "threaded == deterministic"
                                              : "MISMATCH");
      if (!oracle_match) {
        std::printf("  emc_total threaded=%llu oracle=%llu\n",
                    static_cast<unsigned long long>(threaded.counters.emc_total),
                    static_cast<unsigned long long>(oracle.counters.emc_total));
        ok = false;
      }
    }
  } else {
    std::printf("\nEREBOR_EXEC=deterministic: skipping threaded ring oracle\n");
  }

  std::printf("\nNote: fork clones a 32-page image; the ring path stages the whole "
              "clone as one submission window and crosses the EMC gate once per "
              "doorbell, while fault-around serves neighbouring demand faults "
              "without further #PFs.\n");

  Json root = Json::Object();
  root.Set("bench", "batched_mmu")
      .Set("iterations", iterations)
      .Set("benches", std::move(benches))
      .Set("ring_majority_recovery", ring_majority)
      .Set("ring_oracle_ran", oracle_ran)
      .Set("ring_oracle_match", oracle_match)
      .Set("pass", ok);
  std::string path;
  if (WriteBenchJson("batched_mmu", root, &path)) {
    std::printf("batched_mmu: JSON written to %s\n", path.c_str());
  }
  return ok ? 0 : 1;
}
