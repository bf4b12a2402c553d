// Section 11's comparison against the Unikernel-per-client alternative (e.g.
// Gramine-TDX): Erebor serves N clients with N sandboxes inside ONE CVM and one shared
// copy of the provider's common data, while the Unikernel design dedicates a whole CVM
// (with a replicated model and per-CVM OS footprint) to each client.
#include <cstdio>

#include "src/libos/libos.h"
#include "src/sim/world.h"

using namespace erebor;

namespace {

// The monitor's TCB as measured by scripts/tcb_loc.sh over the source tree this
// binary was built from; -1 when the script cannot be run.
long MeasuredTcbLines() {
  FILE* pipe = popen("'" EREBOR_SOURCE_DIR "/scripts/tcb_loc.sh' 2>/dev/null", "r");
  if (pipe == nullptr) {
    return -1;
  }
  long lines = -1;
  if (std::fscanf(pipe, "%ld", &lines) != 1) {
    lines = -1;
  }
  pclose(pipe);
  return lines;
}

}  // namespace

int main() {
  std::printf("=== Erebor vs Unikernel-per-client (section 11) ===\n\n");

  // TCB comparison (paper: Erebor monitor <5k LoC vs 57k LoC Gramine-TDX kernel).
  std::printf("TCB: Erebor monitor delegates the OS to the untrusted kernel and only\n"
              "validates; a Unikernel must *be* the OS inside the TCB.\n");
  std::printf("  paper figures: Erebor monitor <5k LoC vs Gramine-TDX kernel 57k LoC\n");
  const long tcb_lines = MeasuredTcbLines();
  if (tcb_lines >= 0) {
    std::printf("  measured: src/monitor is %ld non-blank, non-comment lines\n\n",
                tcb_lines);
  } else {
    std::printf("  measured: scripts/tcb_loc.sh unavailable\n\n");
  }

  // Memory/tenancy comparison, measured on the simulation.
  const uint64_t model_bytes = 24ull << 20;
  const uint64_t confined_bytes = 3ull << 20;
  const uint64_t unikernel_base = 12ull << 20;  // per-CVM kernel+firmware footprint

  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  // The tenancy sweep launches more sandboxes than PKS's 11-domain budget.
  config.isolation = IsolationKind::kTmeMk;
  config.machine.memory_frames = 96 * 1024;
  World world(config);
  if (!world.Boot().ok()) {
    std::printf("boot failed\n");
    return 1;
  }
  auto region = world.monitor()->CreateCommonRegion("model", model_bytes);
  if (!region.ok()) {
    std::printf("region failed\n");
    return 1;
  }

  std::printf("%-8s %22s %24s %8s\n", "clients", "Erebor total (MB)",
              "Unikernel total (MB)", "ratio");
  for (const int n : {1, 4, 8, 16}) {
    // Erebor: launch n sandboxes sharing the model.
    uint64_t erebor_bytes = model_bytes;
    int launched = 0;
    for (int i = launched; i < n; ++i) {
      SandboxSpec spec;
      spec.name = "client" + std::to_string(n) + "_" + std::to_string(i);
      spec.confined_budget_bytes = confined_bytes + (1 << 20);
      auto env = std::make_shared<LibosEnv>(
          LibosManifest{.name = spec.name, .heap_bytes = confined_bytes},
          LibosBackend::kSandboxed);
      bool up = false;
      auto sandbox = world.LaunchSandboxProcess(
          spec.name, spec, [env, &up](SyscallContext& ctx) -> StepOutcome {
            if (!env->initialized()) {
              (void)env->Initialize(ctx);
              up = true;
            }
            return StepOutcome::kExited;
          });
      if (!sandbox.ok()) {
        std::printf("launch failed at %d: %s\n", i,
                    sandbox.status().ToString().c_str());
        return 1;
      }
      (void)world.monitor()->AttachCommon(world.machine().cpu(0), **sandbox,
                                          (*region)->id, kLibosCommonBase, false);
      (void)world.RunUntil([&] { return up; });
      erebor_bytes += (*sandbox)->confined_bytes;
    }
    // Unikernel: n CVMs, each with its own OS image + a full model replica + the
    // client working set.
    const uint64_t unikernel_bytes =
        static_cast<uint64_t>(n) * (unikernel_base + model_bytes + confined_bytes);
    std::printf("%-8d %22.1f %24.1f %7.1fx\n", n, erebor_bytes / 1048576.0,
                unikernel_bytes / 1048576.0,
                static_cast<double>(unikernel_bytes) / erebor_bytes);
  }
  std::printf("\npaper: a single host supports only ~64 concurrent CVMs; Erebor "
              "multiplexes many sandboxes per CVM with one shared instance\n");
  return 0;
}
