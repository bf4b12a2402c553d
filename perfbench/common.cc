#include <algorithm>
#include <cmath>

#include "perfbench/harness.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/trace.h"
#include "src/hw/paging.h"
#include "src/hw/tlb.h"
#include "src/sim/world.h"

namespace perfbench {

uint64_t SimNow(erebor::World& world) {
  uint64_t now = 0;
  for (int cpu = 0; cpu < world.machine().num_cpus(); ++cpu) {
    now = std::max<uint64_t>(now, world.machine().cpu(cpu).cycles().now());
  }
  return now;
}

erebor::Bytes Transform(const erebor::Bytes& input) {
  erebor::Bytes out = input;
  for (uint8_t& byte : out) {
    byte ^= kTransformKey;
  }
  return out;
}

erebor::ProgramFn EchoService(std::shared_ptr<erebor::LibosEnv> env,
                              std::shared_ptr<erebor::LibosEnv> clone_of,
                              std::shared_ptr<int> ready, erebor::Cycles compute_cycles) {
  using erebor::StepOutcome;
  return [env, clone_of, ready, compute_cycles](erebor::SyscallContext& ctx) -> StepOutcome {
    if (!env->initialized()) {
      if (clone_of != nullptr) {
        env->AdoptTemplateState(*clone_of);
        if (!env->AttachClone(ctx).ok()) {
          return StepOutcome::kExited;
        }
      } else if (!env->Initialize(ctx).ok()) {
        return StepOutcome::kExited;
      }
      ++*ready;
      return StepOutcome::kYield;
    }
    auto input = env->RecvInput(ctx, 64 * 1024);
    if (!input.ok()) {
      return input.status().code() == erebor::ErrorCode::kUnavailable ? StepOutcome::kYield
                                                                       : StepOutcome::kExited;
    }
    const erebor::Bytes output = Transform(*input);
    ctx.Compute(compute_cycles);
    (void)env->SendOutput(ctx, output);
    return StepOutcome::kYield;
  };
}

void Fingerprint::Add(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xFF;
    hash_ *= 0x100000001B3ULL;
  }
}

void Fingerprint::AddBytes(const uint8_t* data, size_t len) {
  Add(len);
  for (size_t i = 0; i < len; ++i) {
    hash_ ^= data[i];
    hash_ *= 0x100000001B3ULL;
  }
}

CounterSnapshot CounterSnapshot::Take() {
  using erebor::TraceEvent;
  CounterSnapshot snap;
  auto& v = snap.values;
  const erebor::Tracer& tracer = erebor::Tracer::Global();
  if (tracer.enabled()) {
    const auto kinds = [&](std::initializer_list<TraceEvent> events) {
      double sum = 0;
      for (const TraceEvent event : events) {
        sum += static_cast<double>(tracer.CountKind(event));
      }
      return sum;
    };
    v["monitor.emc_total"] = kinds({TraceEvent::kEmcEnter});
    v["monitor.emc_pte"] = kinds({TraceEvent::kEmcPte, TraceEvent::kEmcPteBatch});
    v["monitor.emc_ptp"] = kinds({TraceEvent::kEmcPtpRegister});
    v["monitor.emc_cr"] = kinds({TraceEvent::kEmcCr});
    v["monitor.emc_msr"] = kinds({TraceEvent::kEmcMsr});
    v["monitor.emc_usercopy"] = kinds({TraceEvent::kEmcUserCopy});
    v["monitor.emc_tdcall"] = kinds({TraceEvent::kEmcTdcall});
    v["monitor.emc_sandbox"] = kinds({TraceEvent::kEmcSandboxOp});
    v["monitor.emc_channel"] = kinds({TraceEvent::kEmcChannelOp});
    v["monitor.emc_ring"] = kinds({TraceEvent::kEmcRingDoorbell});
    v["monitor.policy_denials"] = kinds({TraceEvent::kPolicyDenial});
    v["kernel.syscalls"] = kinds({TraceEvent::kSyscallEnter});
    v["kernel.page_faults"] = kinds({TraceEvent::kPageFault});
    v["kernel.context_switches"] = kinds({TraceEvent::kContextSwitch});
    v["kernel.interrupts"] = kinds({TraceEvent::kInterrupt});
    v["kernel.ve_exits"] = kinds({TraceEvent::kVeExit});
    v["tdx.vmcalls"] = kinds({TraceEvent::kTdxVmcall});
    v["channel.records_decrypted"] = kinds({TraceEvent::kChannelDecrypt});
    v["channel.records_encrypted"] = kinds({TraceEvent::kChannelEncrypt});
    v["tlb.shootdowns"] = kinds({TraceEvent::kTlbShootdown});
  }
  const erebor::Tlb::Stats& tlb = erebor::Tlb::GlobalStats();
  v["tlb.hits"] = static_cast<double>(tlb.hits + tlb.psc_hits);
  v["tlb.misses"] = static_cast<double>(tlb.misses);
  v["paging.walk_read64s"] = static_cast<double>(erebor::PageTableWalkReads());
  const erebor::MetricsRegistry& metrics = erebor::MetricsRegistry::Global();
  v["channel.rejects"] = static_cast<double>(metrics.Value("channel.rejects"));
  v["channel.retries"] = static_cast<double>(metrics.Value("channel.retries"));
  v["channel.duplicates"] = static_cast<double>(metrics.Value("channel.duplicates"));
  return snap;
}

CounterSnapshot CounterSnapshot::Minus(const CounterSnapshot& before) const {
  CounterSnapshot delta;
  for (const auto& [name, value] : values) {
    const auto it = before.values.find(name);
    delta.values[name] = value - (it == before.values.end() ? 0.0 : it->second);
  }
  return delta;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return kFailed;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  erebor::SplitMix64 mix(seed ^ (0xA0761D6478BD642FULL * (stream + 1)));
  return mix.Next();
}

}  // namespace perfbench
