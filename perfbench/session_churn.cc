// session_churn: one client, one sandbox, one use.
//
// Setup boots a 2-vCPU kEreborFull World and freezes one template sandbox. Each
// session then clones the template, activates the clone, runs a fresh attested
// handshake, sends one verified 4 KiB record, sends Fin, tears the sandbox down
// and runs the scheduler until the clone's task has exited and been reaped. The
// cost is almost all handshake (bignum DH, quote sign/verify, tdcall) plus clone
// lifecycle, with little AEAD or page walking.
#include <functional>

#include "perfbench/harness.h"
#include "src/common/rng.h"

namespace perfbench {
namespace {

using namespace erebor;

constexpr int kVcpus = 2;
constexpr size_t kPayloadBytes = 4096;
constexpr size_t kPayloads = 64;
constexpr Cycles kServiceCycles = 20'000;
constexpr uint64_t kHeapBytes = 1 << 20;
// Sessions in the deterministic window (simulated metrics and counters).
constexpr uint64_t kWindowOps = 16;
// Scheduler slices one wait may take before the client retransmits.
constexpr uint64_t kSliceBudget = 400'000;

class SessionChurn : public Workload {
 public:
  explicit SessionChurn(const RunConfig& config) : config_(config) {}

  Status Setup() override;
  void Window(Outcome& out) override;
  void Timed(double seconds, SpanLog& spans, Outcome& out) override;
  uint64_t trace_block_ops() const override { return 8; }
  const char* op_span_name() const override { return "churn.session"; }
  double tail_quantile() const override { return 0.90; }

 private:
  // Runs session `index`; returns false if it failed (cause counted in `out`).
  bool RunSession(uint64_t index, SpanLog& spans, Outcome& out, double* host_ms,
                  Cycles* sim_cycles);
  // Pumps the World until `done`, retransmitting with `resend` each time a wait
  // runs out of slices, until the client's retry budget is spent.
  bool Await(RemoteClient& client, Sandbox& sandbox, const std::function<bool()>& done,
             const std::function<Bytes()>& resend, Outcome& out);

  RunConfig config_;
  std::unique_ptr<World> world_;
  Sandbox* template_ = nullptr;
  std::shared_ptr<LibosEnv> template_env_;
  std::vector<Bytes> payloads_;
  uint64_t frames_retained_ = 0;
};

Status SessionChurn::Setup() {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.isolation = IsolationKind::kPks;
  config.exec = ExecMode::kDeterministic;
  config.machine.num_cpus = kVcpus;
  world_ = std::make_unique<World>(config);
  EREBOR_RETURN_IF_ERROR(world_->Boot());
  EREBOR_RETURN_IF_ERROR(world_->StartProxy());

  Rng bytes(DeriveSeed(config_.seed, 2));
  for (size_t i = 0; i < kPayloads; ++i) {
    Bytes payload(kPayloadBytes);
    bytes.Fill(payload.data(), payload.size());
    payloads_.push_back(std::move(payload));
  }

  // The template initializes its LibOS once and parks; after the freeze its
  // pages are read-only template frames, so it must not touch them again.
  template_env_ = std::make_shared<LibosEnv>(
      LibosManifest{.name = "churn-template", .heap_bytes = kHeapBytes},
      LibosBackend::kSandboxed);
  auto env = template_env_;
  auto up = std::make_shared<bool>(false);
  SandboxSpec spec;
  spec.name = "churn-template";
  EREBOR_ASSIGN_OR_RETURN(
      template_, world_->LaunchSandboxProcess(
                     spec.name, spec, [env, up](SyscallContext& ctx) -> StepOutcome {
                       if (*up) {
                         return StepOutcome::kYield;
                       }
                       if (!env->Initialize(ctx).ok()) {
                         return StepOutcome::kExited;
                       }
                       *up = true;
                       return StepOutcome::kYield;
                     }));
  EREBOR_RETURN_IF_ERROR(world_->RunUntil([&] { return *up; }));
  return world_->monitor()->SnapshotTemplate(world_->machine().cpu(0), *template_);
}

bool SessionChurn::Await(RemoteClient& client, Sandbox& sandbox,
                         const std::function<bool()>& done,
                         const std::function<Bytes()>& resend, Outcome& out) {
  while (true) {
    if (world_->RunUntil(done, kSliceBudget).ok() && done()) {
      return true;
    }
    if (sandbox.state == SandboxState::kQuarantined) {
      ++out.failures["killed"];
      return false;
    }
    if (client.retry_budget_exhausted()) {
      ++out.failures["retry_exhausted"];
      return false;
    }
    ++out.failures["timeouts"];
    world_->ClientSend(resend());
  }
}

bool SessionChurn::RunSession(uint64_t index, SpanLog& spans, Outcome& out, double* host_ms,
                              Cycles* sim_cycles) {
  World& world = *world_;
  Cpu& cpu0 = world.machine().cpu(0);
  const uint64_t op = index + 1;
  const Cycles sim_start = SimNow(world);
  const int64_t host_start = HostNs();
  const uint64_t frames_before = world.kernel().pool().used();
  const int root = spans.Open("churn.session", op, -1, sim_start);
  // Times one step of the session as a child span.
  const auto step = [&](const char* name, const auto& body) {
    const int span = spans.Open(name, op, root, SimNow(world));
    const auto result = body();
    spans.Close(span, SimNow(world));
    return result;
  };
  const auto finish = [&](bool ok) {
    spans.Close(root, SimNow(world));
    *sim_cycles = SimNow(world) - sim_start;
    *host_ms = (HostNs() - host_start) / 1e6;
    return ok;
  };

  const std::string name = "churn-" + std::to_string(index);
  SandboxSpec spec;
  spec.name = name;
  auto env = std::make_shared<LibosEnv>(LibosManifest{.name = name, .heap_bytes = kHeapBytes},
                                        LibosBackend::kSandboxed);
  auto ready = std::make_shared<int>(0);
  Task* task = nullptr;
  const StatusOr<Sandbox*> launched = step("sandbox.clone", [&] {
    return world.LaunchCloneProcess(
        name, *template_, spec, EchoService(env, template_env_, ready, kServiceCycles), &task);
  });
  if (!launched.ok()) {
    ++out.failures[launched.status().code() == ErrorCode::kResourceExhausted
                       ? "pool_exhausted"
                       : "launch"];
    return finish(false);
  }
  Sandbox& sandbox = **launched;
  // A failed session still releases its sandbox, so its domain and frames do not
  // starve the sessions after it.
  const auto abandon = [&] {
    (void)world.monitor()->TeardownSandbox(cpu0, sandbox);
    return finish(false);
  };
  if (!step("sandbox.activate", [&] { return world.monitor()->ActivateClone(cpu0, sandbox); })
           .ok()) {
    ++out.failures["launch"];
    return abandon();
  }

  RemoteClient client(world.MakeTrustAnchors(), DeriveSeed(config_.seed, 1000 + index));
  world.ClientSend(step("client.hello", [&] { return client.MakeHello(sandbox.id); }));
  Bytes server_hello;
  Bytes result_wire;
  const auto drain = [&] {
    for (auto wire = world.ClientReceive(); wire.ok(); wire = world.ClientReceive()) {
      auto packet = Packet::Deserialize(*wire);
      if (packet.ok() && packet->type == PacketType::kServerHello) {
        server_hello = std::move(*wire);
      } else if (packet.ok() && packet->type == PacketType::kResultRecord) {
        result_wire = std::move(*wire);
      } else {
        out.Fail("unexpected wire packet from the CVM");
      }
    }
  };
  if (!step("cvm.handshake", [&] {
        return Await(
            client, sandbox,
            [&] {
              drain();
              return !server_hello.empty();
            },
            [&] { return client.ResendHello(); }, out);
      })) {
    return abandon();
  }
  const Status verified =
      step("client.server_hello", [&] { return client.ProcessServerHello(server_hello); });
  if (!verified.ok()) {
    out.Fail("server hello failed verification: " + verified.ToString());
    return abandon();
  }

  const Bytes& payload = payloads_[DeriveSeed(config_.seed, 3000 + index) % kPayloads];
  world.ClientSend(step("client.seal", [&] { return client.SealData(payload); }));
  if (!step("cvm.request", [&] {
        return Await(
            client, sandbox,
            [&] {
              drain();
              return !result_wire.empty();
            },
            [&] { return client.ResendData(); }, out);
      })) {
    return abandon();
  }
  const StatusOr<Bytes> opened =
      step("client.open", [&] { return client.OpenResult(result_wire); });
  if (!opened.ok() || *opened != Transform(payload)) {
    out.Fail("session reply did not open to the expected transform");
  }
  world.ClientSend(step("client.fin", [&] { return client.MakeFin(); }));

  const Status torn =
      step("sandbox.teardown", [&] { return world.monitor()->TeardownSandbox(cpu0, sandbox); });
  const Status reaped = step("sandbox.reap", [&] {
    return world.RunUntil([&] { return task->state == TaskState::kExited; }, kSliceBudget);
  });
  if (!torn.ok() || !reaped.ok() || sandbox.state != SandboxState::kTornDown ||
      task->state != TaskState::kExited) {
    out.Fail("session " + std::to_string(index) + " did not end torn down and reaped");
  }
  frames_retained_ += world.kernel().pool().used() - frames_before;
  return finish(true);
}

void SessionChurn::Window(Outcome& out) {
  SpanLog off;
  const MonitorCounters before = world_->monitor()->counters();
  const KernelStats kernel_before = world_->kernel().stats();
  const CounterSnapshot snap = CounterSnapshot::Take();
  const Cycles sim_start = SimNow(*world_);
  for (uint64_t i = 0; i < kWindowOps; ++i) {
    double host_ms = 0;
    Cycles sim = 0;
    const bool ok = RunSession(i, off, out, &host_ms, &sim);
    out.sim_op_cycles.push_back(ok ? static_cast<double>(sim) : kFailed);
    out.failed += ok ? 0 : 1;
    out.fingerprint.Add(sim);
  }
  const Cycles sim_end = SimNow(*world_);
  out.window_ops = kWindowOps;
  out.attempted += kWindowOps;
  out.sim_window_cycles = static_cast<double>(sim_end - sim_start);
  out.counters = CounterSnapshot::Take().Minus(snap);
  const MonitorCounters& after = world_->monitor()->counters();
  const KernelStats& kernel_after = world_->kernel().stats();
  out.extra["kernel.frames_retained_per_op"] =
      static_cast<double>(frames_retained_) / static_cast<double>(kWindowOps);
  out.extra["kernel.pool_frames_in_use"] =
      static_cast<double>(world_->kernel().pool().used());
  out.extra["cvm.packets_in"] = 3;  // hello, data record, fin
  out.extra["cvm.packets_out"] = 2;  // server hello, result record
  out.extra["client.bytes_sealed"] = kPayloadBytes;
  if (Tracer::Global().enabled() &&
      out.counters.values["monitor.emc_total"] !=
          static_cast<double>(after.emc_total - before.emc_total)) {
    out.Fail("traced EMC gate entries differ from the monitor's emc_total");
  }
  for (const uint64_t value :
       {after.emc_total - before.emc_total, after.emc_pte - before.emc_pte,
        after.emc_usercopy - before.emc_usercopy, after.emc_tdcall - before.emc_tdcall,
        after.emc_sandbox - before.emc_sandbox, kernel_after.syscalls - kernel_before.syscalls,
        kernel_after.page_faults - kernel_before.page_faults,
        kernel_after.context_switches - kernel_before.context_switches, frames_retained_,
        world_->kernel().pool().used()}) {
    out.fingerprint.Add(value);
  }
}

void SessionChurn::Timed(double seconds, SpanLog& spans, Outcome& out) {
  const int64_t start = HostNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  uint64_t index = kWindowOps;
  while (HostNs() < deadline) {
    double host_ms = 0;
    Cycles sim = 0;
    const bool ok = RunSession(index++, spans, out, &host_ms, &sim);
    out.host_op_ms.push_back(ok ? host_ms : kFailed);
    ++out.attempted;
    if (ok) {
      ++out.timed_ops;
    } else {
      ++out.failed;
    }
    spans.OpFinished();
  }
  out.timed_seconds = (HostNs() - start) / 1e9;
}

}  // namespace

std::unique_ptr<Workload> MakeSessionChurn(const RunConfig& config) {
  return std::make_unique<SessionChurn>(config);
}

}  // namespace perfbench
