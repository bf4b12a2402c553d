// rpc_steady: long-lived attested sessions in a closed loop.
//
// Eight RemoteClients, each with its own echo-transform sandbox (fixed 20k-cycle
// compute per request) on a 2-vCPU kEreborFull World. Handshakes happen in setup,
// so the timed work is the record path: client seal, proxy batch ingest, monitor
// open + shepherd copy-in, the service, seal + fetch, client open. Each client
// sends its next record one network round trip after its previous reply opens;
// there is no round barrier. Three requests in four carry 1 KiB and a seeded one
// in four 32 KiB, so p50 follows the per-record cost and p99 the per-byte cost.
#include <algorithm>

#include "perfbench/harness.h"
#include "src/common/rng.h"

namespace perfbench {
namespace {

using namespace erebor;

constexpr int kSessions = 8;
constexpr int kVcpus = 2;
constexpr Cycles kServiceCycles = 20'000;
constexpr size_t kSmallBytes = 1024;
constexpr size_t kLargeBytes = 32 * 1024;
constexpr size_t kSmallPayloads = 256;
constexpr size_t kLargePayloads = 64;
// Requests in the deterministic window (simulated metrics and counters).
constexpr uint64_t kWindowOps = 16384;
// Scheduler slices per RunUntil call before the driver checks for timeouts.
constexpr uint64_t kSliceBudget = 50'000;
// Simulated delay between a reply reaching a client and its next request
// reaching the host: the network round trip of a same-datacenter client
// (100 us at 2.1 GHz). With zero delay the loop saturates the proxy's
// one-result-per-slice fetch and its sandbox-id-ordered scan serves only the two
// lowest-id sessions; see NOTES.md.
constexpr Cycles kClientRttCycles = 210'000;
// Simulated time a request may stay unanswered before the client retransmits:
// ~100x the slowest request seen in sizing.
constexpr Cycles kTimeoutCycles = 200'000'000;

class RpcSteady : public Workload {
 public:
  explicit RpcSteady(const RunConfig& config) : config_(config) {}

  Status Setup() override;
  void Window(Outcome& out) override;
  void Timed(double seconds, SpanLog& spans, Outcome& out) override;
  uint64_t trace_block_ops() const override { return 1024; }
  const char* op_span_name() const override { return "rpc.request"; }
  double tail_quantile() const override { return 0.99; }

 private:
  struct Session {
    std::unique_ptr<RemoteClient> client;
    Sandbox* sandbox = nullptr;
    Task* task = nullptr;
    std::unique_ptr<SplitMix64> draws;
    bool busy = false;      // a request is in flight
    bool thinking = false;  // reply in; the next request is due at `due`
    bool dead = false;
    Cycles due = 0;
    uint64_t completed = 0;
    // In-flight request.
    uint64_t op = 0;
    size_t payload = 0;
    int64_t host_start = 0;
    int64_t host_sent = 0;
    Cycles sim_sent = 0;
    Cycles sim_deadline = 0;
    int root = -1;
  };
  struct Arrival {
    Bytes wire;
    int64_t host_ns = 0;
    Cycles sim = 0;
  };
  struct LoopResult {
    uint64_t completed = 0;
    uint64_t failed = 0;
  };

  // Runs the closed loop until `target_ops` requests completed (or failed) or the
  // host clock passes `deadline_ns`, then stops issuing and drains what is in
  // flight. `on_done(ms, sim_cycles)` sees each finished request; failed ones
  // report kFailed.
  template <typename OnDone>
  LoopResult Loop(uint64_t target_ops, int64_t deadline_ns, SpanLog& spans, Outcome& out,
                  const OnDone& on_done);
  void Send(Session& s, SpanLog& spans);
  void DrainNetwork();
  Session* SessionFor(int sandbox_id);
  void FailRequest(Session& s, const char* cause, Outcome& out);

  RunConfig config_;
  std::unique_ptr<World> world_;
  std::vector<Session> sessions_;
  std::vector<Bytes> payloads_;
  std::vector<Bytes> expected_;
  std::vector<Arrival> inbox_;
  uint64_t next_op_ = 0;
  uint64_t bytes_sealed_ = 0;
  uint64_t wires_sent_ = 0;
  uint64_t wires_received_ = 0;
};

Status RpcSteady::Setup() {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.isolation = IsolationKind::kPks;
  config.exec = ExecMode::kDeterministic;
  config.machine.num_cpus = kVcpus;
  world_ = std::make_unique<World>(config);
  EREBOR_RETURN_IF_ERROR(world_->Boot());
  EREBOR_RETURN_IF_ERROR(world_->StartProxy());

  // Seeded payload pool: the program only ever sees these bytes.
  Rng bytes(DeriveSeed(config_.seed, 1));
  for (size_t i = 0; i < kSmallPayloads + kLargePayloads; ++i) {
    Bytes payload(i < kSmallPayloads ? kSmallBytes : kLargeBytes);
    bytes.Fill(payload.data(), payload.size());
    expected_.push_back(Transform(payload));
    payloads_.push_back(std::move(payload));
  }

  auto ready = std::make_shared<int>(0);
  sessions_.resize(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    Session& s = sessions_[static_cast<size_t>(i)];
    const std::string name = "rpc-" + std::to_string(i);
    auto env = std::make_shared<LibosEnv>(LibosManifest{.name = name, .heap_bytes = 1 << 20},
                                          LibosBackend::kSandboxed);
    SandboxSpec spec;
    spec.name = name;
    EREBOR_ASSIGN_OR_RETURN(
        s.sandbox, world_->LaunchSandboxProcess(
                       name, spec, EchoService(env, nullptr, ready, kServiceCycles), &s.task));
    s.client = std::make_unique<RemoteClient>(world_->MakeTrustAnchors(),
                                              DeriveSeed(config_.seed, 100 + i));
    s.draws = std::make_unique<SplitMix64>(DeriveSeed(config_.seed, 200 + i));
  }
  EREBOR_RETURN_IF_ERROR(world_->RunUntil([&] { return *ready == kSessions; }));

  // Attested handshakes, all eight in flight at once.
  for (Session& s : sessions_) {
    world_->ClientSend(s.client->MakeHello(s.sandbox->id));
  }
  int established = 0;
  EREBOR_RETURN_IF_ERROR(world_->RunUntil([&] {
    for (auto wire = world_->ClientReceive(); wire.ok(); wire = world_->ClientReceive()) {
      auto packet = Packet::Deserialize(*wire);
      Session* s = packet.ok() && packet->type == PacketType::kServerHello
                       ? SessionFor(packet->sandbox_id)
                       : nullptr;
      if (s != nullptr && !s->client->established() &&
          s->client->ProcessServerHello(*wire).ok()) {
        ++established;
      }
    }
    return established == kSessions;
  }));
  return OkStatus();
}

RpcSteady::Session* RpcSteady::SessionFor(int sandbox_id) {
  for (Session& s : sessions_) {
    if (s.sandbox->id == sandbox_id) {
      return &s;
    }
  }
  return nullptr;
}

void RpcSteady::Send(Session& s, SpanLog& spans) {
  const uint64_t draw = s.draws->Next();
  s.payload = draw % 4 == 0 ? kSmallPayloads + (draw >> 8) % kLargePayloads
                            : (draw >> 8) % kSmallPayloads;
  s.op = ++next_op_;
  s.busy = true;
  const Cycles sim = SimNow(*world_);
  s.host_start = HostNs();
  const Bytes wire = s.client->SealData(payloads_[s.payload]);
  s.host_sent = HostNs();
  world_->ClientSend(wire);
  s.sim_sent = sim;
  s.sim_deadline = sim + kTimeoutCycles;
  s.root = spans.Add("rpc.request", s.op, -1, s.host_start, 0, sim, 0);
  if (s.root >= 0) {
    spans.Add("client.seal", s.op, s.root, s.host_start, s.host_sent, sim, sim);
  }
  bytes_sealed_ += payloads_[s.payload].size();
  ++wires_sent_;
}

void RpcSteady::DrainNetwork() {
  for (auto wire = world_->ClientReceive(); wire.ok(); wire = world_->ClientReceive()) {
    inbox_.push_back(Arrival{std::move(*wire), HostNs(), SimNow(*world_)});
  }
}

void RpcSteady::FailRequest(Session& s, const char* cause, Outcome& out) {
  ++out.failures[cause];
  s.busy = false;
  s.dead = true;
}

template <typename OnDone>
RpcSteady::LoopResult RpcSteady::Loop(uint64_t target_ops, int64_t deadline_ns,
                                      SpanLog& spans, Outcome& out, const OnDone& on_done) {
  LoopResult result;
  bool issuing = true;
  const auto finished = [&] { return result.completed + result.failed; };
  for (Session& s : sessions_) {
    s.thinking = !s.dead;
    s.due = 0;
  }
  while (true) {
    if (issuing && (finished() >= target_ops || HostNs() >= deadline_ns)) {
      issuing = false;
    }
    const Cycles now = SimNow(*world_);
    Cycles next_due = std::numeric_limits<Cycles>::max();
    bool any_busy = false;
    for (Session& s : sessions_) {
      if (s.thinking && (!issuing || now >= s.due)) {
        s.thinking = false;
        if (issuing) {
          Send(s, spans);
        }
      }
      if (s.thinking) {
        next_due = std::min(next_due, s.due);
      }
      any_busy |= s.busy || s.thinking;
    }
    if (!any_busy) {
      break;
    }
    inbox_.clear();
    const int64_t run_start = HostNs();
    const Cycles sim_start = SimNow(*world_);
    const Status ran = world_->RunUntil(
        [&] {
          DrainNetwork();
          return !inbox_.empty() || SimNow(*world_) >= next_due;
        },
        kSliceBudget);
    spans.Add("cvm.run", 0, -1, run_start, HostNs(), sim_start, SimNow(*world_));
    (void)ran;  // an exhausted slice budget surfaces as timeouts below

    for (Arrival& arrival : inbox_) {
      ++wires_received_;
      auto view = ParseRecordWire(arrival.wire);
      Session* s = view.ok() && view->type == PacketType::kResultRecord
                       ? SessionFor(view->sandbox_id)
                       : nullptr;
      if (s == nullptr) {
        out.Fail("unexpected wire packet from the CVM");
        continue;
      }
      const int64_t open_start = HostNs();
      auto opened = s->client->OpenResult(arrival.wire);
      const int64_t open_end = HostNs();
      if (!opened.ok()) {
        if (opened.status().code() != ErrorCode::kAlreadyExists) {
          out.Fail("result failed to open: " + opened.status().ToString());
        }
        continue;  // a retransmitted copy of an answered record
      }
      if (!s->busy) {
        out.Fail("a result opened for a session with nothing in flight");
        continue;
      }
      if (*opened != expected_[s->payload]) {
        out.Fail("reply differs from the expected transform");
      }
      if (s->root >= 0) {
        spans.Add("cvm.request", s->op, s->root, s->host_sent, arrival.host_ns, s->sim_sent,
                  arrival.sim);
        // The reply waits while the one host thread serves other clients' replies.
        spans.Add("client.wait", s->op, s->root, arrival.host_ns, open_start, arrival.sim,
                  arrival.sim);
        spans.Add("client.open", s->op, s->root, open_start, open_end, arrival.sim,
                  arrival.sim);
        spans.Close(s->root, arrival.sim, open_end);
      }
      s->busy = false;
      s->thinking = true;
      s->due = arrival.sim + kClientRttCycles;
      ++s->completed;
      ++result.completed;
      on_done((open_end - s->host_start) / 1e6, static_cast<double>(arrival.sim - s->sim_sent));
      spans.OpFinished();
    }

    // Timeouts, retransmission and dead sandboxes.
    const Cycles after = SimNow(*world_);
    for (Session& s : sessions_) {
      if (!s.busy) {
        continue;
      }
      if (s.sandbox->state == SandboxState::kQuarantined ||
          s.task->state == TaskState::kExited) {
        FailRequest(s, "killed", out);
      } else if (after >= s.sim_deadline) {
        if (s.client->retry_budget_exhausted()) {
          FailRequest(s, "retry_exhausted", out);
        } else {
          ++out.failures["timeouts"];
          world_->ClientSend(s.client->ResendData());
          ++wires_sent_;
          s.sim_deadline = after + kTimeoutCycles;
          continue;
        }
      } else {
        continue;
      }
      ++result.failed;
      on_done(kFailed, kFailed);
      spans.OpFinished();
    }
  }
  return result;
}

void RpcSteady::Window(Outcome& out) {
  SpanLog off;
  const MonitorCounters before = world_->monitor()->counters();
  const KernelStats kernel_before = world_->kernel().stats();
  const CounterSnapshot snap = CounterSnapshot::Take();
  const uint64_t bytes_before = bytes_sealed_;
  const uint64_t sent_before = wires_sent_;
  const uint64_t received_before = wires_received_;
  uint64_t retries_before = 0;
  for (const Session& s : sessions_) {
    retries_before += s.client->retries();
  }
  const Cycles sim_start = SimNow(*world_);
  const LoopResult result =
      Loop(kWindowOps, std::numeric_limits<int64_t>::max(), off, out,
           [&](double, double sim_cycles) { out.sim_op_cycles.push_back(sim_cycles); });
  const Cycles sim_end = SimNow(*world_);

  out.window_ops = result.completed + result.failed;
  out.attempted += out.window_ops;
  out.failed += result.failed;
  out.sim_window_cycles = static_cast<double>(sim_end - sim_start);
  out.counters = CounterSnapshot::Take().Minus(snap);
  const MonitorCounters& after = world_->monitor()->counters();
  const KernelStats& kernel_after = world_->kernel().stats();
  const double ops = static_cast<double>(std::max<uint64_t>(out.window_ops, 1));
  uint64_t retries = 0;
  for (const Session& s : sessions_) {
    retries += s.client->retries();
  }
  out.extra["client.bytes_sealed"] = static_cast<double>(bytes_sealed_ - bytes_before) / ops;
  out.extra["client.retries"] = static_cast<double>(retries - retries_before) / ops;
  out.extra["cvm.packets_in"] = static_cast<double>(wires_sent_ - sent_before) / ops;
  out.extra["cvm.packets_out"] = static_cast<double>(wires_received_ - received_before) / ops;
  uint64_t fewest = std::numeric_limits<uint64_t>::max();
  uint64_t total = 0;
  for (const Session& s : sessions_) {
    fewest = std::min(fewest, s.completed);
    total += s.completed;
  }
  out.extra["cvm.session_share_min"] =
      total == 0 ? 0 : static_cast<double>(fewest * kSessions) / static_cast<double>(total);
  out.extra["kernel.pool_frames_in_use"] =
      static_cast<double>(world_->kernel().pool().used());
  if (Tracer::Global().enabled() &&
      out.counters.values["monitor.emc_total"] !=
          static_cast<double>(after.emc_total - before.emc_total)) {
    out.Fail("traced EMC gate entries differ from the monitor's emc_total");
  }

  for (const double cycles : out.sim_op_cycles) {
    out.fingerprint.Add(static_cast<uint64_t>(cycles));
  }
  for (const uint64_t value :
       {after.emc_total - before.emc_total, after.emc_pte - before.emc_pte,
        after.emc_usercopy - before.emc_usercopy, after.emc_tdcall - before.emc_tdcall,
        after.emc_sandbox - before.emc_sandbox, after.emc_ring - before.emc_ring,
        kernel_after.syscalls - kernel_before.syscalls,
        kernel_after.page_faults - kernel_before.page_faults,
        kernel_after.context_switches - kernel_before.context_switches,
        static_cast<uint64_t>(sim_end - sim_start), world_->kernel().pool().used()}) {
    out.fingerprint.Add(value);
  }
}

void RpcSteady::Timed(double seconds, SpanLog& spans, Outcome& out) {
  const int64_t start = HostNs();
  const LoopResult result =
      Loop(std::numeric_limits<uint64_t>::max(), start + static_cast<int64_t>(seconds * 1e9),
           spans, out, [&](double ms, double) { out.host_op_ms.push_back(ms); });
  out.timed_seconds = (HostNs() - start) / 1e9;
  out.timed_ops = result.completed;
  out.attempted += result.completed + result.failed;
  out.failed += result.failed;
}

}  // namespace

std::unique_ptr<Workload> MakeRpcSteady(const RunConfig& config) {
  return std::make_unique<RpcSteady>(config);
}

}  // namespace perfbench
