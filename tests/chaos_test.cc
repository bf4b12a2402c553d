// Chaos soak for the deterministic fault-injection engine (trust-boundary faults,
// invariant checking, graceful degradation):
//
//   1. Soak: >= 64 seeded randomized fault schedules, each driving a full client
//      session (hello -> attest -> install -> compute -> result -> fin) against a live
//      world. Every session must end *completed-with-retries* or *explicitly
//      quarantined* — never wedged — with zero invariant violations.
//   2. Determinism: the same (seed, schedule) pair replays bit-identically — the
//      fired-fault journals (site, hit, action) and their hashes match exactly.
//   3. Zero-cost-when-inactive: with the engine armed on a schedule that can never
//      fire, Figure 8 operation/cycle counts and a full channel session's cycle
//      totals are bit-identical to the disarmed baseline.
//   4. Containment: a sandbox quarantined by repeated shepherd faults does not take
//      the world down — a second sandbox completes a clean session alongside it.
#include <gtest/gtest.h>

#include "src/client/client.h"
#include "src/common/faultpoint.h"
#include "src/common/metrics.h"
#include "src/libos/libos.h"
#include "src/monitor/sim_lock.h"
#include "src/sim/world.h"
#include "src/workloads/lmbench.h"

namespace erebor {
namespace {

// A schedule whose only rule names a site that no probe ever visits: the engine is
// armed (every probe takes its Armed() branch) but can never fire.
FaultSchedule InertSchedule() {
  FaultSchedule schedule;
  schedule.rules.push_back(FaultRule{.site = "no.such.site"});
  return schedule;
}

// `armed_inert` arms the world's injector with InertSchedule() before boot.
std::unique_ptr<World> MakeChaosWorld(bool armed_inert = false) {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.machine.num_cpus = 2;
  auto world = std::make_unique<World>(config);
  if (armed_inert) {
    world->machine().faults().Arm(1, InertSchedule());
  }
  EXPECT_TRUE(world->Boot().ok());
  EXPECT_TRUE(world->StartProxy().ok());
  return world;
}

// Spawns the standard echo sandbox (receives input, XORs 0x20, sends it back, stays
// alive for Fin). Each sandbox owns its LibOS environment via the captured pointer.
StatusOr<Sandbox*> AddEchoSandbox(World& world, const std::string& name) {
  SandboxSpec spec;
  spec.name = name;
  auto env = std::make_shared<LibosEnv>(
      LibosManifest{.name = name, .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
  return world.LaunchSandboxProcess(
      name, spec, [env](SyscallContext& ctx) -> StepOutcome {
        if (!env->initialized()) {
          if (!env->Initialize(ctx).ok()) {
            return StepOutcome::kExited;
          }
          return StepOutcome::kYield;
        }
        auto input = env->RecvInput(ctx, 8192);
        if (!input.ok()) {
          return StepOutcome::kYield;  // EAGAIN or transient fault: poll again
        }
        Bytes out = *input;
        for (uint8_t& b : out) {
          b ^= 0x20;
        }
        (void)env->SendOutput(ctx, out);
        return StepOutcome::kYield;
      });
}

enum class Outcome { kCompleted, kQuarantined, kWedged };

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kCompleted:
      return "completed";
    case Outcome::kQuarantined:
      return "quarantined";
    case Outcome::kWedged:
      return "wedged";
  }
  return "?";
}

// Drives one full client session with the bounded-retry state machine a real client
// would run over a lossy transport: pump for a while, then retransmit; give up (and
// report kWedged) only after kMaxAttempts rounds. Stray packets — duplicates,
// corrupted records, stale ServerHellos — are consumed and ignored.
Outcome RunChaosSession(World& world, Sandbox* sandbox, uint64_t client_seed,
                        int num_records = 2) {
  constexpr int kMaxAttempts = 30;
  constexpr uint64_t kPumpSlices = 500;
  RemoteClient client(world.MakeTrustAnchors(), client_seed);

  const auto quarantined = [&] { return sandbox->state == SandboxState::kQuarantined; };
  const auto pump = [&](const std::function<bool()>& done) {
    (void)world.RunUntil(done, kPumpSlices);  // bounded: timeout is not an error here
  };

  // ---- Handshake (attestation) with bounded hello retransmission ----
  world.ClientSend(client.MakeHello(sandbox->id));
  for (int attempt = 0; !client.established(); ++attempt) {
    if (quarantined()) {
      return Outcome::kQuarantined;
    }
    if (attempt >= kMaxAttempts) {
      return Outcome::kWedged;
    }
    pump([&] {
      auto wire = world.ClientReceive();
      if (!wire.ok()) {
        return quarantined();
      }
      const auto packet = Packet::Deserialize(*wire);
      return packet.ok() && packet->type == PacketType::kServerHello &&
             packet->sandbox_id == sandbox->id &&
             client.ProcessServerHello(*wire).ok();
    });
    if (!client.established()) {
      world.ClientSend(client.ResendHello());
    }
  }

  // ---- Data records, one at a time so ResendData always covers the in-flight one ----
  for (int r = 0; r < num_records; ++r) {
    const Bytes payload =
        ToBytes("chaos-" + std::to_string(client_seed) + "-" + std::to_string(r));
    Bytes expected = payload;
    for (uint8_t& b : expected) {
      b ^= 0x20;
    }
    world.ClientSend(client.SealData(payload));
    bool opened = false;
    for (int attempt = 0; !opened; ++attempt) {
      if (quarantined()) {
        return Outcome::kQuarantined;
      }
      if (attempt >= kMaxAttempts) {
        return Outcome::kWedged;
      }
      pump([&] {
        auto wire = world.ClientReceive();
        if (!wire.ok()) {
          return quarantined();
        }
        auto result = client.OpenResult(*wire);
        if (result.ok()) {
          EXPECT_EQ(*result, expected) << "seed " << client_seed << " record " << r;
          opened = true;
          return true;
        }
        // AlreadyExists (duplicate), Unavailable (stashed ahead), parse/auth failures
        // (corrupted in flight): ignore and keep pumping.
        return false;
      });
      while (!opened && client.HasStashedResult()) {
        opened = client.PopStashedResult().ok();
      }
      if (!opened && !quarantined()) {
        world.ClientSend(client.ResendData());
      }
    }
  }

  // ---- Fin: bounded retransmission until the sandbox is torn down ----
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (sandbox->state == SandboxState::kTornDown) {
      return Outcome::kCompleted;
    }
    if (quarantined()) {
      return Outcome::kQuarantined;
    }
    world.ClientSend(client.MakeFin());
    pump([&] {
      return sandbox->state == SandboxState::kTornDown || quarantined();
    });
  }
  if (sandbox->state == SandboxState::kTornDown) {
    return Outcome::kCompleted;
  }
  return quarantined() ? Outcome::kQuarantined : Outcome::kWedged;
}

// Boots a world, warms it up (proxy lazy setup + LibOS init are boot plumbing, not
// trust-boundary traffic), arms chaos for `seed`, runs one session, and reports the
// outcome plus the replay-identity journal captured before disarming.
struct SeedResult {
  Outcome outcome = Outcome::kWedged;
  uint64_t violations = 0;
  std::string first_violation;
  uint64_t fired = 0;
  uint64_t journal_hash = 0;
  std::vector<FiredFault> journal;
};

SeedResult RunSeed(uint64_t seed) {
  SeedResult result;
  auto world = MakeChaosWorld();
  auto sandbox = AddEchoSandbox(*world, "echo-" + std::to_string(seed));
  if (!sandbox.ok()) {
    return result;
  }
  world->kernel().Run(60);  // warm-up: proxy /dev/erebor setup, LibOS init
  ChaosOptions options;
  options.seed = seed;
  if (!world->EnableChaos(options).ok()) {
    return result;
  }
  result.outcome = RunChaosSession(*world, *sandbox, /*client_seed=*/1000 + seed);
  result.violations = world->invariant_violations();
  result.first_violation = world->first_violation().ToString();
  const FaultInjector& faults = world->machine().faults();
  result.fired = faults.fired();
  result.journal_hash = faults.JournalHash();
  result.journal = faults.journal();
  world->DisableChaos();
  return result;
}

// ---- 1. The soak ----

TEST(ChaosSoakTest, SixtyFourSeedsCompleteOrQuarantineWithInvariantsIntact) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const uint64_t injected_before = metrics.Value("faults.injected");
  const uint64_t recovered_before = metrics.Value("faults.recovered");
  const uint64_t retries_before = metrics.Value("channel.retries");
  const uint64_t checks_before = metrics.Value("invariants.checks");

  int completed = 0;
  int quarantined_count = 0;
  uint64_t total_fired = 0;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    const SeedResult result = RunSeed(seed);
    EXPECT_NE(result.outcome, Outcome::kWedged)
        << "seed " << seed << " wedged after " << result.fired << " injected faults";
    EXPECT_EQ(result.violations, 0u)
        << "seed " << seed << ": " << result.first_violation;
    total_fired += result.fired;
    if (result.outcome == Outcome::kCompleted) {
      ++completed;
    } else if (result.outcome == Outcome::kQuarantined) {
      ++quarantined_count;
    }
  }
  // The soak must actually exercise the machinery: faults fired, retries healed
  // losses, invariant checks ran, and most sessions still completed.
  EXPECT_GT(total_fired, 0u);
  EXPECT_GT(metrics.Value("faults.injected"), injected_before);
  EXPECT_GT(metrics.Value("faults.recovered"), recovered_before);
  EXPECT_GT(metrics.Value("channel.retries"), retries_before);
  EXPECT_GT(metrics.Value("invariants.checks"), checks_before);
  EXPECT_GT(completed, 0) << "no chaotic session ever completed";
  EXPECT_EQ(completed + quarantined_count, 64);
}

// ---- 2. Determinism / replay ----

TEST(ChaosDeterminismTest, SameSeedReplaysBitIdentically) {
  for (const uint64_t seed : {3ull, 17ull, 42ull}) {
    const SeedResult first = RunSeed(seed);
    const SeedResult replay = RunSeed(seed);
    EXPECT_EQ(first.outcome, replay.outcome) << "seed " << seed;
    EXPECT_EQ(first.fired, replay.fired) << "seed " << seed;
    ASSERT_EQ(first.journal.size(), replay.journal.size()) << "seed " << seed;
    for (size_t i = 0; i < first.journal.size(); ++i) {
      EXPECT_EQ(first.journal[i].site, replay.journal[i].site) << "seed " << seed;
      EXPECT_EQ(first.journal[i].hit, replay.journal[i].hit) << "seed " << seed;
      EXPECT_EQ(first.journal[i].action, replay.journal[i].action) << "seed " << seed;
    }
    EXPECT_EQ(first.journal_hash, replay.journal_hash)
        << "seed " << seed << ": " << OutcomeName(first.outcome) << " run did not "
        << "replay bit-identically";
  }
}

TEST(ChaosDeterminismTest, RandomizedSchedulesVaryBySeed) {
  const FaultSchedule a = FaultSchedule::Randomized(1);
  const FaultSchedule b = FaultSchedule::Randomized(2);
  ASSERT_FALSE(a.rules.empty());
  ASSERT_FALSE(b.rules.empty());
  bool differs = a.rules.size() != b.rules.size();
  for (size_t i = 0; !differs && i < a.rules.size(); ++i) {
    differs = a.rules[i].site != b.rules[i].site ||
              a.rules[i].action != b.rules[i].action ||
              a.rules[i].period != b.rules[i].period ||
              a.rules[i].first_hit != b.rules[i].first_hit;
  }
  EXPECT_TRUE(differs);
  // And the same seed always derives the same schedule (replay needs only the seed).
  const FaultSchedule again = FaultSchedule::Randomized(1);
  ASSERT_EQ(a.rules.size(), again.rules.size());
  for (size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(a.rules[i].site, again.rules[i].site);
    EXPECT_EQ(a.rules[i].action, again.rules[i].action);
    EXPECT_EQ(a.rules[i].period, again.rules[i].period);
    EXPECT_EQ(a.rules[i].max_fires, again.rules[i].max_fires);
  }
}

// ---- 3. Zero-cost when inactive ----

// One 200-operation fig8 microbenchmark on a fresh single-vCPU world whose
// injector is armed with InertSchedule() from before boot when `armed_inert`.
// `fired` receives the injector's firing count.
StatusOr<LmbenchResult> RunLmbenchOnFreshWorld(const char* name, SimMode mode,
                                               bool armed_inert, uint64_t* fired) {
  WorldConfig config;
  config.mode = mode;
  config.machine.num_cpus = 1;
  World world(config);
  if (armed_inert) {
    world.machine().faults().Arm(1, InertSchedule());
  }
  EREBOR_RETURN_IF_ERROR(world.Boot());
  StatusOr<LmbenchResult> result = RunLmbench(world, name, 200);
  *fired += world.machine().faults().fired();
  return result;
}

TEST(ChaosNeutralityTest, Fig8CountsBitIdenticalDisarmedAndArmedInert) {
  for (const char* name : {"stat", "pagefault"}) {
    uint64_t fired = 0;
    const auto off_native = RunLmbenchOnFreshWorld(name, SimMode::kNative, false, &fired);
    const auto off_erebor =
        RunLmbenchOnFreshWorld(name, SimMode::kEreborFull, false, &fired);
    const auto on_native = RunLmbenchOnFreshWorld(name, SimMode::kNative, true, &fired);
    const auto on_erebor =
        RunLmbenchOnFreshWorld(name, SimMode::kEreborFull, true, &fired);
    ASSERT_TRUE(off_native.ok() && off_erebor.ok() && on_native.ok() &&
                on_erebor.ok());
    EXPECT_EQ(off_native->operations, on_native->operations) << name;
    EXPECT_EQ(off_native->total_cycles, on_native->total_cycles) << name;
    EXPECT_EQ(off_erebor->operations, on_erebor->operations) << name;
    EXPECT_EQ(off_erebor->total_cycles, on_erebor->total_cycles) << name;
    EXPECT_EQ(off_erebor->emc_count, on_erebor->emc_count) << name;
    EXPECT_EQ(fired, 0u);
  }
}

// One scripted channel session; returns the final cycle counters of both CPUs plus
// kernel stats, the bit-exact "fig9-shaped" fingerprint of the run.
std::vector<uint64_t> RunScriptedSessionFingerprint(bool armed_inert) {
  auto world = MakeChaosWorld(armed_inert);
  auto sandbox = AddEchoSandbox(*world, "neutral");
  EXPECT_TRUE(sandbox.ok());
  world->kernel().Run(60);
  const Outcome outcome = RunChaosSession(*world, *sandbox, /*client_seed=*/7);
  EXPECT_EQ(outcome, Outcome::kCompleted);
  std::vector<uint64_t> fingerprint;
  for (int i = 0; i < world->machine().num_cpus(); ++i) {
    fingerprint.push_back(world->machine().cpu(i).cycles().now());
  }
  const KernelStats& stats = world->kernel().stats();
  fingerprint.push_back(stats.syscalls);
  fingerprint.push_back(stats.page_faults);
  fingerprint.push_back(stats.timer_interrupts);
  fingerprint.push_back(stats.context_switches);
  fingerprint.push_back(world->machine().faults().fired());
  return fingerprint;
}

TEST(ChaosNeutralityTest, SessionCyclesBitIdenticalDisarmedAndArmedInert) {
  const std::vector<uint64_t> disarmed = RunScriptedSessionFingerprint(false);
  const std::vector<uint64_t> armed = RunScriptedSessionFingerprint(true);
  EXPECT_EQ(disarmed, armed);
}

// ---- 4. Graceful degradation: quarantine containment + allocator exhaustion ----

TEST(ChaosQuarantineTest, RepeatedShepherdFaultsQuarantineOnlyTheVictim) {
  const uint64_t quarantined_before =
      MetricsRegistry::Global().Value("sandbox.quarantined");
  auto world = MakeChaosWorld();
  auto victim = AddEchoSandbox(*world, "victim");
  ASSERT_TRUE(victim.ok());
  world->kernel().Run(60);

  // Every shepherd copy into the victim fails until its strike budget (8) is gone.
  ChaosOptions options;
  options.seed = 5;
  options.schedule.rules.push_back(FaultRule{
      .site = "sandbox.copy_in", .action = FaultAction::kFail, .max_fires = 16});
  ASSERT_TRUE(world->EnableChaos(options).ok());

  const Outcome outcome = RunChaosSession(*world, *victim, /*client_seed=*/11);
  EXPECT_EQ(outcome, Outcome::kQuarantined)
      << "expected the strike budget to quarantine the victim, got "
      << OutcomeName(outcome);
  EXPECT_EQ((*victim)->state, SandboxState::kQuarantined);
  EXPECT_FALSE((*victim)->quarantine_reason.empty());
  EXPECT_GT(MetricsRegistry::Global().Value("sandbox.quarantined"), quarantined_before);
  EXPECT_EQ(world->invariant_violations(), 0u) << world->first_violation().ToString();
  world->DisableChaos();

  // The rest of the system keeps serving: a fresh sandbox in the same world runs a
  // clean full session to completion.
  auto survivor = AddEchoSandbox(*world, "survivor");
  ASSERT_TRUE(survivor.ok());
  world->kernel().Run(60);
  EXPECT_EQ(RunChaosSession(*world, *survivor, /*client_seed=*/12), Outcome::kCompleted);
  EXPECT_EQ((*victim)->state, SandboxState::kQuarantined);  // still fenced off
}

// ---- 5. Lock-discipline soak ----
//
// Host preemption exactly at SimLock boundary crossings ("lock.acquire" /
// "lock.release" fire kPreempt) across both vCPUs, while a full chaotic client
// session runs. The discipline must hold under the worst interleaving pressure
// the deterministic model can produce: no ordering or unheld-mutation
// violations, empty held-stacks at every safe point (the invariant checker's
// lock family runs between slices), and the session itself never wedges.

TEST(ChaosLockDisciplineTest, PreemptionAtLockBoundariesKeepsDisciplineIntact) {
  auto world = MakeChaosWorld();  // 2 vCPUs
  auto sandbox = AddEchoSandbox(*world, "lockchaos");
  ASSERT_TRUE(sandbox.ok());
  world->kernel().Run(60);

  // Dense preemption: every third acquire and (offset so the two rules drift
  // against each other) every fifth release eats an interrupt delivery.
  ChaosOptions options;
  options.seed = 21;
  options.schedule.rules.push_back(FaultRule{
      .site = "lock.acquire", .action = FaultAction::kPreempt, .period = 3});
  options.schedule.rules.push_back(FaultRule{
      .site = "lock.release", .action = FaultAction::kPreempt, .first_hit = 2,
      .period = 5});
  ASSERT_TRUE(world->EnableChaos(options).ok());

  const Outcome outcome = RunChaosSession(*world, *sandbox, /*client_seed=*/31);
  EXPECT_NE(outcome, Outcome::kWedged);
  EXPECT_GT(world->machine().faults().fired(), 0u)
      << "no lock-boundary preemption ever fired";
  EXPECT_EQ(world->invariant_violations(), 0u) << world->first_violation().ToString();
  EXPECT_EQ(world->monitor()->locks().audit().ordering_violations(), 0u);
  EXPECT_EQ(world->monitor()->locks().audit().unheld_violations(), 0u);
  for (int c = 0; c < world->machine().num_cpus(); ++c) {
    EXPECT_TRUE(world->monitor()->locks().audit().NothingHeld(c)) << "vCPU " << c;
  }
  EXPECT_TRUE(InvariantChecker(world->monitor()).CheckFrames().ok());
  world->DisableChaos();
}

TEST(ChaosLockDisciplineTest, QuarantineUnderLockPreemptionConfinesTheVictim) {
  auto world = MakeChaosWorld();
  auto victim = AddEchoSandbox(*world, "lockvictim");
  ASSERT_TRUE(victim.ok());
  world->kernel().Run(60);

  // Lock-boundary preemption *plus* a shepherd-copy fault storm: the victim
  // burns its strike budget and is quarantined mid-flight, with preemptions
  // landing inside the very dispatches that take its lock. Quarantine must not
  // leak a held lock or corrupt the discipline for the rest of the world.
  ChaosOptions options;
  options.seed = 23;
  options.schedule.rules.push_back(FaultRule{
      .site = "lock.acquire", .action = FaultAction::kPreempt, .period = 2});
  options.schedule.rules.push_back(FaultRule{
      .site = "sandbox.copy_in", .action = FaultAction::kFail, .max_fires = 16});
  ASSERT_TRUE(world->EnableChaos(options).ok());

  const Outcome outcome = RunChaosSession(*world, *victim, /*client_seed=*/33);
  EXPECT_EQ(outcome, Outcome::kQuarantined);
  EXPECT_EQ((*victim)->state, SandboxState::kQuarantined);
  EXPECT_EQ(world->invariant_violations(), 0u) << world->first_violation().ToString();
  EXPECT_EQ(world->monitor()->locks().audit().violations(), 0u);
  for (int c = 0; c < world->machine().num_cpus(); ++c) {
    EXPECT_TRUE(world->monitor()->locks().audit().NothingHeld(c)) << "vCPU " << c;
  }
  world->DisableChaos();

  // A fresh sandbox in the same world still completes a clean session.
  auto survivor = AddEchoSandbox(*world, "locksurvivor");
  ASSERT_TRUE(survivor.ok());
  world->kernel().Run(60);
  EXPECT_EQ(RunChaosSession(*world, *survivor, /*client_seed=*/34), Outcome::kCompleted);
  EXPECT_EQ(world->monitor()->locks().audit().violations(), 0u);
  EXPECT_TRUE(InvariantChecker(world->monitor()).CheckFrames().ok());
}

TEST(ChaosFrameExhaustionTest, TransientAllocatorExhaustionRecovers) {
  const uint64_t injected_before = MetricsRegistry::Global().Value("faults.injected");
  const uint64_t recovered_before = MetricsRegistry::Global().Value("faults.recovered");
  auto world = MakeChaosWorld();
  auto sandbox = AddEchoSandbox(*world, "exhaust");
  ASSERT_TRUE(sandbox.ok());
  world->kernel().Run(60);

  ChaosOptions options;
  options.seed = 9;
  options.schedule.rules.push_back(FaultRule{
      .site = "frame_alloc.alloc", .action = FaultAction::kExhaust, .max_fires = 1});
  options.host_preempt = false;
  options.host_dma_probe = false;
  ASSERT_TRUE(world->EnableChaos(options).ok());

  EXPECT_EQ(RunChaosSession(*world, *sandbox, /*client_seed=*/13), Outcome::kCompleted);
  EXPECT_EQ(world->invariant_violations(), 0u) << world->first_violation().ToString();
  EXPECT_GT(MetricsRegistry::Global().Value("faults.injected"), injected_before);
  EXPECT_GT(MetricsRegistry::Global().Value("faults.recovered"), recovered_before);
  world->DisableChaos();
}

// ---- 6. Two Worlds in one process ----
//
// Each World owns its fault injector (its Machine's) and its lock audit (its
// monitor's lock table). Chaos armed on A never reaches B, even while A stays
// armed during B's run, and A's journal is exactly a solo run's. A lock-order
// violation on A's monitor shows in A's audit and A's invariant check only.

TEST(WorldIsolationTest, ChaosAndLockAuditStayWithTheirOwnWorld) {
  constexpr uint64_t kSeed = 3;
  const SeedResult solo = RunSeed(kSeed);
  ASSERT_GT(solo.fired, 0u) << "the reference run must inject something";

  auto a = MakeChaosWorld();
  auto b = MakeChaosWorld();  // B's monitor is built after A's
  auto a_sandbox = AddEchoSandbox(*a, "echo-" + std::to_string(kSeed));
  auto b_sandbox = AddEchoSandbox(*b, "bystander");
  ASSERT_TRUE(a_sandbox.ok() && b_sandbox.ok());
  a->kernel().Run(60);
  b->kernel().Run(60);

  ChaosOptions options;
  options.seed = kSeed;
  ASSERT_TRUE(a->EnableChaos(options).ok());
  EXPECT_EQ(RunChaosSession(*a, *a_sandbox, /*client_seed=*/1000 + kSeed),
            solo.outcome);
  const FaultInjector& a_faults = a->machine().faults();
  EXPECT_EQ(a_faults.fired(), solo.fired);
  EXPECT_EQ(a_faults.JournalHash(), solo.journal_hash);

  // B runs after A, with A's injector still armed.
  EXPECT_EQ(RunChaosSession(*b, *b_sandbox, /*client_seed=*/77), Outcome::kCompleted);
  EXPECT_EQ(b->machine().faults().fired(), 0u);
  EXPECT_TRUE(b->machine().faults().journal().empty());
  a->DisableChaos();

  // The wrong-order acquisition of the threads torture test, on A's monitor:
  // the monitor-state lock (rank 1) before a sandbox lock (rank 0).
  EmcLockTable& a_locks = a->monitor()->locks();
  Cpu& cpu = a->machine().cpu(0);
  SimLock& a_sandbox_lock = (*a_sandbox)->lock;
  a_locks.monitor_state().Acquire(cpu, a_locks);
  a_sandbox_lock.Acquire(cpu, a_locks);
  a_sandbox_lock.Release(cpu, a_locks);
  a_locks.monitor_state().Release(cpu, a_locks);

  EXPECT_EQ(a_locks.audit().ordering_violations(), 1u);
  InvariantChecker a_check(a->monitor());
  const Status a_status = a_check.CheckAll();
  EXPECT_FALSE(a_status.ok());
  EXPECT_NE(a_status.ToString().find("lock-ordering"), std::string::npos)
      << a_status.ToString();
  EXPECT_EQ(b->monitor()->locks().audit().violations(), 0u);
  InvariantChecker b_check(b->monitor());
  EXPECT_TRUE(b_check.CheckAll().ok()) << b_check.CheckAll().ToString();
}

}  // namespace
}  // namespace erebor
