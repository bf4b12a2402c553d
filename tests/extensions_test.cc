// Tests for the optional/future-work features the paper discusses: batched MMU
// updates through the MMU rings (section 9.1) and software side-channel
// mitigations (section 12).
#include <gtest/gtest.h>

#include "src/libos/libos.h"
#include "src/sim/world.h"
#include "src/workloads/lmbench.h"

namespace erebor {
namespace {

TEST(BatchedMmuBenchTest, ForkGetsFasterWithBatching) {
  for (const char* name : {"fork", "mmap"}) {
    const auto plain =
        RunLmbench(name, SimMode::kEreborFull, 300, MmuUpdateMode::kPerOp);
    const auto ring = RunLmbench(name, SimMode::kEreborFull, 300, MmuUpdateMode::kRing);
    ASSERT_TRUE(plain.ok() && ring.ok()) << name;
    EXPECT_LT(ring->cycles_per_op(), plain->cycles_per_op() * 0.9)
        << "the MMU ring should cut a visible share of " << name << "'s MMU cost";
  }
}

class MitigationTest : public testing::Test {
 protected:
  void Boot(const MitigationConfig& config) {
    WorldConfig wc;
    wc.mode = SimMode::kEreborFull;
    world_ = std::make_unique<World>(wc);
    ASSERT_TRUE(world_->Boot().ok());
    world_->monitor()->SetMitigations(config);
  }

  // A sealed sandbox that spins across timer interrupts.
  Sandbox* LaunchSpinner() {
    SandboxSpec spec;
    spec.name = "spin";
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = "spin", .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
    auto sandbox = world_->LaunchSandboxProcess(
        "spin", spec, [env](SyscallContext& ctx) -> StepOutcome {
          if (!env->initialized()) {
            (void)env->Initialize(ctx);
            return StepOutcome::kYield;
          }
          ctx.Compute(3'000'000);
          ctx.Poll();
          return StepOutcome::kYield;
        });
    EXPECT_TRUE(sandbox.ok());
    world_->kernel().Run(20);
    EXPECT_TRUE(world_->monitor()
                    ->DebugInstallClientData(world_->machine().cpu(0), **sandbox,
                                             ToBytes("x"))
                    .ok());
    return *sandbox;
  }

  std::unique_ptr<World> world_;
};

TEST_F(MitigationTest, FlushOnExitChargesAndCounts) {
  MitigationConfig config;
  config.flush_on_exit = true;
  Boot(config);
  Sandbox* sandbox = LaunchSpinner();
  world_->kernel().Run(50);
  EXPECT_GT(sandbox->exits.timer_interrupts, 0u);
  EXPECT_GE(world_->monitor()->counters().cache_flushes, sandbox->exits.timer_interrupts);
}

TEST_F(MitigationTest, RateLimitStallsExcessExits) {
  MitigationConfig config;
  config.rate_limit_exits = true;
  config.max_exits_per_window = 3;  // absurdly low so the spinner trips it
  Boot(config);
  LaunchSpinner();
  world_->kernel().Run(200);
  EXPECT_GT(world_->monitor()->counters().exit_stalls, 0u);
}

TEST_F(MitigationTest, QuantizedOutputHidesProcessingTime) {
  MitigationConfig config;
  config.quantize_output = true;
  config.output_interval = 1'000'000;
  Boot(config);

  // Two sandboxes with very different processing times produce outputs whose release
  // cycles are both interval-aligned.
  auto run_one = [&](const std::string& name, Cycles work) -> Cycles {
    SandboxSpec spec;
    spec.name = name;
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = name, .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
    bool sent = false;
    auto sandbox = world_->LaunchSandboxProcess(
        name, spec, [env, work, &sent](SyscallContext& ctx) -> StepOutcome {
          if (!env->initialized()) {
            (void)env->Initialize(ctx);
            return StepOutcome::kYield;
          }
          ctx.Compute(work);  // secret-dependent processing time
          (void)env->SendOutput(ctx, ToBytes("r"));
          sent = true;
          return StepOutcome::kExited;
        });
    EXPECT_TRUE(sandbox.ok());
    EXPECT_TRUE(world_->RunUntil([&] { return sent; }).ok());
    return world_->machine().cpu(0).cycles().now();
  };
  (void)run_one("fast", 1000);
  EXPECT_GT(world_->monitor()->counters().quantized_outputs, 0u);
}

TEST_F(MitigationTest, MitigationsOffByDefault) {
  Boot(MitigationConfig{});
  LaunchSpinner();
  world_->kernel().Run(100);
  EXPECT_EQ(world_->monitor()->counters().cache_flushes, 0u);
  EXPECT_EQ(world_->monitor()->counters().exit_stalls, 0u);
}


class HugePageSplitTest : public testing::Test {
 protected:
  HugePageSplitTest() {
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    world_ = std::make_unique<World>(config);
    EXPECT_TRUE(world_->Boot().ok());
  }

  // Builds a level-2 PTP (registered + linked) so a PS-bit leaf can target it.
  Paddr MakeLevel2Table() {
    FrameTable& frames = world_->monitor()->frame_table();
    const auto ptp = world_->kernel().pool().Alloc();
    EXPECT_TRUE(ptp.ok());
    frames.info(*ptp).type = FrameType::kPtp;
    frames.info(*ptp).ptp_level = 2;
    return AddrOf(*ptp);
  }

  std::unique_ptr<World> world_;
};

TEST_F(HugePageSplitTest, HugePageRequestIsForceSplit) {
  Cpu& cpu = world_->machine().cpu(0);
  const Paddr table = MakeLevel2Table();
  // A 2 MiB region of ordinary frames, 2 MiB aligned.
  const auto base = world_->kernel().pool().AllocContiguous(512);
  ASSERT_TRUE(base.ok());
  const FrameNum aligned = (*base + 511) & ~0x1FFULL;
  (void)aligned;
  const Pte huge = pte::Make(*base & ~0x1FFULL,
                             pte::kPresent | pte::kWritable | pte::kNoExecute |
                                 pte::kPageSize);
  const uint64_t splits_before = world_->monitor()->counters().huge_splits;
  ASSERT_TRUE(world_->privops().WritePte(cpu, table + 8 * 3, huge).ok());
  EXPECT_EQ(world_->monitor()->counters().huge_splits, splits_before + 1);

  // The slot now links a level-1 table whose 512 entries map the same range 4K-wise.
  const Pte inter = world_->machine().memory().Read64(table + 8 * 3);
  ASSERT_TRUE(pte::Present(inter));
  EXPECT_FALSE(inter & pte::kPageSize);
  const FrameNum child = pte::Frame(inter);
  EXPECT_EQ(world_->monitor()->frame_table().info(child).type, FrameType::kPtp);
  EXPECT_EQ(world_->monitor()->frame_table().info(child).ptp_level, 1);
  const Pte first = world_->machine().memory().Read64(AddrOf(child));
  EXPECT_EQ(pte::Frame(first), pte::Frame(huge));
  EXPECT_TRUE(pte::Present(first));
  const Pte last = world_->machine().memory().Read64(AddrOf(child) + 8 * 511);
  EXPECT_EQ(pte::Frame(last), pte::Frame(huge) + 511);
}

TEST_F(HugePageSplitTest, SplitCoveringProtectedFramesIsRefused) {
  Cpu& cpu = world_->machine().cpu(0);
  const Paddr table = MakeLevel2Table();
  // A huge page starting just below the monitor region would sweep monitor frames
  // into a user mapping: the per-subpage validation must refuse it.
  const Pte huge = pte::Make(layout::kMonitorFirstFrame & ~0x1FFULL,
                             pte::kPresent | pte::kUser | pte::kWritable |
                                 pte::kNoExecute | pte::kPageSize);
  EXPECT_EQ(world_->privops().WritePte(cpu, table, huge).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(HugePageSplitTest, GigabytePagesStayRefused) {
  Cpu& cpu = world_->machine().cpu(0);
  FrameTable& frames = world_->monitor()->frame_table();
  const auto ptp = world_->kernel().pool().Alloc();
  ASSERT_TRUE(ptp.ok());
  frames.info(*ptp).type = FrameType::kPtp;
  frames.info(*ptp).ptp_level = 3;  // PDPT: a PS leaf here is a 1 GiB page
  const Pte huge = pte::Make(0, pte::kPresent | pte::kPageSize);
  EXPECT_EQ(world_->privops().WritePte(cpu, AddrOf(*ptp), huge).code(),
            ErrorCode::kPermissionDenied);
}


class DynamicCodeTest : public testing::Test {
 protected:
  DynamicCodeTest() {
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    world_ = std::make_unique<World>(config);
    EXPECT_TRUE(world_->Boot().ok());
  }

  std::unique_ptr<World> world_;
};

TEST_F(DynamicCodeTest, CleanModuleLoadsIntoKernelText) {
  Cpu& cpu = world_->machine().cpu(0);
  Bytes module(6000, 0x90);  // NOP sled spanning two pages
  module[0] = 0x55;          // push %rbp
  module.back() = 0xC3;      // ret
  const auto pa = world_->monitor()->EmcLoadKernelModule(cpu, module);
  ASSERT_TRUE(pa.ok()) << pa.status().ToString();
  // Installed frames are typed kernel-text: W^X applies to any future mapping.
  const FrameNum frame = FrameOf(*pa);
  EXPECT_EQ(world_->monitor()->frame_table().info(frame).type, FrameType::kKernelText);
  EXPECT_EQ(world_->monitor()->frame_table().info(frame + 1).type,
            FrameType::kKernelText);
  // Contents are byte-identical.
  Bytes loaded(module.size());
  ASSERT_TRUE(world_->machine().memory().Read(*pa, loaded.data(), loaded.size()).ok());
  EXPECT_EQ(loaded, module);
  // And the kernel cannot later text_poke a sensitive op into it.
  const Bytes evil = EncodeSensitiveOp(SensitiveOp::kTdcall);
  EXPECT_EQ(world_->privops().TextPoke(cpu, *pa + 64, evil.data(), evil.size()).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(DynamicCodeTest, TrojanedModuleRefused) {
  Cpu& cpu = world_->machine().cpu(0);
  Bytes module(512, 0x90);
  const Bytes op = EncodeSensitiveOp(SensitiveOp::kWrmsr);
  std::copy(op.begin(), op.end(), module.begin() + 333);
  const auto pa = world_->monitor()->EmcLoadKernelModule(cpu, module);
  EXPECT_EQ(pa.status().code(), ErrorCode::kPermissionDenied);
  EXPECT_NE(pa.status().message().find("wrmsr"), std::string::npos);
}

TEST_F(DynamicCodeTest, EmptyModuleRefused) {
  Cpu& cpu = world_->machine().cpu(0);
  EXPECT_FALSE(world_->monitor()->EmcLoadKernelModule(cpu, Bytes{}).ok());
}

class SoftwareExceptionTest : public testing::Test {};

TEST_F(SoftwareExceptionTest, DivideErrorKillsNativeTask) {
  WorldConfig config;
  config.mode = SimMode::kNative;
  World world(config);
  ASSERT_TRUE(world.Boot().ok());
  auto task = world.LaunchProcess("crasher", [](SyscallContext& ctx) {
    (void)ctx.RaiseException(Vector::kDivideError, "x / 0");
    return StepOutcome::kYield;
  });
  ASSERT_TRUE(task.ok());
  world.kernel().Run(100);
  EXPECT_EQ((*task)->state, TaskState::kExited);
  EXPECT_NE((*task)->kill_reason.find("#DE"), std::string::npos);
}

TEST_F(SoftwareExceptionTest, SealedSandboxExceptionIsInterposedAndScrubbed) {
  // Claim C8: software exceptions from a sealed sandbox are intercepted by the
  // monitor (register file scrubbed) before the kernel handles them.
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  World world(config);
  ASSERT_TRUE(world.Boot().ok());
  bool crashed = false;
  bool go = false;
  SandboxSpec spec;
  spec.name = "crasher";
  Task* task = nullptr;
  auto env = std::make_shared<LibosEnv>(
      LibosManifest{.name = "crasher", .heap_bytes = 1 << 20},
      LibosBackend::kSandboxed);
  auto sandbox = world.LaunchSandboxProcess(
      "crasher", spec,
      [&, env](SyscallContext& ctx) -> StepOutcome {
        if (!env->initialized()) {
          EXPECT_TRUE(env->Initialize(ctx).ok());
          return StepOutcome::kYield;
        }
        if (!go) {
          return StepOutcome::kYield;
        }
        ctx.cpu().gprs().reg[4] = 0xDEADBEEF;  // a secret in a register
        (void)ctx.RaiseException(Vector::kInvalidOpcode, "ud2");
        crashed = true;
        return StepOutcome::kYield;
      },
      &task);
  ASSERT_TRUE(sandbox.ok());
  world.kernel().Run(50);
  ASSERT_TRUE(world.monitor()
                  ->DebugInstallClientData(world.machine().cpu(0), **sandbox,
                                           ToBytes("x"))
                  .ok());
  go = true;
  const uint64_t scrubbed_before = world.monitor()->counters().scrubbed_interrupts;
  world.kernel().Run(1000);
  EXPECT_TRUE(crashed);
  EXPECT_EQ(task->state, TaskState::kExited);
  EXPECT_GT(world.monitor()->counters().scrubbed_interrupts, scrubbed_before);
}

}  // namespace
}  // namespace erebor
