#include <gtest/gtest.h>

#include "src/kernel/frame_alloc.h"
#include "src/sim/world.h"

namespace erebor {
namespace {

// ---- Frame allocator ----

TEST(FrameAllocatorTest, AllocatesWithinRange) {
  FaultInjector faults;
  FrameAllocator alloc(100, 10, &faults);
  for (int i = 0; i < 10; ++i) {
    const auto frame = alloc.Alloc();
    ASSERT_TRUE(frame.ok());
    EXPECT_GE(*frame, 100u);
    EXPECT_LT(*frame, 110u);
  }
  EXPECT_EQ(alloc.Alloc().status().code(), ErrorCode::kResourceExhausted);
}

TEST(FrameAllocatorTest, FreeAndReuse) {
  FaultInjector faults;
  FrameAllocator alloc(0, 4, &faults);
  const FrameNum a = *alloc.Alloc();
  ASSERT_TRUE(alloc.Free(a).ok());
  EXPECT_EQ(alloc.Free(a).code(), ErrorCode::kFailedPrecondition);  // double free
  EXPECT_EQ(alloc.Free(99).code(), ErrorCode::kInvalidArgument);    // foreign frame
  EXPECT_EQ(alloc.used(), 0u);
}

TEST(FrameAllocatorTest, ContiguousRuns) {
  FaultInjector faults;
  FrameAllocator alloc(10, 16, &faults);
  const auto run = alloc.AllocContiguous(8);
  ASSERT_TRUE(run.ok());
  // A second 16-frame run cannot fit.
  EXPECT_FALSE(alloc.AllocContiguous(16).ok());
  const auto run2 = alloc.AllocContiguous(8);
  ASSERT_TRUE(run2.ok());
  EXPECT_NE(*run, *run2);
  EXPECT_EQ(alloc.available(), 0u);
}

class FrameAllocPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(FrameAllocPropertyTest, AllocFreeNeverOverlaps) {
  Rng rng(GetParam());
  FaultInjector faults;
  FrameAllocator alloc(1000, 128, &faults);
  std::set<FrameNum> live;
  for (int step = 0; step < 2000; ++step) {
    if (rng.NextBelow(2) == 0 && !live.empty()) {
      const auto it = std::next(live.begin(), rng.NextBelow(live.size()));
      ASSERT_TRUE(alloc.Free(*it).ok());
      live.erase(it);
    } else {
      const auto frame = alloc.Alloc();
      if (frame.ok()) {
        EXPECT_TRUE(live.insert(*frame).second) << "double allocation of frame";
      }
    }
    EXPECT_EQ(alloc.used(), live.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameAllocPropertyTest, testing::Values(1, 2, 3));

// ---- Kernel end-to-end (native world) ----

class KernelTest : public testing::Test {
 protected:
  KernelTest() {
    WorldConfig config;
    config.mode = SimMode::kNative;
    config.machine.num_cpus = 2;
    world_ = std::make_unique<World>(config);
    EXPECT_TRUE(world_->Boot().ok());
  }

  std::unique_ptr<World> world_;
};

TEST_F(KernelTest, BootConfiguresProtections) {
  Cpu& cpu = world_->machine().cpu(0);
  EXPECT_NE(cpu.cr3(), 0u);
  EXPECT_TRUE(cpu.cr4() & cr::kCr4Smep);
  EXPECT_TRUE(cpu.cr4() & cr::kCr4Smap);
  EXPECT_NE(cpu.idt(), nullptr);
  EXPECT_GT(world_->kernel().stats().boot_cycles, 0u);
}

TEST_F(KernelTest, GetpidAndGettid) {
  uint64_t pid = 0, tid = 0;
  auto task = world_->LaunchProcess("p", [&](SyscallContext& ctx) {
    pid = *ctx.Syscall(sys::kGetpid);
    tid = *ctx.Syscall(sys::kGettid);
    return StepOutcome::kExited;
  });
  ASSERT_TRUE(task.ok());
  world_->kernel().Run();
  EXPECT_EQ(pid, static_cast<uint64_t>((*task)->pid));
  EXPECT_EQ(tid, static_cast<uint64_t>((*task)->tid));
}

TEST_F(KernelTest, MmapWriteReadThroughDemandPaging) {
  bool checked = false;
  ASSERT_TRUE(world_
                  ->LaunchProcess("mm",
                                  [&](SyscallContext& ctx) {
                                    const uint64_t va = *ctx.Syscall(
                                        sys::kMmap, 0, 8 * kPageSize,
                                        sys::kProtRead | sys::kProtWrite, 0);
                                    const Bytes data = ToBytes("demand paged!");
                                    EXPECT_TRUE(
                                        ctx.WriteUser(va + 5000, data.data(), data.size())
                                            .ok());
                                    Bytes back(data.size());
                                    EXPECT_TRUE(
                                        ctx.ReadUser(va + 5000, back.data(), back.size())
                                            .ok());
                                    EXPECT_EQ(back, data);
                                    checked = true;
                                    return StepOutcome::kExited;
                                  })
                  .ok());
  world_->kernel().Run();
  EXPECT_TRUE(checked);
  EXPECT_GT(world_->kernel().stats().page_faults, 0u);
}

TEST_F(KernelTest, SegfaultKillsTask) {
  auto task = world_->LaunchProcess("segv", [&](SyscallContext& ctx) {
    uint8_t byte = 1;
    const Status st = ctx.WriteUser(0xDEAD0000, &byte, 1);
    EXPECT_FALSE(st.ok());
    return StepOutcome::kYield;  // should not survive anyway
  });
  ASSERT_TRUE(task.ok());
  world_->kernel().Run(100);
  EXPECT_EQ((*task)->state, TaskState::kExited);
}

TEST_F(KernelTest, FileWriteReadRoundTrip) {
  bool done = false;
  ASSERT_TRUE(
      world_
          ->LaunchProcess("fs",
                          [&](SyscallContext& ctx) {
                            const uint64_t buf = *ctx.Syscall(
                                sys::kMmap, 0, 4 * kPageSize,
                                sys::kProtRead | sys::kProtWrite, sys::kMapPopulate);
                            const std::string path = "test.txt";
                            EXPECT_TRUE(ctx.WriteUser(buf,
                                                      reinterpret_cast<const uint8_t*>(
                                                          path.data()),
                                                      path.size())
                                            .ok());
                            const uint64_t fd =
                                *ctx.Syscall(sys::kOpen, buf, path.size(), 1);
                            const Bytes payload = ToBytes("hello ramfs");
                            EXPECT_TRUE(ctx.WriteUser(buf + kPageSize, payload.data(),
                                                      payload.size())
                                            .ok());
                            EXPECT_EQ(*ctx.Syscall(sys::kWrite, fd, buf + kPageSize,
                                                   payload.size()),
                                      payload.size());
                            EXPECT_TRUE(ctx.Syscall(sys::kClose, fd).ok());
                            // Reopen and read back.
                            const uint64_t fd2 =
                                *ctx.Syscall(sys::kOpen, buf, path.size(), 0);
                            EXPECT_EQ(*ctx.Syscall(sys::kRead, fd2, buf + 2 * kPageSize,
                                                   256),
                                      payload.size());
                            Bytes back(payload.size());
                            EXPECT_TRUE(ctx.ReadUser(buf + 2 * kPageSize, back.data(),
                                                     back.size())
                                            .ok());
                            EXPECT_EQ(back, payload);
                            done = true;
                            return StepOutcome::kExited;
                          })
          .ok());
  world_->kernel().Run();
  EXPECT_TRUE(done);
}

TEST_F(KernelTest, ForkCreatesChildAndWaitReaps) {
  uint64_t child_pid = 0;
  ASSERT_TRUE(world_
                  ->LaunchProcess("parent",
                                  [&](SyscallContext& ctx) -> StepOutcome {
                                    if (child_pid == 0) {
                                      child_pid = *ctx.Syscall(sys::kFork);
                                      EXPECT_GT(child_pid, 0u);
                                      return StepOutcome::kYield;
                                    }
                                    auto r = ctx.Syscall(sys::kWait4, child_pid);
                                    if (!r.ok()) {
                                      return StepOutcome::kBlocked;
                                    }
                                    return StepOutcome::kExited;
                                  })
                  .ok());
  world_->kernel().Run();
  EXPECT_EQ(world_->kernel().stats().forks, 1u);
  EXPECT_EQ(world_->kernel().live_tasks(), 0);
}

TEST_F(KernelTest, CloneRunsStashedProgram) {
  int thread_ran = 0;
  ASSERT_TRUE(world_
                  ->LaunchProcess("spawner",
                                  [&](SyscallContext& ctx) {
                                    const uint64_t token =
                                        StashProgram([&](SyscallContext&) {
                                          ++thread_ran;
                                          return StepOutcome::kExited;
                                        });
                                    EXPECT_TRUE(ctx.Syscall(sys::kClone, token).ok());
                                    return StepOutcome::kExited;
                                  })
                  .ok());
  world_->kernel().Run();
  EXPECT_EQ(thread_ran, 1);
}

TEST_F(KernelTest, FutexWaitWake) {
  // Waiter blocks on a futex word; waker flips it and wakes.
  Vaddr futex_va = 0;
  bool waiter_resumed = false;
  int waiter_phase = 0;
  auto waiter = world_->LaunchProcess("waiter", [&](SyscallContext& ctx) -> StepOutcome {
    if (waiter_phase == 0) {
      futex_va = *ctx.Syscall(sys::kMmap, 0, kPageSize,
                              sys::kProtRead | sys::kProtWrite, sys::kMapPopulate);
      ++waiter_phase;
      return StepOutcome::kYield;
    }
    if (waiter_phase == 1) {
      auto r = ctx.Syscall(sys::kFutex, futex_va, sys::kFutexWait, 0);
      if (!r.ok() && r.status().code() == ErrorCode::kUnavailable) {
        waiter_phase = 2;
        return StepOutcome::kBlocked;
      }
      waiter_phase = 3;  // value already changed
      return StepOutcome::kYield;
    }
    waiter_resumed = true;
    return StepOutcome::kExited;
  });
  ASSERT_TRUE(waiter.ok());
  int waker_tries = 0;
  ASSERT_TRUE(world_
                  ->LaunchProcess("waker",
                                  [&](SyscallContext& ctx) -> StepOutcome {
                                    if (futex_va == 0 || (*waiter)->state !=
                                                             TaskState::kBlocked) {
                                      if (++waker_tries > 1000) {
                                        return StepOutcome::kExited;
                                      }
                                      return StepOutcome::kYield;
                                    }
                                    EXPECT_TRUE(ctx.Syscall(sys::kFutex, futex_va,
                                                            sys::kFutexWake, 8)
                                                    .ok());
                                    return StepOutcome::kExited;
                                  })
                  .ok());
  world_->kernel().Run();
  EXPECT_TRUE(waiter_resumed);
}

TEST_F(KernelTest, SignalsDeliverToHandlers) {
  int delivered = 0;
  ASSERT_TRUE(world_
                  ->LaunchProcess("sig",
                                  [&](SyscallContext& ctx) {
                                    const uint64_t token =
                                        StashSignalHandler([&](int signo) {
                                          EXPECT_EQ(signo, 10);
                                          ++delivered;
                                        });
                                    EXPECT_TRUE(
                                        ctx.Syscall(sys::kSigaction, 10, token).ok());
                                    EXPECT_TRUE(
                                        ctx.Syscall(sys::kKill, ctx.task().tid, 10).ok());
                                    ctx.Poll();
                                    return StepOutcome::kExited;
                                  })
                  .ok());
  world_->kernel().Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(world_->kernel().stats().signals_delivered, 1u);
}

TEST_F(KernelTest, TimerInterruptsFireDuringLongWork) {
  ASSERT_TRUE(world_
                  ->LaunchProcess("spin",
                                  [&](SyscallContext& ctx) -> StepOutcome {
                                    static int rounds = 0;
                                    ctx.Compute(3'000'000);  // > timer period
                                    ctx.Poll();
                                    return ++rounds < 5 ? StepOutcome::kYield
                                                        : StepOutcome::kExited;
                                  })
                  .ok());
  world_->kernel().Run();
  EXPECT_GE(world_->kernel().stats().timer_interrupts, 4u);
}

TEST_F(KernelTest, NetLoopbackThroughHost) {
  // Guest sends a packet; the "world" (client side) receives it via the host network.
  bool sent = false;
  ASSERT_TRUE(world_
                  ->LaunchProcess("net",
                                  [&](SyscallContext& ctx) {
                                    const uint64_t buf = *ctx.Syscall(
                                        sys::kMmap, 0, kPageSize,
                                        sys::kProtRead | sys::kProtWrite,
                                        sys::kMapPopulate);
                                    const Bytes packet = ToBytes("ping");
                                    EXPECT_TRUE(ctx.WriteUser(buf, packet.data(),
                                                              packet.size())
                                                    .ok());
                                    auto r = ctx.Syscall(sys::kSendto, buf, packet.size());
                                    EXPECT_TRUE(r.ok());
                                    sent = true;
                                    return StepOutcome::kExited;
                                  })
                  .ok());
  world_->kernel().Run();
  ASSERT_TRUE(sent);
  const auto packet = world_->ClientReceive();
  ASSERT_TRUE(packet.ok());
  EXPECT_EQ(*packet, ToBytes("ping"));
}

TEST_F(KernelTest, SyscallCostMatchesTable3) {
  Cycles delta = 0;
  ASSERT_TRUE(world_
                  ->LaunchProcess("cost",
                                  [&](SyscallContext& ctx) {
                                    const Cycles before = ctx.cpu().cycles().now();
                                    EXPECT_TRUE(ctx.Syscall(sys::kSchedYield).ok());
                                    delta = ctx.cpu().cycles().now() - before;
                                    return StepOutcome::kExited;
                                  })
                  .ok());
  world_->kernel().Run();
  EXPECT_EQ(delta, world_->machine().costs().syscall_round_trip);
}

}  // namespace
}  // namespace erebor
