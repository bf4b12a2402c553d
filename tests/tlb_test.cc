// Software-TLB test suite.
//
// Three layers:
//   1. Machine-level coherence: a cached translation must always agree with a fresh
//      page-table walk under randomized map/unmap/protect/CR3-switch/revoke traffic
//      across two vCPUs (the TLB is an optimization, never an oracle).
//   2. Stale-TLB security regressions: each invalidation hook (Tlb::hooks()) is
//      disabled in turn, the mutation it guards is replayed, and the test asserts the
//      TLB really does go stale — proving the shipped hook is load-bearing, not
//      decorative. The same scenario then passes with the hook enabled.
//   3. Cycle-neutrality: simulated operation/cycle counts are bit-identical with the
//      TLB off and on (EREBOR_TLB only changes host time, never the cost model).
#include <gtest/gtest.h>

#include <random>

#include "src/common/metrics.h"
#include "src/hw/tlb.h"
#include "src/kernel/addrspace.h"
#include "src/kernel/layout.h"
#include "src/libos/libos.h"
#include "src/sim/world.h"
#include "src/workloads/lmbench.h"

namespace erebor {
namespace {

// Restores global TLB knobs even when a test fails mid-way (the suite binary can run
// many tests in one process).
struct TlbStateGuard {
  TlbStateGuard() { Tlb::SetEnabled(true); }
  ~TlbStateGuard() {
    Tlb::hooks() = Tlb::Hooks{};
    Tlb::SetEnabled(true);
  }
};

// ---- Layer 1: machine-level tests on raw page tables and address spaces ----

class TlbMachineTest : public testing::Test {
 protected:
  TlbMachineTest()
      : machine_(MachineConfig{.memory_frames = 8192, .num_cpus = 2}),
        pool_(2048, 4096, &machine_.faults()) {}

  StatusOr<std::unique_ptr<AddressSpace>> Create() {
    return AddressSpace::Create(machine_.cpu(0), &machine_, &ops_, &pool_, nullptr);
  }

  // Hand-builds a 4-level tree for `va` out of frames [base, base+3] mapping `data`.
  // Raw Write64s: this models table state the TLB must track, not a kernel API.
  Paddr BuildTree(FrameNum base, Vaddr va, FrameNum data) {
    PhysMemory& m = machine_.memory();
    const Pte inter = pte::kPresent | pte::kWritable;
    m.Write64(AddrOf(base) + PteIndex(va, 3) * 8, pte::Make(base + 1, inter));
    m.Write64(AddrOf(base + 1) + PteIndex(va, 2) * 8, pte::Make(base + 2, inter));
    m.Write64(AddrOf(base + 2) + PteIndex(va, 1) * 8, pte::Make(base + 3, inter));
    m.Write64(AddrOf(base + 3) + PteIndex(va, 0) * 8,
              pte::Make(data, pte::kPresent | pte::kWritable | pte::kNoExecute));
    return AddrOf(base);
  }

  Paddr LeafPa(FrameNum base, Vaddr va) {
    return AddrOf(base + 3) + PteIndex(va, 0) * 8;
  }

  void ExpectCoherent(AddressSpace& space, Cpu& cpu, Vaddr va) {
    const auto cached = space.LookupCached(cpu, va);
    const auto fresh = space.Lookup(va);
    ASSERT_EQ(cached.ok(), fresh.ok())
        << "cpu" << cpu.index() << " va=" << std::hex << va
        << ": TLB and fresh walk disagree on presence";
    if (!fresh.ok()) {
      return;
    }
    EXPECT_EQ(cached->pa, fresh->pa);
    EXPECT_EQ(cached->writable, fresh->writable);
    EXPECT_EQ(cached->user_accessible, fresh->user_accessible);
    EXPECT_EQ(cached->no_execute, fresh->no_execute);
    EXPECT_EQ(cached->pkey, fresh->pkey);
    EXPECT_EQ(cached->level, fresh->level);
  }

  TlbStateGuard guard_;
  Machine machine_;
  NativePrivOps ops_;
  FrameAllocator pool_;
};

TEST_F(TlbMachineTest, HitMissAndStructureCacheCountersWork) {
  const Vaddr va = 0x5A5A5A5A5000;
  const Paddr root = BuildTree(7000, va, 7004);
  Cpu& cpu = machine_.cpu(0);
  const Tlb::Stats before = Tlb::GlobalStats();

  const auto w1 = cpu.WalkCached(root, va, CpuMode::kSupervisor);
  ASSERT_TRUE(w1.ok());
  EXPECT_EQ(w1->pa, AddrOf(7004));
  EXPECT_EQ(Tlb::GlobalStats().misses, before.misses + 1);

  const auto w2 = cpu.WalkCached(root, va + 8, CpuMode::kSupervisor);
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(w2->pa, AddrOf(7004) + 8);
  EXPECT_EQ(Tlb::GlobalStats().hits, before.hits + 1);

  // A second page in the same 2 MiB region: the leaf TLB misses but the structure
  // cache supplies the level-1 table, costing one walker read instead of four.
  machine_.memory().Write64(
      AddrOf(7003) + PteIndex(va + kPageSize, 0) * 8,
      pte::Make(7005, pte::kPresent | pte::kWritable | pte::kNoExecute));
  const uint64_t reads_before = PageTableWalkReads();
  const auto w3 = cpu.WalkCached(root, va + kPageSize, CpuMode::kSupervisor);
  ASSERT_TRUE(w3.ok());
  EXPECT_EQ(w3->pa, AddrOf(7005));
  EXPECT_EQ(Tlb::GlobalStats().psc_hits, before.psc_hits + 1);
  EXPECT_EQ(PageTableWalkReads(), reads_before + 1);

  // The aggregate counters are registered in the global metrics registry.
  EXPECT_EQ(MetricsRegistry::Global().Value("tlb.hits"), Tlb::GlobalStats().hits);
  EXPECT_EQ(MetricsRegistry::Global().Value("paging.walk_read64s"),
            PageTableWalkReads());
}

TEST_F(TlbMachineTest, CachedErrorTextMatchesFreshWalk) {
  const Vaddr va = 0x5A5A5A5A5000;
  const Paddr root = BuildTree(7000, va, 7004);
  Cpu& cpu = machine_.cpu(0);
  ASSERT_TRUE(cpu.WalkCached(root, va, CpuMode::kSupervisor).ok());
  // A non-present page in an already-built region fails via the structure cache;
  // the error must be byte-identical to the full walk's.
  const Vaddr missing = va + 4 * kPageSize;
  const auto cached = cpu.WalkCached(root, missing, CpuMode::kSupervisor);
  const auto fresh = WalkPageTables(machine_.memory(), root, missing);
  ASSERT_FALSE(cached.ok());
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(cached.status().message(), fresh.status().message());
  EXPECT_EQ(cached.status().code(), fresh.status().code());
}

TEST_F(TlbMachineTest, CoherencePropertyUnderRandomMmuTraffic) {
  auto a = Create();
  auto b = Create();
  ASSERT_TRUE(a.ok() && b.ok());
  AddressSpace* spaces[2] = {a->get(), b->get()};
  constexpr int kPages = 24;
  const Pte flags =
      pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute;
  Vaddr base[2];
  for (int s = 0; s < 2; ++s) {
    const auto va = spaces[s]->CreateVma(kPages * kPageSize, flags, VmaKind::kAnon);
    ASSERT_TRUE(va.ok());
    base[s] = *va;
  }

  std::mt19937_64 rng(42);
  for (int step = 0; step < 400; ++step) {
    const int s = rng() & 1;
    AddressSpace& space = *spaces[s];
    Cpu& cpu = machine_.cpu(rng() & 1);
    const Vaddr va = base[s] + (rng() % kPages) * kPageSize;
    switch (rng() % 5) {
      case 0:
        (void)space.HandleDemandFault(cpu, va);
        break;
      case 1:
        (void)space.UnmapPage(cpu, va);
        break;
      case 2:
        (void)space.ProtectPage(cpu, va, pte::kPresent | pte::kUser | pte::kNoExecute);
        break;
      case 3:
        ASSERT_TRUE(cpu.WriteCr3(space.root()).ok());
        break;
      case 4: {
        // Monitor-style revocation: rewrite the leaf in place (permission narrowing
        // the kernel never invlpg'd) and rely on the shootdown broadcast alone.
        const auto walk = space.Lookup(va);
        if (walk.ok()) {
          machine_.memory().Write64(walk->leaf_entry_pa,
                                    pte::WithPkey(walk->leaf, layout::kPtpKey));
          machine_.ShootdownTlbLeaf(walk->leaf_entry_pa, cpu.index());
        }
        break;
      }
    }
    // Every op is followed by coherence probes on both vCPUs.
    for (int probe = 0; probe < 3; ++probe) {
      const int ps = rng() & 1;
      const Vaddr pva = base[ps] + (rng() % kPages) * kPageSize;
      ExpectCoherent(*spaces[ps], machine_.cpu(rng() & 1), pva);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// ---- Layer 2: each invalidation hook is load-bearing ----

TEST_F(TlbMachineTest, Cr3FlushHookIsLoadBearing) {
  const Vaddr va = 0x123456789000;
  const Paddr root_a = BuildTree(7000, va, 7004);
  const Paddr root_b = BuildTree(7010, va, 7014);
  Cpu& cpu = machine_.cpu(0);
  ASSERT_TRUE(cpu.WriteCr3(root_a).ok());

  // Prime, then redirect the leaf with a raw store (hardware-invisible): only the
  // CR3-write flush can bring the TLB back in sync.
  ASSERT_EQ(cpu.WalkCached(root_a, va, CpuMode::kSupervisor)->pa, AddrOf(7004));
  machine_.memory().Write64(
      LeafPa(7000, va),
      pte::Make(7005, pte::kPresent | pte::kWritable | pte::kNoExecute));
  ASSERT_TRUE(cpu.WriteCr3(root_b).ok());
  ASSERT_TRUE(cpu.WriteCr3(root_a).ok());
  EXPECT_EQ(cpu.WalkCached(root_a, va, CpuMode::kSupervisor)->pa, AddrOf(7005))
      << "context switch must flush the TLB";

  // Same scenario with the hook disabled: the stale frame survives the switches.
  Tlb::hooks().cr3_flush = false;
  ASSERT_EQ(cpu.WalkCached(root_a, va, CpuMode::kSupervisor)->pa, AddrOf(7005));
  machine_.memory().Write64(
      LeafPa(7000, va),
      pte::Make(7006, pte::kPresent | pte::kWritable | pte::kNoExecute));
  ASSERT_TRUE(cpu.WriteCr3(root_b).ok());
  ASSERT_TRUE(cpu.WriteCr3(root_a).ok());
  EXPECT_EQ(cpu.WalkCached(root_a, va, CpuMode::kSupervisor)->pa, AddrOf(7005))
      << "with cr3_flush disabled the stale translation must persist "
         "(otherwise the hook is not what provides coherence)";
}

TEST_F(TlbMachineTest, InvlpgHookIsLoadBearing) {
  auto space = Create();
  ASSERT_TRUE(space.ok());
  const Pte flags = pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute;
  const auto va = (*space)->CreateVma(4 * kPageSize, flags, VmaKind::kAnon);
  ASSERT_TRUE(va.ok());
  Cpu& cpu0 = machine_.cpu(0);
  Cpu& cpu1 = machine_.cpu(1);

  // A buggy/hostile kernel path that skips invlpg: unmap with the hook disabled.
  ASSERT_TRUE((*space)->HandleDemandFault(cpu0, *va).ok());
  ASSERT_TRUE((*space)->LookupCached(cpu0, *va).ok());
  ASSERT_TRUE((*space)->LookupCached(cpu1, *va).ok());
  Tlb::hooks().invlpg = false;
  ASSERT_TRUE((*space)->UnmapPage(cpu0, *va).ok());
  ASSERT_FALSE((*space)->Lookup(*va).ok());
  EXPECT_TRUE((*space)->LookupCached(cpu0, *va).ok())
      << "without invlpg the unmapped translation must stay cached";
  EXPECT_TRUE((*space)->LookupCached(cpu1, *va).ok());

  // Shipped behaviour: the unmap broadcast invalidates every vCPU.
  Tlb::hooks().invlpg = true;
  machine_.FlushAllTlbs();  // drop the deliberately-staled entries
  ASSERT_TRUE((*space)->HandleDemandFault(cpu0, *va).ok());
  ASSERT_TRUE((*space)->LookupCached(cpu0, *va).ok());
  ASSERT_TRUE((*space)->LookupCached(cpu1, *va).ok());
  ASSERT_TRUE((*space)->UnmapPage(cpu0, *va).ok());
  EXPECT_FALSE((*space)->LookupCached(cpu0, *va).ok());
  EXPECT_FALSE((*space)->LookupCached(cpu1, *va).ok())
      << "invlpg must broadcast to all vCPUs";
}

// ---- Layer 2 (continued): monitor-side hooks, exercised in a booted world ----

class TlbWorldTest : public testing::Test {
 protected:
  TlbWorldTest() {
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    world_ = std::make_unique<World>(config);
    EXPECT_TRUE(world_->Boot().ok());
  }

  // Builds a standalone 4-level tree through the EMC surface (RegisterPtp +
  // WritePte), the way the deprivileged kernel builds real page tables.
  struct EmcTree {
    Paddr root = 0;
    Paddr leaf_pa = 0;
    FrameNum data = 0;
  };
  StatusOr<EmcTree> BuildEmcTree(Vaddr va) {
    Cpu& cpu = world_->machine().cpu(0);
    PrivilegedOps& priv = world_->privops();
    FrameAllocator& pool = world_->kernel().pool();
    FrameNum level_frames[4];
    for (int i = 0; i < 4; ++i) {
      EREBOR_ASSIGN_OR_RETURN(level_frames[i], pool.Alloc());
    }
    EmcTree tree;
    tree.root = AddrOf(level_frames[0]);
    EREBOR_RETURN_IF_ERROR(priv.RegisterPtp(cpu, level_frames[0], tree.root));
    for (int i = 1; i < 4; ++i) {
      EREBOR_RETURN_IF_ERROR(priv.RegisterPtp(cpu, level_frames[i], tree.root));
      EREBOR_RETURN_IF_ERROR(
          priv.WritePte(cpu, AddrOf(level_frames[i - 1]) + PteIndex(va, 4 - i) * 8,
                        pte::Make(level_frames[i], pte::kPresent | pte::kWritable)));
    }
    EREBOR_ASSIGN_OR_RETURN(tree.data, pool.Alloc());
    tree.leaf_pa = AddrOf(level_frames[3]) + PteIndex(va, 0) * 8;
    EREBOR_RETURN_IF_ERROR(priv.WritePte(
        cpu, tree.leaf_pa,
        pte::Make(tree.data, pte::kPresent | pte::kWritable | pte::kNoExecute)));
    return tree;
  }

  TlbStateGuard guard_;
  std::unique_ptr<World> world_;
};

TEST_F(TlbWorldTest, PteShootdownHookIsLoadBearing) {
  const Vaddr va = 0x5A5A5A5A5000;
  auto tree = BuildEmcTree(va);
  ASSERT_TRUE(tree.ok());
  Cpu& cpu = world_->machine().cpu(0);

  // Malicious-kernel scenario: revoke a mapping straight through EmcWritePte,
  // skipping the kernel's own invlpg. Only the monitor's shootdown protects the TLB.
  ASSERT_EQ(cpu.WalkCached(tree->root, va, CpuMode::kSupervisor)->pa,
            AddrOf(tree->data));
  Tlb::hooks().pte_shootdown = false;
  ASSERT_TRUE(world_->privops().WritePte(cpu, tree->leaf_pa, 0).ok());
  ASSERT_FALSE(WalkPageTables(world_->machine().memory(), tree->root, va).ok());
  EXPECT_TRUE(cpu.WalkCached(tree->root, va, CpuMode::kSupervisor).ok())
      << "with the monitor shootdown disabled the revoked translation must stay "
         "cached — the hook is load-bearing";

  // Shipped behaviour: remap, re-prime, revoke again — now the walk must fail.
  Tlb::hooks().pte_shootdown = true;
  ASSERT_TRUE(world_->privops()
                  .WritePte(cpu, tree->leaf_pa,
                            pte::Make(tree->data, pte::kPresent | pte::kWritable |
                                                      pte::kNoExecute))
                  .ok());
  ASSERT_TRUE(cpu.WalkCached(tree->root, va, CpuMode::kSupervisor).ok());
  ASSERT_TRUE(world_->privops().WritePte(cpu, tree->leaf_pa, 0).ok());
  EXPECT_FALSE(cpu.WalkCached(tree->root, va, CpuMode::kSupervisor).ok());
  EXPECT_GT(world_->monitor()->counters().tlb_shootdowns, 0u);
}

TEST_F(TlbWorldTest, RetrofitShootdownHookIsLoadBearing) {
  Cpu& cpu = world_->machine().cpu(0);
  FrameAllocator& pool = world_->kernel().pool();

  // Registering a data frame as a PTP retrofits the PTP protection key onto its
  // direct-map leaf. A TLB entry primed before the retrofit would let the kernel
  // keep writing the new page table through the stale, default-key translation.
  const auto f1 = pool.Alloc();
  ASSERT_TRUE(f1.ok());
  const Vaddr dm1 = layout::DirectMap(AddrOf(*f1));
  const auto before = cpu.WalkCached(cpu.cr3(), dm1, CpuMode::kSupervisor);
  ASSERT_TRUE(before.ok());
  ASSERT_NE(before->pkey, layout::kPtpKey);
  Tlb::hooks().retrofit_shootdown = false;
  ASSERT_TRUE(world_->privops().RegisterPtp(cpu, *f1, AddrOf(*f1)).ok());
  const auto fresh1 = WalkPageTables(world_->machine().memory(), cpu.cr3(), dm1);
  ASSERT_TRUE(fresh1.ok());
  EXPECT_EQ(fresh1->pkey, layout::kPtpKey);
  EXPECT_NE(cpu.WalkCached(cpu.cr3(), dm1, CpuMode::kSupervisor)->pkey,
            layout::kPtpKey)
      << "with the retrofit shootdown disabled the stale default-key translation "
         "must persist";

  // Shipped behaviour: the retrofit invalidates the cached translation.
  Tlb::hooks().retrofit_shootdown = true;
  const auto f2 = pool.Alloc();
  ASSERT_TRUE(f2.ok());
  const Vaddr dm2 = layout::DirectMap(AddrOf(*f2));
  ASSERT_TRUE(cpu.WalkCached(cpu.cr3(), dm2, CpuMode::kSupervisor).ok());
  ASSERT_TRUE(world_->privops().RegisterPtp(cpu, *f2, AddrOf(*f2)).ok());
  EXPECT_EQ(cpu.WalkCached(cpu.cr3(), dm2, CpuMode::kSupervisor)->pkey,
            layout::kPtpKey);
}

TEST_F(TlbWorldTest, FlushOnExitHookIsLoadBearing) {
  MitigationConfig config;
  config.flush_on_exit = true;
  world_->monitor()->SetMitigations(config);

  // Sealed sandbox that keeps taking timer exits.
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
  ASSERT_TRUE(sandbox.ok());
  world_->kernel().Run(20);
  ASSERT_TRUE(world_->monitor()
                  ->DebugInstallClientData(world_->machine().cpu(0), **sandbox,
                                           ToBytes("x"))
                  .ok());

  // Synthetic root, raw tables: nothing but a whole-TLB flush can evict it. CR3
  // flushes would also do that, so disable them to isolate the exit flush.
  Tlb::hooks().cr3_flush = false;
  const Vaddr va = 0x6A6A6A6000;
  PhysMemory& m = world_->machine().memory();
  const FrameNum base = 40 * 1024;  // above the kernel pool
  const Pte inter = pte::kPresent | pte::kWritable;
  m.Write64(AddrOf(base) + PteIndex(va, 3) * 8, pte::Make(base + 1, inter));
  m.Write64(AddrOf(base + 1) + PteIndex(va, 2) * 8, pte::Make(base + 2, inter));
  m.Write64(AddrOf(base + 2) + PteIndex(va, 1) * 8, pte::Make(base + 3, inter));
  const Paddr leaf_pa = AddrOf(base + 3) + PteIndex(va, 0) * 8;
  m.Write64(leaf_pa, pte::Make(base + 4, inter | pte::kNoExecute));
  const Paddr root = AddrOf(base);

  auto prime_all = [&]() {
    for (int i = 0; i < world_->machine().num_cpus(); ++i) {
      ASSERT_TRUE(
          world_->machine().cpu(i).WalkCached(root, va, CpuMode::kSupervisor).ok());
    }
  };
  auto stale_cpus = [&]() {
    int stale = 0;
    for (int i = 0; i < world_->machine().num_cpus(); ++i) {
      const auto w =
          world_->machine().cpu(i).WalkCached(root, va, CpuMode::kSupervisor);
      if (w.ok() && w->pa == AddrOf(base + 4)) {
        ++stale;
      }
    }
    return stale;
  };

  // Hook disabled: the mitigation charges cycles but must leave the TLB stale.
  prime_all();
  m.Write64(leaf_pa, pte::Make(base + 5, inter | pte::kNoExecute));
  Tlb::hooks().flush_on_exit = false;
  const uint64_t flushes_before = Tlb::GlobalStats().flushes;
  world_->kernel().Run(50);
  ASSERT_GT((*sandbox)->exits.timer_interrupts, 0u);
  ASSERT_GT(world_->monitor()->counters().cache_flushes, 0u);
  EXPECT_EQ(Tlb::GlobalStats().flushes, flushes_before);
  EXPECT_EQ(stale_cpus(), world_->machine().num_cpus())
      << "with flush_on_exit disabled every vCPU must keep the stale translation";

  // Hook enabled: the next sandbox exits really flush the exiting CPU's TLB.
  Tlb::hooks().flush_on_exit = true;
  world_->kernel().Run(50);
  EXPECT_GT(Tlb::GlobalStats().flushes, flushes_before);
  EXPECT_LT(stale_cpus(), world_->machine().num_cpus())
      << "the exit flush must have evicted the stale translation on the exiting CPU";
}

// ---- Layer 3: cycle-neutrality ----

TEST(TlbCycleNeutralityTest, SimulatedCountsAreBitIdenticalOffAndOn) {
  TlbStateGuard guard;
  for (const char* name : {"stat", "pagefault"}) {
    Tlb::SetEnabled(false);
    const auto off_native = RunLmbench(name, SimMode::kNative, 200);
    const auto off_erebor = RunLmbench(name, SimMode::kEreborFull, 200);
    Tlb::SetEnabled(true);
    const auto on_native = RunLmbench(name, SimMode::kNative, 200);
    const auto on_erebor = RunLmbench(name, SimMode::kEreborFull, 200);
    ASSERT_TRUE(off_native.ok() && off_erebor.ok() && on_native.ok() &&
                on_erebor.ok());
    EXPECT_EQ(off_native->operations, on_native->operations) << name;
    EXPECT_EQ(off_native->total_cycles, on_native->total_cycles) << name;
    EXPECT_EQ(off_erebor->operations, on_erebor->operations) << name;
    EXPECT_EQ(off_erebor->total_cycles, on_erebor->total_cycles) << name;
    EXPECT_EQ(off_erebor->emc_count, on_erebor->emc_count) << name;
  }
}

// ---- PteRevokesPermissions classification ----

TEST(PteRevokesPermissionsTest, ClassifiesTransitions) {
  const Pte rw = pte::Make(100, pte::kPresent | pte::kWritable);
  EXPECT_FALSE(PteRevokesPermissions(0, rw));              // fresh map
  EXPECT_FALSE(PteRevokesPermissions(rw, rw));             // no change
  EXPECT_TRUE(PteRevokesPermissions(rw, 0));               // unmap
  EXPECT_TRUE(PteRevokesPermissions(rw, rw & ~pte::kWritable));
  EXPECT_TRUE(PteRevokesPermissions(rw, pte::Make(101, pte::kPresent | pte::kWritable)));
  EXPECT_TRUE(PteRevokesPermissions(rw, rw | pte::kUser));
  EXPECT_TRUE(PteRevokesPermissions(rw, rw | pte::kNoExecute));
  EXPECT_TRUE(PteRevokesPermissions(rw, pte::WithPkey(rw, layout::kPtpKey)));
  EXPECT_FALSE(PteRevokesPermissions(rw, rw | pte::kAccessed));  // grant/no-op bits
}

}  // namespace
}  // namespace erebor
