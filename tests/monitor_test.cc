#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/monitor/monitor.h"
#include "src/sim/world.h"

namespace erebor {
namespace {

// ---- Verified two-stage boot (claim C1) ----

class MonitorBootTest : public testing::Test {
 protected:
  MonitorBootTest()
      : machine_(MachineConfig{.memory_frames = 48 * 1024, .num_cpus = 1}),
        tdx_(&machine_),
        host_(&machine_, &tdx_),
        monitor_(&machine_, &tdx_, &host_) {
    tdx_.SetVmcallSink(&host_);
  }

  Machine machine_;
  TdxModule tdx_;
  HostVmm host_;
  EreborMonitor monitor_;
};

TEST_F(MonitorBootTest, Stage1MeasuresFirmwareAndMonitor) {
  const Digest256 before = tdx_.measurements().mrtd;
  ASSERT_TRUE(monitor_.BootStage1(ToBytes("firmware-image")).ok());
  EXPECT_FALSE(ConstantTimeEqual(before.data(), tdx_.measurements().mrtd.data(), 32));
  EXPECT_TRUE(monitor_.stage1_done());
  // Double stage-1 is refused.
  EXPECT_FALSE(monitor_.BootStage1(ToBytes("firmware-image")).ok());
}

TEST_F(MonitorBootTest, Stage1ArmsFenceAndCet) {
  ASSERT_TRUE(monitor_.BootStage1(ToBytes("fw")).ok());
  Cpu& cpu = machine_.cpu(0);
  EXPECT_TRUE(cpu.fence_enabled());
  EXPECT_TRUE(cpu.cr4() & cr::kCr4Pks);
  EXPECT_TRUE(cpu.cr4() & cr::kCr4Cet);
  EXPECT_TRUE(*cpu.ReadMsr(msr::kIa32SCet) & msr::kCetIbtEn);
  EXPECT_EQ(cpu.pkrs(), KernelModePkrs());
}

TEST_F(MonitorBootTest, Stage2AcceptsInstrumentedKernel) {
  ASSERT_TRUE(monitor_.BootStage1(ToBytes("fw")).ok());
  KernelBuildOptions options;
  options.instrumented = true;
  const auto image = monitor_.LoadKernelImage(BuildKernelImage(options).Serialize());
  EXPECT_TRUE(image.ok());
}

TEST_F(MonitorBootTest, Stage2RejectsNativeKernel) {
  ASSERT_TRUE(monitor_.BootStage1(ToBytes("fw")).ok());
  KernelBuildOptions options;
  options.instrumented = false;  // contains real wrmsr/mov-cr/tdcall bytes
  const auto image = monitor_.LoadKernelImage(BuildKernelImage(options).Serialize());
  EXPECT_EQ(image.status().code(), ErrorCode::kPermissionDenied);
}

TEST_F(MonitorBootTest, Stage2RejectsSmuggledInstruction) {
  ASSERT_TRUE(monitor_.BootStage1(ToBytes("fw")).ok());
  KernelBuildOptions options;
  options.instrumented = true;
  options.smuggle_sensitive_op = true;
  options.smuggled_op = SensitiveOp::kTdcall;
  const auto image = monitor_.LoadKernelImage(BuildKernelImage(options).Serialize());
  EXPECT_EQ(image.status().code(), ErrorCode::kPermissionDenied);
  EXPECT_NE(image.status().message().find("tdcall"), std::string::npos);
}

TEST_F(MonitorBootTest, Stage2RejectsWritableExecutableSection) {
  ASSERT_TRUE(monitor_.BootStage1(ToBytes("fw")).ok());
  KernelImage image = BuildKernelImage(KernelBuildOptions{});
  image.sections[0].writable = true;  // make .text W+X
  EXPECT_EQ(monitor_.LoadKernelImage(image.Serialize()).status().code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(MonitorBootTest, Stage2RequiresStage1) {
  EXPECT_EQ(monitor_.LoadKernelImage(BuildKernelImage(KernelBuildOptions{}).Serialize())
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
}

// ---- Gates + Table 3 / Table 4 cost calibration ----

class EreborWorldTest : public testing::Test {
 protected:
  EreborWorldTest() {
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    world_ = std::make_unique<World>(config);
    EXPECT_TRUE(world_->Boot().ok());
  }

  std::unique_ptr<World> world_;
};

TEST_F(EreborWorldTest, EmcRoundTripMatchesTable3) {
  Cpu& cpu = world_->machine().cpu(0);
  EmcGates& gates = world_->monitor()->gates();
  const Cycles before = cpu.cycles().now();
  ASSERT_TRUE(gates.Enter(cpu).ok());
  gates.Exit(cpu);
  EXPECT_EQ(cpu.cycles().now() - before, world_->machine().costs().emc_round_trip);
}

TEST_F(EreborWorldTest, GatesFlipPkrsAndMonitorContext) {
  Cpu& cpu = world_->machine().cpu(0);
  EmcGates& gates = world_->monitor()->gates();
  EXPECT_EQ(cpu.pkrs(), KernelModePkrs());
  EXPECT_FALSE(cpu.in_monitor());
  ASSERT_TRUE(gates.Enter(cpu).ok());
  EXPECT_EQ(cpu.pkrs(), MonitorModePkrs());
  EXPECT_TRUE(cpu.in_monitor());
  gates.Exit(cpu);
  EXPECT_EQ(cpu.pkrs(), KernelModePkrs());
  EXPECT_FALSE(cpu.in_monitor());
}

TEST_F(EreborWorldTest, IbtBlocksJumpIntoMonitorBody) {
  // Claim C4: forward control flow can only land on the entry gate's endbr64.
  Cpu& cpu = world_->machine().cpu(0);
  EmcGates& gates = world_->monitor()->gates();
  EXPECT_TRUE(cpu.IndirectBranch(gates.entry_label()).ok());
  const Status blocked = cpu.IndirectBranch(gates.internal_label());
  EXPECT_EQ(blocked.code(), ErrorCode::kPermissionDenied);
}

TEST_F(EreborWorldTest, IntGateRevokesPermissionsDuringEmc) {
  Cpu& cpu = world_->machine().cpu(0);
  EmcGates& gates = world_->monitor()->gates();
  ASSERT_TRUE(gates.Enter(cpu).ok());
  gates.InterruptSave(cpu);
  // While the (untrusted) interrupt handler runs, monitor memory is revoked.
  EXPECT_EQ(cpu.pkrs(), KernelModePkrs());
  EXPECT_FALSE(cpu.in_monitor());
  gates.InterruptRestore(cpu);
  EXPECT_EQ(cpu.pkrs(), MonitorModePkrs());
  EXPECT_TRUE(cpu.in_monitor());
  gates.Exit(cpu);
}

TEST_F(EreborWorldTest, PrivilegedOpCostsMatchTable4) {
  Cpu& cpu = world_->machine().cpu(0);
  PrivilegedOps& ops = world_->privops();
  const CycleModel& costs = world_->machine().costs();

  // MMU: PTE write through EMC = 1345 cycles.
  const auto ptp = world_->kernel().pool().Alloc();
  ASSERT_TRUE(ptp.ok());
  ASSERT_TRUE(ops.RegisterPtp(cpu, *ptp, AddrOf(*ptp)).ok());
  Cycles before = cpu.cycles().now();
  ASSERT_TRUE(ops.WritePte(cpu, AddrOf(*ptp), 0).ok());
  EXPECT_EQ(cpu.cycles().now() - before, costs.EreborPteTotal());
  EXPECT_EQ(costs.EreborPteTotal(), 1345u);

  // CR: 1593 cycles.
  before = cpu.cycles().now();
  ASSERT_TRUE(ops.WriteCr(cpu, 3, cpu.cr3()).ok());
  EXPECT_EQ(cpu.cycles().now() - before, costs.EreborCrTotal());
  EXPECT_EQ(costs.EreborCrTotal(), 1593u);

  // MSR: 1613 cycles.
  before = cpu.cycles().now();
  ASSERT_TRUE(ops.WriteMsr(cpu, msr::kIa32ApicTimer, 1).ok());
  EXPECT_EQ(cpu.cycles().now() - before, costs.EreborMsrTotal());
  EXPECT_EQ(costs.EreborMsrTotal(), 1613u);

  // IDT: 1369 cycles.
  before = cpu.cycles().now();
  ASSERT_TRUE(ops.LoadIdt(cpu, &world_->kernel().kernel_idt()).ok());
  EXPECT_EQ(cpu.cycles().now() - before, costs.EreborIdtTotal());
  EXPECT_EQ(costs.EreborIdtTotal(), 1369u);

  // SMAP (usercopy window): 1291 cycles + the native stac pair charged inside.
  EXPECT_EQ(costs.EreborStacTotal(), 1291u);

  // GHCI TDREPORT total: 128081 cycles.
  EXPECT_EQ(costs.EreborTdreportTotal(), 128081u);
}

TEST_F(EreborWorldTest, Table3RatiosHold) {
  const CycleModel& costs = world_->machine().costs();
  EXPECT_EQ(costs.emc_round_trip, 1224u);
  EXPECT_EQ(costs.syscall_round_trip, 684u);
  EXPECT_EQ(costs.tdcall_round_trip, 5276u);
  EXPECT_EQ(costs.vmcall_round_trip, 4031u);
  EXPECT_NEAR(static_cast<double>(costs.tdcall_round_trip) / costs.emc_round_trip, 4.31,
              0.01);
  EXPECT_NEAR(static_cast<double>(costs.syscall_round_trip) / costs.emc_round_trip, 0.56,
              0.01);
}

// ---- MMU policy (claims C2/C3/C6/C7) ----

TEST_F(EreborWorldTest, KernelCannotWritePteOutsidePtpFrames) {
  Cpu& cpu = world_->machine().cpu(0);
  // A data frame is not a PTP: PTE stores into it are refused.
  const auto frame = world_->kernel().pool().Alloc();
  ASSERT_TRUE(frame.ok());
  const Status st = world_->privops().WritePte(cpu, AddrOf(*frame), pte::kPresent);
  EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied);
}

TEST_F(EreborWorldTest, KernelCannotMapMonitorMemoryUser) {
  MmuPolicy& policy = world_->monitor()->policy();
  // Build a fake level-1 PTP to host the attempted mapping.
  FrameTable& frames = world_->monitor()->frame_table();
  const auto ptp = world_->kernel().pool().Alloc();
  ASSERT_TRUE(ptp.ok());
  frames.info(*ptp).type = FrameType::kPtp;
  frames.info(*ptp).ptp_level = 1;

  const Pte value = pte::Make(layout::kMonitorFirstFrame,
                              pte::kPresent | pte::kUser | pte::kWritable);
  const PolicyDecision decision = policy.CheckPteWrite(AddrOf(*ptp), value);
  EXPECT_FALSE(decision.allowed);
}

TEST_F(EreborWorldTest, MonitorFramesGetMonitorKeyOnSupervisorMapping) {
  MmuPolicy& policy = world_->monitor()->policy();
  FrameTable& frames = world_->monitor()->frame_table();
  const auto ptp = world_->kernel().pool().Alloc();
  ASSERT_TRUE(ptp.ok());
  frames.info(*ptp).type = FrameType::kPtp;
  frames.info(*ptp).ptp_level = 1;

  const Pte value = pte::Make(layout::kMonitorFirstFrame,
                              pte::kPresent | pte::kWritable | pte::kNoExecute);
  const PolicyDecision decision = policy.CheckPteWrite(AddrOf(*ptp), value);
  ASSERT_TRUE(decision.allowed);
  EXPECT_EQ(pte::Pkey(decision.adjusted_value), layout::kMonitorKey);
}

TEST_F(EreborWorldTest, KernelTextNeverWritable) {
  MmuPolicy& policy = world_->monitor()->policy();
  FrameTable& frames = world_->monitor()->frame_table();
  const auto ptp = world_->kernel().pool().Alloc();
  ASSERT_TRUE(ptp.ok());
  frames.info(*ptp).type = FrameType::kPtp;
  frames.info(*ptp).ptp_level = 1;

  const Pte value = pte::Make(layout::kKernelTextFirstFrame,
                              pte::kPresent | pte::kWritable | pte::kNoExecute);
  const PolicyDecision decision = policy.CheckPteWrite(AddrOf(*ptp), value);
  ASSERT_TRUE(decision.allowed);
  EXPECT_FALSE(pte::Writable(decision.adjusted_value));  // W stripped
}

TEST_F(EreborWorldTest, PolicyRejectsKernelChosenProtectionKeys) {
  MmuPolicy& policy = world_->monitor()->policy();
  FrameTable& frames = world_->monitor()->frame_table();
  const auto ptp = world_->kernel().pool().Alloc();
  ASSERT_TRUE(ptp.ok());
  frames.info(*ptp).type = FrameType::kPtp;
  frames.info(*ptp).ptp_level = 1;

  const auto target = world_->kernel().pool().Alloc();
  ASSERT_TRUE(target.ok());
  const Pte value = pte::WithPkey(
      pte::Make(*target, pte::kPresent | pte::kNoExecute), layout::kMonitorKey);
  EXPECT_FALSE(policy.CheckPteWrite(AddrOf(*ptp), value).allowed);
}

TEST_F(EreborWorldTest, PolicyRejectsWxMappings) {
  MmuPolicy& policy = world_->monitor()->policy();
  FrameTable& frames = world_->monitor()->frame_table();
  const auto ptp = world_->kernel().pool().Alloc();
  ASSERT_TRUE(ptp.ok());
  frames.info(*ptp).type = FrameType::kPtp;
  frames.info(*ptp).ptp_level = 1;

  const auto target = world_->kernel().pool().Alloc();
  ASSERT_TRUE(target.ok());
  // Supervisor write+execute refused.
  EXPECT_FALSE(policy
                   .CheckPteWrite(AddrOf(*ptp),
                                  pte::Make(*target, pte::kPresent | pte::kWritable))
                   .allowed);
  // Writable + NX is fine.
  EXPECT_TRUE(policy
                  .CheckPteWrite(AddrOf(*ptp),
                                 pte::Make(*target, pte::kPresent | pte::kWritable |
                                                        pte::kNoExecute))
                  .allowed);
}

TEST_F(EreborWorldTest, PolicyRejectsHugePages) {
  MmuPolicy& policy = world_->monitor()->policy();
  FrameTable& frames = world_->monitor()->frame_table();
  const auto ptp = world_->kernel().pool().Alloc();
  ASSERT_TRUE(ptp.ok());
  frames.info(*ptp).type = FrameType::kPtp;
  frames.info(*ptp).ptp_level = 2;
  const auto target = world_->kernel().pool().Alloc();
  ASSERT_TRUE(target.ok());
  EXPECT_FALSE(policy
                   .CheckPteWrite(AddrOf(*ptp),
                                  pte::Make(*target, pte::kPresent | pte::kPageSize))
                   .allowed);
}

TEST_F(EreborWorldTest, CrPolicyPinsProtectionBits) {
  Cpu& cpu = world_->machine().cpu(0);
  PrivilegedOps& ops = world_->privops();
  // Clearing CR0.WP refused.
  EXPECT_EQ(ops.WriteCr(cpu, 0, 0).code(), ErrorCode::kPermissionDenied);
  // Clearing CR4 SMEP/SMAP/PKS/CET refused.
  EXPECT_EQ(ops.WriteCr(cpu, 4, 0).code(), ErrorCode::kPermissionDenied);
  // CR3 to a non-PTP frame refused.
  const auto frame = world_->kernel().pool().Alloc();
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(ops.WriteCr(cpu, 3, AddrOf(*frame)).code(), ErrorCode::kPermissionDenied);
}

TEST_F(EreborWorldTest, MsrPolicyProtectsMonitorOwnedMsrs) {
  Cpu& cpu = world_->machine().cpu(0);
  PrivilegedOps& ops = world_->privops();
  EXPECT_EQ(ops.WriteMsr(cpu, msr::kIa32Pkrs, 0).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(ops.WriteMsr(cpu, msr::kIa32SCet, 0).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(ops.WriteMsr(cpu, msr::kIa32Pl0Ssp, 0).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(ops.WriteMsr(cpu, msr::kIa32UintrTt, 1).code(), ErrorCode::kPermissionDenied);
}

TEST_F(EreborWorldTest, LstarWriteKeepsMonitorStubInFront) {
  Cpu& cpu = world_->machine().cpu(0);
  const uint64_t effective = *cpu.ReadMsr(msr::kIa32Lstar);
  // The kernel wrote its entry at boot, but the monitor pinned its own stub.
  const CodeLabel* label = cpu.registry().Lookup(static_cast<CodeLabelId>(effective));
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(label->name, "monitor_syscall_stub");
}

TEST_F(EreborWorldTest, IdtReplacementRefused) {
  Cpu& cpu = world_->machine().cpu(0);
  IdtTable evil;
  EXPECT_EQ(world_->privops().LoadIdt(cpu, &evil).code(), ErrorCode::kPermissionDenied);
}

TEST_F(EreborWorldTest, AttestationTdcallsReservedForMonitor) {
  Cpu& cpu = world_->machine().cpu(0);
  uint64_t args[2] = {0x1000, 0x2000};
  EXPECT_EQ(world_->privops().Tdcall(cpu, tdcall_leaf::kTdReport, args, 2).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(world_->privops().Tdcall(cpu, tdcall_leaf::kRtmrExtend, args, 2).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(EreborWorldTest, SharedConversionRestrictedToIoWindow) {
  Cpu& cpu = world_->machine().cpu(0);
  // Inside the shared-IO window: allowed.
  uint64_t ok_args[3] = {AddrOf(layout::kSharedIoFirstFrame + 10), 1, 1};
  EXPECT_TRUE(world_->privops().Tdcall(cpu, tdcall_leaf::kMapGpa, ok_args, 3).ok());
  // Kernel or monitor memory: refused.
  uint64_t bad_args[3] = {AddrOf(layout::kMonitorFirstFrame), 1, 1};
  EXPECT_EQ(world_->privops().Tdcall(cpu, tdcall_leaf::kMapGpa, bad_args, 3).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(EreborWorldTest, TextPokeValidatesPatches) {
  Cpu& cpu = world_->machine().cpu(0);
  // Patch in the zero-filled tail of the text region (away from loaded bytes).
  const Paddr text_pa = AddrOf(layout::kKernelTextFirstFrame + 200) + 64;
  // Benign patch accepted.
  const Bytes nops(4, 0x90);
  EXPECT_TRUE(world_->privops().TextPoke(cpu, text_pa, nops.data(), nops.size()).ok());
  // Patch introducing wrmsr rejected.
  const Bytes evil = EncodeSensitiveOp(SensitiveOp::kWrmsr);
  EXPECT_EQ(world_->privops().TextPoke(cpu, text_pa, evil.data(), evil.size()).code(),
            ErrorCode::kPermissionDenied);
  // Patch outside kernel text rejected.
  EXPECT_EQ(world_->privops()
                .TextPoke(cpu, AddrOf(layout::kGeneralPoolFirstFrame), nops.data(),
                          nops.size())
                .code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(EreborWorldTest, TextPokeCatchesBoundaryStraddle) {
  Cpu& cpu = world_->machine().cpu(0);
  const Paddr text_pa = AddrOf(layout::kKernelTextFirstFrame + 210) + 128;
  // Seed the byte before the patch with 0x0F, then patch in 0x30 -> forms wrmsr.
  const uint8_t prefix = 0x0F;
  ASSERT_TRUE(world_->privops().TextPoke(cpu, text_pa - 1, &prefix, 1).ok());
  const uint8_t tail = 0x30;
  EXPECT_EQ(world_->privops().TextPoke(cpu, text_pa, &tail, 1).code(),
            ErrorCode::kPermissionDenied);
}

// ---- #INT gate nesting (satellite: per-CPU PKRS save stack) ----

TEST_F(EreborWorldTest, NestedInterruptGatesRestoreInOrder) {
  Cpu& cpu = world_->machine().cpu(0);
  EmcGates& gates = world_->monitor()->gates();
  ASSERT_TRUE(gates.Enter(cpu).ok());
  EXPECT_EQ(gates.interrupt_depth(0), 0u);

  gates.InterruptSave(cpu);  // first interrupt arrives mid-EMC
  EXPECT_EQ(gates.interrupt_depth(0), 1u);
  EXPECT_EQ(cpu.pkrs(), KernelModePkrs());
  EXPECT_FALSE(cpu.in_monitor());

  gates.InterruptSave(cpu);  // nested interrupt preempts the first handler
  EXPECT_EQ(gates.interrupt_depth(0), 2u);
  EXPECT_EQ(cpu.pkrs(), KernelModePkrs());

  // Inner iret returns to the *outer handler*, which runs in the kernel view. With
  // the pre-fix single save slot the nested save clobbered the outer one and this
  // restore flipped the CPU into monitor context one level too early.
  gates.InterruptRestore(cpu);
  EXPECT_EQ(gates.interrupt_depth(0), 1u);
  EXPECT_EQ(cpu.pkrs(), KernelModePkrs());
  EXPECT_FALSE(cpu.in_monitor());

  // Outermost iret re-grants the monitor view that was interrupted.
  gates.InterruptRestore(cpu);
  EXPECT_EQ(gates.interrupt_depth(0), 0u);
  EXPECT_EQ(cpu.pkrs(), MonitorModePkrs());
  EXPECT_TRUE(cpu.in_monitor());
  gates.Exit(cpu);
}

TEST_F(EreborWorldTest, UnbalancedInterruptRestoreRefused) {
  Cpu& cpu = world_->machine().cpu(0);
  EmcGates& gates = world_->monitor()->gates();
  const uint64_t before =
      MetricsRegistry::Global().Value("gates.unbalanced_int_restore");
  // A hostile kernel jumps to the #INT restore gate without a prior save. Pre-fix
  // this restored a stale slot (zero == monitor PKRS) and set monitor context —
  // a PKS grant the OS never legitimately held.
  gates.InterruptRestore(cpu);
  EXPECT_EQ(cpu.pkrs(), KernelModePkrs());
  EXPECT_FALSE(cpu.in_monitor());
  EXPECT_EQ(MetricsRegistry::Global().Value("gates.unbalanced_int_restore"),
            before + 1);
}

TEST_F(EreborWorldTest, FenceBlocksDirectSensitiveInstructions) {
  // Claim C1/C2: the deprivileged kernel has no direct path to sensitive
  // instructions; the vCPU fence models the scan + W^X + SMEP guarantees.
  Cpu& cpu = world_->machine().cpu(0);
  EXPECT_FALSE(cpu.WriteMsr(msr::kIa32Lstar, 0).ok());
  EXPECT_FALSE(cpu.WriteCr4(cpu.cr4()).ok());
  EXPECT_FALSE(cpu.Stac().ok());
  uint64_t args[3] = {0, 0, 0};
  EXPECT_FALSE(cpu.Tdcall(tdcall_leaf::kVmcall, args, 3).ok());
}

}  // namespace
}  // namespace erebor
