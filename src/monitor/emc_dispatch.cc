// The table-driven EMC dispatch core plus every MMU/sandbox-surface EMC body.
// Attestation-side EMCs live in attestation.cc; exit interposition and the
// /dev/erebor driver live in interposition.cc. monitor.cc keeps boot/lifecycle.
#include <cstring>

#include "src/common/exec.h"
#include "src/common/faultpoint.h"
#include "src/common/log.h"
#include "src/monitor/monitor.h"

namespace erebor {

namespace {

// ---- Argument validators (pure functions of EmcArgs; stateful policy checks
// stay in the handler bodies). Every descriptor names one, even when it is
// trivially Ok — the completeness test asserts validate != nullptr.

EmcValidation ValidateOk(const EmcArgs&) { return EmcValidation{OkStatus(), false}; }

EmcValidation ValidateWriteCr(const EmcArgs& args) {
  if (args.reg != 0 && args.reg != 3 && args.reg != 4) {
    return EmcValidation{InvalidArgumentError("EMC WriteCr: no such control register cr" +
                                              std::to_string(args.reg)),
                         /*count_denial=*/true};
  }
  return EmcValidation{OkStatus(), false};
}

EmcValidation ValidateLoadIdt(const EmcArgs& args) {
  if (args.ptr == nullptr) {
    return EmcValidation{InvalidArgumentError("EMC LoadIdt: null IDT"), false};
  }
  return EmcValidation{OkStatus(), false};
}

EmcValidation ValidateTdcall(const EmcArgs& args) {
  switch (args.leaf) {
    case tdcall_leaf::kTdReport:
    case tdcall_leaf::kRtmrExtend:
      // Attestation interfaces are exclusively the monitor's (claim C5): the
      // kernel cannot obtain digests to impersonate the monitor.
      return EmcValidation{
          PermissionDeniedError("attestation tdcall reserved for the monitor"),
          /*count_denial=*/true};
    case tdcall_leaf::kMapGpa:
      if (args.nargs < 3) {
        return EmcValidation{InvalidArgumentError("map-gpa needs 3 args"), false};
      }
      return EmcValidation{OkStatus(), false};
    default:
      return EmcValidation{OkStatus(), false};
  }
}

EmcValidation ValidateLoadModule(const EmcArgs& args) {
  if (args.len == 0) {
    return EmcValidation{InvalidArgumentError("empty module"), false};
  }
  return EmcValidation{OkStatus(), false};
}

// Ring-doorbell structural screen: args.count is the submission-window size
// (sq_tail - shadow_sq_head), args.len the completion backlog (shadow_cq_tail -
// cq_head), both computed from a single snapshot of the untrusted indexes. A
// window or backlog larger than the ring means the kernel wrapped or forged an
// index — Garmr-class gate-entry abuse, counted as a denial (the caller adds a
// strike).
EmcValidation ValidateRingDoorbell(const EmcArgs& args) {
  if (args.count == 0) {
    return EmcValidation{InvalidArgumentError("ring doorbell with empty submission window"),
                         false};
  }
  if (args.count > EmcRing::kSlots) {
    return EmcValidation{
        OutOfRangeError("SQ window exceeds ring capacity (wrapped or forged tail)"),
        /*count_denial=*/true};
  }
  if (args.len > EmcRing::kSlots) {
    return EmcValidation{
        OutOfRangeError("CQ head ahead of tail (forged consumer index)"),
        /*count_denial=*/true};
  }
  return EmcValidation{OkStatus(), false};
}

using Table = std::array<EmcDescriptor, static_cast<size_t>(EmcOp::kCount)>;

Table BuildTable() {
  Table table{};
  auto row = [&table](EmcDescriptor d) {
    table[static_cast<size_t>(d.op)] = d;
  };
  row({EmcOp::kWritePte, "write_pte", "emc.write_pte", TraceEvent::kEmcPte,
       &CycleModel::monitor_pte_op, &MonitorCounters::emc_pte,
       /*requires_attached_kernel=*/false, /*locks_monitor_state=*/false,
       /*locks_target_sandbox=*/false, /*locks_frame_shards=*/true, ValidateOk});
  row({EmcOp::kRegisterPtp, "register_ptp", "emc.register_ptp",
       TraceEvent::kEmcPtpRegister, &CycleModel::monitor_pte_op,
       &MonitorCounters::emc_ptp_register, false, false, false, true, ValidateOk});
  row({EmcOp::kWriteCr, "write_cr", "emc.write_cr", TraceEvent::kEmcCr,
       &CycleModel::monitor_cr_op, &MonitorCounters::emc_cr, false, true, false,
       false, ValidateWriteCr});
  row({EmcOp::kWriteMsr, "write_msr", "emc.write_msr", TraceEvent::kEmcMsr,
       &CycleModel::monitor_msr_op, &MonitorCounters::emc_msr, false, true, false,
       false, ValidateOk});
  row({EmcOp::kLoadIdt, "load_idt", "emc.load_idt", TraceEvent::kEmcIdt,
       &CycleModel::monitor_idt_op, &MonitorCounters::emc_idt, false, true, false,
       false, ValidateLoadIdt});
  row({EmcOp::kCopyToUser, "copy_to_user", "emc.copy_to_user",
       TraceEvent::kEmcUserCopy, &CycleModel::monitor_stac_op,
       &MonitorCounters::emc_usercopy, false, false, false, false, ValidateOk});
  row({EmcOp::kCopyFromUser, "copy_from_user", "emc.copy_from_user",
       TraceEvent::kEmcUserCopy, &CycleModel::monitor_stac_op,
       &MonitorCounters::emc_usercopy, false, false, false, false, ValidateOk});
  row({EmcOp::kTdcall, "tdcall", "emc.tdcall", TraceEvent::kEmcTdcall,
       &CycleModel::monitor_tdreport_op, &MonitorCounters::emc_tdcall, false, true,
       false, false, ValidateTdcall});
  row({EmcOp::kTextPoke, "text_poke", "emc.text_poke", TraceEvent::kEmcTextPoke,
       &CycleModel::monitor_pte_op, &MonitorCounters::emc_text_poke, false, true,
       false, false, ValidateOk});
  row({EmcOp::kRingDoorbell, "ring_doorbell", "emc.ring_doorbell",
       TraceEvent::kEmcRingDoorbell, &CycleModel::monitor_ring_op,
       &MonitorCounters::emc_ring, /*requires_attached_kernel=*/false,
       /*locks_monitor_state=*/false, /*locks_target_sandbox=*/true,
       /*locks_frame_shards=*/true, ValidateRingDoorbell});
  row({EmcOp::kLoadKernelModule, "load_kernel_module", "emc.load_kernel_module",
       TraceEvent::kEmcTextPoke, &CycleModel::page_copy,
       &MonitorCounters::emc_text_poke, /*requires_attached_kernel=*/true, true,
       false, false, ValidateLoadModule});
  row({EmcOp::kSandboxOp, "sandbox_op", "emc.sandbox_op", TraceEvent::kEmcSandboxOp,
       &CycleModel::monitor_pte_op, &MonitorCounters::emc_sandbox, false, false,
       /*locks_target_sandbox=*/true, false, ValidateOk});
  row({EmcOp::kChannelOp, "channel_op", "emc.channel_op", TraceEvent::kEmcChannelOp,
       &CycleModel::monitor_channel_op, nullptr, false, false,
       /*locks_target_sandbox=*/true, false, ValidateOk});
  return table;
}

}  // namespace

const Table& EmcDescriptorTable() {
  static const Table* table = new Table(BuildTable());
  return *table;
}

const EmcDescriptor& EmcDescriptorFor(EmcOp op) {
  return EmcDescriptorTable()[static_cast<size_t>(op)];
}

// ---- The single gated-dispatch path ----

Status EreborMonitor::EmcDispatch(Cpu& cpu, const EmcCall& call,
                                  const std::function<Status()>& body) {
  const EmcDescriptor& d = EmcDescriptorFor(call.op);
  // Family counters count *requests*, successful or not, and always did so
  // before the gate (a refused entry still shows up in the family's rate).
  if (d.family_counter != nullptr) {
    CounterAdd(counters_.*(d.family_counter));
  }
  if (d.requires_attached_kernel && kernel_ == nullptr) {
    return FailedPreconditionError(std::string(d.name) +
                                   " requires an attached kernel");
  }
  if (FaultInjector::Armed() &&
      FaultInjector::Global().Fire(d.fault_site, FaultAction::kFail)) {
    // Injected transient refusal at the EMC doorstep (e.g. the host yanked the
    // vCPU on the crossing). kUnavailable: callers with retry loops absorb it.
    return UnavailableError(std::string("injected EMC fault at ") + d.fault_site);
  }

  Status enter = gates_->Enter(cpu);
  // A transient (kUnavailable) entry refusal — e.g. an injected host preemption on
  // the crossing instruction — is absorbed here with a bounded re-entry: the gate is
  // stateless until entry completes, so re-executing the crossing is always safe.
  // Real security failures (IBT/#CP) propagate unchanged.
  for (int attempt = 0;
       !enter.ok() && enter.code() == ErrorCode::kUnavailable && attempt < 3;
       ++attempt) {
    enter = gates_->Enter(cpu);
    if (enter.ok()) {
      NoteFaultRecovered();
    }
  }
  EREBOR_RETURN_IF_ERROR(enter);

  // Lock plan: kGlobal takes the one big lock; kSharded takes sandbox ->
  // monitor-state -> frame shards in ascending rank (LockAudit enforces it).
  const bool simulate = locks_.simulate_contention();
  std::vector<SimLockGuard> guards;
  if (locks_.mode() == EmcLocking::kGlobal) {
    guards.emplace_back(&locks_.global(), &cpu, simulate);
  } else {
    if (d.locks_target_sandbox && call.sandbox_id >= 0) {
      Sandbox* target = sandbox_mgr_->Find(call.sandbox_id);
      if (target != nullptr) {
        guards.emplace_back(&target->lock, &cpu, simulate);
      }
    }
    if (d.locks_monitor_state) {
      guards.emplace_back(&locks_.monitor_state(), &cpu, simulate);
    }
    if (d.locks_frame_shards) {
      for (int i = 0; i < EmcLockTable::kFrameShards; ++i) {
        if ((call.shard_mask >> i) & 1u) {
          guards.emplace_back(&locks_.shard(i), &cpu, simulate);
        }
      }
    }
  }
  auto release_locks = [&guards]() {
    for (auto it = guards.rbegin(); it != guards.rend(); ++it) {
      it->reset();
    }
  };

  const Cycles unit =
      call.has_unit_override ? call.unit_override : cpu.costs().*(d.unit_cost);
  const Cycles op_cycles = unit * call.cost_units + call.extra_cycles;
  cpu.cycles().Charge(op_cycles);
  CounterAdd(counters_.emc_total);
  Tracer::Global().Record(d.trace_event, cpu.index(), cpu.cycles().now(),
                          call.sandbox_id, op_cycles);

  const EmcValidation validation = d.validate(call.args);
  if (!validation.status.ok()) {
    if (validation.count_denial) {
      NoteDenial(cpu);
    }
    release_locks();
    gates_->Exit(cpu);
    return validation.status;
  }

  const Status status = body();
  release_locks();
  gates_->Exit(cpu);
  return status;
}

void EreborMonitor::NoteDenial(Cpu& cpu) {
  CounterAdd(counters_.policy_denials);
  Tracer::Global().Record(TraceEvent::kPolicyDenial, cpu.index(), cpu.cycles().now());
}

void EreborMonitor::ShootdownAfterPteWrite(Cpu& cpu, Paddr entry_pa, Pte old_value,
                                           Pte new_value) {
  // Conservative predicate: any change to a previously present entry. The security-
  // critical subset is PteRevokesPermissions(), but grant-only rewrites are also
  // invalidated so cached WalkResults never diverge from the tables.
  if (!pte::Present(old_value) || old_value == new_value) {
    return;
  }
  CounterAdd(counters_.tlb_shootdowns);
  if (Tlb::hooks().pte_shootdown) {
    machine_->ShootdownTlbLeaf(entry_pa, cpu.index());
  }
}

// ---- MMU / monitor-state EMC bodies ----

// The policy/apply sequence shared by the synchronous EmcWritePte and the ring
// drain (emc_ring.cc). `deferred` non-null defers the post-write shootdown into
// the batch for coalescing; null keeps the immediate per-write broadcast. The
// ring path cannot take the huge-page split (it allocates and relinks under a
// different lock footprint than the drain planned for), so it is refused there
// and routed to the synchronous path.
Status EreborMonitor::WritePteBodyLocked(Cpu& cpu, Paddr entry_pa, Pte value,
                                         TlbShootdownBatch* deferred) {
  const PolicyDecision decision = policy_->CheckPteWrite(entry_pa, value);
  if (decision.needs_split) {
    if (deferred != nullptr) {
      NoteDenial(cpu);
      return PermissionDeniedError(
          "huge-page splits require the synchronous write_pte path");
    }
    return SplitHugePageLocked(cpu, entry_pa, value);
  }
  if (!decision.allowed) {
    NoteDenial(cpu);
    return PermissionDeniedError("EMC WritePte refused: " + decision.denial_reason);
  }
  LockAudit::Global().ExpectFrameShardHeld(cpu.index(),
                                           EmcLockTable::ShardOf(FrameOf(entry_pa)));
  const Pte old = machine_->memory().Read64(entry_pa);
  machine_->memory().Write64(entry_pa, decision.adjusted_value);
  policy_->NoteLeafWrite(old, decision.adjusted_value, entry_pa);
  if (deferred == nullptr) {
    ShootdownAfterPteWrite(cpu, entry_pa, old, decision.adjusted_value);
  } else if (pte::Present(old) && old != decision.adjusted_value) {
    deferred->Add(entry_pa);
  }
  return OkStatus();
}

Status EreborMonitor::EmcWritePte(Cpu& cpu, Paddr entry_pa, Pte value) {
  EmcCall call{};
  call.op = EmcOp::kWritePte;
  call.args.entry_pa = entry_pa;
  call.args.value = value;
  call.shard_mask = 1ull << EmcLockTable::ShardOf(FrameOf(entry_pa));
  return EmcDispatch(cpu, call, [&]() -> Status {
    return WritePteBodyLocked(cpu, entry_pa, value, /*deferred=*/nullptr);
  });
}

Status EreborMonitor::SplitHugePageLocked(Cpu& cpu, Paddr entry_pa, Pte huge_value) {
  // Forced huge-page splitting (paper section 7 future work): materialize a level-1
  // table of 512 4 KiB mappings in place of the requested 2 MiB leaf, so per-page
  // protection keys (monitor/PTP/text) remain enforceable inside the range.
  if (kernel_ == nullptr) {
    return FailedPreconditionError("split requires an attached kernel (frame pool)");
  }
  const FrameNum base = pte::Frame(huge_value) & ~0x1FFULL;  // 2 MiB aligned
  const Pte small_flags = (huge_value & ~(pte::kPageSize | pte::kFrameMask));

  EREBOR_ASSIGN_OR_RETURN(const FrameNum ptp, kernel_->pool().Alloc());
  machine_->memory().ZeroFrame(ptp);
  machine_->memory().FramePtr(ptp);
  FrameInfo& ptp_info = frame_table_->info(ptp);
  ptp_info.type = FrameType::kPtp;
  ptp_info.ptp_level = 1;
  ptp_info.ptp_root = frame_table_->info(FrameOf(entry_pa)).ptp_root;
  // The pool frame usually still has a default-key direct-map leaf: re-key it now or
  // the kernel could forge entries in the new table through that old mapping.
  EREBOR_RETURN_IF_ERROR(
      policy_->RetrofitTag(&cpu, machine_->memory(), ptp, ProtClass::kPtp, false));

  // Validate + install every 4 KiB entry through the normal policy (this is the whole
  // point: per-page rules apply inside the former huge page).
  for (uint64_t i = 0; i < kPteEntries; ++i) {
    const Pte small = pte::Make(base + i, small_flags);
    const Paddr slot = AddrOf(ptp) + i * sizeof(Pte);
    const PolicyDecision decision = policy_->CheckPteWrite(slot, small);
    if (!decision.allowed) {
      NoteDenial(cpu);
      // Roll back the subpage entries already installed: their NoteLeafWrite map
      // counts must be undone before the PTP frame is freed, or the frame table
      // permanently over-counts mappings of frames in this range.
      for (uint64_t j = 0; j < i; ++j) {
        const Paddr done_slot = AddrOf(ptp) + j * sizeof(Pte);
        const Pte installed = machine_->memory().Read64(done_slot);
        machine_->memory().Write64(done_slot, 0);
        policy_->NoteLeafWrite(installed, 0, done_slot);
      }
      (void)kernel_->pool().Free(ptp);
      // Restore normal typing and the default-key direct-map leaf, but keep the
      // reverse-map fields: the direct map still references this frame.
      ptp_info.type = FrameType::kNormal;
      ptp_info.ptp_level = 0;
      ptp_info.ptp_root = 0;
      (void)policy_->RetrofitTag(&cpu, machine_->memory(), ptp, ProtClass::kDefault,
                                 false);
      return PermissionDeniedError("huge-page split refused at subpage " +
                                   std::to_string(i) + ": " + decision.denial_reason);
    }
    machine_->memory().Write64(slot, decision.adjusted_value);
    policy_->NoteLeafWrite(0, decision.adjusted_value, slot);
  }
  cpu.cycles().Charge(kPteEntries * cpu.costs().monitor_pte_op);

  // Link the new table where the huge leaf would have gone.
  Pte inter = pte::Make(ptp, pte::kPresent | pte::kWritable);
  if (pte::User(huge_value)) {
    inter |= pte::kUser;
  }
  const Pte old = machine_->memory().Read64(entry_pa);
  machine_->memory().Write64(entry_pa, inter);
  policy_->NoteLeafWrite(old, inter);
  // The former huge leaf may be cached; the relinked intermediate changes every
  // translation under it.
  ShootdownAfterPteWrite(cpu, entry_pa, old, inter);
  CounterAdd(counters_.huge_splits);
  return OkStatus();
}

// Shared by the synchronous EmcRegisterPtp and the ring drain.
Status EreborMonitor::RegisterPtpBodyLocked(Cpu& cpu, FrameNum frame, Paddr root_pa) {
  if (frame >= frame_table_->size()) {
    return OutOfRangeError("PTP frame beyond physical memory");
  }
  FrameInfo& info = frame_table_->info(frame);
  if (info.type != FrameType::kNormal) {
    NoteDenial(cpu);
    return PermissionDeniedError("cannot re-type " + FrameTypeName(info.type) +
                                 " frame as PTP");
  }
  LockAudit::Global().ExpectFrameShardHeld(cpu.index(), EmcLockTable::ShardOf(frame));
  // A PTP must start zeroed so no stale attacker-chosen entries become live.
  machine_->memory().ZeroFrame(frame);
  info.type = FrameType::kPtp;
  info.ptp_root = root_pa;
  // A frame registered as its own root is a PML4; others are linked (and get their
  // level) when an intermediate entry first points at them.
  info.ptp_level = AddrOf(frame) == root_pa ? 4 : 0;
  // The frame may already be mapped (direct map, default key): retrofit the PTP key
  // so the kernel cannot write the new page table through the old mapping.
  EREBOR_RETURN_IF_ERROR(policy_->RetrofitTag(&cpu, machine_->memory(), frame,
                                              ProtClass::kPtp, /*strip_write=*/false));
  return OkStatus();
}

Status EreborMonitor::EmcRegisterPtp(Cpu& cpu, FrameNum frame, Paddr root_pa) {
  EmcCall call{};
  call.op = EmcOp::kRegisterPtp;
  call.args.frame = frame;
  call.args.root_pa = root_pa;
  call.shard_mask = 1ull << EmcLockTable::ShardOf(frame);
  return EmcDispatch(cpu, call, [&]() -> Status {
    return RegisterPtpBodyLocked(cpu, frame, root_pa);
  });
}

Status EreborMonitor::EmcWriteCr(Cpu& cpu, int reg, uint64_t value) {
  EmcCall call{};
  call.op = EmcOp::kWriteCr;
  call.args.reg = reg;
  call.args.value = value;
  return EmcDispatch(cpu, call, [&]() -> Status {
    const uint64_t current = reg == 0 ? cpu.cr0() : reg == 3 ? cpu.cr3() : cpu.cr4();
    EREBOR_RETURN_IF_ERROR(policy_->CheckCrWrite(reg, value, current));
    uint64_t effective = value;
    if (reg == 4) {
      // The protection bits are sticky: merge them into whatever the kernel asked for.
      effective |= isolation_->PinnedCr4();
    }
    cpu.TrustedWriteCr(reg, effective);
    return OkStatus();
  });
}

Status EreborMonitor::EmcWriteMsr(Cpu& cpu, uint32_t index, uint64_t value) {
  EmcCall call{};
  call.op = EmcOp::kWriteMsr;
  call.args.msr_index = index;
  call.args.value = value;
  return EmcDispatch(cpu, call, [&]() -> Status {
    EREBOR_RETURN_IF_ERROR(policy_->CheckMsrWrite(index));
    if (index == msr::kIa32Lstar) {
      // Record the kernel's syscall entry but keep the monitor stub in front: the
      // effective LSTAR is the monitor's interposition label.
      kernel_syscall_entry_ = static_cast<CodeLabelId>(value);
      cpu.TrustedWriteMsr(index, monitor_syscall_stub_);
      return OkStatus();
    }
    cpu.TrustedWriteMsr(index, value);
    return OkStatus();
  });
}

Status EreborMonitor::EmcLoadIdt(Cpu& cpu, const IdtTable* table) {
  EmcCall call{};
  call.op = EmcOp::kLoadIdt;
  call.args.ptr = table;
  return EmcDispatch(cpu, call, [&]() -> Status {
    if (approved_idt_ == nullptr) {
      approved_idt_ = table;  // first load: the kernel's boot-time table is recorded
    } else if (approved_idt_ != table) {
      NoteDenial(cpu);
      return PermissionDeniedError("IDT replacement refused: interposition table pinned");
    }
    cpu.TrustedLidt(table);  // the op cost is part of monitor_idt_op
    return OkStatus();
  });
}

Status EreborMonitor::EmcCopyToUser(Cpu& cpu, Vaddr dst, const uint8_t* src, uint64_t len) {
  EmcCall call{};
  call.op = EmcOp::kCopyToUser;
  call.args.ptr = src;
  call.args.value = dst;
  call.args.len = len;
  return EmcDispatch(cpu, call, [&]() -> Status {
    // The monitor emulates the user copy on behalf of the kernel. It refuses targets
    // inside sealed-sandbox confined memory (the kernel must never move sandbox data).
    for (Vaddr va = PageAlignDown(dst); va < dst + len; va += kPageSize) {
      const auto walk = cpu.WalkCached(cpu.cr3(), va, CpuMode::kSupervisor);
      if (walk.ok()) {
        const FrameInfo& info = frame_table_->info(FrameOf(walk->pa));
        if (info.type == FrameType::kSandboxConfined) {
          Sandbox* sandbox = sandbox_mgr_->Find(info.owner_sandbox);
          if (sandbox != nullptr && sandbox->state == SandboxState::kSealed) {
            NoteDenial(cpu);
            return PermissionDeniedError("usercopy into sealed confined memory refused");
          }
        }
      }
    }
    cpu.cycles().Charge(len * cpu.costs().usercopy_per_byte_x100 / 100);
    cpu.TrustedSetAc(true);  // stac cost is part of monitor_stac_op
    const Status st = cpu.WriteVirt(dst, src, len);
    cpu.TrustedSetAc(false);
    return st;
  });
}

Status EreborMonitor::EmcCopyFromUser(Cpu& cpu, Vaddr src, uint8_t* dst, uint64_t len) {
  EmcCall call{};
  call.op = EmcOp::kCopyFromUser;
  call.args.value = src;
  call.args.len = len;
  return EmcDispatch(cpu, call, [&]() -> Status {
    for (Vaddr va = PageAlignDown(src); va < src + len; va += kPageSize) {
      const auto walk = cpu.WalkCached(cpu.cr3(), va, CpuMode::kSupervisor);
      if (walk.ok()) {
        const FrameInfo& info = frame_table_->info(FrameOf(walk->pa));
        if (info.type == FrameType::kSandboxConfined) {
          Sandbox* sandbox = sandbox_mgr_->Find(info.owner_sandbox);
          if (sandbox != nullptr && sandbox->state == SandboxState::kSealed) {
            NoteDenial(cpu);
            return PermissionDeniedError("usercopy from sealed confined memory refused");
          }
        }
      }
    }
    cpu.cycles().Charge(len * cpu.costs().usercopy_per_byte_x100 / 100);
    cpu.TrustedSetAc(true);
    const Status st = cpu.ReadVirt(src, dst, len);
    cpu.TrustedSetAc(false);
    return st;
  });
}

Status EreborMonitor::EmcTextPoke(Cpu& cpu, Paddr code_pa, const uint8_t* bytes,
                                  uint64_t len) {
  EmcCall call{};
  call.op = EmcOp::kTextPoke;
  call.args.entry_pa = code_pa;
  call.args.ptr = bytes;
  call.args.len = len;
  call.extra_cycles = cpu.costs().page_copy;
  return EmcDispatch(cpu, call, [&]() -> Status {
    const FrameNum frame = FrameOf(code_pa);
    if (frame_table_->info(frame).type != FrameType::kKernelText) {
      return PermissionDeniedError("text_poke target is not kernel text");
    }
    // The patch itself must be clean of sensitive encodings — including sequences that
    // straddle the patch boundary, so scan with surrounding context.
    const uint64_t kContext = 8;
    const Paddr scan_start = code_pa >= kContext ? code_pa - kContext : 0;
    const uint64_t scan_len = len + 2 * kContext;
    Bytes window(scan_len);
    EREBOR_RETURN_IF_ERROR(machine_->memory().Read(scan_start, window.data(), scan_len));
    std::memcpy(window.data() + (code_pa - scan_start), bytes, len);
    const ScanHit hit = ScanForSensitiveBytes(window);
    if (hit.found) {
      NoteDenial(cpu);
      return PermissionDeniedError("text_poke rejected: would introduce " +
                                   SensitiveOpName(hit.op));
    }
    return machine_->memory().Write(code_pa, bytes, len);
  });
}

StatusOr<Paddr> EreborMonitor::EmcLoadKernelModule(Cpu& cpu, const Bytes& code) {
  EmcCall call{};
  call.op = EmcOp::kLoadKernelModule;
  call.args.ptr = code.data();
  call.args.len = code.size();
  call.cost_units = 1 + code.size() / kPageSize;
  Paddr load_pa = 0;
  const Status st = EmcDispatch(cpu, call, [&]() -> Status {
    const ScanHit hit = ScanForSensitiveBytes(code);
    if (hit.found) {
      NoteDenial(cpu);
      return PermissionDeniedError("module rejected: contains " +
                                   SensitiveOpName(hit.op) + " at offset " +
                                   std::to_string(hit.offset));
    }
    const uint64_t frames = PageAlignUp(code.size()) >> kPageShift;
    EREBOR_ASSIGN_OR_RETURN(const FrameNum first,
                            kernel_->pool().AllocContiguous(frames));
    for (uint64_t i = 0; i < frames; ++i) {
      machine_->memory().ZeroFrame(first + i);
      machine_->memory().FramePtr(first + i);
      (void)frame_table_->SetType(first + i, FrameType::kKernelText);
      // W^X through *all* mappings: the direct-map view loses W and gets the
      // kernel-text key.
      EREBOR_RETURN_IF_ERROR(policy_->RetrofitTag(&cpu, machine_->memory(), first + i,
                                                  ProtClass::kKernelText,
                                                  /*strip_write=*/true));
    }
    EREBOR_RETURN_IF_ERROR(
        machine_->memory().Write(AddrOf(first), code.data(), code.size()));
    load_pa = AddrOf(first);
    return OkStatus();
  });
  if (!st.ok()) {
    return st;
  }
  return load_pa;
}

// ---- Sandbox surface ----

StatusOr<Sandbox*> EreborMonitor::CreateSandbox(Task& leader, const SandboxSpec& spec) {
  CounterAdd(counters_.emc_sandbox);
  return sandbox_mgr_->Create(leader, spec);
}

Status EreborMonitor::DeclareConfined(Cpu& cpu, Sandbox& sandbox, Vaddr va, uint64_t len) {
  EmcCall call{};
  call.op = EmcOp::kSandboxOp;
  call.args.value = va;
  call.args.len = len;
  call.sandbox_id = sandbox.id;
  return EmcDispatch(cpu, call, [&] {
    return sandbox_mgr_->DeclareConfined(cpu, sandbox, va, len);
  });
}

StatusOr<CommonRegion*> EreborMonitor::CreateCommonRegion(const std::string& name,
                                                          uint64_t len) {
  if (kernel_ == nullptr) {
    return FailedPreconditionError("no kernel attached");
  }
  return sandbox_mgr_->CreateCommonRegion(name, len, kernel_->pool());
}

Status EreborMonitor::AttachCommon(Cpu& cpu, Sandbox& sandbox, int region_id, Vaddr va,
                                   bool writable_until_seal) {
  EmcCall call{};
  call.op = EmcOp::kSandboxOp;
  call.args.value = va;
  call.sandbox_id = sandbox.id;
  return EmcDispatch(cpu, call, [&] {
    return sandbox_mgr_->AttachCommon(cpu, sandbox, region_id, va, writable_until_seal);
  });
}

Status EreborMonitor::TeardownSandbox(Cpu& cpu, Sandbox& sandbox) {
  EmcCall call{};
  call.op = EmcOp::kSandboxOp;
  call.sandbox_id = sandbox.id;
  return EmcDispatch(cpu, call,
                     [&] { return sandbox_mgr_->Teardown(cpu, sandbox); });
}

Status EreborMonitor::SnapshotTemplate(Cpu& cpu, Sandbox& sandbox) {
  EmcCall call{};
  call.op = EmcOp::kSandboxOp;
  call.sandbox_id = sandbox.id;
  return EmcDispatch(cpu, call,
                     [&] { return sandbox_mgr_->SnapshotTemplate(cpu, sandbox); });
}

StatusOr<Sandbox*> EreborMonitor::CloneSandbox(Cpu& cpu, Task& leader, Sandbox& tmpl,
                                               const SandboxSpec& spec) {
  CounterAdd(counters_.emc_sandbox);
  // The clone's id does not exist until the body runs; serialize on the
  // template, whose frames and live_clones count the body mutates.
  Sandbox* clone = nullptr;
  EmcCall call{};
  call.op = EmcOp::kSandboxOp;
  call.sandbox_id = tmpl.id;
  EREBOR_RETURN_IF_ERROR(EmcDispatch(cpu, call, [&]() -> Status {
    EREBOR_ASSIGN_OR_RETURN(clone,
                            sandbox_mgr_->CloneFromTemplate(cpu, leader, tmpl, spec));
    return OkStatus();
  }));
  return clone;
}

Status EreborMonitor::ActivateClone(Cpu& cpu, Sandbox& sandbox) {
  EmcCall call{};
  call.op = EmcOp::kSandboxOp;
  call.sandbox_id = sandbox.id;
  return EmcDispatch(cpu, call,
                     [&] { return sandbox_mgr_->ActivateClone(cpu, sandbox); });
}

// ---- Proxy packet plumbing (crypto handling lives in attestation.cc) ----

Status EreborMonitor::ProxyDeliver(Cpu& cpu, const Bytes& wire) {
  if (FaultInjector::Armed() &&
      FaultInjector::Global().Fire("channel.deliver", FaultAction::kDrop)) {
    // The untrusted proxy "lost" the packet at the monitor's doorstep. From the
    // client's perspective this is ordinary network loss: its bounded retry covers it.
    return OkStatus();
  }
  EmcCall call{};
  call.op = EmcOp::kChannelOp;
  // The target sandbox is only known after deserialization, so the handlers take
  // the sandbox lock themselves (EmcLockTable::SandboxGuard).
  return EmcDispatch(cpu, call, [&]() -> Status {
    if (!wire.empty() && static_cast<PacketType>(wire[0]) == PacketType::kDataRecord) {
      // Hot path: data records are parsed as a borrowed view and decrypted
      // straight from the wire buffer (no Packet materialization).
      EREBOR_ASSIGN_OR_RETURN(const RecordView view, ParseRecordWire(wire));
      return HandleDataRecord(cpu, view);
    }
    EREBOR_ASSIGN_OR_RETURN(const Packet packet, Packet::Deserialize(wire));
    switch (packet.type) {
      case PacketType::kClientHello:
        return HandleHello(cpu, packet);
      case PacketType::kFin:
        return HandleFin(cpu, packet);
      default:
        return InvalidArgumentError("unexpected packet type from network");
    }
  });
}

Status EreborMonitor::ProxyDeliverBatch(Cpu& cpu, const std::vector<Bytes>& wires) {
  if (wires.empty()) {
    return OkStatus();
  }
  EmcCall call{};
  call.op = EmcOp::kChannelOp;
  call.cost_units = wires.size();  // one gate crossing, per-packet channel-op cost
  return EmcDispatch(cpu, call, [&]() -> Status {
    Status first_error = OkStatus();
    auto note = [&first_error](const Status& st) {
      if (first_error.ok() && !st.ok()) {
        first_error = st;
      }
    };

    // Partition the burst: control packets stay in arrival order, data records
    // are grouped per target sandbox with their relative order preserved.
    std::vector<const Bytes*> control;
    std::map<int32_t, std::vector<RecordView>> data_by_sandbox;
    for (const Bytes& wire : wires) {
      if (FaultInjector::Armed() &&
          FaultInjector::Global().Fire("channel.deliver", FaultAction::kDrop)) {
        continue;  // ordinary network loss; the client's bounded retry covers it
      }
      if (!wire.empty() && static_cast<PacketType>(wire[0]) == PacketType::kDataRecord) {
        StatusOr<RecordView> view = ParseRecordWire(wire);
        if (!view.ok()) {
          note(view.status());
          continue;
        }
        data_by_sandbox[view->sandbox_id].push_back(*view);
        continue;
      }
      control.push_back(&wire);
    }

    for (const Bytes* wire : control) {
      StatusOr<Packet> packet = Packet::Deserialize(*wire);
      if (!packet.ok()) {
        note(packet.status());
        continue;
      }
      switch (packet->type) {
        case PacketType::kClientHello:
          note(HandleHello(cpu, *packet));
          break;
        case PacketType::kFin:
          note(HandleFin(cpu, *packet));
          break;
        default:
          note(InvalidArgumentError("unexpected packet type from network"));
          break;
      }
    }

    // One lock acquisition per sandbox group: under the kSharded plan concurrent
    // batches for different sessions never touch the same lock.
    for (const auto& [sandbox_id, views] : data_by_sandbox) {
      Sandbox* sandbox = sandbox_mgr_->Find(sandbox_id);
      if (sandbox == nullptr || !sandbox->session.established) {
        note(FailedPreconditionError("data record without established session"));
        continue;
      }
      SimLockGuard held = locks_.SandboxGuard(cpu, sandbox->lock);
      for (const RecordView& view : views) {
        note(IngestDataRecordLocked(cpu, *sandbox, view));
      }
    }
    return first_error;
  });
}

StatusOr<Bytes> EreborMonitor::ProxyFetch(Cpu& cpu, int* source_sandbox_out) {
  Bytes out;
  EmcCall call{};
  call.op = EmcOp::kChannelOp;
  const Status st = EmcDispatch(cpu, call, [&]() -> Status {
    for (auto& [id, sandbox] : sandbox_mgr_->mutable_sandboxes()) {
      if (!sandbox->outbound_wire.empty()) {
        SimLockGuard guard = locks_.SandboxGuard(cpu, sandbox->lock);
        out = std::move(sandbox->outbound_wire.front());
        sandbox->outbound_wire.pop_front();
        if (source_sandbox_out != nullptr) {
          *source_sandbox_out = id;
        }
        return OkStatus();
      }
    }
    return NotFoundError("no outbound packets");
  });
  if (!st.ok()) {
    return st;
  }
  return out;
}

Status EreborMonitor::DebugInstallClientData(Cpu& cpu, Sandbox& sandbox, const Bytes& data) {
  EmcCall call{};
  call.op = EmcOp::kChannelOp;
  call.sandbox_id = sandbox.id;
  return EmcDispatch(cpu, call, [&]() -> Status {
    // Same decrypt/copy cost as the real channel path.
    cpu.cycles().Charge(data.size() * cpu.costs().crypto_per_byte_x100 / 100);
    sandbox.input_plaintext.push_back(data);
    return sandbox_mgr_->Seal(cpu, sandbox);
  });
}

StatusOr<Bytes> EreborMonitor::DebugFetchOutput(Sandbox& sandbox) {
  if (sandbox.outbound_wire.empty()) {
    return NotFoundError("no output pending");
  }
  Bytes out = std::move(sandbox.outbound_wire.front());
  sandbox.outbound_wire.pop_front();
  return out;
}

}  // namespace erebor
