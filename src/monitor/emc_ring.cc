// MMU-ring doorbell + drain: one EMC gate crossing amortized over a whole
// submission window of MMU descriptors (see src/kernel/mmu_ring.h for the ABI
// and src/monitor/emc_ring.h for the trust model).
//
// The doorbell runs through the table-driven dispatch core like every other
// EMC: EmcOp::kRingDoorbell has a descriptor row, a fault site, a Table-4 unit
// cost, a validator, and a lock plan. The lock plan is computed from a snapshot
// of the SQ window taken *before* dispatch — the shard locks cover exactly the
// frames the drain will touch, and a slot the kernel mutates after the snapshot
// simply is not the slot being validated (mid-drain mutation is harmless by
// construction). Inside the dispatch body each descriptor is validated, charged
// its own Table-4 cost, traced with its own family event, and applied through
// the same Locked bodies as the synchronous EMCs; TLB shootdowns are deferred
// into a TlbShootdownBatch and flushed once per drain, deduplicated.
//
// Hostile shapes — unknown opcodes, orphan span payloads, span overruns,
// out-of-range or misaligned targets, overlapping PTE writes, forged sandbox
// ids, wrapped head/tail indexes — are refused *without* charging any Table-4
// cost and strike-counted; at EmcRingTable::kStrikeLimit the ring is poisoned
// and its bound sandbox (if any) quarantined. Policy refusals (MmuPolicy saying
// no) are ordinary denials: error CQE, NoteDenial, no strike.
#include <set>

#include "src/common/exec.h"
#include "src/monitor/monitor.h"

namespace erebor {

namespace {

// Structural screen for a PTE-write target: the monitor must not dereference
// attacker-chosen addresses, and two writes to the same slot inside one window
// (an "overlapping range") would make the drain outcome order-dependent.
Status ScreenPteTarget(Paddr entry_pa, uint64_t frames, std::set<Paddr>* targets) {
  if ((entry_pa & 7) != 0) {
    return InvalidArgumentError("misaligned PTE target");
  }
  if (FrameOf(entry_pa) >= frames) {
    return OutOfRangeError("PTE target outside physical memory");
  }
  if (!targets->insert(entry_pa).second) {
    return InvalidArgumentError("overlapping PTE targets in one submission window");
  }
  return OkStatus();
}

}  // namespace

Status EreborMonitor::EmcRingDoorbell(Cpu& cpu) {
  RingState* rs = rings_.state(cpu.index());
  if (rs == nullptr) {
    return FailedPreconditionError("MMU rings are not enabled");
  }
  if (rs->poisoned) {
    return PermissionDeniedError("MMU ring poisoned after repeated hostile submissions");
  }

  // One snapshot of the untrusted indexes; every decision below uses it.
  const uint32_t sq_tail = rs->ring.sq_tail.load(std::memory_order_relaxed);
  const uint32_t cq_head = rs->ring.cq_head.load(std::memory_order_relaxed);
  const uint32_t pending = sq_tail - rs->shadow_sq_head;
  const uint32_t cq_backlog = rs->shadow_cq_tail - cq_head;

  EmcCall call{};
  call.op = EmcOp::kRingDoorbell;
  call.args.count = pending;
  call.args.len = cq_backlog;
  call.sandbox_id = rs->bound_sandbox;

  // Snapshot the SQ window before dispatch and derive the frame-shard plan from
  // the copy, so the locks taken match the descriptors actually processed.
  std::vector<RingSqe> window;
  if (pending > 0 && pending <= EmcRing::kSlots) {
    window.reserve(pending);
    for (uint32_t i = 0; i < pending; ++i) {
      window.push_back(rs->ring.sq[(rs->shadow_sq_head + i) & EmcRing::kMask]);
    }
    for (const RingSqe& sqe : window) {
      switch (sqe.op) {
        case RingOp::kWritePte:
        case RingOp::kTlbShootdown:
          call.shard_mask |= 1ull << EmcLockTable::ShardOf(FrameOf(sqe.arg0));
          break;
        case RingOp::kRegisterPtp:
        case RingOp::kFrameReclaim:
          call.shard_mask |= 1ull << EmcLockTable::ShardOf(sqe.arg0);
          break;
        default:
          break;
      }
    }
  }

  uint32_t strikes = 0;
  const Status st = EmcDispatch(cpu, call, [&]() -> Status {
    return DrainRingLocked(cpu, *rs, window, cq_head, &strikes);
  });
  // A wrapped/forged index refused by the validator is itself a hostile
  // submission: the window never reached the drain, so strike it here.
  if (!st.ok() && st.code() == ErrorCode::kOutOfRange) {
    CounterAdd(counters_.ring_strikes);
    ++strikes;
  }
  RingPostStrikes(cpu, *rs, strikes);
  return st;
}

Status EreborMonitor::DrainRingLocked(Cpu& cpu, RingState& rs,
                                      const std::vector<RingSqe>& window,
                                      uint32_t cq_head_snapshot,
                                      uint32_t* strikes_out) {
  ++rs.doorbells;
  TlbShootdownBatch shootdowns;
  std::set<Paddr> targets;  // PTE slots written in this window
  uint32_t strikes = 0;
  const uint64_t frames = frame_table_->size();

  const auto cq_free = [&]() {
    return EmcRing::kSlots - (rs.shadow_cq_tail - cq_head_snapshot);
  };
  const auto post = [&](uint64_t user_data, const Status& st) {
    RingCqe cqe;
    cqe.user_data = user_data;
    cqe.result = st.ok() ? 0 : -static_cast<int32_t>(st.code());
    rs.ring.cq[rs.shadow_cq_tail & EmcRing::kMask] = cqe;
    ++rs.shadow_cq_tail;
  };
  // Structural (hostile-shaped) refusal: no Table-4 charge was or will be made
  // for this descriptor — a forged submission must not bill anyone.
  const auto reject_shape = [&](const RingSqe& sqe, const Status& st) {
    CounterAdd(counters_.ring_rejects);
    CounterAdd(counters_.ring_strikes);
    ++rs.rejected;
    ++strikes;
    NoteDenial(cpu);
    post(sqe.user_data, st);
  };
  // Policy refusal after the descriptor was charged: the body already counted
  // its denial; record the reject and complete with the error.
  const auto reject_policy = [&](const RingSqe& sqe, const Status& st) {
    CounterAdd(counters_.ring_rejects);
    ++rs.rejected;
    post(sqe.user_data, st);
  };
  const auto applied = [&](const RingSqe& sqe) {
    CounterAdd(counters_.ring_descriptors);
    ++rs.applied;
    post(sqe.user_data, OkStatus());
  };
  // Per-descriptor Table-4 charge + family trace, mirroring what EmcDispatch
  // does for the equivalent synchronous call (emc_total is bumped once for the
  // doorbell, not per descriptor — that is the entire point of the ring).
  const auto charge = [&](TraceEvent event, Cycles op_cycles) {
    cpu.cycles().Charge(op_cycles);
    Tracer::Global().Record(event, cpu.index(), cpu.cycles().now(), rs.bound_sandbox,
                            op_cycles);
  };

  size_t i = 0;
  uint32_t consumed = 0;
  while (i < window.size()) {
    if (cq_free() == 0) {
      // CQ backpressure: the kernel has not reaped. Stop consuming; the rest of
      // the window stays submitted and the next doorbell resumes it.
      break;
    }
    const RingSqe& sqe = window[i];
    size_t span = 1;

    if (static_cast<uint8_t>(sqe.op) >= static_cast<uint8_t>(RingOp::kCount)) {
      reject_shape(sqe, InvalidArgumentError("unknown ring opcode"));
      ++i;
      ++consumed;
      continue;
    }
    if ((sqe.flags & ring_flags::kSpanPayload) != 0) {
      // A payload slot reached the descriptor position: the owning span header
      // was missing or under-counted.
      reject_shape(sqe, InvalidArgumentError("orphan span payload slot"));
      ++i;
      ++consumed;
      continue;
    }
    if (sqe.sandbox_id != -1 && sqe.sandbox_id != rs.bound_sandbox) {
      // Forged sandbox id: the lock plan covers only the ring's binding, so a
      // descriptor naming anyone else must never execute (or bill the victim).
      reject_shape(sqe, PermissionDeniedError(
                            "descriptor names a sandbox the ring is not bound to"));
      ++i;
      ++consumed;
      continue;
    }

    switch (sqe.op) {
      case RingOp::kNop:
        post(sqe.user_data, OkStatus());
        break;

      case RingOp::kWritePte: {
        Status shape = ScreenPteTarget(sqe.arg0, frames, &targets);
        if (!shape.ok()) {
          reject_shape(sqe, shape);
          break;
        }
        CounterAdd(counters_.emc_pte);
        charge(TraceEvent::kEmcPte, cpu.costs().monitor_pte_op);
        const Status st = WritePteBodyLocked(cpu, sqe.arg0, sqe.arg1, &shootdowns);
        if (!st.ok()) {
          reject_policy(sqe, st);
        } else {
          applied(sqe);
        }
        break;
      }

      case RingOp::kPteSpan: {
        const size_t count = sqe.count;
        if (count == 0 || i + 1 + count > window.size()) {
          // Overrun spans consume only the header; the stranded payload slots
          // behind it are rejected as orphans on the following iterations.
          reject_shape(sqe, OutOfRangeError("span overruns the submission window"));
          break;
        }
        span = 1 + count;
        Status shape = OkStatus();
        for (size_t j = 0; j < count && shape.ok(); ++j) {
          const RingSqe& p = window[i + 1 + j];
          if (p.op != RingOp::kWritePte ||
              (p.flags & ring_flags::kSpanPayload) == 0) {
            shape = InvalidArgumentError("span payload slot is not a flagged PTE write");
          } else {
            shape = ScreenPteTarget(p.arg0, frames, &targets);
          }
        }
        if (!shape.ok()) {
          reject_shape(sqe, shape);
          break;
        }
        // One family bump, unit cost x count, one kEmcPteBatch trace; then
        // validate-all-before-apply so a denial mid-span leaves the page
        // tables untouched.
        CounterAdd(counters_.emc_pte);
        charge(TraceEvent::kEmcPteBatch,
               cpu.costs().monitor_pte_op * static_cast<Cycles>(count));
        std::vector<PolicyDecision> decisions(count);
        Status st = OkStatus();
        for (size_t j = 0; j < count && st.ok(); ++j) {
          const RingSqe& p = window[i + 1 + j];
          decisions[j] = policy_->CheckPteWrite(p.arg0, p.arg1);
          if (decisions[j].needs_split) {
            st = PermissionDeniedError("huge-page splits are not supported in batches");
          } else if (!decisions[j].allowed) {
            st = PermissionDeniedError("ring PTE span refused at entry " +
                                       std::to_string(j) + ": " +
                                       decisions[j].denial_reason);
          }
        }
        if (!st.ok()) {
          NoteDenial(cpu);
          reject_policy(sqe, st);
          break;
        }
        for (size_t j = 0; j < count; ++j) {
          const RingSqe& p = window[i + 1 + j];
          LockAudit::Global().ExpectFrameShardHeld(
              cpu.index(), EmcLockTable::ShardOf(FrameOf(p.arg0)));
          const Pte old = machine_->memory().Read64(p.arg0);
          machine_->memory().Write64(p.arg0, decisions[j].adjusted_value);
          policy_->NoteLeafWrite(old, decisions[j].adjusted_value, p.arg0);
          if (pte::Present(old) && old != decisions[j].adjusted_value) {
            shootdowns.Add(p.arg0);
          }
        }
        applied(sqe);
        break;
      }

      case RingOp::kTlbShootdown: {
        if ((sqe.arg0 & 7) != 0 || FrameOf(sqe.arg0) >= frames) {
          reject_shape(sqe, OutOfRangeError("shootdown target outside physical memory"));
          break;
        }
        charge(TraceEvent::kEmcPte, cpu.costs().monitor_pte_op);
        shootdowns.Add(sqe.arg0);
        applied(sqe);
        break;
      }

      case RingOp::kRegisterPtp: {
        if (sqe.arg0 >= frames) {
          reject_shape(sqe, OutOfRangeError("PTP frame beyond physical memory"));
          break;
        }
        CounterAdd(counters_.emc_ptp_register);
        charge(TraceEvent::kEmcPtpRegister, cpu.costs().monitor_pte_op);
        const Status st = RegisterPtpBodyLocked(cpu, sqe.arg0, sqe.arg1);
        if (!st.ok()) {
          reject_policy(sqe, st);
        } else {
          applied(sqe);
        }
        break;
      }

      case RingOp::kFrameReclaim: {
        if (sqe.arg0 >= frames) {
          reject_shape(sqe, OutOfRangeError("reclaim frame beyond physical memory"));
          break;
        }
        FrameInfo& info = frame_table_->info(sqe.arg0);
        if (info.type != FrameType::kNormal) {
          NoteDenial(cpu);
          reject_policy(sqe, PermissionDeniedError(
                                 "reclaim of " + FrameTypeName(info.type) +
                                 " frame refused"));
          break;
        }
        charge(TraceEvent::kEmcPte, cpu.costs().page_zero);
        machine_->memory().ZeroFrame(sqe.arg0);
        applied(sqe);
        break;
      }

      case RingOp::kCount:
        break;  // unreachable: screened above
    }

    i += span;
    consumed += static_cast<uint32_t>(span);
  }

  // Publish monitor progress from the shadows (never read back from shared
  // memory) and flush the coalesced shootdown set once for the whole window.
  rs.shadow_sq_head += consumed;
  rs.ring.sq_head.store(rs.shadow_sq_head, std::memory_order_relaxed);
  rs.ring.cq_tail.store(rs.shadow_cq_tail, std::memory_order_relaxed);

  for (const Paddr entry_pa : shootdowns.entries()) {
    CounterAdd(counters_.tlb_shootdowns);
    if (Tlb::hooks().pte_shootdown) {
      machine_->ShootdownTlbLeaf(entry_pa, cpu.index());
    }
  }
  if (shootdowns.coalesced() > 0) {
    CounterAdd(counters_.ring_shootdowns_coalesced, shootdowns.coalesced());
  }

  *strikes_out = strikes;
  return OkStatus();
}

void EreborMonitor::FenceRingsOnQuarantine(Cpu& cpu, Sandbox& sandbox) {
  (void)cpu;  // the fence is free: quarantine cleanup is never billed to anyone
  if (!rings_.enabled()) {
    return;
  }
  for (int i = 0; i < rings_.size(); ++i) {
    RingState* rs = rings_.state(i);
    if (rs == nullptr || rs->bound_sandbox != sandbox.id) {
      continue;
    }
    // Snapshot the untrusted indexes once and clamp: a forged sq_tail cannot make
    // the fence walk more slots than the ring holds.
    const uint32_t sq_tail = rs->ring.sq_tail.load(std::memory_order_relaxed);
    const uint32_t cq_head = rs->ring.cq_head.load(std::memory_order_relaxed);
    uint32_t pending = sq_tail - rs->shadow_sq_head;
    if (pending > EmcRing::kSlots) {
      pending = EmcRing::kSlots;
    }
    for (uint32_t j = 0; j < pending; ++j) {
      const RingSqe sqe = rs->ring.sq[rs->shadow_sq_head & EmcRing::kMask];
      ++rs->shadow_sq_head;
      ++rs->rejected;  // consumed but never applied: drain accounting stays balanced
      if (rs->shadow_cq_tail - cq_head < EmcRing::kSlots) {
        RingCqe cqe;
        cqe.user_data = sqe.user_data;
        cqe.result = -static_cast<int32_t>(ErrorCode::kUnavailable);
        rs->ring.cq[rs->shadow_cq_tail & EmcRing::kMask] = cqe;
        ++rs->shadow_cq_tail;
      }
    }
    rs->ring.sq_head.store(rs->shadow_sq_head, std::memory_order_relaxed);
    rs->ring.cq_tail.store(rs->shadow_cq_tail, std::memory_order_relaxed);
    // The binding is dead: refuse every further doorbell. Anything the kernel
    // stages after this point is inert by construction.
    rs->poisoned = true;
    MetricsRegistry::Global().Increment("ring.quarantine_fenced");
    if (pending > 0) {
      MetricsRegistry::Global().Increment("ring.quarantine_flushed_sqes", pending);
    }
  }
}

void EreborMonitor::RingPostStrikes(Cpu& cpu, RingState& rs, uint32_t strikes) {
  if (strikes == 0) {
    return;
  }
  rs.strikes += strikes;
  if (rs.strikes < EmcRingTable::kStrikeLimit || rs.poisoned) {
    return;
  }
  // Enough hostile-shaped submissions: poison the ring (every further doorbell
  // refused) and quarantine the bound sandbox so the abuse cannot continue
  // through a fresh binding. A kernel ring (-1) has no sandbox to kill; the
  // poisoned ring itself is the containment.
  rs.poisoned = true;
  if (rs.bound_sandbox >= 0) {
    Sandbox* sandbox = sandbox_mgr_->Find(rs.bound_sandbox);
    if (sandbox != nullptr) {
      sandbox_mgr_->Quarantine(cpu, *sandbox, "hostile MMU-ring submissions");
    }
  }
}

}  // namespace erebor
