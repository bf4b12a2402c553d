#include "src/kernel/addrspace.h"

#include <algorithm>
#include <cstring>

#include "src/common/faultpoint.h"
#include "src/kernel/mmu_ring.h"

namespace erebor {

namespace {
// Pages mapped around a demand fault when the ring path is available: the
// marginal page costs one descriptor instead of a full #PF + EMC round trip,
// so a modest window recovers most of the per-fault gate cost.
constexpr uint64_t kFaultAroundPages = 16;
}  // namespace

PteWriter AddressSpace::MakeWriter(Cpu& cpu, int* pte_writes) {
  PteWriter writer;
  writer.write_pte = [this, &cpu, pte_writes](Paddr entry_pa, Pte value) -> Status {
    if (pte_writes != nullptr) {
      ++*pte_writes;
    }
    const Pte old = machine_->memory().Read64(entry_pa);
    EREBOR_RETURN_IF_ERROR(ops_->WritePte(cpu, entry_pa, value));
    // Kernel-side TLB maintenance: rewriting a previously present entry (remap,
    // U/S widening of an intermediate, unmap, protect) invalidates any cached
    // translation that depends on it. The MMU-ring paths skip this wrapper; the
    // monitor shoots down what their drained PTE writes change.
    if (Tlb::hooks().invlpg && pte::Present(old) && old != value) {
      machine_->ShootdownTlbLeaf(entry_pa, cpu.index());
    }
    return OkStatus();
  };
  writer.alloc_ptp = [this, &cpu]() -> StatusOr<FrameNum> {
    EREBOR_ASSIGN_OR_RETURN(const FrameNum frame, pool_->Alloc());
    machine_->memory().ZeroFrame(frame);
    // Touch the frame so the PTP is committed (page tables are real data).
    machine_->memory().FramePtr(frame);
    EREBOR_RETURN_IF_ERROR(ops_->RegisterPtp(cpu, frame, root_));
    owned_ptps_.push_back(frame);
    return frame;
  };
  return writer;
}

StatusOr<std::unique_ptr<AddressSpace>> AddressSpace::Create(
    Cpu& cpu, Machine* machine, PrivilegedOps* ops, FrameAllocator* pool,
    const AddressSpace* kernel_template) {
  EREBOR_ASSIGN_OR_RETURN(const FrameNum root_frame, pool->Alloc());
  machine->memory().ZeroFrame(root_frame);
  machine->memory().FramePtr(root_frame);
  EREBOR_RETURN_IF_ERROR(ops->RegisterPtp(cpu, root_frame, AddrOf(root_frame)));
  auto space = std::unique_ptr<AddressSpace>(
      new AddressSpace(machine, ops, pool, AddrOf(root_frame)));
  space->owned_ptps_.push_back(root_frame);

  if (kernel_template != nullptr) {
    // Share the kernel half: copy PML4 entries 256..511 (they point into the kernel's
    // PDPT subtrees, so every process sees identical kernel mappings).
    for (uint64_t i = 256; i < kPteEntries; ++i) {
      const Paddr src_pa = kernel_template->root() + i * sizeof(Pte);
      const Pte entry = machine->memory().Read64(src_pa);
      if (pte::Present(entry)) {
        EREBOR_RETURN_IF_ERROR(
            ops->WritePte(cpu, space->root() + i * sizeof(Pte), entry));
      }
    }
  }
  return space;
}

Status AddressSpace::MapFrame(Cpu& cpu, Vaddr va, FrameNum frame, Pte flags) {
  PteWriter writer = MakeWriter(cpu);
  EREBOR_RETURN_IF_ERROR(MapPage(machine_->memory(), root_, va, frame, flags, writer));
  if ((flags & pte::kUser) != 0) {
    ++mapped_user_pages_;
  }
  return OkStatus();
}

Status AddressSpace::RingFlush(Cpu& cpu, EmcRing* ring, MmuRingBatch& batch) {
  if (batch.staged() == 0) {
    return OkStatus();
  }
  batch.Publish();
  int32_t first_error = 0;
  // One doorbell normally drains the whole window; a CQ-backpressured monitor
  // leaves SQEs pending, so ring until they are gone.
  while (ring->SqPending() > 0) {
    EREBOR_RETURN_IF_ERROR(ops_->RingDoorbell(cpu));
    batch.Reap(&first_error);
  }
  batch.Reap(&first_error);
  if (first_error != 0) {
    return InternalError("MMU-ring descriptor refused (monitor code " +
                         std::to_string(-first_error) + ")");
  }
  return OkStatus();
}

Status AddressSpace::MapRangeRing(Cpu& cpu, EmcRing* ring,
                                  const std::vector<PageMapping>& mappings) {
  MmuRingBatch batch(ring);
  // Phase 1: walk down per mapping, staging PTP registrations and intermediate
  // links. The batch overlay makes staged intermediates visible to later walks
  // in the same window, so a PTP created for one mapping is reused by its
  // neighbours without a flush.
  std::vector<std::pair<Paddr, Pte>> leaves;
  leaves.reserve(mappings.size());
  for (const PageMapping& mapping : mappings) {
    Paddr table = root_;
    const bool user = (mapping.flags & pte::kUser) != 0;
    for (int level = kPagingLevels - 1; level >= 1; --level) {
      const Paddr entry_pa = table + PteIndex(mapping.va, level) * sizeof(Pte);
      Pte entry = batch.PendingRead(entry_pa, machine_->memory().Read64(entry_pa));
      if (!pte::Present(entry)) {
        if (batch.FreeSlots() < 2) {
          EREBOR_RETURN_IF_ERROR(RingFlush(cpu, ring, batch));
        }
        EREBOR_ASSIGN_OR_RETURN(const FrameNum ptp, pool_->Alloc());
        machine_->memory().ZeroFrame(ptp);
        machine_->memory().FramePtr(ptp);
        Pte inter = pte::Make(ptp, pte::kPresent | pte::kWritable);
        if (user) {
          inter |= pte::kUser;
        }
        // Registration precedes the linking write in the SQ, and the drain is
        // in-order, so the monitor sees the frame as a PTP before any PTE
        // points at it.
        if (!batch.StageRegisterPtp(ptp, root_) ||
            !batch.StagePteWrite(entry_pa, inter)) {
          return InternalError("MMU-ring batch overflow while linking a PTP");
        }
        owned_ptps_.push_back(ptp);
        entry = inter;
      } else if (user && !pte::User(entry)) {
        if (batch.FreeSlots() < 1) {
          EREBOR_RETURN_IF_ERROR(RingFlush(cpu, ring, batch));
        }
        if (!batch.StagePteWrite(entry_pa, entry | pte::kUser)) {
          return InternalError("MMU-ring batch overflow widening an intermediate");
        }
      }
      table = pte::Frame(entry) << kPageShift;
    }
    leaves.emplace_back(table + PteIndex(mapping.va, 0) * sizeof(Pte),
                        pte::Make(mapping.frame, mapping.flags | pte::kPresent));
    if (user) {
      ++mapped_user_pages_;
    }
  }
  // Phase 2: leaf stores ride as spans, chunked to whatever room the SQ has
  // left (a span needs its header slot plus one per entry).
  size_t i = 0;
  while (i < leaves.size()) {
    size_t room = batch.FreeSlots();
    if (room < 2) {
      EREBOR_RETURN_IF_ERROR(RingFlush(cpu, ring, batch));
      room = batch.FreeSlots();
    }
    const size_t take = std::min(leaves.size() - i, room - 1);
    const std::vector<std::pair<Paddr, Pte>> chunk(leaves.begin() + i,
                                                   leaves.begin() + i + take);
    if (!batch.StagePteSpan(chunk)) {
      return InternalError("MMU-ring span staging failed");
    }
    i += take;
  }
  return RingFlush(cpu, ring, batch);
}

Status AddressSpace::MapRangeBatched(Cpu& cpu, const std::vector<PageMapping>& mappings) {
  if (EmcRing* ring = ops_->mmu_ring(cpu.index()); ring != nullptr) {
    return MapRangeRing(cpu, ring, mappings);
  }
  PteWriter writer = MakeWriter(cpu);
  for (const PageMapping& mapping : mappings) {
    EREBOR_RETURN_IF_ERROR(MapPage(machine_->memory(), root_, mapping.va, mapping.frame,
                                   mapping.flags, writer));
    if ((mapping.flags & pte::kUser) != 0) {
      ++mapped_user_pages_;
    }
  }
  return OkStatus();
}

Status AddressSpace::PopulateVmaBatched(Cpu& cpu, Vaddr start) {
  Vma* vma = FindVma(start);
  if (vma == nullptr) {
    return NotFoundError("no VMA to populate");
  }
  std::vector<PageMapping> mappings;
  for (Vaddr va = vma->start; va < vma->end; va += kPageSize) {
    if (LookupCached(cpu, va).ok()) {
      continue;
    }
    FrameNum frame = 0;
    if (vma->kind == VmaKind::kCommon) {
      const uint64_t index = (va - vma->start) >> kPageShift;
      if (index >= vma->backing.size()) {
        return InternalError("common VMA without backing frame");
      }
      frame = vma->backing[index];
    } else {
      EREBOR_ASSIGN_OR_RETURN(frame, pool_->Alloc());
      machine_->memory().ZeroFrame(frame);
      machine_->memory().FramePtr(frame);
      owned_frames_.push_back(frame);
      cpu.cycles().Charge(cpu.costs().page_zero);
    }
    mappings.push_back({va, frame, vma->flags});
  }
  return MapRangeBatched(cpu, mappings);
}

Status AddressSpace::UnmapPage(Cpu& cpu, Vaddr va) {
  PteWriter writer = MakeWriter(cpu);
  EREBOR_RETURN_IF_ERROR(erebor::UnmapPage(machine_->memory(), root_, va, writer));
  ops_->InvlPg(cpu, root_, va);
  return OkStatus();
}

Status AddressSpace::ProtectPage(Cpu& cpu, Vaddr va, Pte flags) {
  PteWriter writer = MakeWriter(cpu);
  EREBOR_RETURN_IF_ERROR(erebor::ProtectPage(machine_->memory(), root_, va, flags, writer));
  ops_->InvlPg(cpu, root_, va);
  return OkStatus();
}

StatusOr<WalkResult> AddressSpace::Lookup(Vaddr va) const {
  return WalkPageTables(machine_->memory(), root_, va);
}

StatusOr<WalkResult> AddressSpace::LookupCached(Cpu& cpu, Vaddr va) const {
  return cpu.WalkCached(root_, va, CpuMode::kSupervisor);
}

StatusOr<Vaddr> AddressSpace::CreateVma(uint64_t len, Pte flags, VmaKind kind, Vaddr fixed) {
  if (len == 0) {
    return InvalidArgumentError("zero-length VMA");
  }
  len = PageAlignUp(len);
  Vaddr start = fixed;
  if (start == 0) {
    start = mmap_cursor_;
    mmap_cursor_ += len + kPageSize;  // guard gap
  }
  // Overlap check.
  for (const auto& [s, vma] : vmas_) {
    if (start < vma.end && vma.start < start + len) {
      return AlreadyExistsError("VMA overlap");
    }
  }
  Vma vma;
  vma.start = start;
  vma.end = start + len;
  vma.flags = flags;
  vma.kind = kind;
  vmas_[start] = std::move(vma);
  return start;
}

Status AddressSpace::DestroyVmaRing(Cpu& cpu, EmcRing* ring, const Vma& vma) {
  // Zero every mapped leaf through the ring; the monitor defers the shootdown
  // for each present-entry rewrite and flushes the coalesced set once per
  // drain, replacing the per-page InvlPg of the synchronous path.
  MmuRingBatch batch(ring);
  for (Vaddr va = vma.start; va < vma.end; va += kPageSize) {
    const auto walk = LookupCached(cpu, va);
    if (!walk.ok()) {
      continue;
    }
    if (batch.FreeSlots() < 1) {
      EREBOR_RETURN_IF_ERROR(RingFlush(cpu, ring, batch));
    }
    if (!batch.StagePteWrite(walk->leaf_entry_pa, 0)) {
      return InternalError("MMU-ring batch overflow while unmapping");
    }
  }
  return RingFlush(cpu, ring, batch);
}

Status AddressSpace::DestroyVma(Cpu& cpu, Vaddr start) {
  const auto it = vmas_.find(start);
  if (it == vmas_.end()) {
    return NotFoundError("no VMA at given start");
  }
  if (EmcRing* ring = ops_->mmu_ring(cpu.index()); ring != nullptr) {
    EREBOR_RETURN_IF_ERROR(DestroyVmaRing(cpu, ring, it->second));
  } else {
    for (Vaddr va = it->second.start; va < it->second.end; va += kPageSize) {
      const auto walk = LookupCached(cpu, va);
      if (walk.ok()) {
        (void)UnmapPage(cpu, va);
      }
    }
  }
  vmas_.erase(it);
  return OkStatus();
}

Vma* AddressSpace::FindVma(Vaddr va) {
  auto it = vmas_.upper_bound(va);
  if (it == vmas_.begin()) {
    return nullptr;
  }
  --it;
  return (va >= it->second.start && va < it->second.end) ? &it->second : nullptr;
}

StatusOr<int> AddressSpace::FaultAroundRing(Cpu& cpu, EmcRing* ring, Vma& vma,
                                            Vaddr page_va) {
  std::vector<PageMapping> mappings;
  for (Vaddr va = page_va;
       va < vma.end && mappings.size() < kFaultAroundPages; va += kPageSize) {
    if (va != page_va && LookupCached(cpu, va).ok()) {
      break;  // window runs to the first already-mapped page
    }
    auto alloc = pool_->Alloc();
    if (!alloc.ok() && alloc.status().code() == ErrorCode::kResourceExhausted) {
      // Same bounded-retry degradation contract as the synchronous fault path.
      alloc = pool_->Alloc();
      if (alloc.ok() && FaultInjector::Armed()) {
        NoteFaultRecovered();
      }
    }
    if (!alloc.ok()) {
      if (va == page_va) {
        return alloc.status();  // the faulting page itself must map
      }
      break;  // fault-around is best-effort
    }
    machine_->memory().ZeroFrame(*alloc);
    machine_->memory().FramePtr(*alloc);
    owned_frames_.push_back(*alloc);
    cpu.cycles().Charge(cpu.costs().page_zero);
    mappings.push_back({va, *alloc, vma.flags});
  }
  EREBOR_RETURN_IF_ERROR(MapRangeRing(cpu, ring, mappings));
  return static_cast<int>(mappings.size());
}

StatusOr<int> AddressSpace::HandleDemandFault(Cpu& cpu, Vaddr va, PhysMemory* file_source) {
  Vma* vma = FindVma(va);
  if (vma == nullptr) {
    return NotFoundError("segmentation fault: no VMA for address");
  }
  const Vaddr page_va = PageAlignDown(va);
  if (EmcRing* ring = ops_->mmu_ring(cpu.index());
      ring != nullptr && vma->kind != VmaKind::kCommon) {
    // Ring path: map the faulting page plus the following unmapped window
    // through one doorbell, so neighbouring touches never fault at all.
    return FaultAroundRing(cpu, ring, *vma, page_va);
  }
  int pte_writes = 0;
  PteWriter writer = MakeWriter(cpu, &pte_writes);

  FrameNum frame = 0;
  switch (vma->kind) {
    case VmaKind::kCommon: {
      const uint64_t index = (page_va - vma->start) >> kPageShift;
      if (index >= vma->backing.size()) {
        return InternalError("common VMA without backing frame");
      }
      frame = vma->backing[index];
      break;
    }
    case VmaKind::kAnon:
    case VmaKind::kConfined:
    case VmaKind::kFile: {
      auto alloc = pool_->Alloc();
      if (!alloc.ok() && alloc.status().code() == ErrorCode::kResourceExhausted) {
        // Transient exhaustion gets one bounded retry at the allocation itself, so
        // every demand-fault caller — page-fault entry and syscall paths alike —
        // shares the same degradation contract; a genuinely full pool fails again.
        alloc = pool_->Alloc();
        if (alloc.ok() && FaultInjector::Armed()) {
          NoteFaultRecovered();
        }
      }
      EREBOR_ASSIGN_OR_RETURN(frame, alloc);
      machine_->memory().ZeroFrame(frame);
      machine_->memory().FramePtr(frame);
      owned_frames_.push_back(frame);
      cpu.cycles().Charge(cpu.costs().page_zero);
      break;
    }
  }
  EREBOR_RETURN_IF_ERROR(
      MapPage(machine_->memory(), root_, page_va, frame, vma->flags, writer));
  if ((vma->flags & pte::kUser) != 0) {
    ++mapped_user_pages_;
  }
  return pte_writes;
}

Status AddressSpace::CloneUserMappings(Cpu& cpu, const AddressSpace& src) {
  std::vector<PageMapping> mappings;
  for (const auto& [start, vma] : src.vmas_) {
    vmas_[start] = vma;
    for (Vaddr va = vma.start; va < vma.end; va += kPageSize) {
      const auto walk = src.LookupCached(cpu, va);
      if (!walk.ok()) {
        continue;  // never faulted in
      }
      FrameNum frame = pte::Frame(walk->leaf);
      if (vma.kind != VmaKind::kCommon) {
        // Private page: allocate and copy.
        EREBOR_ASSIGN_OR_RETURN(const FrameNum copy, pool_->Alloc());
        std::memcpy(machine_->memory().FramePtr(copy),
                    machine_->memory().FramePtr(frame), kPageSize);
        cpu.cycles().Charge(cpu.costs().page_copy);
        owned_frames_.push_back(copy);
        frame = copy;
      }
      mappings.push_back({va, frame, vma.flags});
    }
  }
  return MapRangeBatched(cpu, mappings);
}

bool AddressSpace::ReclaimFramesRing(Cpu& cpu, EmcRing* ring) {
  MmuRingBatch batch(ring);
  for (const FrameNum frame : owned_frames_) {
    if (batch.FreeSlots() < 1 && !RingFlush(cpu, ring, batch).ok()) {
      return false;
    }
    if (!batch.StageFrameReclaim(frame)) {
      return false;
    }
  }
  return RingFlush(cpu, ring, batch).ok();
}

void AddressSpace::ReleaseUserFrames(Cpu& cpu) {
  // The root and PTP frames return to the pool and may be recycled as page tables of
  // a future process, so every cached translation keyed by this root must die now.
  // Always on (not a test-toggleable hook): this is allocator hygiene, not one of the
  // paper's invalidation obligations.
  machine_->FlushTlbRoot(root_);
  // Ring path: the monitor scrubs the released frames (kFrameReclaim); if any
  // descriptor is refused, fall back to zeroing everything kernel-side — a
  // double zero is harmless, an unscrubbed frame is not.
  EmcRing* ring = ops_->mmu_ring(cpu.index());
  const bool scrubbed =
      ring != nullptr && !owned_frames_.empty() && ReclaimFramesRing(cpu, ring);
  for (const FrameNum frame : owned_frames_) {
    if (!scrubbed) {
      machine_->memory().ZeroFrame(frame);
    }
    (void)pool_->Free(frame);
  }
  owned_frames_.clear();
  for (const FrameNum frame : owned_ptps_) {
    (void)pool_->Free(frame);
  }
  owned_ptps_.clear();
}

StatusOr<std::unique_ptr<AddressSpace>> BuildKernelAddressSpace(Cpu& cpu, Machine* machine,
                                                                PrivilegedOps* ops,
                                                                FrameAllocator* pool) {
  EREBOR_ASSIGN_OR_RETURN(auto space,
                          AddressSpace::Create(cpu, machine, ops, pool, nullptr));
  // Direct map: supervisor read-write, non-executable.
  const uint64_t frames = machine->memory().num_frames();
  for (FrameNum f = 0; f < frames; ++f) {
    EREBOR_RETURN_IF_ERROR(space->MapFrame(
        cpu, layout::DirectMap(AddrOf(f)), f,
        pte::kPresent | pte::kWritable | pte::kNoExecute));
  }
  // Kernel text window: executable, read-only.
  for (FrameNum i = 0; i < layout::kKernelTextFrames; ++i) {
    EREBOR_RETURN_IF_ERROR(space->MapFrame(cpu, layout::kKernelTextBase + AddrOf(i),
                                           layout::kKernelTextFirstFrame + i,
                                           pte::kPresent));
  }
  return space;
}

}  // namespace erebor
