// Per-process address spaces: a page-table tree in simulated physical memory plus VMA
// bookkeeping for demand paging. All PTE stores flow through PrivilegedOps so the same
// code runs natively or EMC-instrumented.
#ifndef EREBOR_SRC_KERNEL_ADDRSPACE_H_
#define EREBOR_SRC_KERNEL_ADDRSPACE_H_

#include <map>
#include <memory>

#include "src/hw/machine.h"
#include "src/kernel/frame_alloc.h"
#include "src/kernel/layout.h"
#include "src/kernel/privops.h"

namespace erebor {

struct EmcRing;
class MmuRingBatch;

enum class VmaKind : uint8_t {
  kAnon,      // demand-zero anonymous memory
  kConfined,  // sandbox confined memory (pre-populated + pinned by the monitor)
  kCommon,    // sandbox common memory (shared frames, read-only once sealed)
  kFile,      // file-backed (populated from the ramfs at fault time)
};

struct Vma {
  Vaddr start = 0;
  Vaddr end = 0;  // exclusive
  Pte flags = 0;  // leaf PTE flags to install on fault
  VmaKind kind = VmaKind::kAnon;
  // kCommon: backing frames, indexed by (va - start) / kPageSize.
  std::vector<FrameNum> backing;
  std::string file;        // kFile: ramfs path
  uint64_t file_offset = 0;
};

class AddressSpace {
 public:
  // Creates an empty address space whose kernel half mirrors `kernel_template` (PML4
  // entries 256..511 copied so all processes share kernel mappings).
  static StatusOr<std::unique_ptr<AddressSpace>> Create(Cpu& cpu, Machine* machine,
                                                        PrivilegedOps* ops,
                                                        FrameAllocator* pool,
                                                        const AddressSpace* kernel_template);

  Paddr root() const { return root_; }
  FrameAllocator& pool() { return *pool_; }

  // ---- Raw mapping primitives (PTE writes via PrivilegedOps) ----
  Status MapFrame(Cpu& cpu, Vaddr va, FrameNum frame, Pte flags);
  // Maps many pages. With an MMU ring (below) the whole range is staged as one
  // submission window, the batched MMU updates of paper section 9.1; without
  // one, pages are mapped as by MapFrame, one EMC per PTE store (the paper's path).
  struct PageMapping {
    Vaddr va;
    FrameNum frame;
    Pte flags;
  };
  Status MapRangeBatched(Cpu& cpu, const std::vector<PageMapping>& mappings);
  // When the backend exposes an MMU ring for `cpu` (PrivilegedOps::mmu_ring),
  // MapRangeBatched, DestroyVma, HandleDemandFault, and ReleaseUserFrames all
  // switch to staging descriptors and crossing the gate once per doorbell; the
  // synchronous per-op paths above remain byte-for-byte what they were.

  // Populates every not-yet-mapped page of the VMA at `start` (anon/file kinds get
  // fresh zeroed frames; common kinds use their backing) through MapRangeBatched.
  Status PopulateVmaBatched(Cpu& cpu, Vaddr start);
  Status UnmapPage(Cpu& cpu, Vaddr va);
  Status ProtectPage(Cpu& cpu, Vaddr va, Pte flags);
  StatusOr<WalkResult> Lookup(Vaddr va) const;
  // Lookup through `cpu`'s software TLB (hot paths: demand-fault probes, fork scans).
  StatusOr<WalkResult> LookupCached(Cpu& cpu, Vaddr va) const;

  // ---- VMA layer ----
  StatusOr<Vaddr> CreateVma(uint64_t len, Pte flags, VmaKind kind, Vaddr fixed = 0);
  Status DestroyVma(Cpu& cpu, Vaddr start);
  Vma* FindVma(Vaddr va);
  const std::map<Vaddr, Vma>& vmas() const { return vmas_; }

  // Demand-fault service: allocates/maps the page backing `va`. Returns the number of
  // PTE writes performed. kNotFound if no VMA covers va (a real segfault).
  StatusOr<int> HandleDemandFault(Cpu& cpu, Vaddr va,
                                  PhysMemory* file_source = nullptr);

  // Copies all user mappings of `src` into this space (fork). Allocates fresh frames
  // and copies page contents (no COW, matching the mini-kernel's simplicity).
  Status CloneUserMappings(Cpu& cpu, const AddressSpace& src);

  // Releases every frame owned by user mappings (process teardown).
  void ReleaseUserFrames(Cpu& cpu);

  uint64_t mapped_user_pages() const { return mapped_user_pages_; }

 private:
  AddressSpace(Machine* machine, PrivilegedOps* ops, FrameAllocator* pool, Paddr root)
      : machine_(machine), ops_(ops), pool_(pool), root_(root) {}

  PteWriter MakeWriter(Cpu& cpu, int* pte_writes = nullptr);

  // ---- MMU-ring staging paths (active only when ops_->mmu_ring() != nullptr) ----
  // Publishes the staged batch and crosses the gate until the SQ drains; the
  // first per-descriptor refusal comes back as an error.
  Status RingFlush(Cpu& cpu, EmcRing* ring, MmuRingBatch& batch);
  Status MapRangeRing(Cpu& cpu, EmcRing* ring, const std::vector<PageMapping>& mappings);
  Status DestroyVmaRing(Cpu& cpu, EmcRing* ring, const Vma& vma);
  // Maps the faulting page plus up to a window of following unmapped pages of
  // the VMA through one doorbell. Returns the number of pages mapped.
  StatusOr<int> FaultAroundRing(Cpu& cpu, EmcRing* ring, Vma& vma, Vaddr page_va);
  // Stages kFrameReclaim for every owned frame (the monitor scrubs them).
  // Returns false if any descriptor was refused — the caller falls back to
  // zeroing kernel-side.
  bool ReclaimFramesRing(Cpu& cpu, EmcRing* ring);

  Machine* machine_;
  PrivilegedOps* ops_;
  FrameAllocator* pool_;
  Paddr root_;
  std::map<Vaddr, Vma> vmas_;
  Vaddr mmap_cursor_ = layout::kUserBase + (1ULL << 30);  // anonymous-mmap arena
  uint64_t mapped_user_pages_ = 0;
  std::vector<FrameNum> owned_frames_;  // frames this space allocated (anon/file/fork)
  std::vector<FrameNum> owned_ptps_;    // intermediate page-table pages
};

// Builds the kernel master address space: direct map of all physical memory
// (supervisor, NX) and the kernel text window (supervisor, executable, read-only).
StatusOr<std::unique_ptr<AddressSpace>> BuildKernelAddressSpace(Cpu& cpu, Machine* machine,
                                                                PrivilegedOps* ops,
                                                                FrameAllocator* pool);

}  // namespace erebor

#endif  // EREBOR_SRC_KERNEL_ADDRSPACE_H_
