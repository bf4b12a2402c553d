// The instrumentation seam (paper section 5.1).
//
// Every sensitive privileged operation in the guest kernel goes through this
// interface. The native backend executes the operation directly on the vCPU (the
// un-instrumented kernel). The EMC backend — installed when Erebor is active — routes
// each operation through the monitor's gated EMC path, where isolation policies are
// enforced before the instruction is executed on the kernel's behalf.
#ifndef EREBOR_SRC_KERNEL_PRIVOPS_H_
#define EREBOR_SRC_KERNEL_PRIVOPS_H_

#include "src/hw/cpu.h"
#include "src/hw/paging.h"

namespace erebor {

struct EmcRing;  // src/kernel/mmu_ring.h

class PrivilegedOps {
 public:
  virtual ~PrivilegedOps() = default;

  // Page-table entry store (native_set_pte / EMC.WritePte).
  virtual Status WritePte(Cpu& cpu, Paddr entry_pa, Pte value) = 0;
  // Single-page TLB invalidation after unmap/protect. invlpg is privileged but not
  // in the paper's sensitive set (Table 2), so both backends execute it directly on
  // the vCPUs — no EMC round trip. Overridable so tests can interpose.
  virtual void InvlPg(Cpu& cpu, Paddr root, Vaddr va);
  // Declares a freshly allocated frame as a page-table page rooted at `root_pa` (the
  // monitor re-types the frame and write-protects it with the PTP protection key).
  virtual Status RegisterPtp(Cpu& cpu, FrameNum frame, Paddr root_pa) = 0;
  // Control registers: reg in {0, 3, 4}.
  virtual Status WriteCr(Cpu& cpu, int reg, uint64_t value) = 0;
  virtual Status WriteMsr(Cpu& cpu, uint32_t index, uint64_t value) = 0;
  virtual Status LoadIdt(Cpu& cpu, const IdtTable* table) = 0;

  // User-memory copies (the stac/clac window; interposed by the monitor, section 6.1).
  virtual Status CopyToUser(Cpu& cpu, Vaddr dst, const uint8_t* src, uint64_t len) = 0;
  virtual Status CopyFromUser(Cpu& cpu, Vaddr src, uint8_t* dst, uint64_t len) = 0;

  // GHCI (tdcall) requests.
  virtual Status Tdcall(Cpu& cpu, uint64_t leaf, uint64_t* args, size_t nargs) = 0;

  // Self-modifying kernel code (text_poke): validated + applied by the monitor.
  virtual Status TextPoke(Cpu& cpu, Paddr code_pa, const uint8_t* bytes, uint64_t len) = 0;

  // MMU-ring doorbell: one gate crossing that asks the monitor to drain this
  // vCPU's submission ring (src/kernel/mmu_ring.h). Backends without rings
  // refuse; callers must have checked mmu_ring() first.
  virtual Status RingDoorbell(Cpu& cpu) {
    (void)cpu;
    return FailedPreconditionError("this backend has no MMU rings");
  }
  // The submission/completion ring for a vCPU, or nullptr when rings are
  // disabled (the default). Not an EMC: this is how the kernel discovers the
  // shared-memory mapping, not a privileged operation.
  virtual EmcRing* mmu_ring(int cpu_index) {
    (void)cpu_index;
    return nullptr;
  }

  // Number of monitor calls made (0 for the native backend); Table 6's EMC/s metric.
  virtual uint64_t emc_count() const = 0;
};

// Direct execution on the vCPU (no Erebor).
class NativePrivOps : public PrivilegedOps {
 public:
  Status WritePte(Cpu& cpu, Paddr entry_pa, Pte value) override;
  Status RegisterPtp(Cpu& cpu, FrameNum frame, Paddr root_pa) override { return OkStatus(); }
  Status WriteCr(Cpu& cpu, int reg, uint64_t value) override;
  Status WriteMsr(Cpu& cpu, uint32_t index, uint64_t value) override;
  Status LoadIdt(Cpu& cpu, const IdtTable* table) override;
  Status CopyToUser(Cpu& cpu, Vaddr dst, const uint8_t* src, uint64_t len) override;
  Status CopyFromUser(Cpu& cpu, Vaddr src, uint8_t* dst, uint64_t len) override;
  Status Tdcall(Cpu& cpu, uint64_t leaf, uint64_t* args, size_t nargs) override;
  Status TextPoke(Cpu& cpu, Paddr code_pa, const uint8_t* bytes, uint64_t len) override;
  uint64_t emc_count() const override { return 0; }
};

}  // namespace erebor

#endif  // EREBOR_SRC_KERNEL_PRIVOPS_H_
