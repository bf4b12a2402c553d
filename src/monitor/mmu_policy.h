// MMU virtualization policy engine (paper section 5.2 and 6.1).
//
// Every PTE the deprivileged kernel asks the monitor to write is validated — and where
// the paper's design *rewrites* rather than refuses (forcing protection tags onto
// monitor/PTP/kernel-text frames, stripping W from kernel text), the policy returns the
// adjusted value. Confined sandbox frames are simply unmappable by the kernel (the
// monitor maps them itself through a trusted path that updates map counts). The tag
// mechanics — which PTE bits carry a tag, whether the rewrite tags the mapping or binds
// the frame at the controller — belong to the isolation backend.
#ifndef EREBOR_SRC_MONITOR_MMU_POLICY_H_
#define EREBOR_SRC_MONITOR_MMU_POLICY_H_

#include "src/hw/paging.h"
#include "src/kernel/layout.h"
#include "src/monitor/frame_table.h"
#include "src/monitor/isolation.h"

namespace erebor {

class LockAudit;
class Machine;
class TlbShootdownBatch;

struct PolicyDecision {
  bool allowed = false;
  Pte adjusted_value = 0;  // value to actually write when allowed
  // Huge-page request that must be force-split into 4 KiB mappings (paper section 7
  // future work): the monitor materializes a page table covering the same range.
  bool needs_split = false;
  std::string denial_reason;
};

// Who stores a page-table entry through MmuPolicy::StorePte. The kind decides
// the lock probe and which TLB hook governs the shootdown, and whether the
// shootdown counts in monitor.tlb_shootdowns.
enum class PteStore : uint8_t {
  kTrusted,   // the monitor's own mappings (sandbox manager, split tables)
  kEmc,       // a kernel-requested store; the caller holds the entry's frame shard
  kRetrofit,  // RetrofitTag re-tagging a live supervisor leaf in place
};

class MmuPolicy {
 public:
  // `tlb_shootdowns` is the monitor counter that EMC and retrofit shootdowns
  // bump; `audit` receives the frame-shard probe of kEmc stores.
  MmuPolicy(Machine* machine, FrameTable* frames, IsolationBackend* isolation,
            LockAudit* audit, uint64_t* tlb_shootdowns)
      : machine_(machine), frames_(frames), isolation_(isolation), audit_(audit),
        tlb_shootdowns_(tlb_shootdowns) {}

  // Installed by the sandbox manager: approves user mappings of common-region frames
  // (root of the requesting address space, target frame, writability).
  using CommonMappingValidator = std::function<Status(Paddr, FrameNum, bool)>;
  void SetCommonValidator(CommonMappingValidator validator) {
    common_validator_ = std::move(validator);
  }

  // Validates a kernel-requested PTE store at `entry_pa` with `value`. Non-const:
  // allowed intermediate writes link the child PTP's paging level.
  PolicyDecision CheckPteWrite(Paddr entry_pa, Pte value);

  // Mirrors the PTP-level linking for monitor-trusted PTE writes (which bypass the
  // policy checks but must keep the hierarchy metadata coherent).
  void NoteTrustedLink(Paddr entry_pa, Pte value);

  // Validates a kernel-requested CR write. CR0.WP and the CR4 protection bits are
  // load-bearing and may never be cleared; CR3 must name a registered root PTP.
  Status CheckCrWrite(int reg, uint64_t value, uint64_t current_value) const;

  // Validates a kernel-requested MSR write. Monitor-owned MSRs (per backend: PKRS,
  // CET, shadow stack pointer, user-interrupt table) are refused.
  Status CheckMsrWrite(uint32_t index) const;

  // Validates a MapGPA shared conversion: only the shared-IO window may be shared.
  Status CheckSharedConversion(FrameNum first, uint64_t count, bool to_shared) const;

  // The monitor's one page-table store: writes `value` at `entry_pa`, keeps the
  // frame table's map counts and supervisor reverse map current, and, when a
  // present entry changed, drops its cached translations on every CPU (the
  // monitor's own TLB obligation, which holds even for a kernel that skips
  // invlpg). `deferred` non-null queues that shootdown for one coalesced flush
  // instead (ring drains). `cpu` is the storing vCPU; callers charge cycles.
  void StorePte(PteStore kind, int cpu, Paddr entry_pa, Pte value,
                TlbShootdownBatch* deferred = nullptr);

  // Retrofits a protection class (and optionally strips W) onto a frame — binds the
  // frame at the backend and rewrites any pre-existing supervisor mapping, closing
  // the window where a frame is re-typed after its direct-map entry was created
  // with the default tag. `cpu` may be null (no per-op cost accounting).
  Status RetrofitTag(Cpu* cpu, FrameNum frame, ProtClass cls, bool strip_write);

  IsolationBackend& isolation() const { return *isolation_; }

 private:
  // Single-mapping counts and the supervisor reverse map after a leaf store.
  void NoteLeafWrite(Pte old_value, Pte new_value, Paddr entry_pa);

  Machine* machine_;
  FrameTable* frames_;
  IsolationBackend* isolation_;
  LockAudit* audit_;
  uint64_t* tlb_shootdowns_;
  CommonMappingValidator common_validator_;
};

}  // namespace erebor

#endif  // EREBOR_SRC_MONITOR_MMU_POLICY_H_
