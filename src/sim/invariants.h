// Monitor invariant checker: the oracle run after injected faults (and on a cadence
// during chaos soaks) to prove that no fault — wherever it landed — degraded the
// security posture. It is a test and simulation oracle, not part of the monitor:
// it lives in erebor_sim, outside the TCB that scripts/tcb_loc.sh counts, and reads
// monitor state only through EreborMonitor's public accessors. Seven families of
// invariants, each checkable at any *safe point* (between scheduler slices, with no
// CPU mid-gate):
//
//  1. Frames: walking the frame table's reverse map, monitor/PTP/text frames carry
//     their protection tags (the backend's AuditFrame), kernel text and template
//     frames have no writable supervisor mapping, PTPs are not user-accessible,
//     confined frames are single-mapped and unreachable through the kernel direct
//     map, and no frame outside the shared-IO window is host-shared.
//  2. Gates: every CPU is back in kernel mode — PKRS == KernelModePkrs(), S_CET still
//     has IBT+shadow-stack enabled, and the #INT-gate save stack is empty (an entry
//     left on it means some exit path skipped its restore).
//  3. Secrets: no registered plaintext client secret appears in any materialized
//     frame outside confined memory — a corrupted shepherd path that leaked plaintext
//     into kernel or shared memory is caught here.
//  4. Locks: the EMC locking discipline held — no lock-ordering or unheld-mutation
//     violation was recorded by LockAudit, and at a safe point no vCPU still holds
//     a lock (a held lock here means a dispatch path leaked a guard).
//  5. Rings: every enabled MMU ring's monitor-owned state is self-consistent —
//     published sq_head/cq_tail equal the shadows, the completion backlog fits
//     the ring, drain accounting balances (applied + rejected bounded by what
//     was consumed), and a ring at or past the strike limit is poisoned.
//  6. Quarantine: a quarantined sandbox is fully fenced — no live MMU-ring slots
//     (every ring still bound to it is poisoned with its pending window flushed),
//     no undelivered reorder-buffer stash, and no residual plaintext or outbound
//     queues (the teardown scrub left nothing deliverable behind).
//  7. Domains: isolation-domain accounting balances — every live sandbox holds
//     exactly one backend domain (unique, non-zero, matching the backend's own
//     record), torn-down sandboxes hold none, and the live count never exceeds
//     the backend's budget.
#ifndef EREBOR_SRC_SIM_INVARIANTS_H_
#define EREBOR_SRC_SIM_INVARIANTS_H_

#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/hw/types.h"

namespace erebor {

class EreborMonitor;

class InvariantChecker {
 public:
  explicit InvariantChecker(EreborMonitor* monitor) : monitor_(monitor) {}

  // Registers a plaintext pattern that must never appear outside confined frames.
  // Use >= 16 high-entropy bytes; short patterns risk false positives against
  // unrelated memory.
  void AddSecret(const Bytes& pattern);

  // Runs every family; returns the first violation (InternalError) or OkStatus.
  Status CheckAll();

  Status CheckFrames();   // family 1 (frame-table reverse map)
  Status CheckGates();    // family 2
  Status CheckSecrets();  // family 3
  Status CheckLocks();       // family 4 (LockAudit discipline)
  Status CheckRings();       // family 5 (MMU-ring shadow-state consistency)
  Status CheckQuarantine();  // family 6 (quarantined sandboxes hold nothing live)
  Status CheckDomains();     // family 7 (isolation-domain accounting)

  uint64_t violations() const { return violations_; }

 private:
  EreborMonitor* monitor_;
  std::vector<Bytes> secrets_;
  uint64_t violations_ = 0;
};

}  // namespace erebor

#endif  // EREBOR_SRC_SIM_INVARIANTS_H_
