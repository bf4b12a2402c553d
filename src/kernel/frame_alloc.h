// Physical frame allocators: a general bitmap pool and a contiguous CMA-style region
// reserved for sandbox confined memory (paper section 7: "Linux Contiguous Memory
// Allocator" backend).
#ifndef EREBOR_SRC_KERNEL_FRAME_ALLOC_H_
#define EREBOR_SRC_KERNEL_FRAME_ALLOC_H_

#include <vector>

#include "src/common/status.h"
#include "src/hw/types.h"

namespace erebor {

class FaultInjector;

class FrameAllocator {
 public:
  // `faults` is the owning Machine's injector (the "frame_alloc.alloc" probe).
  FrameAllocator(FrameNum first, FrameNum count, FaultInjector* faults);

  StatusOr<FrameNum> Alloc();
  StatusOr<FrameNum> AllocContiguous(uint64_t count);
  Status Free(FrameNum frame);

  FrameNum first() const { return first_; }
  FrameNum count() const { return count_; }
  uint64_t used() const { return used_; }
  uint64_t available() const { return count_ - used_; }
  bool Owns(FrameNum frame) const { return frame >= first_ && frame < first_ + count_; }

 private:
  FrameNum first_;
  FrameNum count_;
  std::vector<bool> bitmap_;
  FrameNum next_hint_ = 0;
  uint64_t used_ = 0;
  FaultInjector* faults_;
};

}  // namespace erebor

#endif  // EREBOR_SRC_KERNEL_FRAME_ALLOC_H_
