#include "src/kernel/frame_alloc.h"

#include "src/common/faultpoint.h"

namespace erebor {

FrameAllocator::FrameAllocator(FrameNum first, FrameNum count, FaultInjector* faults)
    : first_(first), count_(count), bitmap_(count, false), faults_(faults) {}

StatusOr<FrameNum> FrameAllocator::Alloc() {
  if (faults_->Armed() && faults_->Fire("frame_alloc.alloc", FaultAction::kExhaust)) {
    return ResourceExhaustedError("frame pool exhausted (injected)");
  }
  for (FrameNum i = 0; i < count_; ++i) {
    const FrameNum slot = (next_hint_ + i) % count_;
    if (!bitmap_[slot]) {
      bitmap_[slot] = true;
      next_hint_ = slot + 1;
      ++used_;
      return first_ + slot;
    }
  }
  return ResourceExhaustedError("frame pool exhausted");
}

StatusOr<FrameNum> FrameAllocator::AllocContiguous(uint64_t count) {
  if (count == 0 || count > count_) {
    return InvalidArgumentError("bad contiguous request");
  }
  if (faults_->Armed() && faults_->Fire("frame_alloc.alloc", FaultAction::kExhaust)) {
    return ResourceExhaustedError("no contiguous run (injected exhaustion)");
  }
  uint64_t run = 0;
  for (FrameNum slot = 0; slot < count_; ++slot) {
    run = bitmap_[slot] ? 0 : run + 1;
    if (run == count) {
      const FrameNum start = slot + 1 - count;
      for (FrameNum i = start; i <= slot; ++i) {
        bitmap_[i] = true;
      }
      used_ += count;
      return first_ + start;
    }
  }
  return ResourceExhaustedError("no contiguous run of " + std::to_string(count));
}

Status FrameAllocator::Free(FrameNum frame) {
  if (!Owns(frame)) {
    return InvalidArgumentError("frame not owned by this allocator");
  }
  const FrameNum slot = frame - first_;
  if (!bitmap_[slot]) {
    return FailedPreconditionError("double free of frame " + std::to_string(frame));
  }
  bitmap_[slot] = false;
  --used_;
  return OkStatus();
}

}  // namespace erebor
