#include <algorithm>
#include <cstdio>

#include "perfbench/harness.h"

namespace perfbench {

int SpanLog::Open(const char* name, uint64_t op, int parent, uint64_t sim_now) {
  if (!enabled_) {
    return -1;
  }
  return Add(name, op, parent, HostNs(), 0, sim_now, 0);
}

void SpanLog::Close(int index, uint64_t sim_now, int64_t host_end_ns) {
  if (index < 0) {
    return;
  }
  Span& span = spans_[static_cast<size_t>(index)];
  span.host_end_ns = host_end_ns != 0 ? host_end_ns : HostNs();
  span.sim_end = sim_now;
}

int SpanLog::Add(const char* name, uint64_t op, int parent, int64_t host_start_ns,
                 int64_t host_end_ns, uint64_t sim_start, uint64_t sim_end) {
  if (!enabled_ && parent < 0) {
    return -1;
  }
  spans_.push_back(Span{name, op, parent, host_start_ns, host_end_ns, sim_start, sim_end});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::StartBlocks(uint64_t block_ops) {
  block_ops_ = block_ops;
  ops_in_block_ = 0;
  enabled_ = false;
  block_start_ns_ = HostNs();
}

void SpanLog::CloseBlock() {
  const int64_t now = HostNs();
  const int mode = enabled_ ? 1 : 0;
  block_seconds_[mode] += (now - block_start_ns_) / 1e9;
  block_op_count_[mode] += ops_in_block_;
  ops_in_block_ = 0;
  block_start_ns_ = now;
}

void SpanLog::OpFinished() {
  if (block_ops_ == 0 || ++ops_in_block_ < block_ops_) {
    return;
  }
  CloseBlock();
  enabled_ = !enabled_;
}

void SpanLog::FinishBlocks() {
  if (block_ops_ != 0) {
    CloseBlock();
    block_ops_ = 0;
    enabled_ = false;
  }
}

erebor::Status SpanLog::WriteTsv(const std::string& path) const {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return erebor::InternalError("cannot write " + path);
  }
  std::fprintf(file, "index\tname\top\tparent\thost_start_ns\thost_end_ns\tsim_start\tsim_end\n");
  const int64_t origin = spans_.empty() ? 0 : spans_.front().host_start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file, "%zu\t%s\t%llu\t%d\t%lld\t%lld\t%llu\t%llu\n", i, s.name,
                 static_cast<unsigned long long>(s.op), s.parent,
                 static_cast<long long>(s.host_start_ns - origin),
                 static_cast<long long>(s.host_end_ns - origin),
                 static_cast<unsigned long long>(s.sim_start),
                 static_cast<unsigned long long>(s.sim_end));
  }
  const bool ok = std::fclose(file) == 0;
  return ok ? erebor::OkStatus() : erebor::InternalError("short write to " + path);
}

namespace {

// Length of the union of [start, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = std::numeric_limits<int64_t>::min();
  for (const auto& [start, end] : intervals) {
    const int64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
    }
    reach = std::max(reach, end);
  }
  return covered;
}

}  // namespace

SpanSummary Summarize(const std::deque<Span>& spans, const char* op_span_name) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.host_start_ns,
                                                              span.host_end_ns);
    }
  }
  SpanSummary summary;
  double coverage_sum = 0;
  const std::string op_name = op_span_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const int64_t duration = span.host_end_ns - span.host_start_ns;
    const int64_t covered = UnionLength(children[i]);
    SpanSummary::PerName& entry = summary.by_name[span.name];
    ++entry.count;
    entry.host_us += duration / 1e3;
    entry.self_us += (duration - covered) / 1e3;
    entry.sim_cycles += static_cast<double>(span.sim_end - span.sim_start);
    if (span.parent < 0 && op_name == span.name) {
      const double coverage =
          duration > 0 ? static_cast<double>(covered) / static_cast<double>(duration) : 1.0;
      summary.coverage_min =
          summary.op_spans == 0 ? coverage : std::min(summary.coverage_min, coverage);
      coverage_sum += coverage;
      ++summary.op_spans;
    }
  }
  if (summary.op_spans > 0) {
    summary.coverage_mean = coverage_sum / static_cast<double>(summary.op_spans);
  }
  return summary;
}

}  // namespace perfbench
