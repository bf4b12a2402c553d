// Tests for the observability subsystem: per-CPU trace rings, the global tracer,
// log2 histograms / metrics registry, and the end-to-end invariant that the tracer's
// EMC-gate event count equals the monitor's emc_total counter.
#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/workloads/lmbench.h"

namespace erebor {
namespace {

TraceRecord MakeRecord(uint64_t payload) {
  TraceRecord r;
  r.kind = TraceEvent::kInterrupt;
  r.timestamp = payload;
  r.payload = payload;
  return r;
}

// ---- TraceRing ----

TEST(TraceRingTest, RetainsInOrderBeforeWraparound) {
  TraceRing ring(8);
  for (uint64_t i = 0; i < 5; ++i) {
    ring.Append(MakeRecord(i));
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  uint64_t expect = 0;
  ring.ForEach([&](const TraceRecord& r) { EXPECT_EQ(r.payload, expect++); });
  EXPECT_EQ(expect, 5u);
}

TEST(TraceRingTest, WraparoundKeepsNewestDropsOldest) {
  TraceRing ring(4);
  for (uint64_t i = 0; i < 10; ++i) {
    ring.Append(MakeRecord(i));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  // Retained records are the newest four, visited oldest-to-newest.
  uint64_t expect = 6;
  ring.ForEach([&](const TraceRecord& r) { EXPECT_EQ(r.payload, expect++); });
  EXPECT_EQ(expect, 10u);
}

// ---- Tracer ----

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(64);
  tracer.Disable();
  const uint64_t before = tracer.TotalEvents();
  for (int i = 0; i < 100; ++i) {
    tracer.Record(TraceEvent::kSyscallEnter, 0, i);
  }
  EXPECT_EQ(tracer.TotalEvents(), before);
  EXPECT_EQ(tracer.CountKind(TraceEvent::kSyscallEnter), 0u);
}

TEST(TracerTest, PerCpuRingsAreIsolated) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(64);
  tracer.Record(TraceEvent::kInterrupt, 0, 10, -1, 100);
  tracer.Record(TraceEvent::kInterrupt, 2, 20, -1, 200);
  tracer.Record(TraceEvent::kInterrupt, 2, 30, -1, 201);
  ASSERT_GE(tracer.num_rings(), 3);
  EXPECT_EQ(tracer.ring(0)->size(), 1u);
  EXPECT_EQ(tracer.ring(1)->size(), 0u);
  EXPECT_EQ(tracer.ring(2)->size(), 2u);
  tracer.ring(2)->ForEach([](const TraceRecord& r) { EXPECT_EQ(r.cpu, 2); });
  EXPECT_EQ(tracer.CountKind(TraceEvent::kInterrupt), 3u);
  tracer.Disable();
}

TEST(TracerTest, CountsSurviveRingWraparound) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(/*capacity_per_cpu=*/16);
  for (int i = 0; i < 1000; ++i) {
    tracer.Record(TraceEvent::kPageFault, 0, i);
  }
  // The ring retains only 16 records but the per-kind count is exact.
  EXPECT_EQ(tracer.ring(0)->size(), 16u);
  EXPECT_EQ(tracer.ring(0)->dropped(), 984u);
  EXPECT_EQ(tracer.CountKind(TraceEvent::kPageFault), 1000u);
  EXPECT_EQ(tracer.TotalEvents(), 1000u);
  tracer.Disable();
}

TEST(TracerTest, EnableResetsPriorState) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(64);
  tracer.Record(TraceEvent::kVeExit, 0, 1);
  ASSERT_EQ(tracer.CountKind(TraceEvent::kVeExit), 1u);
  tracer.Enable(64);
  EXPECT_EQ(tracer.CountKind(TraceEvent::kVeExit), 0u);
  EXPECT_EQ(tracer.TotalEvents(), 0u);
  tracer.Disable();
}

TEST(TracerTest, ChromeTraceJsonPairsGateEvents) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(64);
  tracer.Record(TraceEvent::kEmcEnter, 0, 100);
  tracer.Record(TraceEvent::kEmcExit, 0, 160);
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("emc_gate"), std::string::npos);
  tracer.Disable();
}

TEST(TracerTest, SummaryTableBreaksCountsPerPhase) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(64);
  tracer.MarkPhase("alpha", 0);
  tracer.Record(TraceEvent::kSyscallEnter, 0, 1);
  tracer.MarkPhase("beta", 10);
  tracer.Record(TraceEvent::kSyscallEnter, 0, 11);
  tracer.Record(TraceEvent::kSyscallEnter, 0, 12);
  const std::string table = tracer.SummaryTable();
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  EXPECT_NE(table.find("syscall_enter"), std::string::npos);
  tracer.Disable();
}

// ---- Histogram ----

TEST(HistogramTest, BucketIndexIsFloorLog2) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 0);
  EXPECT_EQ(Histogram::BucketIndex(2), 1);
  EXPECT_EQ(Histogram::BucketIndex(3), 1);
  EXPECT_EQ(Histogram::BucketIndex(4), 2);
  EXPECT_EQ(Histogram::BucketIndex(1023), 9);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10);
  EXPECT_EQ(Histogram::BucketIndex(1025), 10);
  EXPECT_EQ(Histogram::BucketIndex(~0ULL), 63);
}

TEST(HistogramTest, ObserveTracksStatsAndBuckets) {
  Histogram h;
  h.Observe(1);
  h.Observe(100);
  h.Observe(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1101u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1101.0 / 3);
  EXPECT_EQ(h.bucket(0), 1u);   // 1
  EXPECT_EQ(h.bucket(6), 1u);   // 100 in [64, 128)
  EXPECT_EQ(h.bucket(9), 1u);   // 1000 in [512, 1024)
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
}

TEST(HistogramTest, BucketFloorMatchesIndex) {
  EXPECT_EQ(Histogram::BucketFloor(0), 0u);
  EXPECT_EQ(Histogram::BucketFloor(1), 2u);
  EXPECT_EQ(Histogram::BucketFloor(10), 1024u);
  for (uint64_t v : {1ull, 2ull, 77ull, 4096ull, 123456789ull}) {
    const int i = Histogram::BucketIndex(v);
    EXPECT_LE(Histogram::BucketFloor(i), v);
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_LT(v, Histogram::BucketFloor(i + 1) == 0 ? ~0ULL
                                                      : Histogram::BucketFloor(i + 1));
    }
  }
}

// ---- MetricsRegistry ----

TEST(MetricsRegistryTest, OwnedCountersHaveStableAddresses) {
  MetricsRegistry registry;
  uint64_t* a = registry.Counter("a");
  registry.Increment("a", 5);
  // Creating more counters must not invalidate the first pointer.
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    registry.Counter(name);
  }
  EXPECT_EQ(registry.Counter("a"), a);
  EXPECT_EQ(*a, 5u);
  EXPECT_EQ(registry.Value("a"), 5u);
}

TEST(MetricsRegistryTest, ExternalCountersAreReadThrough) {
  MetricsRegistry registry;
  uint64_t cell = 7;
  registry.RegisterExternalCounter("ext", &cell);
  EXPECT_EQ(registry.Value("ext"), 7u);
  cell = 42;
  EXPECT_EQ(registry.Value("ext"), 42u);
  EXPECT_NE(registry.Summary().find("ext"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetZeroesOwnedInPlace) {
  MetricsRegistry registry;
  uint64_t* a = registry.Counter("a");
  *a = 9;
  registry.GetHistogram("h")->Observe(3);
  registry.Reset();
  EXPECT_EQ(*a, 0u);                       // same cell, zeroed
  EXPECT_EQ(registry.Counter("a"), a);     // pointer still valid
  EXPECT_EQ(registry.GetHistogram("h")->count(), 0u);
}

// ---- End-to-end: trace counts vs monitor counters ----

TEST(TraceEndToEndTest, LmbenchEmcGatePairsMatchMonitorCounter) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  const auto result = RunLmbench("read", SimMode::kEreborFull, /*iterations=*/200);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Every gate entry has a matching exit...
  EXPECT_EQ(tracer.CountKind(TraceEvent::kEmcEnter),
            tracer.CountKind(TraceEvent::kEmcExit));
  EXPECT_GT(result->trace_emc_enter, 0u);
  // ...and the trace-measured count over the run window equals the monitor's own
  // emc_total counter exactly (no uninstrumented or double-counted crossing).
  EXPECT_EQ(result->trace_emc_enter, result->emc_count);
  tracer.Disable();
}

TEST(TraceEndToEndTest, DisabledTracerSeesNoEventsAndSameCycles) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();  // reset, then turn off: the run must record nothing
  tracer.Disable();
  const auto off = RunLmbench("null", SimMode::kEreborFull, /*iterations=*/100);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(tracer.TotalEvents(), 0u);
  EXPECT_EQ(off->trace_emc_enter, 0u);

  tracer.Enable();
  const auto on = RunLmbench("null", SimMode::kEreborFull, /*iterations=*/100);
  tracer.Disable();
  ASSERT_TRUE(on.ok());
  // Tracing is observational: simulated cycle counts are identical on and off.
  EXPECT_EQ(on->total_cycles, off->total_cycles);
  EXPECT_EQ(on->operations, off->operations);
  EXPECT_EQ(on->emc_count, off->emc_count);
}

}  // namespace
}  // namespace erebor
