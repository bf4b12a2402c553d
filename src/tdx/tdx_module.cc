#include "src/tdx/tdx_module.h"

#include <cstring>

#include "src/common/faultpoint.h"
#include "src/common/log.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace erebor {

TdxModule::TdxModule(Machine* machine)
    : machine_(machine), rng_(0x7D7E51D0D) {
  report_mac_key_.resize(32);
  rng_.Fill(report_mac_key_.data(), report_mac_key_.size());
  attestation_key_ = GenerateKeyPair(GroupParams::Default(), rng_);
}

void TdxModule::MeasureBootComponent(const Bytes& binary) {
  measurements_.ExtendMrtd(Sha256::Hash(binary));
}

GhciResponse TdxModule::DispatchVmcall(const GhciRequest& request) {
  ++vmcall_count_;
  if (vmcall_sink_ == nullptr) {
    return GhciResponse{};
  }
  return vmcall_sink_->HandleVmcall(request);
}

Status TdxModule::Tdcall(Cpu& cpu, uint64_t leaf, uint64_t* args, size_t nargs) {
  FaultInjector& faults = machine_->faults();
  if (faults.Armed() && faults.Fire("tdx.tdcall.entry", FaultAction::kFail)) {
    // Models a transient SEAMCALL/TDCALL refusal (host scheduling the SEAM module
    // out): the guest sees a retryable error, never partial module state.
    return UnavailableError("EAGAIN: injected tdcall fault");
  }
  switch (leaf) {
    case tdcall_leaf::kVmcall: {
      if (nargs < 3) {
        return InvalidArgumentError("vmcall needs 3 args");
      }
      // Synchronous exit: the TDX module saves/restores the guest context around the
      // host handoff, so only the explicit GHCI registers are visible to the host.
      cpu.cycles().Charge(cpu.costs().tdcall_round_trip);
      Tracer& tracer = Tracer::Global();
      if (tracer.enabled()) {
        tracer.Record(TraceEvent::kTdxVmcall, cpu.index(), cpu.cycles().now(), -1,
                      args[0]);
        MetricsRegistry::Global()
            .GetHistogram("trace.tdcall_cycles")
            ->Observe(cpu.costs().tdcall_round_trip);
      }
      GhciRequest request;
      request.reason = static_cast<GhciReason>(args[0]);
      request.arg0 = args[1];
      request.arg1 = args[2];
      GhciResponse response = DispatchVmcall(request);
      if (faults.Armed() && faults.Fire("tdx.tdcall.exit", FaultAction::kCorrupt)) {
        // The host's GHCI response registers are untrusted. The injected corruption
        // scrubs them to the "host returned nothing" shape; consumers must treat it
        // as a failed/empty exchange and retry, never as trusted data.
        response = GhciResponse{};
      }
      args[1] = response.ret0;
      args[2] = response.ret1;
      if (!response.payload.empty() && request.reason == GhciReason::kNetRx) {
        // Host writes the received packet into the shared buffer named by arg0. The
        // DMA path enforces that the buffer is shared memory.
        EREBOR_RETURN_IF_ERROR(machine_->dma().DeviceWrite(
            request.arg0, response.payload.data(), response.payload.size()));
        args[1] = response.payload.size();
      }
      return OkStatus();
    }
    case tdcall_leaf::kTdReport: {
      if (nargs < 2) {
        return InvalidArgumentError("tdreport needs 2 args");
      }
      cpu.cycles().Charge(cpu.costs().native_tdreport);
      Tracer::Global().Record(TraceEvent::kTdxReport, cpu.index(), cpu.cycles().now());
      TdReport report;
      report.measurements = measurements_;
      EREBOR_RETURN_IF_ERROR(machine_->memory().Read(args[0], report.report_data.data(),
                                                     report.report_data.size()));
      const Bytes serialized = report.SerializeForMac();
      HmacSha256 mac(report_mac_key_);
      mac.Update(serialized);
      report.mac = mac.Finish();
      last_report_ = report;
      has_last_report_ = true;
      ++report_count_;
      return OkStatus();
    }
    case tdcall_leaf::kRtmrExtend: {
      if (nargs < 2) {
        return InvalidArgumentError("rtmr-extend needs 2 args");
      }
      if (args[0] >= 4) {
        return InvalidArgumentError("rtmr index out of range");
      }
      Digest256 digest;
      EREBOR_RETURN_IF_ERROR(machine_->memory().Read(args[1], digest.data(), digest.size()));
      measurements_.ExtendRtmr(static_cast<int>(args[0]), digest);
      Tracer::Global().Record(TraceEvent::kTdxRtmrExtend, cpu.index(),
                              cpu.cycles().now(), -1, args[0]);
      return OkStatus();
    }
    case tdcall_leaf::kMapGpa: {
      if (nargs < 3) {
        return InvalidArgumentError("map-gpa needs 3 args");
      }
      cpu.cycles().Charge(cpu.costs().tdcall_round_trip);
      const Paddr gpa = args[0];
      const uint64_t pages = args[1];
      const bool to_shared = args[2] != 0;
      if (!machine_->memory().Contains(gpa, pages * kPageSize)) {
        return OutOfRangeError("MapGPA range outside guest memory");
      }
      for (uint64_t i = 0; i < pages; ++i) {
        const FrameNum frame = FrameOf(gpa) + i;
        if (to_shared) {
          // Converting to shared surrenders the contents: the module scrubs the frame
          // so no stale private data leaks to the host.
          machine_->memory().ZeroFrame(frame);
        }
        machine_->memory().SetShared(frame, to_shared);
      }
      ++map_gpa_count_;
      Tracer::Global().Record(TraceEvent::kTdxMapGpa, cpu.index(), cpu.cycles().now(),
                              -1, pages);
      return OkStatus();
    }
    case tdcall_leaf::kAcceptPage:
      // Page-accept is a no-op in this simplified sEPT model (frames are pre-accepted).
      return OkStatus();
    default:
      return UnimplementedError("unknown tdcall leaf " + std::to_string(leaf));
  }
}

StatusOr<TdReport> TdxModule::TakeLastReport() {
  if (!has_last_report_) {
    return NotFoundError("no TDREPORT generated");
  }
  has_last_report_ = false;
  return last_report_;
}

TdQuote TdxModule::SignQuote(const TdReport& report) {
  TdQuote quote;
  quote.report = report;
  quote.signature = SchnorrSign(GroupParams::Default(), attestation_key_.private_key,
                                report.SerializeForMac(), rng_);
  return quote;
}

void TdxModule::AsyncExitToHost(Cpu& cpu) {
  // Save then scrub: the host scheduler sees zeroed registers (paper section 2.1).
  saved_contexts_[cpu.index()] = cpu.gprs();
  cpu.gprs().Clear();
}

void TdxModule::ResumeFromHost(Cpu& cpu) {
  const auto it = saved_contexts_.find(cpu.index());
  if (it != saved_contexts_.end()) {
    cpu.gprs() = it->second;
    saved_contexts_.erase(it);
  }
}

bool TdxModule::HasSavedContext(int cpu_index) const {
  return saved_contexts_.count(cpu_index) > 0;
}

Gprs TdxModule::HostVisibleGuestState(const Cpu& cpu) const {
  // During an async exit the guest state lives in the TDX module's protected save area;
  // the host-visible register file is whatever the module left in the vCPU (zeros).
  Gprs visible{};
  if (!HasSavedContext(cpu.index())) {
    visible = const_cast<Cpu&>(cpu).gprs();
  }
  return visible;
}

}  // namespace erebor
