#include "src/host/vmm.h"

#include "src/common/faultpoint.h"

namespace erebor {

namespace {

// Applies an injected network fault to a packet bound for `queue`. Returns true if
// the packet was consumed (dropped); otherwise the caller enqueues normally (the
// corrupt/truncate actions mutate it in place, duplicate/reorder touch the queue).
bool ApplyNetFault(FaultInjector& faults, const char* site, Bytes& packet,
                   std::deque<Bytes>& queue) {
  const FaultDecision decision = faults.At(site);
  switch (decision.action) {
    case FaultAction::kDrop:
      return true;
    case FaultAction::kDuplicate:
      queue.push_back(packet);
      return false;
    case FaultAction::kReorder:
      // Jump the queue: this packet overtakes everything already in flight.
      queue.push_front(std::move(packet));
      return true;
    case FaultAction::kCorrupt:
      if (!packet.empty()) {
        packet[decision.entropy % packet.size()] ^=
            static_cast<uint8_t>(1 + (decision.entropy >> 8) % 255);
      }
      return false;
    case FaultAction::kTruncate:
      if (!packet.empty()) {
        packet.resize(decision.entropy % packet.size());
      }
      return false;
    default:
      return false;
  }
}

}  // namespace

void HostNetwork::GuestTransmit(Bytes packet) {
  if (faults_->Armed() && ApplyNetFault(*faults_, "net.to_world", packet, to_world_)) {
    return;
  }
  to_world_.push_back(std::move(packet));
}

void HostNetwork::WorldTransmit(Bytes packet) {
  if (faults_->Armed() && ApplyNetFault(*faults_, "net.to_guest", packet, to_guest_)) {
    return;
  }
  to_guest_.push_back(std::move(packet));
}

StatusOr<Bytes> HostNetwork::WorldReceive() {
  if (to_world_.empty()) {
    return NotFoundError("no packet pending for world");
  }
  Bytes packet = std::move(to_world_.front());
  to_world_.pop_front();
  return packet;
}

StatusOr<Bytes> HostNetwork::GuestReceive() {
  if (to_guest_.empty()) {
    return NotFoundError("no packet pending for guest");
  }
  Bytes packet = std::move(to_guest_.front());
  to_guest_.pop_front();
  return packet;
}

HostVmm::HostVmm(Machine* machine, TdxModule* tdx)
    : machine_(machine), tdx_(tdx), network_(&machine->faults()) {}

GhciResponse HostVmm::HandleVmcall(const GhciRequest& request) {
  GhciResponse response;
  switch (request.reason) {
    case GhciReason::kCpuid: {
      ++cpuid_requests_;
      // A fixed, synthetic CPUID surface: family/model in ret0, feature bits in ret1.
      response.ret0 = 0x000806F8;  // Emerald Rapids-ish signature
      response.ret1 = 0xBFEBFBFF;
      break;
    }
    case GhciReason::kMmioRead:
      response.ret0 = 0;  // devices return zero for unmapped MMIO
      break;
    case GhciReason::kMmioWrite:
      break;
    case GhciReason::kNetTx: {
      // The guest placed a packet in *shared* memory at arg0 (length arg1); the host
      // device DMA-reads it. DMA enforcement rejects private frames.
      Bytes packet(request.arg1);
      const Status st = machine_->dma().DeviceRead(request.arg0, packet.data(), packet.size());
      if (st.ok()) {
        ++net_tx_packets_;
        network_.GuestTransmit(std::move(packet));
        response.ret0 = 1;
      } else {
        response.ret0 = 0;  // transmission failed (blocked by IOMMU)
      }
      break;
    }
    case GhciReason::kNetRx: {
      auto packet = network_.GuestReceive();
      if (packet.ok()) {
        response.payload = std::move(*packet);
        response.ret0 = response.payload.size();
      } else {
        response.ret0 = 0;
      }
      break;
    }
    case GhciReason::kHalt:
      break;
  }
  return response;
}

void HostVmm::InjectDeviceInterrupt(int cpu_index) {
  machine_->interrupts().Inject(cpu_index, Vector::kDevice);
}

}  // namespace erebor
