// The untrusted host hypervisor (KVM stand-in) plus its device models.
//
// The host services synchronous CVM exits (VMCALLs through the GHCI), injects external
// interrupts, and runs the virtual network that the in-guest proxy uses to talk to
// remote clients. It is *untrusted*: an attack harness (host/attacks.h) drives the same
// interfaces maliciously to validate the CVM protections.
#ifndef EREBOR_SRC_HOST_VMM_H_
#define EREBOR_SRC_HOST_VMM_H_

#include <deque>
#include <map>

#include "src/hw/machine.h"
#include "src/tdx/tdx_module.h"

namespace erebor {

// A host-side bidirectional packet pipe: the "physical network" between the CVM's
// virtio-net device and remote clients.
class HostNetwork {
 public:
  // `faults` is the Machine's injector, which owns the "net.*" probe sites.
  explicit HostNetwork(FaultInjector* faults) : faults_(faults) {}

  // Guest -> world. Fault point "net.to_world": the host may drop, duplicate,
  // reorder, corrupt, or truncate any packet it carries — confidentiality and
  // session progress must survive all of it.
  void GuestTransmit(Bytes packet);
  StatusOr<Bytes> WorldReceive();

  // World -> guest. Fault point "net.to_guest" (same adversarial actions).
  void WorldTransmit(Bytes packet);
  StatusOr<Bytes> GuestReceive();

  bool HasForGuest() const { return !to_guest_.empty(); }
  size_t world_pending() const { return to_world_.size(); }

  // The host can observe (sniff) every packet: confidentiality must come from the
  // monitor<->client channel encryption, not the transport.
  const std::deque<Bytes>& SniffToWorld() const { return to_world_; }
  const std::deque<Bytes>& SniffToGuest() const { return to_guest_; }

 private:
  FaultInjector* faults_;
  std::deque<Bytes> to_world_;
  std::deque<Bytes> to_guest_;
};

class HostVmm : public VmcallSink {
 public:
  HostVmm(Machine* machine, TdxModule* tdx);

  HostNetwork& network() { return network_; }

  // ---- VmcallSink ----
  GhciResponse HandleVmcall(const GhciRequest& request) override;

  // Injects a device interrupt into a guest CPU (asynchronous exit + re-entry).
  void InjectDeviceInterrupt(int cpu_index);

  uint64_t cpuid_requests() const { return cpuid_requests_; }
  uint64_t net_tx_packets() const { return net_tx_packets_; }

 private:
  Machine* machine_;
  TdxModule* tdx_;
  HostNetwork network_;
  uint64_t cpuid_requests_ = 0;
  uint64_t net_tx_packets_ = 0;
};

}  // namespace erebor

#endif  // EREBOR_SRC_HOST_VMM_H_
