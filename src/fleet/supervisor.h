// Fleet supervisor: multi-tenant serving with hostile-traffic containment
// (ROADMAP items 2 and 4).
//
// Composes the pieces the paper evaluates in isolation into the serving scenario
// that matters at fleet scale: N remote clients, each bound to its own
// Erebor-Sandbox, exchanging AEAD records through the untrusted host proxy's
// batched-ingest path, while a configurable fraction of the tenants runs hostile
// traffic drawn from the attack classes the monitor already models:
//
//   kForgedRecord    - data records sealed under junk keys naming the tenant's own
//                      sandbox: absorbed as global auth rejects, never charged to
//                      any session.
//   kRelabeledRecord - records sealed under the attacker's keys but naming a benign
//                      victim's sandbox id: the AAD-bound header fails auth under
//                      the victim's keys, and the victim must not be penalized.
//   kStaleHello      - fresh-nonce ClientHellos against a live session with data
//                      installed: renegotiation is refused and counted hostile.
//   kGateProbe       - Garmr-class gate-entry probing from inside the sealed
//                      sandbox (a forbidden syscall): the kernel kill path
//                      quarantines the sandbox.
//   kRingDescriptors - hostile MMU-ring submissions (PR 7 taxonomy) on the ring
//                      bound to the tenant's sandbox: strike-counted, ring
//                      poisoned, sandbox quarantined.
//
// Failure handling is the first-class layer under test:
//  - per-session request timeouts with bounded, jittered exponential retry
//    (RemoteClient's shared backoff budget — no synchronized retry storms);
//  - health scoring per tenant from the monitor's existing strike signals
//    (fault strikes, session rejects, ring strikes) plus supervisor-observed
//    no-progress rounds;
//  - quarantine-and-replace from a warm standby pool with replacement-latency
//    accounting ("fleet.replacements", replacement histogram);
//  - per-tenant admission control (AdmissionController): a draining tenant's
//    requests are deferred then shed — never the fleet's.
//
// The containment property the bench and soak assert: every attacked session is
// quarantined and replaced (or shed once its replacement budget is spent), while
// never-attacked tenants are never quarantined and their p99 stays within a fixed
// budget of the attack-free baseline.
#ifndef EREBOR_SRC_FLEET_SUPERVISOR_H_
#define EREBOR_SRC_FLEET_SUPERVISOR_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/admission.h"
#include "src/sim/world.h"

namespace erebor {

enum class AttackClass : uint8_t {
  kNone,
  kForgedRecord,
  kRelabeledRecord,
  kStaleHello,
  kGateProbe,
  kRingDescriptors,
};

const char* AttackClassName(AttackClass attack);

struct FleetConfig {
  int num_vcpus = 4;
  int num_tenants = 8;
  int standby_pool = 2;
  int requests_per_tenant = 10;
  uint64_t seed = 1;
  // Execution engine for the RunBurstIngest parallel region; the serving loop
  // itself is scheduler-driven and single-threaded on both engines.
  ExecMode exec = ExecMode::kDeterministic;
  // Isolation backend for the fleet's world. PKS caps the fleet at 11 live
  // sandbox domains (standbys included); TME-MK lifts the ceiling to ~2K.
  IsolationKind isolation = IsolationKind::kPks;
  // Per-tenant attack classes; resized to num_tenants with kNone. Hostile tenants
  // serve round 0 benignly (their sessions must exist to be attacked), then fire
  // their attack every round from round 1 on.
  std::vector<AttackClass> attacks;
  AdmissionPolicy admission;
  // Arms the world's chaos engine (fault injection + host probes) on top of the
  // hostile-traffic mix.
  bool chaos = false;
  uint64_t chaos_seed = 1;
  // Warm-clone pool (ROADMAP item 2): Start() boots one benign service sandbox
  // to completion, freezes it as a copy-on-write template, and fills the standby
  // pool with template clones instead of cold boots. Standbys park without an
  // isolation domain (PKS has 11); PromoteStandby allocates the domain, then
  // runs the real attested handshake. Default off — the serving path, goldens
  // and fingerprints are bit-identical to the pre-pool supervisor.
  bool warm_clone_pool = false;
};

// Deterministic hostile mix: cycles through the five attack classes, spreading
// ceil(num_tenants * hostile_fraction) hostile tenants evenly across the fleet.
std::vector<AttackClass> MixedAttacks(int num_tenants, double hostile_fraction,
                                      uint64_t seed);

struct TenantReport {
  int tenant = 0;
  int sandbox_id = -1;
  AttackClass attack = AttackClass::kNone;
  TenantAdmitState admit_state = TenantAdmitState::kServing;
  uint64_t served = 0;
  uint64_t failed = 0;
  uint64_t deferred = 0;
  uint64_t shed = 0;
  uint64_t quarantines = 0;
  uint64_t replacements = 0;
  double health = 100.0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
};

struct FleetReport {
  bool ok = false;
  std::string error;
  int num_tenants = 0;
  std::vector<TenantReport> tenants;

  uint64_t total_served = 0;
  uint64_t total_failed = 0;
  uint64_t total_deferred = 0;
  uint64_t total_shed = 0;
  uint64_t quarantines = 0;
  uint64_t replacements = 0;

  // Aggregate request latency over never-attacked tenants (the containment SLO)
  // and over the whole fleet.
  uint64_t benign_p50_ns = 0;
  uint64_t benign_p99_ns = 0;
  uint64_t benign_p999_ns = 0;
  uint64_t fleet_p50_ns = 0;
  uint64_t fleet_p99_ns = 0;
  uint64_t fleet_p999_ns = 0;

  // Recovery: quarantine detection -> replacement session serving again.
  uint64_t replacement_max_ns = 0;
  uint64_t replacement_mean_ns = 0;

  double ops_per_sec = 0;      // served requests per simulated second (2.1 GHz)
  double span_seconds = 0;     // simulated serving span
  uint64_t invariant_violations = 0;

  // Order-sensitive digest of per-tenant outcomes: equal fingerprints mean the
  // whole serving run replayed identically.
  uint64_t fingerprint = 0;

  // True when every attacked tenant was quarantined+replaced (or shed after its
  // replacement budget) and no never-attacked tenant was ever quarantined.
  bool containment = false;
};

class FleetSupervisor {
 public:
  explicit FleetSupervisor(const FleetConfig& config);
  ~FleetSupervisor();

  // Boots the world (kEreborFull), starts the proxy, launches one serving
  // sandbox per tenant plus the warm standby pool, and completes every tenant's
  // attested handshake over the network.
  Status Start();

  // Runs the serving loop: requests_per_tenant rounds, round-robin across
  // tenants, hostile tenants firing their attack class from round 1.
  Status RunServing();

  // Post-serving parallel burst: pre-seals `rounds` records for every tenant
  // with a live session and ingests them through ProxyDeliverBatch from a
  // RunOnThreads region (tenant t pinned to vCPU t % num_vcpus). Returns
  // per-tenant ingested-record counts — the execution-engine equivalence
  // oracle. Identical configs must produce identical counts on both engines.
  StatusOr<std::vector<uint64_t>> RunBurstIngest(int rounds);

  FleetReport Report();

  World& world() { return *world_; }
  AdmissionController& admission() { return admission_; }
  const FleetConfig& config() const { return config_; }
  Sandbox* template_sandbox() { return template_sandbox_; }
  size_t standby_count() const { return standbys_.size(); }

 private:
  struct TenantState {
    int tenant = 0;
    AttackClass attack = AttackClass::kNone;
    Sandbox* sandbox = nullptr;
    std::unique_ptr<RemoteClient> client;
    std::unique_ptr<RemoteClient> hello_attacker;  // kStaleHello rogue hellos
    std::deque<Bytes> results;                     // demuxed opened results
    uint64_t served = 0;
    uint64_t failed = 0;
    uint64_t deferred_rounds = 0;
    uint64_t no_progress = 0;  // consecutive rounds without a served result
    uint64_t quarantines = 0;
    int replacements = 0;
    bool pending_replace = false;
    uint64_t replace_detect_cycles = 0;
    bool ring_bound = false;
    double health = 100.0;
    LatencyHistogram* latency = nullptr;  // registry-owned, per tenant
  };

  // clone_of: when non-null, the program's first active slice adopts this
  // (template) env's state and attaches as a clone instead of running full
  // LibOS init. promoted: when non-null, the program parks (touching nothing —
  // no fd, no confined memory, so no CoW break and no lazily-allocated
  // isolation domain) until the flag flips at promotion.
  ProgramFn MakeServiceProgram(const std::string& name, Cycles service_cycles,
                               bool gate_probe,
                               std::shared_ptr<LibosEnv> clone_of = nullptr,
                               std::shared_ptr<std::atomic<bool>> promoted = nullptr);
  StatusOr<Sandbox*> LaunchServiceSandbox(const std::string& name,
                                          Cycles service_cycles, bool gate_probe);
  Status LaunchStandby();
  // Warm-clone pool: boots + freezes the template sandbox (pool mode only).
  Status BootTemplate();

  uint64_t NowCycles() const;
  uint64_t NowNs() const { return CyclesToNs(NowCycles()); }
  static uint64_t CyclesToNs(uint64_t cycles) { return cycles * 10 / 21; }

  // Routes every queued world-side packet to its owning tenant (results are
  // opened into TenantState::results; ServerHellos complete handshakes).
  void DrainClientNetwork();
  void HandleClientWire(const Bytes& wire);
  TenantState* TenantBySandbox(int sandbox_id);

  Status Pump(uint64_t slices);
  bool SandboxDead(const TenantState& t) const;

  Status HandshakeTenant(TenantState& t);
  void ServeOne(TenantState& t, int round);
  void FireAttack(TenantState& t, int round);
  // Samples the monitor's strike signals into the tenant's health score and
  // applies the quarantine-and-replace / shed ladder.
  void SuperviseTenant(TenantState& t);
  void QuarantineTenant(TenantState& t, const std::string& reason);
  Status PromoteStandby(TenantState& t);

  FleetConfig config_;
  std::unique_ptr<World> world_;
  AdmissionController admission_;
  std::vector<TenantState> tenants_;
  std::deque<Sandbox*> standbys_;
  int standby_serial_ = 0;
  // Warm-clone pool state (null / false unless config_.warm_clone_pool).
  Sandbox* template_sandbox_ = nullptr;
  std::shared_ptr<LibosEnv> template_env_;
  // Per-standby promotion latches (by sandbox id); erased at promotion.
  std::map<int, std::shared_ptr<std::atomic<bool>>> standby_promoted_;
  // Flipped before SnapshotTemplate: the template task parks on it and never
  // touches its (now read-only) confined pages again.
  std::shared_ptr<std::atomic<bool>> template_frozen_ =
      std::make_shared<std::atomic<bool>>(false);
  // LibOS-initialization rendezvous: each service program bumps the counter once
  // its env is up; launches pump the scheduler until the count catches up.
  // shared_ptr because the program lambdas may outlive the supervisor's frames.
  std::shared_ptr<std::atomic<int>> ready_count_ =
      std::make_shared<std::atomic<int>>(0);
  int launched_ = 0;
  SplitMix64 rng_;
  SessionKeys junk_keys_;  // forged-record sealing keys (never the monitor's)

  LatencyHistogram* benign_latency_ = nullptr;
  LatencyHistogram* fleet_latency_ = nullptr;
  LatencyHistogram* replacement_latency_ = nullptr;

  uint64_t serving_start_cycles_ = 0;
  uint64_t serving_end_cycles_ = 0;
  bool started_ = false;
};

}  // namespace erebor

#endif  // EREBOR_SRC_FLEET_SUPERVISOR_H_
