#include <gtest/gtest.h>

#include <algorithm>

#include "src/client/client.h"
#include "src/common/faultpoint.h"
#include "src/common/metrics.h"
#include "src/libos/libos.h"
#include "src/sim/world.h"

namespace erebor {
namespace {

// ---- Wire format ----

TEST(PacketTest, ClientHelloRoundTrip) {
  Rng rng(1);
  Packet packet;
  packet.type = PacketType::kClientHello;
  packet.sandbox_id = 7;
  packet.client_public = GenerateKeyPair(GroupParams::Default(), rng).public_key;
  rng.Fill(packet.nonce.data(), packet.nonce.size());
  const auto back = Packet::Deserialize(packet.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, PacketType::kClientHello);
  EXPECT_EQ(back->sandbox_id, 7);
  EXPECT_EQ(back->client_public, packet.client_public);
  EXPECT_EQ(back->nonce, packet.nonce);
}

TEST(PacketTest, DataRecordRoundTrip) {
  Packet packet;
  packet.type = PacketType::kDataRecord;
  packet.sandbox_id = 3;
  packet.record.sequence = 42;
  packet.record.ciphertext = ToBytes("ciphertext bytes");
  packet.record.tag.fill(0xAD);
  const auto back = Packet::Deserialize(packet.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->record.sequence, 42u);
  EXPECT_EQ(back->record.ciphertext, packet.record.ciphertext);
  EXPECT_EQ(back->record.tag, packet.record.tag);
}

// One packet of `type` with every field set to a fixed, position-dependent
// pattern, so a serializer change that moves or drops a byte shows up.
Packet PatternPacket(PacketType type) {
  Packet packet;
  packet.type = type;
  packet.sandbox_id = -2;
  packet.client_public = U256(1, 2, 3, 4);
  packet.monitor_public = U256(5, 6, 7, 8);
  for (size_t i = 0; i < packet.nonce.size(); ++i) {
    packet.nonce[i] = static_cast<uint8_t>(i);
  }
  TdReport& report = packet.quote.report;
  for (size_t i = 0; i < 32; ++i) {
    report.measurements.mrtd[i] = static_cast<uint8_t>(0x20 + i);
    for (size_t r = 0; r < report.measurements.rtmr.size(); ++r) {
      report.measurements.rtmr[r][i] = static_cast<uint8_t>(0x40 * r + i);
    }
    report.mac[i] = static_cast<uint8_t>(0xE0 ^ i);
  }
  for (size_t i = 0; i < report.report_data.size(); ++i) {
    report.report_data[i] = static_cast<uint8_t>(0xA0 + i);
  }
  packet.quote.signature.commitment = U256(9, 10, 11, 12);
  packet.quote.signature.response = U256(13, 14, 15, 16);
  packet.record.sequence = 0x1122334455667788ULL;
  packet.record.ciphertext = ToBytes("sealed!");
  packet.record.tag.fill(0xAD);
  return packet;
}

TEST(PacketTest, SerializeBytesArePinnedForEveryType) {
  // The wire format is part of the client/monitor contract: every packet type
  // must serialize to exactly these bytes.
  const std::pair<PacketType, const char*> golden[] = {
      {PacketType::kClientHello,
       "01feffffff000000000000000400000000000000030000000000000002000000"
       "0000000001000102030405060708090a0b0c0d0e0f101112131415161718191a"
       "1b1c1d1e1f"},
      {PacketType::kServerHello,
       "02feffffff000000000000000800000000000000070000000000000006000000"
       "0000000005a0000000202122232425262728292a2b2c2d2e2f30313233343536"
       "3738393a3b3c3d3e3f000102030405060708090a0b0c0d0e0f10111213141516"
       "1718191a1b1c1d1e1f404142434445464748494a4b4c4d4e4f50515253545556"
       "5758595a5b5c5d5e5f808182838485868788898a8b8c8d8e8f90919293949596"
       "9798999a9b9c9d9e9fc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6"
       "d7d8d9dadbdcdddedfa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6"
       "b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6"
       "d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6"
       "f7f8f9fafbfcfdfeff000000000000000c000000000000000b00000000000000"
       "0a00000000000000090000000000000010000000000000000f00000000000000"
       "0e000000000000000d"},
      {PacketType::kDataRecord,
       "03feffffff8877665544332211070000007365616c656421adadadadadadadad"
       "adadadadadadadadadadadadadadadadadadadadadadadad"},
      {PacketType::kResultRecord,
       "04feffffff8877665544332211070000007365616c656421adadadadadadadad"
       "adadadadadadadadadadadadadadadadadadadadadadadad"},
      {PacketType::kFin,
       "05feffffff"},
  };
  for (const auto& [type, hex] : golden) {
    SCOPED_TRACE(static_cast<int>(type));
    const Packet packet = PatternPacket(type);
    EXPECT_EQ(HexEncode(packet.Serialize()), hex);
    const auto back = Packet::Deserialize(packet.Serialize());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->Serialize(), packet.Serialize());
  }
}

TEST(PacketTest, RejectsGarbage) {
  EXPECT_FALSE(Packet::Deserialize(ToBytes("x")).ok());
  EXPECT_FALSE(Packet::Deserialize(Bytes{0x63, 0, 0, 0, 0}).ok());  // unknown type
}

class PaddingTest : public testing::TestWithParam<size_t> {};

TEST_P(PaddingTest, PadUnpadRoundTripsAndQuantizes) {
  Bytes data(GetParam(), 0x5C);
  const auto padded = PadOutput(data, 4096);
  ASSERT_TRUE(padded.ok());
  // The smallest multiple of the quantum holding the 8-byte length prefix and
  // the data, zero-filled past the data.
  EXPECT_EQ(padded->size(), (8 + data.size() + 4095) / 4096 * 4096);
  EXPECT_EQ(LoadLe64(padded->data()), data.size());
  EXPECT_TRUE(std::all_of(padded->begin() + 8 + data.size(), padded->end(),
                          [](uint8_t b) { return b == 0; }));
  const auto back = UnpadOutput(*padded);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PaddingTest,
                         testing::Values(0, 1, 100, 4087, 4088, 4089, 65536));

TEST(PaddingTest, SameQuantumHidesSizeDifferences) {
  // Two outputs of different sizes produce identical wire lengths.
  const auto a = PadOutput(Bytes(10, 1), 4096);
  const auto b = PadOutput(Bytes(3000, 2), 4096);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->size(), b->size());
}

// ---- Hostile input (the monitor parses these from the untrusted network) ----

TEST(PaddingTest, ZeroQuantumRejected) {
  // Pre-fix this divided by zero (SIGFPE); the quantum comes from a sandbox spec.
  EXPECT_EQ(PadOutput(ToBytes("data"), 0).status().code(), ErrorCode::kInvalidArgument);
}

TEST(PaddingTest, TinyAndHugeQuantumsRejected) {
  EXPECT_FALSE(PadOutput(ToBytes("data"), 8).ok());  // cannot hold the length prefix
  EXPECT_FALSE(PadOutput(ToBytes("data"), ~0ULL).ok());
}

TEST(PaddingTest, UnpadRejectsOverflowingLength) {
  // Length prefix chosen so `len + 8` wraps to a small value: pre-fix this slipped
  // past the bound check and read far out of range.
  Bytes hostile(16, 0);
  StoreLe64(hostile.data(), ~0ULL - 6);  // 2^64 - 7
  EXPECT_FALSE(UnpadOutput(hostile).ok());
  StoreLe64(hostile.data(), ~0ULL);
  EXPECT_FALSE(UnpadOutput(hostile).ok());
}

TEST(PaddingTest, UnpadRejectsLengthBeyondBuffer) {
  Bytes hostile(16, 0);
  StoreLe64(hostile.data(), 9);  // buffer only holds 8 payload bytes
  EXPECT_FALSE(UnpadOutput(hostile).ok());
}

TEST(PacketTest, HugeLengthPrefixRejected) {
  // A DataRecord whose ciphertext length prefix claims ~4 GiB but whose wire is a few
  // bytes: parsing must fail without sizing a buffer from the prefix.
  Packet packet;
  packet.type = PacketType::kDataRecord;
  packet.sandbox_id = 1;
  packet.record.sequence = 0;
  packet.record.ciphertext = ToBytes("tiny");
  packet.record.tag.fill(0);
  Bytes wire = packet.Serialize();
  // The ciphertext length prefix sits after type(1) + sandbox(4) + sequence(8).
  StoreLe32(wire.data() + 13, 0xFFFFFFF0u);
  const auto parsed = Packet::Deserialize(wire);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument);
}

TEST(PacketTest, OversizedWireRejected) {
  Bytes wire(wire::kMaxWireBytes + 1, 0);
  wire[0] = static_cast<uint8_t>(PacketType::kFin);
  EXPECT_FALSE(Packet::Deserialize(wire).ok());
}

// ---- End-to-end attestation + data exchange over the untrusted network ----

class ChannelE2eTest : public testing::Test {
 protected:
  void SetUp() override {
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    config.machine.num_cpus = 2;
    world_ = std::make_unique<World>(config);
    ASSERT_TRUE(world_->Boot().ok());
    ASSERT_TRUE(world_->StartProxy().ok());

    // An echo sandbox: receives input, sends back a transformed copy.
    SandboxSpec spec;
    spec.name = "echo";
    auto sandbox = world_->LaunchSandboxProcess(
        "echo", spec,
        [this](SyscallContext& ctx) -> StepOutcome {
          if (!env_) {
            env_ = std::make_shared<LibosEnv>(
                LibosManifest{.name = "echo", .heap_bytes = 1 << 20},
                LibosBackend::kSandboxed);
          }
          if (!env_->initialized()) {
            EXPECT_TRUE(env_->Initialize(ctx).ok());
            return StepOutcome::kYield;
          }
          auto input = env_->RecvInput(ctx, 8192);
          if (!input.ok()) {
            return StepOutcome::kYield;
          }
          Bytes out = *input;
          for (uint8_t& b : out) {
            b ^= 0x20;  // "process" the data
          }
          EXPECT_TRUE(env_->SendOutput(ctx, out).ok());
          served_ = true;
          return StepOutcome::kYield;  // stay alive for Fin
        },
        &task_);
    ASSERT_TRUE(sandbox.ok());
    sandbox_ = *sandbox;
  }

  // Runs the guest until the client's receive queue has a packet.
  StatusOr<Bytes> PumpUntilClientPacket() {
    Bytes wire;
    const Status st = world_->RunUntil([&] {
      auto packet = world_->ClientReceive();
      if (packet.ok()) {
        wire = *packet;
        return true;
      }
      return false;
    });
    if (!st.ok()) {
      return st;
    }
    return wire;
  }

  std::unique_ptr<World> world_;
  std::shared_ptr<LibosEnv> env_;
  Sandbox* sandbox_ = nullptr;
  Task* task_ = nullptr;
  bool served_ = false;
};

TEST_F(ChannelE2eTest, FullAttestationAndDataRoundTrip) {
  RemoteClient client(world_->MakeTrustAnchors(), /*seed=*/77);

  // 1. Handshake.
  world_->ClientSend(client.MakeHello(sandbox_->id));
  auto server_hello = PumpUntilClientPacket();
  ASSERT_TRUE(server_hello.ok()) << server_hello.status().ToString();
  ASSERT_TRUE(client.ProcessServerHello(*server_hello).ok());
  EXPECT_TRUE(client.established());

  // 2. Send encrypted data; the host/proxy only ever see ciphertext.
  const Bytes secret = ToBytes("attack at dawn");
  const Bytes data_wire = client.SealData(secret);
  EXPECT_EQ(std::search(data_wire.begin(), data_wire.end(), secret.begin(),
                        secret.end()),
            data_wire.end());
  world_->ClientSend(data_wire);

  // 3. Receive the (padded, encrypted) result.
  auto result_wire = PumpUntilClientPacket();
  ASSERT_TRUE(result_wire.ok()) << result_wire.status().ToString();
  const auto result = client.OpenResult(*result_wire);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Bytes expected = secret;
  for (uint8_t& b : expected) {
    b ^= 0x20;
  }
  EXPECT_EQ(*result, expected);
  EXPECT_TRUE(served_);
  EXPECT_EQ(sandbox_->state, SandboxState::kSealed);

  // 4. Fin tears the sandbox down.
  world_->ClientSend(client.MakeFin());
  ASSERT_TRUE(
      world_->RunUntil([&] { return sandbox_->state == SandboxState::kTornDown; }).ok());
}

TEST_F(ChannelE2eTest, ClientRejectsWrongMeasurement) {
  ClientTrustAnchors anchors = world_->MakeTrustAnchors();
  anchors.expected_mrtd[0] ^= 1;  // expects a different monitor build
  RemoteClient client(anchors, 78);
  world_->ClientSend(client.MakeHello(sandbox_->id));
  auto server_hello = PumpUntilClientPacket();
  ASSERT_TRUE(server_hello.ok());
  EXPECT_EQ(client.ProcessServerHello(*server_hello).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(ChannelE2eTest, ClientRejectsQuoteFromWrongPlatform) {
  ClientTrustAnchors anchors = world_->MakeTrustAnchors();
  Rng rng(5);
  anchors.platform_attestation_key =
      GenerateKeyPair(GroupParams::Default(), rng).public_key;
  RemoteClient client(anchors, 79);
  world_->ClientSend(client.MakeHello(sandbox_->id));
  auto server_hello = PumpUntilClientPacket();
  ASSERT_TRUE(server_hello.ok());
  EXPECT_FALSE(client.ProcessServerHello(*server_hello).ok());
}

TEST_F(ChannelE2eTest, MitmCannotSubstituteDhShare) {
  // A malicious host swaps the monitor's DH share in the ServerHello. The quote's
  // report_data binds the transcript, so the client detects the substitution.
  RemoteClient client(world_->MakeTrustAnchors(), 80);
  world_->ClientSend(client.MakeHello(sandbox_->id));
  auto server_hello_wire = PumpUntilClientPacket();
  ASSERT_TRUE(server_hello_wire.ok());
  auto packet = Packet::Deserialize(*server_hello_wire);
  ASSERT_TRUE(packet.ok());
  Rng rng(6);
  packet->monitor_public = GenerateKeyPair(GroupParams::Default(), rng).public_key;
  EXPECT_FALSE(client.ProcessServerHello(packet->Serialize()).ok());
}

TEST_F(ChannelE2eTest, ReplayedDataRecordRejected) {
  RemoteClient client(world_->MakeTrustAnchors(), 81);
  world_->ClientSend(client.MakeHello(sandbox_->id));
  auto server_hello = PumpUntilClientPacket();
  ASSERT_TRUE(server_hello.ok());
  ASSERT_TRUE(client.ProcessServerHello(*server_hello).ok());

  const Bytes wire = client.SealData(ToBytes("first"));
  world_->ClientSend(wire);
  auto result = PumpUntilClientPacket();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(sandbox_->session.next_recv_seq, 1u);

  // Replaying the same record does not advance the session (AEAD sequence check).
  world_->ClientSend(wire);
  world_->kernel().Run(2000);
  EXPECT_EQ(sandbox_->session.next_recv_seq, 1u);
}


// ---- Injected transport faults (deterministic schedules over "net.to_guest") ----
//
// Hit-index arithmetic: with the injector armed before any client traffic, hit 0 of
// "net.to_guest" is the ClientHello, hit 1 the first DataRecord, hit 2 the second.
// Rules pin first_hit/max_fires so exactly the intended packet is faulted.

// Disarms the global injector even on assertion failure mid-test.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::Global().Disarm(); }
};

TEST_F(ChannelE2eTest, InjectedHelloDropHealsViaResend) {
  FaultGuard guard;
  FaultSchedule schedule;
  schedule.rules.push_back(FaultRule{
      .site = "net.to_guest", .action = FaultAction::kDrop, .max_fires = 1});
  FaultInjector::Global().Arm(/*seed=*/21, schedule);
  const uint64_t retries_before = MetricsRegistry::Global().Value("channel.retries");

  RemoteClient client(world_->MakeTrustAnchors(), 90);
  world_->ClientSend(client.MakeHello(sandbox_->id));  // hit 0: dropped in flight
  world_->kernel().Run(600);
  EXPECT_FALSE(world_->ClientReceive().ok()) << "dropped hello still got a response";

  // The client's loss recovery: byte-identical hello retransmission converges.
  world_->ClientSend(client.ResendHello());
  auto server_hello = PumpUntilClientPacket();
  ASSERT_TRUE(server_hello.ok()) << server_hello.status().ToString();
  ASSERT_TRUE(client.ProcessServerHello(*server_hello).ok());
  EXPECT_GE(client.retries(), 1u);
  EXPECT_GT(MetricsRegistry::Global().Value("channel.retries"), retries_before);
  EXPECT_GE(FaultInjector::Global().fired(), 1u);

  // The healed session carries data normally.
  world_->ClientSend(client.SealData(ToBytes("after the storm")));
  auto result_wire = PumpUntilClientPacket();
  ASSERT_TRUE(result_wire.ok());
  ASSERT_TRUE(client.OpenResult(*result_wire).ok());
}

TEST_F(ChannelE2eTest, InjectedDataDuplicationAbsorbedByReplayWindow) {
  FaultGuard guard;
  FaultSchedule schedule;
  schedule.rules.push_back(FaultRule{.site = "net.to_guest",
                                     .action = FaultAction::kDuplicate,
                                     .first_hit = 1,
                                     .max_fires = 1});
  FaultInjector::Global().Arm(22, schedule);

  RemoteClient client(world_->MakeTrustAnchors(), 91);
  world_->ClientSend(client.MakeHello(sandbox_->id));
  auto server_hello = PumpUntilClientPacket();
  ASSERT_TRUE(server_hello.ok());
  ASSERT_TRUE(client.ProcessServerHello(*server_hello).ok());

  // Hit 1: the record is enqueued twice by the network. The monitor accepts one copy
  // and absorbs the other in its replay window — data is never double-installed.
  world_->ClientSend(client.SealData(ToBytes("only once")));
  auto result_wire = PumpUntilClientPacket();
  ASSERT_TRUE(result_wire.ok());
  ASSERT_TRUE(client.OpenResult(*result_wire).ok());
  EXPECT_GE(sandbox_->session.duplicates, 1u);
  EXPECT_EQ(sandbox_->session.next_recv_seq, 1u);

  // Client-side deliberate retransmission: the monitor absorbs it as a duplicate and
  // retransmits the cached result, which the client's own window then rejects.
  world_->ClientSend(client.ResendData());
  auto retransmit = PumpUntilClientPacket();
  ASSERT_TRUE(retransmit.ok());
  EXPECT_EQ(client.OpenResult(*retransmit).status().code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(sandbox_->session.next_recv_seq, 1u);
  EXPECT_GE(sandbox_->session.retransmits, 1u);
}

TEST_F(ChannelE2eTest, InjectedReorderHealsWithinWindow) {
  FaultGuard guard;
  FaultSchedule schedule;
  schedule.rules.push_back(FaultRule{.site = "net.to_guest",
                                     .action = FaultAction::kReorder,
                                     .first_hit = 2,
                                     .max_fires = 1});
  FaultInjector::Global().Arm(23, schedule);

  RemoteClient client(world_->MakeTrustAnchors(), 92);
  world_->ClientSend(client.MakeHello(sandbox_->id));
  auto server_hello = PumpUntilClientPacket();
  ASSERT_TRUE(server_hello.ok());
  ASSERT_TRUE(client.ProcessServerHello(*server_hello).ok());

  // Both records enter the network back-to-back; hit 2 (the second record) jumps the
  // queue, so the monitor sees seq 1 before seq 0 and must stash-then-drain.
  world_->ClientSend(client.SealData(ToBytes("first record")));
  world_->ClientSend(client.SealData(ToBytes("second record")));

  auto result0 = PumpUntilClientPacket();
  ASSERT_TRUE(result0.ok());
  auto plain0 = client.OpenResult(*result0);
  ASSERT_TRUE(plain0.ok()) << plain0.status().ToString();
  auto result1 = PumpUntilClientPacket();
  ASSERT_TRUE(result1.ok());
  auto plain1 = client.OpenResult(*result1);
  ASSERT_TRUE(plain1.ok()) << plain1.status().ToString();

  Bytes expect0 = ToBytes("first record");
  Bytes expect1 = ToBytes("second record");
  for (uint8_t& b : expect0) {
    b ^= 0x20;
  }
  for (uint8_t& b : expect1) {
    b ^= 0x20;
  }
  EXPECT_EQ(*plain0, expect0);
  EXPECT_EQ(*plain1, expect1);
  EXPECT_GE(sandbox_->session.reorders, 1u);
  EXPECT_EQ(sandbox_->session.next_recv_seq, 2u);
  EXPECT_TRUE(sandbox_->session.reorder.empty());  // stash fully drained
}

TEST_F(ChannelE2eTest, MidHandshakeTruncationRetried) {
  FaultGuard guard;
  FaultSchedule schedule;
  schedule.rules.push_back(FaultRule{
      .site = "net.to_guest", .action = FaultAction::kTruncate, .max_fires = 1});
  FaultInjector::Global().Arm(24, schedule);

  RemoteClient client(world_->MakeTrustAnchors(), 93);
  // Hit 0: the hello is cut short in flight; the monitor rejects the unparseable
  // packet without wedging, and the retransmitted hello completes the handshake.
  world_->ClientSend(client.MakeHello(sandbox_->id));
  world_->kernel().Run(600);
  EXPECT_FALSE(world_->ClientReceive().ok());
  EXPECT_FALSE(client.established());

  world_->ClientSend(client.ResendHello());
  auto server_hello = PumpUntilClientPacket();
  ASSERT_TRUE(server_hello.ok()) << server_hello.status().ToString();
  ASSERT_TRUE(client.ProcessServerHello(*server_hello).ok());
  EXPECT_TRUE(client.established());
  EXPECT_GE(client.retries(), 1u);
}

TEST_F(ChannelE2eTest, CorruptedRecordRejectedThenRetransmitHeals) {
  FaultGuard guard;
  FaultSchedule schedule;
  schedule.rules.push_back(FaultRule{.site = "net.to_guest",
                                     .action = FaultAction::kCorrupt,
                                     .first_hit = 1,
                                     .max_fires = 1});
  FaultInjector::Global().Arm(25, schedule);

  RemoteClient client(world_->MakeTrustAnchors(), 94);
  world_->ClientSend(client.MakeHello(sandbox_->id));
  auto server_hello = PumpUntilClientPacket();
  ASSERT_TRUE(server_hello.ok());
  ASSERT_TRUE(client.ProcessServerHello(*server_hello).ok());

  // Hit 1: one byte of the record flips in flight. Whatever the flipped byte hits
  // (header or ciphertext), the monitor must reject the record without advancing the
  // sequence — so the byte-identical retransmission is accepted cleanly.
  world_->ClientSend(client.SealData(ToBytes("tamper target")));
  world_->kernel().Run(2000);
  EXPECT_EQ(sandbox_->session.next_recv_seq, 0u);
  EXPECT_TRUE(sandbox_->input_plaintext.empty());
  EXPECT_FALSE(world_->ClientReceive().ok());

  world_->ClientSend(client.ResendData());
  auto result_wire = PumpUntilClientPacket();
  ASSERT_TRUE(result_wire.ok()) << result_wire.status().ToString();
  auto result = client.OpenResult(*result_wire);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Bytes expected = ToBytes("tamper target");
  for (uint8_t& b : expected) {
    b ^= 0x20;
  }
  EXPECT_EQ(*result, expected);
  EXPECT_EQ(sandbox_->session.next_recv_seq, 1u);
  EXPECT_GE(client.retries(), 1u);
}

TEST_F(ChannelE2eTest, ConcurrentSessionsAreIsolated) {
  // A second sandbox + client alongside the fixture's; the two sessions interleave
  // over the same proxy and network, and neither can touch the other's data.
  SandboxSpec spec;
  spec.name = "echo2";
  auto env2 = std::make_shared<LibosEnv>(
      LibosManifest{.name = "echo2", .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
  auto sandbox2 = world_->LaunchSandboxProcess(
      "echo2", spec, [env2](SyscallContext& ctx) -> StepOutcome {
        if (!env2->initialized()) {
          EXPECT_TRUE(env2->Initialize(ctx).ok());
          return StepOutcome::kYield;
        }
        auto input = env2->RecvInput(ctx, 8192);
        if (!input.ok()) {
          return StepOutcome::kYield;
        }
        Bytes out = *input;
        for (uint8_t& b : out) {
          b ^= 0x20;
        }
        EXPECT_TRUE(env2->SendOutput(ctx, out).ok());
        return StepOutcome::kYield;
      });
  ASSERT_TRUE(sandbox2.ok());

  RemoteClient alice(world_->MakeTrustAnchors(), 501);
  RemoteClient bob(world_->MakeTrustAnchors(), 502);
  world_->ClientSend(alice.MakeHello(sandbox_->id));
  auto hello_a = PumpUntilClientPacket();
  ASSERT_TRUE(hello_a.ok());
  ASSERT_TRUE(alice.ProcessServerHello(*hello_a).ok());
  world_->ClientSend(bob.MakeHello((*sandbox2)->id));
  auto hello_b = PumpUntilClientPacket();
  ASSERT_TRUE(hello_b.ok());
  ASSERT_TRUE(bob.ProcessServerHello(*hello_b).ok());

  // Interleave data records.
  world_->ClientSend(alice.SealData(ToBytes("alice-data")));
  world_->ClientSend(bob.SealData(ToBytes("bob-data")));
  auto result1 = PumpUntilClientPacket();
  ASSERT_TRUE(result1.ok());
  auto result2 = PumpUntilClientPacket();
  ASSERT_TRUE(result2.ok());

  // Results arrive tagged for each sandbox; each client opens exactly its own.
  auto try_open = [&](RemoteClient& client, const Bytes& wire) -> StatusOr<Bytes> {
    return client.OpenResult(wire);
  };
  Bytes alice_plain, bob_plain;
  for (const Bytes* wire : {&*result1, &*result2}) {
    const auto packet = Packet::Deserialize(*wire);
    ASSERT_TRUE(packet.ok());
    if (packet->sandbox_id == sandbox_->id) {
      auto r = try_open(alice, *wire);
      ASSERT_TRUE(r.ok());
      alice_plain = *r;
      // Bob must NOT be able to open Alice's result (different session keys).
      EXPECT_FALSE(try_open(bob, *wire).ok());
    } else {
      auto r = try_open(bob, *wire);
      ASSERT_TRUE(r.ok());
      bob_plain = *r;
    }
  }
  Bytes expect_a = ToBytes("alice-data");
  Bytes expect_b = ToBytes("bob-data");
  for (uint8_t& b : expect_a) {
    b ^= 0x20;
  }
  for (uint8_t& b : expect_b) {
    b ^= 0x20;
  }
  EXPECT_EQ(alice_plain, expect_a);
  EXPECT_EQ(bob_plain, expect_b);
}

// ---- Zero-copy record wire path ----

TEST(RecordWireTest, SealRecordWireMatchesPacketSerialize) {
  // The zero-copy seal must emit byte-identical wire to the Packet path, or a
  // mixed-version client/monitor pair would desync.
  const SessionKeys keys = DeriveSessionKeys(Bytes(32, 0x21), Digest256{});
  const Bytes plaintext = ToBytes("zero copy or bust");
  const Bytes wire =
      SealRecordWire(keys.client_to_server, PacketType::kDataRecord, 5, 3, plaintext);

  Packet packet;
  packet.type = PacketType::kDataRecord;
  packet.sandbox_id = 5;
  packet.record =
      AeadSeal(keys.client_to_server,
               RecordAad{static_cast<uint8_t>(PacketType::kDataRecord), 5}, 3,
               plaintext);
  packet.record.sequence = 3;
  EXPECT_EQ(wire, packet.Serialize());
}

TEST(RecordWireTest, ParseOpenRoundTripAndRejections) {
  const SessionKeys keys = DeriveSessionKeys(Bytes(32, 0x22), Digest256{});
  const Bytes plaintext = ToBytes("view first, decrypt second");
  const Bytes wire =
      SealRecordWire(keys.client_to_server, PacketType::kDataRecord, 9, 0, plaintext);

  auto view = ParseRecordWire(wire);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->type, PacketType::kDataRecord);
  EXPECT_EQ(view->sandbox_id, 9);
  EXPECT_EQ(view->sequence, 0u);
  auto opened = OpenRecordWire(keys.client_to_server, *view, 0);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, plaintext);
  // Wrong expected sequence: refused before any decryption happens.
  EXPECT_FALSE(OpenRecordWire(keys.client_to_server, *view, 1).ok());

  // Every truncation is rejected (a record's length prefix must match exactly).
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(ParseRecordWire(Bytes(wire.begin(), wire.begin() + cut)).ok());
  }
  // So is trailing garbage and a non-record type byte.
  Bytes padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(ParseRecordWire(padded).ok());
  Bytes relabeled = wire;
  relabeled[0] = static_cast<uint8_t>(PacketType::kClientHello);
  EXPECT_FALSE(ParseRecordWire(relabeled).ok());
}

// ---- Reorder buffer hygiene (the stale-stash leak) ----

SealedRecord MakeStashRecord(uint64_t seq) {
  SealedRecord record;
  record.sequence = seq;
  record.ciphertext = ToBytes("stash payload");
  return record;
}

TEST(ChannelSessionTest, StaleStashEntryPrunedWhenGapFillsInSequence) {
  // Seq 1 arrives early and is stashed; then 0 and 1 both arrive in sequence
  // (the client retransmitted 1, racing its own reordered copy). The stashed
  // copy of 1 falls below the window and must be pruned on advance — before the
  // fix it sat in the map forever, because TakeDrainable only ever looks at
  // exactly next_recv_seq.
  ChannelSession session;
  session.established = true;
  EXPECT_EQ(session.AdmitRecord(1, MakeStashRecord(1)),
            ChannelSession::RecordAdmit::kStashed);
  EXPECT_EQ(session.reorder.size(), 1u);

  EXPECT_EQ(session.AdmitRecord(0, MakeStashRecord(0)),
            ChannelSession::RecordAdmit::kInSequence);
  session.AdvanceRecv();
  EXPECT_EQ(session.AdmitRecord(1, MakeStashRecord(1)),
            ChannelSession::RecordAdmit::kInSequence);
  session.AdvanceRecv();
  EXPECT_TRUE(session.reorder.empty()) << "stale stash entry leaked";
  EXPECT_EQ(session.next_recv_seq, 2u);
}

TEST(ChannelSessionTest, ReorderBufferBoundedAtWindowAndDrainsEmpty) {
  ChannelSession session;
  session.established = true;
  // Fill the entire window ahead of the gap at 0.
  for (uint64_t seq = 1; seq <= ChannelSession::kReorderWindow; ++seq) {
    EXPECT_EQ(session.AdmitRecord(seq, MakeStashRecord(seq)),
              ChannelSession::RecordAdmit::kStashed);
    EXPECT_LE(session.reorder.size(), ChannelSession::kReorderWindow);
  }
  // One past the window is refused outright, never stashed.
  EXPECT_EQ(session.AdmitRecord(ChannelSession::kReorderWindow + 1,
                                MakeStashRecord(ChannelSession::kReorderWindow + 1)),
            ChannelSession::RecordAdmit::kRejected);
  EXPECT_EQ(session.reorder.size(), ChannelSession::kReorderWindow);

  // The gap fills: drain everything, checking the bound at every step.
  EXPECT_EQ(session.AdmitRecord(0, MakeStashRecord(0)),
            ChannelSession::RecordAdmit::kInSequence);
  session.AdvanceRecv();
  SealedRecord drained;
  while (session.TakeDrainable(&drained)) {
    EXPECT_EQ(drained.sequence, session.next_recv_seq);
    session.AdvanceRecv();
    EXPECT_LE(session.reorder.size(), ChannelSession::kReorderWindow);
  }
  EXPECT_TRUE(session.reorder.empty());
  EXPECT_EQ(session.next_recv_seq, ChannelSession::kReorderWindow + 1);
}

TEST_F(ChannelE2eTest, ForgedRecordHeaderDoesNotStrikeVictimSession) {
  // An attacker who rewrites the (unencrypted) record header must not be able
  // to charge auth failures to the session the forged header points at — that
  // would let re-addressed garbage strike out and quarantine an innocent
  // sandbox.
  SandboxSpec spec;
  spec.name = "victim2";
  auto sandbox2 = world_->LaunchSandboxProcess(
      "victim2", spec, [](SyscallContext&) { return StepOutcome::kYield; });
  ASSERT_TRUE(sandbox2.ok());

  RemoteClient alice(world_->MakeTrustAnchors(), 701);
  RemoteClient bob(world_->MakeTrustAnchors(), 702);
  world_->ClientSend(alice.MakeHello(sandbox_->id));
  auto hello_a = PumpUntilClientPacket();
  ASSERT_TRUE(hello_a.ok());
  ASSERT_TRUE(alice.ProcessServerHello(*hello_a).ok());
  world_->ClientSend(bob.MakeHello((*sandbox2)->id));
  auto hello_b = PumpUntilClientPacket();
  ASSERT_TRUE(hello_b.ok());
  ASSERT_TRUE(bob.ProcessServerHello(*hello_b).ok());

  // Alice's session goes live (data installed) before the attacks.
  world_->ClientSend(alice.SealData(ToBytes("legit data")));
  auto result0 = PumpUntilClientPacket();
  ASSERT_TRUE(result0.ok());
  ASSERT_TRUE(alice.OpenResult(*result0).ok());

  const uint64_t corrupt_before =
      MetricsRegistry::Global().Value("channel.corrupt_rejects");
  const uint64_t victim_rejects_before = sandbox_->session.rejects;

  // Attack 1: re-route Bob's record to Alice's sandbox, patching the sequence
  // field to Alice's expected one so it reaches authentication.
  Bytes rerouted = bob.SealData(ToBytes("poison pill"));
  StoreLe32(rerouted.data() + 1, static_cast<uint32_t>(sandbox_->id));
  StoreLe64(rerouted.data() + 5, sandbox_->session.next_recv_seq);
  world_->ClientSend(rerouted);

  // Attack 2: relabel Alice's own result record (kResultRecord -> kDataRecord)
  // and bounce it back at her sandbox with a patched sequence.
  Bytes relabeled = *result0;
  relabeled[0] = static_cast<uint8_t>(PacketType::kDataRecord);
  StoreLe64(relabeled.data() + 5, sandbox_->session.next_recv_seq);
  world_->ClientSend(relabeled);
  world_->kernel().Run(3000);

  // Both forgeries were rejected by the AAD-bound tag...
  EXPECT_EQ(MetricsRegistry::Global().Value("channel.corrupt_rejects"),
            corrupt_before + 2);
  EXPECT_EQ(sandbox_->session.next_recv_seq, 1u);
  EXPECT_EQ(sandbox_->input_plaintext.size(), 0u);  // consumed the one legit input
  // ...and NOTHING was charged to the victim: no session rejects, no fault
  // strikes, no quarantine.
  EXPECT_EQ(sandbox_->session.rejects, victim_rejects_before);
  EXPECT_EQ(sandbox_->fault_strikes, 0u);
  EXPECT_EQ(sandbox_->state, SandboxState::kSealed);

  // The victim session still serves traffic with its original keys.
  world_->ClientSend(alice.SealData(ToBytes("still trusted")));
  auto result1 = PumpUntilClientPacket();
  ASSERT_TRUE(result1.ok());
  auto plain1 = alice.OpenResult(*result1);
  ASSERT_TRUE(plain1.ok());
  Bytes expected = ToBytes("still trusted");
  for (uint8_t& b : expected) {
    b ^= 0x20;
  }
  EXPECT_EQ(*plain1, expected);
}

TEST_F(ChannelE2eTest, StaleHelloCannotTearDownLiveSession) {
  RemoteClient alice(world_->MakeTrustAnchors(), 711);
  world_->ClientSend(alice.MakeHello(sandbox_->id));
  auto hello = PumpUntilClientPacket();
  ASSERT_TRUE(hello.ok());
  ASSERT_TRUE(alice.ProcessServerHello(*hello).ok());

  // The first record installs data: the session is now live.
  world_->ClientSend(alice.SealData(ToBytes("live data")));
  auto result = PumpUntilClientPacket();
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(alice.OpenResult(*result).ok());
  ASSERT_TRUE(sandbox_->session.data_installed);

  // The host replays a recorded stale hello (valid format, different nonce).
  // Pre-fix this renegotiated: it destroyed the live session's keys, reorder
  // state and cached results — a zero-cost DoS for anyone holding an old hello.
  const uint64_t hostile_before =
      MetricsRegistry::Global().Value("channel.hostile_hellos");
  RemoteClient eve(world_->MakeTrustAnchors(), 712);
  world_->ClientSend(eve.MakeHello(sandbox_->id));
  world_->kernel().Run(2000);
  EXPECT_EQ(MetricsRegistry::Global().Value("channel.hostile_hellos"),
            hostile_before + 1);
  EXPECT_FALSE(world_->ClientReceive().ok()) << "hostile hello got a ServerHello";

  // The live session survived: same keys, same sequence space, still serving.
  EXPECT_TRUE(sandbox_->session.established);
  EXPECT_EQ(sandbox_->session.next_recv_seq, 1u);
  world_->ClientSend(alice.SealData(ToBytes("still alive")));
  auto result2 = PumpUntilClientPacket();
  ASSERT_TRUE(result2.ok()) << result2.status().ToString();
  auto plain2 = alice.OpenResult(*result2);
  ASSERT_TRUE(plain2.ok());
  Bytes expected = ToBytes("still alive");
  for (uint8_t& b : expected) {
    b ^= 0x20;
  }
  EXPECT_EQ(*plain2, expected);
}

TEST_F(ChannelE2eTest, RenegotiationAllowedBeforeDataAndAfterFin) {
  // Before any data is installed, a fresh hello may legitimately re-key the
  // slot (e.g. the client rebooted after the handshake).
  RemoteClient first(world_->MakeTrustAnchors(), 721);
  world_->ClientSend(first.MakeHello(sandbox_->id));
  auto hello1 = PumpUntilClientPacket();
  ASSERT_TRUE(hello1.ok());
  ASSERT_TRUE(first.ProcessServerHello(*hello1).ok());

  RemoteClient second(world_->MakeTrustAnchors(), 722);
  world_->ClientSend(second.MakeHello(sandbox_->id));
  auto hello2 = PumpUntilClientPacket();
  ASSERT_TRUE(hello2.ok()) << "pre-data renegotiation must be answered";
  ASSERT_TRUE(second.ProcessServerHello(*hello2).ok());

  // The renegotiated session carries data end to end.
  world_->ClientSend(second.SealData(ToBytes("renegotiated")));
  auto result = PumpUntilClientPacket();
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(second.OpenResult(*result).ok());

  // After kFin the slot opens up again: a new hello is answered, not hostile.
  const uint64_t hostile_before =
      MetricsRegistry::Global().Value("channel.hostile_hellos");
  world_->ClientSend(second.MakeFin());
  ASSERT_TRUE(
      world_->RunUntil([&] { return sandbox_->state == SandboxState::kTornDown; }).ok());
  RemoteClient third(world_->MakeTrustAnchors(), 723);
  world_->ClientSend(third.MakeHello(sandbox_->id));
  auto hello3 = PumpUntilClientPacket();
  EXPECT_TRUE(hello3.ok()) << "post-fin renegotiation must be answered";
  EXPECT_EQ(MetricsRegistry::Global().Value("channel.hostile_hellos"), hostile_before);
}

TEST_F(ChannelE2eTest, BatchedIngestProcessesEveryPacketAcrossSessions) {
  // A burst containing records for two sessions plus one malformed packet: the
  // batch entry point must process every packet (grouped per sandbox, order
  // preserved within each) and still report the malformed one's error.
  SandboxSpec spec;
  spec.name = "echo2";
  auto env2 = std::make_shared<LibosEnv>(
      LibosManifest{.name = "echo2", .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
  auto sandbox2 = world_->LaunchSandboxProcess(
      "echo2", spec, [env2](SyscallContext& ctx) -> StepOutcome {
        if (!env2->initialized()) {
          EXPECT_TRUE(env2->Initialize(ctx).ok());
        }
        return StepOutcome::kYield;
      });
  ASSERT_TRUE(sandbox2.ok());

  RemoteClient alice(world_->MakeTrustAnchors(), 731);
  RemoteClient bob(world_->MakeTrustAnchors(), 732);
  world_->ClientSend(alice.MakeHello(sandbox_->id));
  auto hello_a = PumpUntilClientPacket();
  ASSERT_TRUE(hello_a.ok());
  ASSERT_TRUE(alice.ProcessServerHello(*hello_a).ok());
  world_->ClientSend(bob.MakeHello((*sandbox2)->id));
  auto hello_b = PumpUntilClientPacket();
  ASSERT_TRUE(hello_b.ok());
  ASSERT_TRUE(bob.ProcessServerHello(*hello_b).ok());

  std::vector<Bytes> wires;
  wires.push_back(alice.SealData(ToBytes("a0")));
  wires.push_back(bob.SealData(ToBytes("b0")));
  wires.push_back(ToBytes("not a packet"));
  wires.push_back(alice.SealData(ToBytes("a1")));
  wires.push_back(bob.SealData(ToBytes("b1")));
  const Status st =
      world_->monitor()->ProxyDeliverBatch(world_->machine().cpu(0), wires);
  EXPECT_FALSE(st.ok()) << "malformed packet's error must surface";

  EXPECT_EQ(sandbox_->session.next_recv_seq, 2u);
  EXPECT_EQ((*sandbox2)->session.next_recv_seq, 2u);
  EXPECT_EQ(sandbox_->input_plaintext.size(), 2u);
  EXPECT_EQ((*sandbox2)->input_plaintext.size(), 2u);
}

TEST_F(ChannelE2eTest, CrossSessionRecordInjectionRejected) {
  // A malicious network re-tags Bob's record with Alice's sandbox id; the AEAD keys
  // do not match and the monitor must reject it without sealing in bad data.
  SandboxSpec spec;
  spec.name = "victim2";
  auto sandbox2 = world_->LaunchSandboxProcess(
      "victim2", spec, [](SyscallContext&) { return StepOutcome::kYield; });
  ASSERT_TRUE(sandbox2.ok());

  RemoteClient alice(world_->MakeTrustAnchors(), 601);
  RemoteClient bob(world_->MakeTrustAnchors(), 602);
  world_->ClientSend(alice.MakeHello(sandbox_->id));
  auto hello_a = PumpUntilClientPacket();
  ASSERT_TRUE(hello_a.ok());
  ASSERT_TRUE(alice.ProcessServerHello(*hello_a).ok());
  world_->ClientSend(bob.MakeHello((*sandbox2)->id));
  auto hello_b = PumpUntilClientPacket();
  ASSERT_TRUE(hello_b.ok());
  ASSERT_TRUE(bob.ProcessServerHello(*hello_b).ok());

  // Re-tag Bob's record for Alice's sandbox.
  auto packet = Packet::Deserialize(bob.SealData(ToBytes("poison")));
  ASSERT_TRUE(packet.ok());
  packet->sandbox_id = sandbox_->id;
  world_->ClientSend(packet->Serialize());
  world_->kernel().Run(3000);
  // Alice's sandbox received nothing and was not sealed by the forged record.
  EXPECT_EQ(sandbox_->session.next_recv_seq, 0u);
  EXPECT_TRUE(sandbox_->input_plaintext.empty());
}

}  // namespace
}  // namespace erebor
