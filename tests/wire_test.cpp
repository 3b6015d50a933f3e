// Exhaustive wire-format coverage: round-trips and truncation sweeps for
// every protocol message, plus cancellable-timer semantics on the
// simulator (which the client's guard timeouts depend on).
#include <gtest/gtest.h>

#include "capsule/strategy.hpp"
#include "capsule/writer.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "net/sim.hpp"
#include "wire/messages.hpp"

namespace gdp::wire {
namespace {

Name name_of(std::uint8_t tag) {
  Bytes raw(32, tag);
  return *Name::from_bytes(raw);
}

capsule::Record sample_record() {
  static Rng rng(99);
  static auto owner = crypto::PrivateKey::generate(rng);
  static auto writer_key = crypto::PrivateKey::generate(rng);
  static auto metadata = capsule::Metadata::create(
      owner, writer_key.public_key(), capsule::WriterMode::kStrictSingleWriter,
      "wire-test", 0);
  static capsule::Writer writer(*metadata, writer_key,
                                capsule::make_chain_strategy());
  return writer.append(to_bytes("sample"), 1);
}

/// Golden-byte pin for the authenticated responses: any change to the
/// serialized layout (body, evidence, authenticator) changes this digest.
std::string sha256_hex(const Bytes& b) {
  return hex_encode(crypto::digest_to_bytes(crypto::sha256(b)));
}

/// Serializes, re-parses, and also sweeps truncations expecting rejection.
template <typename Msg>
Msg round_trip_and_truncate(const Msg& msg) {
  Bytes wire_bytes = msg.serialize();
  auto back = Msg::deserialize(wire_bytes);
  EXPECT_TRUE(back.ok()) << back.error().to_string();
  // Every strict prefix must be rejected (no partial parses).
  for (std::size_t cut = 0; cut < wire_bytes.size();
       cut += 1 + wire_bytes.size() / 37) {
    EXPECT_FALSE(Msg::deserialize(BytesView(wire_bytes.data(), cut)).ok())
        << "cut=" << cut;
  }
  // Trailing garbage must be rejected too.
  Bytes extended = wire_bytes;
  extended.push_back(0x5a);
  EXPECT_FALSE(Msg::deserialize(extended).ok());
  return std::move(back).value();
}

TEST(WireMessages, CreateCapsule) {
  CreateCapsuleMsg msg;
  msg.metadata = to_bytes("meta-bytes");
  msg.delegation = to_bytes("delegation-bytes");
  msg.replica_peers = {name_of(1), name_of(2)};
  msg.nonce = 42;
  auto back = round_trip_and_truncate(msg);
  EXPECT_EQ(back.metadata, msg.metadata);
  EXPECT_EQ(back.replica_peers, msg.replica_peers);
  EXPECT_EQ(back.nonce, 42u);
}

TEST(WireMessages, Append) {
  AppendMsg msg;
  msg.capsule = name_of(3);
  msg.record = sample_record();
  msg.required_acks = 2;
  msg.nonce = 7;
  msg.session_pubkey = Bytes(64, 0x20);
  auto back = round_trip_and_truncate(msg);
  EXPECT_EQ(back.record, msg.record);
  EXPECT_EQ(back.session_pubkey, msg.session_pubkey);
}

TEST(WireMessages, Read) {
  ReadMsg msg;
  msg.capsule = name_of(4);
  msg.first_seqno = 10;
  msg.last_seqno = 20;
  msg.nonce = 5;
  auto back = round_trip_and_truncate(msg);
  EXPECT_EQ(back.first_seqno, 10u);
  EXPECT_EQ(back.last_seqno, 20u);
}

TEST(WireMessages, Subscribe) {
  SubscribeMsg msg;
  msg.capsule = name_of(5);
  msg.subscriber = name_of(6);
  msg.sub_cert = to_bytes("cert");
  msg.nonce = 9;
  auto back = round_trip_and_truncate(msg);
  EXPECT_EQ(back.subscriber, name_of(6));
}

TEST(WireMessages, AppendAck) {
  AppendAckMsg msg;
  msg.capsule = name_of(7);
  msg.record_hash = name_of(8);
  msg.seqno = 11;
  msg.acks = 3;
  msg.ok = true;
  msg.error = "";
  msg.nonce = 1;
  msg.server_principal = to_bytes("principal");
  msg.delegation = to_bytes("delegation");
  msg.auth.kind = ResponseAuth::Kind::kSignature;
  msg.auth.bytes = Bytes(64, 0x01);
  auto back = round_trip_and_truncate(msg);
  EXPECT_EQ(back.acks, 3u);
  EXPECT_EQ(back.auth.kind, ResponseAuth::Kind::kSignature);
  // signed_body excludes the evidence and authenticator.
  EXPECT_EQ(back.signed_body(), msg.signed_body());
  AppendAckMsg changed = msg;
  changed.acks = 4;
  EXPECT_NE(changed.signed_body(), msg.signed_body());
  EXPECT_EQ(sha256_hex(msg.serialize()),
            "0559f89ad5af078b060561886e6ee8c3a98f9ac9531075faf08328a089e6a5bb");
}

TEST(WireMessages, ReadResponse) {
  ReadResponseMsg msg;
  msg.capsule = name_of(9);
  msg.ok = false;
  msg.error = "NOT_FOUND: nope";
  msg.proof = to_bytes("proofbytes");
  msg.heartbeat = to_bytes("hb");
  msg.nonce = 77;
  msg.auth.kind = ResponseAuth::Kind::kHmac;
  msg.auth.bytes = Bytes(32, 0x02);
  auto back = round_trip_and_truncate(msg);
  EXPECT_EQ(back.error, msg.error);
  EXPECT_EQ(back.auth.bytes, msg.auth.bytes);
  EXPECT_EQ(sha256_hex(msg.serialize()),
            "a233e190c5c6140bbf67c88361f829d175fc908da66f7ec082a0deb75ffaccdd");
}

TEST(WireMessages, Publish) {
  PublishMsg msg;
  msg.capsule = name_of(10);
  msg.record = sample_record();
  msg.heartbeat = to_bytes("hb");
  auto back = round_trip_and_truncate(msg);
  EXPECT_EQ(back.record, msg.record);
}

TEST(WireMessages, SyncPullPush) {
  SyncPullMsg pull;
  pull.capsule = name_of(11);
  pull.tip_seqno = 99;
  pull.holes = {name_of(12)};
  auto pull_back = round_trip_and_truncate(pull);
  EXPECT_EQ(pull_back.holes, pull.holes);

  SyncPushMsg push;
  push.capsule = name_of(11);
  push.records = {to_bytes("rec1"), to_bytes("rec2")};
  push.resume_cursor = 257;
  auto push_back = round_trip_and_truncate(push);
  EXPECT_EQ(push_back.records, push.records);
  EXPECT_EQ(push_back.resume_cursor, 257u);
}

TEST(WireMessages, SyncSummaryDescendRange) {
  SyncSummaryMsg summary;
  summary.capsule = name_of(21);
  summary.tip_seqno = 1'000'000;
  summary.tip_hash = name_of(22);
  summary.root_hash = name_of(23);
  auto summary_back = round_trip_and_truncate(summary);
  EXPECT_EQ(summary_back.tip_seqno, 1'000'000u);
  EXPECT_EQ(summary_back.tip_hash, summary.tip_hash);
  EXPECT_EQ(summary_back.root_hash, summary.root_hash);

  SyncDescendMsg descend;
  descend.capsule = name_of(21);
  descend.kind = SyncDescendMsg::kRequest;
  descend.tip_seqno = 777;
  descend.nodes = {TreeNode{1, 64, name_of(24)},
                   TreeNode{65, 128, name_of(25)}};
  auto descend_back = round_trip_and_truncate(descend);
  EXPECT_EQ(descend_back.kind, SyncDescendMsg::kRequest);
  EXPECT_EQ(descend_back.tip_seqno, 777u);
  EXPECT_EQ(descend_back.nodes, descend.nodes);

  // A kind byte outside {offer, request} is rejected.
  Bytes bad = descend.serialize();
  bad[Name::kSize] = 7;
  EXPECT_FALSE(SyncDescendMsg::deserialize(bad).ok());

  SyncRangeMsg range;
  range.capsule = name_of(21);
  range.ranges = {SyncRangeMsg::Range{1, 64}, SyncRangeMsg::Range{1025, 2048}};
  range.holes = {name_of(26)};
  range.cursor = 1500;
  auto range_back = round_trip_and_truncate(range);
  EXPECT_EQ(range_back.ranges, range.ranges);
  EXPECT_EQ(range_back.holes, range.holes);
  EXPECT_EQ(range_back.cursor, 1500u);
}

TEST(WireMessages, AdvertisementHandshake) {
  AdvertiseMsg ad;
  ad.principal = to_bytes("principal");
  ad.catalog_records = {to_bytes("ad1"), to_bytes("ad2"), to_bytes("ext")};
  auto ad_back = round_trip_and_truncate(ad);
  EXPECT_EQ(ad_back.catalog_records.size(), 3u);

  ChallengeMsg challenge;
  challenge.nonce = Bytes(32, 0xcc);
  auto c_back = round_trip_and_truncate(challenge);
  EXPECT_EQ(c_back.nonce, challenge.nonce);

  ChallengeReplyMsg reply;
  reply.principal = to_bytes("p");
  reply.nonce_sig = Bytes(64, 0x03);
  reply.rt_cert = to_bytes("rtcert");
  auto r_back = round_trip_and_truncate(reply);
  EXPECT_EQ(r_back.rt_cert, reply.rt_cert);

  AdvertiseOkMsg ok_msg;
  ok_msg.ok = true;
  ok_msg.accepted = 5;
  auto ok_back = round_trip_and_truncate(ok_msg);
  EXPECT_EQ(ok_back.accepted, 5u);
}

TEST(WireMessages, Lookup) {
  LookupMsg msg;
  msg.target = name_of(13);
  msg.querying_router = name_of(14);
  msg.nonce = 21;
  auto back = round_trip_and_truncate(msg);
  EXPECT_EQ(back.target, name_of(13));
}

TEST(WireMessages, StatusCarriesErrc) {
  StatusMsg msg;
  msg.ok = false;
  msg.code = static_cast<std::uint16_t>(Errc::kPermissionDenied);
  msg.message = "no AdCert";
  msg.nonce = 2;
  auto back = round_trip_and_truncate(msg);
  EXPECT_EQ(static_cast<Errc>(back.code), Errc::kPermissionDenied);
}

// ---- Cancellable timers --------------------------------------------------------------

TEST(SimTimers, CancelledTimerNeitherFiresNorAdvancesClock) {
  net::Simulator sim;
  bool fired = false;
  auto timer = sim.schedule_cancellable(from_seconds(100), [&] { fired = true; });
  sim.schedule(from_millis(5), [] {});
  EXPECT_TRUE(timer.active());
  timer.cancel();
  EXPECT_FALSE(timer.active());
  sim.run();
  EXPECT_FALSE(fired);
  // The 100 s timer must not have dragged the clock forward.
  EXPECT_EQ(sim.now(), from_millis(5));
}

TEST(SimTimers, UncancelledTimerFires) {
  net::Simulator sim;
  bool fired = false;
  sim.schedule_cancellable(from_millis(3), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), from_millis(3));
}

TEST(SimTimers, CancelAfterFireIsHarmless) {
  net::Simulator sim;
  auto timer = sim.schedule_cancellable(from_millis(1), [] {});
  sim.run();
  timer.cancel();  // no-op
  SUCCEED();
}

TEST(SimTimers, MixedCancelledAndLiveEventsKeepOrder) {
  net::Simulator sim;
  std::vector<int> order;
  auto t1 = sim.schedule_cancellable(from_millis(1), [&] { order.push_back(1); });
  sim.schedule(from_millis(2), [&] { order.push_back(2); });
  auto t3 = sim.schedule_cancellable(from_millis(3), [&] { order.push_back(3); });
  t1.cancel();
  (void)t3;
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  EXPECT_EQ(sim.now(), from_millis(3));
}

}  // namespace
}  // namespace gdp::wire
