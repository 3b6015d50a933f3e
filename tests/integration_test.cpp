// End-to-end integration tests: full GDP deployments — routing domains,
// GLookupService hierarchy, secure advertisement, capsule placement,
// verified appends/reads/subscriptions, replication, durability modes, and
// the §IV-C threat model exercised by in-path adversaries.
#include <gtest/gtest.h>

#include "capsule/strategy.hpp"
#include "harness/scenario.hpp"

namespace gdp {
namespace {

using client::await;
using harness::CapsuleSetup;
using harness::make_capsule;
using harness::place_capsule;
using harness::Scenario;

TEST(Integration, SingleDomainEndToEnd) {
  Scenario s(1, "e2e");
  auto* root = s.add_domain("global", nullptr);
  auto* r1 = s.add_router("r1", root);
  auto* srv = s.add_server("srv", r1);
  auto* writer_client = s.add_client("writer", r1);
  auto* reader_client = s.add_client("reader", r1);
  s.attach_all();
  ASSERT_TRUE(srv->attached());
  ASSERT_TRUE(writer_client->attached());

  CapsuleSetup setup = make_capsule(s.key_rng(), "sensor-log");
  ASSERT_TRUE(place_capsule(s, setup, *writer_client, {srv}).ok());
  ASSERT_TRUE(srv->hosts(setup.metadata.name()));

  capsule::Writer writer = setup.make_writer();
  for (int i = 0; i < 10; ++i) {
    auto op = writer_client->append(writer, to_bytes("reading-" + std::to_string(i)));
    auto outcome = await(s.sim(), op);
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
    EXPECT_EQ(outcome->seqno, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(outcome->acks, 1u);
  }

  // Range read, fully verified against the capsule name.
  auto read_op = reader_client->read(setup.metadata, 3, 7);
  auto read = await(s.sim(), read_op);
  ASSERT_TRUE(read.ok()) << read.error().to_string();
  ASSERT_EQ(read->records.size(), 5u);
  EXPECT_EQ(to_string(read->records[0].payload), "reading-2");
  EXPECT_EQ(read->heartbeat.seqno, 10u);

  // Latest.
  auto latest = await(s.sim(), reader_client->read_latest(setup.metadata));
  ASSERT_TRUE(latest.ok());
  ASSERT_EQ(latest->records.size(), 1u);
  EXPECT_EQ(to_string(latest->records[0].payload), "reading-9");
  EXPECT_EQ(srv->appends_accepted(), 10u);
}

TEST(Integration, SessionSwitchesToHmacSteadyState) {
  Scenario s(2, "hmac");
  auto* root = s.add_domain("global", nullptr);
  auto* r1 = s.add_router("r1", root);
  auto* srv = s.add_server("srv", r1);
  auto* writer_client = s.add_client("writer", r1);
  s.attach_all();
  CapsuleSetup setup = make_capsule(s.key_rng(), "hmac-capsule");
  ASSERT_TRUE(place_capsule(s, setup, *writer_client, {srv}).ok());

  capsule::Writer writer = setup.make_writer();
  auto first = await(s.sim(), writer_client->append(writer, to_bytes("a")));
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_TRUE(first->via_hmac);  // evidence rode along on first contact
  EXPECT_TRUE(writer_client->knows_server(srv->name()));

  auto second = await(s.sim(), writer_client->append(writer, to_bytes("b")));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->via_hmac);
  // Steady-state ack sheds the principal + delegation evidence.
  EXPECT_LT(second->ack_bytes, first->ack_bytes / 2);
}

TEST(Integration, SessionlessModeUsesSignatures) {
  Scenario s(3, "sig");
  auto* root = s.add_domain("global", nullptr);
  auto* r1 = s.add_router("r1", root);
  auto* srv = s.add_server("srv", r1);
  client::GdpClient::Options opts;
  opts.use_sessions = false;
  auto* writer_client = s.add_client("writer", r1, net::LinkParams::lan(), opts);
  s.attach_all();
  CapsuleSetup setup = make_capsule(s.key_rng(), "sig-capsule");
  ASSERT_TRUE(place_capsule(s, setup, *writer_client, {srv}).ok());

  capsule::Writer writer = setup.make_writer();
  for (int i = 0; i < 2; ++i) {
    auto outcome = await(s.sim(), writer_client->append(writer, to_bytes("x")));
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
    EXPECT_FALSE(outcome->via_hmac);
  }
}

TEST(Integration, CrossDomainLookupEscalates) {
  Scenario s(4, "xdomain");
  auto* global = s.add_domain("global", nullptr);
  auto* dom_a = s.add_domain("domain-a", global);
  auto* dom_b = s.add_domain("domain-b", global);
  auto* ra = s.add_router("ra", dom_a);
  auto* rb = s.add_router("rb", dom_b);
  s.link_routers(ra, rb, net::LinkParams::wan(30));
  auto* srv = s.add_server("srv-b", rb);
  auto* client_a = s.add_client("client-a", ra);
  auto* writer_b = s.add_client("writer-b", rb);
  s.attach_all();

  CapsuleSetup setup = make_capsule(s.key_rng(), "remote-capsule");
  ASSERT_TRUE(place_capsule(s, setup, *writer_b, {srv}).ok());
  capsule::Writer writer = setup.make_writer();
  ASSERT_TRUE(await(s.sim(), writer_b->append(writer, to_bytes("hello"))).ok());

  // The reader sits in a different domain; resolution must escalate
  // through the parent GLookupService.
  auto read = await(s.sim(), client_a->read_latest(setup.metadata));
  ASSERT_TRUE(read.ok()) << read.error().to_string();
  EXPECT_EQ(to_string(read->records[0].payload), "hello");
  EXPECT_GT(dom_a->queries_escalated(), 0u);
}

TEST(Integration, PlacementPolicyBlocksOutsideDomain) {
  Scenario s(5, "policy");
  auto* global = s.add_domain("global", nullptr);
  auto* dom_a = s.add_domain("domain-a", global);
  auto* dom_b = s.add_domain("domain-b", global);
  auto* ra = s.add_router("ra", dom_a);
  auto* rb = s.add_router("rb", dom_b);
  s.link_routers(ra, rb, net::LinkParams::wan(30));
  auto* srv = s.add_server("srv-b", rb);
  auto* outsider = s.add_client("outsider-a", ra);
  auto* insider = s.add_client("insider-b", rb);
  s.attach_all();

  // The owner restricts the capsule to domain B (the factory floor stays
  // on the factory floor — §IX).
  CapsuleSetup setup = make_capsule(s.key_rng(), "restricted-capsule");
  ASSERT_TRUE(
      place_capsule(s, setup, *insider, {srv}, {dom_b->domain()}).ok());
  capsule::Writer writer = setup.make_writer();
  ASSERT_TRUE(await(s.sim(), insider->append(writer, to_bytes("secret"))).ok());

  // Inside the domain: fine.
  auto inside_read = await(s.sim(), insider->read_latest(setup.metadata));
  ASSERT_TRUE(inside_read.ok()) << inside_read.error().to_string();

  // Outside: the name never resolves (the entry is not propagated to the
  // global service and resolution refuses foreign-domain routers).  The
  // await condition pins down *which* failure shape ended the wait: the
  // client's per-op guard timer fired (the request was sent and never
  // answered), not a drained network.
  client::AwaitCondition cond;
  auto outside_read =
      await(s.sim(), outsider->read_latest(setup.metadata), &cond);
  EXPECT_FALSE(outside_read.ok());
  EXPECT_EQ(outside_read.code(), Errc::kUnavailable);
  EXPECT_EQ(cond, client::AwaitCondition::kOpTimeout);
}

TEST(Integration, AnycastReachesAReplicaAndReplicasConverge) {
  Scenario s(6, "replicas");
  auto* global = s.add_domain("global", nullptr);
  auto* r1 = s.add_router("r1", global);
  auto* r2 = s.add_router("r2", global);
  s.link_routers(r1, r2, net::LinkParams::wan(10));
  auto* srv1 = s.add_server("srv1", r1);
  auto* srv2 = s.add_server("srv2", r2);
  auto* writer_client = s.add_client("writer", r1);
  s.attach_all();

  CapsuleSetup setup = make_capsule(s.key_rng(), "replicated");
  ASSERT_TRUE(place_capsule(s, setup, *writer_client, {srv1, srv2}).ok());

  capsule::Writer writer = setup.make_writer();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(await(s.sim(), writer_client->append(writer, to_bytes("r"))).ok());
  }
  // Fast-path appends ack locally and propagate in the background.
  s.settle();
  const auto* store1 = srv1->storage().find(setup.metadata.name());
  const auto* store2 = srv2->storage().find(setup.metadata.name());
  ASSERT_NE(store1, nullptr);
  ASSERT_NE(store2, nullptr);
  EXPECT_EQ(store1->state().size(), 5u);
  EXPECT_EQ(store2->state().size(), 5u);
  EXPECT_EQ(store1->state().tip_hash(), store2->state().tip_hash());
}

TEST(Integration, AntiEntropyRepairsMissedRecords) {
  Scenario s(7, "antientropy");
  auto* global = s.add_domain("global", nullptr);
  auto* r1 = s.add_router("r1", global);
  auto* r2 = s.add_router("r2", global);
  s.link_routers(r1, r2, net::LinkParams::wan(10));
  auto* srv1 = s.add_server("srv1", r1);
  auto* srv2 = s.add_server("srv2", r2);
  auto* writer_client = s.add_client("writer", r1);
  s.attach_all();

  CapsuleSetup setup = make_capsule(s.key_rng(), "healed");
  ASSERT_TRUE(place_capsule(s, setup, *writer_client, {srv1, srv2}).ok());

  // Black-hole the replication path while appending: srv2 misses records.
  s.net().set_interceptor(r1->name(), r2->name(),
                          [](const wire::Pdu&) { return std::nullopt; });
  capsule::Writer writer = setup.make_writer();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(await(s.sim(), writer_client->append(writer, to_bytes("x"))).ok());
  }
  s.settle();
  const auto* store2 = srv2->storage().find(setup.metadata.name());
  EXPECT_EQ(store2->state().size(), 0u);

  // Heal the link; one anti-entropy round fetches everything.
  s.net().clear_interceptor(r1->name(), r2->name());
  srv2->anti_entropy_round();
  s.settle();
  EXPECT_EQ(store2->state().size(), 4u);
  const auto* store1 = srv1->storage().find(setup.metadata.name());
  EXPECT_EQ(store1->state().tip_hash(), store2->state().tip_hash());
}

TEST(Integration, DurabilityModeWaitsForReplicaAcks) {
  Scenario s(8, "durability");
  auto* global = s.add_domain("global", nullptr);
  auto* r1 = s.add_router("r1", global);
  auto* srv1 = s.add_server("srv1", r1);
  auto* srv2 = s.add_server("srv2", r1);
  auto* writer_client = s.add_client("writer", r1);
  s.attach_all();
  CapsuleSetup setup = make_capsule(s.key_rng(), "durable");
  ASSERT_TRUE(place_capsule(s, setup, *writer_client, {srv1, srv2}).ok());

  capsule::Writer writer = setup.make_writer();
  auto outcome = await(s.sim(), writer_client->append(writer, to_bytes("precious"), 2));
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_GE(outcome->acks, 2u);
  // Both replicas must genuinely hold the record already.
  EXPECT_EQ(srv1->storage().find(setup.metadata.name())->state().size(), 1u);
  EXPECT_EQ(srv2->storage().find(setup.metadata.name())->state().size(), 1u);
}

TEST(Integration, DurabilityFailsWhenReplicaDown) {
  Scenario s(9, "durfail");
  auto* global = s.add_domain("global", nullptr);
  auto* r1 = s.add_router("r1", global);
  auto* srv1 = s.add_server("srv1", r1);
  auto* srv2 = s.add_server("srv2", r1);
  auto* writer_client = s.add_client("writer", r1);
  s.attach_all();
  CapsuleSetup setup = make_capsule(s.key_rng(), "undurable");
  ASSERT_TRUE(place_capsule(s, setup, *writer_client, {srv1, srv2}).ok());

  s.net().detach(srv2->name());  // replica crash
  capsule::Writer writer = setup.make_writer();
  auto outcome = await(s.sim(), writer_client->append(writer, to_bytes("x"), 2));
  // The ack must *not* claim durability that was never achieved.
  EXPECT_FALSE(outcome.ok());
}

TEST(Integration, SubscriptionDeliversVerifiedEvents) {
  Scenario s(10, "pubsub");
  auto* global = s.add_domain("global", nullptr);
  auto* r1 = s.add_router("r1", global);
  auto* srv = s.add_server("srv", r1);
  auto* writer_client = s.add_client("writer", r1);
  auto* subscriber = s.add_client("subscriber", r1);
  s.attach_all();
  CapsuleSetup setup = make_capsule(s.key_rng(), "feed");
  ASSERT_TRUE(place_capsule(s, setup, *writer_client, {srv}).ok());

  std::vector<std::string> events;
  trust::Cert sub_cert = setup.sub_cert_for(subscriber->name(), s.sim().now(),
                                            s.sim().now() + from_seconds(3600));
  auto sub_op = subscriber->subscribe(
      setup.metadata, sub_cert,
      [&](const capsule::Record& rec, const capsule::Heartbeat&) {
        events.push_back(to_string(rec.payload));
      });
  auto subscribed = await(s.sim(), sub_op);
  ASSERT_TRUE(subscribed.ok()) << subscribed.error().to_string();
  EXPECT_EQ(srv->subscriber_count(setup.metadata.name()), 1u);

  capsule::Writer writer = setup.make_writer();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        await(s.sim(), writer_client->append(writer, to_bytes("evt-" + std::to_string(i))))
            .ok());
  }
  s.settle();
  EXPECT_EQ(events, (std::vector<std::string>{"evt-0", "evt-1", "evt-2"}));
}

TEST(Integration, SubscriptionWithoutCertRejected) {
  Scenario s(11, "subdeny");
  auto* global = s.add_domain("global", nullptr);
  auto* r1 = s.add_router("r1", global);
  auto* srv = s.add_server("srv", r1);
  auto* writer_client = s.add_client("writer", r1);
  auto* eve = s.add_client("eve", r1);
  s.attach_all();
  CapsuleSetup setup = make_capsule(s.key_rng(), "private-feed");
  ASSERT_TRUE(place_capsule(s, setup, *writer_client, {srv}).ok());

  // Eve presents a cert granted to someone else.
  trust::Cert someone_elses = setup.sub_cert_for(writer_client->name(), s.sim().now(),
                                                 s.sim().now() + from_seconds(3600));
  auto denied = await(s.sim(), eve->subscribe(setup.metadata, someone_elses,
                                              [](const auto&, const auto&) {}));
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(srv->subscriber_count(setup.metadata.name()), 0u);
}

TEST(Integration, InTransitTamperingDetected) {
  Scenario s(12, "tamper");
  auto* global = s.add_domain("global", nullptr);
  auto* r1 = s.add_router("r1", global);
  auto* srv = s.add_server("srv", r1);
  auto* writer_client = s.add_client("writer", r1);
  auto* reader_client = s.add_client("reader", r1);
  s.attach_all();
  CapsuleSetup setup = make_capsule(s.key_rng(), "tampered-path");
  ASSERT_TRUE(place_capsule(s, setup, *writer_client, {srv}).ok());
  capsule::Writer writer = setup.make_writer();
  ASSERT_TRUE(await(s.sim(), writer_client->append(writer, to_bytes("clean"))).ok());

  // Adversary on the server->router link flips a byte in every response
  // payload (read proofs, acks, ...).
  s.net().set_interceptor(srv->name(), r1->name(),
                          [](const wire::Pdu& pdu) -> std::optional<wire::Pdu> {
                            wire::Pdu bad = pdu;
                            if (!bad.payload.empty()) {
                              bad.payload[bad.payload.size() / 2] ^= 0x01;
                            }
                            return bad;
                          });
  auto read = await(s.sim(), reader_client->read_latest(setup.metadata));
  EXPECT_FALSE(read.ok());  // detected, not silently consumed

  // And tampering the append path: the server must reject the record.
  s.net().clear_interceptor(srv->name(), r1->name());
  s.net().set_interceptor(r1->name(), srv->name(),
                          [](const wire::Pdu& pdu) -> std::optional<wire::Pdu> {
                            wire::Pdu bad = pdu;
                            if (bad.type == wire::MsgType::kAppend &&
                                bad.payload.size() > 48) {
                              bad.payload[40] ^= 0x01;  // inside the record
                            }
                            return bad;
                          });
  const std::uint64_t rejected_before = srv->appends_rejected();
  auto append = await(s.sim(), writer_client->append(writer, to_bytes("dirty")));
  EXPECT_FALSE(append.ok());
  EXPECT_GT(srv->appends_rejected() + /*unparseable count*/ 1, rejected_before);
}

// Flips the last payload byte — the tail of the authenticator — of every
// §V-authenticated response on the server->router link, and checks that
// each response kind fails verification at the client.
void expect_authenticator_tamper_detected(bool use_sessions) {
  Scenario s(use_sessions ? 14 : 15, "auth-tail");
  auto* global = s.add_domain("global", nullptr);
  auto* r1 = s.add_router("r1", global);
  auto* srv = s.add_server("srv", r1);
  client::GdpClient::Options opts;
  opts.use_sessions = use_sessions;
  auto* cli = s.add_client("writer", r1, net::LinkParams::lan(), opts);
  s.attach_all();
  CapsuleSetup setup = make_capsule(s.key_rng(), "auth-tail");
  ASSERT_TRUE(place_capsule(s, setup, *cli, {srv}).ok());
  capsule::Writer writer = setup.make_writer();
  auto clean = await(s.sim(), cli->append(writer, to_bytes("clean")));
  ASSERT_TRUE(clean.ok()) << clean.error().to_string();
  EXPECT_EQ(clean->via_hmac, use_sessions);

  s.net().set_interceptor(
      srv->name(), r1->name(), [](const wire::Pdu& pdu) -> std::optional<wire::Pdu> {
        wire::Pdu bad = pdu;
        const bool authenticated = pdu.type == wire::MsgType::kAppendAck ||
                                   pdu.type == wire::MsgType::kReadResponse ||
                                   pdu.type == wire::MsgType::kCasNack ||
                                   pdu.type == wire::MsgType::kLeaseGrant;
        if (authenticated && !bad.payload.empty()) bad.payload.back() ^= 0x01;
        return bad;
      });
  const Name wrong_tip = setup.metadata.name();
  auto cas = [&](std::uint64_t lease_id) {
    return cli->cond_append(setup.metadata,
                            writer.append(to_bytes("cas"), s.sim().now().count()),
                            /*expected_tip_seqno=*/999, wrong_tip,
                            /*required_acks=*/1, lease_id);
  };

  EXPECT_EQ(await(s.sim(), cli->append(writer, to_bytes("dirty"))).code(),
            Errc::kVerificationFailed);
  EXPECT_EQ(await(s.sim(), cli->read_latest(setup.metadata)).code(),
            Errc::kVerificationFailed);
  EXPECT_EQ(await(s.sim(), cas(0)).code(), Errc::kVerificationFailed);
  EXPECT_EQ(await(s.sim(), cli->lease_acquire(setup.metadata, from_seconds(5))).code(),
            Errc::kVerificationFailed);

  // Control: untampered, the same requests yield a grant (the holder
  // re-acquires its own lease) and a tip-conflict CasNack.
  s.net().clear_interceptor(srv->name(), r1->name());
  auto grant = await(s.sim(), cli->lease_acquire(setup.metadata, from_seconds(5)));
  ASSERT_TRUE(grant.ok()) << grant.error().to_string();
  EXPECT_TRUE(grant->granted);
  auto nack = await(s.sim(), cas(grant->lease_id));
  ASSERT_TRUE(nack.ok()) << nack.error().to_string();
  EXPECT_FALSE(nack->won);
  EXPECT_EQ(nack->code, Errc::kConflict);
}

TEST(Integration, AuthenticatorTamperDetectedWithSessions) {
  expect_authenticator_tamper_detected(/*use_sessions=*/true);
}

TEST(Integration, AuthenticatorTamperDetectedSessionless) {
  expect_authenticator_tamper_detected(/*use_sessions=*/false);
}

TEST(Integration, ReplayedPdusAreHarmless) {
  Scenario s(13, "replay");
  auto* global = s.add_domain("global", nullptr);
  auto* r1 = s.add_router("r1", global);
  auto* srv = s.add_server("srv", r1);
  auto* writer_client = s.add_client("writer", r1);
  s.attach_all();
  CapsuleSetup setup = make_capsule(s.key_rng(), "replayed");
  ASSERT_TRUE(place_capsule(s, setup, *writer_client, {srv}).ok());

  // Adversary records the first append PDU and replays it later.
  auto* net = &s.net();
  auto* sim = &s.sim();
  Name from = r1->name();
  Name to = srv->name();
  auto replayed = std::make_shared<bool>(false);
  s.net().set_interceptor(
      from, to,
      [net, sim, from, to, replayed](const wire::Pdu& pdu) -> std::optional<wire::Pdu> {
        if (!*replayed && pdu.type == wire::MsgType::kAppend) {
          *replayed = true;
          wire::Pdu copy = pdu;
          sim->schedule(from_millis(1), [net, from, to, copy]() mutable {
            net->send(from, to, std::move(copy));
          });
        }
        return pdu;
      });

  capsule::Writer writer = setup.make_writer();
  auto outcome = await(s.sim(), writer_client->append(writer, to_bytes("once")));
  ASSERT_TRUE(outcome.ok());
  s.settle();
  // The duplicate append is idempotent: exactly one record exists.
  EXPECT_EQ(srv->storage().find(setup.metadata.name())->state().size(), 1u);
}

TEST(Integration, NameSquattingRejectedAtAdvertisement) {
  Scenario s(14, "squat");
  auto* global = s.add_domain("global", nullptr);
  auto* r1 = s.add_router("r1", global);
  auto* honest = s.add_server("honest", r1);
  auto* mallory = s.add_server("mallory", r1);
  auto* writer_client = s.add_client("writer", r1);
  s.attach_all();

  CapsuleSetup setup = make_capsule(s.key_rng(), "squatted");
  // Only the honest server gets a delegation.
  ASSERT_TRUE(place_capsule(s, setup, *writer_client, {honest}).ok());

  // Mallory fabricates an advertisement for the same capsule: she has the
  // metadata (it is public) but cannot produce an owner-signed AdCert.
  Rng mallory_rng(666);
  auto mallory_owner = crypto::PrivateKey::generate(mallory_rng);
  trust::Advertisement fake;
  fake.advertised = setup.metadata.name();
  fake.capsule_metadata = setup.metadata.serialize();
  fake.expires_ns = (s.sim().now() + from_seconds(3600)).count();
  fake.delegation.ad_cert = trust::make_ad_cert(
      mallory_owner, mallory_owner.public_key().fingerprint(),
      setup.metadata.name(), mallory->principal().name(), s.sim().now(),
      s.sim().now() + from_seconds(3600));
  const std::uint64_t rejected_before = r1->advertisements_rejected();
  mallory->advertise(r1->name(), {trust::Catalog::encode_advertisement(fake)});
  s.settle();
  EXPECT_GT(r1->advertisements_rejected(), rejected_before);

  // Traffic still routes to the honest replica.
  capsule::Writer writer = setup.make_writer();
  auto outcome = await(s.sim(), writer_client->append(writer, to_bytes("safe")));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(honest->storage().find(setup.metadata.name())->state().size(), 1u);
  EXPECT_FALSE(mallory->hosts(setup.metadata.name()));
}

TEST(Integration, StrictReadReturnsFreshestReplica) {
  Scenario s(15, "strict");
  auto* global = s.add_domain("global", nullptr);
  auto* r1 = s.add_router("r1", global);
  auto* r2 = s.add_router("r2", global);
  s.link_routers(r1, r2, net::LinkParams::wan(10));
  auto* srv1 = s.add_server("srv1", r1);
  auto* srv2 = s.add_server("srv2", r2);
  auto* writer_client = s.add_client("writer", r1);
  auto* reader_client = s.add_client("reader", r2);
  s.attach_all();
  CapsuleSetup setup = make_capsule(s.key_rng(), "strictly-read");
  ASSERT_TRUE(place_capsule(s, setup, *writer_client, {srv1, srv2}).ok());

  capsule::Writer writer = setup.make_writer();
  ASSERT_TRUE(await(s.sim(), writer_client->append(writer, to_bytes("v1"))).ok());
  s.settle();  // both replicas at seqno 1

  // Cut replication; the next append lands only on srv1 — srv2 is stale.
  s.net().set_interceptor(r1->name(), r2->name(),
                          [](const wire::Pdu&) { return std::nullopt; });
  ASSERT_TRUE(await(s.sim(), writer_client->append(writer, to_bytes("v2"))).ok());

  // An anycast read from r2 hits the stale replica: sequential consistency.
  auto stale = await(s.sim(), reader_client->read_latest(setup.metadata));
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(to_string(stale->records[0].payload), "v1");

  // Strict read consults every replica and returns the freshest state.
  s.net().clear_interceptor(r1->name(), r2->name());
  auto strict = await(s.sim(), reader_client->read_latest_strict(
                                   setup.metadata, {srv1->name(), srv2->name()}));
  ASSERT_TRUE(strict.ok()) << strict.error().to_string();
  EXPECT_EQ(to_string(strict->records[0].payload), "v2");
  EXPECT_EQ(strict->heartbeat.seqno, 2u);

  // With a replica down, the strict read refuses to answer (§VI-C: "such
  // a reader must block if any single replica is unavailable").
  s.net().detach(srv1->name());
  auto blocked = await(s.sim(), reader_client->read_latest_strict(
                                    setup.metadata, {srv1->name(), srv2->name()}));
  EXPECT_FALSE(blocked.ok());
}

TEST(Integration, CapsuleConfinedToPrivateInfrastructure) {
  // "Power users can set up their own private infrastructure ... and still
  // enjoy the benefits of a common platform" (§IX).
  Scenario s(16, "private");
  auto* global = s.add_domain("global", nullptr);
  auto* factory = s.add_domain("factory", global);
  auto* rf = s.add_router("rf", factory);
  auto* rg = s.add_router("rg", global);
  s.link_routers(rf, rg, net::LinkParams::wan(5));
  auto* srv = s.add_server("factory-srv", rf);
  auto* robot = s.add_client("robot", rf);
  s.attach_all();

  CapsuleSetup setup = make_capsule(s.key_rng(), "episode-history");
  ASSERT_TRUE(place_capsule(s, setup, *robot, {srv}, {factory->domain()}).ok());
  capsule::Writer writer = setup.make_writer();
  ASSERT_TRUE(await(s.sim(), robot->append(writer, to_bytes("grasp-episode"))).ok());
  auto read = await(s.sim(), robot->read_latest(setup.metadata));
  ASSERT_TRUE(read.ok());
  // The restricted entry never propagated to the global service.
  EXPECT_EQ(global->lookup_local(setup.metadata.name()).size(), 0u);
  EXPECT_EQ(factory->lookup_local(setup.metadata.name()).size(), 1u);
}

TEST(Chaos, FlapAndLostLookupStillDeliverEverything) {
  // Acceptance scenario for fault-tolerant route maintenance: the control
  // plane eats the first lookup reply AND the primary replica's access
  // link flaps mid-transfer.  Every client append and the final read must
  // still land (retry + anycast failover + recovery re-advertisement),
  // with no PDUs left parked behind dead lookups — and the whole failure
  // run replays byte-identically.
  auto run = [] {
    Scenario s(90, "chaos-e2e");
    auto* root = s.add_domain("global", nullptr);
    auto* r1 = s.add_router("r1", root);
    auto* r2 = s.add_router("r2", root);
    s.link_routers(r1, r2, net::LinkParams::wan(5));
    auto* primary = s.add_server("primary", r1);
    auto* backup = s.add_server("backup", r2);
    auto* cli = s.add_client("cli", r1);
    s.attach_all();
    CapsuleSetup cap = make_capsule(s.key_rng(), "chaos-log");
    EXPECT_TRUE(place_capsule(s, cap, *cli, {primary, backup}).ok());

    int dropped = 0;
    s.net().set_interceptor(root->name(), r1->name(),
                            [&](const wire::Pdu& p) -> std::optional<wire::Pdu> {
                              if (p.type == wire::MsgType::kLookupReply &&
                                  dropped == 0) {
                                ++dropped;
                                return std::nullopt;
                              }
                              return p;
                            });
    capsule::Writer w = cap.make_writer();
    int delivered = 0;
    auto append = [&](int i) {
      auto op = await(s.sim(), cli->append(w, to_bytes("m-" + std::to_string(i))));
      EXPECT_TRUE(op.ok()) << "append " << i << ": " << op.error().to_string();
      if (op.ok()) ++delivered;
    };
    for (int i = 0; i < 3; ++i) append(i);
    s.settle();  // replication catches the backup up to seqno 3

    // Mid-transfer failure: the primary's access link goes dark.  Its
    // router withdraws the routes; the next lookup fails over to the
    // surviving replica — after the retry recovers the eaten reply.
    s.set_link_down(primary->name(), r1->name());
    for (int i = 3; i < 6; ++i) append(i);
    EXPECT_GE(backup->appends_accepted(), 3u);

    // Recovery: carrier returns, the server re-runs the secure
    // advertisement handshake unprompted and heals its replica via
    // anti-entropy; traffic homes back to the near replica.
    s.set_link_up(primary->name(), r1->name());
    s.settle();
    EXPECT_TRUE(primary->attached());
    primary->anti_entropy_round();
    s.settle();
    for (int i = 6; i < 8; ++i) append(i);

    auto read = await(s.sim(), cli->read_latest(cap.metadata));
    EXPECT_TRUE(read.ok()) << read.error().to_string();
    if (read.ok()) {
      EXPECT_EQ(to_string(read->records[0].payload), "m-7");
    }
    // 100% delivery, zero leaked queue entries, zero dangling lookups.
    EXPECT_EQ(delivered, 8);
    EXPECT_EQ(dropped, 1);
    EXPECT_GE(r1->lookup_retries(), 1u);
    EXPECT_EQ(r1->awaiting_route_count(), 0u);
    EXPECT_EQ(r2->awaiting_route_count(), 0u);
    EXPECT_EQ(r1->pending_lookup_count(), 0u);
    EXPECT_EQ(r2->pending_lookup_count(), 0u);

    const std::string json = s.stats_json();
    for (const char* key :
         {"router.r1.lookup.retries", "router.r1.lookup.timeouts",
          "router.r1.fib.expired", "router.r1.drop.queue_full",
          "router.r1.drop.lookup_timeout", "router.r1.neighbor.down_events",
          "router.r1.neighbor.up_events", "net.drop.link_down",
          "net.link.down_events", "net.link.up_events"}) {
      EXPECT_NE(json.find(std::string("\"") + key + "\""), std::string::npos)
          << "missing series: " << key;
    }
    EXPECT_NE(json.find("\"net.link.down_events\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"net.link.up_events\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"router.r1.neighbor.down_events\": 1"),
              std::string::npos);
    return std::make_pair(json, s.trace_json());
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

}  // namespace
}  // namespace gdp
