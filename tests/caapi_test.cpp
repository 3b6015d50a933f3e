// Tests for the Common Access APIs: filesystem, key-value store,
// multi-writer commit service, and the aggregation service.
#include <gtest/gtest.h>

#include "caapi/aggregate.hpp"
#include "caapi/commit.hpp"
#include "caapi/fs.hpp"
#include "caapi/kv.hpp"
#include "caapi/stream.hpp"
#include "caapi/timeseries.hpp"

namespace gdp::caapi {
namespace {

using client::await;
using harness::CapsuleSetup;
using harness::make_capsule;
using harness::place_capsule;
using harness::Scenario;

struct World {
  Scenario s;
  router::GLookupService* root;
  router::Router* r1;
  server::CapsuleServer* srv;
  client::GdpClient* app;

  explicit World(std::uint64_t seed) : s(seed, "caapi") {
    root = s.add_domain("global", nullptr);
    r1 = s.add_router("r1", root);
    srv = s.add_server("srv", r1);
    app = s.add_client("app", r1);
    s.attach_all();
  }
};

// ---- Filesystem -----------------------------------------------------------------

TEST(Filesystem, WriteReadRoundTrip) {
  World w(100);
  auto fs = GdpFilesystem::mount(Mount::create(w.s, *w.app, {w.srv}, "test-fs"));
  ASSERT_TRUE(fs.ok()) << fs.error().to_string();

  Rng rng(5);
  Bytes model = rng.next_bytes(1000);
  ASSERT_TRUE(fs->write_file("model.ckpt", model).ok());
  auto back = fs->read_file("model.ckpt");
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(*back, model);
}

TEST(Filesystem, MultiChunkFiles) {
  World w(101);
  MountOptions opts;
  opts.chunk_bytes = 128;  // force many chunks
  auto fs =
      GdpFilesystem::mount(Mount::create(w.s, *w.app, {w.srv}, "chunked", opts));
  ASSERT_TRUE(fs.ok());
  Rng rng(6);
  Bytes big = rng.next_bytes(1000);  // 8 chunks
  ASSERT_TRUE(fs->write_file("big.bin", big).ok());
  auto back = fs->read_file("big.bin");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, big);
}

TEST(Filesystem, EmptyFile) {
  World w(102);
  auto fs = GdpFilesystem::mount(Mount::create(w.s, *w.app, {w.srv}, "emptyfs"));
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE(fs->write_file("empty", Bytes{}).ok());
  auto back = fs->read_file("empty");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(Filesystem, ListRemoveExists) {
  World w(103);
  auto fs = GdpFilesystem::mount(Mount::create(w.s, *w.app, {w.srv}, "listfs"));
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE(fs->write_file("a.txt", to_bytes("A")).ok());
  ASSERT_TRUE(fs->write_file("b.txt", to_bytes("B")).ok());
  EXPECT_EQ(fs->list(), (std::vector<std::string>{"a.txt", "b.txt"}));
  EXPECT_TRUE(fs->exists("a.txt"));
  ASSERT_TRUE(fs->remove("a.txt").ok());
  EXPECT_FALSE(fs->exists("a.txt"));
  EXPECT_EQ(fs->remove("a.txt").code(), Errc::kNotFound);
  EXPECT_EQ(fs->read_file("a.txt").code(), Errc::kNotFound);
  EXPECT_EQ(fs->list(), (std::vector<std::string>{"b.txt"}));
}

TEST(Filesystem, OverwriteReplacesContent) {
  World w(104);
  auto fs = GdpFilesystem::mount(Mount::create(w.s, *w.app, {w.srv}, "overwrite"));
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE(fs->write_file("f", to_bytes("v1")).ok());
  ASSERT_TRUE(fs->write_file("f", to_bytes("version-two")).ok());
  auto back = fs->read_file("f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(to_string(*back), "version-two");
}

TEST(Filesystem, RefreshSeesCommittedState) {
  World w(105);
  auto fs = GdpFilesystem::mount(Mount::create(w.s, *w.app, {w.srv}, "refresh"));
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE(fs->write_file("x", to_bytes("payload")).ok());
  ASSERT_TRUE(fs->write_file("y", to_bytes("other")).ok());
  ASSERT_TRUE(fs->remove("x").ok());
  // Rebuild the view purely from the directory capsule.
  ASSERT_TRUE(fs->refresh().ok());
  EXPECT_EQ(fs->list(), (std::vector<std::string>{"y"}));
  auto back = fs->read_file("y");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(to_string(*back), "other");
}

// ---- KV store -------------------------------------------------------------------

TEST(KvStore, PutGetDel) {
  World w(200);
  auto kv = GdpKvStore::mount(Mount::create(w.s, *w.app, {w.srv}, "kv"));
  ASSERT_TRUE(kv.ok()) << kv.error().to_string();
  ASSERT_TRUE(kv->put("alpha", "1").ok());
  ASSERT_TRUE(kv->put("beta", "2").ok());
  EXPECT_EQ(kv->get("alpha"), "1");
  EXPECT_EQ(kv->get("beta"), "2");
  EXPECT_FALSE(kv->get("gamma").has_value());
  ASSERT_TRUE(kv->put("alpha", "1b").ok());
  EXPECT_EQ(kv->get("alpha"), "1b");
  ASSERT_TRUE(kv->del("alpha").ok());
  EXPECT_FALSE(kv->get("alpha").has_value());
  EXPECT_EQ(kv->size(), 1u);
}

TEST(KvStore, RecoveryFromCheckpointIsBounded) {
  World w(201);
  MountOptions opts;
  opts.checkpoint_interval = 8;
  auto kv = GdpKvStore::mount(Mount::create(w.s, *w.app, {w.srv}, "ckpt", opts));
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(kv->put("key-" + std::to_string(i % 13), std::to_string(i)).ok());
  }

  auto* reader = w.s.add_client("recoverer", w.r1);
  w.s.attach_all();
  auto fresh =
      GdpKvStore::mount(Mount::create(w.s, *reader, {w.srv}, "scratch", opts));
  ASSERT_TRUE(fresh.ok());
  auto fetched = fresh->recover(kv->metadata());
  ASSERT_TRUE(fetched.ok()) << fetched.error().to_string();
  // Bounded by the checkpoint window, not the 100+ record history.
  EXPECT_LE(*fetched, opts.checkpoint_interval + 2);
  for (int i = 87; i < 100; ++i) {
    EXPECT_EQ(fresh->get("key-" + std::to_string(i % 13)),
              kv->get("key-" + std::to_string(i % 13)));
  }
  EXPECT_EQ(fresh->size(), kv->size());
}

TEST(KvStore, RecoveryBeforeFirstCheckpoint) {
  World w(202);
  MountOptions opts;
  opts.checkpoint_interval = 50;
  auto kv = GdpKvStore::mount(Mount::create(w.s, *w.app, {w.srv}, "young", opts));
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE(kv->put("only", "value").ok());

  auto* reader = w.s.add_client("recoverer2", w.r1);
  w.s.attach_all();
  auto fresh =
      GdpKvStore::mount(Mount::create(w.s, *reader, {w.srv}, "scratch2", opts));
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh->recover(kv->metadata()).ok());
  EXPECT_EQ(fresh->get("only"), "value");
}

// ---- Commit service (multi-writer) --------------------------------------------------

TEST(CommitService, SerializesMultipleWriters) {
  World w(300);
  auto* svc_client = w.s.add_client("commit-svc", w.r1);
  auto* alice = w.s.add_client("alice", w.r1);
  auto* bob = w.s.add_client("bob", w.r1);
  w.s.attach_all();

  CapsuleSetup setup = make_capsule(w.s.key_rng(), "shared-log");
  ASSERT_TRUE(place_capsule(w.s, setup, *svc_client, {w.srv}).ok());
  CommitService service(w.s, *svc_client, std::move(setup));

  Proposer alice_p(w.s, *alice);
  Proposer bob_p(w.s, *bob);
  std::vector<client::OpPtr<std::uint64_t>> ops;
  for (int i = 0; i < 4; ++i) {
    ops.push_back(alice_p.propose(service.service_name(),
                                  to_bytes("alice-" + std::to_string(i))));
    ops.push_back(bob_p.propose(service.service_name(),
                                to_bytes("bob-" + std::to_string(i))));
  }
  w.s.settle();
  std::set<std::uint64_t> seqnos;
  for (auto& op : ops) {
    auto seqno = await(w.s.sim(), op);
    ASSERT_TRUE(seqno.ok()) << seqno.error().to_string();
    seqnos.insert(*seqno);
  }
  // A total order: 8 distinct consecutive seqnos.
  EXPECT_EQ(seqnos.size(), 8u);
  EXPECT_EQ(*seqnos.begin(), 1u);
  EXPECT_EQ(*seqnos.rbegin(), 8u);
  EXPECT_EQ(service.proposals_committed(), 8u);

  // Committed records carry attributable proposer identities.
  auto read = await(w.s.sim(), alice->read(service.metadata(), 1, 8));
  ASSERT_TRUE(read.ok()) << read.error().to_string();
  int alice_count = 0, bob_count = 0;
  for (const auto& rec : read->records) {
    auto decoded = CommitService::decode_committed(rec.payload);
    ASSERT_TRUE(decoded.ok());
    if (decoded->first == alice->name()) ++alice_count;
    if (decoded->first == bob->name()) ++bob_count;
  }
  EXPECT_EQ(alice_count, 4);
  EXPECT_EQ(bob_count, 4);
}

// ---- Aggregator -----------------------------------------------------------------------

TEST(Aggregator, CombinesMultipleSources) {
  World w(400);
  auto* agg_client = w.s.add_client("aggregator", w.r1);
  auto* sensor1 = w.s.add_client("sensor1", w.r1);
  auto* sensor2 = w.s.add_client("sensor2", w.r1);
  auto* consumer = w.s.add_client("consumer", w.r1);
  w.s.attach_all();

  CapsuleSetup src1 = make_capsule(w.s.key_rng(), "temp-sensor");
  CapsuleSetup src2 = make_capsule(w.s.key_rng(), "humidity-sensor");
  CapsuleSetup out = make_capsule(w.s.key_rng(), "combined");
  ASSERT_TRUE(place_capsule(w.s, src1, *sensor1, {w.srv}).ok());
  ASSERT_TRUE(place_capsule(w.s, src2, *sensor2, {w.srv}).ok());
  ASSERT_TRUE(place_capsule(w.s, out, *agg_client, {w.srv}).ok());

  Aggregator aggregator(w.s, *agg_client, std::move(out));
  TimePoint expiry = w.s.sim().now() + from_seconds(3600);
  ASSERT_TRUE(aggregator
                  .add_source(src1.metadata,
                              src1.sub_cert_for(agg_client->name(),
                                                w.s.sim().now(), expiry))
                  .ok());
  ASSERT_TRUE(aggregator
                  .add_source(src2.metadata,
                              src2.sub_cert_for(agg_client->name(),
                                                w.s.sim().now(), expiry))
                  .ok());

  capsule::Writer w1 = src1.make_writer();
  capsule::Writer w2 = src2.make_writer();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(await(w.s.sim(), sensor1->append(w1, to_bytes("t" + std::to_string(i)))).ok());
    ASSERT_TRUE(await(w.s.sim(), sensor2->append(w2, to_bytes("h" + std::to_string(i)))).ok());
  }
  w.s.settle();
  EXPECT_EQ(aggregator.events_aggregated(), 6u);

  // The combined capsule is readable/verifiable like any other.
  auto read = await(w.s.sim(), consumer->read(aggregator.output_metadata(), 1, 6));
  ASSERT_TRUE(read.ok()) << read.error().to_string();
  int from1 = 0, from2 = 0;
  for (const auto& rec : read->records) {
    auto decoded = Aggregator::decode(rec.payload);
    ASSERT_TRUE(decoded.ok());
    if (std::get<0>(*decoded) == src1.metadata.name()) ++from1;
    if (std::get<0>(*decoded) == src2.metadata.name()) ++from2;
  }
  EXPECT_EQ(from1, 3);
  EXPECT_EQ(from2, 3);
}

// ---- Stream ------------------------------------------------------------------------

TEST(Stream, LiveDeliveryAllFrames) {
  World w(500);
  auto* cam = w.s.add_client("camera", w.r1);
  auto* viewer = w.s.add_client("viewer", w.r1);
  w.s.attach_all();
  CapsuleSetup cap = make_capsule(w.s.key_rng(), "video");
  ASSERT_TRUE(place_capsule(w.s, cap, *cam, {w.srv}).ok());

  StreamPlayer player(w.s, *viewer, cap.metadata);
  auto joined = player.join(cap.sub_cert_for(viewer->name(), w.s.sim().now(),
                                             w.s.sim().now() + from_seconds(3600)));
  ASSERT_TRUE(joined.ok()) << joined.error().to_string();

  StreamPublisher publisher(w.s, *cam, std::move(cap));
  Rng frames_rng(1);
  for (int i = 0; i < 10; ++i) publisher.publish_frame(frames_rng.next_bytes(512));
  w.s.settle();
  EXPECT_EQ(publisher.frames_published(), 10u);
  EXPECT_EQ(player.frames_received(), 10u);
  EXPECT_TRUE(player.gaps().empty());
  EXPECT_TRUE(player.frame(7).has_value());
}

TEST(Stream, LossyFeedGapsDetectedAndBackfilled) {
  World w(501);
  auto* cam = w.s.add_client("camera", w.r1);
  auto* viewer = w.s.add_client("viewer", w.r1);
  w.s.attach_all();
  CapsuleSetup cap = make_capsule(w.s.key_rng(), "lossy-video");
  ASSERT_TRUE(place_capsule(w.s, cap, *cam, {w.srv}).ok());

  StreamPlayer player(w.s, *viewer, cap.metadata);
  ASSERT_TRUE(player
                  .join(cap.sub_cert_for(viewer->name(), w.s.sim().now(),
                                         w.s.sim().now() + from_seconds(3600)))
                  .ok());

  // Drop ~half of the publish events on the viewer's access link; the
  // capsule itself stays intact on the server.
  Rng drop_rng(7);
  w.s.net().set_interceptor(
      w.r1->name(), viewer->name(),
      [&drop_rng](const wire::Pdu& pdu) -> std::optional<wire::Pdu> {
        if (pdu.type == wire::MsgType::kPublish && drop_rng.next_bool(0.5)) {
          return std::nullopt;
        }
        return pdu;
      });

  capsule::Metadata meta = cap.metadata;
  StreamPublisher publisher(w.s, *cam, std::move(cap));
  Rng frames_rng(2);
  for (int i = 0; i < 20; ++i) publisher.publish_frame(frames_rng.next_bytes(256));
  w.s.settle();

  // Some frames were lost live — integrity intact, just missing.
  EXPECT_LT(player.frames_received(), 20u);
  EXPECT_FALSE(player.gaps().empty());

  // Backfill through verified reads recovers every gap.
  w.s.net().clear_interceptor(w.r1->name(), viewer->name());
  auto recovered = player.backfill();
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_GT(*recovered, 0u);
  EXPECT_TRUE(player.gaps().empty());
  for (std::uint64_t s = 1; s <= player.highest_seqno(); ++s) {
    EXPECT_TRUE(player.frame(s).has_value()) << "frame " << s;
  }
}

// ---- Time series -------------------------------------------------------------------

TEST(TimeSeries, RecordAndQueryWindow) {
  World w(600);
  auto* sensor = w.s.add_client("sensor", w.r1);
  auto* analyst = w.s.add_client("analyst", w.r1);
  w.s.attach_all();
  CapsuleSetup cap = make_capsule(w.s.key_rng(), "temps");
  ASSERT_TRUE(place_capsule(w.s, cap, *sensor, {w.srv}).ok());
  capsule::Metadata meta = cap.metadata;

  TimeSeriesWriter writer(w.s, *sensor, std::move(cap));
  std::vector<TimePoint> stamps;
  for (int i = 0; i < 40; ++i) {
    stamps.push_back(w.s.sim().now());
    ASSERT_TRUE(writer.record(20.0 + i * 0.1).ok());
    w.s.settle_for(from_seconds(60));  // one sample per minute
  }

  TimeSeriesReader reader(w.s, *analyst, meta);
  // Window covering samples 10..19 (inclusive).
  auto window = reader.query(stamps[10], stamps[19]);
  ASSERT_TRUE(window.ok()) << window.error().to_string();
  ASSERT_EQ(window->size(), 10u);
  EXPECT_DOUBLE_EQ(window->front().value, 21.0);
  EXPECT_DOUBLE_EQ(window->back().value, 21.9);
  // Boundary search is logarithmic, not linear.
  EXPECT_LE(reader.point_reads(), 2 * 7u);

  // Empty window.
  auto none = reader.query(stamps[39] + from_seconds(120),
                           stamps[39] + from_seconds(240));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  // Latest-n.
  auto last5 = reader.latest(5);
  ASSERT_TRUE(last5.ok());
  ASSERT_EQ(last5->size(), 5u);
  EXPECT_DOUBLE_EQ(last5->back().value, 23.9);
}

TEST(TimeSeries, SampleRoundTripWithTag) {
  Sample s;
  s.timestamp_ns = 123456789;
  s.value = -40.25;
  s.tag = to_bytes("unit=C");
  auto back = Sample::deserialize(s.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->timestamp_ns, s.timestamp_ns);
  EXPECT_DOUBLE_EQ(back->value, s.value);
  EXPECT_EQ(back->tag, s.tag);
  EXPECT_FALSE(Sample::deserialize(Bytes(5)).ok());
}

// ---- Multi-replica CAAPIs ------------------------------------------------------------

TEST(Filesystem, SurvivesReplicaCrash) {
  Scenario s(601, "fs-replicated");
  auto* g = s.add_domain("g", nullptr);
  auto* r1 = s.add_router("r1", g);
  auto* r2 = s.add_router("r2", g);
  s.link_routers(r1, r2, net::LinkParams::wan(5));
  auto* srv1 = s.add_server("srv1", r1);
  auto* srv2 = s.add_server("srv2", r2);
  auto* app = s.add_client("app", r1);
  s.attach_all();

  MountOptions opts;
  opts.required_acks = 2;  // durable writes across both replicas
  auto fs = GdpFilesystem::mount(
      Mount::create(s, *app, {srv1, srv2}, "replicated-fs", opts));
  ASSERT_TRUE(fs.ok()) << fs.error().to_string();
  Rng rng(9);
  Bytes doc = rng.next_bytes(5000);
  ASSERT_TRUE(fs->write_file("doc.bin", doc).ok());

  // Primary-side replica dies (and its router notices the link drop); the
  // file and the directory remain readable through the surviving replica.
  s.crash(*srv1);
  auto back = fs->read_file("doc.bin");
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(*back, doc);
}

}  // namespace
}  // namespace gdp::caapi
