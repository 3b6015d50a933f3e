#include "layers.hpp"

#include <unistd.h>

#include "capsule/proof.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "store/capsule_store.hpp"
#include "wire/messages.hpp"

namespace perfbench {
namespace {

/// Median wall time of `reps` individually timed calls, in microseconds.
template <typename F>
double median_us(std::size_t reps, F&& fn) {
  Samples s;
  for (std::size_t i = 0; i < reps; ++i) {
    const std::int64_t t0 = wall_ns();
    fn(i);
    s.add(static_cast<double>(wall_ns() - t0) / 1e3);
  }
  return s.median();
}

void replay_capsule_and_store(const ReplayInput& in, Ledger& ledger, Metrics& out,
                              std::vector<capsule::Record>& records) {
  harness::CapsuleSetup fresh = harness::make_capsule(
      *in.key_rng, "replay", capsule::WriterMode::kStrictSingleWriter, in.strategy);
  capsule::Writer writer = fresh.make_writer();
  Samples append_us;
  for (std::size_t i = 0; i < in.payloads.size(); ++i) {
    const std::int64_t t0 = wall_ns();
    records.push_back(writer.append(in.payloads[i], static_cast<std::int64_t>(i + 1)));
    append_us.add(static_cast<double>(wall_ns() - t0) / 1e3);
  }
  out.push_back({"capsule.writer_append_us", append_us.median(), "us"});

  capsule::CapsuleState state(fresh.metadata);
  Samples ingest_us;
  for (const capsule::Record& r : records) {
    const std::int64_t t0 = wall_ns();
    Status st = state.ingest(r);
    ingest_us.add(static_cast<double>(wall_ns() - t0) / 1e3);
    ledger.check(st.ok(), "replay CapsuleState::ingest: " + st.to_string());
  }
  out.push_back({"capsule.state_ingest_us", ingest_us.median(), "us"});

  // The store replay isolates storage: signatures were checked above.
  static int counter = 0;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("perfbench-store-" + std::to_string(::getpid()) + "-" + std::to_string(counter++));
  Samples store_ingest_us;
  Samples sync_us;
  {
    auto cs = store::CapsuleStore::create(
        dir, fresh.metadata,
        fresh.delegation_for(*in.server, TimePoint{}, from_seconds(3600)));
    if (ledger.check(cs.ok(), "replay store create")) {
      for (const capsule::Record& r : records) {
        std::int64_t t0 = wall_ns();
        Status st = cs->ingest(r, capsule::SigPolicy::kPreVerified);
        store_ingest_us.add(static_cast<double>(wall_ns() - t0) / 1e3);
        ledger.check(st.ok(), "replay CapsuleStore::ingest: " + st.to_string());
        t0 = wall_ns();
        st = cs->sync();
        sync_us.add(static_cast<double>(wall_ns() - t0) / 1e3);
        ledger.check(st.ok(), "replay CapsuleStore::sync: " + st.to_string());
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  out.push_back({"store.ingest_us", store_ingest_us.median(), "us"});
  out.push_back({"store.sync_us", sync_us.median(), "us"});
}

void replay_proofs(const ReplayInput& in, Ledger& ledger, Metrics& out,
                   capsule::Heartbeat& hb) {
  const capsule::CapsuleState& state = *in.state;
  hb = capsule::Heartbeat::from_record(*state.get_by_seqno(state.tip_seqno()));
  Samples build_us;
  Samples verify_us;
  double hops = 0;
  double bytes = 0;
  for (std::uint64_t s : in.point_seqnos) {
    std::int64_t t0 = wall_ns();
    auto proof = capsule::build_range_proof(state, hb, s, s);
    build_us.add(static_cast<double>(wall_ns() - t0) / 1e3);
    if (!ledger.check(proof.ok(), "replay build_range_proof")) continue;
    hops += static_cast<double>(proof->link_path.size());
    bytes += static_cast<double>(proof->size_bytes());
    t0 = wall_ns();
    Status st = capsule::verify_range_proof(*in.metadata, hb, *proof, s, s);
    verify_us.add(static_cast<double>(wall_ns() - t0) / 1e3);
    ledger.check(st.ok(), "replay verify_range_proof: " + st.to_string());
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, in.point_seqnos.size()));
  out.push_back({"capsule.range_proof_build_us", build_us.median(), "us"});
  out.push_back({"capsule.range_proof_verify_us", verify_us.median(), "us"});
  out.push_back({"capsule.proof_hops_per_read", hops / n, "count"});
  out.push_back({"capsule.proof_bytes_per_read", bytes / n, "count"});
}

void replay_crypto(const ReplayInput& in, bool tiny, Ledger& ledger, Metrics& out) {
  const std::size_t reps = tiny ? 20 : 200;
  const crypto::PrivateKey key = crypto::PrivateKey::generate(*in.key_rng);
  const crypto::PrivateKey peer = crypto::PrivateKey::generate(*in.key_rng);
  std::vector<crypto::Digest> digests;
  for (std::size_t i = 0; i < reps; ++i) {
    digests.push_back(crypto::sha256(in.payloads[i % in.payloads.size()]));
    digests.back()[0] ^= static_cast<std::uint8_t>(i);
  }
  std::vector<crypto::Signature> sigs(reps);
  out.push_back({"crypto.sign_us",
                 median_us(reps, [&](std::size_t i) { sigs[i] = key.sign_digest(digests[i]); }),
                 "us"});
  bool all_ok = true;
  out.push_back({"crypto.verify_us", median_us(reps, [&](std::size_t i) {
                   all_ok &= key.public_key().verify_digest(digests[i], sigs[i]);
                 }),
                 "us"});
  ledger.check(all_ok, "replay signature verify");
  out.push_back({"crypto.ecdh_us", median_us(reps, [&](std::size_t) {
                   (void)crypto::ecdh_shared_key(key, peer.public_key());
                 }),
                 "us"});
  // HMAC and SHA-256 over inputs the size of the workload's payloads.
  const Bytes& body = in.payloads.front();
  const crypto::SymmetricKey sym = crypto::ecdh_shared_key(key, peer.public_key());
  out.push_back({"crypto.hmac_us", median_us(reps, [&](std::size_t) {
                   (void)crypto::hmac_sha256(BytesView(sym.data(), sym.size()), body);
                 }),
                 "us"});
  const double sha_us = median_us(reps, [&](std::size_t) { (void)crypto::sha256(body); });
  out.push_back({"crypto.sha256_mb_per_s",
                 static_cast<double>(body.size()) / std::max(sha_us, 1e-3), "MB/s"});
}

void replay_wire(const ReplayInput& in, bool tiny, Ledger& ledger, Metrics& out,
                 const std::vector<capsule::Record>& records,
                 const capsule::Heartbeat& hb) {
  const std::size_t reps = tiny ? 20 : (in.payloads.front().size() > 4096 ? 50 : 1000);
  wire::AppendMsg msg;
  msg.capsule = records.front().header.capsule_name;
  msg.record = records.front();
  msg.nonce = 7;
  msg.session_pubkey = Bytes(64, 0x42);
  Bytes encoded;
  out.push_back({"wire.append_msg.encode_us",
                 median_us(reps, [&](std::size_t) { encoded = msg.serialize(); }), "us"});
  bool decoded = true;
  out.push_back({"wire.append_msg.decode_us", median_us(reps, [&](std::size_t) {
                   decoded &= wire::AppendMsg::deserialize(encoded).ok();
                 }),
                 "us"});

  // A read response carrying a range of the workload's own records, as the
  // client unpacks it: message, then range proof.
  const std::uint64_t tip = in.state->tip_seqno();
  const std::uint64_t len = std::min(in.range_len, tip);
  auto proof = capsule::build_range_proof(*in.state, hb, tip - len + 1, tip);
  if (!ledger.check(proof.ok(), "replay range proof for the read response")) return;
  wire::ReadResponseMsg resp;
  resp.capsule = in.metadata->name();
  resp.ok = true;
  resp.proof = proof->serialize();
  resp.heartbeat = hb.serialize();
  resp.nonce = 9;
  resp.auth.kind = wire::ResponseAuth::Kind::kHmac;
  resp.auth.bytes = Bytes(32, 0x24);
  const Bytes resp_bytes = resp.serialize();
  const std::size_t resp_reps = std::max<std::size_t>(5, reps / std::max<std::uint64_t>(1, len));
  out.push_back({"wire.read_response.decode_us", median_us(resp_reps, [&](std::size_t) {
                   auto m = wire::ReadResponseMsg::deserialize(resp_bytes);
                   decoded &= m.ok() && capsule::RangeProof::deserialize(m->proof).ok();
                 }),
                 "us"});
  ledger.check(decoded, "replay wire decode");
}

}  // namespace

Metrics replay_layers(const ReplayInput& in, bool tiny, Ledger& ledger) {
  Metrics out;
  std::vector<capsule::Record> records;
  replay_capsule_and_store(in, ledger, out, records);
  capsule::Heartbeat hb;
  replay_proofs(in, ledger, out, hb);
  replay_crypto(in, tiny, ledger, out);
  replay_wire(in, tiny, ledger, out, records, hb);
  return out;
}

}  // namespace perfbench
