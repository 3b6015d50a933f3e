#include "server/server.hpp"

#include <algorithm>

#include "capsule/proof.hpp"
#include "common/log.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/hmac.hpp"
#include "trust/delegation.hpp"

namespace gdp::server {

using capsule::Heartbeat;
using capsule::Record;

CapsuleServer::CapsuleServer(net::Network& net, const crypto::PrivateKey& key,
                             std::string label, Options options)
    : Endpoint(net, key, trust::Role::kCapsuleServer, std::move(label)),
      options_(std::move(options)),
      store_([&] {
        auto s = store::ServerStore::open(options_.storage_root);
        if (!s.ok()) {
          GDP_LOG(kError, "server") << "storage open failed: " << s.error().to_string();
          std::abort();
        }
        return std::move(s).value();
      }()),
      metric_prefix_("server." + std::string(self_.label()) + "."),
      appends_accepted_(
          net_.metrics().counter(metric_prefix_ + "appends.accepted")),
      appends_rejected_(
          net_.metrics().counter(metric_prefix_ + "appends.rejected")),
      reads_served_(net_.metrics().counter(metric_prefix_ + "reads.served")),
      sync_records_sent_(
          net_.metrics().counter(metric_prefix_ + "sync.records_sent")),
      sync_summary_bytes_(
          net_.metrics().counter(metric_prefix_ + "sync.summary_bytes")),
      sync_ranges_pulled_(
          net_.metrics().counter(metric_prefix_ + "sync.ranges_pulled")),
      sync_rounds_(net_.metrics().counter(metric_prefix_ + "sync.rounds")),
      sync_probes_(net_.metrics().counter(metric_prefix_ + "sync.probes")),
      drop_malformed_(net_.metrics().counter(metric_prefix_ + "drop.malformed")),
      drop_not_hosted_(
          net_.metrics().counter(metric_prefix_ + "drop.not_hosted")),
      drop_stale_ack_(
          net_.metrics().counter(metric_prefix_ + "drop.stale_ack")),
      drop_duplicate_ack_(
          net_.metrics().counter(metric_prefix_ + "drop.duplicate_ack")),
      drop_foreign_ack_(
          net_.metrics().counter(metric_prefix_ + "drop.foreign_ack")),
      recv_pdus_(net_.metrics().counter(metric_prefix_ + "recv.pdus")),
      batch_accepted_(net_.metrics().counter(metric_prefix_ + "batch.accepted")),
      batch_rejected_(net_.metrics().counter(metric_prefix_ + "batch.rejected")),
      batch_bisections_(
          net_.metrics().counter(metric_prefix_ + "batch.bisections")),
      shed_bench_(net_.metrics().counter(metric_prefix_ + "shed.bench_data")),
      shed_reads_(net_.metrics().counter(metric_prefix_ + "shed.reads")),
      shed_appends_(net_.metrics().counter(metric_prefix_ + "shed.appends")),
      ingest_enqueued_(
          net_.metrics().counter(metric_prefix_ + "ingest.enqueued")),
      ingest_processed_(
          net_.metrics().counter(metric_prefix_ + "ingest.processed")),
      ingest_high_water_(
          net_.metrics().counter(metric_prefix_ + "ingest.high_water")),
      load_reports_sent_(
          net_.metrics().counter(metric_prefix_ + "load_reports.sent")),
      cas_win_(net_.metrics().counter(metric_prefix_ + "scl.cas.win")),
      cas_conflict_(net_.metrics().counter(metric_prefix_ + "scl.cas.conflict")),
      cas_lease_rejected_(
          net_.metrics().counter(metric_prefix_ + "scl.cas.lease_rejected")),
      lease_granted_(net_.metrics().counter(metric_prefix_ + "scl.lease.granted")),
      lease_denied_(net_.metrics().counter(metric_prefix_ + "scl.lease.denied")),
      batch_size_(net_.metrics().histogram(metric_prefix_ + "batch.size")),
      ingest_depth_(
          net_.metrics().histogram(metric_prefix_ + "ingest.depth")) {
  batch_seed_ = net_.sim().rng().next_u64();
  overload_ = loadmgmt::OverloadManager(options_.overload);
  // Multi-writer credential verdicts route through the server's verify
  // cache: one credential signs every record of a writer's branch.
  store_.set_credential_checker(
      [this](const crypto::PublicKey& issuer, BytesView payload,
             const crypto::Signature& sig, std::int64_t expires_ns,
             std::int64_t now_ns) {
        return trust::cached_verify(&credential_cache_, issuer, payload, sig,
                                    expires_ns, TimePoint(now_ns));
      });
}

void CapsuleServer::publish_metrics() {
  auto& m = net_.metrics();
  if (options_.ingest_service_time > Duration::zero()) {
    m.counter(metric_prefix_ + "ingest.queue_depth").set(ingest_queue_.size());
    ingest_high_water_.set(overload_.high_water());
  }
  for (const Name& name : store_.hosted()) {
    const store::CapsuleStore* cs = store_.find(name);
    const std::string prefix = "store." + name.short_hex() + ".";
    m.counter(prefix + "records").set(cs->log().entry_count());
    m.counter(prefix + "payload_bytes").set(cs->log().payload_bytes());
    m.counter(prefix + "flushes").set(cs->log().sync_count());
    m.counter(prefix + "tip_seqno").set(cs->state().tip_seqno());
  }
}

Status CapsuleServer::host_capsule(const capsule::Metadata& metadata,
                                   const trust::ServingDelegation& delegation,
                                   std::vector<Name> replica_peers) {
  GDP_RETURN_IF_ERROR(trust::verify_serving_delegation(metadata, self_, delegation,
                                                       net_.sim().now()));
  GDP_RETURN_IF_ERROR(store_.host(metadata, delegation));
  auto& peers = peers_[metadata.name()];
  for (const Name& p : replica_peers) {
    if (p != self_.name() &&
        std::find(peers.begin(), peers.end(), p) == peers.end()) {
      peers.push_back(p);
    }
  }
  return ok_status();
}

std::vector<Bytes> CapsuleServer::build_catalog_records() const {
  std::vector<Bytes> out;
  const std::int64_t expiry =
      (net_.sim().now() + options_.advertisement_lifetime).count();
  for (const Name& name : store_.hosted()) {
    const store::CapsuleStore* cs = store_.find(name);
    trust::Advertisement ad;
    ad.advertised = name;
    ad.delegation = cs->delegation();
    ad.capsule_metadata = cs->metadata().serialize();
    ad.expires_ns = expiry;
    out.push_back(trust::Catalog::encode_advertisement(ad));
  }
  return out;
}

void CapsuleServer::advertise_to(const Name& router) {
  advertise(router, build_catalog_records(), options_.advertisement_lifetime);
}

void CapsuleServer::reattach() { advertise_to(router()); }

void CapsuleServer::start_anti_entropy() {
  if (anti_entropy_running_) return;
  anti_entropy_running_ = true;
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [this, tick]() {
    if (!anti_entropy_running_) return;
    anti_entropy_round();
    net_.sim().schedule(options_.anti_entropy_interval, *tick);
  };
  net_.sim().schedule(options_.anti_entropy_interval, *tick);
}

void CapsuleServer::anti_entropy_round() {
  sync_rounds_.inc();
  for (const Name& capsule : store_.hosted()) {
    auto peer_it = peers_.find(capsule);
    if (peer_it == peers_.end() || peer_it->second.empty()) continue;
    const store::CapsuleStore* cs = store_.find(capsule);
    if (options_.sync_mode == SyncMode::kSummary) {
      auto sess = sync_sessions_.find(capsule);
      if (sess != sync_sessions_.end()) {
        SyncSession& s = sess->second;
        if (s.received > s.last_progress) {
          s.last_progress = s.received;
          s.idle_rounds = 0;
          s.retries = 0;
        } else if (++s.idle_rounds >= kStallRounds) {
          // No records for a while: either a PDU was lost or the link is
          // just slow (the threshold must exceed one batch's transfer
          // time in rounds, or healthy slow-link pulls get re-requested
          // and the retry itself duplicates traffic).
          s.idle_rounds = 0;
          if (s.retries < kMaxRetries && (s.in_flight || !s.queued.empty())) {
            // Progress-preserving retry: re-request the in-flight ranges
            // at the last acknowledged cursor — one small PDU, and the
            // Merkle walk's findings survive the loss.
            ++s.retries;
            if (s.in_flight) {
              wire::SyncRangeMsg again;
              again.capsule = capsule;
              again.ranges = s.requested;
              again.holes = cs->state().holes();
              again.cursor = s.cursor;
              Bytes payload = again.serialize();
              sync_summary_bytes_.inc(payload.size());
              send_pdu(s.peer, wire::MsgType::kSyncRange, std::move(payload),
                       s.flow);
            } else {
              flush_session(capsule, s);
            }
          } else {
            // Retries exhausted (peer likely gone): drop the conversation
            // and fall through to a fresh probe, possibly at another peer.
            sync_sessions_.erase(sess);
            sess = sync_sessions_.end();
          }
        }
        if (sess != sync_sessions_.end()) continue;  // conversation still live
      }
      const Name peer =
          peer_it->second[net_.sim().rng().next_below(peer_it->second.size())];
      send_summary_probe(capsule, peer);
    } else {
      const Name peer =
          peer_it->second[net_.sim().rng().next_below(peer_it->second.size())];
      wire::SyncPullMsg msg;
      msg.capsule = capsule;
      msg.tip_seqno = cs->state().tip_seqno();
      msg.holes = cs->state().holes();
      send_pdu(peer, wire::MsgType::kSyncPull, msg.serialize());
    }
  }
}

Status CapsuleServer::ingest_local(const Name& capsule, const Record& record) {
  store::CapsuleStore* cs = store_.find(capsule);
  if (cs == nullptr) {
    return make_error(Errc::kNotFound, "capsule not hosted here");
  }
  return cs->ingest(record, capsule::SigPolicy::kPreVerified);
}

void CapsuleServer::send_summary_probe(const Name& capsule, const Name& peer) {
  const store::CapsuleStore* cs = store_.find(capsule);
  if (cs == nullptr) return;
  const auto& state = cs->state();
  wire::SyncSummaryMsg msg;
  msg.capsule = capsule;
  msg.tip_seqno = state.tip_seqno();
  msg.tip_hash = state.tip_hash();
  msg.root_hash = crypto::digest_to_name(state.tree().root().hash);
  Bytes payload = msg.serialize();
  sync_probes_.inc();
  sync_summary_bytes_.inc(payload.size());
  send_pdu(peer, wire::MsgType::kSyncSummary, std::move(payload));
}

namespace {

/// Data-plane ops that occupy the server under the ingest service model.
/// Control traffic (acks, handshakes, sync bookkeeping) stays inline:
/// delaying a quorum ack behind a read backlog would convert one
/// overloaded replica into a fleet-wide durability stall.
bool serviced_op(wire::MsgType type) {
  switch (type) {
    case wire::MsgType::kBenchData:
    case wire::MsgType::kRead:
    case wire::MsgType::kAppend:
    case wire::MsgType::kCondAppend:
    case wire::MsgType::kSyncPush:
      return true;
    default:
      return false;
  }
}

loadmgmt::DropPriority drop_priority_of(wire::MsgType type) {
  switch (type) {
    case wire::MsgType::kBenchData: return loadmgmt::DropPriority::kBench;
    case wire::MsgType::kRead: return loadmgmt::DropPriority::kRead;
    case wire::MsgType::kAppend:
    case wire::MsgType::kCondAppend:
      return loadmgmt::DropPriority::kWrite;
    default: return loadmgmt::DropPriority::kCritical;
  }
}

}  // namespace

void CapsuleServer::handle_pdu(const Name& from, const wire::Pdu& pdu) {
  // Accounted before the dispatch switch: the kBenchData early-return
  // used to bypass per-server accounting entirely, making bench floods
  // invisible in stats dumps and traces.
  recv_pdus_.inc();
  if (options_.ingest_service_time > Duration::zero() && serviced_op(pdu.type)) {
    enqueue_ingest(from, pdu);
    return;
  }
  dispatch_op(from, pdu);
}

void CapsuleServer::enqueue_ingest(const Name& from, const wire::Pdu& pdu) {
  const loadmgmt::DropPriority priority = drop_priority_of(pdu.type);
  overload_.update(ingest_queue_.size());
  if (options_.shed_enabled && !overload_.admit(priority)) {
    shed_op(pdu, priority);
    maybe_report_shed_edge();
    return;
  }
  ingest_queue_.push_back(QueuedOp{from, pdu});
  ingest_enqueued_.inc();
  ingest_depth_.record(ingest_queue_.size());
  maybe_report_shed_edge();
  if (!ingest_draining_) {
    ingest_draining_ = true;
    net_.sim().schedule(options_.ingest_service_time, [this] { drain_ingest(); });
  }
}

void CapsuleServer::drain_ingest() {
  if (ingest_queue_.empty()) {
    ingest_draining_ = false;
    return;
  }
  QueuedOp op = std::move(ingest_queue_.front());
  ingest_queue_.pop_front();
  ingest_processed_.inc();
  dispatch_op(op.from, op.pdu);
  overload_.update(ingest_queue_.size());
  maybe_report_shed_edge();
  if (ingest_queue_.empty()) {
    ingest_draining_ = false;
    return;
  }
  net_.sim().schedule(options_.ingest_service_time, [this] { drain_ingest(); });
}

void CapsuleServer::shed_op(const wire::Pdu& pdu,
                            loadmgmt::DropPriority priority) {
  switch (priority) {
    case loadmgmt::DropPriority::kBench:
      shed_bench_.inc();
      net_.trace().record(pdu.trace_id, self_.name(), "drop", "shed_bench_data");
      return;
    case loadmgmt::DropPriority::kRead: {
      shed_reads_.inc();
      net_.trace().record(pdu.trace_id, self_.name(), "drop", "shed_read");
      auto msg = wire::ReadMsg::deserialize(pdu.payload);
      if (!msg.ok()) return;  // malformed and shed: nothing to answer
      fail_read(pdu, *msg, Errc::kUnavailable, "read shed under overload");
      return;
    }
    case loadmgmt::DropPriority::kWrite: {
      shed_appends_.inc();
      net_.trace().record(pdu.trace_id, self_.name(), "drop", "shed_append");
      auto nack = [&](const auto& msg) {
        PendingDurability pending = pending_for(pdu.src, msg);
        pending.acks = 0;  // nothing persisted
        send_append_ack(pending, false,
                        std::string(errc_name(Errc::kUnavailable)) +
                            ": append shed under overload");
      };
      if (pdu.type == wire::MsgType::kCondAppend) {
        auto msg = wire::CondAppendMsg::deserialize(pdu.payload);
        if (msg.ok()) nack(*msg);
      } else {
        auto msg = wire::AppendMsg::deserialize(pdu.payload);
        if (msg.ok()) nack(*msg);
      }
      return;
    }
    case loadmgmt::DropPriority::kCritical:
      // Unreachable: admit() never rejects kCritical.
      return;
  }
}

void CapsuleServer::send_load_report() {
  if (!attached()) return;
  wire::LoadReportMsg msg;
  msg.server = self_.name();
  msg.queue_depth = static_cast<std::uint32_t>(ingest_queue_.size());
  msg.shed_level = static_cast<std::uint32_t>(overload_.shed_level());
  msg.expected_delay_ns = static_cast<std::uint64_t>(
      ingest_queue_.size() * options_.ingest_service_time.count());
  load_reports_sent_.inc();
  send_pdu(router(), wire::MsgType::kLoadReport, msg.serialize());
}

void CapsuleServer::maybe_report_shed_edge() {
  if (!load_reports_running_) return;
  const int level = overload_.shed_level();
  if (level == reported_shed_level_) return;
  reported_shed_level_ = level;
  send_load_report();
}

void CapsuleServer::start_load_reports() {
  if (options_.load_report_interval <= Duration::zero()) return;
  load_reports_running_ = true;
  net_.sim().schedule(options_.load_report_interval, [this] {
    if (!load_reports_running_) return;
    overload_.update(ingest_queue_.size());
    reported_shed_level_ = overload_.shed_level();
    send_load_report();
    start_load_reports();  // reschedules the next tick
  });
}

void CapsuleServer::dispatch_op(const Name& from, const wire::Pdu& pdu) {
  switch (pdu.type) {
    case wire::MsgType::kCreateCapsule: handle_create(from, pdu); return;
    case wire::MsgType::kAppend: handle_append(pdu); return;
    case wire::MsgType::kCondAppend: handle_cond_append(pdu); return;
    case wire::MsgType::kLeaseRequest: handle_lease_request(pdu); return;
    case wire::MsgType::kRead: handle_read(pdu); return;
    case wire::MsgType::kSubscribe: handle_subscribe(pdu); return;
    case wire::MsgType::kSyncPull: handle_sync_pull(pdu); return;
    case wire::MsgType::kSyncPush: handle_sync_push(pdu); return;
    case wire::MsgType::kSyncSummary: handle_sync_summary(pdu); return;
    case wire::MsgType::kSyncDescend: handle_sync_descend(pdu); return;
    case wire::MsgType::kSyncRange: handle_sync_range(pdu); return;
    case wire::MsgType::kStatus: handle_peer_ack(pdu); return;
    case wire::MsgType::kBenchData:
      // Raw forwarding benchmark sink; the terminal span mirrors the
      // router's bench path so traces show where the flood ended.
      net_.trace().record(pdu.trace_id, self_.name(), "bench_sink");
      return;
    default:
      GDP_LOG(kWarn, "server") << "unhandled PDU type " << static_cast<int>(pdu.type);
      net_.metrics().counter(metric_prefix_ + "drop.unhandled").inc();
      net_.trace().record(pdu.trace_id, self_.name(), "drop", "unhandled_type");
  }
}

void CapsuleServer::handle_create(const Name& /*from*/, const wire::Pdu& pdu) {
  auto msg = wire::CreateCapsuleMsg::deserialize(pdu.payload);
  if (!msg.ok()) {
    send_status(pdu.src, false, Errc::kInvalidArgument, "malformed create", 0);
    return;
  }
  auto metadata = capsule::Metadata::deserialize(msg->metadata);
  if (!metadata.ok()) {
    send_status(pdu.src, false, metadata.error().code, metadata.error().message,
                msg->nonce);
    return;
  }
  auto delegation = trust::ServingDelegation::deserialize(msg->delegation);
  if (!delegation.ok()) {
    send_status(pdu.src, false, delegation.error().code, delegation.error().message,
                msg->nonce);
    return;
  }
  Status hosted = host_capsule(*metadata, *delegation, msg->replica_peers);
  if (!hosted.ok()) {
    send_status(pdu.src, false, hosted.error().code, hosted.error().message,
                msg->nonce);
    return;
  }
  // Make the new name routable.
  advertise_to(router());
  send_status(pdu.src, true, Errc::kOk, "", msg->nonce);
}

void CapsuleServer::handle_append(const wire::Pdu& pdu) {
  auto msg = wire::AppendMsg::deserialize(pdu.payload);
  if (!msg.ok()) {
    drop_malformed_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "malformed_append");
    return;
  }

  PendingDurability pending = pending_for(pdu.src, *msg);
  store::CapsuleStore* cs = store_.find(msg->capsule);
  if (cs == nullptr) {
    appends_rejected_.inc();
    send_append_ack(pending, false, "capsule not hosted here");
    return;
  }
  run_append(*cs, std::move(pending), msg->record, pdu);
}

template <typename AppendLike>
CapsuleServer::PendingDurability CapsuleServer::pending_for(const Name& writer,
                                                            const AppendLike& msg) {
  PendingDurability pending;
  pending.writer = writer;
  pending.capsule = msg.capsule;
  pending.record_hash = msg.record.hash();
  pending.seqno = msg.record.header.seqno;
  pending.required = std::max<std::uint32_t>(1, msg.required_acks);
  pending.client_nonce = msg.nonce;
  pending.session_pubkey = msg.session_pubkey;
  return pending;
}

void CapsuleServer::run_append(store::CapsuleStore& cs, PendingDurability pending,
                               const Record& record, const wire::Pdu& pdu) {
  const Name capsule = pending.capsule;
  const std::uint64_t tip_before = cs.state().tip_seqno();
  Status ingested = cs.ingest(record);
  if (!ingested.ok()) {
    appends_rejected_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "verify", "append_rejected");
    send_append_ack(pending, false, ingested.error().to_string());
    return;
  }
  appends_accepted_.inc();
  // Local persistence means *flushed*, not just buffered — acking before
  // the flush would claim durability the storage engine cannot back.
  (void)cs.sync();
  net_.metrics()
      .histogram("store." + capsule.short_hex() + ".append.bytes")
      .record(record.payload.size());
  publish_new_canonical(capsule, tip_before);

  const auto peer_it = peers_.find(capsule);
  const std::size_t peer_count = peer_it == peers_.end() ? 0 : peer_it->second.size();
  pending.peer_count = static_cast<std::uint32_t>(peer_count);
  // The local flushed persist is the first durable copy, so the quorum
  // needs required - 1 peer acks; only required > peers + 1 is honestly
  // unsatisfiable and nacked up front instead of burning the timeout.
  if (pending.required > peer_count + 1) {
    send_append_ack(pending, false,
                    "required_acks " + std::to_string(pending.required) +
                        " unsatisfiable with " + std::to_string(peer_count) +
                        " replica peers");
    propagate_record(capsule, record, 0);
    return;
  }
  if (pending.required <= 1) {
    // Fast path (§VI-B): ack after local persistence, propagate in the
    // background.
    send_append_ack(pending, true, "");
    propagate_record(capsule, record, 0);
    return;
  }
  // Durable path: hold the ack until enough replicas confirm (the local
  // copy already counts as ack #1).
  const std::uint64_t id = next_pending_id_++;
  pending_[id] = pending;
  propagate_record(capsule, record, id);
  net_.sim().schedule(options_.durability_timeout, [this, id] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;  // already acked
    PendingDurability p = std::move(it->second);
    pending_.erase(it);
    send_append_ack(p, false,
                    "durability timeout: " + std::to_string(p.acks) + "/" +
                        std::to_string(p.required) + " acks");
  });
}

CapsuleServer::Lease* CapsuleServer::active_lease(const Name& capsule) {
  auto it = leases_.find(capsule);
  if (it == leases_.end()) return nullptr;
  if (it->second.expires_ns <= net_.sim().now().count()) {
    leases_.erase(it);  // lazily reaped; expiry needs no timer
    return nullptr;
  }
  return &it->second;
}

void CapsuleServer::send_cas_nack(const store::CapsuleStore& cs,
                                  const wire::Pdu& pdu,
                                  const wire::CondAppendMsg& msg, Errc code,
                                  std::string why, const Lease* lease) {
  wire::CasNackMsg nack;
  nack.capsule = cs.metadata().name();
  nack.code = static_cast<std::uint16_t>(code);
  nack.error = std::string(errc_name(code)) + ": " + std::move(why);
  nack.tip_seqno = cs.state().tip_seqno();
  nack.tip_hash = cs.state().tip_hash();
  if (lease != nullptr) {
    nack.lease_holder = lease->holder;
    nack.lease_expires_ns = lease->expires_ns;
  }
  nack.nonce = msg.nonce;
  respond(pdu.src, msg.session_pubkey, nack, pdu.flow_id);
}

void CapsuleServer::handle_cond_append(const wire::Pdu& pdu) {
  auto msg = wire::CondAppendMsg::deserialize(pdu.payload);
  if (!msg.ok()) {
    drop_malformed_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "malformed_cond_append");
    return;
  }

  PendingDurability pending = pending_for(pdu.src, *msg);
  store::CapsuleStore* cs = store_.find(msg->capsule);
  if (cs == nullptr) {
    appends_rejected_.inc();
    send_append_ack(pending, false, "capsule not hosted here");
    return;
  }
  // Advisory lease gate first: a writer that does not present the active
  // lease backs off without even reaching the tip comparison.
  Lease* lease = active_lease(msg->capsule);
  if (lease != nullptr && lease->id != msg->lease_id) {
    cas_lease_rejected_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "cas_lease_held");
    send_cas_nack(*cs, pdu, *msg, Errc::kLeaseHeld,
                  "capsule tip lease held by another writer", lease);
    return;
  }
  // The actual compare half of compare-and-append: both seqno and hash
  // must match the canonical tip, so a raced append — even one producing
  // the same seqno on a different branch — nacks with the fresh tip.
  const auto& state = cs->state();
  if (state.tip_seqno() != msg->expected_tip_seqno ||
      state.tip_hash() != msg->expected_tip_hash) {
    cas_conflict_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "verify", "cas_conflict");
    send_cas_nack(*cs, pdu, *msg, Errc::kConflict, "capsule tip moved", lease);
    return;
  }
  cas_win_.inc();
  run_append(*cs, std::move(pending), msg->record, pdu);
}

void CapsuleServer::handle_lease_request(const wire::Pdu& pdu) {
  auto msg = wire::LeaseRequestMsg::deserialize(pdu.payload);
  if (!msg.ok()) {
    drop_malformed_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "malformed_lease");
    return;
  }

  wire::LeaseGrantMsg grant;
  grant.capsule = msg->capsule;
  grant.nonce = msg->nonce;

  auto reply = [&] { respond(pdu.src, msg->session_pubkey, grant, pdu.flow_id); };
  auto deny = [&](Errc code, std::string why, const Lease* holder) {
    lease_denied_.inc();
    grant.ok = false;
    grant.code = static_cast<std::uint16_t>(code);
    grant.error = std::string(errc_name(code)) + ": " + std::move(why);
    if (holder != nullptr) {
      grant.lease_id = holder->id;
      grant.holder = holder->holder;
      grant.expires_ns = holder->expires_ns;
    }
    reply();
  };

  store::CapsuleStore* cs = store_.find(msg->capsule);
  if (cs == nullptr) {
    deny(Errc::kNotFound, "capsule not hosted here", nullptr);
    return;
  }
  // Grants always carry the current tip so the holder can start (or
  // resume) its CAS chain without a separate read round-trip.
  grant.tip_seqno = cs->state().tip_seqno();
  grant.tip_hash = cs->state().tip_hash();
  const std::int64_t now = net_.sim().now().count();
  Lease* lease = active_lease(msg->capsule);

  switch (msg->op) {
    case wire::LeaseRequestMsg::kAcquire: {
      if (lease != nullptr && lease->holder != msg->holder) {
        deny(Errc::kLeaseHeld, "lease held by another client", lease);
        return;
      }
      Lease fresh;
      fresh.holder = msg->holder;
      // Re-acquisition by the same holder keeps the id (its in-flight CAS
      // chain stays valid) and just extends the window.
      fresh.id = lease != nullptr ? lease->id : next_lease_id_++;
      fresh.expires_ns = now + msg->duration_ns;
      leases_[msg->capsule] = fresh;
      lease_granted_.inc();
      grant.ok = true;
      grant.lease_id = fresh.id;
      grant.holder = fresh.holder;
      grant.expires_ns = fresh.expires_ns;
      reply();
      return;
    }
    case wire::LeaseRequestMsg::kRenew: {
      if (lease == nullptr || lease->id != msg->lease_id ||
          lease->holder != msg->holder) {
        deny(Errc::kNotFound, "no matching lease to renew", lease);
        return;
      }
      lease->expires_ns = now + msg->duration_ns;
      lease_granted_.inc();
      grant.ok = true;
      grant.lease_id = lease->id;
      grant.holder = lease->holder;
      grant.expires_ns = lease->expires_ns;
      reply();
      return;
    }
    case wire::LeaseRequestMsg::kRelease: {
      // Idempotent: releasing an expired or already-released lease is ok.
      if (lease != nullptr && lease->id == msg->lease_id &&
          lease->holder == msg->holder) {
        leases_.erase(msg->capsule);
      }
      grant.ok = true;
      reply();
      return;
    }
    default:
      deny(Errc::kInvalidArgument, "unknown lease op", nullptr);
  }
}

void CapsuleServer::propagate_record(const Name& capsule, const Record& record,
                                     std::uint64_t flow_id) {
  auto peer_it = peers_.find(capsule);
  if (peer_it == peers_.end()) return;
  for (const Name& peer : peer_it->second) {
    wire::SyncPushMsg msg;
    msg.capsule = capsule;
    msg.records.push_back(record.serialize());
    sync_records_sent_.inc();
    send_pdu(peer, wire::MsgType::kSyncPush, msg.serialize(), flow_id);
  }
}

void CapsuleServer::handle_peer_ack(const wire::Pdu& pdu) {
  auto msg = wire::StatusMsg::deserialize(pdu.payload);
  if (!msg.ok()) {
    drop_malformed_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "malformed_ack");
    return;
  }
  auto it = pending_.find(msg->nonce);
  if (it == pending_.end()) {
    drop_stale_ack_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "stale_ack");
    return;
  }
  PendingDurability& p = it->second;
  // Only configured replica peers vote, and each peer's first response is
  // the one that counts — a retried or flap-re-delivered ack must not let
  // one durable copy satisfy a 2-of-k quorum.
  const auto peer_it = peers_.find(p.capsule);
  const bool is_peer =
      peer_it != peers_.end() &&
      std::find(peer_it->second.begin(), peer_it->second.end(), pdu.src) !=
          peer_it->second.end();
  if (!is_peer) {
    drop_foreign_ack_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "foreign_ack");
    return;
  }
  if (!p.responded.insert(pdu.src).second) {
    drop_duplicate_ack_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "duplicate_ack");
    return;
  }
  if (msg->ok) {
    ++p.acks;
    if (p.acks >= p.required) {
      PendingDurability done = std::move(p);
      pending_.erase(it);
      send_append_ack(done, true, "");
    }
    return;
  }
  // Negative ack: fail fast once the quorum can no longer be reached,
  // instead of burning the full durability timeout.
  ++p.nacks;
  const std::uint32_t undecided =
      p.peer_count - static_cast<std::uint32_t>(p.responded.size());
  if (p.acks + undecided < p.required) {
    PendingDurability done = std::move(p);
    pending_.erase(it);
    send_append_ack(done, false,
                    "quorum unreachable: " + std::to_string(done.nacks) +
                        " peer nacks, " + std::to_string(done.acks) + "/" +
                        std::to_string(done.required) + " acks");
  }
}

void CapsuleServer::handle_sync_push(const wire::Pdu& pdu) {
  auto msg = wire::SyncPushMsg::deserialize(pdu.payload);
  if (!msg.ok()) {
    drop_malformed_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "malformed_sync");
    return;
  }
  store::CapsuleStore* cs = store_.find(msg->capsule);
  if (cs == nullptr) {
    drop_not_hosted_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "not_hosted");
    if (pdu.flow_id != 0) {
      // A replica waiting on this push for durability must hear the
      // rejection now, not at its timeout.
      wire::StatusMsg nack;
      nack.ok = false;
      nack.code = static_cast<std::uint16_t>(Errc::kNotFound);
      nack.message = "capsule not hosted here";
      nack.nonce = pdu.flow_id;
      send_pdu(pdu.src, wire::MsgType::kStatus, nack.serialize(), pdu.flow_id);
    }
    return;
  }
  const std::uint64_t tip_before = cs->state().tip_seqno();
  bool all_ok = true;
  // Deserialize the whole flood first so the writer signatures of all
  // not-yet-known records can be verified as one batch (a single
  // multi-scalar multiplication) instead of one at a time.
  std::vector<Record> records;
  records.reserve(msg->records.size());
  for (const Bytes& record_bytes : msg->records) {
    auto record = Record::deserialize(record_bytes);
    if (!record.ok()) {
      all_ok = false;
      continue;
    }
    records.push_back(std::move(*record));
  }
  std::vector<capsule::SigPolicy> policy(records.size(),
                                         capsule::SigPolicy::kVerify);
  std::vector<char> skip(records.size(), 0);
  std::vector<std::size_t> fresh;  // unknown records, the ones verification costs
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!cs->state().known(records[i].hash())) fresh.push_back(i);
  }
  // Batch verification assumes one writer key for the whole flood; in
  // multi-writer mode each record resolves its key from its own credential
  // envelope, so records go through per-record ingest (memoized via the
  // credential cache) instead.
  const bool single_writer =
      cs->metadata().mode() != capsule::WriterMode::kMultiWriter;
  if (single_writer && fresh.size() >= crypto::BatchVerifier::kMinBatch) {
    crypto::BatchVerifier batch(batch_seed_);
    batch.reserve(fresh.size());
    const crypto::PublicKey& writer = cs->metadata().writer_key();
    for (std::size_t i : fresh) {
      crypto::Digest digest;
      const auto h = records[i].hash();
      std::copy(h.raw().begin(), h.raw().end(), digest.begin());
      batch.add(digest, writer, records[i].writer_sig);
    }
    const auto result = batch.verify_all();
    batch_size_.record(fresh.size());
    batch_accepted_.inc(fresh.size() - result.rejected.size());
    batch_rejected_.inc(result.rejected.size());
    batch_bisections_.inc(result.bisections);
    net_.trace().record(pdu.trace_id, self_.name(), "verify",
                        result.all_ok() ? "batch_ok" : "batch_rejected");
    std::size_t rej = 0;
    for (std::size_t j = 0; j < fresh.size(); ++j) {
      if (rej < result.rejected.size() && result.rejected[rej] == j) {
        // The batch verdict equals the serial one, so ingest would fail
        // with "writer signature invalid" — skip it and fail the ack.
        skip[fresh[j]] = 1;
        ++rej;
      } else {
        policy[fresh[j]] = capsule::SigPolicy::kPreVerified;
      }
    }
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (skip[i]) {
      all_ok = false;
      continue;
    }
    if (!cs->ingest(records[i], policy[i]).ok()) all_ok = false;
  }
  publish_new_canonical(msg->capsule, tip_before);

  // Pull-reply push for an active summary-sync session?  Continue the
  // cursor (the peer truncated at its batch cap) or retire the session.
  auto sess = sync_sessions_.find(msg->capsule);
  if (sess != sync_sessions_.end() && sess->second.peer == pdu.src &&
      sess->second.flow == pdu.flow_id) {
    SyncSession& s = sess->second;
    s.received += msg->records.size();
    if (msg->resume_cursor != 0) {
      wire::SyncRangeMsg next;
      next.capsule = msg->capsule;
      next.ranges = s.requested;
      next.holes = cs->state().holes();
      next.cursor = msg->resume_cursor;
      s.cursor = msg->resume_cursor;
      Bytes payload = next.serialize();
      sync_summary_bytes_.inc(payload.size());
      send_pdu(pdu.src, wire::MsgType::kSyncRange, std::move(payload), s.flow);
    } else if (!s.queued.empty()) {
      flush_session(msg->capsule, s);
    } else {
      // Conversation drained; a fresh probe next round confirms parity.
      sync_sessions_.erase(sess);
    }
    return;
  }
  if (pdu.flow_id != 0) {
    // Durability ack back to the pushing replica.
    wire::StatusMsg ack;
    ack.ok = all_ok;
    ack.nonce = pdu.flow_id;
    send_pdu(pdu.src, wire::MsgType::kStatus, ack.serialize(), pdu.flow_id);
  }
}

void CapsuleServer::handle_sync_pull(const wire::Pdu& pdu) {
  auto msg = wire::SyncPullMsg::deserialize(pdu.payload);
  if (!msg.ok()) {
    drop_malformed_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "malformed_sync");
    return;
  }
  store::CapsuleStore* cs = store_.find(msg->capsule);
  if (cs == nullptr) {
    drop_not_hosted_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "not_hosted");
    return;
  }
  const auto& state = cs->state();
  wire::SyncPushMsg push;
  push.capsule = msg->capsule;
  constexpr std::size_t kMaxBatch = 256;
  // Records the peer lacks beyond its tip...
  std::unordered_set<Name> included;
  for (std::uint64_t s = msg->tip_seqno + 1;
       s <= state.tip_seqno() && push.records.size() < kMaxBatch; ++s) {
    auto rec = state.get_by_seqno(s);
    if (rec) {
      included.insert(rec->hash());
      push.records.push_back(rec->serialize());
    }
  }
  // ...plus specific hole fills.  A hole already covered by the tip scan
  // (or repeated in the request) must not be sent twice: duplicates both
  // waste wire bytes and inflate sync.records_sent.
  for (const Name& hole : msg->holes) {
    if (push.records.size() >= kMaxBatch) break;
    if (!included.insert(hole).second) continue;
    auto rec = state.get_by_hash(hole);
    if (rec) push.records.push_back(rec->serialize());
  }
  if (push.records.empty()) return;
  sync_records_sent_.inc(push.records.size());
  send_pdu(pdu.src, wire::MsgType::kSyncPush, push.serialize());
}

// ---- Merkle-summary anti-entropy ----------------------------------------------------
//
// Roles: the *prober* sends its tree root (anti_entropy_round); the peer
// answers divergence with an offer of child hashes; the prober expands
// disagreeing interior nodes (request -> offer recursion) and pulls leaf
// or locally-empty ranges via SyncRangeMsg, which the peer answers with
// cursor-continued SyncPushMsgs.  Bytes scale with the divergence.

void CapsuleServer::handle_sync_summary(const wire::Pdu& pdu) {
  auto msg = wire::SyncSummaryMsg::deserialize(pdu.payload);
  if (!msg.ok()) {
    drop_malformed_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "malformed_sync");
    return;
  }
  const store::CapsuleStore* cs = store_.find(msg->capsule);
  if (cs == nullptr) {
    drop_not_hosted_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "not_hosted");
    return;
  }
  const auto& state = cs->state();
  const std::uint64_t my_tip = state.tip_seqno();
  if (my_tip == msg->tip_seqno && state.tip_hash() == msg->tip_hash &&
      crypto::digest_to_name(state.tree().root().hash) == msg->root_hash) {
    return;  // in sync, nothing to say
  }
  // Offer the children of the smallest aligned span covering both tips;
  // the prober compares them against its own nodes over the same ranges.
  const std::uint64_t span = capsule::HashTree::cover_span(
      std::max<std::uint64_t>(std::max(my_tip, msg->tip_seqno), 1));
  wire::SyncDescendMsg offer;
  offer.capsule = msg->capsule;
  offer.kind = wire::SyncDescendMsg::kOffer;
  offer.tip_seqno = my_tip;
  const auto& tree = state.tree();
  if (span <= capsule::HashTree::kLeafSpan) {
    const auto n = tree.node(1, span);
    offer.nodes.push_back(
        {n.first, n.last, crypto::digest_to_name(n.hash)});
  } else {
    for (const auto& n : tree.children(1, span)) {
      offer.nodes.push_back({n.first, n.last, crypto::digest_to_name(n.hash)});
    }
  }
  Bytes payload = offer.serialize();
  sync_summary_bytes_.inc(payload.size());
  send_pdu(pdu.src, wire::MsgType::kSyncDescend, std::move(payload));
  // The probe also told us the peer is ahead; pull the other way too.
  // Only the strictly-behind side reverse-probes, so two replicas never
  // ping-pong probes forever.
  if (my_tip < msg->tip_seqno && !sync_sessions_.contains(msg->capsule)) {
    send_summary_probe(msg->capsule, pdu.src);
  }
}

void CapsuleServer::handle_sync_descend(const wire::Pdu& pdu) {
  auto msg = wire::SyncDescendMsg::deserialize(pdu.payload);
  if (!msg.ok()) {
    drop_malformed_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "malformed_sync");
    return;
  }
  const store::CapsuleStore* cs = store_.find(msg->capsule);
  if (cs == nullptr) {
    drop_not_hosted_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "not_hosted");
    return;
  }
  const auto& tree = cs->state().tree();

  if (msg->kind == wire::SyncDescendMsg::kRequest) {
    // Expand each requested interior range into its children (leaf ranges
    // echo themselves — the peer will pull them).
    wire::SyncDescendMsg offer;
    offer.capsule = msg->capsule;
    offer.kind = wire::SyncDescendMsg::kOffer;
    offer.tip_seqno = cs->state().tip_seqno();
    for (const auto& req : msg->nodes) {
      if (!capsule::HashTree::is_aligned(req.first, req.last)) continue;
      if (capsule::HashTree::is_leaf_range(req.first, req.last)) {
        const auto n = tree.node(req.first, req.last);
        offer.nodes.push_back(
            {n.first, n.last, crypto::digest_to_name(n.hash)});
        continue;
      }
      for (const auto& n : tree.children(req.first, req.last)) {
        offer.nodes.push_back(
            {n.first, n.last, crypto::digest_to_name(n.hash)});
      }
    }
    if (offer.nodes.empty()) return;
    Bytes payload = offer.serialize();
    sync_summary_bytes_.inc(payload.size());
    send_pdu(pdu.src, wire::MsgType::kSyncDescend, std::move(payload));
    return;
  }

  // Offer: compare the peer's subtree hashes against ours.  Equal ranges
  // are done; differing leaf (or locally-empty) ranges become pulls;
  // differing interior ranges descend another level.
  const std::uint64_t peer_tip = msg->tip_seqno;
  wire::SyncDescendMsg request;
  request.capsule = msg->capsule;
  request.kind = wire::SyncDescendMsg::kRequest;
  request.tip_seqno = cs->state().tip_seqno();
  std::vector<wire::SyncRangeMsg::Range> fetch;
  for (const auto& offered : msg->nodes) {
    if (!capsule::HashTree::is_aligned(offered.first, offered.last)) continue;
    if (offered.first > peer_tip) continue;  // nothing on the peer's side
    const auto mine = tree.node(offered.first, offered.last);
    if (crypto::digest_to_name(mine.hash) == offered.hash) continue;
    const std::uint64_t clamped_last = std::min(offered.last, peer_tip);
    if (request.tip_seqno > peer_tip &&
        tree.range_full(offered.first, clamped_last)) {
      // The peer is simply behind: its subtree hash differs only because
      // its tip is shorter, and we hold every seqno it covers.  Pulling
      // here would re-download records we already have; the peer's own
      // reverse probe heals its side.
      continue;
    }
    if (capsule::HashTree::is_leaf_range(offered.first, offered.last) ||
        tree.range_empty(offered.first, offered.last)) {
      // Leaf-level divergence, or a subtree we have nothing of: pull the
      // whole range instead of descending record by record.
      fetch.push_back({offered.first, clamped_last});
    } else {
      request.nodes.push_back({offered.first, offered.last, Name{}});
    }
  }
  if (!request.nodes.empty()) {
    // Bound the expansion fan-out per message; anything beyond heals on a
    // later probe.
    constexpr std::size_t kMaxExpand = 128;
    if (request.nodes.size() > kMaxExpand) request.nodes.resize(kMaxExpand);
    Bytes payload = request.serialize();
    sync_summary_bytes_.inc(payload.size());
    send_pdu(pdu.src, wire::MsgType::kSyncDescend, std::move(payload));
  }
  if (!fetch.empty()) {
    SyncSession& s = sync_sessions_[msg->capsule];
    if (s.flow == 0) {
      s.peer = pdu.src;
      s.flow = next_sync_flow_++;
    }
    if (s.peer == pdu.src) {
      // Offers can repeat: while the first probe's offer is still in
      // flight, later anti-entropy rounds re-probe, and each answer names
      // the same divergent ranges.  Queueing them again would re-pull
      // every record after the first pass drains, so anything already
      // in flight or queued is dropped here.
      auto covered = [&s](const wire::SyncRangeMsg::Range& r) {
        for (const auto& have : s.requested) {
          if (r.first >= have.first && r.last <= have.last) return true;
        }
        for (const auto& have : s.queued) {
          if (r.first >= have.first && r.last <= have.last) return true;
        }
        return false;
      };
      for (const auto& r : fetch) {
        if (!covered(r)) s.queued.push_back(r);
      }
      if (!s.in_flight && !s.queued.empty()) flush_session(msg->capsule, s);
    }
  }
}

void CapsuleServer::flush_session(const Name& capsule, SyncSession& session) {
  std::sort(session.queued.begin(), session.queued.end(),
            [](const wire::SyncRangeMsg::Range& a,
               const wire::SyncRangeMsg::Range& b) { return a.first < b.first; });
  // Coalesce overlaps so the serving side never walks a seqno twice.
  session.requested.clear();
  for (const auto& r : session.queued) {
    if (!session.requested.empty() && r.first <= session.requested.back().last) {
      session.requested.back().last =
          std::max(session.requested.back().last, r.last);
    } else {
      session.requested.push_back(r);
    }
  }
  session.queued.clear();
  session.cursor = 0;
  session.in_flight = true;
  const store::CapsuleStore* cs = store_.find(capsule);
  wire::SyncRangeMsg pull;
  pull.capsule = capsule;
  pull.ranges = session.requested;
  if (cs != nullptr) pull.holes = cs->state().holes();
  pull.cursor = 0;
  sync_ranges_pulled_.inc(pull.ranges.size());
  Bytes payload = pull.serialize();
  sync_summary_bytes_.inc(payload.size());
  send_pdu(session.peer, wire::MsgType::kSyncRange, std::move(payload),
           session.flow);
}

void CapsuleServer::handle_sync_range(const wire::Pdu& pdu) {
  auto msg = wire::SyncRangeMsg::deserialize(pdu.payload);
  if (!msg.ok()) {
    drop_malformed_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "malformed_sync");
    return;
  }
  const store::CapsuleStore* cs = store_.find(msg->capsule);
  if (cs == nullptr) {
    drop_not_hosted_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "not_hosted");
    return;
  }
  const auto& state = cs->state();
  constexpr std::size_t kMaxBatch = 256;
  wire::SyncPushMsg push;
  push.capsule = msg->capsule;
  std::unordered_set<Name> included;
  // Serve the requested canonical ranges in order, resuming at the
  // cursor; when the batch cap trips, tell the puller where to resume.
  for (const auto& range : msg->ranges) {
    if (push.resume_cursor != 0) break;
    if (range.last < msg->cursor) continue;  // fully served earlier
    const std::uint64_t start = std::max(range.first, msg->cursor);
    for (std::uint64_t s = start; s <= range.last; ++s) {
      if (push.records.size() >= kMaxBatch) {
        push.resume_cursor = s;
        break;
      }
      auto rec = state.get_by_seqno(s);
      if (rec) {
        included.insert(rec->hash());
        push.records.push_back(rec->serialize());
      }
    }
  }
  // Hole fills ride along only once the ranges are fully served, deduped
  // against records the range scan already covered.
  if (push.resume_cursor == 0) {
    for (const Name& hole : msg->holes) {
      if (push.records.size() >= kMaxBatch) break;
      if (!included.insert(hole).second) continue;
      auto rec = state.get_by_hash(hole);
      if (rec) push.records.push_back(rec->serialize());
    }
  }
  if (push.records.empty() && push.resume_cursor == 0) return;
  sync_records_sent_.inc(push.records.size());
  send_pdu(pdu.src, wire::MsgType::kSyncPush, push.serialize(), pdu.flow_id);
}

void CapsuleServer::handle_read(const wire::Pdu& pdu) {
  auto msg = wire::ReadMsg::deserialize(pdu.payload);
  if (!msg.ok()) {
    drop_malformed_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "malformed_read");
    return;
  }

  auto fail = [&](Errc code, std::string why) {
    fail_read(pdu, *msg, code, std::move(why));
  };
  const store::CapsuleStore* cs = store_.find(msg->capsule);
  if (cs == nullptr) {
    fail(Errc::kNotFound, "capsule not hosted here");
    return;
  }
  const auto& state = cs->state();
  const std::uint64_t tip = state.tip_seqno();
  if (tip == 0) {
    fail(Errc::kOutOfRange, "capsule is empty");
    return;
  }
  std::uint64_t first = msg->first_seqno;
  std::uint64_t last = msg->last_seqno;
  if (first == 0 && last == 0) first = last = tip;  // "latest"
  if (last == 0 || last > tip) last = tip;
  if (first == 0) first = 1;
  if (first > last) {
    fail(Errc::kOutOfRange, "range beyond tip");
    return;
  }
  auto tip_record = state.get_by_seqno(tip);
  if (!tip_record) {
    fail(Errc::kInternal, "tip record unavailable");
    return;
  }
  Heartbeat hb = Heartbeat::from_record(*tip_record);
  auto proof = capsule::build_range_proof(state, hb, first, last);
  if (!proof.ok()) {
    fail(proof.error().code, proof.error().message);
    return;
  }
  wire::ReadResponseMsg resp;
  resp.capsule = msg->capsule;
  resp.nonce = msg->nonce;
  resp.ok = true;
  resp.proof = proof->serialize();
  resp.heartbeat = hb.serialize();
  if (cs->metadata().mode() == capsule::WriterMode::kMultiWriter) {
    // Off-canonical records (the losing sides of CAS races that still
    // landed here or on a peer) ride along so a reader's deterministic
    // merge sees every writer's data; each is client-verified standalone
    // through its own credential envelope.
    for (const Record& br : state.branch_records()) {
      resp.branch_records.push_back(br.serialize());
    }
  }
  reads_served_.inc();
  net_.metrics()
      .histogram("store." + msg->capsule.short_hex() + ".read.bytes")
      .record(resp.proof.size());
  respond(pdu.src, msg->session_pubkey, resp, pdu.flow_id);
}

void CapsuleServer::fail_read(const wire::Pdu& pdu, const wire::ReadMsg& msg,
                              Errc code, std::string why) {
  wire::ReadResponseMsg resp;
  resp.capsule = msg.capsule;
  resp.nonce = msg.nonce;
  resp.ok = false;
  resp.code = static_cast<std::uint16_t>(code);
  resp.error = std::string(errc_name(code)) + ": " + std::move(why);
  respond(pdu.src, msg.session_pubkey, resp, pdu.flow_id);
}

void CapsuleServer::handle_subscribe(const wire::Pdu& pdu) {
  auto msg = wire::SubscribeMsg::deserialize(pdu.payload);
  if (!msg.ok()) {
    drop_malformed_.inc();
    net_.trace().record(pdu.trace_id, self_.name(), "drop", "malformed_subscribe");
    return;
  }
  const store::CapsuleStore* cs = store_.find(msg->capsule);
  if (cs == nullptr) {
    send_status(pdu.src, false, Errc::kNotFound, "capsule not hosted here",
                msg->nonce);
    return;
  }
  auto cert = trust::Cert::deserialize(msg->sub_cert);
  if (!cert.ok()) {
    send_status(pdu.src, false, Errc::kInvalidArgument, "malformed SubCert",
                msg->nonce);
    return;
  }
  Status allowed = trust::verify_subscription(cs->metadata(), *cert,
                                              msg->subscriber, net_.sim().now());
  if (!allowed.ok()) {
    send_status(pdu.src, false, allowed.error().code, allowed.error().message,
                msg->nonce);
    return;
  }
  auto& subs = subscribers_[msg->capsule];
  if (std::find(subs.begin(), subs.end(), msg->subscriber) == subs.end()) {
    subs.push_back(msg->subscriber);
  }
  send_status(pdu.src, true, Errc::kOk, "", msg->nonce);
}

void CapsuleServer::publish_new_canonical(const Name& capsule,
                                          std::uint64_t from_seqno_excl) {
  auto subs_it = subscribers_.find(capsule);
  if (subs_it == subscribers_.end() || subs_it->second.empty()) return;
  const store::CapsuleStore* cs = store_.find(capsule);
  const auto& state = cs->state();
  const std::uint64_t tip = state.tip_seqno();
  if (tip <= from_seqno_excl) return;
  auto tip_record = state.get_by_seqno(tip);
  if (!tip_record) return;
  const Bytes hb = Heartbeat::from_record(*tip_record).serialize();
  for (std::uint64_t s = from_seqno_excl + 1; s <= tip; ++s) {
    auto rec = state.get_by_seqno(s);
    if (!rec) continue;
    wire::PublishMsg msg;
    msg.capsule = capsule;
    msg.record = *rec;
    msg.heartbeat = hb;
    for (const Name& sub : subs_it->second) {
      send_pdu(sub, wire::MsgType::kPublish, msg.serialize());
    }
  }
}

std::optional<crypto::SymmetricKey> CapsuleServer::session_key_for(
    const Name& client, BytesView session_pubkey) {
  if (!session_pubkey.empty()) {
    auto client_eph = crypto::PublicKey::decode(session_pubkey);
    if (!client_eph) return std::nullopt;
    crypto::SymmetricKey key = crypto::ecdh_shared_key(key_, *client_eph);
    sessions_[client] = key;
    return key;
  }
  auto it = sessions_.find(client);
  if (it == sessions_.end()) return std::nullopt;
  return it->second;
}

template <typename Msg>
void CapsuleServer::respond(const Name& client, BytesView session_pubkey, Msg& msg,
                            std::uint64_t flow_id) {
  const Bytes body = msg.signed_body();
  auto attach_evidence = [&] {
    msg.server_principal = self_.serialize();
    const store::CapsuleStore* cs = store_.find(msg.capsule);
    if (cs != nullptr) msg.delegation = cs->delegation().serialize();
  };
  auto session = session_key_for(client, session_pubkey);
  if (session.has_value()) {
    // Steady state: HMAC, "byte overhead roughly similar to TLS".  On the
    // very first contact the evidence chain still rides along once so the
    // client can anchor the session key in the capsule's delegations.
    auto tag = crypto::hmac_sha256(
        BytesView(session->data(), session->size()), body);
    msg.auth.kind = wire::ResponseAuth::Kind::kHmac;
    msg.auth.bytes.assign(tag.begin(), tag.end());
    if (introduced_.insert(client).second) attach_evidence();
  } else {
    // Sessionless mode: full signature + evidence chain on every response,
    // letting the client verify that a *designated* server responded (§V).
    msg.auth.kind = wire::ResponseAuth::Kind::kSignature;
    msg.auth.bytes = key_.sign(body).encode();
    attach_evidence();
  }
  send_pdu(client, Msg::kType, msg.serialize(), flow_id);
}

void CapsuleServer::send_append_ack(const PendingDurability& pending, bool ok,
                                    std::string error) {
  wire::AppendAckMsg ack;
  ack.capsule = pending.capsule;
  ack.record_hash = pending.record_hash;
  ack.seqno = pending.seqno;
  ack.acks = pending.acks;
  ack.ok = ok;
  ack.error = std::move(error);
  ack.nonce = pending.client_nonce;
  respond(pending.writer, pending.session_pubkey, ack, /*flow_id=*/0);
}

void CapsuleServer::send_status(const Name& to, bool ok, Errc code,
                                std::string message, std::uint64_t nonce) {
  wire::StatusMsg msg;
  msg.ok = ok;
  msg.code = static_cast<std::uint16_t>(code);
  msg.message = std::move(message);
  msg.nonce = nonce;
  send_pdu(to, wire::MsgType::kStatus, msg.serialize());
}

std::vector<Name> CapsuleServer::equivocating_capsules() const {
  std::vector<Name> out;
  for (const Name& name : store_.hosted()) {
    const store::CapsuleStore* cs = store_.find(name);
    if (cs->metadata().mode() == capsule::WriterMode::kStrictSingleWriter &&
        cs->state().has_branch()) {
      // Both branch records carry valid writer signatures over conflicting
      // histories — cryptographic, third-party-verifiable evidence.
      out.push_back(name);
    }
  }
  return out;
}

std::size_t CapsuleServer::subscriber_count(const Name& capsule) const {
  auto it = subscribers_.find(capsule);
  return it == subscribers_.end() ? 0 : it->second.size();
}

}  // namespace gdp::server
