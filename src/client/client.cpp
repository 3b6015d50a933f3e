#include "client/client.hpp"

#include <type_traits>

#include "common/log.hpp"
#include "crypto/hmac.hpp"

namespace gdp::client {

using capsule::Heartbeat;
using capsule::RangeProof;
using capsule::Record;

GdpClient::GdpClient(net::Network& net, const crypto::PrivateKey& key,
                     std::string label, Options options)
    : Endpoint(net, key, trust::Role::kClient, std::move(label)),
      options_(options),
      session_key_(crypto::PrivateKey::generate(net.sim().rng())),
      read_retry_budget_(options.retry_budget),
      ops_started_(net_.metrics().counter(
          "client." + std::string(self_.label()) + ".ops.started")),
      ops_timed_out_(net_.metrics().counter(
          "client." + std::string(self_.label()) + ".ops.timed_out")),
      read_retries_(net_.metrics().counter(
          "client." + std::string(self_.label()) + ".read.retries")),
      read_retries_denied_(net_.metrics().counter(
          "client." + std::string(self_.label()) + ".read.retries_denied")),
      op_latency_ns_(net_.metrics().histogram(
          "client." + std::string(self_.label()) + ".op.latency_ns")) {
  credential_checker_ = [this](const crypto::PublicKey& issuer, BytesView payload,
                               const crypto::Signature& sig,
                               std::int64_t expires_ns, std::int64_t now_ns) {
    return trust::cached_verify(&credential_cache_, issuer, payload, sig,
                                expires_ns, TimePoint(now_ns));
  };
}

namespace {

/// The reply as the type the op expects, or why it cannot be used.
template <typename Msg>
Result<const Msg*> expect(const Result<ServerReply>& reply) {
  if (!reply.ok()) return reply.error();
  if (const Msg* msg = std::get_if<Msg>(&*reply)) return msg;
  return make_error(Errc::kVerificationFailed, "unexpected response type");
}

/// Create and subscribe replies: a plain status.
Status status_of(const Result<ServerReply>& reply) {
  GDP_ASSIGN_OR_RETURN(const wire::StatusMsg* status, expect<wire::StatusMsg>(reply));
  if (!status->ok) {
    return make_error(static_cast<Errc>(status->code), status->message);
  }
  return ok_status();
}

/// The ack checks shared by append and the compare-and-append win path.
Result<const wire::AppendAckMsg*> checked_ack(const Result<ServerReply>& reply,
                                              const Name& expected_hash,
                                              const std::string& what) {
  GDP_ASSIGN_OR_RETURN(const wire::AppendAckMsg* ack,
                       expect<wire::AppendAckMsg>(reply));
  if (ack->record_hash != expected_hash) {
    return make_error(Errc::kVerificationFailed, "ack attests a different record");
  }
  if (!ack->ok) {
    return make_error(Errc::kUnavailable, what + " rejected: " + ack->error);
  }
  return ack;
}

}  // namespace

Bytes GdpClient::session_pubkey_for_request() const {
  if (!options_.use_sessions) return {};
  return session_key_.public_key().encode();
}

template <typename Req, typename T>
void GdpClient::request(const Name& dst, wire::MsgType type, Req msg,
                        std::shared_ptr<const capsule::Metadata> authority,
                        const OpPtr<T>& op, std::string what, ReplyHandler on_reply,
                        std::function<bool()> retry) {
  const std::uint64_t nonce = next_nonce_++;
  msg.nonce = nonce;
  if constexpr (requires { msg.session_pubkey; }) {
    msg.session_pubkey = session_pubkey_for_request();
  }
  ops_started_.inc();
  auto timer = net_.sim().schedule_cancellable(
      options_.op_timeout,
      [this, nonce, op, what = std::move(what), retry = std::move(retry)] {
        auto it = pending_.find(nonce);
        if (it == pending_.end()) return;
        pending_.erase(it);
        ops_timed_out_.inc();
        if (retry && retry()) return;
        op->timed_out = true;
        op->resolve(make_error(Errc::kUnavailable, what + " timed out"));
      });
  pending_[nonce] = PendingRequest{std::move(authority), std::move(on_reply),
                                   std::move(timer), net_.sim().now()};
  send_pdu(dst, type, msg.serialize());
}

// ---- Response authentication --------------------------------------------------

Status GdpClient::verify_response_auth(const Name& responding_server,
                                       BytesView body,
                                       const wire::SecureResponse& trailer,
                                       const capsule::Metadata* metadata) {
  // Evidence handling: a principal (and, when hosted, the delegation
  // chain) rides along on first contact or in sessionless mode.
  if (!trailer.server_principal.empty()) {
    GDP_ASSIGN_OR_RETURN(trust::Principal principal,
                         trust::Principal::deserialize(trailer.server_principal));
    if (principal.name() != responding_server) {
      return make_error(Errc::kVerificationFailed,
                        "response evidence names a different server");
    }
    if (!trailer.delegation.empty() && metadata != nullptr) {
      GDP_ASSIGN_OR_RETURN(trust::ServingDelegation delegation,
                           trust::ServingDelegation::deserialize(trailer.delegation));
      GDP_RETURN_IF_ERROR(trust::verify_serving_delegation(
          *metadata, principal, delegation, net_.sim().now()));
      known_servers_.insert_or_assign(principal.name(), principal);
    } else if (metadata != nullptr) {
      return make_error(Errc::kPermissionDenied,
                        "server presented no delegation for this capsule");
    }
  }

  switch (trailer.auth.kind) {
    case wire::ResponseAuth::Kind::kSignature: {
      auto it = known_servers_.find(responding_server);
      if (it == known_servers_.end()) {
        return make_error(Errc::kVerificationFailed,
                          "signed response from an unverified server");
      }
      auto sig = crypto::Signature::decode(trailer.auth.bytes);
      if (!sig || !it->second.key().verify(body, *sig)) {
        return make_error(Errc::kVerificationFailed, "response signature invalid");
      }
      return ok_status();
    }
    case wire::ResponseAuth::Kind::kHmac: {
      auto key_it = session_keys_.find(responding_server);
      if (key_it == session_keys_.end()) {
        auto srv = known_servers_.find(responding_server);
        if (srv == known_servers_.end()) {
          return make_error(Errc::kVerificationFailed,
                            "HMAC response from an unknown server");
        }
        key_it = session_keys_
                     .emplace(responding_server,
                              crypto::ecdh_shared_key(session_key_, srv->second.key()))
                     .first;
      }
      if (!crypto::hmac_verify(
              BytesView(key_it->second.data(), key_it->second.size()), body,
              trailer.auth.bytes)) {
        return make_error(Errc::kVerificationFailed, "response HMAC invalid");
      }
      return ok_status();
    }
    case wire::ResponseAuth::Kind::kNone:
      break;
  }
  return make_error(Errc::kVerificationFailed, "response carries no authenticator");
}

// ---- Operations -----------------------------------------------------------------

OpPtr<bool> GdpClient::create_capsule(const Name& server,
                                      const capsule::Metadata& metadata,
                                      const trust::ServingDelegation& delegation,
                                      std::vector<Name> replica_peers) {
  auto op = std::make_shared<Op<bool>>();
  wire::CreateCapsuleMsg msg;
  msg.metadata = metadata.serialize();
  msg.delegation = delegation.serialize();
  msg.replica_peers = std::move(replica_peers);
  request(server, wire::MsgType::kCreateCapsule, std::move(msg), nullptr, op,
          "create_capsule", [op](Result<ServerReply> reply, const wire::Pdu&) {
            Status status = status_of(reply);
            if (!status.ok()) {
              op->resolve(status.error());
              return;
            }
            op->resolve(true);
          });
  return op;
}

OpPtr<AppendOutcome> GdpClient::append(capsule::Writer& writer, BytesView payload,
                                       std::uint32_t required_acks) {
  Record record = writer.append(payload, net_.sim().now().count());
  return append_record(writer.metadata(), record, required_acks);
}

OpPtr<AppendOutcome> GdpClient::append_record(const capsule::Metadata& metadata,
                                              const capsule::Record& record,
                                              std::uint32_t required_acks) {
  auto op = std::make_shared<Op<AppendOutcome>>();
  wire::AppendMsg msg;
  msg.capsule = metadata.name();
  msg.record = record;
  msg.required_acks = required_acks;
  request(metadata.name(), wire::MsgType::kAppend, std::move(msg),
          std::make_shared<const capsule::Metadata>(metadata), op, "append",
          [op, expected_hash = record.hash()](Result<ServerReply> reply,
                                              const wire::Pdu& pdu) {
            auto ack = checked_ack(reply, expected_hash, "append");
            if (!ack.ok()) {
              op->resolve(ack.error());
              return;
            }
            AppendOutcome out;
            out.seqno = (*ack)->seqno;
            out.record_hash = (*ack)->record_hash;
            out.acks = (*ack)->acks;
            out.via_hmac = (*ack)->auth.kind == wire::ResponseAuth::Kind::kHmac;
            out.ack_bytes = pdu.payload.size();
            op->resolve(out);
          });
  return op;
}

OpPtr<CasOutcome> GdpClient::cond_append(const capsule::Metadata& metadata,
                                         const capsule::Record& record,
                                         std::uint64_t expected_tip_seqno,
                                         const Name& expected_tip_hash,
                                         std::uint32_t required_acks,
                                         std::uint64_t lease_id) {
  auto op = std::make_shared<Op<CasOutcome>>();
  wire::CondAppendMsg msg;
  msg.capsule = metadata.name();
  msg.record = record;
  msg.expected_tip_seqno = expected_tip_seqno;
  msg.expected_tip_hash = expected_tip_hash;
  msg.required_acks = required_acks;
  msg.lease_id = lease_id;
  request(metadata.name(), wire::MsgType::kCondAppend, std::move(msg),
          std::make_shared<const capsule::Metadata>(metadata), op, "cond_append",
          [op, expected_hash = record.hash()](Result<ServerReply> reply,
                                              const wire::Pdu&) {
            CasOutcome out;
            const auto* nack =
                reply.ok() ? std::get_if<wire::CasNackMsg>(&*reply) : nullptr;
            if (nack != nullptr) {
              out.won = false;
              out.code = static_cast<Errc>(nack->code);
              out.tip_seqno = nack->tip_seqno;
              out.tip_hash = nack->tip_hash;
              out.lease_holder = nack->lease_holder;
              out.lease_expires_ns = nack->lease_expires_ns;
              op->resolve(out);
              return;
            }
            // The win path acks exactly like a plain append.
            auto ack = checked_ack(reply, expected_hash, "cond_append");
            if (!ack.ok()) {
              op->resolve(ack.error());
              return;
            }
            out.won = true;
            out.seqno = (*ack)->seqno;
            out.record_hash = (*ack)->record_hash;
            out.acks = (*ack)->acks;
            op->resolve(out);
          });
  return op;
}

OpPtr<LeaseOutcome> GdpClient::lease_request(const capsule::Metadata& metadata,
                                             std::uint8_t lease_op,
                                             std::uint64_t lease_id,
                                             Duration duration) {
  auto op = std::make_shared<Op<LeaseOutcome>>();
  wire::LeaseRequestMsg msg;
  msg.capsule = metadata.name();
  msg.op = lease_op;
  msg.holder = name();
  msg.lease_id = lease_id;
  msg.duration_ns = duration.count();
  request(metadata.name(), wire::MsgType::kLeaseRequest, std::move(msg),
          std::make_shared<const capsule::Metadata>(metadata), op, "lease_request",
          [op](Result<ServerReply> reply, const wire::Pdu&) {
            auto grant = expect<wire::LeaseGrantMsg>(reply);
            if (!grant.ok()) {
              op->resolve(grant.error());
              return;
            }
            LeaseOutcome out;
            out.granted = (*grant)->ok;
            out.code = static_cast<Errc>((*grant)->code);
            out.lease_id = (*grant)->lease_id;
            out.holder = (*grant)->holder;
            out.expires_ns = (*grant)->expires_ns;
            out.tip_seqno = (*grant)->tip_seqno;
            out.tip_hash = (*grant)->tip_hash;
            op->resolve(out);
          });
  return op;
}

OpPtr<LeaseOutcome> GdpClient::lease_acquire(const capsule::Metadata& metadata,
                                             Duration duration) {
  return lease_request(metadata, wire::LeaseRequestMsg::kAcquire, 0, duration);
}

OpPtr<LeaseOutcome> GdpClient::lease_renew(const capsule::Metadata& metadata,
                                           std::uint64_t lease_id,
                                           Duration duration) {
  return lease_request(metadata, wire::LeaseRequestMsg::kRenew, lease_id, duration);
}

OpPtr<LeaseOutcome> GdpClient::lease_release(const capsule::Metadata& metadata,
                                             std::uint64_t lease_id) {
  return lease_request(metadata, wire::LeaseRequestMsg::kRelease, lease_id,
                       Duration::zero());
}

Result<ReadOutcome> GdpClient::read_outcome(const Result<ServerReply>& reply,
                                            const wire::Pdu& pdu,
                                            const capsule::Metadata& metadata,
                                            std::uint64_t first,
                                            std::uint64_t last) {
  GDP_ASSIGN_OR_RETURN(const wire::ReadResponseMsg* resp,
                       expect<wire::ReadResponseMsg>(reply));
  if (!resp->ok) {
    // The code rides inside the signed body, so an on-path attacker cannot
    // rewrite a permanent failure into a retryable shed (or vice versa).
    if (static_cast<Errc>(resp->code) == Errc::kUnavailable) {
      return make_error(Errc::kUnavailable, "read failed: " + resp->error);
    }
    return make_error(Errc::kNotFound, "read failed: " + resp->error);
  }
  GDP_ASSIGN_OR_RETURN(Heartbeat hb, Heartbeat::deserialize(resp->heartbeat));
  GDP_ASSIGN_OR_RETURN(RangeProof proof, RangeProof::deserialize(resp->proof));
  if (proof.records.empty()) {
    return make_error(Errc::kVerificationFailed, "empty proof");
  }
  const std::uint64_t got_first = proof.records.front().header.seqno;
  const std::uint64_t got_last = proof.records.back().header.seqno;
  // The server may clamp an open-ended range to its tip, but must honor an
  // explicit start and never exceed the requested end.
  if (first != 0 && got_first != first) {
    return make_error(Errc::kVerificationFailed, "range start mismatch");
  }
  if (last != 0 && got_last > last) {
    return make_error(Errc::kVerificationFailed, "range end exceeds request");
  }
  GDP_RETURN_IF_ERROR(capsule::verify_range_proof(metadata, hb, proof, got_first,
                                                  got_last, credential_checker_));
  ReadOutcome out;
  out.records = std::move(proof.records);
  out.heartbeat = hb;
  out.link_path = std::move(proof.link_path);
  if (metadata.mode() == capsule::WriterMode::kMultiWriter) {
    // Off-canonical records each verify standalone through the credential
    // envelope in their own payload — an adversarial server can withhold
    // branches (liveness) but cannot inject fabricated ones (integrity).
    out.branch_records.reserve(resp->branch_records.size());
    for (const Bytes& raw : resp->branch_records) {
      GDP_ASSIGN_OR_RETURN(capsule::Record rec, capsule::Record::deserialize(raw));
      if (rec.header.capsule_name != metadata.name()) {
        return make_error(Errc::kVerificationFailed,
                          "branch record from another capsule");
      }
      GDP_ASSIGN_OR_RETURN(
          crypto::PublicKey writer,
          capsule::record_writer_key(metadata, rec, credential_checker_));
      GDP_RETURN_IF_ERROR(rec.verify_standalone(writer));
      out.branch_records.push_back(std::move(rec));
    }
  }
  out.via_hmac = resp->auth.kind == wire::ResponseAuth::Kind::kHmac;
  out.response_bytes = pdu.payload.size();
  return out;
}

OpPtr<ReadOutcome> GdpClient::read(const capsule::Metadata& metadata,
                                   std::uint64_t first_seqno,
                                   std::uint64_t last_seqno) {
  auto op = std::make_shared<Op<ReadOutcome>>();
  // Each fresh read earns a fraction of a retry token; only retries spend.
  if (options_.retry_reads) read_retry_budget_.on_request();
  start_read(op, std::make_shared<const capsule::Metadata>(metadata), first_seqno,
             last_seqno, /*attempt=*/1);
  return op;
}

bool GdpClient::maybe_retry_read(
    const OpPtr<ReadOutcome>& op,
    const std::shared_ptr<const capsule::Metadata>& metadata, std::uint64_t first,
    std::uint64_t last, std::uint32_t attempt) {
  if (!options_.retry_reads || attempt >= options_.max_read_attempts) {
    return false;
  }
  if (!read_retry_budget_.try_retry()) {
    read_retries_denied_.inc();
    return false;
  }
  read_retries_.inc();
  start_read(op, metadata, first, last, attempt + 1);
  return true;
}

void GdpClient::start_read(const OpPtr<ReadOutcome>& op,
                           std::shared_ptr<const capsule::Metadata> metadata,
                           std::uint64_t first, std::uint64_t last,
                           std::uint32_t attempt) {
  wire::ReadMsg msg;
  msg.capsule = metadata->name();
  msg.first_seqno = first;
  msg.last_seqno = last;
  request(
      metadata->name(), wire::MsgType::kRead, std::move(msg), metadata, op, "read",
      [this, op, metadata, first, last, attempt](Result<ServerReply> reply,
                                                 const wire::Pdu& pdu) {
        auto outcome = read_outcome(reply, pdu, *metadata, first, last);
        // A shed fail-fast (kUnavailable in the signed body) is the one
        // response worth retrying: the route lease may have rotated the
        // name onto a healthier replica by now.
        if (!outcome.ok() && outcome.code() == Errc::kUnavailable &&
            maybe_retry_read(op, metadata, first, last, attempt)) {
          return;
        }
        op->resolve(std::move(outcome));
      },
      [this, op, metadata, first, last, attempt] {
        return maybe_retry_read(op, metadata, first, last, attempt);
      });
}

OpPtr<ReadOutcome> GdpClient::read_latest_strict(
    const capsule::Metadata& metadata, const std::vector<Name>& replica_servers) {
  auto op = std::make_shared<Op<ReadOutcome>>();
  if (replica_servers.empty()) {
    op->resolve(make_error(Errc::kInvalidArgument, "no replicas named"));
    return op;
  }
  struct Gather {
    std::size_t awaiting;
    std::optional<ReadOutcome> best;
    bool failed = false;
  };
  auto gather = std::make_shared<Gather>();
  gather->awaiting = replica_servers.size();
  auto meta = std::make_shared<const capsule::Metadata>(metadata);

  for (const Name& server : replica_servers) {
    wire::ReadMsg msg;
    msg.capsule = metadata.name();
    request(server, wire::MsgType::kRead, std::move(msg), meta, op,
            "read_latest_strict",
            [this, op, gather, meta](Result<ServerReply> reply,
                                     const wire::Pdu& pdu) {
              auto outcome = read_outcome(reply, pdu, *meta, 0, 0);
              if (!outcome.ok()) {
                gather->failed = true;
              } else if (!gather->best ||
                         outcome->heartbeat.seqno > gather->best->heartbeat.seqno) {
                gather->best = std::move(*outcome);
              }
              if (--gather->awaiting == 0) {
                // Strict consistency semantics: all replicas must answer (and
                // verifiably) or the reader blocks/fails (§VI-C).
                if (gather->failed || !gather->best) {
                  op->resolve(make_error(Errc::kUnavailable,
                                         "strict read requires every replica"));
                } else {
                  op->resolve(std::move(*gather->best));
                }
              }
            });
  }
  return op;
}

OpPtr<bool> GdpClient::subscribe(const capsule::Metadata& metadata,
                                 const trust::Cert& sub_cert,
                                 SubscriptionCallback callback) {
  auto op = std::make_shared<Op<bool>>();
  wire::SubscribeMsg msg;
  msg.capsule = metadata.name();
  msg.subscriber = name();
  msg.sub_cert = sub_cert.serialize();

  subscriptions_.insert_or_assign(
      metadata.name(), Subscription{metadata, std::move(callback), {}});

  const Name capsule_name = metadata.name();
  request(
      capsule_name, wire::MsgType::kSubscribe, std::move(msg), nullptr, op,
      "subscribe",
      [this, op, capsule_name](Result<ServerReply> reply, const wire::Pdu&) {
        Status status = status_of(reply);
        if (!status.ok()) {
          subscriptions_.erase(capsule_name);
          op->resolve(status.error());
          return;
        }
        op->resolve(true);
      },
      [this, capsule_name] {
        subscriptions_.erase(capsule_name);
        return false;
      });
  return op;
}

// ---- Event dispatch ---------------------------------------------------------------

template <typename Msg>
void GdpClient::deliver(const wire::Pdu& pdu) {
  auto msg = Msg::deserialize(pdu.payload);
  if (!msg.ok()) return;  // malformed: the op's guard timer resolves it
  auto it = pending_.find(msg->nonce);
  if (it == pending_.end()) return;  // duplicate / replayed
  PendingRequest pending = std::move(it->second);
  pending_.erase(it);
  pending.timeout.cancel();
  op_latency_ns_.record(
      static_cast<std::uint64_t>((net_.sim().now() - pending.started).count()));
  if constexpr (std::is_base_of_v<wire::SecureResponse, Msg>) {
    Status auth = verify_response_auth(pdu.src, msg->signed_body(), *msg,
                                       pending.authority.get());
    if (!auth.ok()) {
      pending.on_reply(auth.error(), pdu);
      return;
    }
  }
  pending.on_reply(ServerReply(std::move(msg).value()), pdu);
}

void GdpClient::handle_pdu(const Name& from, const wire::Pdu& pdu) {
  switch (pdu.type) {
    case wire::MsgType::kStatus: return deliver<wire::StatusMsg>(pdu);
    case wire::MsgType::kAppendAck: return deliver<wire::AppendAckMsg>(pdu);
    case wire::MsgType::kReadResponse: return deliver<wire::ReadResponseMsg>(pdu);
    case wire::MsgType::kCasNack: return deliver<wire::CasNackMsg>(pdu);
    case wire::MsgType::kLeaseGrant: return deliver<wire::LeaseGrantMsg>(pdu);
    case wire::MsgType::kPublish: {
      auto msg = wire::PublishMsg::deserialize(pdu.payload);
      if (!msg.ok()) return;
      auto sub = subscriptions_.find(msg->capsule);
      if (sub == subscriptions_.end()) return;
      Subscription& s = sub->second;
      const Name hash = msg->record.hash();
      if (s.seen.contains(hash)) return;  // replay / duplicate push
      // End-to-end validation: the event must carry the writer's own
      // signature and belong to this capsule — an adversarial server or
      // in-path attacker cannot inject fabricated events.
      if (msg->record.header.capsule_name != msg->capsule ||
          !msg->record.verify_standalone(s.metadata.writer_key()).ok()) {
        GDP_LOG(kWarn, "client") << "dropping forged publish event";
        return;
      }
      auto hb = Heartbeat::deserialize(msg->heartbeat);
      if (!hb.ok() || !hb->verify(s.metadata.writer_key()).ok()) {
        GDP_LOG(kWarn, "client") << "dropping publish with bad heartbeat";
        return;
      }
      s.seen.insert(hash);
      s.callback(msg->record, *hb);
      return;
    }
    default:
      if (app_handler_ && app_handler_(from, pdu)) return;
      GDP_LOG(kWarn, "client") << "unhandled PDU type " << static_cast<int>(pdu.type);
  }
}

}  // namespace gdp::client
