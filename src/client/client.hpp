// GDP client library (§VIII "Client applications primarily link against an
// event-driven library").
//
// The client owns the paper's end-to-end security obligations: it
// addresses conversations to capsule *names* (anycast picks a replica),
// verifies every response — signature + delegation-chain evidence on first
// contact, session HMAC at steady state — and validates all returned data
// against the capsule name as trust anchor.  "Clients use digital
// signatures and encryption as the fundamental tools to enable trust in
// data [rather] than in infrastructure."
//
// Operations are asynchronous (the library is event-driven); each returns
// an Op handle resolved from the network event loop.  await() drives the
// simulator until resolution — the idiom every example and benchmark uses.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "capsule/proof.hpp"
#include "capsule/writer.hpp"
#include "loadmgmt/retry_budget.hpp"
#include "router/endpoint.hpp"
#include "trust/delegation.hpp"
#include "trust/verify_cache.hpp"
#include "wire/messages.hpp"

namespace gdp::client {

template <typename T>
struct Op {
  bool done = false;
  /// Set when the op was resolved by its guard timeout firing (as opposed
  /// to a response, an error, or never resolving at all).  Lets await()
  /// report *which* condition ended the wait without widening Errc.
  bool timed_out = false;
  std::optional<Result<T>> outcome;
  /// Optional completion hook, fired exactly once at resolution.  Load
  /// benchmarks use it to record per-op latency without await()ing each
  /// op individually.
  std::function<void(const Result<T>&)> on_resolved;

  void resolve(Result<T> r) {
    if (done) return;
    done = true;
    outcome.emplace(std::move(r));
    if (on_resolved) on_resolved(*outcome);
  }
};
template <typename T>
using OpPtr = std::shared_ptr<Op<T>>;

/// How an await() ended.  The Errc of the outcome stays kUnavailable for
/// both failure shapes (existing callers key on that); the condition is
/// the refinement — the C API maps kOpTimeout to GDP_ERR_TIMEOUT.
enum class AwaitCondition {
  kResolved,     ///< op resolved with a response or error before any guard
  kOpTimeout,    ///< the client's per-op guard timer resolved the op
  kNetworkIdle,  ///< simulator queue drained with the op still pending
};

/// Runs the simulator until the op resolves (or the queue drains).  When
/// `condition` is non-null it reports which terminal condition fired.
template <typename T>
Result<T> await(net::Simulator& sim, const OpPtr<T>& op,
                AwaitCondition* condition = nullptr) {
  while (!op->done && !sim.idle()) sim.run_until(sim.now() + from_millis(10));
  if (!op->done) {
    if (condition != nullptr) *condition = AwaitCondition::kNetworkIdle;
    return make_error(Errc::kUnavailable,
                      "operation never resolved: network went idle with the "
                      "request still pending (no timeout fired)");
  }
  if (condition != nullptr) {
    *condition = op->timed_out ? AwaitCondition::kOpTimeout
                               : AwaitCondition::kResolved;
  }
  return std::move(*op->outcome);
}

struct AppendOutcome {
  std::uint64_t seqno = 0;
  Name record_hash;
  std::uint32_t acks = 0;
  bool via_hmac = false;       ///< steady-state session authentication?
  std::size_t ack_bytes = 0;   ///< serialized ack size (overhead ablation)
};

struct ReadOutcome {
  std::vector<capsule::Record> records;  ///< verified, ascending seqnos
  capsule::Heartbeat heartbeat;          ///< verified writer attestation
  /// Header path connecting the heartbeat to records.back() — a ready
  /// MembershipProof of the newest record (used e.g. for timeline
  /// entanglement verification across capsules).
  std::vector<capsule::RecordHeader> link_path;
  /// Multi-writer capsules only: verified off-canonical records (the
  /// losing sides of append races).  Each was checked standalone against
  /// the credential in its own payload envelope; readers merge them with
  /// the canonical range for a deterministic full-tree replay.
  std::vector<capsule::Record> branch_records;
  bool via_hmac = false;
  std::size_t response_bytes = 0;

  capsule::MembershipProof newest_membership() const {
    return capsule::MembershipProof{link_path};
  }
};

/// Result of a compare-and-append.  A lost race is NOT an error — the op
/// resolves ok with won == false and the server's current tip, so the
/// caller can rebase and retry under its budget.
struct CasOutcome {
  bool won = false;
  // Win side (mirrors AppendOutcome).
  std::uint64_t seqno = 0;
  Name record_hash;
  std::uint32_t acks = 0;
  // Loss side: why (kConflict or kLeaseHeld) and where the tip is now.
  Errc code = Errc::kOk;
  std::uint64_t tip_seqno = 0;
  Name tip_hash;
  Name lease_holder;  ///< zero when no lease was involved
  std::int64_t lease_expires_ns = 0;
};

/// Result of a lease acquire/renew/release.  Denials resolve ok with
/// granted == false (leases are advisory; losing one is normal).
struct LeaseOutcome {
  bool granted = false;
  Errc code = Errc::kOk;  ///< kLeaseHeld etc. when denied
  std::uint64_t lease_id = 0;
  Name holder;  ///< current holder (the winner, on denial)
  std::int64_t expires_ns = 0;
  std::uint64_t tip_seqno = 0;  ///< replica tip at decision time
  Name tip_hash;
};

/// A decoded server reply to one of the client's requests.
using ServerReply = std::variant<wire::StatusMsg, wire::AppendAckMsg,
                                 wire::ReadResponseMsg, wire::CasNackMsg,
                                 wire::LeaseGrantMsg>;

class GdpClient : public router::Endpoint {
 public:
  struct Options {
    Duration op_timeout = from_seconds(30);
    bool use_sessions = true;  ///< establish HMAC sessions after first contact
    /// Budgeted read retries (off by default: reads fail fast on their
    /// first timeout or shed, exactly as before).  When on, a read that
    /// times out or is shed by an overloaded replica (kUnavailable
    /// fail-fast) is re-sent under a fresh nonce — route leases mean the
    /// retry may land on a different replica — as long as the token-bucket
    /// budget grants it and `max_read_attempts` is not exhausted.
    bool retry_reads = false;
    std::uint32_t max_read_attempts = 3;
    loadmgmt::RetryBudgetConfig retry_budget;
  };

  GdpClient(net::Network& net, const crypto::PrivateKey& key, std::string label,
            Options options);
  GdpClient(net::Network& net, const crypto::PrivateKey& key, std::string label)
      : GdpClient(net, key, std::move(label), Options{}) {}

  /// Places a capsule on a specific server (owner-side placement),
  /// shipping metadata + AdCert-backed delegation + the replica peer set.
  OpPtr<bool> create_capsule(const Name& server, const capsule::Metadata& metadata,
                             const trust::ServingDelegation& delegation,
                             std::vector<Name> replica_peers);

  /// Appends through a locally held Writer; the record is routed to the
  /// capsule name (closest replica).  required_acks selects the §VI-B
  /// durability mode.
  OpPtr<AppendOutcome> append(capsule::Writer& writer, BytesView payload,
                              std::uint32_t required_acks = 1);

  /// Sends a pre-built record (used when replaying / retrying).
  OpPtr<AppendOutcome> append_record(const capsule::Metadata& metadata,
                                     const capsule::Record& record,
                                     std::uint32_t required_acks = 1);

  /// SCL optimistic compare-and-append: the append lands only if the
  /// replica's canonical tip still is (expected_tip_seqno,
  /// expected_tip_hash); a lost race resolves with won == false and the
  /// current tip to rebase onto.  `lease_id` presents a held tip lease
  /// (0 = none).
  OpPtr<CasOutcome> cond_append(const capsule::Metadata& metadata,
                                const capsule::Record& record,
                                std::uint64_t expected_tip_seqno,
                                const Name& expected_tip_hash,
                                std::uint32_t required_acks = 1,
                                std::uint64_t lease_id = 0);

  /// SCL capsule-tip lease control; `op` is a LeaseRequestMsg op code.
  /// The grant carries the replica's current tip, so acquiring doubles as
  /// a tip fetch.
  OpPtr<LeaseOutcome> lease_request(const capsule::Metadata& metadata,
                                    std::uint8_t op, std::uint64_t lease_id,
                                    Duration duration);
  OpPtr<LeaseOutcome> lease_acquire(const capsule::Metadata& metadata,
                                    Duration duration);
  OpPtr<LeaseOutcome> lease_renew(const capsule::Metadata& metadata,
                                  std::uint64_t lease_id, Duration duration);
  OpPtr<LeaseOutcome> lease_release(const capsule::Metadata& metadata,
                                    std::uint64_t lease_id);

  /// Verified range read [first, last] (0,0 = latest) from the closest
  /// replica.
  OpPtr<ReadOutcome> read(const capsule::Metadata& metadata,
                          std::uint64_t first_seqno, std::uint64_t last_seqno);
  OpPtr<ReadOutcome> read_latest(const capsule::Metadata& metadata) {
    return read(metadata, 0, 0);
  }

  /// Strict-consistency read (§VI-C): queries every named replica server
  /// directly and returns the freshest verified state; fails if any
  /// replica is unreachable.
  OpPtr<ReadOutcome> read_latest_strict(const capsule::Metadata& metadata,
                                        const std::vector<Name>& replica_servers);

  using SubscriptionCallback =
      std::function<void(const capsule::Record&, const capsule::Heartbeat&)>;

  /// Subscribes to future records (event-driven programming model).  The
  /// SubCert proves this client may join the feed.
  OpPtr<bool> subscribe(const capsule::Metadata& metadata, const trust::Cert& sub_cert,
                        SubscriptionCallback callback);

  /// Server principals whose identity we verified via delegation evidence.
  bool knows_server(const Name& server) const { return known_servers_.contains(server); }

  /// Hook for CAAPI services built on top of the client (e.g. the
  /// multi-writer commit service): receives PDU types the client itself
  /// does not consume.  Return true when handled.
  using AppHandler = std::function<bool(const Name& from, const wire::Pdu& pdu)>;
  void set_app_handler(AppHandler handler) { app_handler_ = std::move(handler); }

  /// Raw PDU injection for services replying to app-level messages.
  void send_app_pdu(const Name& dst, wire::MsgType type, Bytes payload,
                    std::uint64_t flow_id = 0) {
    send_pdu(dst, type, std::move(payload), flow_id);
  }

  /// Read-retry token bucket (tests inspect grant/denial accounting).
  const loadmgmt::RetryBudget& read_retry_budget() const {
    return read_retry_budget_;
  }

  /// Memoizing multi-writer credential checker bound to this client's
  /// verify cache; CAAPI layers replaying MW capsules share it so each
  /// writer credential costs one ECDSA verify per client, not per record.
  const capsule::SigChecker& credential_checker() const {
    return credential_checker_;
  }

 protected:
  void handle_pdu(const Name& from, const wire::Pdu& pdu) override;

 private:
  struct Subscription {
    capsule::Metadata metadata;
    SubscriptionCallback callback;
    std::unordered_set<Name> seen;
  };

  /// Op continuation: the reply (already §V-verified) or why it was
  /// rejected, plus the PDU it arrived in.
  using ReplyHandler = std::function<void(Result<ServerReply>, const wire::Pdu&)>;

  struct PendingRequest {
    /// Capsule whose delegations authenticate the reply; null for kStatus
    /// replies (create/subscribe), which carry no authenticator.
    std::shared_ptr<const capsule::Metadata> authority;
    ReplyHandler on_reply;
    net::Simulator::TimerHandle timeout;
    TimePoint started;  ///< sim time the request went out (op latency)
  };

  /// The one client->server RPC path: stamps a fresh nonce (and the session
  /// pubkey, on requests that carry one), registers `on_reply` under a
  /// "<what> timed out" guard and sends.  `retry`, when set, runs first on
  /// timeout and returns true if it re-issued the op instead.
  template <typename Req, typename T>
  void request(const Name& dst, wire::MsgType type, Req msg,
               std::shared_ptr<const capsule::Metadata> authority,
               const OpPtr<T>& op, std::string what, ReplyHandler on_reply,
               std::function<bool()> retry = {});
  /// Decodes a reply once, matches its nonce to the pending request,
  /// checks its §V authenticator and runs the op's continuation.
  template <typename Msg>
  void deliver(const wire::Pdu& pdu);
  /// Verifies a response authenticator; on signature path also validates
  /// and caches the server principal + delegation.
  Status verify_response_auth(const Name& responding_server, BytesView body,
                              const wire::SecureResponse& trailer,
                              const capsule::Metadata* metadata);
  Bytes session_pubkey_for_request() const;
  Result<ReadOutcome> read_outcome(const Result<ServerReply>& reply,
                                   const wire::Pdu& pdu,
                                   const capsule::Metadata& metadata,
                                   std::uint64_t first, std::uint64_t last);
  /// Sends attempt #`attempt` of a read and arms its response/timeout
  /// handlers (the retry path re-enters here with a fresh nonce).
  void start_read(const OpPtr<ReadOutcome>& op,
                  std::shared_ptr<const capsule::Metadata> metadata,
                  std::uint64_t first, std::uint64_t last, std::uint32_t attempt);
  /// True = a retry was dispatched (budget granted, attempts left) and the
  /// op stays pending; false = the caller must resolve it terminally.
  bool maybe_retry_read(const OpPtr<ReadOutcome>& op,
                        const std::shared_ptr<const capsule::Metadata>& metadata,
                        std::uint64_t first, std::uint64_t last,
                        std::uint32_t attempt);

  Options options_;
  crypto::PrivateKey session_key_;  ///< ephemeral ECDH half for HMAC sessions
  std::unordered_map<std::uint64_t, PendingRequest> pending_;
  std::unordered_map<Name, trust::Principal> known_servers_;
  std::unordered_map<Name, crypto::SymmetricKey> session_keys_;  ///< by server
  std::unordered_map<Name, Subscription> subscriptions_;         ///< by capsule
  AppHandler app_handler_;
  std::uint64_t next_nonce_ = 1;
  loadmgmt::RetryBudget read_retry_budget_;
  trust::VerifyCache credential_cache_;
  capsule::SigChecker credential_checker_;

  // Telemetry handles (`client.<label>.*`).  Latency is *simulated* time
  // from request send to response arrival, so dumps stay deterministic.
  telemetry::Counter& ops_started_;
  telemetry::Counter& ops_timed_out_;
  telemetry::Counter& read_retries_;
  telemetry::Counter& read_retries_denied_;
  telemetry::Histogram& op_latency_ns_;
};

}  // namespace gdp::client
