// DataCapsule-server (§IV-B, §V, §VI).
//
// The server's task "is to make information durable and available to the
// appropriate readers while maintaining the integrity of data":
//   * hosts capsules it holds AdCerts for, persisting them in ServerStore;
//   * validates every append against the writer key (write access control
//     "can be verified by DataCapsule-servers or anyone else");
//   * serves reads as self-verifying range proofs anchored at the tip
//     heartbeat, authenticated by signature + delegation evidence or by a
//     per-client HMAC session (§V "Secure Responses");
//   * implements both durability modes of §VI-B — ack-after-local-persist
//     with background propagation, or block until k replicas ack;
//   * runs leaderless anti-entropy with replica peers, repairing holes in
//     the background (§VI-A);
//   * pushes new canonical records to subscribers whose SubCerts verify
//     (the publish-subscribe native mode of access).
#pragma once

#include <deque>
#include <filesystem>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "loadmgmt/overload.hpp"
#include "router/endpoint.hpp"
#include "store/capsule_store.hpp"
#include "trust/verify_cache.hpp"

namespace gdp::server {

class CapsuleServer : public router::Endpoint {
 public:
  /// Anti-entropy strategy.  kSummary (default) probes peers with the
  /// capsule's Merkle root and walks only divergent subtrees, pulling
  /// exact seqno ranges with cursor continuation; kFlood is the legacy
  /// tip-scan + hole-list record flood, kept as the measurable baseline.
  enum class SyncMode : std::uint8_t { kSummary = 0, kFlood = 1 };

  struct Options {
    std::filesystem::path storage_root;
    Duration anti_entropy_interval = from_millis(500);
    Duration durability_timeout = from_millis(2000);
    Duration advertisement_lifetime = from_seconds(24 * 3600);
    SyncMode sync_mode = SyncMode::kSummary;
    /// Ingest service model: when > 0, each data-plane op (append, read,
    /// bench sink, durability sync-push) occupies the server for this
    /// long and ops drain through a FIFO — the queue is where overload
    /// becomes visible.  Zero keeps the legacy instantaneous processing.
    Duration ingest_service_time = Duration::zero();
    /// Watermarks for overload shedding (active only with the service
    /// model on).
    loadmgmt::OverloadConfig overload;
    /// Master switch for shedding.  Off = the ingest queue grows without
    /// bound and every admitted op eventually runs — the unmanaged
    /// baseline arm of the loadmgmt ablation.
    bool shed_enabled = true;
    /// Cadence of kLoadReport pressure reports to the attachment router
    /// (start_load_reports()); shed-level changes also report eagerly.
    Duration load_report_interval = from_millis(100);
  };

  CapsuleServer(net::Network& net, const crypto::PrivateKey& key,
                std::string label, Options options);

  /// Accepts responsibility for a capsule (out-of-band placement by the
  /// owner) and re-advertises so the name becomes routable.
  Status host_capsule(const capsule::Metadata& metadata,
                      const trust::ServingDelegation& delegation,
                      std::vector<Name> replica_peers);

  /// (Re)advertises this server plus all hosted capsules to `router`.
  void advertise_to(const Name& router);

  /// Starts the periodic anti-entropy loop.
  void start_anti_entropy();
  /// Stops rescheduling the loop (the in-flight tick still fires once).
  void stop_anti_entropy() { anti_entropy_running_ = false; }
  /// One immediate anti-entropy round (tests drive this directly).
  void anti_entropy_round();

  SyncMode sync_mode() const { return options_.sync_mode; }
  /// Benches flip a server between summary and flood sync between arms.
  void set_sync_mode(SyncMode mode) { options_.sync_mode = mode; }

  /// Starts the periodic load-report loop toward the attachment router
  /// (no-op while the ingest service model is off).
  void start_load_reports();
  void stop_load_reports() { load_reports_running_ = false; }
  /// Chaos hook: changes the per-op service time mid-run (a replica
  /// degrading under the fabric's feet).
  void set_ingest_service_time(Duration d) {
    options_.ingest_service_time = d;
  }
  const loadmgmt::OverloadManager& overload() const { return overload_; }
  std::size_t ingest_depth() const { return ingest_queue_.size(); }

  const store::ServerStore& storage() const { return store_; }
  /// Bench/test hook: persists `record` directly into the local replica —
  /// no client traffic, no propagation, no signature re-check (the caller
  /// vouches).  Benches use this to fabricate a large replication gap
  /// without paying one client round-trip per record.
  Status ingest_local(const Name& capsule, const capsule::Record& record);
  bool hosts(const Name& capsule) const { return store_.hosts(capsule); }
  std::uint64_t appends_accepted() const { return appends_accepted_.value(); }
  std::uint64_t appends_rejected() const { return appends_rejected_.value(); }
  /// Capsules in Strict-Single-Writer mode where the server holds signed
  /// evidence of a fork — the writer (or its stolen key) equivocated.
  std::vector<Name> equivocating_capsules() const;
  std::uint64_t reads_served() const { return reads_served_.value(); }
  std::uint64_t sync_records_sent() const { return sync_records_sent_.value(); }
  std::size_t subscriber_count(const Name& capsule) const;

  /// Publishes per-capsule storage gauges (records, payload bytes, flush
  /// count) into the registry; called by stats dumpers before serializing.
  void publish_metrics();

 protected:
  void handle_pdu(const Name& from, const wire::Pdu& pdu) override;
  /// Link recovery re-presents the full hosted-capsule catalog, not just
  /// the bare principal.
  void reattach() override;

 private:
  struct PendingDurability {
    Name writer;
    Name capsule;
    Name record_hash;
    std::uint64_t seqno = 0;
    std::uint32_t required = 1;
    std::uint32_t acks = 1;  // local persistence counts
    std::uint32_t nacks = 0;
    std::uint32_t peer_count = 0;
    /// Peers whose first response (ack or nack) has been counted — a
    /// retried or re-delivered ack from the same replica must not inflate
    /// the quorum.
    std::set<Name> responded;
    std::uint64_t client_nonce = 0;
    Bytes session_pubkey;
    bool done = false;
  };
  /// Ack bookkeeping for an AppendMsg or CondAppendMsg from `writer`.
  template <typename AppendLike>
  static PendingDurability pending_for(const Name& writer, const AppendLike& msg);

  /// Puller-side state of one summary-sync conversation: the ranges the
  /// Merkle walk proved missing, the in-flight pull and its cursor, and
  /// progress bookkeeping so stalled sessions (lost PDUs) are dropped and
  /// re-probed instead of blocking the capsule forever.
  struct SyncSession {
    Name peer;
    std::uint64_t flow = 0;  ///< tags pull-reply pushes from this peer
    std::vector<wire::SyncRangeMsg::Range> requested;  ///< in-flight pull
    std::vector<wire::SyncRangeMsg::Range> queued;  ///< found, not yet pulled
    std::uint64_t cursor = 0;
    bool in_flight = false;
    std::uint64_t received = 0;       ///< records delivered via this session
    std::uint64_t last_progress = 0;  ///< `received` at the last round check
    int idle_rounds = 0;
    int retries = 0;  ///< stall retries since the last delivered record
  };

  /// Rounds without a delivered record before a session retries its pull.
  /// Must exceed one batch's transfer time on a slow link (in rounds) so
  /// healthy-but-slow pulls are not re-requested, which would duplicate
  /// traffic exactly like the flood baseline.
  static constexpr int kStallRounds = 8;
  /// Stall retries before the conversation is abandoned and re-probed.
  static constexpr int kMaxRetries = 16;

  /// One queued unit of serviced ingest work.
  struct QueuedOp {
    Name from;
    wire::Pdu pdu;
  };

  /// Advisory capsule-tip lease (SCL).  Per-replica, lazily expired; a
  /// stale or split-brain lease can cost CAS retries but never
  /// correctness — the tip check remains the safety mechanism.
  struct Lease {
    Name holder;
    std::uint64_t id = 0;
    std::int64_t expires_ns = 0;
  };

  /// The pre-PR-9 dispatch switch: runs one op to completion, now.
  void dispatch_op(const Name& from, const wire::Pdu& pdu);
  /// Admission control for the serviced ingest path: classify, shed or
  /// enqueue, kick the drain timer.
  void enqueue_ingest(const Name& from, const wire::Pdu& pdu);
  void drain_ingest();
  /// Sheds one op at admission: named drop-reason counter + trace span,
  /// and a fail-fast response for reads/appends so the client does not
  /// burn its full timeout discovering the overload.
  void shed_op(const wire::Pdu& pdu, loadmgmt::DropPriority priority);
  void send_load_report();
  /// Reports eagerly when the shed level moves (edge-triggered).
  void maybe_report_shed_edge();

  void handle_create(const Name& from, const wire::Pdu& pdu);
  void handle_append(const wire::Pdu& pdu);
  void handle_cond_append(const wire::Pdu& pdu);
  void handle_lease_request(const wire::Pdu& pdu);
  void handle_read(const wire::Pdu& pdu);
  void handle_subscribe(const wire::Pdu& pdu);
  void handle_sync_pull(const wire::Pdu& pdu);
  void handle_sync_push(const wire::Pdu& pdu);
  void handle_sync_summary(const wire::Pdu& pdu);
  void handle_sync_descend(const wire::Pdu& pdu);
  void handle_sync_range(const wire::Pdu& pdu);
  void handle_peer_ack(const wire::Pdu& pdu);

  /// Sends a Merkle-root probe for `capsule` to `peer`.
  void send_summary_probe(const Name& capsule, const Name& peer);
  /// Moves queued ranges into an in-flight SyncRangeMsg pull.
  void flush_session(const Name& capsule, SyncSession& session);

  /// §V secure response: authenticates `msg` for `client` (session HMAC,
  /// or signature plus principal/delegation evidence) and sends it.  Every
  /// AppendAck, ReadResponse, CasNack and LeaseGrant leaves through here.
  template <typename Msg>
  void respond(const Name& client, BytesView session_pubkey, Msg& msg,
               std::uint64_t flow_id);
  std::optional<crypto::SymmetricKey> session_key_for(const Name& client,
                                                      BytesView session_pubkey);

  /// Shared append tail: ingest + flush + publish + quorum handling.
  /// Both the plain and the conditional append path end here.
  void run_append(store::CapsuleStore& cs, PendingDurability pending,
                  const capsule::Record& record, const wire::Pdu& pdu);
  /// The capsule's lease if one is active now; expired entries are reaped.
  Lease* active_lease(const Name& capsule);
  void send_cas_nack(const store::CapsuleStore& cs, const wire::Pdu& pdu,
                     const wire::CondAppendMsg& msg, Errc code, std::string why,
                     const Lease* lease);
  /// Authenticated read failure; the code rides inside the signed body.
  void fail_read(const wire::Pdu& pdu, const wire::ReadMsg& msg, Errc code,
                 std::string why);

  void send_append_ack(const PendingDurability& pending, bool ok, std::string error);
  void send_status(const Name& to, bool ok, Errc code, std::string message,
                   std::uint64_t nonce);
  void propagate_record(const Name& capsule, const capsule::Record& record,
                        std::uint64_t flow_id);
  void publish_new_canonical(const Name& capsule, std::uint64_t from_seqno_excl);
  std::vector<Bytes> build_catalog_records() const;

  Options options_;
  store::ServerStore store_;
  std::unordered_map<Name, std::vector<Name>> peers_;        ///< per capsule
  std::unordered_map<Name, std::vector<Name>> subscribers_;  ///< per capsule
  std::unordered_map<std::uint64_t, PendingDurability> pending_;  ///< by flow id
  std::unordered_map<Name, SyncSession> sync_sessions_;  ///< by capsule
  std::unordered_map<Name, Lease> leases_;  ///< advisory tip leases, by capsule
  std::uint64_t next_lease_id_ = 1;
  /// Memoizes multi-writer credential verdicts: hundreds of records per
  /// writer share one credential, so each costs one ECDSA verify total.
  trust::VerifyCache credential_cache_;
  std::unordered_map<Name, crypto::SymmetricKey> sessions_;  ///< by client
  std::unordered_set<Name> introduced_;  ///< clients that hold our evidence
  std::uint64_t next_pending_id_ = 1;
  /// Sync-pull flows live far above durability ids so a pull-reply push is
  /// never mistaken for a replica's durability propagation (and vice versa).
  std::uint64_t next_sync_flow_ = (std::uint64_t{1} << 48) + 1;
  bool anti_entropy_running_ = false;
  std::deque<QueuedOp> ingest_queue_;
  bool ingest_draining_ = false;
  loadmgmt::OverloadManager overload_;
  bool load_reports_running_ = false;
  int reported_shed_level_ = 0;
  /// Seeds the batch-verification coefficient stream; drawn from the
  /// simulation RNG so identical runs replay identical coefficients.
  std::uint64_t batch_seed_ = 0;

  // Telemetry handles (`server.<label>.*`), resolved at construction.
  std::string metric_prefix_;
  telemetry::Counter& appends_accepted_;
  telemetry::Counter& appends_rejected_;
  telemetry::Counter& reads_served_;
  telemetry::Counter& sync_records_sent_;
  telemetry::Counter& sync_summary_bytes_;
  telemetry::Counter& sync_ranges_pulled_;
  telemetry::Counter& sync_rounds_;
  telemetry::Counter& sync_probes_;
  telemetry::Counter& drop_malformed_;
  telemetry::Counter& drop_not_hosted_;
  telemetry::Counter& drop_stale_ack_;
  telemetry::Counter& drop_duplicate_ack_;
  telemetry::Counter& drop_foreign_ack_;
  telemetry::Counter& recv_pdus_;
  telemetry::Counter& batch_accepted_;
  telemetry::Counter& batch_rejected_;
  telemetry::Counter& batch_bisections_;
  telemetry::Counter& shed_bench_;
  telemetry::Counter& shed_reads_;
  telemetry::Counter& shed_appends_;
  telemetry::Counter& ingest_enqueued_;
  telemetry::Counter& ingest_processed_;
  telemetry::Counter& ingest_high_water_;
  telemetry::Counter& load_reports_sent_;
  telemetry::Counter& cas_win_;
  telemetry::Counter& cas_conflict_;
  telemetry::Counter& cas_lease_rejected_;
  telemetry::Counter& lease_granted_;
  telemetry::Counter& lease_denied_;
  telemetry::Histogram& batch_size_;
  telemetry::Histogram& ingest_depth_;
};

}  // namespace gdp::server
