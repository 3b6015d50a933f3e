// Protocol message bodies carried in PDU payloads.
//
// Three protocol families share the PDU fabric:
//   * the client/server data plane (create, append, read, subscribe,
//     publish) with *secure responses* — every server response is
//     authenticated either by the server's ECDSA signature plus its
//     delegation evidence, or, once an ECDH session is established, by an
//     HMAC whose steady-state byte overhead is "roughly similar to TLS"
//     (§V "Secure Responses");
//   * server-to-server anti-entropy (§VI-B hole repair);
//   * the routing control plane: secure advertisement with
//     challenge-response and GLookupService queries (§VII).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "capsule/heartbeat.hpp"
#include "capsule/record.hpp"
#include "common/bytes.hpp"
#include "common/name.hpp"
#include "common/result.hpp"
#include "wire/pdu.hpp"

namespace gdp::wire {

/// Authenticator attached to server responses.
struct ResponseAuth {
  enum class Kind : std::uint8_t { kNone = 0, kSignature = 1, kHmac = 2 };
  Kind kind = Kind::kNone;
  Bytes bytes;  ///< 64-byte ECDSA signature or 32-byte HMAC tag

  friend bool operator==(const ResponseAuth&, const ResponseAuth&) = default;
};

/// The §V secure-response trailer, shared by every authenticated server
/// reply.  Each reply's signed body closes with `nonce`, binding it to one
/// request; the evidence and the authenticator follow on the wire.  The
/// evidence rides with every signed reply and once, on first contact, with
/// HMAC replies so the client can anchor the session key.
struct SecureResponse {
  std::uint64_t nonce = 0;
  Bytes server_principal;  ///< serialized trust::Principal, or empty
  Bytes delegation;        ///< serialized trust::ServingDelegation, or empty
  ResponseAuth auth;
};

// ---- Client -> server ---------------------------------------------------------

struct CreateCapsuleMsg {
  Bytes metadata;            ///< serialized capsule::Metadata
  Bytes delegation;          ///< serialized trust::ServingDelegation for the target
  std::vector<Name> replica_peers;  ///< sibling servers hosting replicas
  std::uint64_t nonce = 0;

  Bytes serialize() const;
  static Result<CreateCapsuleMsg> deserialize(BytesView b);
};

struct AppendMsg {
  Name capsule;
  capsule::Record record;
  /// Durability mode (§VI-B): 1 = ack after local persistence (fast
  /// path), k>1 = ack only once k replicas hold the record.
  std::uint32_t required_acks = 1;
  std::uint64_t nonce = 0;
  Bytes session_pubkey;  ///< empty or 64-byte ECDH ephemeral for HMAC acks

  Bytes serialize() const;
  static Result<AppendMsg> deserialize(BytesView b);
};

struct ReadMsg {
  Name capsule;
  std::uint64_t first_seqno = 0;  ///< 0,0 means "latest"
  std::uint64_t last_seqno = 0;
  std::uint64_t nonce = 0;
  Bytes session_pubkey;  ///< empty or 64-byte ECDH ephemeral for HMAC responses

  Bytes serialize() const;
  static Result<ReadMsg> deserialize(BytesView b);
};

struct SubscribeMsg {
  Name capsule;
  Name subscriber;       ///< where kPublish events should be routed
  Bytes sub_cert;        ///< serialized trust::Cert (SubCert)
  std::uint64_t nonce = 0;

  Bytes serialize() const;
  static Result<SubscribeMsg> deserialize(BytesView b);
};

// ---- Server -> client ----------------------------------------------------------

struct AppendAckMsg : SecureResponse {
  static constexpr MsgType kType = MsgType::kAppendAck;

  Name capsule;
  Name record_hash;
  std::uint64_t seqno = 0;
  std::uint32_t acks = 0;  ///< replicas known to hold the record
  bool ok = false;
  std::string error;

  /// Canonical bytes covered by `auth`.
  Bytes signed_body() const;
  Bytes serialize() const;
  static Result<AppendAckMsg> deserialize(BytesView b);
};

struct ReadResponseMsg : SecureResponse {
  static constexpr MsgType kType = MsgType::kReadResponse;

  Name capsule;
  bool ok = false;
  /// Errc as integer when !ok (0 = unspecified / legacy).  Signed along
  /// with the body so an on-path attacker cannot rewrite, say, a
  /// permission denial into a retryable overload shed.
  std::uint16_t code = 0;
  std::string error;
  Bytes proof;      ///< serialized capsule::RangeProof when ok
  Bytes heartbeat;  ///< serialized capsule::Heartbeat when ok
  /// Multi-writer capsules only: attached records *off* the canonical
  /// chain (lost CAS races, anycast forks awaiting anti-entropy).  Each is
  /// a serialized capsule::Record the client verifies standalone through
  /// its credential envelope; deterministic replay merges them with the
  /// canonical range so every reader converges on the same tree.
  std::vector<Bytes> branch_records;

  Bytes signed_body() const;
  Bytes serialize() const;
  static Result<ReadResponseMsg> deserialize(BytesView b);
};

struct PublishMsg {
  Name capsule;
  capsule::Record record;
  Bytes heartbeat;  ///< serialized capsule::Heartbeat from the writer

  Bytes serialize() const;
  static Result<PublishMsg> deserialize(BytesView b);
};

struct StatusMsg {
  bool ok = false;
  std::uint16_t code = 0;  ///< Errc as integer when !ok
  std::string message;
  std::uint64_t nonce = 0;

  Bytes serialize() const;
  static Result<StatusMsg> deserialize(BytesView b);
};

// ---- SCL concurrency layer (compare-and-append + tip leases) ---------------------

/// Optimistic compare-and-append: the record lands only if the replica's
/// canonical tip still equals (expected_tip_seqno, expected_tip_hash).
/// Success acks as a normal kAppendAck; a lost race nacks as kCasNack
/// carrying the current tip so the writer can rebase and retry.
struct CondAppendMsg {
  Name capsule;
  capsule::Record record;
  std::uint64_t expected_tip_seqno = 0;  ///< 0 = expecting an empty capsule
  Name expected_tip_hash;                ///< capsule name when expecting empty
  std::uint32_t required_acks = 1;
  std::uint64_t lease_id = 0;            ///< 0 = no lease claimed
  std::uint64_t nonce = 0;
  Bytes session_pubkey;  ///< empty or 64-byte ECDH ephemeral for HMAC acks

  Bytes serialize() const;
  static Result<CondAppendMsg> deserialize(BytesView b);
};

/// CAS rejection.  Authenticated like every server response: an on-path
/// attacker must not be able to forge a nack (livelocking writers) or
/// rewrite the tip a loser rebases onto.
struct CasNackMsg : SecureResponse {
  static constexpr MsgType kType = MsgType::kCasNack;

  Name capsule;
  std::uint16_t code = 0;  ///< Errc::kConflict or Errc::kLeaseHeld
  std::string error;
  std::uint64_t tip_seqno = 0;  ///< current canonical tip for rebase
  Name tip_hash;
  Name lease_holder;                 ///< zero name when no lease interferes
  std::int64_t lease_expires_ns = 0;

  Bytes signed_body() const;
  Bytes serialize() const;
  static Result<CasNackMsg> deserialize(BytesView b);
};

/// Advisory capsule-tip lease control: acquire / renew / release.  Leases
/// reduce CAS contention (losers back off while the holder streams); CAS
/// itself remains the safety mechanism, so an expired or split-brain
/// lease can cost throughput but never correctness.
struct LeaseRequestMsg {
  static constexpr std::uint8_t kAcquire = 0;
  static constexpr std::uint8_t kRenew = 1;
  static constexpr std::uint8_t kRelease = 2;

  Name capsule;
  std::uint8_t op = kAcquire;
  Name holder;                    ///< requesting client's principal name
  std::uint64_t lease_id = 0;     ///< required for renew/release
  std::int64_t duration_ns = 0;   ///< requested extension from now
  std::uint64_t nonce = 0;
  Bytes session_pubkey;

  Bytes serialize() const;
  static Result<LeaseRequestMsg> deserialize(BytesView b);
};

/// Lease decision; grants carry the replica's current tip so the holder
/// can start (or resume) appending without an extra read round-trip.
struct LeaseGrantMsg : SecureResponse {
  static constexpr MsgType kType = MsgType::kLeaseGrant;

  Name capsule;
  bool ok = false;
  std::uint16_t code = 0;  ///< Errc::kLeaseHeld when denied
  std::string error;
  std::uint64_t lease_id = 0;
  Name holder;                  ///< current holder (the winner on denial)
  std::int64_t expires_ns = 0;
  std::uint64_t tip_seqno = 0;  ///< replica's canonical tip at decision time
  Name tip_hash;

  Bytes signed_body() const;
  Bytes serialize() const;
  static Result<LeaseGrantMsg> deserialize(BytesView b);
};

// ---- Server <-> server anti-entropy ----------------------------------------------

struct SyncPullMsg {
  Name capsule;
  std::uint64_t tip_seqno = 0;    ///< requester's canonical tip
  std::vector<Name> holes;        ///< specific missing record hashes

  Bytes serialize() const;
  static Result<SyncPullMsg> deserialize(BytesView b);
};

struct SyncPushMsg {
  Name capsule;
  std::vector<Bytes> records;  ///< serialized capsule::Records
  /// Continuation cursor: 0 when the reply is complete, otherwise the
  /// seqno the puller should resume its SyncRangeMsg from (the batch cap
  /// truncated the reply).  Replaces the old one-shot 256-record flood.
  std::uint64_t resume_cursor = 0;

  Bytes serialize() const;
  static Result<SyncPushMsg> deserialize(BytesView b);
};

// Merkle-summary anti-entropy.  A replica probes a peer with its tree
// root (SyncSummaryMsg); on divergence the peer offers child-node hashes
// (SyncDescendMsg kind=offer), the probing replica expands only the
// subtrees that disagree (kind=request) and finally pulls the exact
// seqno ranges it lacks (SyncRangeMsg -> SyncPushMsg with cursor
// continuation).  Bytes on the wire scale with the divergence, not with
// the capsule.

/// One HashTree node: an aligned seqno range and its subtree hash.
struct TreeNode {
  std::uint64_t first = 0;  ///< inclusive, 1-based
  std::uint64_t last = 0;
  Name hash;  ///< subtree digest (offers); ignored in requests

  friend bool operator==(const TreeNode&, const TreeNode&) = default;
};

struct SyncSummaryMsg {
  Name capsule;
  std::uint64_t tip_seqno = 0;  ///< sender's canonical tip
  Name tip_hash;
  Name root_hash;  ///< HashTree root over [1, cover_span(tip_seqno)]

  Bytes serialize() const;
  static Result<SyncSummaryMsg> deserialize(BytesView b);
};

struct SyncDescendMsg {
  static constexpr std::uint8_t kOffer = 0;    ///< nodes carry my hashes
  static constexpr std::uint8_t kRequest = 1;  ///< expand these ranges

  Name capsule;
  std::uint8_t kind = kOffer;
  std::uint64_t tip_seqno = 0;  ///< sender's canonical tip
  std::vector<TreeNode> nodes;

  Bytes serialize() const;
  static Result<SyncDescendMsg> deserialize(BytesView b);
};

/// A half-open pull request: exact seqno ranges plus hash-named holes.
struct SyncRangeMsg {
  struct Range {
    std::uint64_t first = 0;
    std::uint64_t last = 0;

    friend bool operator==(const Range&, const Range&) = default;
  };

  Name capsule;
  std::vector<Range> ranges;  ///< disjoint, ascending canonical seqno ranges
  std::vector<Name> holes;    ///< specific missing record hashes
  std::uint64_t cursor = 0;   ///< resume seqno within `ranges`; 0 = start

  Bytes serialize() const;
  static Result<SyncRangeMsg> deserialize(BytesView b);
};

// ---- Secure advertisement (§VII) ---------------------------------------------------

struct AdvertiseMsg {
  Bytes principal;                   ///< serialized trust::Principal
  std::vector<Bytes> catalog_records;  ///< trust::Catalog payload encodings

  Bytes serialize() const;
  static Result<AdvertiseMsg> deserialize(BytesView b);
};

struct ChallengeMsg {
  Bytes nonce;  ///< 32 bytes chosen by the router

  Bytes serialize() const;
  static Result<ChallengeMsg> deserialize(BytesView b);
};

struct ChallengeReplyMsg {
  Bytes principal;  ///< serialized trust::Principal (repeated for stateless verify)
  Bytes nonce_sig;  ///< 64-byte signature over (nonce || router name)
  Bytes rt_cert;    ///< serialized trust::Cert (RtCert issued to the router)

  Bytes serialize() const;
  static Result<ChallengeReplyMsg> deserialize(BytesView b);
};

struct AdvertiseOkMsg {
  bool ok = false;
  std::string message;
  std::uint32_t accepted = 0;  ///< advertisements admitted to the catalog

  Bytes serialize() const;
  static Result<AdvertiseOkMsg> deserialize(BytesView b);
};

// ---- GLookupService (§VII) ----------------------------------------------------------

struct LookupMsg {
  Name target;
  Name querying_router;
  std::uint64_t nonce = 0;

  Bytes serialize() const;
  static Result<LookupMsg> deserialize(BytesView b);
};

struct LookupReplyMsg {
  /// One ranked alternate replica for the same target.  Each option is
  /// independently verifiable (carries its own evidence + principal) so
  /// the querying router can pick any of them without trusting the
  /// registry's ordering.
  struct ReplicaOption {
    Name attachment_router;
    Name next_hop;
    std::uint32_t cost_us = 0;
    std::int64_t expires_ns = 0;
    Bytes evidence;
    Bytes principal;
  };

  bool found = false;
  Name target;
  Name attachment_router;  ///< router the target is attached to
  Name next_hop;           ///< querying router's next hop toward it
  std::uint32_t cost_us = 0;  ///< path cost (microseconds of latency)
  std::uint64_t nonce = 0;
  /// Expiry of the backing registration (RtCert not_after / catalog
  /// effective expiry).  Routers bound FIB-entry lifetime by it so stale
  /// routing state is re-resolved instead of silently reused.  <= 0 means
  /// the registry did not constrain the lifetime.
  std::int64_t expires_ns = 0;
  /// Independently verifiable routing state: the serialized
  /// trust::Advertisement backing this entry (empty for bare principals
  /// such as clients) and the advertiser's principal.
  Bytes evidence;
  Bytes principal;
  /// Load-aware selection: replicas ranked worse than the primary, best
  /// first.  Empty when selection is disabled or the target has a single
  /// eligible replica.
  std::vector<ReplicaOption> alternates;

  Bytes serialize() const;
  static Result<LookupReplyMsg> deserialize(BytesView b);
};

/// Server -> attachment router -> GLookupService: periodic (and
/// shed-edge-triggered) ingest-pressure report.  Feeds the lookup
/// service's health tracker so replica ranking reflects live load, and
/// the router's own neighbor health.
struct LoadReportMsg {
  Name server;
  std::uint32_t queue_depth = 0;
  std::uint32_t shed_level = 0;  ///< 0 none, 1 bench, 2 +reads, 3 +writes
  /// Expected per-op queueing delay: depth x EWMA service time.
  std::uint64_t expected_delay_ns = 0;

  Bytes serialize() const;
  static Result<LoadReportMsg> deserialize(BytesView b);
};

}  // namespace gdp::wire
