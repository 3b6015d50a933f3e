#include "wire/messages.hpp"

#include "common/varint.hpp"

namespace gdp::wire {

namespace {

void put_name(Bytes& out, const Name& n) { append(out, n.view()); }

std::optional<Name> get_name(ByteReader& r) {
  auto b = r.get_bytes(Name::kSize);
  if (!b) return std::nullopt;
  return Name::from_bytes(*b);
}

void put_string(Bytes& out, const std::string& s) {
  put_length_prefixed(out, to_bytes(s));
}

std::optional<std::string> get_string(ByteReader& r) {
  auto b = r.get_length_prefixed();
  if (!b) return std::nullopt;
  return to_string(*b);
}

void put_name_list(Bytes& out, const std::vector<Name>& names) {
  put_varint(out, names.size());
  for (const Name& n : names) put_name(out, n);
}

std::optional<std::vector<Name>> get_name_list(ByteReader& r) {
  auto count = r.get_varint();
  if (!count || *count > 100000) return std::nullopt;
  std::vector<Name> out;
  out.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto n = get_name(r);
    if (!n) return std::nullopt;
    out.push_back(*n);
  }
  return out;
}

void put_bytes_list(Bytes& out, const std::vector<Bytes>& items) {
  put_varint(out, items.size());
  for (const Bytes& b : items) put_length_prefixed(out, b);
}

std::optional<std::vector<Bytes>> get_bytes_list(ByteReader& r) {
  auto count = r.get_varint();
  if (!count || *count > 100000) return std::nullopt;
  std::vector<Bytes> out;
  out.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto b = r.get_length_prefixed();
    if (!b) return std::nullopt;
    out.push_back(std::move(*b));
  }
  return out;
}

void put_auth(Bytes& out, const ResponseAuth& auth) {
  out.push_back(static_cast<std::uint8_t>(auth.kind));
  put_length_prefixed(out, auth.bytes);
}

std::optional<ResponseAuth> get_auth(ByteReader& r) {
  auto kind = r.get_bytes(1);
  if (!kind || (*kind)[0] > 2) return std::nullopt;
  auto bytes = r.get_length_prefixed();
  if (!bytes) return std::nullopt;
  ResponseAuth auth;
  auth.kind = static_cast<ResponseAuth::Kind>((*kind)[0]);
  auth.bytes = std::move(*bytes);
  return auth;
}

Error truncated(const char* what) {
  return make_error(Errc::kInvalidArgument, std::string("truncated ") + what);
}

// Signed-body domain tags of the four authenticated responses.
constexpr std::string_view kAppendAckTag = "gdp.append-ack.v1";
constexpr std::string_view kReadResponseTag = "gdp.read-resp.v1";
constexpr std::string_view kCasNackTag = "gdp.cas-nack.v1";
constexpr std::string_view kLeaseGrantTag = "gdp.lease-grant.v1";

bool get_tag(ByteReader& r, std::string_view tag) {
  auto b = r.get_bytes(tag.size());
  return b && to_string(*b) == tag;
}

// §V response layout: signed body (tag, fields, nonce), then evidence and
// authenticator.  Every signed_body() closes with the nonce, so the
// decoder's shared tail starts there.
Bytes put_response_trailer(Bytes signed_body, const SecureResponse& m) {
  put_length_prefixed(signed_body, m.server_principal);
  put_length_prefixed(signed_body, m.delegation);
  put_auth(signed_body, m.auth);
  return signed_body;
}

/// Reads nonce, evidence and authenticator into `m`; false on truncation
/// or trailing bytes.
bool get_response_trailer(ByteReader& r, SecureResponse& m) {
  auto nonce = r.get_fixed64();
  auto principal = r.get_length_prefixed();
  auto delegation = r.get_length_prefixed();
  auto auth = get_auth(r);
  if (!nonce || !principal || !delegation || !auth || !r.empty()) return false;
  m.nonce = *nonce;
  m.server_principal = std::move(*principal);
  m.delegation = std::move(*delegation);
  m.auth = std::move(*auth);
  return true;
}

}  // namespace

// ---- CreateCapsuleMsg ----------------------------------------------------------

Bytes CreateCapsuleMsg::serialize() const {
  Bytes out;
  put_length_prefixed(out, metadata);
  put_length_prefixed(out, delegation);
  put_name_list(out, replica_peers);
  put_fixed64(out, nonce);
  return out;
}

Result<CreateCapsuleMsg> CreateCapsuleMsg::deserialize(BytesView b) {
  ByteReader r(b);
  CreateCapsuleMsg m;
  auto metadata = r.get_length_prefixed();
  auto delegation = r.get_length_prefixed();
  auto peers = get_name_list(r);
  auto nonce = r.get_fixed64();
  if (!metadata || !delegation || !peers || !nonce || !r.empty()) {
    return truncated("CreateCapsuleMsg");
  }
  m.metadata = std::move(*metadata);
  m.delegation = std::move(*delegation);
  m.replica_peers = std::move(*peers);
  m.nonce = *nonce;
  return m;
}

// ---- AppendMsg -------------------------------------------------------------------

Bytes AppendMsg::serialize() const {
  Bytes out;
  put_name(out, capsule);
  put_length_prefixed(out, record.serialize());
  put_fixed32(out, required_acks);
  put_fixed64(out, nonce);
  put_length_prefixed(out, session_pubkey);
  return out;
}

Result<AppendMsg> AppendMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto capsule_name = get_name(r);
  auto record_bytes = r.get_length_prefixed();
  auto acks = r.get_fixed32();
  auto nonce = r.get_fixed64();
  auto session = r.get_length_prefixed();
  if (!capsule_name || !record_bytes || !acks || !nonce || !session || !r.empty()) {
    return truncated("AppendMsg");
  }
  GDP_ASSIGN_OR_RETURN(capsule::Record record,
                       capsule::Record::deserialize(*record_bytes));
  AppendMsg m;
  m.capsule = *capsule_name;
  m.record = std::move(record);
  m.required_acks = *acks;
  m.nonce = *nonce;
  m.session_pubkey = std::move(*session);
  return m;
}

// ---- ReadMsg ---------------------------------------------------------------------

Bytes ReadMsg::serialize() const {
  Bytes out;
  put_name(out, capsule);
  put_fixed64(out, first_seqno);
  put_fixed64(out, last_seqno);
  put_fixed64(out, nonce);
  put_length_prefixed(out, session_pubkey);
  return out;
}

Result<ReadMsg> ReadMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto capsule_name = get_name(r);
  auto first = r.get_fixed64();
  auto last = r.get_fixed64();
  auto nonce = r.get_fixed64();
  auto session = r.get_length_prefixed();
  if (!capsule_name || !first || !last || !nonce || !session || !r.empty()) {
    return truncated("ReadMsg");
  }
  ReadMsg m;
  m.capsule = *capsule_name;
  m.first_seqno = *first;
  m.last_seqno = *last;
  m.nonce = *nonce;
  m.session_pubkey = std::move(*session);
  return m;
}

// ---- SubscribeMsg ----------------------------------------------------------------

Bytes SubscribeMsg::serialize() const {
  Bytes out;
  put_name(out, capsule);
  put_name(out, subscriber);
  put_length_prefixed(out, sub_cert);
  put_fixed64(out, nonce);
  return out;
}

Result<SubscribeMsg> SubscribeMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto capsule_name = get_name(r);
  auto subscriber = get_name(r);
  auto cert = r.get_length_prefixed();
  auto nonce = r.get_fixed64();
  if (!capsule_name || !subscriber || !cert || !nonce || !r.empty()) {
    return truncated("SubscribeMsg");
  }
  SubscribeMsg m;
  m.capsule = *capsule_name;
  m.subscriber = *subscriber;
  m.sub_cert = std::move(*cert);
  m.nonce = *nonce;
  return m;
}

// ---- AppendAckMsg ----------------------------------------------------------------

Bytes AppendAckMsg::signed_body() const {
  Bytes out = to_bytes(kAppendAckTag);
  put_name(out, capsule);
  put_name(out, record_hash);
  put_fixed64(out, seqno);
  put_fixed32(out, acks);
  out.push_back(ok ? 1 : 0);
  put_string(out, error);
  put_fixed64(out, nonce);
  return out;
}

Bytes AppendAckMsg::serialize() const {
  return put_response_trailer(signed_body(), *this);
}

Result<AppendAckMsg> AppendAckMsg::deserialize(BytesView b) {
  ByteReader r(b);
  if (!get_tag(r, kAppendAckTag)) return truncated("AppendAckMsg tag");
  AppendAckMsg m;
  auto capsule_name = get_name(r);
  auto hash = get_name(r);
  auto seqno = r.get_fixed64();
  auto acks = r.get_fixed32();
  auto ok_byte = r.get_bytes(1);
  auto error = get_string(r);
  if (!capsule_name || !hash || !seqno || !acks || !ok_byte || !error ||
      !get_response_trailer(r, m)) {
    return truncated("AppendAckMsg");
  }
  m.capsule = *capsule_name;
  m.record_hash = *hash;
  m.seqno = *seqno;
  m.acks = *acks;
  m.ok = (*ok_byte)[0] != 0;
  m.error = std::move(*error);
  return m;
}

// ---- ReadResponseMsg -------------------------------------------------------------

Bytes ReadResponseMsg::signed_body() const {
  Bytes out = to_bytes(kReadResponseTag);
  put_name(out, capsule);
  out.push_back(ok ? 1 : 0);
  put_fixed32(out, code);
  put_string(out, error);
  put_length_prefixed(out, proof);
  put_length_prefixed(out, heartbeat);
  put_bytes_list(out, branch_records);
  put_fixed64(out, nonce);
  return out;
}

Bytes ReadResponseMsg::serialize() const {
  return put_response_trailer(signed_body(), *this);
}

Result<ReadResponseMsg> ReadResponseMsg::deserialize(BytesView b) {
  ByteReader r(b);
  if (!get_tag(r, kReadResponseTag)) return truncated("ReadResponseMsg tag");
  ReadResponseMsg m;
  auto capsule_name = get_name(r);
  auto ok_byte = r.get_bytes(1);
  auto code = r.get_fixed32();
  auto error = get_string(r);
  auto proof = r.get_length_prefixed();
  auto heartbeat = r.get_length_prefixed();
  auto branches = get_bytes_list(r);
  if (!capsule_name || !ok_byte || !code || !error || !proof || !heartbeat ||
      !branches || !get_response_trailer(r, m)) {
    return truncated("ReadResponseMsg");
  }
  m.capsule = *capsule_name;
  m.ok = (*ok_byte)[0] != 0;
  m.code = static_cast<std::uint16_t>(*code);
  m.error = std::move(*error);
  m.proof = std::move(*proof);
  m.heartbeat = std::move(*heartbeat);
  m.branch_records = std::move(*branches);
  return m;
}

// ---- CondAppendMsg ---------------------------------------------------------------

Bytes CondAppendMsg::serialize() const {
  Bytes out;
  put_name(out, capsule);
  put_length_prefixed(out, record.serialize());
  put_fixed64(out, expected_tip_seqno);
  put_name(out, expected_tip_hash);
  put_fixed32(out, required_acks);
  put_fixed64(out, lease_id);
  put_fixed64(out, nonce);
  put_length_prefixed(out, session_pubkey);
  return out;
}

Result<CondAppendMsg> CondAppendMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto capsule_name = get_name(r);
  auto record_bytes = r.get_length_prefixed();
  auto tip_seqno = r.get_fixed64();
  auto tip_hash = get_name(r);
  auto acks = r.get_fixed32();
  auto lease = r.get_fixed64();
  auto nonce = r.get_fixed64();
  auto session = r.get_length_prefixed();
  if (!capsule_name || !record_bytes || !tip_seqno || !tip_hash || !acks ||
      !lease || !nonce || !session || !r.empty()) {
    return truncated("CondAppendMsg");
  }
  GDP_ASSIGN_OR_RETURN(capsule::Record record,
                       capsule::Record::deserialize(*record_bytes));
  CondAppendMsg m;
  m.capsule = *capsule_name;
  m.record = std::move(record);
  m.expected_tip_seqno = *tip_seqno;
  m.expected_tip_hash = *tip_hash;
  m.required_acks = *acks;
  m.lease_id = *lease;
  m.nonce = *nonce;
  m.session_pubkey = std::move(*session);
  return m;
}

// ---- CasNackMsg ------------------------------------------------------------------

Bytes CasNackMsg::signed_body() const {
  Bytes out = to_bytes(kCasNackTag);
  put_name(out, capsule);
  put_fixed32(out, code);
  put_string(out, error);
  put_fixed64(out, tip_seqno);
  put_name(out, tip_hash);
  put_name(out, lease_holder);
  put_fixed64(out, static_cast<std::uint64_t>(lease_expires_ns));
  put_fixed64(out, nonce);
  return out;
}

Bytes CasNackMsg::serialize() const {
  return put_response_trailer(signed_body(), *this);
}

Result<CasNackMsg> CasNackMsg::deserialize(BytesView b) {
  ByteReader r(b);
  if (!get_tag(r, kCasNackTag)) return truncated("CasNackMsg tag");
  CasNackMsg m;
  auto capsule_name = get_name(r);
  auto code = r.get_fixed32();
  auto error = get_string(r);
  auto tip_seqno = r.get_fixed64();
  auto tip_hash = get_name(r);
  auto holder = get_name(r);
  auto lease_expires = r.get_fixed64();
  if (!capsule_name || !code || !error || !tip_seqno || !tip_hash || !holder ||
      !lease_expires || !get_response_trailer(r, m)) {
    return truncated("CasNackMsg");
  }
  m.capsule = *capsule_name;
  m.code = static_cast<std::uint16_t>(*code);
  m.error = std::move(*error);
  m.tip_seqno = *tip_seqno;
  m.tip_hash = *tip_hash;
  m.lease_holder = *holder;
  m.lease_expires_ns = static_cast<std::int64_t>(*lease_expires);
  return m;
}

// ---- LeaseRequestMsg -------------------------------------------------------------

Bytes LeaseRequestMsg::serialize() const {
  Bytes out;
  put_name(out, capsule);
  out.push_back(op);
  put_name(out, holder);
  put_fixed64(out, lease_id);
  put_fixed64(out, static_cast<std::uint64_t>(duration_ns));
  put_fixed64(out, nonce);
  put_length_prefixed(out, session_pubkey);
  return out;
}

Result<LeaseRequestMsg> LeaseRequestMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto capsule_name = get_name(r);
  auto op_byte = r.get_bytes(1);
  if (op_byte && (*op_byte)[0] > kRelease) {
    return make_error(Errc::kInvalidArgument, "bad LeaseRequestMsg op");
  }
  auto holder = get_name(r);
  auto lease = r.get_fixed64();
  auto duration = r.get_fixed64();
  auto nonce = r.get_fixed64();
  auto session = r.get_length_prefixed();
  if (!capsule_name || !op_byte || !holder || !lease || !duration || !nonce ||
      !session || !r.empty()) {
    return truncated("LeaseRequestMsg");
  }
  LeaseRequestMsg m;
  m.capsule = *capsule_name;
  m.op = (*op_byte)[0];
  m.holder = *holder;
  m.lease_id = *lease;
  m.duration_ns = static_cast<std::int64_t>(*duration);
  m.nonce = *nonce;
  m.session_pubkey = std::move(*session);
  return m;
}

// ---- LeaseGrantMsg ---------------------------------------------------------------

Bytes LeaseGrantMsg::signed_body() const {
  Bytes out = to_bytes(kLeaseGrantTag);
  put_name(out, capsule);
  out.push_back(ok ? 1 : 0);
  put_fixed32(out, code);
  put_string(out, error);
  put_fixed64(out, lease_id);
  put_name(out, holder);
  put_fixed64(out, static_cast<std::uint64_t>(expires_ns));
  put_fixed64(out, tip_seqno);
  put_name(out, tip_hash);
  put_fixed64(out, nonce);
  return out;
}

Bytes LeaseGrantMsg::serialize() const {
  return put_response_trailer(signed_body(), *this);
}

Result<LeaseGrantMsg> LeaseGrantMsg::deserialize(BytesView b) {
  ByteReader r(b);
  if (!get_tag(r, kLeaseGrantTag)) return truncated("LeaseGrantMsg tag");
  LeaseGrantMsg m;
  auto capsule_name = get_name(r);
  auto ok_byte = r.get_bytes(1);
  auto code = r.get_fixed32();
  auto error = get_string(r);
  auto lease = r.get_fixed64();
  auto holder = get_name(r);
  auto expires = r.get_fixed64();
  auto tip_seqno = r.get_fixed64();
  auto tip_hash = get_name(r);
  if (!capsule_name || !ok_byte || !code || !error || !lease || !holder ||
      !expires || !tip_seqno || !tip_hash || !get_response_trailer(r, m)) {
    return truncated("LeaseGrantMsg");
  }
  m.capsule = *capsule_name;
  m.ok = (*ok_byte)[0] != 0;
  m.code = static_cast<std::uint16_t>(*code);
  m.error = std::move(*error);
  m.lease_id = *lease;
  m.holder = *holder;
  m.expires_ns = static_cast<std::int64_t>(*expires);
  m.tip_seqno = *tip_seqno;
  m.tip_hash = *tip_hash;
  return m;
}

// ---- PublishMsg ------------------------------------------------------------------

Bytes PublishMsg::serialize() const {
  Bytes out;
  put_name(out, capsule);
  put_length_prefixed(out, record.serialize());
  put_length_prefixed(out, heartbeat);
  return out;
}

Result<PublishMsg> PublishMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto capsule_name = get_name(r);
  auto record_bytes = r.get_length_prefixed();
  auto heartbeat = r.get_length_prefixed();
  if (!capsule_name || !record_bytes || !heartbeat || !r.empty()) {
    return truncated("PublishMsg");
  }
  GDP_ASSIGN_OR_RETURN(capsule::Record record,
                       capsule::Record::deserialize(*record_bytes));
  PublishMsg m;
  m.capsule = *capsule_name;
  m.record = std::move(record);
  m.heartbeat = std::move(*heartbeat);
  return m;
}

// ---- StatusMsg -------------------------------------------------------------------

Bytes StatusMsg::serialize() const {
  Bytes out;
  out.push_back(ok ? 1 : 0);
  out.push_back(static_cast<std::uint8_t>(code));
  out.push_back(static_cast<std::uint8_t>(code >> 8));
  put_string(out, message);
  put_fixed64(out, nonce);
  return out;
}

Result<StatusMsg> StatusMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto ok_byte = r.get_bytes(1);
  auto code_bytes = r.get_bytes(2);
  auto message = get_string(r);
  auto nonce = r.get_fixed64();
  if (!ok_byte || !code_bytes || !message || !nonce || !r.empty()) {
    return truncated("StatusMsg");
  }
  StatusMsg m;
  m.ok = (*ok_byte)[0] != 0;
  m.code = static_cast<std::uint16_t>((*code_bytes)[0] |
                                      (std::uint16_t((*code_bytes)[1]) << 8));
  m.message = std::move(*message);
  m.nonce = *nonce;
  return m;
}

// ---- SyncPullMsg / SyncPushMsg ------------------------------------------------------

Bytes SyncPullMsg::serialize() const {
  Bytes out;
  put_name(out, capsule);
  put_fixed64(out, tip_seqno);
  put_name_list(out, holes);
  return out;
}

Result<SyncPullMsg> SyncPullMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto capsule_name = get_name(r);
  auto tip = r.get_fixed64();
  auto holes = get_name_list(r);
  if (!capsule_name || !tip || !holes || !r.empty()) return truncated("SyncPullMsg");
  SyncPullMsg m;
  m.capsule = *capsule_name;
  m.tip_seqno = *tip;
  m.holes = std::move(*holes);
  return m;
}

Bytes SyncPushMsg::serialize() const {
  Bytes out;
  put_name(out, capsule);
  put_bytes_list(out, records);
  put_fixed64(out, resume_cursor);
  return out;
}

Result<SyncPushMsg> SyncPushMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto capsule_name = get_name(r);
  auto records = get_bytes_list(r);
  auto cursor = r.get_fixed64();
  if (!capsule_name || !records || !cursor || !r.empty()) {
    return truncated("SyncPushMsg");
  }
  SyncPushMsg m;
  m.capsule = *capsule_name;
  m.records = std::move(*records);
  m.resume_cursor = *cursor;
  return m;
}

// ---- Merkle-summary anti-entropy ----------------------------------------------------

namespace {

void put_tree_node(Bytes& out, const TreeNode& n) {
  put_fixed64(out, n.first);
  put_fixed64(out, n.last);
  put_name(out, n.hash);
}

std::optional<TreeNode> get_tree_node(ByteReader& r) {
  auto first = r.get_fixed64();
  auto last = r.get_fixed64();
  auto hash = get_name(r);
  if (!first || !last || !hash) return std::nullopt;
  return TreeNode{*first, *last, *hash};
}

}  // namespace

Bytes SyncSummaryMsg::serialize() const {
  Bytes out;
  put_name(out, capsule);
  put_fixed64(out, tip_seqno);
  put_name(out, tip_hash);
  put_name(out, root_hash);
  return out;
}

Result<SyncSummaryMsg> SyncSummaryMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto capsule_name = get_name(r);
  auto tip = r.get_fixed64();
  auto tip_hash = get_name(r);
  auto root = get_name(r);
  if (!capsule_name || !tip || !tip_hash || !root || !r.empty()) {
    return truncated("SyncSummaryMsg");
  }
  SyncSummaryMsg m;
  m.capsule = *capsule_name;
  m.tip_seqno = *tip;
  m.tip_hash = *tip_hash;
  m.root_hash = *root;
  return m;
}

Bytes SyncDescendMsg::serialize() const {
  Bytes out;
  put_name(out, capsule);
  out.push_back(kind);
  put_fixed64(out, tip_seqno);
  put_varint(out, nodes.size());
  for (const TreeNode& n : nodes) put_tree_node(out, n);
  return out;
}

Result<SyncDescendMsg> SyncDescendMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto capsule_name = get_name(r);
  auto kind_byte = r.get_bytes(1);
  auto tip = r.get_fixed64();
  auto count = r.get_varint();
  if (!capsule_name || !kind_byte || (*kind_byte)[0] > 1 || !tip || !count ||
      *count > 4096) {
    return truncated("SyncDescendMsg");
  }
  SyncDescendMsg m;
  m.capsule = *capsule_name;
  m.kind = (*kind_byte)[0];
  m.tip_seqno = *tip;
  m.nodes.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto n = get_tree_node(r);
    if (!n) return truncated("SyncDescendMsg node");
    m.nodes.push_back(*n);
  }
  if (!r.empty()) return truncated("SyncDescendMsg");
  return m;
}

Bytes SyncRangeMsg::serialize() const {
  Bytes out;
  put_name(out, capsule);
  put_varint(out, ranges.size());
  for (const Range& rg : ranges) {
    put_fixed64(out, rg.first);
    put_fixed64(out, rg.last);
  }
  put_name_list(out, holes);
  put_fixed64(out, cursor);
  return out;
}

Result<SyncRangeMsg> SyncRangeMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto capsule_name = get_name(r);
  auto count = r.get_varint();
  if (!capsule_name || !count || *count > 4096) return truncated("SyncRangeMsg");
  SyncRangeMsg m;
  m.capsule = *capsule_name;
  m.ranges.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto first = r.get_fixed64();
    auto last = r.get_fixed64();
    if (!first || !last) return truncated("SyncRangeMsg range");
    m.ranges.push_back(Range{*first, *last});
  }
  auto holes = get_name_list(r);
  auto cursor = r.get_fixed64();
  if (!holes || !cursor || !r.empty()) return truncated("SyncRangeMsg");
  m.holes = std::move(*holes);
  m.cursor = *cursor;
  return m;
}

// ---- Advertisement handshake ---------------------------------------------------------

Bytes AdvertiseMsg::serialize() const {
  Bytes out;
  put_length_prefixed(out, principal);
  put_bytes_list(out, catalog_records);
  return out;
}

Result<AdvertiseMsg> AdvertiseMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto principal = r.get_length_prefixed();
  auto catalog = get_bytes_list(r);
  if (!principal || !catalog || !r.empty()) return truncated("AdvertiseMsg");
  AdvertiseMsg m;
  m.principal = std::move(*principal);
  m.catalog_records = std::move(*catalog);
  return m;
}

Bytes ChallengeMsg::serialize() const {
  Bytes out;
  put_length_prefixed(out, nonce);
  return out;
}

Result<ChallengeMsg> ChallengeMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto nonce = r.get_length_prefixed();
  if (!nonce || !r.empty()) return truncated("ChallengeMsg");
  ChallengeMsg m;
  m.nonce = std::move(*nonce);
  return m;
}

Bytes ChallengeReplyMsg::serialize() const {
  Bytes out;
  put_length_prefixed(out, principal);
  put_length_prefixed(out, nonce_sig);
  put_length_prefixed(out, rt_cert);
  return out;
}

Result<ChallengeReplyMsg> ChallengeReplyMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto principal = r.get_length_prefixed();
  auto sig = r.get_length_prefixed();
  auto rt = r.get_length_prefixed();
  if (!principal || !sig || !rt || !r.empty()) return truncated("ChallengeReplyMsg");
  ChallengeReplyMsg m;
  m.principal = std::move(*principal);
  m.nonce_sig = std::move(*sig);
  m.rt_cert = std::move(*rt);
  return m;
}

Bytes AdvertiseOkMsg::serialize() const {
  Bytes out;
  out.push_back(ok ? 1 : 0);
  put_string(out, message);
  put_fixed32(out, accepted);
  return out;
}

Result<AdvertiseOkMsg> AdvertiseOkMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto ok_byte = r.get_bytes(1);
  auto message = get_string(r);
  auto accepted = r.get_fixed32();
  if (!ok_byte || !message || !accepted || !r.empty()) return truncated("AdvertiseOkMsg");
  AdvertiseOkMsg m;
  m.ok = (*ok_byte)[0] != 0;
  m.message = std::move(*message);
  m.accepted = *accepted;
  return m;
}

// ---- GLookupService -------------------------------------------------------------------

Bytes LookupMsg::serialize() const {
  Bytes out;
  put_name(out, target);
  put_name(out, querying_router);
  put_fixed64(out, nonce);
  return out;
}

Result<LookupMsg> LookupMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto target = get_name(r);
  auto router = get_name(r);
  auto nonce = r.get_fixed64();
  if (!target || !router || !nonce || !r.empty()) return truncated("LookupMsg");
  LookupMsg m;
  m.target = *target;
  m.querying_router = *router;
  m.nonce = *nonce;
  return m;
}

Bytes LookupReplyMsg::serialize() const {
  Bytes out;
  out.push_back(found ? 1 : 0);
  put_name(out, target);
  put_name(out, attachment_router);
  put_name(out, next_hop);
  put_fixed32(out, cost_us);
  put_fixed64(out, nonce);
  put_fixed64(out, static_cast<std::uint64_t>(expires_ns));
  put_length_prefixed(out, evidence);
  put_length_prefixed(out, principal);
  put_fixed32(out, static_cast<std::uint32_t>(alternates.size()));
  for (const ReplicaOption& opt : alternates) {
    put_name(out, opt.attachment_router);
    put_name(out, opt.next_hop);
    put_fixed32(out, opt.cost_us);
    put_fixed64(out, static_cast<std::uint64_t>(opt.expires_ns));
    put_length_prefixed(out, opt.evidence);
    put_length_prefixed(out, opt.principal);
  }
  return out;
}

Result<LookupReplyMsg> LookupReplyMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto found_byte = r.get_bytes(1);
  auto target = get_name(r);
  auto attachment = get_name(r);
  auto next_hop = get_name(r);
  auto cost = r.get_fixed32();
  auto nonce = r.get_fixed64();
  auto expires = r.get_fixed64();
  auto evidence = r.get_length_prefixed();
  auto principal = r.get_length_prefixed();
  auto alt_count = r.get_fixed32();
  if (!found_byte || !target || !attachment || !next_hop || !cost || !nonce ||
      !expires || !evidence || !principal || !alt_count) {
    return truncated("LookupReplyMsg");
  }
  std::vector<LookupReplyMsg::ReplicaOption> alternates;
  for (std::uint32_t i = 0; i < *alt_count; ++i) {
    auto alt_router = get_name(r);
    auto alt_hop = get_name(r);
    auto alt_cost = r.get_fixed32();
    auto alt_expires = r.get_fixed64();
    auto alt_evidence = r.get_length_prefixed();
    auto alt_principal = r.get_length_prefixed();
    if (!alt_router || !alt_hop || !alt_cost || !alt_expires || !alt_evidence ||
        !alt_principal) {
      return truncated("LookupReplyMsg alternate");
    }
    LookupReplyMsg::ReplicaOption opt;
    opt.attachment_router = *alt_router;
    opt.next_hop = *alt_hop;
    opt.cost_us = *alt_cost;
    opt.expires_ns = static_cast<std::int64_t>(*alt_expires);
    opt.evidence = std::move(*alt_evidence);
    opt.principal = std::move(*alt_principal);
    alternates.push_back(std::move(opt));
  }
  if (!r.empty()) return truncated("LookupReplyMsg");
  LookupReplyMsg m;
  m.found = (*found_byte)[0] != 0;
  m.target = *target;
  m.attachment_router = *attachment;
  m.next_hop = *next_hop;
  m.cost_us = *cost;
  m.nonce = *nonce;
  m.expires_ns = static_cast<std::int64_t>(*expires);
  m.evidence = std::move(*evidence);
  m.principal = std::move(*principal);
  m.alternates = std::move(alternates);
  return m;
}

Bytes LoadReportMsg::serialize() const {
  Bytes out;
  put_name(out, server);
  put_fixed32(out, queue_depth);
  put_fixed32(out, shed_level);
  put_fixed64(out, expected_delay_ns);
  return out;
}

Result<LoadReportMsg> LoadReportMsg::deserialize(BytesView b) {
  ByteReader r(b);
  auto server = get_name(r);
  auto depth = r.get_fixed32();
  auto level = r.get_fixed32();
  auto delay = r.get_fixed64();
  if (!server || !depth || !level || !delay || !r.empty()) {
    return truncated("LoadReportMsg");
  }
  LoadReportMsg m;
  m.server = *server;
  m.queue_depth = *depth;
  m.shed_level = *level;
  m.expected_delay_ns = *delay;
  return m;
}

}  // namespace gdp::wire
