#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>

namespace perfbench {

double Samples::sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double HostGauge::block_us() {
  // ~11 MB of record-sized buffers, built once per process.
  static const std::unordered_map<std::uint64_t, Bytes> records = [] {
    std::unordered_map<std::uint64_t, Bytes> m;
    for (std::uint64_t k = 0; k < kGaugeRecords; ++k) {
      m.emplace(k, Bytes(300 + k % 64, static_cast<std::uint8_t>(k)));
    }
    return m;
  }();
  const std::int64_t t0 = wall_ns();
  // Arithmetic half: independent 64x64->128 multiply-adds.
  unsigned __int128 acc[4] = {};
  std::uint64_t a = seed_;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    for (std::uint64_t k = 0; k < 4; ++k) {
      acc[k] += static_cast<unsigned __int128>(a + k) * (0x9E3779B97F4A7C15ULL ^ i);
    }
    a = a * 6364136223846793005ULL + 1;
  }
  // Memory half: hash lookups and copies of record-sized buffers.
  std::uint64_t bytes = 0;
  for (int j = 0; j < 40; ++j) {
    a = a * 6364136223846793005ULL + 1442695040888963407ULL;
    const Bytes copy = records.at((a >> 20) % kGaugeRecords);
    bytes += copy[static_cast<std::size_t>(j)];
  }
  // Feeding the result back keeps the compiler from dropping the block.
  seed_ ^= (static_cast<std::uint64_t>(acc[0] ^ acc[1] ^ acc[2] ^ acc[3]) + bytes) | 1;
  return static_cast<double>(wall_ns() - t0) / 1e3;
}

void HostGauge::run_after(double spent_us, double share) {
  double total = 0;
  for (int blocks = 0; blocks < 2 || total < share * spent_us; ++blocks) {
    const double b = block_us();
    window_.add(b);
    total += b;
  }
}

double HostGauge::close_window() {
  if (window_.empty()) run_after(0);
  const double factor = kNominalBlockUs / window_.median();
  window_ = {};
  factor_sum_ += factor;
  ++windows_;
  return factor;
}

bool Ledger::check(bool ok, const std::string& what) {
  if (ok) return true;
  if (failed_ < 5) std::cerr << "perfbench: FAILED: " << what << "\n";
  ++failed_;
  return false;
}

Bytes payload_for(std::uint64_t seed, std::uint64_t stream, std::uint64_t index,
                  std::size_t size) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL ^ (stream << 48) ^ index);
  return rng.next_bytes(size);
}

Deployment Deployment::build(std::uint64_t seed, const std::string& tag) {
  Deployment d;
  d.scenario = std::make_unique<harness::Scenario>(seed, tag);
  harness::Scenario& s = *d.scenario;
  auto* domain = s.add_domain("g", nullptr);
  d.r1 = s.add_router("r1", domain);
  d.r2 = s.add_router("r2", domain);
  s.link_routers(d.r1, d.r2, net::LinkParams::lan());
  d.s0 = s.add_server("s0", d.r1);
  d.s1 = s.add_server("s1", d.r2);
  d.writer = s.add_client("c0", d.r1);
  d.reader = s.add_client("c1", d.r1);
  s.attach_all();
  return d;
}

StatsSnapshot::StatsSnapshot(harness::Scenario& scenario) {
  // stats_json() is {"counters": {"name": value, ...}, "histograms": ...};
  // only the flat counter object is read here.
  const std::string json = scenario.stats_json();
  std::size_t pos = json.find("\"counters\"");
  if (pos == std::string::npos) return;
  pos = json.find('{', pos);
  while (pos != std::string::npos) {
    const std::size_t key_start = json.find_first_of("\"}", pos + 1);
    if (key_start == std::string::npos || json[key_start] == '}') break;
    const std::size_t key_end = json.find('"', key_start + 1);
    const std::size_t colon = json.find(':', key_end);
    std::size_t value_end = json.find_first_of(",}", colon);
    counters_.emplace_back(json.substr(key_start + 1, key_end - key_start - 1),
                           std::strtod(json.c_str() + colon + 1, nullptr));
    if (json[value_end] == '}') break;
    pos = value_end;
  }
}

double StatsSnapshot::sum(std::string_view prefix, std::string_view suffix) const {
  double total = 0;
  for (const auto& [name, value] : counters_) {
    if (name.starts_with(prefix) && name.ends_with(suffix)) total += value;
  }
  return total;
}

StoreCounts StoreCounts::of(const server::CapsuleServer& server) {
  StoreCounts c;
  for (const Name& name : server.storage().hosted()) {
    const store::CapsuleStore* cs = server.storage().find(name);
    c.records += static_cast<double>(cs->log().entry_count());
    c.flushes += static_cast<double>(cs->log().sync_count());
    c.payload_bytes += static_cast<double>(cs->log().payload_bytes());
  }
  return c;
}

std::int64_t SpanLog::add(std::string_view name, std::int64_t parent,
                          std::uint64_t op, std::int64_t start_ns,
                          std::int64_t end_ns) {
  auto [it, inserted] = ids_.try_emplace(std::string(name),
                                         static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.emplace_back(name);
  spans_.push_back({it->second, parent, op, start_ns, end_ns});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

Samples SpanLog::durations_us(std::string_view name) const {
  Samples out;
  auto it = ids_.find(std::string(name));
  if (it == ids_.end()) return out;
  for (const Span& s : spans_) {
    if (s.name == it->second) {
      out.add(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

void SpanLog::write_json(const std::filesystem::path& path) const {
  std::ofstream out(path);
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << names_[s.name]
        << "\", \"start_ns\": " << s.start_ns - base
        << ", \"end_ns\": " << s.end_ns - base << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

HopTracer::HopTracer(net::Network& net,
                     const std::vector<std::pair<Name, Role>>& known_nodes)
    : net_(net) {
  // Every directed link reachable from the known nodes gets a stamp hook.
  std::deque<Name> frontier;
  for (const auto& [name, role] : known_nodes) {
    index_of(name);
    roles_[static_cast<std::size_t>(index_.at(name))] = role;
    frontier.push_back(name);
  }
  std::unordered_map<Name, bool> seen;
  while (!frontier.empty()) {
    const Name node = frontier.front();
    frontier.pop_front();
    if (seen[node]) continue;
    seen[node] = true;
    for (const Name& peer : net_.neighbors(node)) {
      const int from = index_of(node);
      const int to = index_of(peer);
      links_.emplace_back(node, peer);
      net_.set_interceptor(node, peer, [this, from, to](const wire::Pdu& pdu) {
        hops_.push_back({wall_ns(), from, to, pdu.type});
        return std::optional<wire::Pdu>(pdu);
      });
      frontier.push_back(peer);
    }
  }
}

HopTracer::~HopTracer() {
  for (const auto& [from, to] : links_) net_.clear_interceptor(from, to);
}

int HopTracer::index_of(const Name& name) {
  auto [it, inserted] = index_.try_emplace(name, static_cast<int>(roles_.size()));
  if (inserted) roles_.push_back(Role::kOther);
  return it->second;
}

void HopTracer::add_spans(SpanLog& log, const std::vector<Hop>& hops,
                          std::int64_t parent, std::uint64_t op,
                          std::int64_t resolved_ns) const {
  using wire::MsgType;
  // The last response delivered to a client before the op resolved.
  std::size_t last_response = hops.size();
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const Hop& h = hops[i];
    if (roles_[static_cast<std::size_t>(h.to)] == Role::kClient &&
        (h.type == MsgType::kReadResponse || h.type == MsgType::kAppendAck) &&
        (resolved_ns == 0 || h.t_ns <= resolved_ns)) {
      last_response = i;
    }
  }
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const Hop& h = hops[i];
    const Role role = roles_[static_cast<std::size_t>(h.to)];
    if (role == Role::kClient) {
      if (i == last_response && resolved_ns != 0) {
        log.add(h.type == MsgType::kReadResponse ? "client.response.handle"
                                                 : "client.ack.handle",
                parent, op, h.t_ns, resolved_ns);
      }
      continue;
    }
    if (role != Role::kRouter && role != Role::kServer) continue;
    // The receiver's own sends must follow directly; anything else means
    // another event ran in between and the span cannot be attributed.
    std::size_t last = i;
    while (last + 1 < hops.size() && hops[last + 1].from == h.to) ++last;
    if (last == i) continue;
    if (role == Role::kRouter) {
      log.add("router.fwd", parent, op, h.t_ns, hops[i + 1].t_ns);
      continue;
    }
    const char* name = h.type == MsgType::kAppend     ? "server.append.handle"
                       : h.type == MsgType::kSyncPush ? "server.replica_push.handle"
                       : h.type == MsgType::kRead     ? "server.read.handle"
                                                      : "server.other.handle";
    log.add(name, parent, op, h.t_ns, hops[last].t_ns);
  }
}

void Tracing::start(Deployment& d) {
  using Role = HopTracer::Role;
  hops = std::make_unique<HopTracer>(
      d.scenario->net(),
      std::vector<std::pair<Name, Role>>{{d.r1->name(), Role::kRouter},
                                         {d.r2->name(), Role::kRouter},
                                         {d.s0->name(), Role::kServer},
                                         {d.s1->name(), Role::kServer},
                                         {d.writer->name(), Role::kClient},
                                         {d.reader->name(), Role::kClient}});
}

void Tracing::record_op(std::string_view kind, std::int64_t t_issue,
                        std::int64_t t_sent, std::int64_t t_done,
                        std::int64_t t_resolved) {
  const std::uint64_t op = next_op++;
  const std::string k(kind);
  const std::int64_t root = log.add("op." + k, -1, op, t_issue, t_done);
  log.add("client." + k + ".issue", root, op, t_issue, t_sent);
  const std::int64_t wait = log.add("client." + k + ".await", root, op, t_sent, t_done);
  if (hops) hops->add_spans(log, hops->take(), wait, op, t_resolved);
}

void Tracing::record_call(std::string_view name, std::int64_t t0, std::int64_t t1) {
  const std::uint64_t op = next_op++;
  const std::int64_t root = log.add(name, -1, op, t0, t1);
  if (hops) hops->add_spans(log, hops->take(), root, op, 0);
}

}  // namespace perfbench
