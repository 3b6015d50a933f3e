// Shared pieces of the end-to-end benchmark: wall-clock samples, the
// metric list a run reports, the correctness ledger, the two-server
// deployment every workload runs on, and the traced-run span recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"

namespace perfbench {

using namespace gdp;

/// Wall-clock nanoseconds on the steady clock.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A set of measured values with nearest-rank percentiles.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double sum() const;
  /// Nearest-rank percentile, p in (0, 100]; 0 when empty.
  double percentile(double p) const;
  double median() const { return percentile(50); }

 private:
  std::vector<double> values_;
};

/// Host-speed gauge.  Shared hosts slow this process down by up to a
/// third for tens of seconds at a time (other tenants contending for the
/// same cores and memory).  After each timed op the gauge times a fixed
/// block of work — independent multiply-adds, then hash lookups and
/// copies of record-sized buffers; code of the benchmark's own, not of the
/// library — and the ops of a window are scaled by nominal / median block
/// time of that window, so the reported figure is the op's time at a
/// steady reference host speed.  A change to the library moves the op time
/// and not the block, so the scaled figure keeps every real gain or loss.
class HostGauge {
 public:
  /// Reference block time: about the block's time on a lightly loaded
  /// 4-core Intel Xeon KVM guest (2.0 GHz, RelWithDebInfo build).
  static constexpr double kNominalBlockUs = 30.0;
  static constexpr std::uint64_t kGaugeRecords = 32768;

  /// Times blocks for at least `share` of `spent_us` (two at least), the
  /// wall time of an op that just ended, into the current window.
  void run_after(double spent_us, double share = 0.05);
  /// Scale factor of the current window (nominal / median block time);
  /// starts the next window.
  double close_window();
  /// Mean factor over the windows closed so far (reported with results).
  double mean_factor() const { return windows_ ? factor_sum_ / windows_ : 1.0; }

 private:
  double block_us();

  Samples window_;
  double factor_sum_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t seed_ = 0x2545F4914F6CDD1DULL;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note = {};  ///< printed next to the value (sample count, source)
};
using Metrics = std::vector<Metric>;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small fixed sizes for the repeatability smoke test.
  bool tiny = false;
  /// Where the traced run writes its span dump.
  std::filesystem::path out_dir = ".";
  /// Provenance passed in by the launcher (source revision).
  std::string rev = "unknown";
};

/// Counts attempted and failed operations; a failure is an error, a guard
/// timeout, a verification failure or a payload mismatch.
class Ledger {
 public:
  void attempt() { ++attempted_; }
  /// Returns `ok`; on false counts a failure and logs the first few.
  bool check(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Seeded payload bytes: the same (seed, stream, index) always yields the
/// same bytes, so reads can be checked without keeping what was written.
Bytes payload_for(std::uint64_t seed, std::uint64_t stream, std::uint64_t index,
                  std::size_t size);

/// Two replicas behind two routers: s0 on r1, s1 on r2, r1-r2 over a LAN
/// link, both clients (writer c0, reader c1) on r1.
struct Deployment {
  std::unique_ptr<harness::Scenario> scenario;
  router::Router* r1 = nullptr;
  router::Router* r2 = nullptr;
  server::CapsuleServer* s0 = nullptr;
  server::CapsuleServer* s1 = nullptr;
  client::GdpClient* writer = nullptr;
  client::GdpClient* reader = nullptr;

  static Deployment build(std::uint64_t seed, const std::string& tag);
  net::Simulator& sim() { return scenario->sim(); }
  std::vector<server::CapsuleServer*> servers() const { return {s0, s1}; }
};

/// Sums every counter in `Scenario::stats_json()` whose name ends with
/// `suffix` (and starts with `prefix`).
class StatsSnapshot {
 public:
  explicit StatsSnapshot(harness::Scenario& scenario);
  double sum(std::string_view prefix, std::string_view suffix) const;

 private:
  std::vector<std::pair<std::string, double>> counters_;
};

/// Flush and byte counts of one server's storage, summed over every
/// capsule it hosts (read from the store, not from stats_json, whose
/// per-capsule gauges are shared by all replicas).
struct StoreCounts {
  double records = 0;
  double flushes = 0;
  double payload_bytes = 0;
  static StoreCounts of(const server::CapsuleServer& server);
};

/// In-memory spans of the traced run, written out at exit.
class SpanLog {
 public:
  std::int64_t add(std::string_view name, std::int64_t parent, std::uint64_t op,
                   std::int64_t start_ns, std::int64_t end_ns);
  /// Durations in microseconds of every span called `name`.
  Samples durations_us(std::string_view name) const;
  std::size_t size() const { return spans_.size(); }
  void write_json(const std::filesystem::path& path) const;

 private:
  struct Span {
    std::uint32_t name;
    std::int64_t parent;
    std::uint64_t op;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
};

/// Wall stamps of every link send, taken by interceptors on every directed
/// link of the fabric.  Turned into per-hop spans after each op: a node's
/// handler runs synchronously, so the sends it makes are contiguous and
/// its handling time reaches from the stamp of the PDU sent to it to the
/// stamp of its own last send.
class HopTracer {
 public:
  enum class Role { kRouter, kServer, kClient, kOther };
  struct Hop {
    std::int64_t t_ns;
    int from;
    int to;
    wire::MsgType type;
  };

  HopTracer(net::Network& net,
            const std::vector<std::pair<Name, Role>>& known_nodes);
  ~HopTracer();
  HopTracer(const HopTracer&) = delete;
  HopTracer& operator=(const HopTracer&) = delete;

  std::vector<Hop> take() { return std::exchange(hops_, {}); }

  /// Adds the hop spans of one op (children of `parent`).  `resolved_ns`
  /// is when the client resolved the op (0 = unknown).
  void add_spans(SpanLog& log, const std::vector<Hop>& hops, std::int64_t parent,
                 std::uint64_t op, std::int64_t resolved_ns) const;

 private:
  int index_of(const Name& name);

  net::Network& net_;
  std::unordered_map<Name, int> index_;
  std::vector<Role> roles_;
  std::vector<std::pair<Name, Name>> links_;
  std::vector<Hop> hops_;
};

/// Records op spans in the traced run: op root, client issue and await,
/// and the hop spans collected while the op ran.
struct Tracing {
  SpanLog log;
  std::unique_ptr<HopTracer> hops;
  std::uint64_t next_op = 1;

  void start(Deployment& d);
  void stop() { hops.reset(); }
  /// One closed-loop client op of kind `kind` (append, read_one, ...).
  void record_op(std::string_view kind, std::int64_t t_issue, std::int64_t t_sent,
                 std::int64_t t_done, std::int64_t t_resolved);
  /// An op whose client calls happen inside a library call (CapsuleFS).
  void record_call(std::string_view name, std::int64_t t0, std::int64_t t1);
};

}  // namespace perfbench
