// The benchmark's workloads.  Each runs one closed-loop client (one op in
// flight, one thread) against the two-replica Deployment and checks every
// result it gets back.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>

#include "bench.hpp"
#include "layers.hpp"

namespace perfbench {

/// Op kinds a workload issues itself.  Per-layer metrics of the other
/// kinds come from the fixed probe (run_probe) of the traced run.
enum class OpKind { kAppend, kReadOne, kReadRange, kFs };

class Workload {
 public:
  explicit Workload(const Options& options) : options_(options) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds a fresh deployment and its data (the timed set-up).
  virtual void setup() = 0;
  /// Destroys the current deployment (not part of the timed set-up).
  virtual void teardown() { deployment_ = {}; }
  /// Op number `i` of the run; `tracing` is set in the traced phase.
  virtual void op(std::uint64_t i, Tracing* tracing) = 0;
  /// Checks the replicas once the op loop has ended.
  virtual void finish() {}
  /// Layer-replay inputs drawn from this workload's own records.
  virtual ReplayInput replay_input() = 0;
  /// Ops per phase of the traced run (fixed, so counts repeat exactly).
  virtual std::uint64_t traced_ops() const = 0;
  virtual std::set<OpKind> kinds() const = 0;
  /// Percentile reported as the end-to-end tail of the primary op, fixed
  /// per workload: p90, or lower when a run holds too few ops for ten
  /// samples beyond it.
  virtual double tail_percentile() const = 0;
  /// Ops after which peak RSS is read, so the figure does not grow with
  /// throughput (replicas keep every record in memory).
  virtual std::uint64_t rss_ops() const = 0;
  /// The hash-pointer strategy the workload's data capsules got.
  virtual std::string hash_strategy() const = 0;
  /// Workload-specific end-to-end figures named after the op they time,
  /// printed next to the generic ones.
  virtual Metrics named_metrics() const = 0;

  /// Restarts the latency/throughput accounting.
  void reset_samples();
  /// Scales the ops of the open gauge window; call before reading samples.
  void close_window();
  Deployment& deployment() { return deployment_; }
  Ledger& ledger() { return ledger_; }
  /// User payload bytes the current deployment stores.
  double stored_user_bytes() const { return stored_user_bytes_; }

  /// Primary-op latency samples (us at reference host speed) and busy-time
  /// throughput figures.
  const Samples& primary() const { return primary_; }
  double busy_s() const { return busy_us_ / 1e6; }
  /// Unscaled wall-clock busy time.
  double raw_busy_s() const { return raw_busy_us_ / 1e6; }
  HostGauge& gauge() { return gauge_; }
  std::uint64_t ops() const { return ops_; }
  double moved_bytes() const { return moved_bytes_; }

 protected:
  /// Accounts one finished op of wall time `raw_us` that moved `bytes`;
  /// its time at reference host speed lands in `dest` when the gauge
  /// window closes.
  void account(double raw_us, double bytes, Samples& dest);

  Options options_;
  Deployment deployment_;
  Ledger ledger_;
  Samples primary_;
  double stored_user_bytes_ = 0;

 private:
  virtual void reset_extra() {}
  struct Pending {
    double raw_us;
    Samples* dest;
  };
  /// Ops of the open gauge window (closed every kWindowUs of busy time).
  static constexpr double kWindowUs = 250e3;
  std::vector<Pending> pending_;
  double pending_us_ = 0;
  HostGauge gauge_;
  double busy_us_ = 0;
  double raw_busy_us_ = 0;
  double moved_bytes_ = 0;
  std::uint64_t ops_ = 0;
};

std::unique_ptr<Workload> make_workload(const Options& options);

/// Runs a fixed small mix of every op kind on `d` — appends and reads of
/// a probe capsule, one CapsuleFS file written and read — recording spans
/// into `tracing`.  Returns client ops started per probe file.
double run_probe(Deployment& d, Tracing& tracing, Ledger& ledger,
                 std::uint64_t seed, bool tiny);

/// Highest percentile of {50, 90, 99, 99.9} with at least ten samples
/// beyond it.
double tail_rank(std::size_t samples);

}  // namespace perfbench
