#include "workloads.hpp"

#include <iostream>

#include "caapi/fs.hpp"

namespace perfbench {
namespace {

// Payload streams of payload_for(), one per kind of data.
constexpr std::uint64_t kAppendStream = 1;
constexpr std::uint64_t kPrefillStream = 2;
constexpr std::uint64_t kFileStream = 3;
constexpr std::uint64_t kProbeStream = 4;

constexpr std::size_t kRecordBytes = 256;
constexpr std::uint64_t kRangeLen = 64;

std::string strategy_of(const capsule::Metadata& m) {
  return m.get("hash_strategy").value_or("unknown");
}

/// Places `setup`'s capsule on both replicas through the writer client.
void place(Deployment& d, const harness::CapsuleSetup& setup) {
  Status st = harness::place_capsule(*d.scenario, setup, *d.writer, d.servers());
  if (!st.ok()) {
    std::cerr << "perfbench: placement failed: " << st.to_string() << "\n";
    std::exit(2);
  }
}

/// Issues one traced-or-not client op: `issue` returns the OpPtr, the op
/// is awaited, and its spans are recorded under `kind`.
template <typename T, typename Issue>
Result<T> run_client_op(Deployment& d, Tracing* tracing, std::string_view kind,
                        Issue&& issue, double& latency_us, bool& timed_out) {
  const std::int64_t t0 = wall_ns();
  client::OpPtr<T> op = issue();
  const std::int64_t t1 = wall_ns();
  std::int64_t resolved = 0;
  if (tracing != nullptr) op->on_resolved = [&resolved](const Result<T>&) { resolved = wall_ns(); };
  client::AwaitCondition cond = client::AwaitCondition::kResolved;
  Result<T> r = client::await(d.sim(), op, &cond);
  const std::int64_t t2 = wall_ns();
  op->on_resolved = nullptr;
  latency_us = static_cast<double>(t2 - t0) / 1e3;
  timed_out = cond != client::AwaitCondition::kResolved;
  if (tracing != nullptr) tracing->record_op(kind, t0, t1, t2, resolved);
  return r;
}

/// Checks a verified read against the seeded payloads.
bool read_matches(const Result<client::ReadOutcome>& r, std::uint64_t first,
                  std::uint64_t last, std::uint64_t seed, std::uint64_t stream,
                  std::size_t size) {
  if (!r.ok() || r->records.size() != last - first + 1) return false;
  for (std::uint64_t k = 0; k < r->records.size(); ++k) {
    const capsule::Record& rec = r->records[k];
    if (rec.header.seqno != first + k) return false;
    if (rec.payload != payload_for(seed, stream, first + k, size)) return false;
  }
  return true;
}

std::string describe(const Result<client::ReadOutcome>& r, bool timed_out) {
  if (timed_out) return "guard timeout";
  return r.ok() ? "payload or seqno mismatch" : r.error().to_string();
}

/// Seeded uniform positions in [1, n], stratified: every `strata`
/// draws visit each of `strata` equal slices once, in a seeded order, so
/// a run's latency percentiles depend little on the seed's luck.
class StratifiedPositions {
 public:
  StratifiedPositions(std::uint64_t seed, std::uint64_t n, std::uint64_t strata)
      : rng_(seed), n_(n), order_(strata) {
    for (std::uint64_t k = 0; k < strata; ++k) order_[k] = k;
    next_ = strata;
  }

  std::uint64_t draw() {
    if (next_ == order_.size()) {
      for (std::size_t k = order_.size() - 1; k > 0; --k) {
        std::swap(order_[k], order_[rng_.next_below(k + 1)]);
      }
      next_ = 0;
    }
    const std::uint64_t s = order_[next_++];
    const std::uint64_t lo = s * n_ / order_.size();
    const std::uint64_t hi = (s + 1) * n_ / order_.size();
    return 1 + lo + rng_.next_below(std::max<std::uint64_t>(1, hi - lo));
  }

 private:
  Rng rng_;
  std::uint64_t n_;
  std::vector<std::uint64_t> order_;
  std::size_t next_;
};

Metric latency_metric(const std::string& base, const Samples& s, bool tail) {
  if (!tail) {
    return {base + "_p50_us", s.median(), "us", "n=" + std::to_string(s.size())};
  }
  const double p = tail_rank(s.size());
  char label[32];
  std::snprintf(label, sizeof label, "_p%g_us", p);
  return {base + label, s.percentile(p), "us", "n=" + std::to_string(s.size())};
}

// ---- append_small -----------------------------------------------------------

class AppendSmall final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    deployment_ = Deployment::build(options_.seed, "append");
    cap_.emplace(harness::make_capsule(deployment_.scenario->key_rng(), "append-small"));
    place(deployment_, *cap_);
    writer_.emplace(cap_->make_writer());
    next_seq_ = 1;
    stored_user_bytes_ = 0;
    // The first append establishes the HMAC session and the route.
    append(nullptr);
  }

  void teardown() override {
    writer_.reset();
    Workload::teardown();
  }

  void op(std::uint64_t, Tracing* tracing) override {
    account(append(tracing), kRecordBytes, primary_);
  }

  void finish() override {
    deployment_.scenario->settle();
    const std::uint64_t last = next_seq_ - 1;
    for (server::CapsuleServer* s : deployment_.servers()) {
      const store::CapsuleStore* cs = s->storage().find(cap_->metadata.name());
      ledger_.check(cs != nullptr && cs->state().tip_seqno() == last,
                    "replica tip differs from the last acked append");
    }
    // A verified read of the newest records must return what was appended.
    const std::uint64_t first = last > kRangeLen ? last - kRangeLen + 1 : 1;
    ledger_.attempt();
    auto r = client::await(deployment_.sim(),
                           deployment_.reader->read(cap_->metadata, first, last));
    ledger_.check(read_matches(r, first, last, options_.seed, kAppendStream, kRecordBytes),
                  "read-back of appended records");
  }

  ReplayInput replay_input() override {
    ReplayInput in;
    in.metadata = &cap_->metadata;
    in.state = &deployment_.s0->storage().find(cap_->metadata.name())->state();
    in.strategy = cap_->strategy_id;
    const std::uint64_t tip = in.state->tip_seqno();
    for (std::uint64_t i = 1; i <= std::min<std::uint64_t>(tip, options_.tiny ? 32 : 256); ++i) {
      in.payloads.push_back(payload_for(options_.seed, kAppendStream, i, kRecordBytes));
    }
    Rng rng(options_.seed ^ 0xA11CE);
    for (int i = 0; i < (options_.tiny ? 8 : 20); ++i) {
      in.point_seqnos.push_back(1 + rng.next_below(tip));
    }
    in.range_len = kRangeLen;
    return in;
  }

  std::uint64_t traced_ops() const override { return options_.tiny ? 64 : 2000; }
  std::set<OpKind> kinds() const override { return {OpKind::kAppend}; }
  double tail_percentile() const override { return 90; }
  std::uint64_t rss_ops() const override { return 5000; }
  std::string hash_strategy() const override { return strategy_of(cap_->metadata); }

  Metrics named_metrics() const override {
    return {{"append_ops_per_s", static_cast<double>(ops()) / busy_s(), "1/s"},
            latency_metric("append", primary_, false),
            latency_metric("append", primary_, true)};
  }

 private:
  double append(Tracing* tracing) {
    const std::uint64_t seq = next_seq_++;
    const Bytes payload = payload_for(options_.seed, kAppendStream, seq, kRecordBytes);
    ledger_.attempt();
    double us = 0;
    bool timed_out = false;
    auto r = run_client_op<client::AppendOutcome>(
        deployment_, tracing, "append",
        [&] { return deployment_.writer->append(*writer_, payload, 1); }, us, timed_out);
    stored_user_bytes_ += kRecordBytes;
    ledger_.check(!timed_out && r.ok() && r->seqno == seq && r->acks >= 1,
                  "append " + std::to_string(seq) + ": " +
                      (timed_out ? "guard timeout"
                                 : r.ok() ? "unexpected ack" : r.error().to_string()));
    return us;
  }

  std::optional<harness::CapsuleSetup> cap_;
  std::optional<capsule::Writer> writer_;
  std::uint64_t next_seq_ = 1;
};

// ---- read_verified ----------------------------------------------------------

class ReadVerified final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    deployment_ = Deployment::build(options_.seed, "read");
    cap_.emplace(harness::make_capsule(deployment_.scenario->key_rng(), "read-verified"));
    place(deployment_, *cap_);
    // Records signed by the capsule's writer, loaded on both replicas
    // without client traffic.
    capsule::Writer writer = cap_->make_writer();
    const std::int64_t ts = deployment_.sim().now().count();
    for (std::uint64_t i = 1; i <= records(); ++i) {
      const capsule::Record rec = writer.append(
          payload_for(options_.seed, kPrefillStream, i, kRecordBytes), ts);
      for (server::CapsuleServer* s : deployment_.servers()) {
        Status st = s->ingest_local(cap_->metadata.name(), rec);
        if (!st.ok()) {
          std::cerr << "perfbench: prefill failed: " << st.to_string() << "\n";
          std::exit(2);
        }
      }
    }
    stored_user_bytes_ = static_cast<double>(records() * kRecordBytes);
    points_.emplace(options_.seed ^ 0x5EED, records(), kStrata);
    ranges_.emplace(options_.seed ^ 0x7A9E, records() - kRangeLen + 1, kStrata / 8);
    // The first read establishes the reader's session and route.
    ledger_.attempt();
    auto r = client::await(deployment_.sim(),
                           deployment_.reader->read(cap_->metadata, records(), records()));
    ledger_.check(read_matches(r, records(), records(), options_.seed, kPrefillStream,
                               kRecordBytes),
                  "warm-up read");
  }

  void op(std::uint64_t i, Tracing* tracing) override {
    const bool range = i % 10 == 9;
    const std::uint64_t first = range ? ranges_->draw() : points_->draw();
    const std::uint64_t last = range ? first + kRangeLen - 1 : first;
    ledger_.attempt();
    double us = 0;
    bool timed_out = false;
    auto r = run_client_op<client::ReadOutcome>(
        deployment_, tracing, range ? "read_range" : "read_one",
        [&] { return deployment_.reader->read(cap_->metadata, first, last); }, us,
        timed_out);
    ledger_.check(!timed_out && read_matches(r, first, last, options_.seed,
                                             kPrefillStream, kRecordBytes),
                  "read [" + std::to_string(first) + ", " + std::to_string(last) +
                      "]: " + describe(r, timed_out));
    account(us, static_cast<double>((last - first + 1) * kRecordBytes),
            range ? range_ : primary_);
    if (range) range_records_ += static_cast<double>(kRangeLen);
  }

  ReplayInput replay_input() override {
    ReplayInput in;
    in.metadata = &cap_->metadata;
    in.state = &deployment_.s0->storage().find(cap_->metadata.name())->state();
    in.strategy = cap_->strategy_id;
    for (std::uint64_t i = 1; i <= (options_.tiny ? 32u : 256u); ++i) {
      in.payloads.push_back(payload_for(options_.seed, kPrefillStream, i, kRecordBytes));
    }
    // The first point reads of the workload's own stream.
    StratifiedPositions points(options_.seed ^ 0x5EED, records(), kStrata);
    while (in.point_seqnos.size() < (options_.tiny ? 8u : 20u)) {
      in.point_seqnos.push_back(points.draw());
    }
    in.range_len = kRangeLen;
    return in;
  }

  std::uint64_t traced_ops() const override { return options_.tiny ? 20 : 200; }
  std::set<OpKind> kinds() const override { return {OpKind::kReadOne, OpKind::kReadRange}; }
  double tail_percentile() const override { return 90; }
  std::uint64_t rss_ops() const override { return 100; }
  std::string hash_strategy() const override { return strategy_of(cap_->metadata); }

  Metrics named_metrics() const override {
    double range_busy_s = range_.sum() / 1e6;
    Metrics out = {latency_metric("read_one", primary_, false)};
    if (tail_rank(primary_.size()) > 50) out.push_back(latency_metric("read_one", primary_, true));
    out.push_back(latency_metric("read_range", range_, false));
    out.push_back(
        {"read_range_records_per_s", range_records_ / std::max(range_busy_s, 1e-9), "1/s",
         "n=" + std::to_string(range_.size())});
    return out;
  }

 private:
  std::uint64_t records() const { return options_.tiny ? 256 : 10000; }
  void reset_extra() override {
    range_ = {};
    range_records_ = 0;
  }

  std::optional<harness::CapsuleSetup> cap_;
  /// Point reads cycle through kStrata slices of the capsule, range
  /// reads through kStrata / 8.
  static constexpr std::uint64_t kStrata = 64;
  std::optional<StratifiedPositions> points_;
  std::optional<StratifiedPositions> ranges_;
  Samples range_;
  double range_records_ = 0;
};

// ---- fs_bulk ----------------------------------------------------------------

class FsBulk final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    deployment_ = Deployment::build(options_.seed, "fs");
    caapi::Mount mount = caapi::Mount::create(*deployment_.scenario, *deployment_.writer,
                                              deployment_.servers(), "bulk");
    auto fs = caapi::GdpFilesystem::mount(mount);
    if (!fs.ok()) {
      std::cerr << "perfbench: mount failed: " << fs.error().to_string() << "\n";
      std::exit(2);
    }
    fs_.emplace(std::move(fs).value());
    files_here_ = 0;
    stored_user_bytes_ = 0;
    // One small file establishes sessions and routes for both replicas.
    ledger_.attempt();
    const Bytes warm = payload_for(options_.seed, kFileStream, 0, 4096);
    ledger_.check(fs_->write_file("warm-up", warm).ok(), "warm-up write_file");
    ledger_.attempt();
    auto back = fs_->read_file("warm-up");
    ledger_.check(back.ok() && *back == warm, "warm-up read_file");
  }

  void teardown() override {
    fs_.reset();
    Workload::teardown();
  }

  void op(std::uint64_t, Tracing* tracing) override {
    // Replicas keep records in memory: a fresh deployment every few files
    // bounds the footprint (never inside a traced phase).
    if (tracing == nullptr && files_here_ == kFilesPerDeployment) {
      teardown();
      setup();
    }
    const std::uint64_t k = ++file_index_;
    const std::string path = "bulk-" + std::to_string(k);
    const Bytes content = payload_for(options_.seed, kFileStream, k, file_bytes());
    last_path_ = path;
    ++files_here_;

    ledger_.attempt();
    std::int64_t t0 = wall_ns();
    Status st = fs_->write_file(path, content);
    std::int64_t t1 = wall_ns();
    if (tracing != nullptr) tracing->record_call("caapi.fs.write_file", t0, t1);
    ledger_.check(st.ok(), "write_file " + path + ": " + st.to_string());
    account(static_cast<double>(t1 - t0) / 1e3, static_cast<double>(content.size()), primary_);
    write_bytes_ += static_cast<double>(content.size());
    stored_user_bytes_ += static_cast<double>(content.size());

    ledger_.attempt();
    t0 = wall_ns();
    auto back = fs_->read_file(path);
    t1 = wall_ns();
    if (tracing != nullptr) tracing->record_call("caapi.fs.read_file", t0, t1);
    ledger_.check(back.ok() && *back == content,
                  "read_file " + path + ": " +
                      (back.ok() ? "content mismatch" : back.error().to_string()));
    account(static_cast<double>(t1 - t0) / 1e3, static_cast<double>(content.size()), read_);
    read_bytes_ += static_cast<double>(content.size());
  }

  ReplayInput replay_input() override {
    const capsule::Metadata& meta = fs_->tree().at(last_path_).file->metadata;
    ReplayInput in;
    in.metadata = &meta;
    in.state = &deployment_.s0->storage().find(meta.name())->state();
    in.strategy = strategy_of(meta);
    const std::uint64_t chunks = in.state->tip_seqno();
    for (std::uint64_t i = 1; i <= chunks; ++i) {
      in.payloads.push_back(in.state->get_by_seqno(i)->payload);
    }
    Rng rng(options_.seed ^ 0xF11E);
    for (int i = 0; i < (options_.tiny ? 8 : 20); ++i) {
      in.point_seqnos.push_back(1 + rng.next_below(chunks));
    }
    in.range_len = chunks;
    return in;
  }

  std::uint64_t traced_ops() const override { return options_.tiny ? 1 : 2; }
  std::set<OpKind> kinds() const override { return {OpKind::kFs}; }
  double tail_percentile() const override { return 66; }
  /// Two full deployments' worth of files.
  std::uint64_t rss_ops() const override { return 2 * kFilesPerDeployment; }
  std::string hash_strategy() const override {
    if (!fs_ || last_path_.empty()) return "unknown";
    return strategy_of(fs_->tree().at(last_path_).file->metadata);
  }

  Metrics named_metrics() const override {
    return {{"fs_write_mb_per_s", write_bytes_ / 1e6 / std::max(primary_.sum() / 1e6, 1e-9),
             "MB/s", "files=" + std::to_string(primary_.size())},
            {"fs_read_mb_per_s", read_bytes_ / 1e6 / std::max(read_.sum() / 1e6, 1e-9),
             "MB/s", "files=" + std::to_string(read_.size())},
            latency_metric("fs_write_file", primary_, false),
            latency_metric("fs_read_file", read_, false)};
  }

 private:
  static constexpr int kFilesPerDeployment = 4;
  std::size_t file_bytes() const { return options_.tiny ? (1u << 20) : (8u << 20); }
  void reset_extra() override {
    read_ = {};
    write_bytes_ = 0;
    read_bytes_ = 0;
  }

  std::optional<caapi::GdpFilesystem> fs_;
  int files_here_ = 0;
  std::uint64_t file_index_ = 0;
  std::string last_path_;
  Samples read_;
  double write_bytes_ = 0;
  double read_bytes_ = 0;
};

}  // namespace

void Workload::account(double raw_us, double bytes, Samples& dest) {
  pending_.push_back({raw_us, &dest});
  pending_us_ += raw_us;
  raw_busy_us_ += raw_us;
  moved_bytes_ += bytes;
  ++ops_;
  gauge_.run_after(raw_us);
  if (pending_us_ >= kWindowUs) close_window();
}

void Workload::close_window() {
  if (pending_.empty()) return;
  const double factor = gauge_.close_window();
  for (const Pending& p : pending_) {
    p.dest->add(p.raw_us * factor);
    busy_us_ += p.raw_us * factor;
  }
  pending_.clear();
  pending_us_ = 0;
}

void Workload::reset_samples() {
  primary_ = {};
  pending_.clear();
  pending_us_ = 0;
  gauge_ = {};
  busy_us_ = 0;
  raw_busy_us_ = 0;
  moved_bytes_ = 0;
  ops_ = 0;
  reset_extra();
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "append_small") return std::make_unique<AppendSmall>(options);
  if (options.workload == "read_verified") return std::make_unique<ReadVerified>(options);
  if (options.workload == "fs_bulk") return std::make_unique<FsBulk>(options);
  return nullptr;
}

double tail_rank(std::size_t samples) {
  double best = 50;
  for (double p : {90.0, 99.0, 99.9}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) best = p;
  }
  return best;
}

double run_probe(Deployment& d, Tracing& tracing, Ledger& ledger, std::uint64_t seed,
                 bool tiny) {
  const std::uint64_t appends = tiny ? 16 : 64;
  harness::CapsuleSetup cap = harness::make_capsule(d.scenario->key_rng(), "probe");
  place(d, cap);
  tracing.hops->take();  // placement traffic is not a probe op
  capsule::Writer writer = cap.make_writer();
  double us = 0;
  bool timed_out = false;
  for (std::uint64_t seq = 1; seq <= appends; ++seq) {
    const Bytes payload = payload_for(seed, kProbeStream, seq, kRecordBytes);
    ledger.attempt();
    auto r = run_client_op<client::AppendOutcome>(
        d, &tracing, "append", [&] { return d.writer->append(writer, payload, 1); }, us,
        timed_out);
    ledger.check(!timed_out && r.ok() && r->seqno == seq, "probe append");
  }
  Rng rng(seed ^ 0x9B0BE);
  for (std::uint64_t i = 0; i < (tiny ? 10u : 40u); ++i) {
    const bool range = i % 10 == 9;
    const std::uint64_t len = range ? std::min(kRangeLen, appends) : 1;
    const std::uint64_t first = 1 + rng.next_below(appends - len + 1);
    const std::uint64_t last = first + len - 1;
    ledger.attempt();
    auto r = run_client_op<client::ReadOutcome>(
        d, &tracing, range ? "read_range" : "read_one",
        [&] { return d.reader->read(cap.metadata, first, last); }, us, timed_out);
    ledger.check(!timed_out && read_matches(r, first, last, seed, kProbeStream, kRecordBytes),
                 "probe read: " + describe(r, timed_out));
  }

  caapi::Mount mount = caapi::Mount::create(*d.scenario, *d.writer, d.servers(), "probe");
  auto fs = caapi::GdpFilesystem::mount(mount);
  ledger.attempt();
  if (!ledger.check(fs.ok(), "probe mount")) return 0;
  tracing.hops->take();
  const StatsSnapshot before(*d.scenario);
  const Bytes content = payload_for(seed, kProbeStream, 0, 1u << 20);
  ledger.attempt();
  std::int64_t t0 = wall_ns();
  Status st = fs->write_file("probe", content);
  tracing.record_call("caapi.fs.write_file", t0, wall_ns());
  ledger.check(st.ok(), "probe write_file");
  ledger.attempt();
  t0 = wall_ns();
  auto back = fs->read_file("probe");
  tracing.record_call("caapi.fs.read_file", t0, wall_ns());
  ledger.check(back.ok() && *back == content, "probe read_file");
  const StatsSnapshot after(*d.scenario);
  return after.sum("client.", ".ops.started") - before.sum("client.", ".ops.started");
}

}  // namespace perfbench
