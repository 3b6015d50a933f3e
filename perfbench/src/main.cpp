// End-to-end benchmark of verified GDP operations.
//
//   gdp_perfbench --workload <append_small|read_verified|fs_bulk>
//                 --seed <n> --seconds <s> --trace <0|1> [--tiny]
//                 [--out-dir <dir>] [--rev <source revision>]
//
// --trace 0 sets the deployment up 5 to 25 times (setup_s is the median),
// then runs one closed-loop client for --seconds and prints the
// end-to-end metrics.  --trace 1 runs a fixed number of ops untraced and
// then traced, replays the workload's records through each layer, and
// prints the per-layer metrics; its spans go to <out-dir>.
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics.  The exit code is non-zero when any op failed or any result
// did not match what was written.
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "workloads.hpp"

namespace perfbench {
namespace {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const std::string& title, const Metrics& metrics) {
  std::printf("# %s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.4f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

// Set-ups per untraced run: at least kMinSetups, more (up to kMaxSetups)
// while they have taken less than half a second in total.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 25;

/// Generic end-to-end metrics, the same names for every workload.  Times
/// and rates are at reference host speed (see HostGauge).
Metrics end_to_end(const Workload& w, const Samples& setups, double rss_mb) {
  const double busy = std::max(w.busy_s(), 1e-9);
  const Samples& p = w.primary();
  const std::string n = "n=" + std::to_string(p.size());
  char tail_note[64];
  std::snprintf(tail_note, sizeof tail_note, "p%g, n=%zu", w.tail_percentile(), p.size());
  return {{"setup_s", setups.median(), "s", "median of " + std::to_string(setups.size()) + " set-ups"},
          {"peak_rss_mb", rss_mb, "MB", "after " + std::to_string(w.rss_ops()) + " ops"},
          {"p50_us", p.median(), "us", n},
          {"tail_us", p.percentile(w.tail_percentile()), "us", tail_note},
          {"ops_per_s", static_cast<double>(w.ops()) / busy, "1/s",
           "ops=" + std::to_string(w.ops())},
          {"mb_per_s", w.moved_bytes() / 1e6 / busy, "MB/s", ""}};
}

struct RunResult {
  Metrics metrics;  ///< the metrics of the final JSON line
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

RunResult run_untraced(Workload& w, const Options& opt) {
  Samples setups;
  HostGauge gauge;
  double spent_us = 0;
  while (setups.size() < kMinSetups ||
         (spent_us < 0.5e6 && setups.size() < kMaxSetups)) {
    w.teardown();
    const std::int64_t t0 = wall_ns();
    w.setup();
    const double raw_us = static_cast<double>(wall_ns() - t0) / 1e3;
    spent_us += raw_us;
    gauge.run_after(raw_us);
    setups.add(raw_us * gauge.close_window() / 1e6);
  }
  w.reset_samples();
  const std::int64_t deadline = wall_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::uint64_t i = 0;
  double rss_mb = 0;
  while (wall_ns() < deadline) {
    w.op(i++, nullptr);
    if (i == w.rss_ops()) rss_mb = peak_rss_mb();
  }
  if (rss_mb == 0) rss_mb = peak_rss_mb();
  w.close_window();
  w.finish();

  RunResult r;
  r.metrics = end_to_end(w, setups, rss_mb);
  print_metrics("end-to-end (" + opt.workload + ")", r.metrics);
  Metrics named = w.named_metrics();
  const double attempted = static_cast<double>(w.ledger().attempted());
  named.push_back({"wall_ops_per_s", static_cast<double>(w.ops()) / w.raw_busy_s(), "1/s",
                   "unscaled"});
  named.push_back({"host_factor", w.gauge().mean_factor(), "ratio",
                   "reference / measured gauge block time"});
  named.push_back({"failed_op_ratio",
                   static_cast<double>(w.ledger().failed()) / std::max(attempted, 1.0),
                   "ratio", "attempted=" + std::to_string(w.ledger().attempted())});
  print_metrics("end-to-end, by op", named);
  return r;
}

RunResult run_traced(Workload& w, const Options& opt) {
  const std::int64_t t_setup = wall_ns();
  w.setup();
  Samples setups;
  setups.add(static_cast<double>(wall_ns() - t_setup) / 1e9);
  Deployment& d = w.deployment();
  const std::uint64_t k = w.traced_ops();

  // The same number of ops untraced and traced: the difference is the
  // tracing overhead.
  w.reset_samples();
  for (std::uint64_t i = 0; i < k; ++i) w.op(i, nullptr);
  w.close_window();
  const Metrics untraced = end_to_end(w, setups, peak_rss_mb());

  const StatsSnapshot before(*d.scenario);
  Tracing main;
  main.start(d);
  w.reset_samples();
  for (std::uint64_t i = k; i < 2 * k; ++i) w.op(i, &main);
  main.stop();
  w.close_window();
  const Metrics traced = end_to_end(w, setups, peak_rss_mb());
  const StatsSnapshot after(*d.scenario);
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, w.ops()));
  auto per_op = [&](std::string_view prefix, std::string_view suffix) {
    return (after.sum(prefix, suffix) - before.sum(prefix, suffix)) / ops;
  };
  const StoreCounts primary = StoreCounts::of(*d.s0);
  const StoreCounts replica = StoreCounts::of(*d.s1);
  const double hits = after.sum("", ".verify_cache.hits");
  const double misses = after.sum("", ".verify_cache.misses");
  w.finish();

  Metrics layers;
  ReplayInput replay = w.replay_input();
  replay.server = &d.s0->principal();
  replay.key_rng = &d.scenario->key_rng();
  std::int64_t t0 = wall_ns();
  Metrics replayed = replay_layers(replay, opt.tiny, w.ledger());
  w.gauge().run_after(static_cast<double>(wall_ns() - t0) / 1e3);
  w.gauge().close_window();

  t0 = wall_ns();
  Tracing probe;
  probe.start(d);
  const double probe_ops_per_file =
      run_probe(d, probe, w.ledger(), opt.seed, opt.tiny);
  probe.stop();
  w.gauge().run_after(static_cast<double>(wall_ns() - t0) / 1e3);
  w.gauge().close_window();

  // Op-kind spans come from the workload's own traced phase when it
  // issues that kind, from the probe otherwise.
  const std::set<OpKind> kinds = w.kinds();
  auto source = [&](OpKind kind) -> const SpanLog& {
    return kinds.contains(kind) ? main.log : probe.log;
  };
  auto span = [&](const std::string& name, OpKind kind, const std::string& span_name) {
    const Samples s = source(kind).durations_us(span_name);
    layers.push_back({name, s.median(), "us",
                      std::string(kinds.contains(kind) ? "workload" : "probe") +
                          ", n=" + std::to_string(s.size())});
  };
  span("client.append.issue_us", OpKind::kAppend, "client.append.issue");
  span("client.append.await_us", OpKind::kAppend, "client.append.await");
  span("client.read_one.issue_us", OpKind::kReadOne, "client.read_one.issue");
  span("client.read_one.await_us", OpKind::kReadOne, "client.read_one.await");
  span("client.read_range.await_us", OpKind::kReadRange, "client.read_range.await");
  layers.push_back({"client.ops_started_per_op", per_op("client.", ".ops.started"), "count"});
  {
    const Samples fwd = main.log.durations_us("router.fwd");
    layers.push_back({"router.fwd_us_per_pdu", fwd.median(), "us",
                      "workload, n=" + std::to_string(fwd.size())});
  }
  span("server.append.handle_us", OpKind::kAppend, "server.append.handle");
  span("server.replica_push.handle_us", OpKind::kAppend, "server.replica_push.handle");
  span("server.read.handle_us", OpKind::kReadOne, "server.read.handle");
  span("client.response.handle_us", OpKind::kReadOne, "client.response.handle");
  span("caapi.fs.write_file_us", OpKind::kFs, "caapi.fs.write_file");
  span("caapi.fs.read_file_us", OpKind::kFs, "caapi.fs.read_file");
  layers.push_back({"caapi.fs.client_ops_per_file",
                    kinds.contains(OpKind::kFs) ? 2 * per_op("client.", ".ops.started")
                                                : probe_ops_per_file,
                    "count", kinds.contains(OpKind::kFs) ? "workload" : "probe"});
  layers.insert(layers.end(), replayed.begin(), replayed.end());
  layers.push_back({"store.primary.flushes_per_record",
                    primary.flushes / std::max(primary.records, 1.0), "count"});
  layers.push_back({"store.replica.flushes_per_record",
                    replica.flushes / std::max(replica.records, 1.0), "count"});
  layers.push_back({"store.bytes_per_user_byte",
                    primary.payload_bytes / std::max(w.stored_user_bytes(), 1.0), "count"});
  layers.push_back({"net.pdus_per_op", per_op("net.pdus.sent", ""), "count"});
  layers.push_back({"net.bytes_per_op", per_op("net.bytes.delivered", ""), "count"});
  layers.push_back({"router.fib_misses_per_op", per_op("router.", ".fib.misses"), "count"});
  layers.push_back({"trust.verify_cache_hit_ratio", hits / std::max(hits + misses, 1.0),
                    "ratio"});
  layers.push_back({"server.appends_accepted_per_op",
                    per_op("server.", ".appends.accepted"), "count"});
  layers.push_back({"server.reads_served_per_op", per_op("server.", ".reads.served"),
                    "count"});
  // Overhead: traced against untraced p50 of the same op count.
  layers.push_back({"trace.overhead_pct", (traced[2].value / untraced[2].value - 1) * 100,
                    "%", "p50 traced vs untraced"});

  // Like the end-to-end figures, per-layer times are scaled to reference
  // host speed, with the run's mean gauge factor.
  const double factor = w.gauge().mean_factor();
  for (Metric& m : layers) {
    if (m.unit == "us") m.value *= factor;
    if (m.unit == "MB/s") m.value /= factor;
  }
  print_metrics("per-layer (" + opt.workload + ", host_factor " + std::to_string(factor) + ")",
                layers);
  Metrics overhead;
  for (std::size_t i = 2; i < untraced.size(); ++i) {
    overhead.push_back({untraced[i].name + ".untraced", untraced[i].value, untraced[i].unit});
    overhead.push_back({untraced[i].name + ".traced", traced[i].value, traced[i].unit});
  }
  print_metrics("tracing overhead (same op count)", overhead);

  std::filesystem::create_directories(opt.out_dir);
  const std::string stem = opt.workload + "-seed" + std::to_string(opt.seed);
  main.log.write_json(opt.out_dir / (stem + ".spans.json"));
  probe.log.write_json(opt.out_dir / (stem + ".probe-spans.json"));
  std::printf("# spans: %zu workload + %zu probe, written to %s\n", main.log.size(),
              probe.log.size(), opt.out_dir.c_str());

  RunResult r;
  r.metrics = layers;
  return r;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--tiny") {
      opt.tiny = true;
    } else if ((v = next()) == nullptr) {
      return false;
    } else if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--rev") {
      opt.rev = v;
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: gdp_perfbench --workload <append_small|read_verified|fs_bulk> "
                 "--seed <n> --seconds <s> --trace <0|1> [--tiny] [--out-dir <dir>] "
                 "[--rev <rev>]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(opt);
  if (!w) {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }
  RunResult r = opt.trace ? run_traced(*w, opt) : run_untraced(*w, opt);
  r.attempted = w->ledger().attempted();
  r.failed = w->ledger().failed();

  std::printf("# provenance {\"cpu\": %s, \"nproc\": %u, \"compiler\": %s, "
              "\"build_type\": %s, \"rev\": %s, \"workload\": %s, \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"tiny\": %d, \"hash_strategy\": %s}\n",
              json_string(cpu_model()).c_str(), std::thread::hardware_concurrency(),
              json_string(GDP_BENCH_COMPILER).c_str(),
              json_string(GDP_BENCH_BUILD_TYPE).c_str(), json_string(opt.rev).c_str(),
              json_string(opt.workload).c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              opt.tiny ? 1 : 0, json_string(w->hash_strategy()).c_str());

  const bool correct = r.failed == 0;
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    line += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
