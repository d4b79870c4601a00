// perfbench -- the qoesim benchmark runner.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--references <file>] [--spans <file>] [--git-sha <sha>]
//   perfbench --workload <name> --seed <n> --print-digests
//
// --trace 0 repeats the workload's fixed cell set ("a pass") until
// --seconds have elapsed (at least three passes) and reports the
// end-to-end metrics from the passes (see end_to_end()). --trace 1 runs
// one untraced pass on each side of one traced pass (allocation counting,
// probe-input recording), a 2-shard pass for sharded workloads, and the
// per-layer drives, and reports the per-layer metrics. Either way the last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; a cell counts as failed if it threw, blackholed packets,
// broke queue conservation, or produced a digest that differs from the
// reference, from the first pass, or between the traced and untraced run.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "cells.hpp"
#include "core/sweep.hpp"
#include "drives.hpp"
#include "stats/summary.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinPasses = 3;
/// Stop starting passes once this much time is gone, so a run ends well
/// inside the three minutes a benchmark run may take.
constexpr double kMaxRunS = 120.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool print_digests = false;
  std::string references;
  std::string spans;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n>"
               " --seconds <s> --trace <0|1> [--references <file>]"
               " [--spans <file>] [--git-sha <sha>] | --print-digests\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') usage("bad value for " + flag);
  return x;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--print-digests") {
      o.print_digests = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = parse_u64(a, v);
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(a, v));
      if (o.seconds < 1) usage("--seconds must be at least 1");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1" ? 1 : 0;
    } else if (a == "--references") {
      o.references = v;
    } else if (a == "--spans") {
      o.spans = v;
    } else if (a == "--git-sha") {
      o.git_sha = v;
    } else {
      usage("unknown flag " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

// ------------------------------------------------------------------ passes

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Pass {
  std::vector<CellRun> cells;
  double wall_s = 0.0;
  double cpu_s = 0.0;

  double setup_s() const {
    double s = 0.0;
    for (const CellRun& c : cells) s += c.setup_s;
    return s;
  }
  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const CellRun& c : cells) n += c.nodes.delivered;
    return n;
  }
};

Pass run_pass(const Workload& w, const CellContext& ctx) {
  const qoesim::core::SweepRunner sweep(w.workers);
  Pass pass;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  pass.cells = sweep.map(w.cells.size(), [&](std::size_t i) {
    const double start_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    CellRun cell;
    try {
      cell = w.cells[i].run(ctx);
    } catch (const std::exception& e) {
      cell = CellRun{};
      cell.violations.push_back(std::string("cell threw: ") + e.what());
    }
    cell.label = w.cells[i].label;
    cell.start_s = start_s;
    return cell;
  });
  pass.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  pass.cpu_s = process_cpu_s() - cpu0;
  return pass;
}

// ------------------------------------------------------------------ checks

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Reference digests: one line per (workload, seed), "name seed hex...".
std::vector<std::string> load_reference(const std::string& path,
                                        const std::string& workload,
                                        std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::uint64_t s = 0;
    if (!(fields >> name >> s)) {
      throw std::runtime_error("bad reference line: " + line);
    }
    if (name != workload || s != seed) continue;
    std::vector<std::string> digests;
    for (std::string d; fields >> d;) digests.push_back(d);
    return digests;
  }
  return {};
}

/// Tallies attempted and failed cells and says why each failure failed.
class Checker {
 public:
  explicit Checker(std::vector<std::string> reference)
      : reference_(std::move(reference)) {}

  /// `baseline` (optional) is the pass every later pass must reproduce. A
  /// reference with another cell count than the workload fails every cell:
  /// the cell set changed and the references need regenerating.
  void check(const Pass& pass, const Pass* baseline, const char* what) {
    for (std::size_t i = 0; i < pass.cells.size(); ++i) {
      const CellRun& c = pass.cells[i];
      ++attempted_;
      std::string why;
      for (const std::string& v : c.violations) why += v + "; ";
      if (!reference_.empty()) {
        const bool same_set = reference_.size() == pass.cells.size();
        if (!same_set || hex(c.digest) != reference_[i]) {
          why += "digest " + hex(c.digest) + " != reference " +
                 (same_set ? reference_[i] : "(cell count differs)") + "; ";
        }
      }
      if (baseline != nullptr && i < baseline->cells.size()) {
        const CellRun& b = baseline->cells[i];
        if (c.digest != b.digest) {
          why += "digest " + hex(c.digest) + " != first run " +
                 hex(b.digest) + "; ";
        }
        if (count_digest(c) != count_digest(b)) {
          why += "layer counts differ from the first run; ";
        }
      }
      if (!why.empty()) {
        ++failed_;
        std::fprintf(stderr, "perfbench: FAIL [%s] %s: %s\n", what,
                     c.label.c_str(), why.c_str());
      }
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::vector<std::string> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ----------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Every pass repeats the same deterministic simulations (the checker holds
/// them to one digest), so pass-to-pass differences in host time are
/// interference from the rest of the machine, which only ever adds time.
/// Every host-time metric therefore comes from the fastest pass for it.
std::vector<Metric> end_to_end(const std::vector<Pass>& passes) {
  const Pass* fastest = &passes.front();
  double cpu = fastest->cpu_s;
  double setup = fastest->setup_s();
  for (const Pass& p : passes) {
    if (p.wall_s < fastest->wall_s) fastest = &p;
    cpu = std::min(cpu, p.cpu_s);
    setup = std::min(setup, p.setup_s());
  }
  return {{"wall_s", fastest->wall_s, "s"},
          {"cpu_s", cpu, "s"},
          {"pkts_per_s",
           ratio(static_cast<double>(fastest->delivered()), fastest->wall_s),
           "pkt/s"},
          {"setup_s", setup, "s"},
          {"peak_rss_mb", peak_rss_mib(), "MiB"}};
}

std::vector<Metric> per_layer(const Workload& w, const Pass& plain,
                              const Pass& traced, const AllocCounts& allocs,
                              const Pass* two_shards) {
  qoesim::Scheduler::Stats sched;
  qoesim::net::Node::Stats nodes;
  std::uint64_t offered = 0, dropped = 0, queue_peak = 0, hops = 0, slabs = 0,
                probes = 0, max_live = 0, flow_peak = 0;
  unsigned shards = 0;
  double quantum_ms = 0.0;
  std::vector<LinkShape> shapes;
  ProbeInputs inputs;
  for (const CellRun& c : traced.cells) {
    sched.scheduled += c.sched.scheduled;
    sched.fired += c.sched.fired;
    sched.cancelled += c.sched.cancelled;
    sched.peak_queue_depth =
        std::max(sched.peak_queue_depth, c.sched.peak_queue_depth);
    nodes += c.nodes;
    flow_peak = std::max(flow_peak, c.nodes.flow_peak_live);
    offered += c.queue_offered;
    dropped += c.queue_dropped;
    queue_peak = std::max(queue_peak, c.queue_peak);
    hops += c.link_hops;
    slabs += c.slab_growths;
    probes += c.probes_scored;
    max_live = std::max(max_live, c.max_node_live_flows);
    shards = std::max(shards, c.shards);
    quantum_ms = std::max(quantum_ms, c.quantum_ms);
    shapes.push_back(c.bottleneck);
    const ProbeInputs& p = c.probes;
    inputs.voip.insert(inputs.voip.end(), p.voip.begin(), p.voip.end());
    inputs.video.insert(inputs.video.end(), p.video.begin(), p.video.end());
    inputs.web.insert(inputs.web.end(), p.web.begin(), p.web.end());
  }
  const double delivered = static_cast<double>(nodes.delivered);

  const DriveResult sim = drive_scheduler(sched.peak_queue_depth);
  const DriveResult queue = drive_queue(shapes);
  const DriveResult link = drive_link(shapes);
  const DriveResult receive = drive_receive(max_live);
  const DriveResult bind = drive_bind(max_live);
  const DriveResult qoe = drive_qoe(inputs);

  qoesim::stats::Samples cell_wall;
  double busy = 0.0, setup = 0.0;
  for (const CellRun& c : plain.cells) {
    cell_wall.add(c.wall_s);
    busy += c.wall_s;
    setup += c.setup_s;
  }
  const double cells = static_cast<double>(plain.cells.size());

  // Layer operation counts times the drives' host cost per operation. A
  // link hop is a queue operation plus its scheduler events, both already
  // counted, so hops are left out rather than counted twice.
  const double explained_s =
      (static_cast<double>(sched.fired) * sim.ns_per_op +
       static_cast<double>(offered) * queue.ns_per_op +
       delivered * receive.ns_per_op +
       static_cast<double>(nodes.binds) * bind.ns_per_op +
       static_cast<double>(probes) * qoe.ns_per_op) /
          1e9 +
      setup;

  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double speedup =
      two_shards != nullptr ? ratio(plain.wall_s, two_shards->wall_s) : 0.0;
  return {
      {"sim.events_fired", n(sched.fired), "count"},
      {"sim.events_per_pkt", ratio(n(sched.fired), delivered), "event/pkt"},
      {"sim.peak_pending", n(sched.peak_queue_depth), "count"},
      {"sim.cancel_ratio", ratio(n(sched.cancelled), n(sched.scheduled)),
       "ratio"},
      {"sim.ns_per_event", sim.ns_per_op, "ns"},
      {"queue.offered", n(offered), "count"},
      {"queue.drop_ratio", ratio(n(dropped), n(offered)), "ratio"},
      {"queue.peak_pkts", n(queue_peak), "pkt"},
      {"queue.ns_per_pkt", queue.ns_per_op, "ns"},
      {"queue.allocs_per_pkt", queue.allocs_per_op, "alloc/pkt"},
      {"link.hops", n(hops), "count"},
      {"link.pool_slab_growths", n(slabs), "count"},
      {"link.ns_per_hop", link.ns_per_op, "ns"},
      {"link.allocs_per_hop", link.allocs_per_op, "alloc/hop"},
      {"node.binds", n(nodes.binds), "count"},
      {"node.unbinds", n(nodes.unbinds), "count"},
      {"node.demux_rehashes", n(nodes.demux_rehashes), "count"},
      {"node.ns_per_receive", receive.ns_per_op, "ns"},
      {"node.ns_per_bind", bind.ns_per_op, "ns"},
      {"tcp.flows_opened", n(nodes.flows_opened), "count"},
      {"tcp.flow_peak_live", n(flow_peak), "count"},
      {"tcp.hot_bytes_per_flow", n(nodes.flow_hot_bytes), "B"},
      {"tcp.cold_allocs_per_flow",
       ratio(n(nodes.flow_cold_allocs), n(nodes.flows_opened)), "ratio"},
      {"qoe.probes_scored", n(probes), "count"},
      {"qoe.ns_per_score", qoe.ns_per_op, "ns"},
      {"testbed.build_ms", ratio(setup * 1e3, cells), "ms"},
      {"sweep.cell_wall_p50_s", cell_wall.percentile_or(50.0, 0.0), "s"},
      {"sweep.cell_wall_p75_s", cell_wall.percentile_or(75.0, 0.0), "s"},
      {"sweep.busy_ratio", ratio(busy, plain.wall_s * w.workers), "ratio"},
      {"engine.shards_used", n(shards), "count"},
      {"engine.quantum_ms", quantum_ms, "ms"},
      {"engine.speedup_2v1", speedup, "x"},
      {"engine.cpu_per_wall", ratio(plain.cpu_s, plain.wall_s), "ratio"},
      {"alloc.per_pkt", ratio(n(allocs.calls), delivered), "alloc/pkt"},
      {"alloc.bytes_per_pkt", ratio(n(allocs.bytes), delivered), "B/pkt"},
      {"trace.overhead_ratio", ratio(traced.wall_s, plain.wall_s), "ratio"},
      {"trace.explained_ratio", ratio(explained_s, plain.wall_s), "ratio"},
  };
}

// ------------------------------------------------------------------ output

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

void print_manifest(const Options& o, const Workload& w, int passes) {
  const std::string build = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  // Only an optimized, uninstrumented build may be compared with another.
  const bool comparable = build == "Release" && sanitize.empty();
  std::printf(
      "manifest {\"cores\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"sanitize\": %s, \"comparable\": %s, \"git_sha\": %s, "
      "\"workload\": %s, \"seed\": %llu, \"cells\": %zu, \"workers\": %u, "
      "\"passes\": %d, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), json_string(compiler()).c_str(),
      json_string(build).c_str(), json_string(sanitize).c_str(),
      comparable ? "true" : "false", json_string(o.git_sha).c_str(),
      json_string(w.name).c_str(), static_cast<unsigned long long>(o.seed),
      w.cells.size(), w.workers, passes, o.trace);
}

void print_result(const std::vector<Metric>& metrics, const Checker& check) {
  for (const Metric& m : metrics) {
    std::printf("metric %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("cells attempted=%llu failed=%llu fail_ratio=%.6f\n",
              static_cast<unsigned long long>(check.attempted()),
              static_cast<unsigned long long>(check.failed()),
              ratio(static_cast<double>(check.failed()),
                    static_cast<double>(check.attempted())));
  std::string json = "{\"correct\": ";
  json += check.failed() == 0 && check.attempted() > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(check.attempted());
  json += ", \"failed\": " + std::to_string(check.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_string(metrics[i].name) + ": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": " +
            json_string(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// One line per span, times in seconds from the start of the pass: each
/// cell, and inside it set-up, run_until and scoring back to back.
void write_spans(const std::string& path, const Pass& pass) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  const auto span = [&out](const CellRun& c, const char* name,
                           const char* parent, double start, double end) {
    out << "  {\"cell\": " << json_string(c.label) << ", \"span\": \"" << name
        << "\", \"parent\": \"" << parent << "\", \"start_s\": "
        << json_number(start) << ", \"end_s\": " << json_number(end) << "}";
  };
  out << "[\n";
  for (std::size_t i = 0; i < pass.cells.size(); ++i) {
    const CellRun& c = pass.cells[i];
    const double setup_end = c.start_s + c.setup_s;
    const double run_end = setup_end + c.run_s;
    span(c, "cell", "pass", c.start_s, c.start_s + c.wall_s);
    out << ",\n";
    span(c, "setup", "cell", c.start_s, setup_end);
    out << ",\n";
    span(c, "run_until", "cell", setup_end, run_end);
    out << ",\n";
    span(c, "scoring", "cell", run_end, run_end + c.score_s);
    out << (i + 1 < pass.cells.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

int run(const Options& o) {
  const Workload w = make_workload(o.workload);
  CellContext ctx;
  ctx.seed = o.seed;

  if (o.print_digests) {
    const Pass pass = run_pass(w, ctx);
    std::string line = w.name + " " + std::to_string(o.seed);
    bool clean = true;
    for (const CellRun& c : pass.cells) {
      line += ' ';
      line += hex(c.digest);
      clean = clean && c.violations.empty();
    }
    if (!clean) {
      Checker(std::vector<std::string>{}).check(pass, nullptr, "digests");
      return 1;
    }
    std::printf("%s\n", line.c_str());
    return 0;
  }

  Checker check(o.references.empty()
                    ? std::vector<std::string>{}
                    : load_reference(o.references, w.name, o.seed));

  if (o.trace == 0) {
    std::vector<Pass> passes;
    const auto t0 = Clock::now();
    for (;;) {
      passes.push_back(run_pass(w, ctx));
      check.check(passes.back(), passes.size() > 1 ? &passes.front() : nullptr,
                  "untraced");
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - t0).count();
      const int n = static_cast<int>(passes.size());
      if (n >= kMinPasses && elapsed >= o.seconds) break;
      if (elapsed + passes.back().wall_s > kMaxRunS) break;
    }
    print_manifest(o, w, static_cast<int>(passes.size()));
    print_result(end_to_end(passes), check);
    return check.failed() == 0 ? 0 : 1;
  }

  // Untraced passes on both sides of the traced one; the faster of the two
  // gives the host times the traced pass is compared with.
  const Pass first = run_pass(w, ctx);
  check.check(first, nullptr, "untraced");
  CellContext traced_ctx = ctx;
  traced_ctx.record = true;
  alloc_count_begin();
  const Pass traced = run_pass(w, traced_ctx);
  const AllocCounts allocs = alloc_count_end();
  check.check(traced, &first, "traced");
  const Pass second = run_pass(w, ctx);
  check.check(second, &first, "untraced");
  const Pass& plain = second.wall_s < first.wall_s ? second : first;
  int passes = 3;
  Pass two_shards;
  if (w.sharded) {
    CellContext two_ctx = ctx;
    two_ctx.shards = 2;
    two_shards = run_pass(w, two_ctx);
    check.check(two_shards, &first, "2-shard");
    ++passes;
  }
  if (!o.spans.empty()) write_spans(o.spans, traced);
  const std::vector<Metric> metrics =
      per_layer(w, plain, traced, allocs, w.sharded ? &two_shards : nullptr);
  print_manifest(o, w, passes);
  print_result(metrics, check);
  return check.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opts = perfbench::parse(argc, argv);
  try {
    return perfbench::run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
