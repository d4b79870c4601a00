#include "cells.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "apps/video_codec.hpp"
#include "apps/video_stream.hpp"
#include "apps/voip.hpp"
#include "apps/web.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/sharded_engine.hpp"
#include "core/sweep.hpp"
#include "core/testbed.hpp"
#include "core/workloads.hpp"
#include "net/monitors.hpp"
#include "qoe/g1030.hpp"
#include "sim/random.hpp"
#include "tcp/tcp_server.hpp"
#include "tcp/tcp_socket.hpp"

namespace perfbench {
namespace {

using namespace qoesim;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// FNV-1a over printed values. Doubles go through %.9g so a digest names
/// the simulated result, not the last bit of a libm call.
class Digest {
 public:
  void add(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g;", v);
    mix(buf);
  }
  void add(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu;",
                  static_cast<unsigned long long>(v));
    mix(buf);
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(const char* s) {
    for (; *s != '\0'; ++s) {
      h_ ^= static_cast<unsigned char>(*s);
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// The bottleneck as the drives replay it. Occupancy is Little's law over
/// the packets the buffer admitted during the cell's simulated time.
LinkShape shape_of(const net::Link& link, Time sim_end) {
  LinkShape s;
  s.capacity = link.queue().capacity_packets();
  s.rate_bps = link.rate_bps();
  s.delay = link.prop_delay();
  s.weight = static_cast<double>(link.queue().stats().offered);
  const double horizon = sim_end.sec();
  if (horizon > 0.0) {
    const double arrivals = static_cast<double>(link.queue_delay().count());
    s.occupancy = arrivals / horizon * link.queue_delay().mean();
  }
  const std::size_t most = s.capacity > 0 ? s.capacity - 1 : 0;
  s.occupancy = std::clamp(s.occupancy, 0.0, static_cast<double>(most));
  return s;
}

/// Every link is some node's egress port, so walking the ports visits each
/// link once. Reads the per-link counters and checks buffer conservation.
template <typename Topo>
void read_topology(Topo& topo, CellRun& cell) {
  for (net::NodeId id = 0; id < topo.node_count(); ++id) {
    net::Node& node = topo.node(id);
    cell.max_node_live_flows =
        std::max(cell.max_node_live_flows, node.stats().flow_peak_live);
    for (std::size_t port = 0; port < node.port_count(); ++port) {
      const net::Link& link = *node.port_link(port);
      const net::QueueStats& q = link.queue().stats();
      cell.queue_offered += q.offered;
      cell.queue_dropped += q.dropped;
      cell.queue_peak = std::max(cell.queue_peak, q.max_packets_seen);
      cell.link_hops += link.delivered_packets();
      cell.slab_growths += link.pool_stats().slab_growths;
      if (q.offered != q.enqueued + q.dropped ||
          q.enqueued != q.dequeued + link.queue().packet_count()) {
        cell.violations.push_back("queue conservation broken on link " +
                                  link.name());
      }
    }
  }
  cell.nodes = topo.node_stats();
  if (cell.nodes.undelivered != 0 || cell.nodes.unrouted != 0) {
    cell.violations.push_back(
        "blackholed packets: undelivered=" +
        std::to_string(cell.nodes.undelivered) +
        " unrouted=" + std::to_string(cell.nodes.unrouted));
  }
}

// ---------------------------------------------------------------- testbed

/// Probe repetitions and durations per testbed. Far below the paper's
/// two-hour cells: the benchmark needs the cell's shape (queue state,
/// flow churn, probe scoring), not tight medians. Every cell runs to a
/// simulated horizon fixed by its budget, never by its probe outcomes, so
/// the host work of a cell barely depends on the seed.
struct Budget {
  Time warmup;  ///< background traffic alone, before any probe starts
  Time stream;  ///< length of a VoIP call or video clip
};
constexpr Time kWebWindow = Time::seconds(10);  ///< back-to-back page loads
constexpr Time kWebTimeout = Time::seconds(10);
constexpr Time kProbeGap = Time::seconds(1);

enum class Probe { kVoipListen, kVoipBoth, kVideo, kWeb };

const char* probe_name(Probe p) {
  switch (p) {
    case Probe::kVoipListen: return "voip";
    case Probe::kVoipBoth: return "voip2";
    case Probe::kVideo: return "video";
    case Probe::kWeb: return "web";
  }
  return "?";
}

/// One call as ExperimentRunner::run_voip places it: server -> client
/// ("listens"), optionally with the client -> server leg ("talks"); each
/// leg is scored with the mean of both mouth-to-ear delays.
void voip_probe(core::Testbed& tb, const Budget& b, bool both, bool record,
                CellRun& cell, Digest& digest, Clock::time_point& scored_from) {
  apps::VoipConfig voip;
  voip.duration = b.stream;
  apps::VoipCall listen(tb.probe_server(), tb.probe_client(), voip, 0);
  listen.start(b.warmup);
  std::unique_ptr<apps::VoipCall> talk;
  if (both) {
    talk = std::make_unique<apps::VoipCall>(tb.probe_client(),
                                            tb.probe_server(), voip, 1);
    talk->start(b.warmup);
  }
  tb.sim().run_until(listen.end_time() + Time::seconds(1));
  scored_from = Clock::now();

  std::vector<qoe::VoipCallMetrics> legs = {listen.metrics()};
  if (talk) legs.push_back(talk->metrics());
  Time ta = legs.front().mouth_to_ear_delay;
  if (talk) {
    ta = (legs[0].mouth_to_ear_delay + legs[1].mouth_to_ear_delay) / 2.0;
  }
  for (qoe::VoipCallMetrics leg : legs) {
    digest.add(leg.effective_loss());
    digest.add(leg.mean_network_delay.ms());
    leg.mouth_to_ear_delay = ta;
    digest.add(qoe::VoipQoe::score(leg).mos);
    ++cell.probes_scored;
    if (record) cell.probes.voip.push_back(leg);
  }
}

/// One RTP video session server -> client, as ExperimentRunner::run_video
/// streams and scores it.
void video_probe(core::Testbed& tb, const Budget& b, bool record,
                 CellRun& cell, Digest& digest,
                 Clock::time_point& scored_from) {
  apps::VideoSessionConfig config;
  config.codec = apps::VideoCodecConfig::sd();
  config.codec.duration = b.stream;
  apps::VideoSession session(tb.probe_server(), tb.probe_client(), config, 0,
                             tb.sim().rng("video-probe"));
  session.start(b.warmup);
  tb.sim().run_until(session.end_time() + Time::seconds(1));
  scored_from = Clock::now();

  qoe::VideoQualityParams params = qoe::VideoQualityParams::sd();
  params.motion_spread = config.codec.clip.motion_spread;
  std::vector<qoe::FrameReception> frames = session.reception();
  const qoe::VideoScore score = qoe::VideoQuality::evaluate(frames, params);
  digest.add(score.ssim);
  digest.add(score.mos);
  digest.add(session.packet_loss());
  ++cell.probes_scored;
  if (record) cell.probes.video.push_back({std::move(frames), params});
}

/// ExperimentRunner::run_web's sequential page loads, each started one
/// probe gap after the previous finished or timed out, kept up for a fixed
/// window instead of a fixed number of loads.
void web_probe(core::Testbed& tb, const Budget& b, bool record, CellRun& cell,
               Digest& digest, Clock::time_point& scored_from) {
  const core::ScenarioConfig& config = tb.config();
  apps::WebPageConfig page;
  tcp::TcpConfig probe_tcp;
  probe_tcp.cc = config.tcp_cc;
  probe_tcp.ecn = config.ecn;
  apps::WebServer server(tb.probe_server(), page, probe_tcp);

  struct Driver {
    core::Testbed* tb;
    apps::WebPageConfig page;
    tcp::TcpConfig tcp;
    std::vector<std::unique_ptr<apps::WebPageLoad>> loads;
    std::vector<Time> plts;
    std::vector<std::uint64_t> retransmits;
    Time stop_at;

    void start_next() {
      if (tb->sim().now() >= stop_at) return;
      Driver* self = this;
      auto load = std::make_unique<apps::WebPageLoad>(
          tb->probe_client(), tb->probe_server().id(), page, tcp,
          [self](const apps::WebPageLoad& done) {
            self->plts.push_back(done.failed() ? kWebTimeout
                                               : done.page_load_time());
            self->retransmits.push_back(done.retransmits());
            self->tb->sim().after(kProbeGap, [self] { self->start_next(); });
          });
      apps::WebPageLoad* raw = load.get();
      load->start(tb->sim().now());
      tb->sim().after(kWebTimeout, [raw] {
        if (!raw->done()) raw->cancel();
      });
      loads.push_back(std::move(load));
    }
  };

  const Time horizon = b.warmup + kWebWindow;
  Driver driver{&tb, page, probe_tcp, {}, {}, {}, horizon};
  tb.sim().at(b.warmup, [&driver] { driver.start_next(); });
  tb.sim().run_until(horizon);
  scored_from = Clock::now();

  const bool access = config.testbed == core::TestbedType::kAccess;
  const qoe::G1030 model =
      access ? qoe::G1030::access_profile() : qoe::G1030::backbone_profile();
  for (std::size_t i = 0; i < driver.plts.size(); ++i) {
    digest.add(driver.plts[i].sec());
    digest.add(model.mos(driver.plts[i]));
    digest.add(driver.retransmits[i]);
    ++cell.probes_scored;
    if (record) cell.probes.web.push_back({driver.plts[i], access});
  }
  digest.add(static_cast<std::uint64_t>(driver.plts.size()));
}

CellRun run_testbed_cell(const core::ScenarioConfig& cfg, Probe probe,
                         const Budget& budget, bool record) {
  CellRun cell;
  const auto t0 = Clock::now();
  core::Testbed tb(cfg);
  core::Workload workload(tb);
  const auto t1 = Clock::now();

  Digest digest;
  Clock::time_point t2 = t1;
  switch (probe) {
    case Probe::kVoipListen:
    case Probe::kVoipBoth:
      voip_probe(tb, budget, probe == Probe::kVoipBoth, record, cell, digest,
                 t2);
      break;
    case Probe::kVideo:
      video_probe(tb, budget, record, cell, digest, t2);
      break;
    case Probe::kWeb:
      web_probe(tb, budget, record, cell, digest, t2);
      break;
  }

  const Time end = tb.sim().now();
  for (net::LinkMonitor* mon : {&tb.down_monitor(), &tb.up_monitor()}) {
    digest.add(mon->tx_bytes());
    digest.add(mon->loss_rate());
    digest.add(mon->mean_queue_delay_s());
  }
  digest.add(workload.flows_started());
  digest.add(workload.flows_completed());
  read_topology(tb.topology(), cell);
  const LinkShape down = shape_of(tb.bottleneck_down(), end);
  const LinkShape up = shape_of(tb.bottleneck_up(), end);
  cell.bottleneck = down.weight >= up.weight ? down : up;
  cell.sched = tb.sim().scheduler().stats();
  cell.digest = digest.value();
  const auto t3 = Clock::now();

  cell.setup_s = seconds_between(t0, t1);
  cell.run_s = seconds_between(t1, t2);
  cell.score_s = seconds_between(t2, t3);
  cell.wall_s = seconds_between(t0, t3);
  return cell;
}

CellSpec testbed_cell(core::TestbedType testbed, core::WorkloadType workload,
                      core::CongestionDirection direction, std::size_t buffer,
                      Probe probe, const Budget& budget) {
  CellSpec spec;
  spec.label = std::string(core::to_string(workload)) + "/" +
               core::to_string(direction) + "/" + std::to_string(buffer) +
               "/" + probe_name(probe);
  spec.run = [=](const CellContext& ctx) {
    core::ScenarioConfig cfg;
    cfg.testbed = testbed;
    cfg.workload = workload;
    cfg.direction = direction;
    cfg.buffer_packets = buffer;
    cfg.tcp_cc = core::default_cc(testbed);
    cfg.seed = core::cell_seed(
        ctx.seed, workload, buffer,
        static_cast<std::uint64_t>(direction) |
            (static_cast<std::uint64_t>(probe) << 4));
    return run_testbed_cell(cfg, probe, budget, ctx.record);
  };
  return spec;
}

// -------------------------------------------------------------- megaflow

/// The bench_megaflows cell at ~100k concurrent flows: 64 clients open
/// connection chains into one hub, hold them idle, close them all, and
/// reopen a second wave on the warmed pools.
constexpr unsigned kMegaClients = 64;
constexpr unsigned kMegaChains = 32;
constexpr unsigned kMegaReopen = 8;
constexpr std::uint64_t kMegaFlows = 100352;
constexpr std::uint32_t kMegaPort = 5000;

struct MegaClient {
  net::Node* node = nullptr;
  net::NodeId server = 0;
  std::vector<std::shared_ptr<tcp::TcpSocket>> socks;
  std::size_t target = 0;
  std::size_t launched = 0;
};

void open_next(MegaClient& c, const tcp::TcpConfig& cfg) {
  if (c.launched >= c.target) return;
  ++c.launched;
  tcp::TcpSocket::Callbacks cb;
  cb.on_connected = [&c, cfg] { open_next(c, cfg); };
  c.socks.push_back(tcp::TcpSocket::connect(*c.node, c.server, kMegaPort, cfg,
                                            std::move(cb)));
}

CellRun run_megaflow_cell(const CellContext& ctx) {
  CellRun cell;
  const auto t0 = Clock::now();
  core::ShardedEngine::Config cfg;
  cfg.shards = ctx.shards;
  cfg.lookahead_floor = Time::milliseconds(1);
  cfg.seed = RandomStream::derive_seed(ctx.seed, "perfbench/megaflow");
  core::ShardedEngine engine(std::move(cfg));

  net::LinkSpec spec;
  spec.rate_bps = 1e9;
  spec.delay = Time::milliseconds(1);
  spec.buffer_packets = 1024;
  const net::NodeId srv =
      engine.add_node("srv", static_cast<double>(kMegaClients));
  std::vector<net::NodeId> cli(kMegaClients);
  for (unsigned c = 0; c < kMegaClients; ++c) {
    std::string name = "c";
    name += std::to_string(c);
    cli[c] = engine.add_node(name);
    engine.connect(srv, cli[c], spec, spec);
  }
  engine.build();

  tcp::TcpConfig tcp_cfg;
  std::vector<std::shared_ptr<tcp::TcpSocket>> accepted;
  accepted.reserve(kMegaFlows + kMegaClients * kMegaReopen);
  tcp::TcpServer server(
      engine.node(srv), kMegaPort, tcp_cfg,
      [&accepted](std::shared_ptr<tcp::TcpSocket> sock) {
        auto* raw = sock.get();
        tcp::TcpSocket::Callbacks cb;
        cb.on_remote_close = [raw] { raw->close(); };
        raw->set_callbacks(std::move(cb));
        accepted.push_back(std::move(sock));
      });
  const auto t1 = Clock::now();

  std::vector<MegaClient> clients(kMegaClients);
  for (unsigned c = 0; c < kMegaClients; ++c) {
    MegaClient& state = clients[c];
    state.node = &engine.node(cli[c]);
    state.server = srv;
    state.target = kMegaFlows / kMegaClients;
    state.socks.reserve(state.target + kMegaReopen);
    for (unsigned k = 0; k < kMegaChains; ++k) {
      engine.sim_of(cli[c]).at(
          Time::seconds(0.01) + Time::microseconds(17 * c + 113 * k),
          [&state, tcp_cfg] { open_next(state, tcp_cfg); });
    }
  }
  engine.run_until(Time::seconds(3.0));
  std::uint64_t opened = 0;
  for (const MegaClient& c : clients) opened += c.launched;
  const std::uint64_t accepted_steady = accepted.size();

  for (unsigned c = 0; c < kMegaClients; ++c) {
    MegaClient& state = clients[c];
    for (std::size_t j = 0; j < state.socks.size(); ++j) {
      engine.sim_of(cli[c]).at(
          Time::seconds(3.2) + Time::microseconds(50 * j + c),
          [s = state.socks[j]] { s->close(); });
    }
    engine.sim_of(cli[c]).at(Time::seconds(4.3),
                             [&state] { state.socks.clear(); });
    for (unsigned k = 0; k < kMegaReopen; ++k) {
      engine.sim_of(cli[c]).at(
          Time::seconds(4.5) + Time::microseconds(17 * c + 113 * k),
          [&state, tcp_cfg] {
            state.socks.push_back(tcp::TcpSocket::connect(
                *state.node, state.server, kMegaPort, tcp_cfg));
          });
    }
  }
  engine.sim_of(srv).at(Time::seconds(4.3), [&accepted] { accepted.clear(); });
  engine.run_until(Time::seconds(5.0));
  const auto t2 = Clock::now();

  Digest digest;
  std::uint64_t reopened = 0;
  for (const MegaClient& c : clients) reopened += c.socks.size();
  digest.add(opened);
  digest.add(accepted_steady);
  digest.add(reopened);
  digest.add(static_cast<std::uint64_t>(accepted.size()));
  read_topology(engine.topology(), cell);
  digest.add(cell.nodes.delivered);
  digest.add(cell.nodes.flows_opened);
  digest.add(cell.nodes.flows_closed);
  digest.add(cell.link_hops);
  cell.bottleneck = shape_of(*engine.link(0, true), engine.sim_of(srv).now());
  cell.sched = engine.scheduler_stats();
  cell.shards = engine.shard_count();
  cell.quantum_ms =
      engine.quantum() == Time::max() ? 0.0 : engine.quantum().ms();
  cell.digest = digest.value();
  const auto t3 = Clock::now();

  cell.setup_s = seconds_between(t0, t1);
  cell.run_s = seconds_between(t1, t2);
  cell.score_s = seconds_between(t2, t3);
  cell.wall_s = seconds_between(t0, t3);
  return cell;
}

// ------------------------------------------------------------- workloads

/// The probes start after ProbeBudget's full 15 s warmup, as in the figure
/// benches: the 7490-packet buffer's mean occupancy is still rising at 2 s
/// (see README, "backbone_churn queue state").
Workload backbone_churn() {
  const Budget b{core::ProbeBudget{}.warmup, Time::seconds(4)};
  Workload w{"backbone_churn", 1, {}, false};
  for (std::size_t buffer : {std::size_t{749}, std::size_t{7490}}) {
    for (Probe probe : {Probe::kVideo, Probe::kVoipListen}) {
      w.cells.push_back(testbed_cell(
          core::TestbedType::kBackbone, core::WorkloadType::kShortHigh,
          core::CongestionDirection::kDownstream, buffer, probe, b));
    }
  }
  return w;
}

Workload access_bloat() {
  const Budget b{Time::seconds(5), Time::seconds(8)};
  Workload w{"access_bloat", 2, {}, false};
  for (core::WorkloadType load :
       {core::WorkloadType::kLongMany, core::WorkloadType::kShortMany}) {
    for (core::CongestionDirection dir :
         {core::CongestionDirection::kUpstream,
          core::CongestionDirection::kBidirectional}) {
      for (std::size_t buffer : core::access_buffer_sizes()) {
        for (Probe probe : {Probe::kVoipBoth, Probe::kWeb}) {
          w.cells.push_back(testbed_cell(core::TestbedType::kAccess, load, dir,
                                         buffer, probe, b));
        }
      }
    }
  }
  return w;
}

Workload megaflow_open() {
  Workload w{"megaflow_open", 1, {}, true};
  w.cells.push_back(
      {"megaflow/" + std::to_string(kMegaFlows), run_megaflow_cell});
  return w;
}

}  // namespace

std::uint64_t count_digest(const CellRun& c) {
  Digest d;
  for (std::uint64_t v :
       {c.sched.scheduled, c.sched.fired, c.sched.cancelled,
        c.sched.rescheduled, c.sched.peak_queue_depth, c.nodes.delivered,
        c.nodes.stray_late, c.nodes.binds, c.nodes.unbinds,
        c.nodes.demux_rehashes, c.nodes.flows_opened, c.nodes.flows_closed,
        c.nodes.flow_peak_live, c.nodes.flow_cold_allocs, c.queue_offered,
        c.queue_dropped, c.queue_peak, c.link_hops, c.slab_growths,
        c.probes_scored}) {
    d.add(v);
  }
  return d.value();
}

Workload make_workload(const std::string& name) {
  if (name == "backbone_churn") return backbone_churn();
  if (name == "access_bloat") return access_bloat();
  if (name == "megaflow_open") return megaflow_open();
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
