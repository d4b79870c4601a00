// perfbench -- the benchmark's workloads as fixed sets of simulation cells.
//
// Every cell is built and run through qoesim's public API only: the
// Testbed/Workload pair of the paper figures, or a ShardedEngine for the
// engine-scale shapes. A cell reports host-time spans (set-up, run,
// scoring), the public counters of every layer it touched, a digest of its
// simulated results, and the run-end invariants it broke, if any.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "qoe/video_quality.hpp"
#include "qoe/voip_qoe.hpp"
#include "sim/event.hpp"
#include "sim/time.hpp"

namespace perfbench {

/// One bottleneck as the layer drives replay it: a drop-tail buffer of
/// `capacity` packets in front of a `rate_bps` link with `delay`
/// propagation, holding `occupancy` packets on average. `weight` is the
/// number of packets the cell offered to it.
struct LinkShape {
  std::size_t capacity = 0;
  double rate_bps = 0.0;
  qoesim::Time delay;
  double occupancy = 0.0;
  double weight = 0.0;
};

/// The inputs a cell fed to its QoE models, kept so the qoe drive can
/// score them again in isolation.
struct ProbeInputs {
  std::vector<qoesim::qoe::VoipCallMetrics> voip;
  struct Video {
    std::vector<qoesim::qoe::FrameReception> frames;
    qoesim::qoe::VideoQualityParams params;
  };
  std::vector<Video> video;
  struct Web {
    qoesim::Time plt;
    bool access = true;  ///< G.1030 access profile, else backbone
  };
  std::vector<Web> web;
};

struct CellRun {
  std::string label;
  /// FNV-1a over the cell's simulated QoS/QoE results (never over event
  /// or allocation counts, which an engine change may legitimately move).
  std::uint64_t digest = 0;
  std::vector<std::string> violations;  ///< empty when the cell passed

  // Host-time spans of the benchmark's own calls.
  double start_s = 0.0;  ///< cell start, from the start of its pass
  double setup_s = 0.0;  ///< Testbed+Workload / engine+listener build
  double run_s = 0.0;    ///< probe start-up and run_until
  double score_s = 0.0;  ///< QoE scoring and result collection
  double wall_s = 0.0;   ///< the whole cell

  // Public counters read after the run.
  qoesim::Scheduler::Stats sched;
  qoesim::net::Node::Stats nodes;
  std::uint64_t max_node_live_flows = 0;  ///< largest per-node flow peak
  std::uint64_t queue_offered = 0;        ///< summed over every link
  std::uint64_t queue_dropped = 0;
  std::uint64_t queue_peak = 0;           ///< max over every link
  std::uint64_t link_hops = 0;            ///< Σ Link::delivered_packets
  std::uint64_t slab_growths = 0;         ///< Σ PacketPool slab growths
  std::uint64_t probes_scored = 0;
  unsigned shards = 0;      ///< ShardedEngine shards; 0 = single scheduler
  double quantum_ms = 0.0;  ///< ShardedEngine epoch; 0 without crossings

  LinkShape bottleneck;  ///< the busiest bottleneck direction
  ProbeInputs probes;    ///< filled only when the pass records
};

struct CellContext {
  std::uint64_t seed = 1;
  bool record = false;  ///< keep probe inputs for the drives
  unsigned shards = 1;  ///< ShardedEngine shards (sharded workloads)
};

struct CellSpec {
  std::string label;
  std::function<CellRun(const CellContext&)> run;
};

struct Workload {
  std::string name;
  unsigned workers = 1;  ///< SweepRunner jobs
  std::vector<CellSpec> cells;
  /// Cells run on a 1-shard ShardedEngine; the traced run repeats them on
  /// 2 shards for the speedup and the shard-count determinism check.
  bool sharded = false;
};

/// FNV-1a over the cell's public counters (events, node, queue, link and
/// probe counts): two runs of one cell must agree on it exactly.
std::uint64_t count_digest(const CellRun& cell);

/// The fixed cell set of `name`; throws std::invalid_argument if unknown.
Workload make_workload(const std::string& name);

}  // namespace perfbench
