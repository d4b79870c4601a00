#include "drives.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <tuple>

#include "alloc_count.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "net/topology.hpp"
#include "qoe/g1030.hpp"
#include "sim/simulation.hpp"

namespace perfbench {
namespace {

using namespace qoesim;
using Clock = std::chrono::steady_clock;

constexpr double kMinRepS = 0.02;  ///< calibrate a repetition to >= 20 ms
constexpr int kReps = 5;
constexpr double kMtuBits = 1500.0 * 8.0;

struct Sample {
  double seconds = 0.0;
  std::size_t ops = 0;
};

/// Counts allocations over a scope when given somewhere to put them.
class AllocScope {
 public:
  explicit AllocScope(AllocCounts* out) : out_(out) {
    if (out_ != nullptr) alloc_count_begin();
  }
  ~AllocScope() {
    if (out_ != nullptr) *out_ = alloc_count_end();
  }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

 private:
  AllocCounts* out_;
};

/// `fn(ops, allocs)` builds its state, runs about `ops` operations and
/// returns the host time of the operations alone; when `allocs` is set it
/// counts the allocations of that same span.
template <typename Fn>
DriveResult measure(Fn&& fn) {
  std::size_t ops = 256;
  while (fn(ops, nullptr).seconds < kMinRepS && ops < (std::size_t{1} << 30)) {
    ops *= 2;
  }
  const auto per_op = [](double total, std::size_t done) {
    return total / static_cast<double>(std::max<std::size_t>(done, 1));
  };
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    const Sample s = fn(ops, nullptr);
    ns.push_back(per_op(s.seconds * 1e9, s.ops));
  }
  std::nth_element(ns.begin(), ns.begin() + kReps / 2, ns.end());
  AllocCounts allocs;
  const Sample counted = fn(ops, &allocs);
  return {ns[kReps / 2],
          per_op(static_cast<double>(allocs.calls), counted.ops)};
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Shapes that share a buffer and link, merged: weights add, occupancy is
/// the weighted mean.
std::vector<LinkShape> merge(const std::vector<LinkShape>& shapes) {
  std::map<std::tuple<std::size_t, double, std::int64_t>, LinkShape> groups;
  for (const LinkShape& s : shapes) {
    if (s.weight <= 0.0) continue;
    LinkShape& g = groups[{s.capacity, s.rate_bps, s.delay.ns()}];
    const double total = g.weight + s.weight;
    g.occupancy = (g.occupancy * g.weight + s.occupancy * s.weight) / total;
    g.capacity = s.capacity;
    g.rate_bps = s.rate_bps;
    g.delay = s.delay;
    g.weight = total;
  }
  std::vector<LinkShape> out;
  for (const auto& [key, g] : groups) out.push_back(g);
  return out;
}

template <typename PerShape>
DriveResult weighted(const std::vector<LinkShape>& shapes, PerShape&& drive) {
  DriveResult total;
  double weight = 0.0;
  for (const LinkShape& s : merge(shapes)) {
    const DriveResult r = drive(s);
    total.ns_per_op += r.ns_per_op * s.weight;
    total.allocs_per_op += r.allocs_per_op * s.weight;
    weight += s.weight;
  }
  if (weight > 0.0) {
    total.ns_per_op /= weight;
    total.allocs_per_op /= weight;
  }
  return total;
}

/// Packets a shape's buffer holds on average, below its capacity.
std::size_t held_packets(const LinkShape& s) {
  const auto mean = static_cast<std::size_t>(std::lround(s.occupancy));
  return std::min(std::max<std::size_t>(s.capacity, 1) - 1, mean);
}

net::Packet mtu_packet() {
  net::Packet p;
  p.size_bytes = 1500;
  return p;
}

/// A pending event that fires once and schedules its successor a
/// pseudo-random delay ahead, so the heap keeps a fixed depth while
/// entries land all over it.
struct Hold {
  Scheduler* sched;
  std::uint64_t* lcg;
  std::int64_t span_ns;
  void operator()() const {
    *lcg = *lcg * 6364136223846793005ull + 1442695040888963407ull;
    const auto delay = static_cast<std::int64_t>(
        (*lcg >> 33) % static_cast<std::uint64_t>(span_ns));
    sched->schedule_at(sched->now() + Time::nanoseconds(1 + delay), *this);
  }
};

}  // namespace

DriveResult drive_scheduler(std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  return measure([depth](std::size_t ops, AllocCounts* allocs) {
    Scheduler sched;
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    const auto span = static_cast<std::int64_t>(2 * depth) * 1000;
    for (std::size_t i = 0; i < depth; ++i) {
      Hold{&sched, &lcg, span}();
    }
    const auto t0 = Clock::now();
    std::size_t fired = 0;
    {
      AllocScope scope(allocs);
      while (fired < ops && sched.step()) ++fired;
    }
    return Sample{seconds_since(t0), fired};
  });
}

DriveResult drive_queue(const std::vector<LinkShape>& shapes) {
  return weighted(shapes, [](const LinkShape& s) {
    const std::size_t capacity = std::max<std::size_t>(s.capacity, 1);
    const std::size_t held = held_packets(s);
    return measure([capacity, held](std::size_t ops, AllocCounts* allocs) {
      auto q = net::make_queue(net::QueueKind::kDropTail, capacity);
      for (std::size_t i = 0; i < held; ++i) {
        q->enqueue(mtu_packet(), Time::zero());
      }
      std::size_t moved = 0;
      const auto t0 = Clock::now();
      {
        AllocScope scope(allocs);
        for (std::size_t i = 0; i < ops; ++i) {
          q->enqueue(mtu_packet(), Time::zero());
          if (q->dequeue(Time::zero())) ++moved;
        }
      }
      return Sample{seconds_since(t0), moved};
    });
  });
}

DriveResult drive_link(const std::vector<LinkShape>& shapes) {
  return weighted(shapes, [](const LinkShape& s) {
    const std::size_t capacity = std::max<std::size_t>(s.capacity, 1);
    const double serialization_s = kMtuBits / s.rate_bps;
    const auto on_wire =
        static_cast<std::size_t>(std::ceil(s.delay.sec() / serialization_s));
    const std::size_t population = held_packets(s) + on_wire + 1;
    return measure([s, capacity, population, serialization_s](
                       std::size_t ops, AllocCounts* allocs) {
      Simulation sim;
      net::Link link(sim, "drive", s.rate_bps, s.delay,
                     net::make_queue(net::QueueKind::kDropTail, capacity));
      std::size_t delivered = 0;
      link.set_sink([&](net::Packet&& p) {
        ++delivered;
        link.send(std::move(p));
      });
      for (std::size_t i = 0; i < population; ++i) link.send(mtu_packet());
      // Fill the wire before timing, so slab growth is not counted.
      const auto serialize = [serialization_s](std::size_t packets) {
        return Time::seconds(serialization_s * static_cast<double>(packets));
      };
      sim.run_until(s.delay + serialize(population));
      const std::size_t before = delivered;
      const Time until = sim.now() + serialize(ops);
      const auto t0 = Clock::now();
      {
        AllocScope scope(allocs);
        sim.run_until(until);
      }
      return Sample{seconds_since(t0), delivered - before};
    });
  });
}

namespace {

/// Demux key of the i-th synthetic connection: unique (local, remote
/// port) pairs from one remote node.
constexpr net::NodeId kRemote = 1;
std::uint32_t local_port(std::size_t i) {
  return 1 + static_cast<std::uint32_t>(i % 60000);
}
std::uint32_t remote_port(std::size_t i) {
  return 1 + static_cast<std::uint32_t>(i / 60000);
}

struct DemuxHost {
  Simulation sim;
  net::Topology topo{sim};
  net::Node& host = topo.add_node("host");
  std::uint64_t received = 0;

  void bind(std::size_t i) {
    std::uint64_t* counter = &received;
    host.bind_connection(net::Protocol::kTcp, local_port(i), kRemote,
                         remote_port(i),
                         [counter](net::Packet&&) { ++*counter; });
  }
  void unbind(std::size_t i) {
    host.unbind_connection(net::Protocol::kTcp, local_port(i), kRemote,
                           remote_port(i));
  }
};

}  // namespace

DriveResult drive_receive(std::size_t live) {
  live = std::max<std::size_t>(live, 1);
  auto h = std::make_unique<DemuxHost>();
  for (std::size_t i = 0; i < live; ++i) h->bind(i);
  return measure([&h, live](std::size_t ops, AllocCounts* allocs) {
    const std::uint64_t before = h->received;
    std::size_t next = 0;
    const auto t0 = Clock::now();
    {
      AllocScope scope(allocs);
      for (std::size_t i = 0; i < ops; ++i) {
        net::Packet p = mtu_packet();
        p.src = kRemote;
        p.dst = h->host.id();
        p.proto = net::Protocol::kTcp;
        p.tcp.src_port = remote_port(next);
        p.tcp.dst_port = local_port(next);
        if (++next == live) next = 0;
        h->host.receive(std::move(p));
      }
    }
    return Sample{seconds_since(t0),
                  static_cast<std::size_t>(h->received - before)};
  });
}

DriveResult drive_bind(std::size_t live) {
  live = std::max<std::size_t>(live, 1);
  auto h = std::make_unique<DemuxHost>();
  for (std::size_t i = 0; i < live; ++i) h->bind(i);
  constexpr std::size_t kChurnKeys = 1024;
  // Grow the table to its churn size once, outside the timed loops.
  for (std::size_t k = 0; k < kChurnKeys; ++k) h->bind(live + k);
  for (std::size_t k = 0; k < kChurnKeys; ++k) h->unbind(live + k);
  return measure([&h, live](std::size_t ops, AllocCounts* allocs) {
    const auto t0 = Clock::now();
    {
      AllocScope scope(allocs);
      for (std::size_t i = 0; i < ops; ++i) {
        const std::size_t key = live + i % kChurnKeys;
        h->bind(key);
        h->unbind(key);
      }
    }
    return Sample{seconds_since(t0), ops};
  });
}

DriveResult drive_qoe(const ProbeInputs& inputs) {
  const std::size_t per_round =
      inputs.voip.size() + inputs.video.size() + inputs.web.size();
  if (per_round == 0) return {};
  const qoe::G1030 access = qoe::G1030::access_profile();
  const qoe::G1030 backbone = qoe::G1030::backbone_profile();
  return measure([&](std::size_t ops, AllocCounts* allocs) {
    double sink = 0.0;
    std::size_t scored = 0;
    const auto t0 = Clock::now();
    {
      AllocScope scope(allocs);
      while (scored < ops) {
        for (const auto& m : inputs.voip) sink += qoe::VoipQoe::score(m).mos;
        for (const auto& v : inputs.video) {
          sink += qoe::VideoQuality::evaluate(v.frames, v.params).mos;
        }
        for (const auto& w : inputs.web) {
          sink += (w.access ? access : backbone).mos(w.plt);
        }
        scored += per_round;
      }
    }
    const double seconds = seconds_since(t0);
    // Keep the scores observable so the loop is not optimised away.
    if (sink < 0.0) scored = 0;
    return Sample{seconds, scored};
  });
}

}  // namespace perfbench
