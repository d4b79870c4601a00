// perfbench -- per-layer drives.
//
// Small loops that call one layer's public functions in isolation, with the
// parameters a traced workload run recorded: the scheduler at the run's
// peak pending depth, the bottleneck buffer at its capacity and mean
// occupancy, the link at its rate and delay, the demux table at the run's
// peak live flows, and the QoE models on the run's own probe inputs. Each
// drive reports the median host time per operation over several repetitions
// and the exact allocation count per operation of one more repetition.
#pragma once

#include <cstddef>
#include <vector>

#include "cells.hpp"

namespace perfbench {

struct DriveResult {
  double ns_per_op = 0.0;
  double allocs_per_op = 0.0;
};

/// schedule_at + step hold loop at `depth` pending events.
DriveResult drive_scheduler(std::size_t depth);

/// enqueue + dequeue on each shape's drop-tail buffer held at its mean
/// occupancy; shapes weighted by the packets they saw.
DriveResult drive_queue(const std::vector<LinkShape>& shapes);

/// Link::send -> sink recirculation at each shape's rate, delay and
/// occupancy; one operation is one delivered hop.
DriveResult drive_link(const std::vector<LinkShape>& shapes);

/// Node::receive into a demux table holding `live` connections.
DriveResult drive_receive(std::size_t live);

/// bind_connection + unbind_connection beside `live` bound connections.
DriveResult drive_bind(std::size_t live);

/// VoipQoe::score, VideoQuality::evaluate and G.1030 MOS over `inputs`;
/// zero when there are none.
DriveResult drive_qoe(const ProbeInputs& inputs);

}  // namespace perfbench
