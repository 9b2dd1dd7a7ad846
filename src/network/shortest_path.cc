#include "network/shortest_path.h"

#include <algorithm>
#include <queue>

#include "core/logging.h"

namespace lhmm::network {

SegmentRouter::SegmentRouter(const RoadNetwork* net) : net_(net) {
  CHECK(net != nullptr);
  dist_.assign(net->num_nodes(), 0.0);
  parent_seg_.assign(net->num_nodes(), kInvalidSegment);
  stamp_.assign(net->num_nodes(), 0);
  settled_stamp_.assign(net->num_nodes(), 0);
}

void SegmentRouter::RunDijkstra(NodeId source, const std::vector<NodeId>& target_nodes,
                                double max_length) {
  ++current_stamp_;
  targets_scratch_ = target_nodes;
  std::sort(targets_scratch_.begin(), targets_scratch_.end());
  targets_scratch_.erase(
      std::unique(targets_scratch_.begin(), targets_scratch_.end()),
      targets_scratch_.end());
  int remaining = static_cast<int>(targets_scratch_.size());

  using HeapEntry = std::pair<double, NodeId>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  dist_[source] = 0.0;
  parent_seg_[source] = kInvalidSegment;
  stamp_[source] = current_stamp_;
  heap.push({0.0, source});

  while (!heap.empty() && remaining > 0) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > max_length) break;
    if (settled_stamp_[v] == current_stamp_) continue;
    settled_stamp_[v] = current_stamp_;
    if (std::binary_search(targets_scratch_.begin(), targets_scratch_.end(), v)) {
      --remaining;
    }
    for (SegmentId sid : net_->OutSegments(v)) {
      const RoadSegment& seg = net_->segment(sid);
      const double nd = d + seg.length;
      if (nd > max_length) continue;
      if (stamp_[seg.to] != current_stamp_ || nd < dist_[seg.to]) {
        stamp_[seg.to] = current_stamp_;
        dist_[seg.to] = nd;
        parent_seg_[seg.to] = sid;
        heap.push({nd, seg.to});
      }
    }
  }
}

std::vector<SegmentId> SegmentRouter::BacktrackSegments(NodeId node) const {
  std::vector<SegmentId> out;
  NodeId v = node;
  while (parent_seg_[v] != kInvalidSegment) {
    const SegmentId sid = parent_seg_[v];
    out.push_back(sid);
    v = net_->segment(sid).from;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::optional<Route> SegmentRouter::Route1(SegmentId from, SegmentId to,
                                           double max_length) {
  std::vector<std::optional<Route>> routes = RouteMany(from, {to}, max_length);
  return std::move(routes[0]);
}

std::vector<std::optional<Route>> SegmentRouter::RouteMany(
    SegmentId from, const std::vector<SegmentId>& targets, double max_length) {
  std::vector<std::optional<Route>> out(targets.size());
  const RoadSegment& src = net_->segment(from);

  std::vector<NodeId> target_nodes;
  target_nodes.reserve(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] == from) continue;
    target_nodes.push_back(net_->segment(targets[i]).from);
  }
  if (!target_nodes.empty()) {
    RunDijkstra(src.to, target_nodes, max_length);
  }

  for (size_t i = 0; i < targets.size(); ++i) {
    const SegmentId to = targets[i];
    if (to == from) {
      out[i] = Route{0.0, {from}};
      continue;
    }
    const NodeId goal = net_->segment(to).from;
    // Only settled labels are final shortest distances.
    if (settled_stamp_[goal] != current_stamp_) continue;
    Route route;
    route.length = dist_[goal];
    route.segments.push_back(from);
    std::vector<SegmentId> mid = BacktrackSegments(goal);
    route.segments.insert(route.segments.end(), mid.begin(), mid.end());
    route.segments.push_back(to);
    out[i] = std::move(route);
  }
  return out;
}

double SegmentRouter::NodeDistance(NodeId from, NodeId to, double max_length) {
  if (from == to) return 0.0;
  RunDijkstra(from, {to}, max_length);
  if (settled_stamp_[to] != current_stamp_) return -1.0;
  return dist_[to];
}

double RouteLengthOr(SegmentRouter* router, SegmentId from, SegmentId to,
                     double max_length, double fallback) {
  std::optional<Route> route = router->Route1(from, to, max_length);
  return route.has_value() ? route->length : fallback;
}

}  // namespace lhmm::network
