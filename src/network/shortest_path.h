#ifndef LHMM_NETWORK_SHORTEST_PATH_H_
#define LHMM_NETWORK_SHORTEST_PATH_H_

#include <optional>
#include <vector>

#include "network/road_network.h"

namespace lhmm::network {

/// A shortest route between two road segments. `segments` lists the full
/// segment chain including both endpoints; `length` is the connecting length
/// in meters, i.e. the sum of all intermediate segment lengths (0 when the
/// target directly follows the source or equals it). This matches the paper's
/// route-length term dist(c_{i-1}^j, c_i^k) in Eq. (3).
struct Route {
  double length = 0.0;
  std::vector<SegmentId> segments;
};

/// Dijkstra-based router between road segments with bounded search and
/// one-to-many queries. Keeps per-instance scratch buffers, so one instance
/// should be reused across queries (not thread safe).
///
/// Route1 and RouteMany are virtual so instrumented routers can stand in
/// anywhere a SegmentRouter* is accepted — notably CachedRouter's pool.
class SegmentRouter {
 public:
  /// The network must outlive the router.
  explicit SegmentRouter(const RoadNetwork* net);
  virtual ~SegmentRouter() = default;

  /// Shortest route from `from` to `to` with connecting length at most
  /// `max_length`. Returns nullopt when unreachable within the bound.
  virtual std::optional<Route> Route1(SegmentId from, SegmentId to,
                                      double max_length);

  /// Shortest routes from `from` to each element of `targets`, all bounded by
  /// `max_length`. Output is parallel to `targets`; unreachable entries are
  /// nullopt. A single Dijkstra pass serves all targets, which is what makes
  /// the HMM candidate graph construction tractable.
  virtual std::vector<std::optional<Route>> RouteMany(
      SegmentId from, const std::vector<SegmentId>& targets,
      double max_length);

  /// Node-to-node shortest path distance bounded by `max_length`; -1 when
  /// unreachable. Exposed for tests and the simulator.
  double NodeDistance(NodeId from, NodeId to, double max_length);

  const RoadNetwork* network() const { return net_; }

 private:
  void RunDijkstra(NodeId source, const std::vector<NodeId>& target_nodes,
                   double max_length);
  /// Reconstructs the intermediate segment chain ending at `node`.
  std::vector<SegmentId> BacktrackSegments(NodeId node) const;

  const RoadNetwork* net_;
  // Scratch: distance labels and parent segments, versioned by stamps to
  // avoid O(V) clearing per query.
  std::vector<double> dist_;
  std::vector<SegmentId> parent_seg_;
  std::vector<int> stamp_;
  std::vector<int> settled_stamp_;
  std::vector<NodeId> targets_scratch_;
  int current_stamp_ = 0;
};

/// Route distance helper used by trajectory-level features: length of the
/// shortest route between two segments, or `fallback` when unreachable.
double RouteLengthOr(SegmentRouter* router, SegmentId from, SegmentId to,
                     double max_length, double fallback);

}  // namespace lhmm::network

#endif  // LHMM_NETWORK_SHORTEST_PATH_H_
