#ifndef LHMM_NETWORK_ROAD_NETWORK_H_
#define LHMM_NETWORK_ROAD_NETWORK_H_

#include <cstdint>
#include <vector>

#include "core/status.h"
#include "geo/bbox.h"
#include "geo/point.h"
#include "geo/polyline.h"

namespace lhmm::network {

using NodeId = int32_t;
using SegmentId = int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr SegmentId kInvalidSegment = -1;

/// An intersection or terminal point of the road network (Definition 3).
struct Node {
  NodeId id = kInvalidNode;
  geo::Point pos;
};

/// Functional class of a road, used by the simulator's speed model and by
/// baseline heuristics.
enum class RoadLevel { kArterial = 0, kCollector = 1, kLocal = 2 };

/// A directed road segment connecting two nodes (Definition 3). Two-way roads
/// are represented as a pair of segments that reference each other through
/// `reverse`.
struct RoadSegment {
  SegmentId id = kInvalidSegment;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  geo::Polyline geometry;             ///< From `from`'s position to `to`'s.
  double length = 0.0;                ///< Cached geometry length, meters.
  double speed_limit = 13.9;          ///< Meters per second.
  RoadLevel level = RoadLevel::kLocal;
  SegmentId reverse = kInvalidSegment;  ///< Opposite direction twin, if any.
};

/// A directed road network G<V, E>. Nodes and segments are identified by dense
/// integer ids, which downstream components (spatial index, routers, graph
/// learners) use as array indices.
class RoadNetwork {
 public:
  RoadNetwork() = default;

  // Movable but not copyable: downstream components hold pointers into it.
  RoadNetwork(RoadNetwork&&) = default;
  RoadNetwork& operator=(RoadNetwork&&) = default;
  RoadNetwork(const RoadNetwork&) = delete;
  RoadNetwork& operator=(const RoadNetwork&) = delete;

  /// Adds a node at `pos` and returns its id.
  NodeId AddNode(const geo::Point& pos);

  /// Adds a directed segment with an explicit geometry whose endpoints must
  /// match the node positions. Returns its id.
  SegmentId AddSegment(NodeId from, NodeId to, geo::Polyline geometry,
                       double speed_limit, RoadLevel level);

  /// Adds a straight-line directed segment between two existing nodes.
  SegmentId AddSegment(NodeId from, NodeId to, double speed_limit, RoadLevel level);

  /// Adds both directions of a straight two-way road; the twins reference each
  /// other via `reverse`. Returns the forward segment id.
  SegmentId AddTwoWay(NodeId a, NodeId b, double speed_limit, RoadLevel level);

  /// Marks `seg` and `twin` as reverse twins (used by deserialization). The
  /// segments must connect the same nodes in opposite directions.
  void SetReverse(SegmentId seg, SegmentId twin);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_segments() const { return static_cast<int>(segments_.size()); }

  const Node& node(NodeId id) const { return nodes_[id]; }
  const RoadSegment& segment(SegmentId id) const { return segments_[id]; }
  const std::vector<RoadSegment>& segments() const { return segments_; }

  /// Segments leaving `node`.
  const std::vector<SegmentId>& OutSegments(NodeId node) const {
    return out_segments_[node];
  }

  /// Segments entering `node`.
  const std::vector<SegmentId>& InSegments(NodeId node) const {
    return in_segments_[node];
  }

  /// Segments that can directly follow `seg` on a path (start at seg.to).
  const std::vector<SegmentId>& NextSegments(SegmentId seg) const {
    return out_segments_[segments_[seg].to];
  }

  /// Segments that can directly precede `seg` on a path (end at seg.from).
  const std::vector<SegmentId>& PrevSegments(SegmentId seg) const {
    return in_segments_[segments_[seg].from];
  }

  /// Returns true if `b` can directly follow `a` (shares the junction node).
  bool AreConsecutive(SegmentId a, SegmentId b) const {
    return segments_[a].to == segments_[b].from;
  }

  /// Bounding box of all node positions.
  const geo::BBox& Bounds() const { return bounds_; }

  /// Structural sanity check (endpoint consistency, geometry endpoints).
  core::Status Validate() const;

  /// Returns node ids of the largest strongly connected component.
  std::vector<NodeId> LargestStronglyConnectedComponent() const;

  /// Builds a new network restricted to `keep_nodes` (and segments whose both
  /// endpoints are kept), with densely renumbered ids.
  RoadNetwork InducedSubnetwork(const std::vector<NodeId>& keep_nodes) const;

 private:
  std::vector<Node> nodes_;
  std::vector<RoadSegment> segments_;
  std::vector<std::vector<SegmentId>> out_segments_;
  std::vector<std::vector<SegmentId>> in_segments_;
  geo::BBox bounds_;
};

/// Total length in meters of a path given as consecutive segment ids.
double PathLength(const RoadNetwork& net, const std::vector<SegmentId>& path);

/// Returns true if every consecutive pair in `path` is connected in `net`.
bool IsConnectedPath(const RoadNetwork& net, const std::vector<SegmentId>& path);

/// Deterministic fingerprint of the network topology + lengths. Model stores
/// record it in their header and the generation manager pins it, so its bits
/// must never change: stores already on disk validate against it.
uint64_t NetworkFingerprint(const RoadNetwork& net);

}  // namespace lhmm::network

#endif  // LHMM_NETWORK_ROAD_NETWORK_H_
