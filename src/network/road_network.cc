#include "network/road_network.h"

#include <algorithm>
#include <cstring>

#include "core/logging.h"
#include "core/strings.h"

namespace lhmm::network {

namespace {

uint64_t MixHash(uint64_t h, uint64_t x) {
  // splitmix64 finalizer folded into a running hash.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return (h * 0x100000001b3ull) ^ x;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

NodeId RoadNetwork::AddNode(const geo::Point& pos) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{id, pos});
  out_segments_.emplace_back();
  in_segments_.emplace_back();
  bounds_.Extend(pos);
  return id;
}

SegmentId RoadNetwork::AddSegment(NodeId from, NodeId to, geo::Polyline geometry,
                                  double speed_limit, RoadLevel level) {
  CHECK_GE(from, 0);
  CHECK_LT(from, num_nodes());
  CHECK_GE(to, 0);
  CHECK_LT(to, num_nodes());
  CHECK_NE(from, to) << "self-loop segments are not supported";
  const SegmentId id = static_cast<SegmentId>(segments_.size());
  RoadSegment seg;
  seg.id = id;
  seg.from = from;
  seg.to = to;
  seg.length = geometry.Length();
  seg.geometry = std::move(geometry);
  seg.speed_limit = speed_limit;
  seg.level = level;
  segments_.push_back(std::move(seg));
  out_segments_[from].push_back(id);
  in_segments_[to].push_back(id);
  return id;
}

SegmentId RoadNetwork::AddSegment(NodeId from, NodeId to, double speed_limit,
                                  RoadLevel level) {
  geo::Polyline geom({nodes_[from].pos, nodes_[to].pos});
  return AddSegment(from, to, std::move(geom), speed_limit, level);
}

void RoadNetwork::SetReverse(SegmentId seg, SegmentId twin) {
  CHECK_GE(seg, 0);
  CHECK_LT(seg, num_segments());
  CHECK_GE(twin, 0);
  CHECK_LT(twin, num_segments());
  CHECK(segments_[seg].from == segments_[twin].to &&
        segments_[seg].to == segments_[twin].from)
      << "reverse twins must connect the same nodes in opposite directions";
  segments_[seg].reverse = twin;
}

SegmentId RoadNetwork::AddTwoWay(NodeId a, NodeId b, double speed_limit,
                                 RoadLevel level) {
  const SegmentId fwd = AddSegment(a, b, speed_limit, level);
  const SegmentId bwd = AddSegment(b, a, speed_limit, level);
  segments_[fwd].reverse = bwd;
  segments_[bwd].reverse = fwd;
  return fwd;
}

core::Status RoadNetwork::Validate() const {
  for (const RoadSegment& seg : segments_) {
    if (seg.from < 0 || seg.from >= num_nodes() || seg.to < 0 ||
        seg.to >= num_nodes()) {
      return core::Status::Internal(
          core::StrFormat("segment %d has out-of-range endpoints", seg.id));
    }
    if (geo::Distance(seg.geometry.front(), nodes_[seg.from].pos) > 1e-6 ||
        geo::Distance(seg.geometry.back(), nodes_[seg.to].pos) > 1e-6) {
      return core::Status::Internal(
          core::StrFormat("segment %d geometry does not match endpoints", seg.id));
    }
    if (seg.length <= 0.0) {
      return core::Status::Internal(
          core::StrFormat("segment %d has non-positive length", seg.id));
    }
    if (seg.reverse != kInvalidSegment) {
      const RoadSegment& twin = segments_[seg.reverse];
      if (twin.from != seg.to || twin.to != seg.from) {
        return core::Status::Internal(
            core::StrFormat("segment %d reverse twin mismatch", seg.id));
      }
    }
  }
  return core::Status::Ok();
}

std::vector<NodeId> RoadNetwork::LargestStronglyConnectedComponent() const {
  // Iterative Tarjan SCC.
  const int n = num_nodes();
  std::vector<int> index(n, -1);
  std::vector<int> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<NodeId> stack;
  std::vector<int> component(n, -1);
  int next_index = 0;
  int num_components = 0;

  struct Frame {
    NodeId node;
    size_t edge = 0;
  };
  std::vector<Frame> call_stack;

  for (NodeId start = 0; start < n; ++start) {
    if (index[start] != -1) continue;
    call_stack.push_back({start, 0});
    index[start] = lowlink[start] = next_index++;
    stack.push_back(start);
    on_stack[start] = true;
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const NodeId v = frame.node;
      const auto& outs = out_segments_[v];
      if (frame.edge < outs.size()) {
        const NodeId w = segments_[outs[frame.edge]].to;
        ++frame.edge;
        if (index[w] == -1) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const NodeId parent = call_stack.back().node;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          while (true) {
            const NodeId w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            component[w] = num_components;
            if (w == v) break;
          }
          ++num_components;
        }
      }
    }
  }

  std::vector<int> sizes(num_components, 0);
  for (NodeId v = 0; v < n; ++v) ++sizes[component[v]];
  const int best =
      static_cast<int>(std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<NodeId> out;
  out.reserve(sizes[best]);
  for (NodeId v = 0; v < n; ++v) {
    if (component[v] == best) out.push_back(v);
  }
  return out;
}

RoadNetwork RoadNetwork::InducedSubnetwork(const std::vector<NodeId>& keep_nodes) const {
  std::vector<NodeId> remap(num_nodes(), kInvalidNode);
  RoadNetwork out;
  for (NodeId old_id : keep_nodes) {
    remap[old_id] = out.AddNode(nodes_[old_id].pos);
  }
  // First pass: copy kept segments, remembering old->new segment ids so that
  // reverse-twin links can be rewritten.
  std::vector<SegmentId> seg_remap(num_segments(), kInvalidSegment);
  for (const RoadSegment& seg : segments_) {
    const NodeId nf = remap[seg.from];
    const NodeId nt = remap[seg.to];
    if (nf == kInvalidNode || nt == kInvalidNode) continue;
    seg_remap[seg.id] =
        out.AddSegment(nf, nt, seg.geometry, seg.speed_limit, seg.level);
  }
  for (const RoadSegment& seg : segments_) {
    if (seg_remap[seg.id] == kInvalidSegment) continue;
    if (seg.reverse != kInvalidSegment &&
        seg_remap[seg.reverse] != kInvalidSegment) {
      out.segments_[seg_remap[seg.id]].reverse = seg_remap[seg.reverse];
    }
  }
  return out;
}

double PathLength(const RoadNetwork& net, const std::vector<SegmentId>& path) {
  double total = 0.0;
  for (SegmentId id : path) total += net.segment(id).length;
  return total;
}

bool IsConnectedPath(const RoadNetwork& net, const std::vector<SegmentId>& path) {
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    if (!net.AreConsecutive(path[i], path[i + 1])) return false;
  }
  return true;
}

uint64_t NetworkFingerprint(const RoadNetwork& net) {
  uint64_t h = 0xcbf29ce484222325ull;
  h = MixHash(h, static_cast<uint64_t>(net.num_nodes()));
  h = MixHash(h, static_cast<uint64_t>(net.num_segments()));
  for (SegmentId sid = 0; sid < net.num_segments(); ++sid) {
    const RoadSegment& seg = net.segment(sid);
    h = MixHash(h, static_cast<uint64_t>(static_cast<uint32_t>(seg.from)));
    h = MixHash(h, static_cast<uint64_t>(static_cast<uint32_t>(seg.to)));
    h = MixHash(h, DoubleBits(seg.length));
  }
  return h;
}

}  // namespace lhmm::network
