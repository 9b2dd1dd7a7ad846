#include <algorithm>
#include <set>

#include "gtest/gtest.h"
#include "network/astar.h"
#include "network/generators.h"
#include "network/k_shortest.h"
#include "network/grid_index.h"
#include "network/path_cache.h"
#include "network/road_network.h"
#include "network/shortest_path.h"

namespace lhmm::network {
namespace {

RoadNetwork MakeTriangle() {
  // a -> b -> c -> a, one-way ring, 3-4-5 triangle.
  RoadNetwork net;
  const NodeId a = net.AddNode({0, 0});
  const NodeId b = net.AddNode({3, 0});
  const NodeId c = net.AddNode({3, 4});
  net.AddSegment(a, b, 10.0, RoadLevel::kLocal);
  net.AddSegment(b, c, 10.0, RoadLevel::kLocal);
  net.AddSegment(c, a, 10.0, RoadLevel::kLocal);
  return net;
}

TEST(RoadNetworkTest, BasicTopology) {
  RoadNetwork net = MakeTriangle();
  EXPECT_EQ(net.num_nodes(), 3);
  EXPECT_EQ(net.num_segments(), 3);
  EXPECT_TRUE(net.Validate().ok());
  EXPECT_TRUE(net.AreConsecutive(0, 1));
  EXPECT_FALSE(net.AreConsecutive(0, 2));
  EXPECT_EQ(net.NextSegments(0).size(), 1u);
  EXPECT_EQ(net.NextSegments(0)[0], 1);
  EXPECT_DOUBLE_EQ(net.segment(2).length, 5.0);
}

TEST(RoadNetworkTest, TwoWayTwins) {
  RoadNetwork net;
  const NodeId a = net.AddNode({0, 0});
  const NodeId b = net.AddNode({100, 0});
  const SegmentId fwd = net.AddTwoWay(a, b, 13.9, RoadLevel::kArterial);
  const SegmentId bwd = net.segment(fwd).reverse;
  ASSERT_NE(bwd, kInvalidSegment);
  EXPECT_EQ(net.segment(bwd).reverse, fwd);
  EXPECT_EQ(net.segment(bwd).from, b);
  EXPECT_EQ(net.segment(bwd).to, a);
  EXPECT_TRUE(net.Validate().ok());
}

TEST(RoadNetworkTest, PathHelpers) {
  RoadNetwork net = MakeTriangle();
  const std::vector<SegmentId> path = {0, 1, 2};
  EXPECT_DOUBLE_EQ(PathLength(net, path), 12.0);
  EXPECT_TRUE(IsConnectedPath(net, path));
  const std::vector<SegmentId> broken = {0, 2};
  EXPECT_FALSE(IsConnectedPath(net, broken));
}

TEST(RoadNetworkTest, LargestScc) {
  RoadNetwork net = MakeTriangle();
  // A dangling one-way spur cannot be in the SCC.
  const NodeId d = net.AddNode({10, 10});
  net.AddSegment(0, d, 10.0, RoadLevel::kLocal);
  const std::vector<NodeId> scc = net.LargestStronglyConnectedComponent();
  EXPECT_EQ(scc.size(), 3u);
  RoadNetwork pruned = net.InducedSubnetwork(scc);
  EXPECT_EQ(pruned.num_nodes(), 3);
  EXPECT_EQ(pruned.num_segments(), 3);
  EXPECT_TRUE(pruned.Validate().ok());
}

TEST(RoadNetworkTest, FingerprintBitsArePinned) {
  // Model stores record this value in their header and the generation
  // manager compares it on every open, so stores already on disk only stay
  // servable while these bits never change.
  EXPECT_EQ(NetworkFingerprint(GenerateGridNetwork(6, 6, 200.0)),
            0x9e8cc257d0b713baull);
  EXPECT_EQ(NetworkFingerprint(GenerateGridNetwork(10, 10, 200.0)),
            0x94289df9c5fed466ull);
}

TEST(GridIndexTest, RadiusQueryAndNearest) {
  RoadNetwork net = GenerateGridNetwork(5, 5, 100.0);
  GridIndex index(&net, 80.0);
  // Query near the center node (2,2) at (200, 200).
  const auto hits = index.Query({200, 200}, 60.0);
  ASSERT_FALSE(hits.empty());
  for (const SegmentHit& h : hits) {
    EXPECT_LE(h.dist, 60.0);
  }
  // Sorted by distance.
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].dist, hits[i].dist);
  }
  const auto nearest = index.Nearest({200, 200}, 10);
  EXPECT_EQ(nearest.size(), 10u);
  // Nearest's best distance matches the radius query's best (ids may differ
  // under exact ties).
  EXPECT_NEAR(nearest[0].dist, hits[0].dist, 1e-9);
}

TEST(GridIndexTest, NearestMoreThanNetworkReturnsAll) {
  RoadNetwork net = GenerateGridNetwork(2, 2, 100.0);
  GridIndex index(&net, 50.0);
  const auto nearest = index.Nearest({50, 50}, 1000);
  EXPECT_EQ(static_cast<int>(nearest.size()), net.num_segments());
}

TEST(SegmentRouterTest, TrivialAndAdjacentRoutes) {
  RoadNetwork net = MakeTriangle();
  SegmentRouter router(&net);
  const auto self_route = router.Route1(0, 0, 1000.0);
  ASSERT_TRUE(self_route.has_value());
  EXPECT_DOUBLE_EQ(self_route->length, 0.0);
  EXPECT_EQ(self_route->segments.size(), 1u);

  const auto adjacent = router.Route1(0, 1, 1000.0);
  ASSERT_TRUE(adjacent.has_value());
  EXPECT_DOUBLE_EQ(adjacent->length, 0.0);
  EXPECT_EQ(adjacent->segments.size(), 2u);
}

TEST(SegmentRouterTest, RouteAroundRing) {
  RoadNetwork net = MakeTriangle();
  SegmentRouter router(&net);
  // 0 -> 2 must pass through 1 (one-way ring): connecting length = len(1)=4.
  const auto route = router.Route1(0, 2, 1000.0);
  ASSERT_TRUE(route.has_value());
  EXPECT_DOUBLE_EQ(route->length, 4.0);
  ASSERT_EQ(route->segments.size(), 3u);
  EXPECT_EQ(route->segments[1], 1);
}

TEST(SegmentRouterTest, BoundCutsOffRoutes) {
  RoadNetwork net = MakeTriangle();
  SegmentRouter router(&net);
  EXPECT_FALSE(router.Route1(0, 2, 3.0).has_value());
  EXPECT_TRUE(router.Route1(0, 2, 4.5).has_value());
}

TEST(SegmentRouterTest, RouteManyMatchesRoute1) {
  RoadNetwork net = GenerateGridNetwork(6, 6, 100.0);
  SegmentRouter router(&net);
  std::vector<SegmentId> targets;
  for (SegmentId s = 0; s < net.num_segments(); s += 7) targets.push_back(s);
  const auto many = router.RouteMany(3, targets, 2000.0);
  for (size_t i = 0; i < targets.size(); ++i) {
    const auto one = router.Route1(3, targets[i], 2000.0);
    ASSERT_EQ(many[i].has_value(), one.has_value()) << "target " << targets[i];
    if (one.has_value()) {
      EXPECT_DOUBLE_EQ(many[i]->length, one->length);
    }
  }
}

TEST(SegmentRouterTest, RoutesAreConnectedPaths) {
  RoadNetwork net = GenerateGridNetwork(8, 8, 100.0);
  SegmentRouter router(&net);
  core::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const SegmentId from = rng.UniformInt(net.num_segments());
    const SegmentId to = rng.UniformInt(net.num_segments());
    const auto route = router.Route1(from, to, 5000.0);
    ASSERT_TRUE(route.has_value());
    EXPECT_TRUE(IsConnectedPath(net, route->segments));
    EXPECT_EQ(route->segments.front(), from);
    EXPECT_EQ(route->segments.back(), to);
    // Connecting length equals sum of intermediate lengths.
    double mid = 0.0;
    for (size_t i = 1; i + 1 < route->segments.size(); ++i) {
      mid += net.segment(route->segments[i]).length;
    }
    if (from != to) {
      EXPECT_NEAR(route->length, mid, 1e-9);
    }
  }
}

TEST(CachedRouterTest, CacheHitsAndConsistency) {
  RoadNetwork net = GenerateGridNetwork(6, 6, 100.0);
  SegmentRouter router(&net);
  CachedRouter cached(&router);
  const auto first = cached.Route1(0, 30, 3000.0);
  const auto second = cached.Route1(0, 30, 3000.0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(first->length, second->length);
  EXPECT_GT(cached.hits(), 0);
  EXPECT_GT(cached.misses(), 0);
}

TEST(CachedRouterTest, NegativeEntriesRespectBounds) {
  RoadNetwork net = GenerateGridNetwork(6, 6, 100.0);
  SegmentRouter router(&net);
  CachedRouter cached(&router);
  // Unreachable with a small bound, reachable with a larger one: the cached
  // negative result must not shadow the broader query.
  const auto blocked = cached.Route1(0, net.num_segments() - 1, 50.0);
  EXPECT_FALSE(blocked.has_value());
  const auto open = cached.Route1(0, net.num_segments() - 1, 10000.0);
  EXPECT_TRUE(open.has_value());
}

TEST(CachedRouterTest, WarmAllPrefillsNeighborhoods) {
  RoadNetwork net = GenerateGridNetwork(5, 5, 100.0);
  GridIndex index(&net, 80.0);
  SegmentRouter router(&net);
  CachedRouter cached(&router);
  cached.WarmAll(index, 300.0);
  const size_t warmed = cached.size();
  EXPECT_GT(warmed, static_cast<size_t>(net.num_segments()));
  const int64_t misses_before = cached.misses();
  // A short-range query after warming is a pure cache hit.
  const auto route = cached.Route1(0, 1, 250.0);
  EXPECT_TRUE(route.has_value());
  EXPECT_EQ(cached.misses(), misses_before);
  EXPECT_GT(cached.hits(), 0);
}

TEST(GeneratorTest, CityNetworkIsStronglyConnected) {
  CityNetworkConfig cfg;
  cfg.width = 3000.0;
  cfg.height = 2500.0;
  RoadNetwork net = GenerateCityNetwork(cfg);
  EXPECT_GT(net.num_nodes(), 20);
  EXPECT_GT(net.num_segments(), 40);
  EXPECT_TRUE(net.Validate().ok());
  const auto scc = net.LargestStronglyConnectedComponent();
  EXPECT_EQ(static_cast<int>(scc.size()), net.num_nodes());
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  CityNetworkConfig cfg;
  cfg.width = 2000.0;
  cfg.height = 2000.0;
  RoadNetwork a = GenerateCityNetwork(cfg);
  RoadNetwork b = GenerateCityNetwork(cfg);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_segments(), b.num_segments());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(a.node(v).pos.x, b.node(v).pos.x);
    EXPECT_DOUBLE_EQ(a.node(v).pos.y, b.node(v).pos.y);
  }
}

TEST(GeneratorTest, CoreDenserThanEdge) {
  CityNetworkConfig cfg;
  cfg.width = 6000.0;
  cfg.height = 6000.0;
  RoadNetwork net = GenerateCityNetwork(cfg);
  const geo::Point center = net.Bounds().Center();
  int core_nodes = 0;
  int ring_nodes = 0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const double r = geo::Distance(net.node(v).pos, center);
    if (r < 1000.0) ++core_nodes;
    if (r >= 2000.0 && r < 3000.0) ++ring_nodes;
  }
  // Core annulus area is ~pi*1e6, ring annulus ~pi*5e6: equal density would
  // put ~5x more nodes in the ring. Denser core means far fewer than that.
  EXPECT_GT(core_nodes * 3, ring_nodes);
}

TEST(AStarTest, AgreesWithDijkstraOnRandomPairs) {
  RoadNetwork net = GenerateGridNetwork(9, 9, 120.0);
  SegmentRouter dijkstra(&net);
  AStarRouter astar(&net);
  core::Rng rng(77);
  for (int trial = 0; trial < 80; ++trial) {
    const SegmentId from = rng.UniformInt(net.num_segments());
    const SegmentId to = rng.UniformInt(net.num_segments());
    const auto a = astar.Route1(from, to, 8000.0);
    const auto d = dijkstra.Route1(from, to, 8000.0);
    ASSERT_EQ(a.has_value(), d.has_value());
    if (a.has_value()) {
      EXPECT_NEAR(a->length, d->length, 1e-6);
      EXPECT_TRUE(IsConnectedPath(net, a->segments));
      EXPECT_EQ(a->segments.front(), from);
      EXPECT_EQ(a->segments.back(), to);
    }
  }
}

TEST(AStarTest, RespectsBound) {
  RoadNetwork net = GenerateGridNetwork(6, 6, 100.0);
  AStarRouter astar(&net);
  SegmentRouter dijkstra(&net);
  const SegmentId from = 0;
  const SegmentId to = net.num_segments() - 1;
  const auto full = dijkstra.Route1(from, to, 1e9);
  ASSERT_TRUE(full.has_value());
  EXPECT_FALSE(astar.Route1(from, to, full->length * 0.5).has_value());
  EXPECT_TRUE(astar.Route1(from, to, full->length + 1.0).has_value());
}

TEST(AStarTest, ExpandsFewerNodesThanDijkstraFrontier) {
  // On a long corridor query, A* should settle well under the full grid.
  RoadNetwork net = GenerateGridNetwork(15, 15, 100.0);
  AStarRouter astar(&net);
  const auto route = astar.Route1(0, net.num_segments() - 1, 1e9);
  ASSERT_TRUE(route.has_value());
  EXPECT_LT(astar.last_expanded(), net.num_nodes());
}

TEST(KShortestTest, FirstPathIsShortestAndOrdered) {
  RoadNetwork net = GenerateGridNetwork(6, 6, 100.0);
  KShortestPaths yen(&net);
  SegmentRouter dijkstra(&net);
  const SegmentId from = 0;
  const SegmentId to = net.num_segments() - 3;
  const auto routes = yen.Find(from, to, 4, 1e6);
  ASSERT_GE(routes.size(), 2u);
  const auto best = dijkstra.Route1(from, to, 1e6);
  ASSERT_TRUE(best.has_value());
  EXPECT_NEAR(routes[0].length, best->length, 1e-9);
  for (size_t i = 1; i < routes.size(); ++i) {
    EXPECT_GE(routes[i].length, routes[i - 1].length - 1e-9);
    EXPECT_TRUE(IsConnectedPath(net, routes[i].segments));
    EXPECT_EQ(routes[i].segments.front(), from);
    EXPECT_EQ(routes[i].segments.back(), to);
  }
  // All returned chains are distinct.
  for (size_t i = 0; i < routes.size(); ++i) {
    for (size_t j = i + 1; j < routes.size(); ++j) {
      EXPECT_NE(routes[i].segments, routes[j].segments);
    }
  }
}

TEST(KShortestTest, GridAdmitsManyAlternatives) {
  RoadNetwork net = GenerateGridNetwork(5, 5, 100.0);
  KShortestPaths yen(&net);
  const auto routes = yen.Find(0, net.num_segments() - 1, 6, 1e6);
  EXPECT_GE(routes.size(), 4u);  // Grids have many near-shortest detours.
}

TEST(KShortestTest, RespectsBoundAndDegenerateCases) {
  RoadNetwork net = GenerateGridNetwork(4, 4, 100.0);
  KShortestPaths yen(&net);
  // Self route.
  const auto self_routes = yen.Find(2, 2, 3, 1e6);
  ASSERT_GE(self_routes.size(), 1u);
  EXPECT_DOUBLE_EQ(self_routes[0].length, 0.0);
  // Impossible bound.
  const auto blocked = yen.Find(0, net.num_segments() - 1, 3, 1.0);
  EXPECT_TRUE(blocked.empty());
}

class RouterPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RouterPropertyTest, TriangleInequalityOverWaypoint) {
  RoadNetwork net = GenerateGridNetwork(7, 7, 100.0);
  SegmentRouter router(&net);
  core::Rng rng(GetParam());
  const SegmentId a = rng.UniformInt(net.num_segments());
  const SegmentId b = rng.UniformInt(net.num_segments());
  const SegmentId c = rng.UniformInt(net.num_segments());
  const auto ab = router.Route1(a, b, 10000.0);
  const auto bc = router.Route1(b, c, 10000.0);
  const auto ac = router.Route1(a, c, 10000.0);
  ASSERT_TRUE(ab.has_value());
  ASSERT_TRUE(bc.has_value());
  ASSERT_TRUE(ac.has_value());
  // Going via b cannot beat the direct shortest route (b's own length joins
  // the via-route once).
  EXPECT_LE(ac->length,
            ab->length + net.segment(b).length + bc->length + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterPropertyTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace lhmm::network
