#include "eval/evaluator.h"

#include <algorithm>

#include "core/logging.h"
#include "core/stopwatch.h"
#include "matchers/streaming.h"

namespace lhmm::eval {

traj::Trajectory Preprocess(const traj::Trajectory& raw,
                            const traj::FilterConfig& config) {
  traj::Trajectory t = traj::PreprocessCellular(raw, config);
  return traj::DeduplicateTowers(t);
}

namespace {

/// Matches split[i] (preprocessed), timing the match alone, and scores it.
TrajectoryEval EvaluateOne(matchers::MapMatcher* matcher, bool has_candidates,
                           const network::RoadNetwork& net,
                           const std::vector<traj::MatchedTrajectory>& split,
                           size_t i, const traj::FilterConfig& filter_config,
                           double corridor_radius) {
  const traj::MatchedTrajectory& mt = split[i];
  const traj::Trajectory cleaned = Preprocess(mt.cellular, filter_config);
  core::Stopwatch watch;
  const matchers::MatchResult result = matcher->Match(cleaned);
  TrajectoryEval rec;
  rec.index = static_cast<int>(i);
  rec.time_s = watch.ElapsedSeconds();
  rec.metrics = ComputePathMetrics(net, result.path, mt.truth_path, corridor_radius);
  rec.num_breaks = result.num_breaks;
  rec.gap_seconds = result.gap_seconds;
  rec.gap_coverage = result.gap_coverage;
  if (has_candidates) {
    rec.hitting_ratio = HittingRatio(result.candidates, result.point_index,
                                     cleaned.size(), mt.truth_path);
  }
  return rec;
}

}  // namespace

std::vector<TrajectoryEval> EvaluatePerTrajectory(
    matchers::MapMatcher* matcher, const network::RoadNetwork& net,
    const std::vector<traj::MatchedTrajectory>& split,
    const traj::FilterConfig& filter_config, double corridor_radius) {
  std::vector<TrajectoryEval> out;
  out.reserve(split.size());
  for (size_t i = 0; i < split.size(); ++i) {
    out.push_back(EvaluateOne(matcher, matcher->ProvidesCandidates(), net, split,
                              i, filter_config, corridor_radius));
  }
  return out;
}

EvalSummary Summarize(const std::vector<TrajectoryEval>& records,
                      const std::string& matcher_name, bool has_hr) {
  EvalSummary s;
  s.matcher = matcher_name;
  s.num_trajectories = static_cast<int>(records.size());
  s.has_hr = has_hr;
  if (records.empty()) return s;
  for (const TrajectoryEval& r : records) {
    s.precision += r.metrics.precision;
    s.recall += r.metrics.recall;
    s.rmf += r.metrics.rmf;
    s.cmf50 += r.metrics.cmf;
    s.hitting_ratio += r.hitting_ratio;
    s.avg_time_s += r.time_s;
    s.mean_breaks += r.num_breaks;
    s.mean_gap_seconds += r.gap_seconds;
    s.mean_gap_coverage += r.gap_coverage;
  }
  const double n = static_cast<double>(records.size());
  s.precision /= n;
  s.recall /= n;
  s.rmf /= n;
  s.cmf50 /= n;
  s.hitting_ratio /= n;
  s.avg_time_s /= n;
  s.mean_breaks /= n;
  s.mean_gap_seconds /= n;
  s.mean_gap_coverage /= n;
  return s;
}

std::vector<TrajectoryEval> EvaluatePerTrajectoryParallel(
    matchers::BatchMatcher* batch, const network::RoadNetwork& net,
    const std::vector<traj::MatchedTrajectory>& split,
    const traj::FilterConfig& filter_config, double corridor_radius) {
  std::vector<TrajectoryEval> out(split.size());
  const bool has_candidates = batch->provides_candidates();
  batch->ForEach(
      static_cast<int64_t>(split.size()),
      [&](matchers::MapMatcher* matcher, int64_t i) {
        out[i] = EvaluateOne(matcher, has_candidates, net, split, i,
                             filter_config, corridor_radius);
      });
  return out;
}

EvalSummary EvaluateMatcherParallel(
    matchers::BatchMatcher* batch, const network::RoadNetwork& net,
    const std::vector<traj::MatchedTrajectory>& split,
    const traj::FilterConfig& filter_config, double corridor_radius) {
  return Summarize(EvaluatePerTrajectoryParallel(batch, net, split, filter_config,
                                                 corridor_radius),
                   batch->name(), batch->provides_candidates());
}

double PrefixMatchRatio(const std::vector<network::SegmentId>& streamed,
                        const std::vector<network::SegmentId>& offline) {
  if (offline.empty()) return streamed.empty() ? 1.0 : 0.0;
  const size_t n = std::min(streamed.size(), offline.size());
  size_t lcp = 0;
  while (lcp < n && streamed[lcp] == offline[lcp]) ++lcp;
  return static_cast<double>(lcp) / static_cast<double>(offline.size());
}

std::vector<OnlineTrajectoryEval> EvaluateOnline(
    matchers::MapMatcher* matcher, const network::RoadNetwork& net,
    const std::vector<traj::MatchedTrajectory>& split,
    const traj::FilterConfig& filter_config, int lag, double corridor_radius) {
  matchers::StreamConfig sc;
  sc.lag = lag;
  std::unique_ptr<matchers::StreamingSession> session = matcher->OpenSession(sc);
  CHECK(session != nullptr) << matcher->name() << " does not support streaming";
  auto* online = dynamic_cast<matchers::OnlineSession*>(session.get());
  std::vector<OnlineTrajectoryEval> out;
  out.reserve(split.size());
  for (size_t i = 0; i < split.size(); ++i) {
    const traj::MatchedTrajectory& mt = split[i];
    const traj::Trajectory cleaned = Preprocess(mt.cellular, filter_config);
    session->Reset();
    OnlineTrajectoryEval rec;
    rec.index = static_cast<int>(i);
    // Offline reference first, while the session is idle (shared models).
    std::vector<network::SegmentId> offline;
    if (online != nullptr) offline = online->MatchOffline(cleaned).path;
    core::Stopwatch watch;
    for (int p = 0; p < cleaned.size(); ++p) session->Push(cleaned[p]);
    session->Finish();
    rec.time_s = watch.ElapsedSeconds();
    const std::vector<network::SegmentId>& streamed = session->committed();
    rec.metrics = ComputePathMetrics(net, streamed, mt.truth_path, corridor_radius);
    if (online != nullptr) rec.prefix_match = PrefixMatchRatio(streamed, offline);
    rec.commit_latency = session->stats().MeanCommitLatency();
    out.push_back(rec);
  }
  return out;
}

std::vector<OnlineTrajectoryEval> EvaluateOnlineParallel(
    matchers::MatcherFactory factory, const network::RoadNetwork& net,
    const std::vector<traj::MatchedTrajectory>& split,
    const traj::FilterConfig& filter_config,
    const matchers::StreamEngineConfig& engine_config,
    const std::vector<std::vector<network::SegmentId>>* offline_paths,
    double corridor_radius) {
  if (offline_paths != nullptr) CHECK_EQ(offline_paths->size(), split.size());
  std::vector<traj::Trajectory> cleaned(split.size());
  for (size_t i = 0; i < split.size(); ++i) {
    cleaned[i] = Preprocess(split[i].cellular, filter_config);
  }
  matchers::StreamEngine engine(std::move(factory), engine_config);
  std::vector<matchers::SessionId> ids(split.size());
  for (size_t i = 0; i < split.size(); ++i) ids[i] = engine.Open();
  // Round-robin point feeding: one point of every live trajectory per sweep,
  // so thousands of sessions interleave the way a serving front end would.
  size_t done = 0;
  for (int pos = 0; done < split.size(); ++pos) {
    for (size_t i = 0; i < split.size(); ++i) {
      if (pos < cleaned[i].size()) {
        engine.Push(ids[i], cleaned[i][pos]);
      } else if (pos == cleaned[i].size()) {
        engine.Finish(ids[i]);
        ++done;
      }
    }
  }
  engine.Barrier();
  std::vector<OnlineTrajectoryEval> out(split.size());
  for (size_t i = 0; i < split.size(); ++i) {
    OnlineTrajectoryEval& rec = out[i];
    rec.index = static_cast<int>(i);
    const std::vector<network::SegmentId> streamed = engine.Committed(ids[i]);
    rec.metrics =
        ComputePathMetrics(net, streamed, split[i].truth_path, corridor_radius);
    if (offline_paths != nullptr) {
      rec.prefix_match = PrefixMatchRatio(streamed, (*offline_paths)[i]);
    }
    rec.commit_latency = engine.Stats(ids[i]).MeanCommitLatency();
  }
  return out;
}

OnlineEvalSummary SummarizeOnline(const std::vector<OnlineTrajectoryEval>& records,
                                  const std::string& matcher_name, int lag) {
  OnlineEvalSummary s;
  s.matcher = matcher_name;
  s.lag = lag;
  s.num_trajectories = static_cast<int>(records.size());
  if (records.empty()) return s;
  for (const OnlineTrajectoryEval& r : records) {
    s.precision += r.metrics.precision;
    s.recall += r.metrics.recall;
    s.rmf += r.metrics.rmf;
    s.cmf50 += r.metrics.cmf;
    s.prefix_match += r.prefix_match;
    s.commit_latency += r.commit_latency;
    s.avg_time_s += r.time_s;
  }
  const double n = static_cast<double>(records.size());
  s.precision /= n;
  s.recall /= n;
  s.rmf /= n;
  s.cmf50 /= n;
  s.prefix_match /= n;
  s.commit_latency /= n;
  s.avg_time_s /= n;
  return s;
}

EvalSummary EvaluateMatcher(matchers::MapMatcher* matcher,
                            const network::RoadNetwork& net,
                            const std::vector<traj::MatchedTrajectory>& split,
                            const traj::FilterConfig& filter_config,
                            double corridor_radius) {
  return Summarize(EvaluatePerTrajectory(matcher, net, split, filter_config,
                                         corridor_radius),
                   matcher->name(), matcher->ProvidesCandidates());
}

}  // namespace lhmm::eval
