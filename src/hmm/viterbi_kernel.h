#ifndef LHMM_HMM_VITERBI_KERNEL_H_
#define LHMM_HMM_VITERBI_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lhmm::hmm {

/// Flat row-major arena for one Viterbi column's transition weights.
/// Entry (j, k) holds W(c_{s-1}^j -> c_s^k) of Eq. (13); `reach` marks the
/// pairs a route existed for (weights are stored for *all* pairs — the
/// shortcut pass of Algorithm 2 ranks predecessors over the full matrix,
/// reachable or not, exactly as the nested-vector representation did).
///
/// One arena is reused across columns (Reset keeps capacity), replacing the
/// per-column vector<vector<double>> whose row headers and scattered
/// allocations dominated the old column update's cache behavior.
struct WeightMatrix {
  int rows = 0;
  int cols = 0;
  std::vector<double> w;
  std::vector<uint8_t> reach;

  void Reset(int r, int c) {
    rows = r;
    cols = c;
    w.assign(static_cast<size_t>(r) * c, 0.0);
    reach.assign(static_cast<size_t>(r) * c, 0);
  }
  double At(int j, int k) const { return w[static_cast<size_t>(j) * cols + k]; }
  void Set(int j, int k, double weight, bool reachable) {
    const size_t i = static_cast<size_t>(j) * cols + k;
    w[i] = weight;
    reach[i] = reachable ? 1 : 0;
  }
  bool Reachable(int j, int k) const {
    return reach[static_cast<size_t>(j) * cols + k] != 0;
  }
};

/// Structure-of-arrays Viterbi column update (Eq. (16)-(17)): given the
/// scores f_prev[0..rows) of step s-1 and the weight arena of step s,
/// fills f_cur[0..cols) = max_j f_prev[j] + w(j, k) over reachable pairs
/// and pre_cur[k] = the arg max (-inf / -1 where nothing reaches k).
///
/// Evaluates j ascending, then k ascending, with a strict-> tie-break keeping
/// the first maximizer, in one tight loop per row over contiguous memory
/// with f_prev[j] hoisted. Rows whose f_prev is -inf are skipped outright
/// (such a row's scores are all -inf and can never displace anything, so the
/// skip is exact, not approximate). tests/hmm_test.cc pins it bit for bit to
/// the plain nested-loop formulation.
void ViterbiColumn(const WeightMatrix& w, const double* f_prev, double* f_cur,
                   int* pre_cur);

}  // namespace lhmm::hmm

#endif  // LHMM_HMM_VITERBI_KERNEL_H_
