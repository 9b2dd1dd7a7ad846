#include "hmm/viterbi_kernel.h"

#include <limits>

namespace lhmm::hmm {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

void ViterbiColumn(const WeightMatrix& w, const double* f_prev, double* f_cur,
                   int* pre_cur) {
  const int rows = w.rows, cols = w.cols;
  for (int k = 0; k < cols; ++k) {
    f_cur[k] = kNegInf;
    pre_cur[k] = -1;
  }
  const double* row_w = w.w.data();
  const uint8_t* row_reach = w.reach.data();
  for (int j = 0; j < rows; ++j, row_w += cols, row_reach += cols) {
    const double fj = f_prev[j];
    if (fj == kNegInf) continue;  // All its scores are -inf: cannot win.
    for (int k = 0; k < cols; ++k) {
      if (!row_reach[k]) continue;
      const double score = fj + row_w[k];
      if (score > f_cur[k]) {
        f_cur[k] = score;
        pre_cur[k] = j;
      }
    }
  }
}

}  // namespace lhmm::hmm
