#ifndef LHMM_STORE_STORE_WRITER_H_
#define LHMM_STORE_STORE_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "io/env.h"
#include "lhmm/model.h"
#include "matchers/seq2seq.h"
#include "network/grid_index.h"
#include "network/road_network.h"
#include "store/format.h"

namespace lhmm::store {

/// Accumulates encoded sections and writes one validated store file. Usage:
///
///   StoreWriter w;
///   w.AddSection(kSectionNetwork, EncodeNetwork(net));
///   w.AddSection(kSectionGrid, EncodeGridIndex(index));
///   LHMM_RETURN_IF_ERROR(w.Write(path, fingerprint, generation));
///
/// Write() is atomic (temp file + rename via io::AtomicWriteFile), so a
/// crashed build never leaves a half-written store where a swap could find
/// it; the per-section CRCs and the total-size header field are computed
/// here and re-checked by MappedStore::Open on every consumer.
class StoreWriter {
 public:
  /// Adds one section payload. Tags must be unique within a store.
  void AddSection(uint32_t tag, std::string payload);

  /// Assembles header + TOC + aligned payloads and atomically writes `path`.
  /// On any failure (injected ENOSPC/fsync/rename included) nothing readable
  /// is left at `path`. `env` is the syscall boundary (nullptr = Default()).
  core::Status Write(const std::string& path, uint64_t fingerprint,
                     uint64_t generation, io::Env* env = nullptr) const;

 private:
  std::vector<std::pair<uint32_t, std::string>> sections_;
};

// --- Section encoders: asset -> relocatable payload bytes. ---

/// Road network: node positions, segment topology/attributes, and flattened
/// polyline geometry. Exact double round trip, so a network materialized from
/// the store matches byte-identically (lengths are recomputed from the same
/// doubles).
std::string EncodeNetwork(const network::RoadNetwork& net);

/// Grid index cell buckets (so consumers skip the build pass).
std::string EncodeGridIndex(const network::GridIndex& index);

/// Trained LHMM weights: every parameter tensor, the four explicit-feature
/// normalizations, and the cached node embeddings.
std::string EncodeLhmmWeights(const lhmm::LhmmModel& model);

/// Trained seq2seq weights (parameter tensors of the shared Impl).
std::string EncodeSeq2SeqWeights(const matchers::Seq2SeqMatcher& matcher);

/// META section: human-readable key=value lines for `lhmm_store info`.
std::string EncodeMeta(const std::vector<std::pair<std::string, std::string>>& kv);

}  // namespace lhmm::store

#endif  // LHMM_STORE_STORE_WRITER_H_
