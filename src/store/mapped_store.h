#ifndef LHMM_STORE_MAPPED_STORE_H_
#define LHMM_STORE_MAPPED_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "lhmm/model.h"
#include "matchers/seq2seq.h"
#include "network/grid_index.h"
#include "network/road_network.h"
#include "store/format.h"

namespace lhmm::store {

/// A zero-copy view into one section of a mapped store. `data` points into
/// the PROT_READ mapping; it stays valid for as long as the owning
/// MappedStore is alive (generation handles pin it, see store/generations.h).
struct SectionView {
  const void* data = nullptr;
  uint64_t bytes = 0;
  uint64_t offset = 0;  ///< Absolute file offset, for error messages.
};

/// A read-only `store-<gen>.lds` file mapped PROT_READ.
///
/// Open() validates *everything* before returning — magic, header CRC,
/// format version, total-size field (torn-tail guard), TOC CRC, per-section
/// bounds/alignment/CRC, and optionally the network fingerprint — so a
/// MappedStore that exists is fully trustworthy and every consumer can read
/// the mapping without further checks. Any failure is a typed
/// core::Status naming the file and byte offset, and nothing stays mapped.
///
/// N processes opening the same file share one physical copy of the pages
/// through the page cache (MAP_SHARED, read-only): per-worker and
/// per-process memory no longer scales with the heavy immutable assets.
class MappedStore {
 public:
  /// Maps and fully validates `path`. If `expect_fingerprint` is nonzero the
  /// store's network fingerprint must match it (the swap protocol passes the
  /// live network's fingerprint so a store built for a different graph can
  /// never flip in).
  static core::Result<std::shared_ptr<MappedStore>> Open(
      const std::string& path, uint64_t expect_fingerprint = 0);

  ~MappedStore();

  MappedStore(const MappedStore&) = delete;
  MappedStore& operator=(const MappedStore&) = delete;

  const std::string& path() const { return path_; }
  uint64_t fingerprint() const { return fingerprint_; }
  uint64_t generation() const { return generation_; }
  int64_t bytes() const { return static_cast<int64_t>(size_); }

  bool HasSection(uint32_t tag) const;

  /// The validated view of a section; typed NotFound if the store was built
  /// without it.
  core::Result<SectionView> Section(uint32_t tag) const;

  // --- Materializing loaders. Each decodes its section directly from the
  // mapping (no intermediate file reads or parse buffers) into the owned
  // structure its consumers expect, with typed file+offset errors on any
  // internal inconsistency the CRC could not see. The decode is exact, so a
  // loaded asset behaves byte-identically to the one the store was built
  // from. ---

  /// Rebuilds the road network (exact double round trip; cached segment
  /// lengths recompute identically).
  core::Result<network::RoadNetwork> LoadNetwork() const;

  /// Rebuilds the grid index over `net` from the stored cell buckets,
  /// skipping the geometry scan.
  core::Result<std::unique_ptr<network::GridIndex>> LoadGridIndex(
      const network::RoadNetwork* net) const;

  /// Applies the stored LHMM weights onto an architecture-matching model:
  /// parameter tensors, the four feature norms, and the node embeddings.
  core::Status ApplyLhmmWeights(lhmm::LhmmModel* model) const;

  /// Applies the stored seq2seq weights onto an architecture-matching matcher.
  core::Status ApplySeq2SeqWeights(matchers::Seq2SeqMatcher* matcher) const;

  /// Parsed META section (empty if absent).
  std::vector<std::pair<std::string, std::string>> Meta() const;

 private:
  MappedStore() = default;

  std::string path_;
  const char* base_ = nullptr;
  size_t size_ = 0;
  uint64_t fingerprint_ = 0;
  uint64_t generation_ = 0;
  std::vector<SectionEntry> toc_;
};

}  // namespace lhmm::store

#endif  // LHMM_STORE_MAPPED_STORE_H_
