#include "store/mapped_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/strings.h"
#include "io/error_context.h"
#include "io/journal.h"
#include "nn/serialize.h"

namespace lhmm::store {

namespace {

/// Sequential typed-error reader over one section view. Every decode failure
/// reports the *absolute file offset* of the bad byte, so a corrupt store
/// names the exact spot even when the CRC was forged.
class SectionReader {
 public:
  SectionReader(const std::string& path, const SectionView& view)
      : path_(path),
        base_(reinterpret_cast<const char*>(view.data)),
        size_(view.bytes),
        file_off_(view.offset) {}

  int64_t FileOffset() const { return static_cast<int64_t>(file_off_ + off_); }
  uint64_t Remaining() const { return size_ - off_; }
  const void* Cursor() const { return base_ + off_; }

  core::Status Read(void* dst, size_t n) {
    if (off_ + n > size_) {
      return io::OffsetError(path_, FileOffset(),
                             "section ends before expected payload");
    }
    std::memcpy(dst, base_ + off_, n);
    off_ += n;
    return core::Status::Ok();
  }

  template <typename T>
  core::Status ReadPod(T* v) {
    return Read(v, sizeof(T));
  }

  template <typename T>
  core::Status ReadVec(std::vector<T>* v, size_t count) {
    v->resize(count);
    return Read(v->data(), sizeof(T) * count);
  }

 private:
  const std::string& path_;
  const char* base_;
  uint64_t size_;
  uint64_t file_off_;
  uint64_t off_ = 0;
};

}  // namespace

core::Result<std::shared_ptr<MappedStore>> MappedStore::Open(
    const std::string& path, uint64_t expect_fingerprint) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return core::Status::IoError(
        core::StrFormat("cannot open %s: %s", path.c_str(), strerror(errno)));
  }
  struct stat st;
  if (fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return core::Status::IoError(
        core::StrFormat("cannot stat %s: %s", path.c_str(), strerror(err)));
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    return io::OffsetError(
        path, static_cast<int64_t>(size),
        core::StrFormat("file too small for a store header (%zu < %zu bytes)",
                        size, kHeaderBytes));
  }
  void* mapping = mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // The mapping holds its own reference.
  if (mapping == MAP_FAILED) {
    return core::Status::IoError(
        core::StrFormat("mmap failed for %s: %s", path.c_str(), strerror(errno)));
  }
  // From here on, every early return must unmap.
  std::shared_ptr<MappedStore> store(new MappedStore());
  store->path_ = path;
  store->base_ = reinterpret_cast<const char*>(mapping);
  store->size_ = size;
  const char* base = store->base_;

  if (std::memcmp(base, kStoreMagic, sizeof(kStoreMagic)) != 0) {
    return io::OffsetError(path, 0, "bad magic (not a store file)");
  }
  uint32_t stored_header_crc = 0;
  std::memcpy(&stored_header_crc, base + kHeaderCrcOffset,
              sizeof(stored_header_crc));
  const uint32_t header_crc = io::Crc32(base, kHeaderCrcOffset);
  if (header_crc != stored_header_crc) {
    return io::OffsetError(
        path, kHeaderCrcOffset,
        core::StrFormat("header CRC mismatch (stored %08x, computed %08x)",
                        stored_header_crc, header_crc));
  }
  uint32_t version = 0;
  std::memcpy(&version, base + kVersionOffset, sizeof(version));
  if (version != kFormatVersion) {
    return io::OffsetError(
        path, kVersionOffset,
        core::StrFormat("format version skew (file %u, reader %u)", version,
                        kFormatVersion));
  }
  uint64_t file_bytes = 0;
  std::memcpy(&file_bytes, base + kFileBytesOffset, sizeof(file_bytes));
  if (file_bytes != size) {
    return io::OffsetError(
        path, kFileBytesOffset,
        core::StrFormat("file size mismatch: header says %llu bytes, file has "
                        "%zu (torn tail or trailing junk)",
                        static_cast<unsigned long long>(file_bytes), size));
  }
  std::memcpy(&store->fingerprint_, base + kFingerprintOffset,
              sizeof(store->fingerprint_));
  std::memcpy(&store->generation_, base + 32, sizeof(store->generation_));
  uint32_t count = 0;
  std::memcpy(&count, base + 12, sizeof(count));

  const size_t toc_off = kHeaderBytes;
  const size_t toc_bytes = static_cast<size_t>(count) * kSectionEntryBytes;
  if (toc_off + toc_bytes + 2 * sizeof(uint32_t) > size) {
    return io::OffsetError(path, 12,
                           core::StrFormat("section count %u does not fit in "
                                           "the file (TOC would overrun)",
                                           count));
  }
  uint32_t stored_toc_crc = 0;
  std::memcpy(&stored_toc_crc, base + toc_off + toc_bytes,
              sizeof(stored_toc_crc));
  const uint32_t toc_crc = io::Crc32(base + toc_off, toc_bytes);
  if (toc_crc != stored_toc_crc) {
    return io::OffsetError(
        path, static_cast<int64_t>(toc_off + toc_bytes),
        core::StrFormat("TOC CRC mismatch (stored %08x, computed %08x)",
                        stored_toc_crc, toc_crc));
  }
  store->toc_.resize(count);
  std::memcpy(store->toc_.data(), base + toc_off, toc_bytes);
  for (uint32_t i = 0; i < count; ++i) {
    const SectionEntry& e = store->toc_[i];
    const int64_t entry_off = static_cast<int64_t>(toc_off + i * kSectionEntryBytes);
    if (e.offset % kStoreAlign != 0) {
      return io::OffsetError(path, entry_off,
                             "section " + TagName(e.tag) + " is misaligned");
    }
    if (e.offset > size || e.bytes > size - e.offset) {
      return io::OffsetError(
          path, entry_off,
          core::StrFormat("section %s [%llu, +%llu) overruns the %zu-byte file",
                          TagName(e.tag).c_str(),
                          static_cast<unsigned long long>(e.offset),
                          static_cast<unsigned long long>(e.bytes), size));
    }
    const uint32_t crc = io::Crc32(base + e.offset, e.bytes);
    if (crc != e.crc) {
      return io::OffsetError(
          path, static_cast<int64_t>(e.offset),
          core::StrFormat("section %s CRC mismatch (stored %08x, computed %08x)",
                          TagName(e.tag).c_str(), e.crc, crc));
    }
  }
  if (expect_fingerprint != 0 && store->fingerprint_ != expect_fingerprint) {
    return io::OffsetError(
        path, kFingerprintOffset,
        core::StrFormat("network fingerprint mismatch: store built for "
                        "%016llx, live network is %016llx",
                        static_cast<unsigned long long>(store->fingerprint_),
                        static_cast<unsigned long long>(expect_fingerprint)));
  }
  return store;
}

MappedStore::~MappedStore() {
  if (base_ != nullptr) {
    munmap(const_cast<char*>(base_), size_);
  }
}

bool MappedStore::HasSection(uint32_t tag) const {
  for (const SectionEntry& e : toc_) {
    if (e.tag == tag) return true;
  }
  return false;
}

core::Result<SectionView> MappedStore::Section(uint32_t tag) const {
  for (const SectionEntry& e : toc_) {
    if (e.tag == tag) {
      return SectionView{base_ + e.offset, e.bytes, e.offset};
    }
  }
  return core::Status::NotFound(path_ + ": store has no " + TagName(tag) +
                                " section");
}

core::Result<network::RoadNetwork> MappedStore::LoadNetwork() const {
  core::Result<SectionView> view = Section(kSectionNetwork);
  if (!view.ok()) return view.status();
  SectionReader r(path_, *view);
  int32_t num_nodes = 0;
  int32_t num_segments = 0;
  int64_t num_points = 0;
  LHMM_RETURN_IF_ERROR(r.ReadPod(&num_nodes));
  LHMM_RETURN_IF_ERROR(r.ReadPod(&num_segments));
  LHMM_RETURN_IF_ERROR(r.ReadPod(&num_points));
  if (num_nodes < 0 || num_segments < 0 || num_points < 0) {
    return io::OffsetError(path_, static_cast<int64_t>(view->offset),
                           "negative network counts");
  }
  network::RoadNetwork net;
  for (int32_t n = 0; n < num_nodes; ++n) {
    geo::Point pos;
    LHMM_RETURN_IF_ERROR(r.ReadPod(&pos.x));
    LHMM_RETURN_IF_ERROR(r.ReadPod(&pos.y));
    net.AddNode(pos);
  }
  std::vector<int64_t> geom_begin;
  LHMM_RETURN_IF_ERROR(
      r.ReadVec(&geom_begin, static_cast<size_t>(num_segments) + 1));
  if (geom_begin.front() != 0 || geom_begin.back() != num_points) {
    return io::OffsetError(path_, r.FileOffset(),
                           "geometry offsets do not cover the vertex array");
  }
  struct SegAttrs {
    int32_t from, to, reverse, level;
    double speed_limit;
  };
  std::vector<SegAttrs> attrs(num_segments);
  for (SegAttrs& a : attrs) {
    LHMM_RETURN_IF_ERROR(r.ReadPod(&a.from));
    LHMM_RETURN_IF_ERROR(r.ReadPod(&a.to));
    LHMM_RETURN_IF_ERROR(r.ReadPod(&a.reverse));
    LHMM_RETURN_IF_ERROR(r.ReadPod(&a.level));
    LHMM_RETURN_IF_ERROR(r.ReadPod(&a.speed_limit));
  }
  for (int32_t s = 0; s < num_segments; ++s) {
    const SegAttrs& a = attrs[s];
    const int64_t nv = geom_begin[s + 1] - geom_begin[s];
    if (a.from < 0 || a.from >= num_nodes || a.to < 0 || a.to >= num_nodes ||
        a.from == a.to || a.level < 0 || a.level > 2 || a.reverse < -1 ||
        a.reverse >= num_segments || nv < 2) {
      return io::OffsetError(
          path_, r.FileOffset(),
          core::StrFormat("segment %d has inconsistent attributes", s));
    }
    std::vector<geo::Point> pts(static_cast<size_t>(nv));
    LHMM_RETURN_IF_ERROR(r.Read(pts.data(), sizeof(geo::Point) * pts.size()));
    net.AddSegment(a.from, a.to, geo::Polyline(std::move(pts)), a.speed_limit,
                   static_cast<network::RoadLevel>(a.level));
  }
  for (int32_t s = 0; s < num_segments; ++s) {
    const SegAttrs& a = attrs[s];
    if (a.reverse < 0) continue;
    const network::RoadSegment& twin = net.segment(a.reverse);
    if (twin.from != attrs[s].to || twin.to != attrs[s].from) {
      return io::OffsetError(
          path_, static_cast<int64_t>(view->offset),
          core::StrFormat("segment %d names a reverse twin that does not "
                          "connect the same nodes",
                          s));
    }
    net.SetReverse(s, a.reverse);
  }
  if (r.Remaining() != 0) {
    return io::OffsetError(path_, r.FileOffset(),
                           "trailing bytes after network payload");
  }
  core::Status valid = net.Validate();
  if (!valid.ok()) return valid;
  return net;
}

core::Result<std::unique_ptr<network::GridIndex>> MappedStore::LoadGridIndex(
    const network::RoadNetwork* net) const {
  core::Result<SectionView> view = Section(kSectionGrid);
  if (!view.ok()) return view.status();
  SectionReader r(path_, *view);
  network::GridSnapshot snap;
  int32_t cols = 0;
  int32_t rows = 0;
  int64_t total_ids = 0;
  LHMM_RETURN_IF_ERROR(r.ReadPod(&snap.cell_size));
  LHMM_RETURN_IF_ERROR(r.ReadPod(&snap.origin_x));
  LHMM_RETURN_IF_ERROR(r.ReadPod(&snap.origin_y));
  LHMM_RETURN_IF_ERROR(r.ReadPod(&cols));
  LHMM_RETURN_IF_ERROR(r.ReadPod(&rows));
  LHMM_RETURN_IF_ERROR(r.ReadPod(&total_ids));
  if (snap.cell_size <= 0.0 || cols < 1 || rows < 1 || total_ids < 0 ||
      static_cast<int64_t>(cols) * rows > (1 << 28)) {
    return io::OffsetError(path_, static_cast<int64_t>(view->offset),
                           "inconsistent grid shape");
  }
  snap.cols = cols;
  snap.rows = rows;
  const size_t num_cells = static_cast<size_t>(cols) * rows;
  LHMM_RETURN_IF_ERROR(r.ReadVec(&snap.cell_begin, num_cells + 1));
  LHMM_RETURN_IF_ERROR(r.ReadVec(&snap.ids, static_cast<size_t>(total_ids)));
  if (r.Remaining() != 0) {
    return io::OffsetError(path_, r.FileOffset(),
                           "trailing bytes after grid payload");
  }
  if (snap.cell_begin.front() != 0 || snap.cell_begin.back() != total_ids) {
    return io::OffsetError(path_, static_cast<int64_t>(view->offset),
                           "grid cell offsets do not cover the id array");
  }
  for (size_t c = 0; c < num_cells; ++c) {
    if (snap.cell_begin[c] > snap.cell_begin[c + 1]) {
      return io::OffsetError(path_, static_cast<int64_t>(view->offset),
                             "grid cell offsets are not monotone");
    }
  }
  for (network::SegmentId id : snap.ids) {
    if (id < 0 || id >= net->num_segments()) {
      return io::OffsetError(path_, static_cast<int64_t>(view->offset),
                             "grid references a segment outside the network");
    }
  }
  return std::make_unique<network::GridIndex>(net, snap);
}

core::Status MappedStore::ApplyLhmmWeights(lhmm::LhmmModel* model) const {
  core::Result<SectionView> view = Section(kSectionLhmm);
  if (!view.ok()) return view.status();
  SectionReader r(path_, *view);
  lhmm::FeatureNorm norms[4];
  for (lhmm::FeatureNorm& n : norms) {
    LHMM_RETURN_IF_ERROR(r.ReadPod(&n.mean));
    LHMM_RETURN_IF_ERROR(r.ReadPod(&n.std));
  }
  int32_t rows = 0;
  int32_t cols = 0;
  LHMM_RETURN_IF_ERROR(r.ReadPod(&rows));
  LHMM_RETURN_IF_ERROR(r.ReadPod(&cols));
  if (rows <= 0 || cols <= 0 ||
      static_cast<uint64_t>(rows) * cols * sizeof(float) > r.Remaining()) {
    return io::OffsetError(path_, r.FileOffset(),
                           "inconsistent embedding shape");
  }
  nn::Matrix embeddings(rows, cols);
  LHMM_RETURN_IF_ERROR(
      r.Read(embeddings.data(), sizeof(float) * embeddings.size()));
  // The parameter blob runs to the end of the section; DeserializeParams
  // validates count/shapes against the model's architecture in place.
  std::vector<nn::Tensor> params = model->AllParams();
  LHMM_RETURN_IF_ERROR(nn::DeserializeParams(
      r.Cursor(), r.Remaining(),
      core::StrFormat("%s offset %lld (LHMM section)", path_.c_str(),
                      static_cast<long long>(r.FileOffset())),
      &params));
  model->obs_dist_norm = norms[0];
  model->obs_cofreq_norm = norms[1];
  model->trans_len_norm = norms[2];
  model->trans_turn_norm = norms[3];
  model->embeddings = std::move(embeddings);
  return core::Status::Ok();
}

core::Status MappedStore::ApplySeq2SeqWeights(
    matchers::Seq2SeqMatcher* matcher) const {
  core::Result<SectionView> view = Section(kSectionSeq2Seq);
  if (!view.ok()) return view.status();
  std::vector<nn::Tensor> params = matcher->Params();
  return nn::DeserializeParams(
      view->data, view->bytes,
      core::StrFormat("%s offset %llu (S2SW section)", path_.c_str(),
                      static_cast<unsigned long long>(view->offset)),
      &params);
}

std::vector<std::pair<std::string, std::string>> MappedStore::Meta() const {
  std::vector<std::pair<std::string, std::string>> kv;
  core::Result<SectionView> view = Section(kSectionMeta);
  if (!view.ok()) return kv;
  const std::string text(reinterpret_cast<const char*>(view->data),
                         view->bytes);
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    const size_t eq = line.find('=');
    if (eq != std::string::npos) {
      kv.emplace_back(line.substr(0, eq), line.substr(eq + 1));
    }
    pos = eol + 1;
  }
  return kv;
}

}  // namespace lhmm::store
