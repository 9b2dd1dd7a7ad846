#include "store/store_writer.h"

#include <cstring>

#include "core/logging.h"
#include "io/durable_file.h"
#include "io/journal.h"
#include "nn/serialize.h"

namespace lhmm::store {

namespace {

size_t Align8(size_t n) { return (n + kStoreAlign - 1) & ~(kStoreAlign - 1); }

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(reinterpret_cast<const char*>(data), n);
}

template <typename T>
void AppendPod(std::string* out, T v) {
  AppendRaw(out, &v, sizeof(v));
}

template <typename T>
void AppendVec(std::string* out, const std::vector<T>& v) {
  AppendRaw(out, v.data(), sizeof(T) * v.size());
}

}  // namespace

std::string TagName(uint32_t tag) {
  std::string name(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
    name[i] = (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return name;
}

void StoreWriter::AddSection(uint32_t tag, std::string payload) {
  for (const auto& [existing, unused] : sections_) {
    CHECK(existing != tag) << "duplicate store section " << TagName(tag);
  }
  sections_.emplace_back(tag, std::move(payload));
}

core::Status StoreWriter::Write(const std::string& path, uint64_t fingerprint,
                                uint64_t generation, io::Env* env) const {
  const uint32_t count = static_cast<uint32_t>(sections_.size());
  // TOC immediately follows the header; its own CRC + pad follow the entries,
  // so the first payload starts 8-aligned by construction.
  const size_t toc_off = kHeaderBytes;
  const size_t toc_bytes = static_cast<size_t>(count) * kSectionEntryBytes;
  size_t off = toc_off + toc_bytes + 2 * sizeof(uint32_t);
  std::vector<SectionEntry> toc(count);
  for (uint32_t i = 0; i < count; ++i) {
    const auto& [tag, payload] = sections_[i];
    toc[i].tag = tag;
    toc[i].offset = off;
    toc[i].bytes = payload.size();
    toc[i].crc = io::Crc32(payload.data(), payload.size());
    off = Align8(off + payload.size());
  }
  const uint64_t total = off;

  std::string file(total, '\0');
  std::memcpy(&file[0], kStoreMagic, sizeof(kStoreMagic));
  const uint32_t version = kFormatVersion;
  std::memcpy(&file[kVersionOffset], &version, sizeof(version));
  std::memcpy(&file[12], &count, sizeof(count));
  std::memcpy(&file[kFingerprintOffset], &fingerprint, sizeof(fingerprint));
  std::memcpy(&file[kFileBytesOffset], &total, sizeof(total));
  std::memcpy(&file[32], &generation, sizeof(generation));
  const uint32_t header_crc = io::Crc32(file.data(), kHeaderCrcOffset);
  std::memcpy(&file[kHeaderCrcOffset], &header_crc, sizeof(header_crc));

  std::memcpy(&file[toc_off], toc.data(), toc_bytes);
  const uint32_t toc_crc = io::Crc32(file.data() + toc_off, toc_bytes);
  std::memcpy(&file[toc_off + toc_bytes], &toc_crc, sizeof(toc_crc));

  for (uint32_t i = 0; i < count; ++i) {
    const std::string& payload = sections_[i].second;
    std::memcpy(&file[toc[i].offset], payload.data(), payload.size());
  }
  return io::AtomicWriteFile(env, path, file, /*durable=*/true);
}

std::string EncodeNetwork(const network::RoadNetwork& net) {
  std::string out;
  const int32_t num_nodes = net.num_nodes();
  const int32_t num_segments = net.num_segments();
  int64_t num_points = 0;
  for (const network::RoadSegment& seg : net.segments()) {
    num_points += seg.geometry.size();
  }
  AppendPod(&out, num_nodes);
  AppendPod(&out, num_segments);
  AppendPod(&out, num_points);
  for (network::NodeId n = 0; n < num_nodes; ++n) {
    AppendPod(&out, net.node(n).pos.x);
    AppendPod(&out, net.node(n).pos.y);
  }
  // Geometry prefix offsets first, then all segment attributes, then the flat
  // vertex doubles. Lengths are not stored: the loader recomputes them from
  // the identical doubles, which is what makes the round trip byte-exact.
  std::vector<int64_t> geom_begin;
  geom_begin.reserve(num_segments + 1);
  geom_begin.push_back(0);
  for (const network::RoadSegment& seg : net.segments()) {
    geom_begin.push_back(geom_begin.back() + seg.geometry.size());
  }
  AppendVec(&out, geom_begin);
  for (const network::RoadSegment& seg : net.segments()) {
    AppendPod(&out, static_cast<int32_t>(seg.from));
    AppendPod(&out, static_cast<int32_t>(seg.to));
    AppendPod(&out, static_cast<int32_t>(seg.reverse));
    AppendPod(&out, static_cast<int32_t>(seg.level));
    AppendPod(&out, seg.speed_limit);
  }
  for (const network::RoadSegment& seg : net.segments()) {
    for (const geo::Point& p : seg.geometry.points()) {
      AppendPod(&out, p.x);
      AppendPod(&out, p.y);
    }
  }
  return out;
}

std::string EncodeGridIndex(const network::GridIndex& index) {
  const network::GridSnapshot snap = index.Snapshot();
  std::string out;
  AppendPod(&out, snap.cell_size);
  AppendPod(&out, snap.origin_x);
  AppendPod(&out, snap.origin_y);
  AppendPod(&out, static_cast<int32_t>(snap.cols));
  AppendPod(&out, static_cast<int32_t>(snap.rows));
  AppendPod(&out, static_cast<int64_t>(snap.ids.size()));
  AppendVec(&out, snap.cell_begin);
  AppendVec(&out, snap.ids);
  return out;
}

std::string EncodeLhmmWeights(const lhmm::LhmmModel& model) {
  std::string out;
  const lhmm::FeatureNorm norms[4] = {model.obs_dist_norm, model.obs_cofreq_norm,
                                      model.trans_len_norm,
                                      model.trans_turn_norm};
  for (const lhmm::FeatureNorm& n : norms) {
    AppendPod(&out, n.mean);
    AppendPod(&out, n.std);
  }
  AppendPod(&out, static_cast<int32_t>(model.embeddings.rows()));
  AppendPod(&out, static_cast<int32_t>(model.embeddings.cols()));
  AppendRaw(&out, model.embeddings.data(),
            sizeof(float) * model.embeddings.size());
  // Parameter tensors last, running to the end of the section (the same blob
  // nn::SaveParams wraps, so one decoder validates both forms).
  nn::SerializeParams(model.AllParams(), &out);
  return out;
}

std::string EncodeSeq2SeqWeights(const matchers::Seq2SeqMatcher& matcher) {
  std::string out;
  nn::SerializeParams(matcher.Params(), &out);
  return out;
}

std::string EncodeMeta(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out;
  for (const auto& [key, value] : kv) {
    out += key;
    out += '=';
    out += value;
    out += '\n';
  }
  return out;
}

}  // namespace lhmm::store
