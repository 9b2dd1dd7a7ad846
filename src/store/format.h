#ifndef LHMM_STORE_FORMAT_H_
#define LHMM_STORE_FORMAT_H_

#include <cstdint>
#include <string>

namespace lhmm::store {

/// On-disk layout of a versioned asset store (`store-<gen>.lds` inside a
/// generation directory, see store/generations.h). One relocatable file holds
/// every heavy immutable asset a serving process needs — road network, grid
/// index, trained LHMM and seq2seq weights — so N
/// workers (and N *processes*) share one physical copy through the page
/// cache instead of N private deserialized heaps.
///
/// Layout (little-endian, 8-byte-aligned sections):
///
///   [0,  8)  magic "LHMMSTR1"
///   [8, 12)  u32 format version (kFormatVersion; larger = typed reject)
///   [12,16)  u32 section count
///   [16,24)  u64 network fingerprint (network::NetworkFingerprint)
///   [24,32)  u64 total file bytes (guards torn tails before any TOC read)
///   [32,40)  u64 generation stamp (matches the gen-<N> directory)
///   [40,48)  u64 reserved (zero)
///   [48,52)  u32 CRC-32 of bytes [0,48)
///   [52,56)  u32 zero pad
///   then `section count` TOC entries (SectionEntry, 32 bytes each),
///   then u32 CRC-32 of the TOC bytes + u32 zero pad,
///   then the section payloads, each 8-aligned and zero-padded between.
///
/// Every validation failure — truncation, bit flip, version skew, fingerprint
/// mismatch — is a typed core::Status naming the file and byte offset
/// (io/error_context.h conventions), and MappedStore::Open refuses the whole
/// file: a store is either fully valid or not served at all.
inline constexpr char kStoreMagic[8] = {'L', 'H', 'M', 'M', 'S', 'T', 'R', '1'};
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr size_t kHeaderBytes = 56;
inline constexpr size_t kSectionEntryBytes = 32;
inline constexpr size_t kStoreAlign = 8;

/// Byte offsets of header fields, for tests and fault injectors that corrupt
/// a specific field on purpose.
inline constexpr int64_t kVersionOffset = 8;
inline constexpr int64_t kFingerprintOffset = 16;
inline constexpr int64_t kFileBytesOffset = 24;
inline constexpr int64_t kHeaderCrcOffset = 48;

/// Section tags, stored as a u32 built from four ASCII bytes.
constexpr uint32_t SectionTag(const char (&s)[5]) {
  return static_cast<uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

inline constexpr uint32_t kSectionMeta = SectionTag("META");     ///< key=value text.
inline constexpr uint32_t kSectionNetwork = SectionTag("NETW");  ///< Road network CSR.
inline constexpr uint32_t kSectionGrid = SectionTag("GRID");     ///< Grid index cells.
inline constexpr uint32_t kSectionLhmm = SectionTag("LHMM");     ///< Trained LHMM weights.
inline constexpr uint32_t kSectionSeq2Seq = SectionTag("S2SW");  ///< Seq2seq weights.

/// Renders a tag back to its four ASCII characters for error messages.
std::string TagName(uint32_t tag);

/// One TOC entry. Offsets are absolute file offsets; `crc` covers exactly
/// [offset, offset + bytes).
struct SectionEntry {
  uint32_t tag = 0;
  uint32_t flags = 0;  ///< Reserved, zero.
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint32_t crc = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(SectionEntry) == kSectionEntryBytes,
              "SectionEntry must match the on-disk TOC layout");

}  // namespace lhmm::store

#endif  // LHMM_STORE_FORMAT_H_
