#ifndef TAC_CORE_CONTAINER_HPP
#define TAC_CORE_CONTAINER_HPP

/// \file container.hpp
/// \brief Self-describing container for compressed AMR datasets.
///
/// Every compression path (TAC, the 1D/zMesh baselines, the 3D up-sampling
/// baseline) emits the same outer header — method tag, field name,
/// refinement ratio and the losslessly-stored per-level masks (the AMR
/// structure metadata real snapshot formats keep exactly) — followed by a
/// method-specific payload. `decompress_any` dispatches on the tag via the
/// CompressorBackend registry (core/backend.hpp); headers with an unknown
/// tag, a bad magic, an unsupported format version or a truncated buffer
/// are rejected with descriptive errors.
///
/// Format v2 adds a payload index between the header and the payloads:
/// every payload (one per level for TAC/1D, one for the interleaved
/// zMesh/3D streams) is described by an absolute byte offset, a length and
/// a CRC32 checksum. The index buys random access — `decompress_level`
/// reads one level in O(that level's payload) instead of O(dataset) — and
/// turns any single-byte payload corruption into a ChecksumError instead
/// of a misparse. v1 containers (no index) are still decoded.
///
/// Format v3 widens each index entry by a codec-profile byte
/// (lossless::CodecProfile): the lossless encoder family that produced
/// that payload's byte streams. Readers dispatch the legacy vs fast
/// decode paths on it and reject streams whose method bytes contradict
/// the declared profile. v1/v2 containers carry no profile and decode
/// leniently.
///
/// Format v4 widens each index entry by a selector byte: the Method tag
/// of the backend that produced that payload. Fixed backends stamp their
/// own tag; the `auto` pseudo-backend (core/selector.hpp) records the
/// per-level winner its trial selection picked, and the level pipeline's
/// decoder (core/backend.hpp) dispatches each payload to the recorded
/// backend. v1-v3 containers
/// carry no selector and decode leniently as "fixed method" (the header
/// method tag owns every payload). The byte-level layout of every
/// version is specified normatively in docs/FORMAT.md.

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "amr/dataset.hpp"
#include "common/bytes.hpp"
#include "lossless/codec.hpp"

namespace tac::core {

enum class Method : std::uint8_t {
  kTac = 0,         ///< level-wise 3D with density-adaptive pre-processing
  kOneD = 1,        ///< naive 1D baseline: each level as a 1D stream
  kZMesh = 2,       ///< zMesh reordering baseline: interleaved 1D stream
  kUpsample3D = 3,  ///< 3D baseline: up-sample to uniform, one 3D stream
  kAuto = 4,        ///< adaptive selector: per-level winner among the
                    ///< level-capable backends (core/selector.hpp); each
                    ///< payload's backend is recorded in the v4 index
};

enum class Strategy : std::uint8_t {
  kNaST = 0,
  kOpST = 1,
  kAKDTree = 2,
  kGSP = 3,
  kZF = 4,
};

[[nodiscard]] const char* to_string(Method m);
[[nodiscard]] const char* to_string(Strategy s);

/// On-disk container format version. Bumped whenever the serialized layout
/// changes; readers accept [kMinFormatVersion, kFormatVersion] and reject
/// anything newer with a descriptive error instead of misparsing it.
inline constexpr std::uint8_t kFormatVersion = 4;
inline constexpr std::uint8_t kMinFormatVersion = 1;

/// A stored payload checksum failed — the container bytes were damaged
/// after writing (bit rot, truncated copy, transmission error).
class ChecksumError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A v4 selector byte names a method no backend is registered for —
/// either the container was written by a newer method set or the byte
/// was damaged (the index is not CRC-covered).
class SelectorError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Selector byte meaning "no per-payload method recorded": the payload
/// belongs to the backend named by the header's method tag. Reserved so
/// hand-written v4 indexes can stay method-agnostic; every library
/// writer stamps a concrete tag.
inline constexpr std::uint8_t kSelectorFixed = 0xFF;

/// One entry of the v2 payload index. Offsets are absolute from the first
/// container byte, so an entry can be read (and its payload fetched)
/// without parsing anything that precedes it.
struct PayloadEntry {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc32 = 0;
  std::uint8_t profile = 0;   ///< lossless::CodecProfile value; only
                              ///< meaningful for v3+ container entries
  std::uint8_t selector = kSelectorFixed;  ///< Method tag of the backend
                                           ///< owning this payload (v4+)
};

/// Serialized size of one v2 index entry (offset u64 + length u64 + crc
/// u32, little-endian, fixed width so entries can be back-patched in
/// place). Still written by the snapshot codec's field index.
inline constexpr std::size_t kPayloadEntryBytes = 20;

/// v3 container entries append the codec-profile byte.
inline constexpr std::size_t kPayloadEntryV3Bytes = kPayloadEntryBytes + 1;

/// v4 container entries append the selector (per-payload method) byte.
inline constexpr std::size_t kPayloadEntryV4Bytes = kPayloadEntryV3Bytes + 1;

/// The single source of truth for the on-disk entry layout — every
/// writer back-patches and every reader parses through these helpers.
inline void patch_payload_entry(ByteWriter& w, std::size_t pos,
                                const PayloadEntry& e) {
  w.patch<std::uint64_t>(pos, e.offset);
  w.patch<std::uint64_t>(pos + 8, e.length);
  w.patch<std::uint32_t>(pos + 16, e.crc32);
}

inline void patch_payload_entry_v3(ByteWriter& w, std::size_t pos,
                                   const PayloadEntry& e) {
  patch_payload_entry(w, pos, e);
  w.patch<std::uint8_t>(pos + kPayloadEntryBytes, e.profile);
}

inline void patch_payload_entry_v4(ByteWriter& w, std::size_t pos,
                                   const PayloadEntry& e) {
  patch_payload_entry_v3(w, pos, e);
  w.patch<std::uint8_t>(pos + kPayloadEntryV3Bytes, e.selector);
}

[[nodiscard]] inline PayloadEntry read_payload_entry(ByteReader& r) {
  PayloadEntry e;
  e.offset = r.get<std::uint64_t>();
  e.length = r.get<std::uint64_t>();
  e.crc32 = r.get<std::uint32_t>();
  return e;
}

[[nodiscard]] inline PayloadEntry read_payload_entry_v3(ByteReader& r) {
  PayloadEntry e = read_payload_entry(r);
  e.profile = r.get<std::uint8_t>();
  return e;
}

[[nodiscard]] inline PayloadEntry read_payload_entry_v4(ByteReader& r) {
  PayloadEntry e = read_payload_entry_v3(r);
  e.selector = r.get<std::uint8_t>();
  return e;
}

/// The container's payload index: entry i covers payload i in write
/// order. TAC and the 1D baseline write one payload per level (entry i ==
/// level i); zMesh/3D write a single interleaved payload. Empty for v1
/// containers.
struct PayloadIndex {
  std::vector<PayloadEntry> entries;
};

/// Fills the reserved index slots of a v2 container as payloads are
/// written. `write_common_header` reserves `n_payloads` zeroed entries and
/// returns a builder; the backend brackets every payload it appends with
/// begin_payload()/end_payload(), which records the offset/length and
/// checksums the bytes in between. Sealing fewer or more payloads than
/// reserved is a logic error (caught by end_payload / finish).
class PayloadIndexBuilder {
 public:
  PayloadIndexBuilder() = default;

  /// Marks the writer's current position as the start of the next payload.
  void begin_payload();

  /// Seals the payload opened by the last begin_payload(): patches its
  /// index entry with {offset, length, crc32 of the written bytes} and
  /// stamps the selector byte with the container's own method tag.
  void end_payload();

  /// Like end_payload(), but records `chosen` as the payload's selector
  /// byte — the auto pseudo-backend's per-level winner.
  void end_payload(Method chosen);

  /// Verifies every reserved entry was sealed; throws std::logic_error
  /// otherwise. Called by backends after their last payload as a cheap
  /// format self-check.
  void finish() const;

 private:
  friend PayloadIndexBuilder write_common_header(ByteWriter& w, Method method,
                                                 const amr::AmrDataset& ds,
                                                 std::size_t n_payloads,
                                                 lossless::CodecProfile
                                                     profile);
  PayloadIndexBuilder(ByteWriter& w, std::size_t entries_pos,
                      std::size_t count, lossless::CodecProfile profile,
                      Method method)
      : w_(&w),
        entries_pos_(entries_pos),
        count_(count),
        profile_(profile),
        method_(method) {}

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  ByteWriter* w_ = nullptr;
  std::size_t entries_pos_ = 0;  ///< buffer offset of the first entry
  std::size_t count_ = 0;
  std::size_t sealed_ = 0;
  std::size_t open_begin_ = kNone;
  lossless::CodecProfile profile_ = lossless::CodecProfile::kLegacy;
  Method method_ = Method::kTac;  ///< default selector stamp
};

/// Writes the v4 outer header — method, field, ratio, level masks — and
/// reserves a payload index with `n_payloads` entries, each stamped with
/// `profile` (the lossless encoder family the backend will use for this
/// container's streams, including the mask blobs written here) and, at
/// end_payload time, a selector byte (the container method unless the
/// `end_payload(Method)` overload names a per-payload winner). The
/// returned builder must seal exactly `n_payloads` payloads appended
/// directly after the header.
[[nodiscard]] PayloadIndexBuilder write_common_header(
    ByteWriter& w, Method method, const amr::AmrDataset& ds,
    std::size_t n_payloads,
    lossless::CodecProfile profile = lossless::default_profile());

/// The decoded outer header. `skeleton` is structure only: field name,
/// refinement ratio and, per level, the unpacked mask (which carries the
/// level's dims) with an empty `data` array. No data grid is allocated
/// until a decoder materialises a level through zeroed_level.
struct CommonHeader {
  Method method = Method::kTac;
  std::uint8_t version = kFormatVersion;
  amr::AmrDataset skeleton;
  PayloadIndex index;            ///< empty for v1 containers
  std::size_t index_offset = 0;  ///< where the index starts (v2) — equals
                                 ///< payload_offset for v1
  std::size_t payload_offset = 0;  ///< first byte after header + index
};

/// Parses the outer header and payload index. Rejects a level count the
/// remaining bytes cannot hold, and a level whose declared dims overflow
/// `size_t` or whose mask blob is shorter than those dims need
/// (std::runtime_error), before allocating anything of the declared size.
[[nodiscard]] CommonHeader read_common_header(ByteReader& r);

/// The decode target for one level: `shape` (a structure-only level, such
/// as a copy of `header.skeleton.level(l)`) with a data grid of its mask's
/// dims. The grid is lazily-zeroed memory (see common/array3d.hpp): it
/// reads +0.0 everywhere but costs no page touches until a decoder writes,
/// so a decoder should write only the cells its payload covers.
[[nodiscard]] amr::AmrLevel zeroed_level(amr::AmrLevel shape);

/// zeroed_level applied to every level of a skeleton — the dataset a
/// CompressorBackend::decompress call fills. Pass
/// `std::move(header.skeleton)` when the header is not needed again, so
/// the masks are moved rather than copied.
[[nodiscard]] amr::AmrDataset zeroed_levels(amr::AmrDataset skeleton);

/// The codec profile declared for payload `i`, or nullopt when the
/// container predates per-payload profiles (v1/v2) — callers then decode
/// leniently via the method byte of each stream.
[[nodiscard]] std::optional<lossless::CodecProfile> payload_profile(
    const CommonHeader& header, std::size_t i);

/// The backend method recorded for payload `i`, or nullopt when the
/// container predates per-payload selectors (v1-v3) or the entry carries
/// the reserved kSelectorFixed byte — either way the payload belongs to
/// the header's method tag ("fixed method" lenient decode).
[[nodiscard]] std::optional<Method> payload_method(const CommonHeader& header,
                                                   std::size_t i);

/// Reads only the method tag (cheap sniffing). Throws on bad magic, but
/// also on an unsupported version or unregistered tag — use is_container
/// to ask only "does the magic match".
[[nodiscard]] Method peek_method(std::span<const std::uint8_t> bytes);

/// True when `bytes` starts with the container magic — cheap format
/// sniffing that, unlike peek_method, never rejects a damaged container.
[[nodiscard]] bool is_container(std::span<const std::uint8_t> bytes);

/// Verifies index entry `i` against the container bytes: the range must be
/// in bounds (std::runtime_error otherwise) and its CRC32 must match
/// (ChecksumError otherwise).
void verify_payload(std::span<const std::uint8_t> container,
                    const PayloadIndex& index, std::size_t i);

/// Verifies every entry of the index. No-op for an empty (v1) index.
void verify_payloads(std::span<const std::uint8_t> container,
                     const PayloadIndex& index);

}  // namespace tac::core

#endif  // TAC_CORE_CONTAINER_HPP
