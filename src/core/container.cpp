#include "core/container.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "amr/amr_io.hpp"
#include "common/crc32.hpp"
#include "common/telemetry.hpp"
#include "core/backend.hpp"
#include "lossless/codec.hpp"

namespace tac::core {
namespace {
constexpr std::uint32_t kMagic = 0x43434154;  // "TACC"

// magic + version + method — the fixed prefix every container starts with.
constexpr std::size_t kHeaderPrefixBytes =
    sizeof(std::uint32_t) + 2 * sizeof(std::uint8_t);

std::string hex32(std::uint32_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s = "0x";
  for (int shift = 28; shift >= 0; shift -= 4)
    s.push_back(digits[(v >> shift) & 0xFu]);
  return s;
}

struct HeaderPrefix {
  Method method;
  std::uint8_t version;
};

/// Decodes the fixed header prefix with descriptive errors: wrong magic,
/// unsupported version and unregistered method tags each say what was
/// found, and short buffers never read past the span.
HeaderPrefix read_header_prefix(ByteReader& r) {
  if (r.remaining() < kHeaderPrefixBytes)
    throw std::runtime_error(
        "container: truncated header (" + std::to_string(r.remaining()) +
        " bytes, need at least " + std::to_string(kHeaderPrefixBytes) + ")");
  if (r.get<std::uint32_t>() != kMagic)
    throw std::runtime_error("container: bad magic (not a TAC container)");
  const auto version = r.get<std::uint8_t>();
  if (version < kMinFormatVersion || version > kFormatVersion)
    throw std::runtime_error(
        "container: unsupported format version " + std::to_string(version) +
        " (this build reads versions " + std::to_string(kMinFormatVersion) +
        ".." + std::to_string(kFormatVersion) + ")");
  const auto tag = r.get<std::uint8_t>();
  if (find_backend(static_cast<Method>(tag)) == nullptr)
    throw std::runtime_error(
        "container: unknown method tag " + std::to_string(tag) +
        " (no registered compressor backend)");
  return {static_cast<Method>(tag), version};
}

}  // namespace

const char* to_string(Method m) {
  switch (m) {
    case Method::kTac: return "TAC";
    case Method::kOneD: return "1D";
    case Method::kZMesh: return "zMesh";
    case Method::kUpsample3D: return "3D";
    case Method::kAuto: return "auto";
  }
  return "?";
}

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kNaST: return "NaST";
    case Strategy::kOpST: return "OpST";
    case Strategy::kAKDTree: return "AKDTree";
    case Strategy::kGSP: return "GSP";
    case Strategy::kZF: return "ZF";
  }
  return "?";
}

void PayloadIndexBuilder::begin_payload() {
  if (w_ == nullptr)
    throw std::logic_error("PayloadIndexBuilder: not attached to a writer");
  if (open_begin_ != kNone)
    throw std::logic_error(
        "PayloadIndexBuilder: begin_payload with a payload still open");
  if (sealed_ >= count_)
    throw std::logic_error(
        "PayloadIndexBuilder: more payloads than the " +
        std::to_string(count_) + " reserved index entries");
  open_begin_ = w_->size();
}

void PayloadIndexBuilder::end_payload() { end_payload(method_); }

void PayloadIndexBuilder::end_payload(Method chosen) {
  if (open_begin_ == kNone)
    throw std::logic_error(
        "PayloadIndexBuilder: end_payload without begin_payload");
  const std::size_t end = w_->size();
  const std::span<const std::uint8_t> written(w_->buffer());
  PayloadEntry e;
  e.offset = open_begin_;
  e.length = end - open_begin_;
  e.crc32 = crc32(written.subspan(open_begin_, end - open_begin_));
  e.profile = static_cast<std::uint8_t>(profile_);
  e.selector = static_cast<std::uint8_t>(chosen);
  patch_payload_entry_v4(*w_, entries_pos_ + sealed_ * kPayloadEntryV4Bytes,
                         e);
  ++sealed_;
  TAC_COUNTER_ADD("container.payloads_written", 1);
  TAC_COUNTER_ADD("container.payload_bytes_written", e.length);
  open_begin_ = kNone;
}

void PayloadIndexBuilder::finish() const {
  if (open_begin_ != kNone)
    throw std::logic_error("PayloadIndexBuilder: unsealed payload at finish");
  if (sealed_ != count_)
    throw std::logic_error(
        "PayloadIndexBuilder: sealed " + std::to_string(sealed_) + " of " +
        std::to_string(count_) + " reserved payloads");
}

PayloadIndexBuilder write_common_header(ByteWriter& w, Method method,
                                        const amr::AmrDataset& ds,
                                        std::size_t n_payloads,
                                        lossless::CodecProfile profile) {
  TAC_SPAN("container.header_write");
  w.put<std::uint32_t>(kMagic);
  w.put<std::uint8_t>(kFormatVersion);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(method));
  w.put_string(ds.field_name());
  w.put_varint(static_cast<std::uint64_t>(ds.refinement_ratio()));
  w.put_varint(ds.num_levels());
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto& lv = ds.level(l);
    w.put_varint(lv.dims().nx);
    w.put_varint(lv.dims().ny);
    w.put_varint(lv.dims().nz);
    const auto packed = amr::pack_mask(lv.mask.span());
    w.put_blob(lossless::compress(packed, profile));
  }
  w.put_varint(n_payloads);
  const std::size_t entries_pos =
      w.reserve(n_payloads * kPayloadEntryV4Bytes);
  return PayloadIndexBuilder(w, entries_pos, n_payloads, profile, method);
}

CommonHeader read_common_header(ByteReader& r) {
  TAC_SPAN("container.header_read");
  CommonHeader h;
  const HeaderPrefix prefix = read_header_prefix(r);
  h.method = prefix.method;
  h.version = prefix.version;
  const std::string field = r.get_string();
  const int ratio = static_cast<int>(r.get_varint());
  const std::size_t nlevels = static_cast<std::size_t>(r.get_varint());
  // Each level is at least three dims varints and a mask blob length.
  constexpr std::size_t kMinLevelBytes = 4;
  if (nlevels > r.remaining() / kMinLevelBytes)
    throw std::runtime_error(
        "container: header declares " + std::to_string(nlevels) +
        " levels but only " + std::to_string(r.remaining()) +
        " bytes remain");
  std::vector<amr::AmrLevel> levels;
  levels.reserve(nlevels);
  for (std::size_t l = 0; l < nlevels; ++l) {
    Dims3 d;
    d.nx = static_cast<std::size_t>(r.get_varint());
    d.ny = static_cast<std::size_t>(r.get_varint());
    d.nz = static_cast<std::size_t>(r.get_varint());
    if (!d.volume_fits())
      throw std::runtime_error(
          "container: level " + std::to_string(l) + " declares dims " +
          std::to_string(d.nx) + "x" + std::to_string(d.ny) + "x" +
          std::to_string(d.nz) + " whose volume overflows");
    const auto packed = lossless::decompress(r.get_blob());
    if (packed.size() < amr::packed_mask_bytes(d.volume()))
      throw std::runtime_error(
          "container: level " + std::to_string(l) + " mask blob holds " +
          std::to_string(packed.size()) + " bytes, its dims need " +
          std::to_string(amr::packed_mask_bytes(d.volume())));
    // Structure only: the mask is the level's shape and `data` stays
    // empty until a decoder materialises the level (zeroed_level).
    amr::AmrLevel lv;
    lv.mask = Array3D<std::uint8_t>(d);
    amr::unpack_mask_into(packed, lv.mask.span());
    levels.push_back(std::move(lv));
  }
  h.skeleton = amr::AmrDataset(field, std::move(levels), ratio);
  h.index_offset = r.position();
  if (h.version >= 2) {
    const std::size_t entry_bytes = h.version >= 4   ? kPayloadEntryV4Bytes
                                    : h.version >= 3 ? kPayloadEntryV3Bytes
                                                     : kPayloadEntryBytes;
    const std::size_t n = static_cast<std::size_t>(r.get_varint());
    if (n > r.remaining() / entry_bytes)
      throw std::runtime_error(
          "container: payload index claims " + std::to_string(n) +
          " entries but only " + std::to_string(r.remaining()) +
          " bytes remain");
    h.index.entries.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const PayloadEntry e = h.version >= 4   ? read_payload_entry_v4(r)
                             : h.version >= 3 ? read_payload_entry_v3(r)
                                              : read_payload_entry(r);
      if (h.version >= 3 &&
          e.profile > static_cast<std::uint8_t>(lossless::CodecProfile::kFast))
        throw lossless::ProfileError(
            "container: payload " + std::to_string(i) +
            " declares unknown codec profile byte " +
            std::to_string(e.profile));
      if (h.version >= 4 && e.selector != kSelectorFixed &&
          find_backend(static_cast<Method>(e.selector)) == nullptr)
        throw SelectorError(
            "container: payload " + std::to_string(i) +
            " declares unknown selector byte " + std::to_string(e.selector) +
            " (no registered compressor backend)");
      h.index.entries.push_back(e);
    }
  }
  h.payload_offset = r.position();
  return h;
}

std::optional<lossless::CodecProfile> payload_profile(
    const CommonHeader& header, std::size_t i) {
  if (header.version < 3 || i >= header.index.entries.size())
    return std::nullopt;
  return static_cast<lossless::CodecProfile>(header.index.entries[i].profile);
}

std::optional<Method> payload_method(const CommonHeader& header,
                                     std::size_t i) {
  if (header.version < 4 || i >= header.index.entries.size())
    return std::nullopt;
  const std::uint8_t selector = header.index.entries[i].selector;
  if (selector == kSelectorFixed) return std::nullopt;
  return static_cast<Method>(selector);
}

Method peek_method(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  return read_header_prefix(r).method;
}

bool is_container(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < sizeof(std::uint32_t)) return false;
  std::uint32_t magic;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  return magic == kMagic;
}

void verify_payload(std::span<const std::uint8_t> container,
                    const PayloadIndex& index, std::size_t i) {
  const PayloadEntry& e = index.entries.at(i);
  if (e.offset > container.size() ||
      e.length > container.size() - e.offset)
    throw std::runtime_error(
        "container: payload " + std::to_string(i) +
        " index entry [offset " + std::to_string(e.offset) + ", length " +
        std::to_string(e.length) + "] exceeds the " +
        std::to_string(container.size()) + "-byte container");
  TAC_SPAN_BYTES("container.crc_verify", e.length);
  TAC_COUNTER_ADD("container.crc_bytes_verified", e.length);
  const std::uint32_t actual = crc32(container.subspan(
      static_cast<std::size_t>(e.offset), static_cast<std::size_t>(e.length)));
  if (actual != e.crc32) {
    TAC_COUNTER_ADD("container.checksum_failures", 1);
    throw ChecksumError("container: payload " + std::to_string(i) +
                        " checksum mismatch (stored " + hex32(e.crc32) +
                        ", computed " + hex32(actual) + ")");
  }
}

void verify_payloads(std::span<const std::uint8_t> container,
                     const PayloadIndex& index) {
  for (std::size_t i = 0; i < index.entries.size(); ++i)
    verify_payload(container, index, i);
}

amr::AmrLevel zeroed_level(amr::AmrLevel shape) {
  shape.data = Array3D<double>(shape.dims());
  return shape;
}

amr::AmrDataset zeroed_levels(amr::AmrDataset skeleton) {
  for (amr::AmrLevel& lv : skeleton.levels()) lv = zeroed_level(std::move(lv));
  return skeleton;
}

}  // namespace tac::core
