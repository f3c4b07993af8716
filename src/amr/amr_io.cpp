#include "amr/amr_io.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/bytes.hpp"
#include "lossless/codec.hpp"

namespace tac::amr {
namespace {
constexpr std::uint32_t kMagic = 0x524D4154;  // "TAMR"
constexpr std::uint8_t kVersion = 1;
}  // namespace

std::vector<std::uint8_t> pack_mask(std::span<const std::uint8_t> mask) {
  std::vector<std::uint8_t> out((mask.size() + 7) / 8, 0);
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    // Eight mask bytes at a time: collapse each byte to its "nonzero"
    // bit, then gather the eight indicator bits (LSB-first, matching the
    // scalar loop) with one multiply. Bit-identical to the byte loop.
    constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kGather = 0x0102040810204080ULL;
    for (; i + 8 <= mask.size(); i += 8) {
      std::uint64_t v;
      std::memcpy(&v, mask.data() + i, 8);
      const std::uint64_t nonzero = (((v & kLow7) + kLow7) | v) >> 7 & kOnes;
      out[i / 8] = static_cast<std::uint8_t>((nonzero * kGather) >> 56);
    }
  }
  for (; i < mask.size(); ++i)
    if (mask[i]) out[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  return out;
}

void unpack_mask_into(std::span<const std::uint8_t> packed,
                      std::span<std::uint8_t> out) {
  const std::size_t count = out.size();
  if (packed.size() < packed_mask_bytes(count))
    throw std::runtime_error("unpack_mask_into: truncated mask");
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    // Spread one packed byte to eight 0/1 bytes: replicate it, isolate
    // bit i in byte i, then force each nonzero byte to exactly 1.
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kSelect = 0x8040201008040201ULL;
    constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
    for (; i + 8 <= count; i += 8) {
      const std::uint64_t m = (packed[i / 8] * kOnes) & kSelect;
      const std::uint64_t bits = ((m + kLow7) >> 7) & kOnes;
      std::memcpy(out.data() + i, &bits, 8);
    }
  }
  for (; i < count; ++i) out[i] = (packed[i / 8] >> (i % 8)) & 1u;
}

std::vector<std::uint8_t> dataset_to_bytes(const AmrDataset& ds) {
  ByteWriter w;
  w.put<std::uint32_t>(kMagic);
  w.put<std::uint8_t>(kVersion);
  w.put_string(ds.field_name());
  w.put_varint(static_cast<std::uint64_t>(ds.refinement_ratio()));
  w.put_varint(ds.num_levels());
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const AmrLevel& lv = ds.level(l);
    w.put_varint(lv.dims().nx);
    w.put_varint(lv.dims().ny);
    w.put_varint(lv.dims().nz);
    const auto packed = pack_mask(lv.mask.span());
    w.put_blob(lossless::compress(packed));
    const auto values = lv.gather_valid();
    std::span<const std::uint8_t> value_bytes{
        reinterpret_cast<const std::uint8_t*>(values.data()),
        values.size() * sizeof(double)};
    w.put_blob(value_bytes);
  }
  return w.take();
}

AmrDataset dataset_from_bytes(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (r.get<std::uint32_t>() != kMagic)
    throw std::runtime_error("amr_io: bad magic");
  if (r.get<std::uint8_t>() != kVersion)
    throw std::runtime_error("amr_io: unsupported version");
  const std::string name = r.get_string();
  const int ratio = static_cast<int>(r.get_varint());
  const std::size_t nlevels = static_cast<std::size_t>(r.get_varint());
  // Each level is at least three dims varints and two blob lengths.
  constexpr std::size_t kMinLevelBytes = 5;
  if (nlevels > r.remaining() / kMinLevelBytes)
    throw std::runtime_error("amr_io: " + std::to_string(nlevels) +
                             " levels declared but only " +
                             std::to_string(r.remaining()) + " bytes remain");
  std::vector<AmrLevel> levels;
  levels.reserve(nlevels);
  for (std::size_t l = 0; l < nlevels; ++l) {
    Dims3 d;
    d.nx = static_cast<std::size_t>(r.get_varint());
    d.ny = static_cast<std::size_t>(r.get_varint());
    d.nz = static_cast<std::size_t>(r.get_varint());
    if (!d.volume_fits())
      throw std::runtime_error("amr_io: level " + std::to_string(l) +
                               " dims overflow");
    const auto packed = lossless::decompress(r.get_blob());
    if (packed.size() < packed_mask_bytes(d.volume()))
      throw std::runtime_error("amr_io: level " + std::to_string(l) +
                               " mask is shorter than its dims need");
    AmrLevel lv(d);
    unpack_mask_into(packed, lv.mask.span());
    const auto value_bytes = r.get_blob();
    if (value_bytes.size() % sizeof(double) != 0)
      throw std::runtime_error("amr_io: bad value payload");
    std::vector<double> values(value_bytes.size() / sizeof(double));
    if (!value_bytes.empty())
      std::memcpy(values.data(), value_bytes.data(), value_bytes.size());
    lv.scatter_valid(values);
    levels.push_back(std::move(lv));
  }
  return AmrDataset(name, std::move(levels), ratio);
}

void save_dataset(const std::string& path, const AmrDataset& ds) {
  const auto bytes = dataset_to_bytes(ds);
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("save_dataset: cannot open " + path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("save_dataset: write failed " + path);
}

AmrDataset load_dataset(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("load_dataset: cannot open " + path);
  const auto size = static_cast<std::size_t>(f.tellg());
  f.seekg(0);
  std::vector<std::uint8_t> bytes(size);
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(size));
  if (!f) throw std::runtime_error("load_dataset: read failed " + path);
  return dataset_from_bytes(bytes);
}

}  // namespace tac::amr
