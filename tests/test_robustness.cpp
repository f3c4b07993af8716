#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "amr/amr_io.hpp"
#include "common/crc32.hpp"
#include "core/adaptive.hpp"
#include "core/backend.hpp"
#include "core/baselines.hpp"
#include "core/container.hpp"
#include "core/tac.hpp"
#include "lossless/codec.hpp"
#include "lossless/huffman.hpp"
#include "simnyx/generator.hpp"
#include "sz/sz.hpp"

/// Failure-injection tests: corrupted or truncated inputs must raise
/// exceptions — never crash, hang, or silently return wrong data.

namespace tac {
namespace {

amr::AmrDataset small_dataset() {
  simnyx::GeneratorConfig gc;
  gc.finest_dims = {32, 32, 32};
  gc.level_densities = {0.3, 0.7};
  gc.region_size = 8;
  return simnyx::generate_baryon_density(gc);
}

std::vector<std::uint8_t> compress_with(core::Method method,
                                        const amr::AmrDataset& ds) {
  const sz::SzConfig scfg{.error_bound = 1e6};
  core::TacConfig tcfg;
  tcfg.sz = scfg;
  switch (method) {
    case core::Method::kTac: return core::tac_compress(ds, tcfg).bytes;
    case core::Method::kOneD: return core::oned_compress(ds, scfg).bytes;
    case core::Method::kZMesh: return core::zmesh_compress(ds, scfg).bytes;
    case core::Method::kUpsample3D:
      return core::upsample3d_compress(ds, scfg).bytes;
    case core::Method::kAuto:
      return core::backend_for(core::Method::kAuto).compress(ds, tcfg).bytes;
  }
  return {};
}

class TruncationTest : public ::testing::TestWithParam<core::Method> {};

TEST_P(TruncationTest, TruncatedContainersThrowNotCrash) {
  const auto ds = small_dataset();
  const auto bytes = compress_with(GetParam(), ds);
  ASSERT_FALSE(bytes.empty());
  // Sample truncation points across the container, including boundaries.
  const std::size_t n = bytes.size();
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}, n / 4, n / 2,
        3 * n / 4, n - 1}) {
    std::vector<std::uint8_t> cutbytes(bytes.begin(),
                                       bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW((void)core::decompress_any(cutbytes), std::exception)
        << "cut at " << cut << " of " << n;
  }
}

TEST_P(TruncationTest, BitFlipsThrowOrStayStructurallySane) {
  const auto ds = small_dataset();
  const auto bytes = compress_with(GetParam(), ds);
  core::CommonHeader header = [&] {
    ByteReader r(bytes);
    return core::read_common_header(r);
  }();
  const auto in_payload = [&](std::size_t pos) {
    for (const auto& e : header.index.entries)
      if (pos >= e.offset && pos < e.offset + e.length) return true;
    return false;
  };
  std::mt19937 rng(7);
  for (int trial = 0; trial < 24; ++trial) {
    auto corrupted = bytes;
    const std::size_t pos = rng() % corrupted.size();
    corrupted[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    if (in_payload(pos)) {
      // v2 payloads are checksummed: corruption there is always reported
      // as a ChecksumError, never a misparse or silently wrong data.
      EXPECT_THROW((void)core::decompress_any(corrupted),
                   core::ChecksumError)
          << "flip at " << pos;
      continue;
    }
    // Header/index corruption: decompression must either throw or
    // produce a structurally valid dataset — never crash or hang.
    try {
      const auto out = core::decompress_any(corrupted);
      EXPECT_EQ(out.num_levels(), ds.num_levels());
      for (std::size_t l = 0; l < out.num_levels(); ++l)
        EXPECT_EQ(out.level(l).dims().volume(),
                  ds.level(l).dims().volume());
    } catch (const std::exception&) {
      // Expected for most corruption sites.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, TruncationTest,
                         ::testing::Values(core::Method::kTac,
                                           core::Method::kOneD,
                                           core::Method::kZMesh,
                                           core::Method::kUpsample3D,
                                           core::Method::kAuto),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

/// A container header declaring one level of dims `d` with `packed` as
/// its (losslessly compressed) mask blob and an empty payload index.
std::vector<std::uint8_t> forged_header(Dims3 d,
                                        std::vector<std::uint8_t> packed) {
  ByteWriter w;
  w.put<std::uint32_t>(0x43434154);  // "TACC"
  w.put<std::uint8_t>(core::kFormatVersion);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(core::Method::kTac));
  w.put_string("forged");
  w.put_varint(2);  // refinement ratio
  w.put_varint(1);  // levels
  w.put_varint(d.nx);
  w.put_varint(d.ny);
  w.put_varint(d.nz);
  w.put_blob(lossless::compress(packed));
  w.put_varint(0);  // payload index entries
  return w.take();
}

/// An amr_io snapshot declaring `nlevels` levels, the first of dims `d`
/// with `packed` as its mask and no values.
std::vector<std::uint8_t> forged_amr(Dims3 d, std::vector<std::uint8_t> packed,
                                     std::uint64_t nlevels = 1) {
  ByteWriter w;
  w.put<std::uint32_t>(0x524D4154);  // "TAMR"
  w.put<std::uint8_t>(1);            // amr_io version
  w.put_string("forged");
  w.put_varint(2);  // refinement ratio
  w.put_varint(nlevels);
  w.put_varint(d.nx);
  w.put_varint(d.ny);
  w.put_varint(d.nz);
  w.put_blob(lossless::compress(packed));
  w.put_blob({});  // values
  return w.take();
}

core::CommonHeader parse_header(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  return core::read_common_header(r);
}

TEST(Robustness, HugeDeclaredDimsWithShortMaskRejectedBeforeAllocating) {
  // 1024^3 cells would need 8 GiB of data and 1 GiB of mask; the 4-byte
  // mask blob covers 32 cells. The mask-size check must fire first.
  const auto bytes =
      forged_header({1024, 1024, 1024}, {0xFF, 0xFF, 0xFF, 0xFF});
  EXPECT_THROW((void)parse_header(bytes), std::runtime_error);
  EXPECT_THROW((void)core::decompress_any(bytes), std::runtime_error);
}

TEST(Robustness, DeclaredDimsWhoseVolumeOverflowsRejected) {
  // 2^32 * 2^32 * 1 wraps to a volume of 0, which an empty mask "covers".
  const std::size_t big = std::size_t{1} << 32;
  const auto bytes = forged_header({big, big, 1}, {});
  EXPECT_THROW((void)parse_header(bytes), std::runtime_error);
  EXPECT_THROW((void)core::decompress_any(bytes), std::runtime_error);
  // The same check catches a wrap in the second multiplication.
  EXPECT_THROW((void)parse_header(forged_header({1, big, big}, {})),
               std::runtime_error);
}

TEST(Robustness, ForgedLevelCountRejectedBeforeReserving) {
  // 2^40 levels would reserve ~88 TB of AmrLevel slots; each level needs
  // at least four header bytes, so the count is checked against what
  // remains. std::bad_alloc is not a std::runtime_error.
  constexpr std::uint64_t kLevels = std::uint64_t{1} << 40;
  ByteWriter w;
  w.put<std::uint32_t>(0x43434154);  // "TACC"
  w.put<std::uint8_t>(core::kFormatVersion);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(core::Method::kTac));
  w.put_string("forged");
  w.put_varint(2);
  w.put_varint(kLevels);
  w.put_varint(0);
  const auto container = w.take();
  EXPECT_THROW((void)parse_header(container), std::runtime_error);
  EXPECT_THROW((void)core::decompress_any(container), std::runtime_error);

  EXPECT_THROW((void)amr::dataset_from_bytes(forged_amr({}, {}, kLevels)),
               std::runtime_error);
}

TEST(Robustness, AmrIoDimsWhoseVolumeOverflowsRejected) {
  const std::size_t big = std::size_t{1} << 32;
  EXPECT_THROW((void)amr::dataset_from_bytes(forged_amr({big, big, 1}, {})),
               std::runtime_error);
  EXPECT_THROW((void)amr::dataset_from_bytes(forged_amr({1, big, big}, {})),
               std::runtime_error);
}

TEST(Robustness, AmrIoShortMaskRejectedBeforeAllocating) {
  // 2^50 cells: allocating the level first would throw std::bad_alloc.
  const Dims3 huge{std::size_t{1} << 20, std::size_t{1} << 20,
                   std::size_t{1} << 10};
  EXPECT_THROW(
      (void)amr::dataset_from_bytes(forged_amr(huge, {0xFF, 0xFF, 0xFF})),
      std::runtime_error);
}

/// A one-level TAC container whose level payload is replaced by
/// `payload`, with the index entry's length and CRC recomputed so the
/// decoder gets past the checksum and parses the forged bytes.
std::vector<std::uint8_t> tac_container_with_payload(
    const std::vector<std::uint8_t>& payload) {
  amr::AmrLevel lv({16, 16, 16});
  for (std::size_t i = 0; i < lv.data.size(); ++i) {
    lv.mask[i] = 1;
    lv.data[i] = static_cast<double>(i % 17);
  }
  std::vector<amr::AmrLevel> levels;
  levels.push_back(std::move(lv));
  core::TacConfig cfg;
  cfg.force_strategy = core::Strategy::kNaST;
  std::vector<std::uint8_t> bytes =
      core::tac_compress(amr::AmrDataset("forged", std::move(levels)), cfg)
          .bytes;
  ByteReader r(bytes);
  const core::CommonHeader h = core::read_common_header(r);
  EXPECT_EQ(h.index.entries.size(), 1u);
  const core::PayloadEntry e = h.index.entries.at(0);
  // The only payload is the container's last one: swap it in place.
  EXPECT_EQ(e.offset + e.length, bytes.size());
  bytes.resize(e.offset);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  // Entry 0 follows the one-byte entry count at index_offset.
  ByteWriter w;
  w.put_bytes(bytes);
  core::PayloadEntry forged = e;
  forged.length = payload.size();
  forged.crc32 = crc32(payload);
  core::patch_payload_entry(w, h.index_offset + 1, forged);
  return w.take();
}

/// The head of a NaST level payload: strategy tag and block size.
ByteWriter nast_payload_head() {
  ByteWriter w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(core::Strategy::kNaST));
  w.put_varint(8);
  return w;
}

TEST(Robustness, ForgedGroupCountRejectedBeforeReserving) {
  // A well-formed payload with no groups decodes, so what the forged
  // payload below trips is its count, not the splice.
  {
    ByteWriter w = nast_payload_head();
    w.put_varint(0);
    EXPECT_NO_THROW((void)core::decompress_any(
        tac_container_with_payload(w.take())));
  }
  // 2^50 groups would reserve petabytes of BlockGroup slots.
  ByteWriter w = nast_payload_head();
  w.put_varint(std::uint64_t{1} << 50);
  w.put_bytes(std::vector<std::uint8_t>(16, 1));
  EXPECT_THROW(
      (void)core::decompress_any(tac_container_with_payload(w.take())),
      std::runtime_error);
}

TEST(Robustness, ForgedMemberCountRejectedBeforeReserving) {
  ByteWriter w = nast_payload_head();
  w.put_varint(1);  // one group of 1x1x1-block members
  w.put_varint(1);
  w.put_varint(1);
  w.put_varint(1);
  w.put_varint(std::uint64_t{1} << 50);
  w.put_bytes(std::vector<std::uint8_t>(16, 1));
  EXPECT_THROW(
      (void)core::decompress_any(tac_container_with_payload(w.take())),
      std::runtime_error);
}

TEST(Robustness, ForgedHuffmanSymbolCountRejectedBeforeReserving) {
  ByteWriter table;
  table.put_varint(std::uint64_t{1} << 50);
  table.put_bytes(std::vector<std::uint8_t>(16, 1));
  EXPECT_THROW((void)lossless::huffman_table_deserialize(table.buffer()),
               std::runtime_error);
  ByteWriter stream;
  stream.put_varint(1);  // symbol count
  stream.put_blob(table.buffer());
  stream.put_blob({});
  EXPECT_THROW((void)lossless::huffman_decompress(stream.buffer()),
               std::runtime_error);
}

/// A constant sz stream of one value whose header declares `nblocks`
/// blocks of extents `d`.
std::vector<std::uint8_t> sz_constant_with_dims(Dims3 d,
                                                std::uint64_t nblocks) {
  const std::vector<double> one{1.0};
  const auto real = sz::compress<double>(one, {1, 1, 1}, sz::SzConfig{});
  // Magic, version and scalar size take four bytes; the four one-byte
  // varints that follow are the dims and block count.
  ByteWriter w;
  w.put_bytes(std::span(real).first(4));
  w.put_varint(d.nx);
  w.put_varint(d.ny);
  w.put_varint(d.nz);
  w.put_varint(nblocks);
  w.put_bytes(std::span(real).subspan(8));
  return w.take();
}

TEST(Robustness, SzBlockDimsWhoseSizeOverflowsRejected) {
  EXPECT_EQ(sz::decompress<double>(sz_constant_with_dims({1, 1, 1}, 1)),
            std::vector<double>{1.0});
  const std::size_t big = std::size_t{1} << 32;
  const std::size_t mid = std::size_t{1} << 20;
  for (const auto& [d, nblocks] :
       {std::pair{Dims3{big, big, 1}, 1u},     // volume wraps to 0
        std::pair{Dims3{1, big, big}, 1u},
        std::pair{Dims3{mid, mid, mid}, 16u},  // volume * nblocks wraps to 0
        std::pair{Dims3{mid, mid, mid}, 17u},  // ... to 2^60
        std::pair{Dims3{0, 1, 1}, 1u},         // compress never writes these
        std::pair{Dims3{1, 1, 1}, 0u}}) {
    SCOPED_TRACE(testing::Message() << d << " x " << nblocks);
    EXPECT_THROW(
        (void)sz::decompress<double>(sz_constant_with_dims(d, nblocks)),
        std::runtime_error);
  }
}

TEST(Robustness, SzStreamTruncationSweep) {
  const Dims3 d{16, 16, 16};
  std::vector<double> v(d.volume());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.1 * static_cast<double>(i));
  const auto bytes =
      sz::compress<double>(v, d, sz::SzConfig{.error_bound = 1e-3});
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::vector<std::uint8_t> cutbytes(bytes.begin(),
                                       bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW((void)sz::decompress<double>(cutbytes), std::exception);
  }
}

TEST(Robustness, EmptyInputThrows) {
  EXPECT_THROW((void)core::decompress_any({}), std::exception);
  EXPECT_THROW((void)sz::decompress<double>({}), std::exception);
}

TEST(Robustness, GarbageInputThrows) {
  std::mt19937 rng(11);
  std::vector<std::uint8_t> garbage(4096);
  for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
  EXPECT_THROW((void)core::decompress_any(garbage), std::exception);
}

TEST(Robustness, SingleCellLevels) {
  // Degenerate geometry: a 2-level dataset whose coarse level is 1^3.
  amr::AmrLevel fine({2, 2, 2});
  amr::AmrLevel coarse({1, 1, 1});
  for (std::size_t i = 0; i < 8; ++i) {
    fine.mask[i] = 1;
    fine.data[i] = static_cast<double>(i) + 1.0;
  }
  const amr::AmrDataset ds("tiny", {std::move(fine), std::move(coarse)});
  core::TacConfig cfg;
  cfg.sz.error_bound = 0.1;
  const auto compressed = core::tac_compress(ds, cfg);
  const auto back = core::decompress_any(compressed.bytes);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(back.level(0).data[i], ds.level(0).data[i], 0.1);
}

TEST(Robustness, HugeBlockSizeClampsGracefully) {
  const auto ds = small_dataset();
  core::TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  cfg.block_size = 1024;  // bigger than the level: one block per level
  const auto compressed = core::tac_compress(ds, cfg);
  const auto back = core::decompress_any(compressed.bytes);
  EXPECT_EQ(back.num_levels(), ds.num_levels());
}

TEST(Robustness, ZeroBlockSizeRejected) {
  const auto ds = small_dataset();
  core::TacConfig cfg;
  cfg.block_size = 0;
  EXPECT_THROW((void)core::tac_compress(ds, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace tac
