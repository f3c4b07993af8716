#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <span>
#include <vector>

#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/backend.hpp"
#include "core/tac.hpp"
#include "golden_dataset.hpp"
#include "lossless/codec.hpp"
#include "sz/sz.hpp"

/// Pins the exact container bytes (CRC32 + size) every built-in method
/// writes for one small dataset, and the bits they decode back to, so a
/// refactor that is meant to keep the format byte-identical is checked by
/// the test suite itself. The dataset
/// is built from integer and rational arithmetic only (no libm), so its
/// bytes depend on nothing but this file; the containers then depend only
/// on the library. Each container is produced at 1 and 4 workers and with
/// the SIMD kernels forced to scalar, which must all agree.
///
/// A second table pins raw `sz::compress` streams directly, over extents
/// chosen to hit every remainder of the Lorenzo wavefront.
///
/// When a change alters the format on purpose, the failure message prints
/// the replacement table row for every case that moved.

namespace tac::core {
namespace {

using lossless::CodecProfile;

/// One pinned container. The name is `<method>/<bound>/<profile>`: a
/// registry name or `TAC:<strategy>`; `abs`, `rel` or `lvl` (per-level
/// bounds); `legacy` or `fast`.
struct GoldenCase {
  const char* name;
  std::uint32_t crc;      ///< CRC32 of the container
  std::size_t size;       ///< container bytes
  std::uint32_t decoded;  ///< CRC32 of every decoded level's data bits
};

struct CaseConfig {
  Method method = Method::kTac;
  TacConfig cfg;
};

std::string hex32(std::uint32_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(8) << std::setfill('0') << v << "u";
  return os.str();
}

CaseConfig config_for(const std::string& name) {
  CaseConfig c;
  const auto slash1 = name.find('/');
  const auto slash2 = name.find('/', slash1 + 1);
  const std::string method = name.substr(0, slash1);
  const std::string bound = name.substr(slash1 + 1, slash2 - slash1 - 1);
  const std::string profile = name.substr(slash2 + 1);
  c.cfg.sz.profile =
      profile == "fast" ? CodecProfile::kFast : CodecProfile::kLegacy;
  if (bound == "rel") {
    c.cfg.sz.mode = sz::ErrorBoundMode::kRelative;
    c.cfg.sz.error_bound = 1e-3;
  } else {
    c.cfg.sz.mode = sz::ErrorBoundMode::kAbsolute;
    c.cfg.sz.error_bound = 0.05;
  }
  if (bound == "lvl") c.cfg.level_error_bounds = {0.01, 0.04, 0.2};
  for (const Strategy s : {Strategy::kNaST, Strategy::kOpST,
                           Strategy::kAKDTree, Strategy::kGSP, Strategy::kZF})
    if (method == std::string("TAC:") + to_string(s)) c.cfg.force_strategy = s;
  if (c.cfg.force_strategy) return c;
  for (const Method m : registered_methods())
    if (method == backend_for(m).name()) c.method = m;
  return c;
}

// Recorded before the per-level drivers were folded into one pipeline.
// Per-level bounds are pinned for TAC only: 1D and auto did not honour
// them then.
constexpr GoldenCase kGolden[] = {
    {"TAC/abs/legacy", 0xe0064e50u, 8813, 0x3f641f87u},
    {"TAC/abs/fast", 0x7a80812fu, 8610, 0x3f641f87u},
    {"TAC/rel/legacy", 0xf69da8dbu, 8481, 0x74fa94afu},
    {"TAC/rel/fast", 0xff2a4e10u, 8242, 0x74fa94afu},
    {"1D/abs/legacy", 0xc8c916cdu, 8630, 0x8a7c9f7fu},
    {"1D/abs/fast", 0x89b9ebc1u, 8154, 0x8a7c9f7fu},
    {"1D/rel/legacy", 0x5edabc57u, 8056, 0x54b9a3a1u},
    {"1D/rel/fast", 0x48c25fa4u, 7633, 0x54b9a3a1u},
    {"zMesh/abs/legacy", 0xa2641778u, 7900, 0xad717b02u},
    {"zMesh/abs/fast", 0x98503207u, 7765, 0xad717b02u},
    {"zMesh/rel/legacy", 0x256e94fcu, 7154, 0x05cf9669u},
    {"zMesh/rel/fast", 0xdd6d5e4eu, 7042, 0x05cf9669u},
    {"3D/abs/legacy", 0x523cb77au, 9244, 0x9c581822u},
    {"3D/abs/fast", 0xd17a1c8au, 8851, 0x9c581822u},
    {"3D/rel/legacy", 0xf510cfa3u, 8557, 0x733a08fbu},
    {"3D/rel/fast", 0x0f1abb4au, 7987, 0x733a08fbu},
    {"auto/abs/legacy", 0xb96a579au, 6866, 0x5766f9ddu},
    {"auto/abs/fast", 0x95cc46f6u, 6649, 0x5766f9ddu},
    {"auto/rel/legacy", 0x3d731d01u, 6539, 0xd885ecd7u},
    {"auto/rel/fast", 0x3c8d1e23u, 6348, 0xd885ecd7u},
    {"TAC:NaST/abs/legacy", 0xdb60d7d5u, 8731, 0x24d7b434u},
    {"TAC:NaST/abs/fast", 0xbb6ebfdeu, 8496, 0x24d7b434u},
    {"TAC:OpST/abs/legacy", 0xc3e9b93bu, 8829, 0x3f641f87u},
    {"TAC:OpST/abs/fast", 0x63672e3fu, 8626, 0x3f641f87u},
    {"TAC:AKDTree/abs/legacy", 0xec59de14u, 8988, 0x4cb9668au},
    {"TAC:AKDTree/abs/fast", 0x7f6ddf10u, 8772, 0x4cb9668au},
    {"TAC:GSP/abs/legacy", 0x0bb61c51u, 13597, 0x6bf1915du},
    {"TAC:GSP/abs/fast", 0x4e9375d8u, 13352, 0x6bf1915du},
    {"TAC:ZF/abs/legacy", 0xf2b9d08cu, 12365, 0x77cf7242u},
    {"TAC:ZF/abs/fast", 0xd5404e96u, 11547, 0x77cf7242u},
    {"TAC/lvl/legacy", 0x84be3c04u, 10578, 0xe2869717u},
    {"TAC/lvl/fast", 0x5f9829ebu, 10203, 0xe2869717u},
};

std::vector<std::uint8_t> compress_case(const CaseConfig& c) {
  return backend_for(c.method).compress(test::golden_dataset(), c.cfg).bytes;
}

std::uint32_t decoded_crc(std::span<const std::uint8_t> bytes) {
  const amr::AmrDataset ds = decompress_any(bytes);
  std::uint32_t crc = 0;
  for (const amr::AmrLevel& lv : ds.levels())
    crc = crc32({reinterpret_cast<const std::uint8_t*>(lv.data.data()),
                 lv.data.size() * sizeof(double)},
                crc);
  return crc;
}

TEST(GoldenBytes, ContainersMatchRecordedChecksums) {
  for (const GoldenCase& g : kGolden) {
    SCOPED_TRACE(g.name);
    const CaseConfig c = config_for(g.name);
    std::vector<std::uint8_t> bytes;
    {
      const ParallelismGuard one(1);
      bytes = compress_case(c);
    }
    const std::uint32_t crc = crc32(bytes);
    const std::uint32_t decoded = decoded_crc(bytes);
    if (crc != g.crc || bytes.size() != g.size || decoded != g.decoded)
      ADD_FAILURE() << "container or decode moved; new row:\n    {\""
                    << g.name << "\", " << hex32(crc) << ", "
                    << bytes.size() << ", " << hex32(decoded) << "},";
    {
      const ParallelismGuard four(4);
      EXPECT_EQ(compress_case(c), bytes) << "4 workers";
    }
    const bool was_scalar = simd::scalar_forced();
    simd::force_scalar(true);
    const std::vector<std::uint8_t> scalar = compress_case(c);
    simd::force_scalar(was_scalar);
    EXPECT_EQ(scalar, bytes) << "scalar kernels";
  }
}

/// One pinned raw sz stream of kRawBlocks blocks. The name is
/// `<f64|f32>/<nx>x<ny>x<nz>/<profile>`, the extents of one block.
struct RawCase {
  const char* name;
  std::uint32_t crc;      ///< CRC32 of the stream
  std::size_t size;       ///< stream bytes
  std::uint32_t decoded;  ///< CRC32 of the decoded values' bits
};

constexpr std::size_t kRawBlocks = 2;

/// kRawBlocks blocks of a field built from integer and rational
/// arithmetic. Exact outliers sit on every plane z >= 1, at both row ends
/// and mid-row, on rows 1, 4, 5, 8 and ny - 1: the first and last rows of
/// each 4-row wavefront and of every remainder. They cycle through NaN,
/// +inf, -inf, a value far past the quantizer's reach, and -0.0 (finite,
/// so it quantizes).
template <class T>
std::vector<T> raw_field(Dims3 dims) {
  const std::size_t vol = dims.volume();
  std::vector<T> v(vol * kRawBlocks);
  for (std::size_t b = 0; b < kRawBlocks; ++b)
    for (std::size_t z = 0; z < dims.nz; ++z)
      for (std::size_t y = 0; y < dims.ny; ++y)
        for (std::size_t x = 0; x < dims.nx; ++x)
          v[b * vol + dims.index(x, y, z)] = static_cast<T>(
              0.25 * static_cast<double>(x) + 0.5 * static_cast<double>(y) -
              0.75 * static_cast<double>(z) +
              static_cast<double>((x * 5 + y * 3 + z * 7 + b) % 13) / 64.0);
  const T specials[] = {std::numeric_limits<T>::quiet_NaN(),
                        std::numeric_limits<T>::infinity(),
                        -std::numeric_limits<T>::infinity(), T(1e30),
                        T(-0.0)};
  std::size_t s = 0;
  for (std::size_t b = 0; b < kRawBlocks; ++b)
    for (std::size_t z = 1; z < dims.nz; ++z)
      for (const std::size_t y : {std::size_t{1}, std::size_t{4},
                                  std::size_t{5}, std::size_t{8},
                                  dims.ny - 1})
        if (y >= 1 && y < dims.ny)
          for (const std::size_t x : {std::size_t{0}, dims.nx / 2,
                                      dims.nx - 1})
            v[b * vol + dims.index(x, y, z)] = specials[s++ % 5];
  return v;
}

// ny - 1 (the interior rows of a plane) covers every remainder mod 4, and
// nx lies below and above 1 + 3 * kRowLag, where a 4-row front first runs
// all rows at once. Recorded before the Lorenzo kernels lost their
// profile-dependent scan orders.
constexpr RawCase kRawGolden[] = {
    {"f64/5x2x3/legacy", 0xf3976735u, 174, 0x604fd771u},
    {"f64/5x2x3/fast", 0xee701ee7u, 170, 0x604fd771u},
    {"f64/5x3x3/legacy", 0x25fc97b4u, 218, 0x169bed99u},
    {"f64/5x3x3/fast", 0xb6e45e40u, 213, 0x169bed99u},
    {"f64/5x4x3/legacy", 0x965d5b69u, 276, 0xc188c074u},
    {"f64/5x4x3/fast", 0x594a42d4u, 270, 0xc188c074u},
    {"f64/5x5x3/legacy", 0x5f31098bu, 315, 0x9d88f9f5u},
    {"f64/5x5x3/fast", 0x65ba243eu, 307, 0x9d88f9f5u},
    {"f64/5x6x3/legacy", 0xda9e8c19u, 373, 0x7ac7c638u},
    {"f64/5x6x3/fast", 0x29dcc26fu, 363, 0x7ac7c638u},
    {"f64/5x7x3/legacy", 0xb472ab62u, 390, 0xe765de2eu},
    {"f64/5x7x3/fast", 0xd3444102u, 384, 0xe765de2eu},
    {"f64/5x8x3/legacy", 0x30ad55cbu, 459, 0xee475cf8u},
    {"f64/5x8x3/fast", 0x2047e14cu, 454, 0xee475cf8u},
    {"f64/5x9x3/legacy", 0xf7b84aeeu, 438, 0xd2c6acd2u},
    {"f64/5x9x3/fast", 0xdfe5b151u, 435, 0xd2c6acd2u},
    {"f64/13x2x3/legacy", 0x6d1ea1e6u, 244, 0xd9842327u},
    {"f64/13x2x3/fast", 0x9d36a1fdu, 240, 0xd9842327u},
    {"f64/13x3x3/legacy", 0xc4ee21adu, 329, 0x10880c8fu},
    {"f64/13x3x3/fast", 0xe104992cu, 325, 0x10880c8fu},
    {"f64/13x4x3/legacy", 0x7f5917f8u, 416, 0x1427ee19u},
    {"f64/13x4x3/fast", 0x4466ad38u, 410, 0x1427ee19u},
    {"f64/13x5x3/legacy", 0xdda39c83u, 452, 0x8f320908u},
    {"f64/13x5x3/fast", 0xfce8a48bu, 447, 0x8f320908u},
    {"f64/13x6x3/legacy", 0x52535562u, 546, 0xf279408au},
    {"f64/13x6x3/fast", 0xee9b5fa2u, 533, 0xf279408au},
    {"f64/13x7x3/legacy", 0x86c96107u, 592, 0xe1c2d6aeu},
    {"f64/13x7x3/fast", 0xc7468032u, 583, 0xe1c2d6aeu},
    {"f64/13x8x3/legacy", 0x1a82b4a5u, 680, 0x5ff2573fu},
    {"f64/13x8x3/fast", 0xabbe53d1u, 660, 0x5ff2573fu},
    {"f64/13x9x3/legacy", 0x6e841e46u, 694, 0x545a7468u},
    {"f64/13x9x3/fast", 0x8a3fd4c9u, 692, 0x545a7468u},
    {"f32/5x2x3/legacy", 0x8ed5cd52u, 163, 0x8bc6a2c1u},
    {"f32/5x2x3/fast", 0x748f08a4u, 161, 0x8bc6a2c1u},
    {"f32/5x3x3/legacy", 0x48b485afu, 198, 0x57c35174u},
    {"f32/5x3x3/fast", 0x7e21ac83u, 194, 0x57c35174u},
    {"f32/5x4x3/legacy", 0x32a89c49u, 262, 0x09807564u},
    {"f32/5x4x3/fast", 0x3dfe4c56u, 256, 0x09807564u},
    {"f32/5x5x3/legacy", 0x481bda0au, 305, 0x3e403505u},
    {"f32/5x5x3/fast", 0x5777d41au, 297, 0x3e403505u},
    {"f32/5x6x3/legacy", 0x73e0106au, 348, 0x4cc3a1fau},
    {"f32/5x6x3/fast", 0xb9811182u, 340, 0x4cc3a1fau},
    {"f32/5x7x3/legacy", 0x0a468997u, 365, 0x47871be2u},
    {"f32/5x7x3/fast", 0xb1d65266u, 355, 0x47871be2u},
    {"f32/5x8x3/legacy", 0xc582d8bau, 439, 0x5adac2c2u},
    {"f32/5x8x3/fast", 0xbda3bd50u, 424, 0x5adac2c2u},
    {"f32/5x9x3/legacy", 0x251648d5u, 435, 0xd769c5c0u},
    {"f32/5x9x3/fast", 0x425dc513u, 409, 0xd769c5c0u},
    {"f32/13x2x3/legacy", 0xfdd037e4u, 231, 0x4cc8c213u},
    {"f32/13x2x3/fast", 0x4ee0534du, 229, 0x4cc8c213u},
    {"f32/13x3x3/legacy", 0x878e4208u, 304, 0x7d5a5a87u},
    {"f32/13x3x3/fast", 0x2dff167au, 299, 0x7d5a5a87u},
    {"f32/13x4x3/legacy", 0x95d665d5u, 399, 0xbd5596c9u},
    {"f32/13x4x3/fast", 0x9329c7ffu, 392, 0xbd5596c9u},
    {"f32/13x5x3/legacy", 0x862ef20bu, 441, 0x144f794bu},
    {"f32/13x5x3/fast", 0x72386018u, 436, 0x144f794bu},
    {"f32/13x6x3/legacy", 0xea1d13afu, 512, 0x4a0b8c5bu},
    {"f32/13x6x3/fast", 0xee3f22c6u, 504, 0x4a0b8c5bu},
    {"f32/13x7x3/legacy", 0xeeac3a92u, 563, 0xfd9bb6ffu},
    {"f32/13x7x3/fast", 0x48640089u, 537, 0xfd9bb6ffu},
    {"f32/13x8x3/legacy", 0x04e76acbu, 657, 0x44d55b65u},
    {"f32/13x8x3/fast", 0xdeb50f94u, 644, 0x44d55b65u},
    {"f32/13x9x3/legacy", 0xdbe51664u, 684, 0x0acd70d2u},
    {"f32/13x9x3/fast", 0x5f68bb09u, 664, 0x0acd70d2u},
};

template <class T>
void check_raw(const RawCase& g) {
  std::istringstream is(g.name);
  std::string type;
  std::string profile_name;
  Dims3 dims;
  char sep = 0;
  std::getline(is, type, '/');
  is >> dims.nx >> sep >> dims.ny >> sep >> dims.nz >> sep;
  std::getline(is, profile_name);
  sz::SzConfig cfg;
  cfg.error_bound = 0.01;
  cfg.profile =
      profile_name == "fast" ? CodecProfile::kFast : CodecProfile::kLegacy;

  const std::vector<T> data = raw_field<T>(dims);
  const auto compress = [&] {
    return sz::compress<T>(data, dims, cfg, kRawBlocks);
  };
  const auto bits = [](const std::vector<T>& v) {
    return crc32({reinterpret_cast<const std::uint8_t*>(v.data()),
                  v.size() * sizeof(T)});
  };
  std::vector<std::uint8_t> bytes;
  {
    const ParallelismGuard one(1);
    bytes = compress();
  }
  const std::uint32_t crc = crc32(bytes);
  const std::uint32_t decoded = bits(sz::decompress<T>(bytes, cfg.profile));
  if (crc != g.crc || bytes.size() != g.size || decoded != g.decoded)
    ADD_FAILURE() << "stream or decode moved; new row:\n    {\""
                  << g.name << "\", " << hex32(crc) << ", " << bytes.size()
                  << ", " << hex32(decoded) << "},";
  {
    const ParallelismGuard four(4);
    EXPECT_EQ(compress(), bytes) << "4 workers";
  }
  const bool was_scalar = simd::scalar_forced();
  simd::force_scalar(true);
  EXPECT_EQ(compress(), bytes) << "scalar kernels";
  simd::force_scalar(was_scalar);

  // A strict decode under the other profile may reject the stream's
  // lossless method bytes; every decode that runs must give the same bits.
  for (const std::optional<CodecProfile> expected :
       {std::optional{CodecProfile::kFast},
        std::optional{CodecProfile::kLegacy},
        std::optional<CodecProfile>{}}) {
    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << "decode as "
                   << (expected ? lossless::to_string(*expected) : "lenient")
                   << " at " << workers << " workers");
      const ParallelismGuard guard(workers);
      try {
        EXPECT_EQ(bits(sz::decompress<T>(bytes, expected)), g.decoded);
      } catch (const lossless::ProfileError&) {
        EXPECT_TRUE(expected && *expected != cfg.profile);
      }
    }
  }
}

TEST(GoldenBytes, RawSzStreamsMatchRecordedChecksums) {
  for (const RawCase& g : kRawGolden) {
    SCOPED_TRACE(g.name);
    if (std::string(g.name).starts_with("f32"))
      check_raw<float>(g);
    else
      check_raw<double>(g);
  }
}

}  // namespace
}  // namespace tac::core
