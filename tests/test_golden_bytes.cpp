#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <span>
#include <vector>

#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/backend.hpp"
#include "core/tac.hpp"
#include "lossless/codec.hpp"

/// Pins the exact container bytes (CRC32 + size) every built-in method
/// writes for one small dataset, and the bits they decode back to, so a
/// refactor that is meant to keep the format byte-identical is checked by
/// the test suite itself. The dataset
/// is built from integer and rational arithmetic only (no libm), so its
/// bytes depend on nothing but this file; the containers then depend only
/// on the library. Each container is produced at 1 and 4 workers and with
/// the SIMD kernels forced to scalar, which must all agree.
///
/// When a change alters the format on purpose, the failure message prints
/// the replacement table row for every case that moved.

namespace tac::core {
namespace {

using lossless::CodecProfile;

/// Three levels (finest first, ratio 2) that partition a 32^3 domain: the
/// finest level owns the fine cells under a refined set of level-1 cells
/// (whole unit blocks plus a ragged corner, about a third of the blocks),
/// level 1 owns the rest of that set's level-2 parents, and level 2
/// everything else. The finest level is a smooth polynomial (TAC picks
/// OpST and wins it under `auto`); the coarse levels add a saw-tooth term
/// that favours the 1D stream, so the `auto` containers mix both methods.
amr::AmrDataset golden_dataset() {
  const auto refined1 = [](std::size_t x, std::size_t y, std::size_t z) {
    return ((x / 4) * 3 + (y / 4) * 5 + z / 4) % 4 == 0 || (x < 3 && y < 7);
  };
  const auto refined2 = [](std::size_t x, std::size_t y, std::size_t z) {
    return (x + y + z) % 3 != 0 || z < 2;
  };
  const auto value = [](std::size_t level, std::size_t x, std::size_t y,
                        std::size_t z) {
    // The cell's low corner in finest-grid coordinates.
    const std::size_t s = std::size_t{1} << level;
    const double fx = static_cast<double>(x * s);
    const double fy = static_cast<double>(y * s);
    const double fz = static_cast<double>(z * s);
    const double saw = static_cast<double>(level * ((x * 7 + y * 3 + z) % 11));
    return (fx * fy + 3.0 * fy * fz - 2.0 * fz * fx) / 64.0 + saw / 5.0 +
           100.0;
  };
  std::vector<amr::AmrLevel> levels;
  for (std::size_t l = 0; l < 3; ++l) {
    const std::size_t n = std::size_t{32} >> l;
    amr::AmrLevel lv({n, n, n});
    for (std::size_t z = 0; z < n; ++z)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < n; ++x) {
          bool owned = false;
          if (l == 0)
            owned = refined1(x / 2, y / 2, z / 2) &&
                    refined2(x / 4, y / 4, z / 4);
          else if (l == 1)
            owned = !refined1(x, y, z) && refined2(x / 2, y / 2, z / 2);
          else
            owned = !refined2(x, y, z);
          if (!owned) continue;
          lv.mask(x, y, z) = 1;
          lv.data(x, y, z) = value(l, x, y, z);
        }
    levels.push_back(std::move(lv));
  }
  return amr::AmrDataset("golden", std::move(levels), 2);
}

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
  return backend_for(c.method).compress(golden_dataset(), c.cfg).bytes;
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

}  // namespace
}  // namespace tac::core
