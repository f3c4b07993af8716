#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analysis/metrics.hpp"
#include "core/adaptive.hpp"
#include "core/backend.hpp"
#include "core/baselines.hpp"
#include "core/tac.hpp"
#include "golden_dataset.hpp"
#include "lossless/codec.hpp"
#include "simnyx/generator.hpp"

namespace tac::core {
namespace {

simnyx::GeneratorConfig small_config(std::vector<double> densities,
                                     std::size_t n = 32) {
  simnyx::GeneratorConfig cfg;
  cfg.finest_dims = {n, n, n};
  cfg.level_densities = std::move(densities);
  cfg.region_size = 8;
  cfg.seed = 1234;
  return cfg;
}

/// Every valid cell of every level within `eb` of the original.
void expect_amr_bounded(const amr::AmrDataset& orig,
                        const amr::AmrDataset& recon, double eb) {
  ASSERT_EQ(orig.num_levels(), recon.num_levels());
  for (std::size_t l = 0; l < orig.num_levels(); ++l) {
    const auto& ol = orig.level(l);
    const auto& rl = recon.level(l);
    double max_err = 0;
    for (std::size_t i = 0; i < ol.data.size(); ++i) {
      if (!ol.mask[i]) {
        EXPECT_EQ(rl.data[i], 0.0) << "padded cell leaked at level " << l;
        continue;
      }
      max_err = std::max(max_err, std::fabs(ol.data[i] - rl.data[i]));
    }
    EXPECT_LE(max_err, eb) << "level " << l;
  }
}

TEST(StrategySelect, PaperThresholds) {
  EXPECT_EQ(select_strategy(0.10, 0.5, 0.6), Strategy::kOpST);
  EXPECT_EQ(select_strategy(0.49, 0.5, 0.6), Strategy::kOpST);
  EXPECT_EQ(select_strategy(0.50, 0.5, 0.6), Strategy::kAKDTree);
  EXPECT_EQ(select_strategy(0.59, 0.5, 0.6), Strategy::kAKDTree);
  EXPECT_EQ(select_strategy(0.60, 0.5, 0.6), Strategy::kGSP);
  EXPECT_EQ(select_strategy(1.00, 0.5, 0.6), Strategy::kGSP);
}

TEST(Tac, RoundTripWithinBound) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.23, 0.77}));
  const double eb = 1e6;
  TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kAbsolute;
  cfg.sz.error_bound = eb;
  const auto compressed = tac_compress(ds, cfg);
  const auto back = decompress_any(compressed.bytes);
  expect_amr_bounded(ds, back, eb);
  EXPECT_EQ(back.field_name(), ds.field_name());
}

TEST(Tac, StrategiesFollowDensityFilter) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.23, 0.77}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  const auto compressed = tac_compress(ds, cfg);
  ASSERT_EQ(compressed.report.levels.size(), 2u);
  // Fine level ~23% -> OpST; coarse ~77% -> GSP.
  EXPECT_EQ(compressed.report.levels[0].strategy, Strategy::kOpST);
  EXPECT_EQ(compressed.report.levels[1].strategy, Strategy::kGSP);
}

TEST(Tac, MediumDensityUsesAkdTree) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.55, 0.45}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  const auto compressed = tac_compress(ds, cfg);
  EXPECT_EQ(compressed.report.levels[0].strategy, Strategy::kAKDTree);
}

class TacStrategyTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(TacStrategyTest, ForcedStrategyRoundTripsWithinBound) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.4, 0.6}));
  const double eb = 1e6;
  TacConfig cfg;
  cfg.sz.error_bound = eb;
  cfg.force_strategy = GetParam();
  const auto compressed = tac_compress(ds, cfg);
  for (const auto& lr : compressed.report.levels)
    EXPECT_EQ(lr.strategy, GetParam());
  expect_amr_bounded(ds, decompress_any(compressed.bytes), eb);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, TacStrategyTest,
                         ::testing::Values(Strategy::kNaST, Strategy::kOpST,
                                           Strategy::kAKDTree, Strategy::kGSP,
                                           Strategy::kZF),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Tac, RelativeBoundResolvesPerLevel) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kRelative;
  cfg.sz.error_bound = 1e-3;
  const auto compressed = tac_compress(ds, cfg);
  const auto back = decompress_any(compressed.bytes);
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto [lo, hi] = ds.level(l).valid_range();
    const double eb = 1e-3 * (hi - lo);
    EXPECT_NEAR(compressed.report.levels[l].abs_error_bound, eb,
                eb * 1e-9);
    const auto& ol = ds.level(l);
    const auto& rl = back.level(l);
    for (std::size_t i = 0; i < ol.data.size(); ++i) {
      if (ol.mask[i]) {
        EXPECT_LE(std::fabs(ol.data[i] - rl.data[i]), eb);
      }
    }
  }
}

TEST(Tac, PerLevelErrorBounds) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  TacConfig cfg;
  cfg.level_error_bounds = {3e6, 1e6};  // fine 3:1 coarse
  const auto compressed = tac_compress(ds, cfg);
  const auto back = decompress_any(compressed.bytes);
  EXPECT_DOUBLE_EQ(compressed.report.levels[0].abs_error_bound, 3e6);
  EXPECT_DOUBLE_EQ(compressed.report.levels[1].abs_error_bound, 1e6);
  // Each level respects its own bound.
  for (std::size_t l = 0; l < 2; ++l) {
    const auto& ol = ds.level(l);
    const auto& rl = back.level(l);
    for (std::size_t i = 0; i < ol.data.size(); ++i) {
      if (ol.mask[i]) {
        EXPECT_LE(std::fabs(ol.data[i] - rl.data[i]),
                  cfg.level_error_bounds[l]);
      }
    }
  }
}

TEST(Tac, WrongBoundCountRejected) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  TacConfig cfg;
  cfg.level_error_bounds = {1e6};  // dataset has two levels
  EXPECT_THROW((void)tac_compress(ds, cfg), std::invalid_argument);
}

TEST(Tac, ReportAccountsBytes) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  const auto compressed = tac_compress(ds, cfg);
  EXPECT_EQ(compressed.report.compressed_bytes, compressed.bytes.size());
  EXPECT_EQ(compressed.report.original_bytes, ds.original_bytes());
  std::size_t level_bytes = 0;
  for (const auto& lr : compressed.report.levels)
    level_bytes += lr.compressed_bytes;
  EXPECT_LE(level_bytes, compressed.bytes.size());
  EXPECT_GT(analysis::compression_ratio(compressed.report.original_bytes,
                                        compressed.report.compressed_bytes),
            1.0);
}

TEST(Tac, CompressesFarBetterThanRaw) {
  const auto ds = simnyx::generate_baryon_density(
      small_config({0.23, 0.77}, 64));
  TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kRelative;
  cfg.sz.error_bound = 1e-3;
  const auto compressed = tac_compress(ds, cfg);
  const double cr = static_cast<double>(ds.original_bytes()) /
                    static_cast<double>(compressed.bytes.size());
  EXPECT_GT(cr, 5.0);
}

TEST(Tac, FourLevelDatasetRoundTrips) {
  const auto ds = simnyx::generate_baryon_density(
      small_config({0.01, 0.05, 0.2, 0.74}, 64));
  ASSERT_EQ(ds.validate(), "");
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  const auto compressed = tac_compress(ds, cfg);
  expect_amr_bounded(ds, decompress_any(compressed.bytes), 1e6);
}

TEST(Tac, TruncatedContainerThrows) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  auto compressed = tac_compress(ds, cfg);
  compressed.bytes.resize(compressed.bytes.size() / 2);
  EXPECT_THROW((void)decompress_any(compressed.bytes), std::exception);
}

TEST(Adaptive, SparseFinestSelectsTac) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.23, 0.77}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  EXPECT_EQ(adaptive_select(ds, cfg), Method::kTac);
  const auto compressed = adaptive_compress(ds, cfg);
  EXPECT_EQ(compressed.report.method, Method::kTac);
}

TEST(Adaptive, DenseFinestSelects3DBaseline) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.64, 0.36}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  EXPECT_EQ(adaptive_select(ds, cfg), Method::kUpsample3D);
  const auto compressed = adaptive_compress(ds, cfg);
  EXPECT_EQ(compressed.report.method, Method::kUpsample3D);
  expect_amr_bounded(ds, decompress_any(compressed.bytes), 1e6);
}

TEST(Adaptive, RatioBoundsLadder) {
  const auto bounds = ratio_error_bounds(9e6, 3.0, 3);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(bounds[0], 9e6);
  EXPECT_DOUBLE_EQ(bounds[1], 3e6);
  EXPECT_DOUBLE_EQ(bounds[2], 1e6);
  EXPECT_THROW((void)ratio_error_bounds(0.0, 2.0, 2), std::invalid_argument);
}

/// Two levels built to stress the decode invariant: a 128^3 level with
/// only a handful of valid cells, and a 64^3 level whose valid cells are
/// a random half of one box, so the unit blocks the box touches (and the
/// sub-blocks extracted from them) mix valid and invalid cells.
amr::AmrDataset invariant_dataset() {
  std::mt19937 rng(77);
  std::uniform_real_distribution<double> u(1.0, 2.0);
  amr::AmrLevel sparse({128, 128, 128});
  for (const auto& [x, y, z] :
       {std::array<std::size_t, 3>{0, 0, 0}, {1, 0, 0}, {127, 127, 127},
        {64, 3, 90}, {65, 3, 90}, {17, 100, 40}, {18, 101, 41}}) {
    sparse.mask(x, y, z) = 1;
    sparse.data(x, y, z) = u(rng);
  }
  amr::AmrLevel partial({64, 64, 64});
  for (std::size_t z = 5; z < 29; ++z)
    for (std::size_t y = 3; y < 27; ++y)
      for (std::size_t x = 6; x < 30; ++x)
        if (rng() % 2) {
          partial.mask(x, y, z) = 1;
          partial.data(x, y, z) = u(rng);
        }
  return amr::AmrDataset("invariant",
                         {std::move(sparse), std::move(partial)});
}

bool same_bits(const Array3D<double>& a, const Array3D<double>& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The decode invariant for one container of `ds`: every valid cell of
/// level l within `eb(l)`, every invalid cell +0.0 bits, and
/// `decompress_level(l)` bit-identical to the full decode.
void expect_decode_invariant(const amr::AmrDataset& ds,
                             std::span<const std::uint8_t> bytes,
                             const std::function<double(std::size_t)>& eb) {
  const auto full = decompress_any(bytes);
  ASSERT_EQ(full.num_levels(), ds.num_levels());
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto& ol = ds.level(l);
    const auto& rl = full.level(l);
    ASSERT_EQ(rl.mask, ol.mask) << "level " << l;
    std::size_t not_zero = 0;
    double max_err = 0;
    for (std::size_t i = 0; i < ol.data.size(); ++i) {
      if (ol.mask[i])
        max_err = std::max(max_err, std::fabs(ol.data[i] - rl.data[i]));
      else if (std::bit_cast<std::uint64_t>(rl.data[i]) != 0)
        ++not_zero;
    }
    EXPECT_EQ(not_zero, 0u) << "invalid cells not +0.0 at level " << l;
    EXPECT_LE(max_err, eb(l)) << "level " << l;

    const auto one = decompress_level(bytes, l);
    EXPECT_EQ(one.mask, rl.mask) << "level " << l;
    EXPECT_TRUE(same_bits(one.data, rl.data)) << "level " << l;
  }
}

/// One invariant sweep: every level-capable backend (the five forced TAC
/// strategies, 1D, and `auto` restricted to {TAC}, to {1D} and with the
/// default candidates) under absolute, relative and per-level bounds in
/// both codec profiles. Each container must decode every valid cell
/// within the level's resolved bound and every invalid cell as +0.0 bits,
/// and `decompress_level(k)` must be bit-identical to the full decode.
TEST(DecodeInvariant, InvalidCellsArePositiveZeroAndLevelReadsMatch) {
  const auto ds = invariant_dataset();
  struct Case {
    std::string name;
    Method method = Method::kTac;
    TacConfig cfg;
  };
  std::vector<Case> cases;
  for (const char* bound : {"abs", "rel", "per-level"})
    for (const auto profile :
         {lossless::CodecProfile::kLegacy, lossless::CodecProfile::kFast}) {
      TacConfig cfg;
      cfg.sz.profile = profile;
      cfg.sz.mode = sz::ErrorBoundMode::kAbsolute;
      cfg.sz.error_bound = 1e-3;
      if (std::string(bound) == "rel") {
        cfg.sz.mode = sz::ErrorBoundMode::kRelative;
        cfg.sz.error_bound = 2e-3;
      } else if (std::string(bound) == "per-level") {
        // A loose global bound: only the per-level entries keep the
        // error small, so a backend that ignores them fails the sweep.
        cfg.sz.error_bound = 0.5;
        cfg.level_error_bounds = {5e-4, 2e-3};
      }
      const std::string tag =
          std::string(bound) + "/" + lossless::to_string(profile) + "/";
      for (const Strategy s : {Strategy::kNaST, Strategy::kOpST,
                               Strategy::kAKDTree, Strategy::kGSP,
                               Strategy::kZF}) {
        Case c{tag + to_string(s), Method::kTac, cfg};
        c.cfg.force_strategy = s;
        cases.push_back(c);
      }
      cases.push_back({tag + "1D", Method::kOneD, cfg});
      for (const auto& [name, candidates] :
           {std::pair<const char*, std::vector<Method>>{"auto{TAC}",
                                                        {Method::kTac}},
            {"auto{1D}", {Method::kOneD}},
            {"auto", {}}}) {
        Case c{tag + name, Method::kAuto, cfg};
        c.cfg.selector.candidates = candidates;
        cases.push_back(c);
      }
    }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto bytes = backend_for(c.method).compress(ds, c.cfg).bytes;
    expect_decode_invariant(ds, bytes, [&](std::size_t l) {
      if (!c.cfg.level_error_bounds.empty())
        return c.cfg.level_error_bounds[l];
      if (c.cfg.sz.mode != sz::ErrorBoundMode::kRelative)
        return c.cfg.sz.error_bound;
      const auto [lo, hi] = ds.level(l).valid_range();
      return c.cfg.sz.error_bound * (hi - lo);
    });
  }
}

/// zMesh and 3D compress the whole dataset as one stream, so they need
/// levels that partition the domain (invariant_dataset's do not), and a
/// relative bound resolves against the value range of every level
/// together.
TEST(DecodeInvariant, ZMeshAnd3DHoldTheBoundOnAPartitionedDomain) {
  const auto ds = test::golden_dataset();
  double lo = 0;
  double hi = 0;
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto [llo, lhi] = ds.level(l).valid_range();
    lo = l == 0 ? llo : std::min(lo, llo);
    hi = l == 0 ? lhi : std::max(hi, lhi);
  }
  for (const Method m : {Method::kZMesh, Method::kUpsample3D})
    for (const auto mode :
         {sz::ErrorBoundMode::kAbsolute, sz::ErrorBoundMode::kRelative})
      for (const auto profile :
           {lossless::CodecProfile::kLegacy, lossless::CodecProfile::kFast}) {
        TacConfig cfg;
        cfg.sz.profile = profile;
        cfg.sz.mode = mode;
        cfg.sz.error_bound =
            mode == sz::ErrorBoundMode::kRelative ? 2e-3 : 1e-2;
        const double eb = mode == sz::ErrorBoundMode::kRelative
                              ? cfg.sz.error_bound * (hi - lo)
                              : cfg.sz.error_bound;
        SCOPED_TRACE(testing::Message()
                     << to_string(m) << "/"
                     << (mode == sz::ErrorBoundMode::kRelative ? "rel" : "abs")
                     << "/" << lossless::to_string(profile));
        const auto bytes = backend_for(m).compress(ds, cfg).bytes;
        expect_decode_invariant(ds, bytes, [&](std::size_t) { return eb; });
      }
}

TEST(Container, MethodSniffing) {
  const auto ds = simnyx::generate_baryon_density(small_config({0.3, 0.7}));
  TacConfig cfg;
  cfg.sz.error_bound = 1e6;
  EXPECT_EQ(peek_method(tac_compress(ds, cfg).bytes), Method::kTac);
  EXPECT_EQ(peek_method(oned_compress(ds, cfg.sz).bytes), Method::kOneD);
  EXPECT_EQ(peek_method(zmesh_compress(ds, cfg.sz).bytes), Method::kZMesh);
  EXPECT_EQ(peek_method(upsample3d_compress(ds, cfg.sz).bytes),
            Method::kUpsample3D);
}

}  // namespace
}  // namespace tac::core
