#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "core/block_grid.hpp"
#include "core/extraction.hpp"

namespace tac::core {
namespace {

Array3D<std::uint8_t> random_occupancy(Dims3 d, double density,
                                       unsigned seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution occupied(density);
  Array3D<std::uint8_t> occ(d);
  for (std::size_t i = 0; i < occ.size(); ++i) occ[i] = occupied(rng) ? 1 : 0;
  return occ;
}

/// Brute-force reference for the OpST DP: largest full cube with far
/// corner at (x, y, z).
std::size_t brute_force_max_cube(const Array3D<std::uint8_t>& occ,
                                 std::size_t x, std::size_t y,
                                 std::size_t z) {
  if (!occ(x, y, z)) return 0;
  std::size_t best = 0;
  for (std::size_t s = 1; s <= std::min({x, y, z}) + 1; ++s) {
    bool full = true;
    for (std::size_t k = z + 1 - s; k <= z && full; ++k)
      for (std::size_t j = y + 1 - s; j <= y && full; ++j)
        for (std::size_t i = x + 1 - s; i <= x; ++i)
          if (!occ(i, j, k)) {
            full = false;
            break;
          }
    if (!full) break;
    best = s;
  }
  return best;
}

TEST(BlockGrid, ClipsEdgeBlocks) {
  const BlockGrid grid({10, 8, 8}, 4);
  EXPECT_EQ(grid.block_dims(), (Dims3{3, 2, 2}));
  const Box3 edge = grid.block_box(2, 0, 0);
  EXPECT_EQ(edge.x0, 8u);
  EXPECT_EQ(edge.x1, 10u);  // clipped from 12
}

TEST(BlockGrid, OccupancyDetectsAnyValidCell) {
  amr::AmrLevel lv({8, 8, 8});
  lv.mask(5, 1, 1) = 1;  // one valid cell in block (1,0,0)
  const BlockGrid grid(lv.dims(), 4);
  const auto occ = block_occupancy(lv, grid);
  EXPECT_EQ(occ(1, 0, 0), 1);
  EXPECT_EQ(occ(0, 0, 0), 0);
  EXPECT_DOUBLE_EQ(occupancy_density(occ), 1.0 / 8.0);
}

TEST(Nast, ListsExactlyOccupiedBlocks) {
  const auto occ = random_occupancy({6, 6, 6}, 0.3, 1);
  const auto subs = nast_extract(occ);
  EXPECT_TRUE(covers_exactly(occ, subs));
  for (const auto& sb : subs) {
    EXPECT_EQ(sb.sx, 1u);
    EXPECT_EQ(sb.sy, 1u);
    EXPECT_EQ(sb.sz, 1u);
  }
}

TEST(Opst, DpMatchesBruteForceOnFullGrid) {
  Array3D<std::uint8_t> occ({4, 4, 4}, 1);
  const auto subs = opst_extract(occ);
  // A fully occupied 4^3 grid extracts a single 4^3 cube.
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0], (SubBlock{0, 0, 0, 4, 4, 4}));
}

TEST(Opst, ExtractsLargestCubeFirst) {
  // An 8^3 grid fully occupied except one corner block: the far 4^3+ cube
  // must come out large, not as unit blocks.
  Array3D<std::uint8_t> occ({8, 8, 8}, 1);
  occ(0, 0, 0) = 0;
  const auto subs = opst_extract(occ);
  EXPECT_TRUE(covers_exactly(occ, subs));
  std::size_t largest = 0;
  for (const auto& sb : subs) largest = std::max(largest, sb.sx);
  EXPECT_GE(largest, 4u);
}

TEST(Opst, CoversRandomOccupancies) {
  for (unsigned seed = 0; seed < 5; ++seed) {
    for (const double density : {0.1, 0.5, 0.9}) {
      const auto occ = random_occupancy({10, 10, 10}, density, seed);
      const auto subs = opst_extract(occ);
      EXPECT_TRUE(covers_exactly(occ, subs))
          << "density " << density << " seed " << seed;
      for (const auto& sb : subs) {
        EXPECT_EQ(sb.sx, sb.sy);  // OpST extracts cubes
        EXPECT_EQ(sb.sy, sb.sz);
      }
    }
  }
}

TEST(Opst, ProducesFewerBlocksThanNast) {
  // Clustered occupancy: one solid 6^3 cluster in a 12^3 grid.
  Array3D<std::uint8_t> occ({12, 12, 12}, 0);
  for (std::size_t z = 2; z < 8; ++z)
    for (std::size_t y = 2; y < 8; ++y)
      for (std::size_t x = 2; x < 8; ++x) occ(x, y, z) = 1;
  const auto nast = nast_extract(occ);
  const auto opst = opst_extract(occ);
  EXPECT_TRUE(covers_exactly(occ, opst));
  EXPECT_EQ(nast.size(), 216u);
  EXPECT_LT(opst.size(), 40u);  // one 6^3 cube + fragments at worst
}

TEST(Opst, EmptyGridYieldsNothing) {
  Array3D<std::uint8_t> occ({5, 5, 5}, 0);
  EXPECT_TRUE(opst_extract(occ).empty());
}

TEST(Opst, DpInitializationMatchesBruteForce) {
  // Validate the DP recurrence itself against brute force on random grids
  // by extracting from a grid where every block is its own corner: compare
  // the first extraction (bottom-right-most occupied corner) cube size.
  for (unsigned seed = 10; seed < 14; ++seed) {
    const auto occ = random_occupancy({7, 7, 7}, 0.6, seed);
    const auto subs = opst_extract(occ);
    ASSERT_TRUE(covers_exactly(occ, subs));
    if (subs.empty()) continue;
    // First extracted sub-block corresponds to the last occupied block in
    // raster order; its size must equal the brute-force max cube there.
    const SubBlock& first = subs.front();
    const std::size_t x = first.bx + first.sx - 1;
    const std::size_t y = first.by + first.sy - 1;
    const std::size_t z = first.bz + first.sz - 1;
    EXPECT_EQ(first.sx, brute_force_max_cube(occ, x, y, z));
  }
}

TEST(Akd, FullGridIsOneLeaf) {
  Array3D<std::uint8_t> occ({8, 8, 8}, 1);
  const auto subs = akdtree_extract(occ);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0], (SubBlock{0, 0, 0, 8, 8, 8}));
}

TEST(Akd, EmptyGridYieldsNothing) {
  Array3D<std::uint8_t> occ({8, 8, 8}, 0);
  EXPECT_TRUE(akdtree_extract(occ).empty());
}

TEST(Akd, HalfFullGridSplitsCleanly) {
  // Left half occupied: the maxDiff criterion should find the x split and
  // emit one big leaf.
  Array3D<std::uint8_t> occ({8, 8, 8}, 0);
  for (std::size_t z = 0; z < 8; ++z)
    for (std::size_t y = 0; y < 8; ++y)
      for (std::size_t x = 0; x < 4; ++x) occ(x, y, z) = 1;
  const auto subs = akdtree_extract(occ);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0], (SubBlock{0, 0, 0, 4, 8, 8}));
}

TEST(Akd, CoversRandomOccupancies) {
  for (unsigned seed = 0; seed < 5; ++seed) {
    for (const double density : {0.05, 0.3, 0.7, 0.95}) {
      const auto occ = random_occupancy({16, 16, 16}, density, seed + 100);
      const auto subs = akdtree_extract(occ);
      EXPECT_TRUE(covers_exactly(occ, subs))
          << "density " << density << " seed " << seed;
    }
  }
}

TEST(Akd, HandlesNonPowerOfTwoAndAnisotropic) {
  const auto occ = random_occupancy({7, 13, 5}, 0.4, 3);
  const auto subs = akdtree_extract(occ);
  EXPECT_TRUE(covers_exactly(occ, subs));
}

TEST(Akd, AdaptiveBeatsNaiveOnSlabData) {
  // A full 8x8x2 slab inside an 8^3 grid: the maxDiff split peels the
  // empty half off immediately, and the cube->flat->slim shape cycle then
  // carves the slab into a handful of large leaves — far fewer than the
  // 128 unit blocks NaST would emit.
  Array3D<std::uint8_t> occ({8, 8, 8}, 0);
  for (std::size_t y = 0; y < 8; ++y)
    for (std::size_t x = 0; x < 8; ++x) {
      occ(x, y, 0) = 1;
      occ(x, y, 1) = 1;
    }
  const auto subs = akdtree_extract(occ);
  EXPECT_TRUE(covers_exactly(occ, subs));
  EXPECT_LE(subs.size(), 4u);
  EXPECT_EQ(nast_extract(occ).size(), 128u);
}

TEST(GatherScatter, RoundTripsLevelData) {
  amr::AmrLevel lv({16, 16, 16});
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> u(1, 2);
  // Valid cells in two clusters.
  for (std::size_t z = 0; z < 8; ++z)
    for (std::size_t y = 0; y < 8; ++y)
      for (std::size_t x = 0; x < 8; ++x) {
        lv.mask(x, y, z) = 1;
        lv.data(x, y, z) = u(rng);
        lv.mask(x + 8, y + 8, z + 8) = 1;
        lv.data(x + 8, y + 8, z + 8) = u(rng);
      }
  const BlockGrid grid(lv.dims(), 4);
  const auto occ = block_occupancy(lv, grid);
  const auto subs = opst_extract(occ);
  tac::ArenaScope scratch;
  const auto groups = gather_groups(lv, grid, subs, scratch);

  amr::AmrLevel out({16, 16, 16});
  out.mask = lv.mask;
  scatter_groups(out, grid, groups);
  EXPECT_EQ(out.data, lv.data);
}

TEST(GatherScatter, ClippedEdgeBlocksRoundTrip) {
  // 10^3 level with block size 4: edge blocks are clipped to 2 cells.
  amr::AmrLevel lv({10, 10, 10});
  std::mt19937 rng(6);
  std::uniform_real_distribution<double> u(1, 2);
  for (std::size_t i = 0; i < lv.mask.size(); ++i) {
    lv.mask[i] = 1;
    lv.data[i] = u(rng);
  }
  const BlockGrid grid(lv.dims(), 4);
  const auto occ = block_occupancy(lv, grid);
  using Extractor = std::vector<SubBlock> (*)(const Array3D<std::uint8_t>&);
  for (const Extractor extract :
       {Extractor{&nast_extract}, Extractor{&opst_extract},
        Extractor{&akdtree_extract}}) {
    const auto subs = (*extract)(occ);
    ASSERT_TRUE(covers_exactly(occ, subs));
    tac::ArenaScope scratch;
  const auto groups = gather_groups(lv, grid, subs, scratch);
    amr::AmrLevel out({10, 10, 10});
    out.mask = lv.mask;
    scatter_groups(out, grid, groups);
    EXPECT_EQ(out.data, lv.data);
  }
}

TEST(GatherScatter, WritesOnlyInsideSubBlocksAndMasksThem) {
  // Valid cells are every other cell of one 8^3 corner; the rest of the
  // 16^3 level is outside every sub-block.
  amr::AmrLevel lv({16, 16, 16});
  for (std::size_t z = 0; z < 8; ++z)
    for (std::size_t y = 0; y < 8; ++y)
      for (std::size_t x = 0; x < 8; ++x)
        if ((x + y + z) % 2 == 0) {
          lv.mask(x, y, z) = 1;
          lv.data(x, y, z) = 1.0 + static_cast<double>(x + y + z);
        }
  const BlockGrid grid(lv.dims(), 4);
  const auto occ = block_occupancy(lv, grid);
  const auto subs = opst_extract(occ);
  tac::ArenaScope scratch;
  auto groups = gather_groups(lv, grid, subs, scratch);
  // Stand-in for lossy padding: invalid cells inside the decoded blocks
  // come back nonzero and must not reach the level.
  for (auto& g : groups)
    for (double& v : g.buffer)
      if (v == 0.0) v = 42.0;

  const double sentinel = -3.25;
  amr::AmrLevel out;
  out.mask = lv.mask;
  out.data = Array3D<double>(lv.dims(), sentinel);
  scatter_groups(out, grid, groups);
  for (std::size_t z = 0; z < 16; ++z)
    for (std::size_t y = 0; y < 16; ++y)
      for (std::size_t x = 0; x < 16; ++x) {
        const bool inside = x < 8 && y < 8 && z < 8;
        const double got = out.data(x, y, z);
        if (!inside)
          ASSERT_EQ(got, sentinel) << x << "," << y << "," << z;
        else if (lv.mask(x, y, z))
          ASSERT_EQ(got, lv.data(x, y, z)) << x << "," << y << "," << z;
        else
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got), 0u)
              << x << "," << y << "," << z;
      }
}

TEST(GatherScatter, GroupsMergeEqualExtents) {
  const auto occ = random_occupancy({8, 8, 8}, 0.4, 9);
  amr::AmrLevel lv({32, 32, 32});
  for (std::size_t i = 0; i < lv.mask.size(); ++i) lv.mask[i] = 1;
  const auto subs = nast_extract(occ);
  const BlockGrid grid(lv.dims(), 4);
  tac::ArenaScope scratch;
  const auto groups = gather_groups(lv, grid, subs, scratch);
  // NaST blocks are all 1x1x1 -> exactly one group holding all members.
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members.size(), subs.size());
  EXPECT_EQ(groups[0].buffer.size(),
            subs.size() * groups[0].block_cell_dims.volume());
}

struct ExtractorCase {
  const char* name;
  std::vector<SubBlock> (*extract)(const Array3D<std::uint8_t>&);
};

class ExtractorPropertyTest : public ::testing::TestWithParam<
                                  std::tuple<ExtractorCase, double>> {};

TEST_P(ExtractorPropertyTest, CoverageHoldsAcrossDensities) {
  const auto& [extractor, density] = GetParam();
  for (unsigned seed = 0; seed < 3; ++seed) {
    const auto occ = random_occupancy({12, 12, 12}, density, seed * 7 + 1);
    const auto subs = extractor.extract(occ);
    EXPECT_TRUE(covers_exactly(occ, subs)) << extractor.name;
  }
}

std::string extractor_case_name(
    const ::testing::TestParamInfo<std::tuple<ExtractorCase, double>>& info) {
  return std::string(std::get<0>(info.param).name) + "_d" +
         std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
}

INSTANTIATE_TEST_SUITE_P(
    AllExtractors, ExtractorPropertyTest,
    ::testing::Combine(
        ::testing::Values(ExtractorCase{"nast", &nast_extract},
                          ExtractorCase{"opst", &opst_extract},
                          ExtractorCase{"akd", &akdtree_extract}),
        ::testing::Values(0.0, 0.02, 0.23, 0.5, 0.77, 0.99, 1.0)),
    extractor_case_name);

}  // namespace
}  // namespace tac::core
