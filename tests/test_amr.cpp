#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <limits>
#include <random>

#include "amr/amr_io.hpp"
#include "amr/dataset.hpp"
#include "amr/uniform.hpp"

namespace tac::amr {
namespace {

/// Two-level dataset: an aligned box of the domain refined to the fine
/// level, the rest stored coarse. Region is given in coarse cells.
AmrDataset make_two_level(Dims3 fine_dims, Box3 refined_coarse,
                          unsigned seed = 7) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(1.0, 2.0);
  const Dims3 coarse_dims{fine_dims.nx / 2, fine_dims.ny / 2,
                          fine_dims.nz / 2};
  AmrLevel fine(fine_dims);
  AmrLevel coarse(coarse_dims);
  for (std::size_t z = 0; z < coarse_dims.nz; ++z)
    for (std::size_t y = 0; y < coarse_dims.ny; ++y)
      for (std::size_t x = 0; x < coarse_dims.nx; ++x) {
        if (refined_coarse.contains(x, y, z)) {
          for (std::size_t dz = 0; dz < 2; ++dz)
            for (std::size_t dy = 0; dy < 2; ++dy)
              for (std::size_t dx = 0; dx < 2; ++dx) {
                fine.mask(2 * x + dx, 2 * y + dy, 2 * z + dz) = 1;
                fine.data(2 * x + dx, 2 * y + dy, 2 * z + dz) = u(rng);
              }
        } else {
          coarse.mask(x, y, z) = 1;
          coarse.data(x, y, z) = u(rng);
        }
      }
  return AmrDataset("test_field", {std::move(fine), std::move(coarse)});
}

/// True iff every cell of `a` holds exactly the bits of `v`.
bool all_bits(const Array3D<double>& a, double v) {
  const auto want = std::bit_cast<std::uint64_t>(v);
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != want) return false;
  return true;
}

TEST(Array3D, DefaultConstructedCellsAreZeroBits) {
  // Small grids come from the heap, >= 64 MiB ones from fresh mmap pages.
  // Each size is allocated, dirtied and freed first, so the second
  // allocation can reuse the memory and still has to read as +0.0.
  for (const Dims3 d : {Dims3{5, 3, 2}, Dims3{64, 64, 64},
                        Dims3{256, 256, 128}}) {
    { Array3D<double> dirty(d, 1.5); }
    const Array3D<double> a(d);
    EXPECT_EQ(a.size(), d.volume());
    EXPECT_TRUE(all_bits(a, 0.0)) << d;
  }
}

TEST(Array3D, ExplicitFillsAreBitExact) {
  const Dims3 d{7, 5, 3};
  EXPECT_TRUE(all_bits(Array3D<double>(d, -0.0), -0.0));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(all_bits(Array3D<double>(d, nan), nan));
  EXPECT_TRUE(all_bits(Array3D<double>(d, 0.0), 0.0));
  EXPECT_TRUE(all_bits(Array3D<double>(d, 2.5), 2.5));
  const Array3D<std::uint8_t> ones(d, 1);
  for (std::size_t i = 0; i < ones.size(); ++i) ASSERT_EQ(ones[i], 1);
}

TEST(Array3D, CopyMoveAndEqualityKeepValues) {
  Array3D<double> a({4, 3, 2});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = 0.5 * static_cast<double>(i);
  Array3D<double> copy = a;
  EXPECT_EQ(copy, a);
  EXPECT_NE(copy.data(), a.data());
  copy(1, 1, 1) = -7.0;
  EXPECT_NE(copy, a);
  EXPECT_EQ(a(1, 1, 1), 0.5 * static_cast<double>(a.dims().index(1, 1, 1)));

  const double* storage = a.data();
  Array3D<double> moved = std::move(a);
  EXPECT_EQ(moved.data(), storage);
  EXPECT_EQ(moved.dims(), (Dims3{4, 3, 2}));

  copy = moved;  // copy-assign over an existing array
  EXPECT_EQ(copy, moved);
  // Same values under different dims are different arrays.
  EXPECT_NE(Array3D<double>({2, 3, 4}), Array3D<double>({4, 3, 2}));
  EXPECT_EQ(Array3D<double>({2, 3, 4}), Array3D<double>({2, 3, 4}, 0.0));
}

TEST(AmrLevel, DensityCountsValidCells) {
  AmrLevel lv({4, 4, 4});
  EXPECT_EQ(lv.valid_count(), 0u);
  EXPECT_DOUBLE_EQ(lv.density(), 0.0);
  for (std::size_t i = 0; i < 16; ++i) lv.mask[i] = 1;
  EXPECT_EQ(lv.valid_count(), 16u);
  EXPECT_DOUBLE_EQ(lv.density(), 0.25);
}

TEST(AmrLevel, GatherScatterRoundTrip) {
  AmrLevel lv({4, 4, 2});
  std::mt19937 rng(1);
  std::uniform_real_distribution<double> u(0, 1);
  for (std::size_t i = 0; i < lv.mask.size(); ++i) {
    lv.mask[i] = (i % 3 == 0) ? 1 : 0;
    lv.data[i] = lv.mask[i] ? u(rng) : 0.0;
  }
  const auto values = lv.gather_valid();
  EXPECT_EQ(values.size(), lv.valid_count());
  AmrLevel lv2({4, 4, 2});
  lv2.mask = lv.mask;
  lv2.scatter_valid(values);
  EXPECT_EQ(lv2.data, lv.data);
}

TEST(AmrLevel, ScatterResetsInvalidCellsToPositiveZero) {
  AmrLevel lv({3, 2, 1});
  lv.mask[1] = 1;
  lv.mask[4] = 1;
  lv.data[0] = -0.0;
  lv.data[2] = std::numeric_limits<double>::quiet_NaN();
  lv.data[3] = 9.0;
  lv.scatter_valid(std::vector<double>{1.0, 2.0});
  EXPECT_EQ(lv.data[1], 1.0);
  EXPECT_EQ(lv.data[4], 2.0);
  for (const std::size_t i : {0u, 2u, 3u, 5u})
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lv.data[i]), 0u) << i;
}

TEST(AmrLevel, ScatterRejectsWrongCount) {
  AmrLevel lv({2, 2, 1});
  lv.mask(0, 0, 0) = 1;
  EXPECT_THROW(lv.scatter_valid(std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW(lv.scatter_valid(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(AmrLevel, ValidRangeIgnoresEmptyCells) {
  AmrLevel lv({2, 2, 1});
  lv.data(0, 0, 0) = -100.0;  // invalid cell: ignored
  lv.mask(1, 0, 0) = 1;
  lv.data(1, 0, 0) = 3.0;
  lv.mask(0, 1, 0) = 1;
  lv.data(0, 1, 0) = 7.0;
  const auto [lo, hi] = lv.valid_range();
  EXPECT_DOUBLE_EQ(lo, 3.0);
  EXPECT_DOUBLE_EQ(hi, 7.0);
}

TEST(AmrDataset, ValidPartitionPasses) {
  const auto ds = make_two_level({16, 16, 16}, Box3{0, 0, 0, 4, 4, 4});
  EXPECT_EQ(ds.validate(), "");
}

TEST(AmrDataset, OverlapDetected) {
  auto ds = make_two_level({16, 16, 16}, Box3{0, 0, 0, 4, 4, 4});
  // Mark a coarse cell valid whose region is already refined.
  ds.level(1).mask(0, 0, 0) = 1;
  EXPECT_NE(ds.validate(), "");
}

TEST(AmrDataset, HoleDetected) {
  auto ds = make_two_level({16, 16, 16}, Box3{0, 0, 0, 4, 4, 4});
  ds.level(1).mask(7, 7, 7) = 0;
  EXPECT_NE(ds.validate(), "");
}

TEST(AmrDataset, WrongLevelDimsDetected) {
  auto ds = make_two_level({16, 16, 16}, Box3{0, 0, 0, 4, 4, 4});
  std::vector<AmrLevel> levels;
  levels.push_back(std::move(ds.level(0)));
  levels.emplace_back(Dims3{5, 8, 8});  // not finest/2
  const AmrDataset bad("x", std::move(levels));
  EXPECT_NE(bad.validate(), "");
}

TEST(AmrDataset, TotalValidSumsLevels) {
  const auto ds = make_two_level({16, 16, 16}, Box3{0, 0, 0, 4, 4, 4});
  EXPECT_EQ(ds.total_valid(),
            ds.level(0).valid_count() + ds.level(1).valid_count());
  EXPECT_EQ(ds.original_bytes(), ds.total_valid() * sizeof(double));
}

TEST(Uniform, ComposeReplicatesCoarseValues) {
  const auto ds = make_two_level({8, 8, 8}, Box3{0, 0, 0, 2, 2, 2});
  const auto uni = compose_uniform(ds);
  EXPECT_EQ(uni.dims(), ds.finest_dims());
  // Fine region: exact fine values.
  EXPECT_DOUBLE_EQ(uni(0, 0, 0), ds.level(0).data(0, 0, 0));
  // Coarse region: each coarse value replicated 2x2x2.
  const double c = ds.level(1).data(3, 3, 3);
  for (std::size_t dz = 0; dz < 2; ++dz)
    for (std::size_t dy = 0; dy < 2; ++dy)
      for (std::size_t dx = 0; dx < 2; ++dx)
        EXPECT_DOUBLE_EQ(uni(6 + dx, 6 + dy, 6 + dz), c);
}

TEST(Uniform, DistributeInvertsCompose) {
  const auto ds = make_two_level({8, 8, 8}, Box3{1, 1, 1, 3, 3, 3});
  const auto uni = compose_uniform(ds);
  auto copy = ds;
  for (auto& lv : copy.levels()) lv.data.fill(0.0);
  distribute_uniform(uni, copy);
  for (std::size_t l = 0; l < ds.num_levels(); ++l)
    EXPECT_EQ(copy.level(l).data, ds.level(l).data) << "level " << l;
}

TEST(Uniform, UpsampleFactors) {
  Array3D<double> coarse({2, 2, 2});
  for (std::size_t i = 0; i < coarse.size(); ++i)
    coarse[i] = static_cast<double>(i);
  const auto fine = upsample(coarse, {4, 4, 4});
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y)
      for (std::size_t x = 0; x < 4; ++x)
        EXPECT_DOUBLE_EQ(fine(x, y, z), coarse(x / 2, y / 2, z / 2));
}

TEST(Uniform, UpsampleRejectsNonMultiple) {
  Array3D<double> coarse({3, 3, 3});
  EXPECT_THROW((void)upsample(coarse, {7, 6, 6}), std::invalid_argument);
}

TEST(AmrIo, BytesRoundTrip) {
  const auto ds = make_two_level({16, 16, 16}, Box3{2, 2, 2, 6, 6, 6});
  const auto bytes = dataset_to_bytes(ds);
  const auto back = dataset_from_bytes(bytes);
  EXPECT_EQ(back.field_name(), ds.field_name());
  EXPECT_EQ(back.num_levels(), ds.num_levels());
  EXPECT_EQ(back.refinement_ratio(), ds.refinement_ratio());
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    EXPECT_EQ(back.level(l).mask, ds.level(l).mask);
    EXPECT_EQ(back.level(l).data, ds.level(l).data);
  }
}

TEST(AmrIo, FileRoundTrip) {
  const auto ds = make_two_level({8, 8, 8}, Box3{0, 0, 0, 2, 2, 2});
  const std::string path = ::testing::TempDir() + "/tac_amr_io_test.bin";
  save_dataset(path, ds);
  const auto back = load_dataset(path);
  EXPECT_EQ(back.level(0).data, ds.level(0).data);
  EXPECT_EQ(back.level(1).mask, ds.level(1).mask);
  std::remove(path.c_str());
}

TEST(AmrIo, CorruptMagicRejected) {
  const auto ds = make_two_level({8, 8, 8}, Box3{0, 0, 0, 2, 2, 2});
  auto bytes = dataset_to_bytes(ds);
  bytes[0] ^= 0xFF;
  EXPECT_THROW((void)dataset_from_bytes(bytes), std::runtime_error);
}

TEST(MaskPack, RoundTripOddSizes) {
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
    std::vector<std::uint8_t> mask(n);
    std::mt19937 rng(static_cast<unsigned>(n));
    for (auto& m : mask) m = rng() % 2;
    const auto packed = pack_mask(mask);
    EXPECT_EQ(packed.size(), (n + 7) / 8);
    EXPECT_EQ(packed_mask_bytes(n), packed.size());
    std::vector<std::uint8_t> back(n, 7);
    unpack_mask_into(packed, back);
    EXPECT_EQ(back, mask);
  }
}

TEST(MaskPack, UnpackRejectsShortInput) {
  std::vector<std::uint8_t> out(17);
  EXPECT_THROW(unpack_mask_into(std::vector<std::uint8_t>(2), out),
               std::runtime_error);
}

}  // namespace
}  // namespace tac::amr
