#ifndef TAC_TESTS_GOLDEN_DATASET_HPP
#define TAC_TESTS_GOLDEN_DATASET_HPP

/// \file golden_dataset.hpp
/// \brief A small AMR dataset whose levels partition the domain, shared
/// by the tests that need every backend (zMesh and 3D included) to accept
/// it.

#include <cstddef>
#include <utility>
#include <vector>

#include "amr/dataset.hpp"

namespace tac::test {

/// Three levels (finest first, ratio 2) that partition a 32^3 domain: the
/// finest level owns the fine cells under a refined set of level-1 cells
/// (whole unit blocks plus a ragged corner, about a third of the blocks),
/// level 1 owns the rest of that set's level-2 parents, and level 2
/// everything else. The finest level is a smooth polynomial (TAC picks
/// OpST and wins it under `auto`); the coarse levels add a saw-tooth term
/// that favours the 1D stream, so the `auto` containers mix both methods.
inline amr::AmrDataset golden_dataset() {
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

}  // namespace tac::test

#endif  // TAC_TESTS_GOLDEN_DATASET_HPP
