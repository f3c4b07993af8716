#ifndef TAC_CORE_EXTRACTION_HPP
#define TAC_CORE_EXTRACTION_HPP

/// \file extraction.hpp
/// \brief The three sparse extraction algorithms (NaST, OpST, AKDTree) and
/// the gather/scatter between level grids and compression buffers.
///
/// Every extractor consumes the unit-block occupancy of a level and
/// returns a set of disjoint rectangular sub-blocks that exactly covers
/// the non-empty unit blocks. Sub-blocks of equal extents are then merged
/// into one buffer ("4D array") and compressed as a batch.

#include <span>
#include <vector>

#include "amr/dataset.hpp"
#include "common/arena.hpp"
#include "common/array3d.hpp"
#include "core/block_grid.hpp"

namespace tac::core {

/// Naive sparse tensor (paper §3.1, NaST): every non-empty unit block is
/// its own 1x1x1 sub-block.
[[nodiscard]] std::vector<SubBlock> nast_extract(
    const Array3D<std::uint8_t>& occupancy);

/// Optimized sparse tensor (paper §3.1, OpST / Algorithm 1): dynamic
/// programming computes, per unit block, the side of the largest full cube
/// ending there; cubes are extracted greedily from the bottom-right-rear
/// corner with maxSide-bounded partial recomputation of the DP table.
[[nodiscard]] std::vector<SubBlock> opst_extract(
    const Array3D<std::uint8_t>& occupancy);

/// Adaptive k-d tree (paper §3.2, AKDTree / Algorithm 2): recursive
/// splitting cube -> flat -> slim, choosing the axis that maximizes the
/// occupancy difference between the two children; leaves are empty or full.
/// Counts come from a summed-area table (O(1) per node), which plays the
/// role of the paper's reuse-counts-every-three-levels optimization.
[[nodiscard]] std::vector<SubBlock> akdtree_extract(
    const Array3D<std::uint8_t>& occupancy);

/// Equal-extent sub-blocks merged into one contiguous buffer.
///
/// `buffer` (members.size() * block_cell_dims.volume() cells) is a view:
/// on the encode path it points into the caller's ArenaScope so the level
/// pipeline reuses scratch instead of heap-allocating per group; on the
/// decode path it views `owned`, which holds the decompressed values.
struct BlockGroup {
  Dims3 block_cell_dims;          ///< extents of one sub-block, in cells
  std::vector<SubBlock> members;  ///< placement metadata
  std::span<double> buffer;
  std::vector<double> owned;      ///< decode-side backing store for buffer
};

/// Gathers sub-block cell data from the level into per-extent groups.
/// Cells past the level boundary (clipped edge blocks) read as 0. Group
/// buffers are allocated from `scratch` and stay valid until it closes.
[[nodiscard]] std::vector<BlockGroup> gather_groups(
    const amr::AmrLevel& level, const BlockGrid& grid,
    const std::vector<SubBlock>& sub_blocks, ArenaScope& scratch);

/// Scatters decompressed group buffers back into the level's data array,
/// applying the mask as it goes: a covered cell gets its decoded value if
/// valid and +0.0 if not. Cells past the level boundary are skipped, and
/// cells outside every sub-block are never touched — on a freshly
/// allocated level they stay untouched zero pages.
void scatter_groups(amr::AmrLevel& level, const BlockGrid& grid,
                    const std::vector<BlockGroup>& groups);

/// Validation helper shared by tests: true iff `sub_blocks` are pairwise
/// disjoint, in range, and cover each non-empty unit block exactly once
/// while touching no empty block.
[[nodiscard]] bool covers_exactly(const Array3D<std::uint8_t>& occupancy,
                                  const std::vector<SubBlock>& sub_blocks);

}  // namespace tac::core

#endif  // TAC_CORE_EXTRACTION_HPP
