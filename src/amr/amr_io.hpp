#ifndef TAC_AMR_AMR_IO_HPP
#define TAC_AMR_AMR_IO_HPP

/// \file amr_io.hpp
/// \brief Binary snapshot serialization for AMR datasets.
///
/// The structure (masks) is stored losslessly — as AMR snapshot formats do
/// — with bit-packing plus the generic lossless codec; values are stored as
/// raw doubles over valid cells only.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "amr/dataset.hpp"

namespace tac::amr {

[[nodiscard]] std::vector<std::uint8_t> dataset_to_bytes(const AmrDataset& ds);
/// Inverse of dataset_to_bytes. Throws std::runtime_error on a malformed
/// snapshot; a level count the bytes cannot hold, dims whose volume
/// overflows and a mask shorter than its dims are rejected before any
/// allocation of the declared size.
[[nodiscard]] AmrDataset dataset_from_bytes(
    std::span<const std::uint8_t> bytes);

void save_dataset(const std::string& path, const AmrDataset& ds);
[[nodiscard]] AmrDataset load_dataset(const std::string& path);

/// Bit-packs a 0/1 mask; helper shared with the compression container.
[[nodiscard]] std::vector<std::uint8_t> pack_mask(
    std::span<const std::uint8_t> mask);

/// Inverse of pack_mask: unpacks `out.size()` mask cells straight into
/// `out` (e.g. a level's mask grid). Throws std::runtime_error if `packed`
/// is too short.
void unpack_mask_into(std::span<const std::uint8_t> packed,
                      std::span<std::uint8_t> out);

/// Bytes a packed mask of `count` cells occupies. Readers compare a mask
/// blob against this before allocating a grid of the declared dims.
[[nodiscard]] constexpr std::size_t packed_mask_bytes(std::size_t count) {
  return count / 8 + (count % 8 != 0 ? 1 : 0);
}

}  // namespace tac::amr

#endif  // TAC_AMR_AMR_IO_HPP
