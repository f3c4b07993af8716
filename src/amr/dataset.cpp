#include "amr/dataset.hpp"

#include <bit>
#include <sstream>
#include <stdexcept>

namespace tac::amr {

std::vector<double> AmrLevel::gather_valid() const {
  std::vector<double> out;
  out.reserve(valid_count());
  for (std::size_t i = 0; i < data.size(); ++i)
    if (mask[i]) out.push_back(data[i]);
  return out;
}

std::size_t AmrLevel::gather_valid_into(std::span<double> out) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < data.size(); ++i)
    if (mask[i]) out[n++] = data[i];
  return n;
}

void AmrLevel::scatter_valid(std::span<const double> values) {
  std::size_t vi = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (mask[i]) {
      if (vi >= values.size())
        throw std::invalid_argument("scatter_valid: too few values");
      data[i] = values[vi++];
    } else if (std::bit_cast<std::uint64_t>(data[i]) != 0) {
      // Only store where needed: a freshly allocated level reads as zero
      // pages here, and an unconditional store would touch every page.
      data[i] = 0.0;
    }
  }
  if (vi != values.size())
    throw std::invalid_argument("scatter_valid: too many values");
}

std::pair<double, double> AmrLevel::valid_range() const {
  bool any = false;
  double lo = 0, hi = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!mask[i]) continue;
    if (!any) {
      lo = hi = data[i];
      any = true;
    } else {
      lo = std::min(lo, data[i]);
      hi = std::max(hi, data[i]);
    }
  }
  return {lo, hi};
}

std::string AmrDataset::validate() const {
  if (levels_.empty()) return "dataset has no levels";
  if (ratio_ < 2) return "refinement ratio must be >= 2";
  const Dims3 fine = finest_dims();
  const auto r = static_cast<std::size_t>(ratio_);

  for (std::size_t l = 1; l < levels_.size(); ++l) {
    const Dims3 expect{levels_[l - 1].dims().nx / r,
                       levels_[l - 1].dims().ny / r,
                       levels_[l - 1].dims().nz / r};
    if (!(levels_[l].dims() == expect)) {
      std::ostringstream os;
      os << "level " << l << " dims " << levels_[l].dims() << " != expected "
         << expect;
      return os.str();
    }
  }

  // Coverage counting on the finest grid: each cell exactly once.
  Array3D<std::uint8_t> cover(fine, 0);
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const AmrLevel& lv = levels_[l];
    const std::size_t s = scale_to_finest(l);
    const Dims3 d = lv.dims();
    for (std::size_t z = 0; z < d.nz; ++z)
      for (std::size_t y = 0; y < d.ny; ++y)
        for (std::size_t x = 0; x < d.nx; ++x) {
          if (!lv.mask(x, y, z)) continue;
          for (std::size_t dz = 0; dz < s; ++dz)
            for (std::size_t dy = 0; dy < s; ++dy)
              for (std::size_t dx = 0; dx < s; ++dx) {
                auto& c = cover(x * s + dx, y * s + dy, z * s + dz);
                if (c == 1) {
                  std::ostringstream os;
                  os << "cell (" << x * s + dx << "," << y * s + dy << ","
                     << z * s + dz << ") covered by multiple levels";
                  return os.str();
                }
                c = 1;
              }
        }
  }
  for (std::size_t i = 0; i < cover.size(); ++i)
    if (!cover[i]) return "domain not fully covered by valid cells";
  return {};
}

}  // namespace tac::amr
