#ifndef TAC_COMMON_ARRAY3D_HPP
#define TAC_COMMON_ARRAY3D_HPP

/// \file array3d.hpp
/// \brief Owning row-major 3D array with x as the fastest axis.
///
/// Storage comes from calloc, so a default-constructed `Array3D(dims)`
/// arrives as lazily-zeroed memory: glibc hands a large grid back as fresh
/// mmap pages it does not memset, and the kernel maps them on first touch.
/// Allocating a full-domain AMR level is therefore O(1) in its volume; a
/// decoder that writes only the cells its payload covers leaves the rest
/// of the grid untouched zero pages, while any whole-grid pass (a fill, a
/// mask sweep) touches every page.

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/dims.hpp"

namespace tac {
namespace detail {

/// Allocator whose memory comes zero-filled from calloc. Value-initialising
/// construction (`construct(p)`) default-initialises instead, so the zeros
/// calloc produced are kept rather than written again; for a trivially
/// default-constructible U it writes nothing at all, since calloc already
/// created zero-valued objects there. That is only correct on fresh calloc
/// memory: a vector using this allocator must never grow within its
/// existing capacity (`resize`, `emplace_back`).
template <class T>
struct ZeroedAllocator {
  using value_type = T;

  ZeroedAllocator() = default;
  template <class U>
  ZeroedAllocator(const ZeroedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_array_new_length();
    void* p = std::calloc(n, sizeof(T));
    if (p == nullptr && n != 0) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    if constexpr (!std::is_trivially_default_constructible_v<U>)
      ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const ZeroedAllocator&,
                         const ZeroedAllocator&) = default;
};

}  // namespace detail

/// Dense 3D array stored contiguously; index (x, y, z) maps to
/// x + nx * (y + ny * z). Degenerates naturally to 2D/1D when trailing
/// extents are 1.
template <class T>
class Array3D {
  static_assert(std::is_trivially_copyable_v<T>,
                "Array3D relies on calloc'd storage being a valid T");

 public:
  Array3D() = default;
  /// All-zero-bits cells, lazily zeroed (see the file comment).
  explicit Array3D(Dims3 dims) : dims_(dims), data_(dims.volume()) {}
  /// Every cell set to `fill`, kept bit-exactly (-0.0 and NaN payloads
  /// included). An all-zero-bits fill costs no more than Array3D(dims).
  explicit Array3D(Dims3 dims, const T& fill) : Array3D(dims) {
    if (std::bit_cast<std::array<unsigned char, sizeof(T)>>(fill) !=
        std::array<unsigned char, sizeof(T)>{})
      std::fill(data_.begin(), data_.end(), fill);
  }

  [[nodiscard]] const Dims3& dims() const { return dims_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] T& operator()(std::size_t x, std::size_t y, std::size_t z) {
    assert(x < dims_.nx && y < dims_.ny && z < dims_.nz);
    return data_[dims_.index(x, y, z)];
  }
  [[nodiscard]] const T& operator()(std::size_t x, std::size_t y,
                                    std::size_t z) const {
    assert(x < dims_.nx && y < dims_.ny && z < dims_.nz);
    return data_[dims_.index(x, y, z)];
  }

  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

  [[nodiscard]] std::span<T> span() { return data_; }
  [[nodiscard]] std::span<const T> span() const { return data_; }
  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }
  void fill(const T& v) { std::fill(data_.begin(), data_.end(), v); }

  /// Copies the half-open box `src_box` of this array into a new array of
  /// matching extents.
  [[nodiscard]] Array3D<T> extract(const Box3& src_box) const {
    Array3D<T> out(src_box.extents());
    for (std::size_t z = src_box.z0; z < src_box.z1; ++z)
      for (std::size_t y = src_box.y0; y < src_box.y1; ++y)
        for (std::size_t x = src_box.x0; x < src_box.x1; ++x)
          out(x - src_box.x0, y - src_box.y0, z - src_box.z0) =
              (*this)(x, y, z);
    return out;
  }

  /// Writes `block` into this array with its origin at (x0, y0, z0).
  void insert(const Array3D<T>& block, std::size_t x0, std::size_t y0,
              std::size_t z0) {
    const Dims3& b = block.dims();
    assert(x0 + b.nx <= dims_.nx && y0 + b.ny <= dims_.ny &&
           z0 + b.nz <= dims_.nz);
    for (std::size_t z = 0; z < b.nz; ++z)
      for (std::size_t y = 0; y < b.ny; ++y)
        for (std::size_t x = 0; x < b.nx; ++x)
          (*this)(x0 + x, y0 + y, z0 + z) = block(x, y, z);
  }

  friend bool operator==(const Array3D&, const Array3D&) = default;

 private:
  Dims3 dims_;
  std::vector<T, detail::ZeroedAllocator<T>> data_;
};

}  // namespace tac

#endif  // TAC_COMMON_ARRAY3D_HPP
