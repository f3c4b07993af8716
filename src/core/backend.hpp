#ifndef TAC_CORE_BACKEND_HPP
#define TAC_CORE_BACKEND_HPP

/// \file backend.hpp
/// \brief The pluggable compression-backend interface, its registry and
/// the level pipeline every per-level backend runs on.
///
/// Every compression method — TAC itself and the §4.1 baselines today,
/// MGARD-style or TAC+ tree-partitioning backends tomorrow — implements
/// CompressorBackend and registers under its Method tag. Containers are
/// self-describing: `decompress_any` reads the common header and hands the
/// payload to whichever backend owns the tag, so adding a method never
/// touches existing call sites.
///
/// Most methods encode each AMR level independently (TAC, 1D). Such a
/// backend implements only the three per-level hooks
/// (`supports_level_payloads`, `compress_level_payload`,
/// `decompress_level_payload`) and inherits the level pipeline: the
/// default `compress` validates the config, encodes the levels
/// concurrently and writes them one payload per level behind the common
/// header, and the default `decompress` hands every payload to the
/// backend that wrote it. The `auto` pseudo-backend runs the same encode
/// loop with the selector choosing each level's backend. Only formats
/// whose single payload spans every level (zMesh, 3D) override
/// `compress`/`decompress`.
///
/// Decode contract: a decoder receives levels whose data grid is
/// lazily-zeroed memory (zeroed_level). Invalid cells must read +0.0,
/// which they already do, so a decoder should write only the cells its
/// payload covers: a whole-grid pass touches every page and makes a
/// sparse level cost its full volume. Backends must be stateless and
/// thread-safe — the snapshot codec compresses fields concurrently
/// through one shared instance.

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "core/tac.hpp"

namespace tac::core {

/// One level encoded standalone by a backend — the unit the level
/// pipeline writes as one container payload.
struct LevelPayload {
  std::vector<std::uint8_t> bytes;
  LevelReport report;
};

/// The backend chosen to encode one level, and the seconds spent
/// choosing it (0 for a fixed backend).
struct LevelPick {
  Method method = Method::kTac;
  double seconds = 0;
};

/// Chooses the backend for level `level` (`lv`) of a dataset compressed
/// under `cfg`; called concurrently for different levels.
using LevelPicker = std::function<LevelPick(
    const amr::AmrLevel& lv, std::size_t level, const TacConfig& cfg)>;

class CompressorBackend {
 public:
  virtual ~CompressorBackend() = default;

  /// The container tag this backend owns.
  [[nodiscard]] virtual Method method() const = 0;

  /// Human-readable name (diagnostics, tooling).
  [[nodiscard]] virtual const char* name() const = 0;

  /// Compresses a dataset into a self-describing container. The default
  /// is the level pipeline with this backend encoding every level
  /// (compress_levels); whole-dataset formats override it, writing the
  /// common header via `write_common_header` with this backend's tag
  /// followed by a payload only this backend can read.
  [[nodiscard]] virtual CompressedAmr compress(const amr::AmrDataset& ds,
                                               const TacConfig& cfg) const;

  /// Decodes the container's payloads into the skeleton (structure decoded
  /// from the common header, data arrays allocated as lazily-zeroed memory
  /// by zeroed_levels — write only the cells the payload covers) and
  /// returns the filled dataset. `r` is positioned immediately after the
  /// common header (and, for v2+ containers, after the payload index).
  /// `header` supplies the payload index — in particular
  /// `payload_profile(header, i)`, the codec profile each payload's
  /// lossless streams must decode under. `header.skeleton` is structure
  /// only (empty data) and callers may have moved it out, so a decoder
  /// must not touch it — use the `skeleton` parameter.
  ///
  /// The default is the level pipeline's serial decode loop: payload `l`
  /// goes to decompress_level_payload of the backend its v4 selector byte
  /// names, or of this backend when none is recorded. Only an `auto`
  /// container may name another backend, and then only a level-capable
  /// one; anything else is a SelectorError (the index is not CRC-covered,
  /// so this check is what keeps a damaged selector byte from routing a
  /// payload to the wrong decoder). Whole-dataset formats override it.
  [[nodiscard]] virtual amr::AmrDataset decompress(
      ByteReader& r, amr::AmrDataset skeleton,
      const CommonHeader& header) const;

  /// Decodes only `level` of the container into a standalone AmrLevel.
  /// `header` must be the result of read_common_header over `container`.
  /// Only the returned level's data grid is allocated (zeroed_level), and
  /// its mask is copied from `header.skeleton`.
  ///
  /// When the index maps 1:1 to levels and the payload's owner encodes
  /// levels standalone, only that payload is checksummed and decoded:
  /// O(level). Otherwise (a v1 container, or a single payload
  /// interleaving every level as zMesh and 3D write) every payload is
  /// verified and the whole container decoded: O(dataset).
  [[nodiscard]] amr::AmrLevel decompress_level(
      std::span<const std::uint8_t> container, const CommonHeader& header,
      std::size_t level) const;

  /// True when this backend encodes and decodes a single level as a
  /// standalone payload — it then runs on the level pipeline, and the
  /// `auto` pseudo-backend considers it a candidate. Backends whose single
  /// payload interleaves all levels (zMesh, 3D) return the default false.
  [[nodiscard]] virtual bool supports_level_payloads() const { return false; }

  /// Encodes `lv`, level `level` of a dataset compressed under `cfg`, as
  /// one standalone payload plus its diagnostics. The error bound to apply
  /// is resolve_level_config(cfg, level, lv). Only called when
  /// supports_level_payloads() is true; the default throws.
  [[nodiscard]] virtual LevelPayload compress_level_payload(
      const amr::AmrLevel& lv, std::size_t level, const TacConfig& cfg) const;

  /// Decodes one payload produced by compress_level_payload() into the
  /// skeleton level `lv` (mask set, data allocated as lazily-zeroed memory
  /// by zeroed_level — write only the cells the payload covers). `r` is
  /// positioned at the payload; `profile` is the codec profile recorded in
  /// its index entry, or nullopt for a pre-v3 container (decode
  /// leniently). Only called when supports_level_payloads() is true; the
  /// default throws.
  virtual void decompress_level_payload(
      ByteReader& r, amr::AmrLevel& lv,
      std::optional<lossless::CodecProfile> profile) const;

 protected:
  /// The level pipeline's encode loop: validates `cfg` against `ds` (a
  /// non-empty dataset, one level_error_bounds entry per level when any,
  /// block_size > 0; std::invalid_argument otherwise), encodes every level
  /// concurrently with the backend `pick` chooses for it, and writes the
  /// payloads in level order under this backend's tag, stamping each
  /// chosen backend into the payload's selector byte. The container is
  /// byte-identical at any worker count whenever `pick` is deterministic.
  [[nodiscard]] CompressedAmr compress_levels(const amr::AmrDataset& ds,
                                              const TacConfig& cfg,
                                              const LevelPicker& pick) const;
};

/// The SZ config level `level` (`lv`) is encoded under: its
/// level_error_bounds entry when `cfg` has per-level bounds, else the
/// global bound, a relative one resolved against the level's valid-value
/// range so every stream of the level shares one bound. Every
/// level-capable backend applies exactly this bound.
[[nodiscard]] sz::SzConfig resolve_level_config(const TacConfig& cfg,
                                                std::size_t level,
                                                const amr::AmrLevel& lv);

/// Registers a backend under its Method tag. Throws std::invalid_argument
/// on a duplicate tag or a null backend. Thread-safe.
void register_backend(std::unique_ptr<CompressorBackend> backend);

/// The backend owning `m`. Throws std::runtime_error with the offending
/// tag value when nothing is registered. Thread-safe.
[[nodiscard]] const CompressorBackend& backend_for(Method m);

/// Like backend_for, but returns nullptr instead of throwing.
[[nodiscard]] const CompressorBackend* find_backend(Method m) noexcept;

/// Tags with a registered backend, ascending.
[[nodiscard]] std::vector<Method> registered_methods();

namespace detail {
// Built-in backend factories (defined next to each method's
// implementation); the registry installs them on first use.
[[nodiscard]] std::unique_ptr<CompressorBackend> make_tac_backend();
[[nodiscard]] std::unique_ptr<CompressorBackend> make_oned_backend();
[[nodiscard]] std::unique_ptr<CompressorBackend> make_zmesh_backend();
[[nodiscard]] std::unique_ptr<CompressorBackend> make_upsample3d_backend();
[[nodiscard]] std::unique_ptr<CompressorBackend> make_auto_backend();
}  // namespace detail

}  // namespace tac::core

#endif  // TAC_CORE_BACKEND_HPP
