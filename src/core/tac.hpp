#ifndef TAC_CORE_TAC_HPP
#define TAC_CORE_TAC_HPP

/// \file tac.hpp
/// \brief TAC: level-wise 3D error-bounded compression of AMR data with
/// density-adaptive pre-processing (the paper's primary contribution).
///
/// Per level, a density filter picks the pre-process strategy
/// (§3.4):   density < T1 -> OpST,   T1 <= density < T2 -> AKDTree,
/// density >= T2 -> GSP;  the processed data then goes through the
/// SZ-style 3D compressor. Level-wise compression also permits per-level
/// error bounds (§4.5, the adaptive-error-bound analyses).

#include <optional>
#include <span>
#include <vector>

#include "amr/dataset.hpp"
#include "core/container.hpp"
#include "sz/config.hpp"

namespace tac::core {

/// What the auto-selector optimizes when ranking candidate backends.
enum class SelectorObjective : std::uint8_t {
  /// Minimize trial compressed bytes — fully deterministic (trial sizes
  /// are byte-stable across thread counts and SIMD tiers), the default.
  kRatio = 0,
  /// Minimize trial encode wall time. Machine- and load-dependent: the
  /// per-level choices (and therefore the container bytes) may differ
  /// between runs.
  kThroughput = 1,
  /// Blend of both, each normalized by the best candidate's value;
  /// `SelectorConfig::balance` weights the ratio term. Inherits the
  /// throughput term's nondeterminism.
  kBalanced = 2,
};

/// Knobs of the per-level adaptive backend selector (core/selector.hpp),
/// consumed by the `auto` pseudo-backend.
struct SelectorConfig {
  /// Fraction of a level's occupied unit blocks trial-compressed per
  /// candidate. The default keeps total selection overhead under ~10% of
  /// compression time with the two built-in level-capable candidates.
  double sample_fraction = 0.025;
  /// Trial at least this many blocks (clamped to the occupied count) so
  /// tiny levels still get a meaningful sample.
  std::size_t min_sample_blocks = 4;
  /// Seed of the deterministic block-sampling sequence. Same input +
  /// same seed -> same samples -> same per-level choices (kRatio).
  std::uint64_t seed = 0;
  SelectorObjective objective = SelectorObjective::kRatio;
  /// kBalanced only: weight of the ratio term in [0, 1].
  double balance = 0.5;
  /// Restrict the candidate set (empty = every registered backend that
  /// supports per-level payloads). Methods without level support are
  /// ignored; an empty effective set is an error.
  std::vector<Method> candidates;
};

struct TacConfig {
  /// Error bound applied to every level unless level_error_bounds is set.
  /// Relative bounds resolve against each level's valid-value range.
  sz::SzConfig sz{};
  /// Optional per-level absolute error bounds, finest first (the adaptive
  /// error bound mechanism). When non-empty, must have one entry per level.
  std::vector<double> level_error_bounds;
  /// Unit block side in cells.
  std::size_t block_size = 8;
  /// Density thresholds of the hybrid filter (fractions of non-empty unit
  /// blocks). Paper values: T1 = 50%, T2 = 60%.
  double t1 = 0.50;
  double t2 = 0.60;
  /// Overrides the density filter for every level (strategy experiments).
  std::optional<Strategy> force_strategy;
  /// Auto-selector knobs; only read when compressing with Method::kAuto.
  SelectorConfig selector;
};

/// Per-level compression diagnostics.
struct LevelReport {
  Strategy strategy = Strategy::kOpST;
  Method method = Method::kTac;  ///< backend that encoded this level
  double block_density = 0;      ///< non-empty unit-block fraction
  double abs_error_bound = 0;    ///< bound actually applied
  std::size_t valid_cells = 0;
  std::size_t compressed_bytes = 0;
  std::size_t n_sub_blocks = 0;  ///< extraction output (0 for GSP/ZF)
  std::size_t n_groups = 0;      ///< batched streams (1 for GSP/ZF)
  double preprocess_seconds = 0;
  double compress_seconds = 0;
  double selection_seconds = 0;  ///< auto-selector trial time (0 if fixed)
};

struct CompressReport {
  Method method = Method::kTac;
  std::vector<LevelReport> levels;
  std::size_t original_bytes = 0;    ///< valid cells * sizeof(double)
  std::size_t compressed_bytes = 0;  ///< container size
  double seconds = 0;                ///< wall time incl. pre-processing
};

struct CompressedAmr {
  std::vector<std::uint8_t> bytes;
  CompressReport report;
};

/// Picks the strategy for one level density per the hybrid filter.
[[nodiscard]] Strategy select_strategy(double block_density, double t1,
                                       double t2);

/// Compresses a dataset with TAC (wrapper over the registered TAC
/// backend; see core/backend.hpp). Independent levels and per-group
/// sub-block streams compress concurrently, and the container is
/// byte-identical at any thread count.
[[nodiscard]] CompressedAmr tac_compress(const amr::AmrDataset& ds,
                                         const TacConfig& cfg);

/// Decompresses any container produced by this library: reads the common
/// header and dispatches to whichever CompressorBackend is registered for
/// the method tag. Unknown tags and truncated buffers raise descriptive
/// std::runtime_errors; v2 payload corruption raises ChecksumError.
[[nodiscard]] amr::AmrDataset decompress_any(
    std::span<const std::uint8_t> bytes);

/// Decompresses a single level of a container — the random-access path the
/// v2 payload index exists for. For per-level backends (TAC, 1D, auto)
/// only the requested level's payload bytes are checksummed and decoded
/// (O(level), not O(dataset)), and the level's mask is moved out of the
/// parsed header rather than copied; interleaved backends (zMesh, 3D) fall
/// back to a full decode. The result is byte-identical to
/// `decompress_any(bytes).level(k)`. To read several levels, parse the
/// header once and call CompressorBackend::decompress_level.
[[nodiscard]] amr::AmrLevel decompress_level(
    std::span<const std::uint8_t> bytes, std::size_t level);

}  // namespace tac::core

#endif  // TAC_CORE_TAC_HPP
