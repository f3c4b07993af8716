#include "core/tac.hpp"

#include <optional>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "core/backend.hpp"
#include "core/extraction.hpp"
#include "core/gsp.hpp"
#include "sz/sz.hpp"

namespace tac::core {
namespace {

void serialize_groups(ByteWriter& w, const std::vector<BlockGroup>& groups,
                      const std::vector<std::vector<std::uint8_t>>& streams) {
  w.put_varint(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const BlockGroup& grp = groups[g];
    w.put_varint(grp.members.front().sx);
    w.put_varint(grp.members.front().sy);
    w.put_varint(grp.members.front().sz);
    w.put_varint(grp.members.size());
    for (const SubBlock& sb : grp.members) {
      w.put_varint(sb.bx);
      w.put_varint(sb.by);
      w.put_varint(sb.bz);
    }
    w.put_blob(streams[g]);
  }
}

struct DecodedGroups {
  std::vector<BlockGroup> groups;  ///< buffers filled from the streams
};

DecodedGroups deserialize_groups(
    ByteReader& r, std::size_t block_size,
    std::optional<lossless::CodecProfile> expected) {
  // A group takes at least five bytes (four varints and its stream's
  // length varint) and a member three, so a count the remaining bytes
  // cannot hold is corrupt; checking first bounds both reserves by the
  // input size.
  DecodedGroups out;
  const std::size_t ngroups = static_cast<std::size_t>(r.get_varint());
  if (ngroups > r.remaining() / 5)
    throw std::runtime_error("tac: group count exceeds the level payload");
  out.groups.reserve(ngroups);
  for (std::size_t g = 0; g < ngroups; ++g) {
    BlockGroup grp;
    const std::size_t sx = static_cast<std::size_t>(r.get_varint());
    const std::size_t sy = static_cast<std::size_t>(r.get_varint());
    const std::size_t sz_ = static_cast<std::size_t>(r.get_varint());
    grp.block_cell_dims = {sx * block_size, sy * block_size,
                           sz_ * block_size};
    const std::size_t nmembers = static_cast<std::size_t>(r.get_varint());
    if (nmembers > r.remaining() / 3)
      throw std::runtime_error("tac: member count exceeds the level payload");
    grp.members.reserve(nmembers);
    for (std::size_t m = 0; m < nmembers; ++m) {
      SubBlock sb;
      sb.bx = static_cast<std::size_t>(r.get_varint());
      sb.by = static_cast<std::size_t>(r.get_varint());
      sb.bz = static_cast<std::size_t>(r.get_varint());
      sb.sx = sx;
      sb.sy = sy;
      sb.sz = sz_;
      grp.members.push_back(sb);
    }
    const auto stream = r.get_blob();
    grp.owned = sz::decompress<double>(stream, expected);
    grp.buffer = grp.owned;
    const std::size_t expect = grp.block_cell_dims.volume() * nmembers;
    if (grp.buffer.size() != expect)
      throw std::runtime_error("tac: group payload size mismatch");
    out.groups.push_back(std::move(grp));
  }
  return out;
}

class TacBackend final : public CompressorBackend {
 public:
  [[nodiscard]] Method method() const override { return Method::kTac; }
  [[nodiscard]] const char* name() const override { return "TAC"; }
  [[nodiscard]] bool supports_level_payloads() const override { return true; }

  /// Strategy tag, block size, then the strategy's streams. Levels are
  /// independent, so the pipeline encodes them concurrently. Taking the
  /// level (not the dataset) lets the auto-selector trial-encode sampled
  /// stand-in levels through the same code path.
  [[nodiscard]] LevelPayload compress_level_payload(
      const amr::AmrLevel& lv, std::size_t level,
      const TacConfig& cfg) const override;

  /// Invalid cells come out +0.0 — padded or residual values inside the
  /// decoded blocks must not leak into the level — and only the cells the
  /// payload covers are written.
  void decompress_level_payload(
      ByteReader& r, amr::AmrLevel& lv,
      std::optional<lossless::CodecProfile> expected) const override;
};

void TacBackend::decompress_level_payload(
    ByteReader& r, amr::AmrLevel& lv,
    std::optional<lossless::CodecProfile> expected) const {
  TAC_SPAN("tac.level_decode");
  const auto strategy = static_cast<Strategy>(r.get<std::uint8_t>());
  const std::size_t block_size = static_cast<std::size_t>(r.get_varint());
  if (block_size == 0)
    throw std::runtime_error("tac: corrupt level payload (block size 0)");
  const BlockGrid grid(lv.dims(), block_size);
  switch (strategy) {
    case Strategy::kNaST:
    case Strategy::kOpST:
    case Strategy::kAKDTree: {
      const DecodedGroups dg = deserialize_groups(r, block_size, expected);
      scatter_groups(lv, grid, dg.groups);
      break;
    }
    case Strategy::kGSP:
    case Strategy::kZF: {
      const auto stream = r.get_blob();
      const auto grid_data = sz::decompress<double>(stream, expected);
      if (grid_data.size() != lv.data.size())
        throw std::runtime_error("tac: level payload size mismatch");
      for (std::size_t i = 0; i < grid_data.size(); ++i)
        lv.data[i] = lv.mask[i] ? grid_data[i] : 0.0;
      break;
    }
    default:
      throw std::runtime_error("tac: unknown strategy tag");
  }
}

LevelPayload TacBackend::compress_level_payload(const amr::AmrLevel& lv,
                                               std::size_t level,
                                               const TacConfig& cfg) const {
  TAC_SPAN("tac.level_compress");
  LevelPayload out;
  LevelReport& lr = out.report;
  lr.method = Method::kTac;
  lr.valid_cells = lv.valid_count();

  Timer pre;
  const BlockGrid grid(lv.dims(), cfg.block_size);
  const auto occ = block_occupancy(lv, grid);
  lr.block_density = occupancy_density(occ);
  lr.strategy = cfg.force_strategy.value_or(
      select_strategy(lr.block_density, cfg.t1, cfg.t2));

  const sz::SzConfig level_cfg = resolve_level_config(cfg, level, lv);

  ByteWriter w;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(lr.strategy));
  w.put_varint(cfg.block_size);

  const std::size_t bytes_before = w.size();
  switch (lr.strategy) {
    case Strategy::kNaST:
    case Strategy::kOpST:
    case Strategy::kAKDTree: {
      std::vector<SubBlock> subs;
      {
        TAC_SPAN("tac.extract");
        if (lr.strategy == Strategy::kNaST)
          subs = nast_extract(occ);
        else if (lr.strategy == Strategy::kOpST)
          subs = opst_extract(occ);
        else
          subs = akdtree_extract(occ);
      }
      // Arena-backed group buffers: gathered, compressed and serialized
      // before the scope closes, so a steady-state level pipeline reuses
      // the same retained blocks instead of heap-allocating per group.
      ArenaScope scratch;
      auto groups = [&] {
        TAC_SPAN("tac.gather_groups");
        return gather_groups(lv, grid, subs, scratch);
      }();
      lr.preprocess_seconds = pre.seconds();
      lr.n_sub_blocks = subs.size();
      lr.n_groups = groups.size();

      Timer comp;
      // The per-extent group streams are independent: compress them
      // concurrently, then serialize in group order so the container
      // stays deterministic.
      std::vector<std::vector<std::uint8_t>> streams(groups.size());
      parallel_for(
          0, groups.size(),
          [&](std::size_t g) {
            streams[g] = sz::compress<double>(groups[g].buffer,
                                              groups[g].block_cell_dims,
                                              level_cfg,
                                              groups[g].members.size());
          },
          /*grain=*/1);
      if (!streams.empty())
        lr.abs_error_bound = sz::peek(streams.back()).abs_error_bound;
      lr.compress_seconds = comp.seconds();
      serialize_groups(w, groups, streams);
      break;
    }
    case Strategy::kGSP:
    case Strategy::kZF: {
      const Array3D<double> padded = lr.strategy == Strategy::kGSP
                                         ? gsp_pad(lv, grid, occ)
                                         : zf_pad(lv);
      lr.preprocess_seconds = pre.seconds();
      lr.n_groups = 1;

      Timer comp;
      const auto stream =
          sz::compress<double>(padded.span(), padded.dims(), level_cfg);
      lr.compress_seconds = comp.seconds();
      lr.abs_error_bound = sz::peek(stream).abs_error_bound;
      w.put_blob(stream);
      break;
    }
  }
  lr.compressed_bytes = w.size() - bytes_before;
  out.bytes = w.take();
  return out;
}

}  // namespace

namespace detail {
std::unique_ptr<CompressorBackend> make_tac_backend() {
  return std::make_unique<TacBackend>();
}
}  // namespace detail

Strategy select_strategy(double block_density, double t1, double t2) {
  if (block_density < t1) return Strategy::kOpST;
  if (block_density < t2) return Strategy::kAKDTree;
  return Strategy::kGSP;
}

CompressedAmr tac_compress(const amr::AmrDataset& ds, const TacConfig& cfg) {
  return backend_for(Method::kTac).compress(ds, cfg);
}

}  // namespace tac::core
