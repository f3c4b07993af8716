#include "core/baselines.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "amr/uniform.hpp"
#include "common/arena.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "core/backend.hpp"
#include "sz/resolve.hpp"
#include "sz/sz.hpp"

namespace tac::core {
namespace {

std::pair<double, double> dataset_valid_range(const amr::AmrDataset& ds) {
  bool any = false;
  double lo = 0, hi = 0;
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto& lv = ds.level(l);
    if (lv.valid_count() == 0) continue;
    const auto [llo, lhi] = lv.valid_range();
    if (!any) {
      lo = llo;
      hi = lhi;
      any = true;
    } else {
      lo = std::min(lo, llo);
      hi = std::max(hi, lhi);
    }
  }
  return {lo, hi};
}

void visit_zmesh(const amr::AmrDataset& ds, std::size_t level, std::size_t x,
                 std::size_t y, std::size_t z, auto&& emit) {
  const amr::AmrLevel& lv = ds.level(level);
  if (lv.mask(x, y, z)) {
    emit(level, x, y, z);
    return;
  }
  if (level == 0) return;  // uncovered finest cell: hole in the partition
  const auto r = static_cast<std::size_t>(ds.refinement_ratio());
  for (std::size_t dz = 0; dz < r; ++dz)
    for (std::size_t dy = 0; dy < r; ++dy)
      for (std::size_t dx = 0; dx < r; ++dx)
        visit_zmesh(ds, level - 1, x * r + dx, y * r + dy, z * r + dz, emit);
}

void zmesh_traverse(const amr::AmrDataset& ds, auto&& emit) {
  if (ds.num_levels() == 0) return;
  const std::size_t coarsest = ds.num_levels() - 1;
  const Dims3 cd = ds.level(coarsest).dims();
  for (std::size_t z = 0; z < cd.nz; ++z)
    for (std::size_t y = 0; y < cd.ny; ++y)
      for (std::size_t x = 0; x < cd.nx; ++x)
        visit_zmesh(ds, coarsest, x, y, z, emit);
}

/// Each level's valid cells as one 1D stream, encoded under the level's
/// own bound so the encoding never depends on sibling levels.
class OneDBackend final : public CompressorBackend {
 public:
  [[nodiscard]] Method method() const override { return Method::kOneD; }
  [[nodiscard]] const char* name() const override { return "1D"; }
  [[nodiscard]] bool supports_level_payloads() const override { return true; }

  [[nodiscard]] LevelPayload compress_level_payload(
      const amr::AmrLevel& lv, std::size_t level,
      const TacConfig& cfg) const override {
    TAC_SPAN("oned.level_encode");
    LevelPayload out;
    out.report.method = Method::kOneD;
    out.report.valid_cells = lv.valid_count();
    const sz::SzConfig level_cfg = resolve_level_config(cfg, level, lv);

    Timer comp;
    // Arena-backed gather: the 1D stream is built and compressed before
    // the scope closes, so repeated level encodes reuse the same scratch
    // blocks.
    ArenaScope scratch;
    const auto values = scratch.alloc<double>(lv.valid_count());
    lv.gather_valid_into(values);
    ByteWriter w;
    if (values.empty()) {
      w.put_blob({});
    } else {
      const auto stream = sz::compress<double>(
          values, Dims3{values.size(), 1, 1}, level_cfg);
      out.report.abs_error_bound = sz::peek(stream).abs_error_bound;
      w.put_blob(stream);
    }
    out.report.compress_seconds = comp.seconds();
    out.bytes = w.take();
    out.report.compressed_bytes = out.bytes.size();
    return out;
  }

  void decompress_level_payload(
      ByteReader& r, amr::AmrLevel& lv,
      std::optional<lossless::CodecProfile> expected) const override {
    TAC_SPAN("oned.level_decode");
    const auto stream = r.get_blob();
    if (stream.empty()) {
      lv.scatter_valid({});
    } else {
      const auto values = sz::decompress<double>(stream, expected);
      lv.scatter_valid(values);
    }
  }
};

class ZMeshBackend final : public CompressorBackend {
 public:
  [[nodiscard]] Method method() const override { return Method::kZMesh; }
  [[nodiscard]] const char* name() const override { return "zMesh"; }

  [[nodiscard]] CompressedAmr compress(const amr::AmrDataset& ds,
                                       const TacConfig& cfg) const override {
    TAC_SPAN("zmesh.compress");
    Timer total;
    ByteWriter w;
    // One interleaved stream spanning every level: a single payload (and
    // a single index entry) — partial decompression uses the full-decode
    // fallback for this backend.
    PayloadIndexBuilder index = write_common_header(
        w, Method::kZMesh, ds, /*n_payloads=*/1, cfg.sz.profile);

    CompressReport report;
    report.method = Method::kZMesh;
    report.original_bytes = ds.original_bytes();

    Timer pre;
    const auto values = zmesh_gather(ds);
    const double pre_secs = pre.seconds();

    const auto [lo, hi] = dataset_valid_range(ds);
    const sz::SzConfig stream_cfg = sz::resolve_range_bound(cfg.sz, lo, hi);

    LevelReport lr;  // single interleaved stream: reported as one entry
    lr.valid_cells = values.size();
    lr.preprocess_seconds = pre_secs;
    Timer comp;
    index.begin_payload();
    if (values.empty()) {
      w.put_blob({});
    } else {
      const auto stream = sz::compress<double>(
          values, Dims3{values.size(), 1, 1}, stream_cfg);
      lr.abs_error_bound = sz::peek(stream).abs_error_bound;
      w.put_blob(stream);
    }
    index.end_payload();
    index.finish();
    lr.compress_seconds = comp.seconds();

    CompressedAmr out;
    out.bytes = w.take();
    lr.compressed_bytes = out.bytes.size();
    report.levels.push_back(lr);
    report.compressed_bytes = out.bytes.size();
    report.seconds = total.seconds();
    out.report = std::move(report);
    return out;
  }

  [[nodiscard]] amr::AmrDataset decompress(
      ByteReader& r, amr::AmrDataset skeleton,
      const CommonHeader& header) const override {
    TAC_SPAN("zmesh.decompress");
    const auto stream = r.get_blob();
    if (stream.empty()) return skeleton;
    const auto values =
        sz::decompress<double>(stream, payload_profile(header, 0));
    zmesh_scatter(skeleton, values);
    return skeleton;
  }
};

class Upsample3DBackend final : public CompressorBackend {
 public:
  [[nodiscard]] Method method() const override { return Method::kUpsample3D; }
  [[nodiscard]] const char* name() const override { return "3D"; }

  [[nodiscard]] CompressedAmr compress(const amr::AmrDataset& ds,
                                       const TacConfig& cfg) const override {
    TAC_SPAN("upsample3d.compress");
    Timer total;
    ByteWriter w;
    // Levels merge into one up-sampled uniform grid: a single payload —
    // partial decompression uses the full-decode fallback here too.
    PayloadIndexBuilder index = write_common_header(
        w, Method::kUpsample3D, ds, /*n_payloads=*/1, cfg.sz.profile);

    CompressReport report;
    report.method = Method::kUpsample3D;
    report.original_bytes = ds.original_bytes();

    Timer pre;
    const Array3D<double> uniform = amr::compose_uniform(ds);
    LevelReport lr;
    lr.valid_cells = ds.total_valid();
    lr.preprocess_seconds = pre.seconds();

    const auto [lo, hi] = dataset_valid_range(ds);
    const sz::SzConfig stream_cfg = sz::resolve_range_bound(cfg.sz, lo, hi);

    Timer comp;
    const auto stream =
        sz::compress<double>(uniform.span(), uniform.dims(), stream_cfg);
    lr.compress_seconds = comp.seconds();
    lr.abs_error_bound = sz::peek(stream).abs_error_bound;
    index.begin_payload();
    w.put_blob(stream);
    index.end_payload();
    index.finish();

    CompressedAmr out;
    out.bytes = w.take();
    lr.compressed_bytes = out.bytes.size();
    report.levels.push_back(lr);
    report.compressed_bytes = out.bytes.size();
    report.seconds = total.seconds();
    out.report = std::move(report);
    return out;
  }

  [[nodiscard]] amr::AmrDataset decompress(
      ByteReader& r, amr::AmrDataset skeleton,
      const CommonHeader& header) const override {
    TAC_SPAN("upsample3d.decompress");
    const auto stream = r.get_blob();
    const auto flat =
        sz::decompress<double>(stream, payload_profile(header, 0));
    const Dims3 fd = skeleton.finest_dims();
    if (flat.size() != fd.volume())
      throw std::runtime_error("3D baseline: payload size mismatch");
    Array3D<double> uniform(fd);
    std::copy(flat.begin(), flat.end(), uniform.data());
    amr::distribute_uniform(uniform, skeleton);
    return skeleton;
  }
};

TacConfig sz_only(const sz::SzConfig& cfg) {
  TacConfig out;
  out.sz = cfg;
  return out;
}

}  // namespace

namespace detail {
std::unique_ptr<CompressorBackend> make_oned_backend() {
  return std::make_unique<OneDBackend>();
}
std::unique_ptr<CompressorBackend> make_zmesh_backend() {
  return std::make_unique<ZMeshBackend>();
}
std::unique_ptr<CompressorBackend> make_upsample3d_backend() {
  return std::make_unique<Upsample3DBackend>();
}
}  // namespace detail

std::vector<double> zmesh_gather(const amr::AmrDataset& ds) {
  std::vector<double> out;
  out.reserve(ds.total_valid());
  zmesh_traverse(ds, [&](std::size_t level, std::size_t x, std::size_t y,
                         std::size_t z) {
    out.push_back(ds.level(level).data(x, y, z));
  });
  return out;
}

void zmesh_scatter(amr::AmrDataset& ds, std::span<const double> values) {
  std::size_t i = 0;
  zmesh_traverse(ds, [&](std::size_t level, std::size_t x, std::size_t y,
                         std::size_t z) {
    if (i >= values.size())
      throw std::invalid_argument("zmesh_scatter: too few values");
    ds.level(level).data(x, y, z) = values[i++];
  });
  if (i != values.size())
    throw std::invalid_argument("zmesh_scatter: too many values");
}

CompressedAmr oned_compress(const amr::AmrDataset& ds,
                            const sz::SzConfig& cfg) {
  return backend_for(Method::kOneD).compress(ds, sz_only(cfg));
}

CompressedAmr zmesh_compress(const amr::AmrDataset& ds,
                             const sz::SzConfig& cfg) {
  return backend_for(Method::kZMesh).compress(ds, sz_only(cfg));
}

CompressedAmr upsample3d_compress(const amr::AmrDataset& ds,
                                  const sz::SzConfig& cfg) {
  return backend_for(Method::kUpsample3D).compress(ds, sz_only(cfg));
}

}  // namespace tac::core
