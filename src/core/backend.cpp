#include "core/backend.hpp"

#include <array>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "sz/resolve.hpp"

namespace tac::core {
namespace {

/// See CompressorBackend::decompress for the rule.
const CompressorBackend& payload_owner(const CommonHeader& header,
                                       std::size_t i) {
  const Method m = payload_method(header, i).value_or(header.method);
  const CompressorBackend& owner = backend_for(m);
  if (header.method == Method::kAuto ? !owner.supports_level_payloads()
                                     : m != header.method)
    throw SelectorError("container: payload " + std::to_string(i) + " of a " +
                        to_string(header.method) + " container names the " +
                        owner.name() + " backend");
  return owner;
}

/// The one-level read behind both decompress_level entry points.
/// `take_shape` yields level `level`'s structure-only shape — a copy of
/// the header's, or its mask moved out when the caller owns the header —
/// and is only called on the indexed path.
template <class TakeShape>
amr::AmrLevel read_level(const CompressorBackend& backend,
                         std::span<const std::uint8_t> container,
                         const CommonHeader& header, std::size_t level,
                         TakeShape&& take_shape) {
  if (level >= header.skeleton.num_levels())
    throw std::out_of_range(
        "decompress_level: level " + std::to_string(level) +
        " out of range (container has " +
        std::to_string(header.skeleton.num_levels()) + " levels)");
  if (header.index.entries.size() == header.skeleton.num_levels()) {
    const CompressorBackend& owner = payload_owner(header, level);
    if (owner.supports_level_payloads()) {
      verify_payload(container, header.index, level);
      const PayloadEntry& e = header.index.entries[level];
      ByteReader r(container.subspan(static_cast<std::size_t>(e.offset),
                                     static_cast<std::size_t>(e.length)));
      amr::AmrLevel lv = zeroed_level(take_shape());
      owner.decompress_level_payload(r, lv, payload_profile(header, level));
      return lv;
    }
  }
  // Full-decode fallback: every payload is read, so verify them all.
  verify_payloads(container, header.index);
  ByteReader r(container);
  r.seek(header.payload_offset);
  amr::AmrDataset full =
      backend.decompress(r, zeroed_levels(header.skeleton), header);
  return std::move(full.level(level));
}

}  // namespace

sz::SzConfig resolve_level_config(const TacConfig& cfg, std::size_t level,
                                  const amr::AmrLevel& lv) {
  if (!cfg.level_error_bounds.empty()) {
    sz::SzConfig out = cfg.sz;
    out.mode = sz::ErrorBoundMode::kAbsolute;
    out.error_bound = cfg.level_error_bounds.at(level);
    return out;
  }
  if (cfg.sz.mode == sz::ErrorBoundMode::kRelative) {
    const auto [lo, hi] = lv.valid_range();
    return sz::resolve_range_bound(cfg.sz, lo, hi);
  }
  return cfg.sz;
}

CompressedAmr CompressorBackend::compress(const amr::AmrDataset& ds,
                                          const TacConfig& cfg) const {
  return compress_levels(
      ds, cfg, [this](const amr::AmrLevel&, std::size_t, const TacConfig&) {
        return LevelPick{method()};
      });
}

CompressedAmr CompressorBackend::compress_levels(
    const amr::AmrDataset& ds, const TacConfig& cfg,
    const LevelPicker& pick) const {
  if (ds.num_levels() == 0)
    throw std::invalid_argument(std::string(name()) + ": empty dataset");
  if (!cfg.level_error_bounds.empty() &&
      cfg.level_error_bounds.size() != ds.num_levels())
    throw std::invalid_argument(
        std::string(name()) + ": level_error_bounds has " +
        std::to_string(cfg.level_error_bounds.size()) +
        " entries but the dataset has " + std::to_string(ds.num_levels()) +
        " levels (need one bound per level, finest first)");
  if (cfg.block_size == 0)
    throw std::invalid_argument(std::string(name()) +
                                ": block_size must be > 0");

  TAC_SPAN("core.compress_levels");
  Timer total;
  // Levels are encoded concurrently into private chunks and merged in
  // level order, so the container and the report are stable regardless
  // of the worker count.
  std::vector<LevelPayload> levels(ds.num_levels());
  parallel_for(
      0, ds.num_levels(),
      [&](std::size_t l) {
        const LevelPick p = pick(ds.level(l), l, cfg);
        const CompressorBackend& encoder =
            p.method == method() ? *this : backend_for(p.method);
        levels[l] = encoder.compress_level_payload(ds.level(l), l, cfg);
        levels[l].report.method = p.method;
        levels[l].report.selection_seconds = p.seconds;
      },
      /*grain=*/1);

  CompressedAmr out;
  out.report.method = method();
  out.report.original_bytes = ds.original_bytes();
  ByteWriter w;
  PayloadIndexBuilder index = write_common_header(
      w, method(), ds, ds.num_levels(), cfg.sz.profile);
  for (LevelPayload& lvl : levels) {
    index.begin_payload();
    w.put_bytes(lvl.bytes);
    index.end_payload(lvl.report.method);
    out.report.levels.push_back(lvl.report);
  }
  index.finish();
  out.bytes = w.take();
  out.report.compressed_bytes = out.bytes.size();
  out.report.seconds = total.seconds();
  return out;
}

amr::AmrDataset CompressorBackend::decompress(
    ByteReader& r, amr::AmrDataset skeleton,
    const CommonHeader& header) const {
  TAC_SPAN("core.decompress_levels");
  for (std::size_t l = 0; l < skeleton.num_levels(); ++l)
    payload_owner(header, l).decompress_level_payload(
        r, skeleton.level(l), payload_profile(header, l));
  return skeleton;
}

amr::AmrLevel CompressorBackend::decompress_level(
    std::span<const std::uint8_t> container, const CommonHeader& header,
    std::size_t level) const {
  return read_level(*this, container, header, level,
                    [&] { return header.skeleton.level(level); });
}

LevelPayload CompressorBackend::compress_level_payload(
    const amr::AmrLevel&, std::size_t, const TacConfig&) const {
  throw std::logic_error(std::string(name()) +
                         " backend does not support per-level payloads");
}

void CompressorBackend::decompress_level_payload(
    ByteReader&, amr::AmrLevel&,
    std::optional<lossless::CodecProfile>) const {
  throw std::logic_error(std::string(name()) +
                         " backend does not support per-level payloads");
}

amr::AmrDataset decompress_any(std::span<const std::uint8_t> bytes) {
  TAC_SPAN_BYTES("core.decompress_any", bytes.size());
  ByteReader r(bytes);
  CommonHeader h = read_common_header(r);
  // v2+: every payload is about to be read — catch corruption up front as
  // a checksum error rather than a decoder misparse. No-op for v1.
  verify_payloads(bytes, h.index);
  // The header (still valid: only the skeleton is moved from) carries the
  // per-payload codec profiles and selectors the decoder dispatches on.
  return backend_for(h.method).decompress(
      r, zeroed_levels(std::move(h.skeleton)), h);
}

amr::AmrLevel decompress_level(std::span<const std::uint8_t> bytes,
                               std::size_t level) {
  ByteReader r(bytes);
  CommonHeader h = read_common_header(r);
  // This header is ours: the indexed path moves the level's mask out of
  // it instead of copying one byte per cell.
  return read_level(backend_for(h.method), bytes, h, level,
                    [&] { return std::move(h.skeleton.level(level)); });
}

namespace {

/// Method is a uint8_t tag, so a flat array covers the whole key space.
struct Registry {
  std::array<std::unique_ptr<CompressorBackend>, 256> slots;
  std::mutex mutex;
};

Registry& registry() {
  // The built-ins are installed on first access rather than via static
  // registrar objects: a static library would silently drop unreferenced
  // registration TUs, and this keeps the registry usable during static
  // initialization of client code.
  static Registry r;
  static const bool installed = [] {
    for (auto make :
         {detail::make_tac_backend, detail::make_oned_backend,
          detail::make_zmesh_backend, detail::make_upsample3d_backend,
          detail::make_auto_backend}) {
      auto backend = make();
      r.slots[static_cast<std::uint8_t>(backend->method())] =
          std::move(backend);
    }
    return true;
  }();
  (void)installed;
  return r;
}

}  // namespace

void register_backend(std::unique_ptr<CompressorBackend> backend) {
  if (!backend)
    throw std::invalid_argument("register_backend: null backend");
  Registry& r = registry();
  const auto tag = static_cast<std::uint8_t>(backend->method());
  const std::lock_guard<std::mutex> lock(r.mutex);
  if (r.slots[tag])
    throw std::invalid_argument(
        std::string("register_backend: method tag ") + std::to_string(tag) +
        " already registered to \"" + r.slots[tag]->name() + "\"");
  r.slots[tag] = std::move(backend);
}

const CompressorBackend* find_backend(Method m) noexcept {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return r.slots[static_cast<std::uint8_t>(m)].get();
}

const CompressorBackend& backend_for(Method m) {
  if (const CompressorBackend* b = find_backend(m)) return *b;
  throw std::runtime_error(
      "no compressor backend registered for method tag " +
      std::to_string(static_cast<unsigned>(m)));
}

std::vector<Method> registered_methods() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<Method> out;
  for (std::size_t tag = 0; tag < r.slots.size(); ++tag)
    if (r.slots[tag]) out.push_back(static_cast<Method>(tag));
  return out;
}

}  // namespace tac::core
