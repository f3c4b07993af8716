#include "core/backend.hpp"

#include <array>
#include <mutex>
#include <stdexcept>
#include <string>

namespace tac::core {

amr::AmrLevel CompressorBackend::decompress_level(
    std::span<const std::uint8_t> container, const CommonHeader& header,
    std::size_t level) const {
  if (level >= header.skeleton.num_levels())
    throw std::out_of_range(
        "decompress_level: level " + std::to_string(level) +
        " out of range (container has " +
        std::to_string(header.skeleton.num_levels()) + " levels)");
  // Full-decode fallback: every payload is read, so verify them all.
  verify_payloads(container, header.index);
  ByteReader r(container);
  r.seek(header.payload_offset);
  amr::AmrDataset full =
      decompress(r, zeroed_levels(header.skeleton), header);
  return std::move(full.level(level));
}

LevelPayload CompressorBackend::compress_level_payload(
    const amr::AmrLevel&, std::size_t, const TacConfig&) const {
  throw std::logic_error(std::string(name()) +
                         " backend does not support per-level payloads");
}

void CompressorBackend::decompress_level_payload(
    ByteReader&, amr::AmrLevel&, lossless::CodecProfile) const {
  throw std::logic_error(std::string(name()) +
                         " backend does not support per-level payloads");
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
