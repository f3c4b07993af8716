/// \file micro_hotpaths.cpp
/// \brief Isolated timings for every dispatched hot-path kernel, with the
/// scalar fallback (or a reference implementation) as the in-run baseline.
///
/// Unlike the micro_* google-benchmark harnesses this is a standalone main
/// so it builds without the benchmark package: CI runs it on every push.
/// Each kernel is measured in alternating A/B rounds inside the same time
/// window (the ratio is what matters — absolute numbers drift with machine
/// noise, the interleaved ratio does not) and the results are written to
/// BENCH_hotpaths.json next to the console table.
///
/// Scoreboard expectations wired into CI:
///   - huffman_decode must beat the bit-at-a-time reference by >= 4x,
///   - the fast-profile LZSS encoder (lzss2) must beat the legacy
///     bit-stream encoder by >= 1.2x on the mixed corpus,
///   - every vectorized kernel must be no slower than its scalar fallback,
///   - disabled telemetry (TAC_TRACE off) must cost <= 1% on the
///     instrumented huffman_decompress wrapper,
///   - sparse_level_decode (decompress_level of a 256^3 level holding 512
///     valid cells) must beat zero-filling a std::vector of the level's
///     volume by >= 4x: decode cost follows the cells the payload covers,
///     not the grid volume.

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "amr/amr_io.hpp"
#include "core/tac.hpp"
#include "lossless/huffman.hpp"
#include "lossless/lzss.hpp"
#include "sz/sz.hpp"

namespace {

using namespace tac;

constexpr std::size_t kElems = 1u << 21;  // 2M values per round
constexpr int kRounds = 5;                // alternating A/B rounds

/// Defeats dead-code elimination for kernels whose result is otherwise
/// unused (crc32, arena stores) without perturbing the timed loop.
volatile std::uint64_t g_sink;

/// Keeps the stores into `p` alive without reading them back (what
/// benchmark::DoNotOptimize does).
void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

struct KernelResult {
  std::string name;
  double a_seconds = 0;  ///< optimized path, summed over rounds
  double b_seconds = 0;  ///< baseline path, summed over rounds
  const char* baseline = "scalar";
  double mb_per_s = 0;  ///< optimized-path throughput over the input bytes

  [[nodiscard]] double speedup() const {
    return a_seconds > 0 ? b_seconds / a_seconds : 0.0;
  }
};

std::vector<double> smooth_field(std::size_t n) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(n);
  double acc = 0;
  for (auto& x : v) x = (acc += u(rng) * 0.05);
  return v;
}

/// Runs `a` and `b` in alternating rounds inside one time window so
/// machine-noise drift hits both sides equally.
template <class A, class B>
KernelResult ab(const std::string& name, std::size_t bytes, A&& a, B&& b) {
  KernelResult r;
  r.name = name;
  a();  // warm both paths (page in buffers, build tables)
  b();
  for (int round = 0; round < kRounds; ++round) {
    Timer t;
    a();
    r.a_seconds += t.seconds();
    t.reset();
    b();
    r.b_seconds += t.seconds();
  }
  r.mb_per_s = static_cast<double>(bytes) * kRounds / r.a_seconds / 1.0e6;
  return r;
}

KernelResult bench_sz_roundtrip() {
  const Dims3 dims{128, 128, 128};
  const auto data = smooth_field(dims.volume());
  const sz::SzConfig cfg{.mode = sz::ErrorBoundMode::kAbsolute,
                         .error_bound = 1e-3};
  auto run = [&] {
    const auto stream = sz::compress<double>(data, dims, cfg);
    (void)sz::decompress<double>(stream);
  };
  return ab(
      "sz_roundtrip", dims.volume() * sizeof(double),
      [&] {
        simd::force_scalar(false);
        run();
      },
      [&] {
        simd::force_scalar(true);
        run();
      });
}

KernelResult bench_scan_range() {
  const auto data = smooth_field(kElems);
  const std::span<const double> s(data);
  return ab(
      "scan_range", kElems * sizeof(double),
      [&] {
        simd::force_scalar(false);
        (void)sz::scan_range(s);
      },
      [&] {
        simd::force_scalar(true);
        (void)sz::scan_range(s);
      });
}

KernelResult bench_pack_sign_bits() {
  auto data = smooth_field(kElems);
  const std::span<const double> s(data);
  return ab(
      "pack_sign_bits", kElems * sizeof(double),
      [&] {
        simd::force_scalar(false);
        (void)sz::pack_sign_bits(s);
      },
      [&] {
        simd::force_scalar(true);
        (void)sz::pack_sign_bits(s);
      });
}

KernelResult bench_huffman_decode() {
  // Mid-entropy geometric spread over 1024 symbols (~8 bits/symbol) —
  // the regime of noisy quantization codes. The per-bit reference walks
  // one iteration per code bit; the table decoder is one probe per 1-2
  // symbols regardless of code length.
  std::mt19937 rng(23);
  std::vector<double> weights(1024);
  double w = 1.0;
  for (auto& x : weights) {
    x = w;
    w *= 0.99;
  }
  std::discrete_distribution<int> skew(weights.begin(), weights.end());
  std::vector<std::uint32_t> syms(kElems);
  for (auto& v : syms) v = 32256 + static_cast<std::uint32_t>(skew(rng));
  const auto table = lossless::huffman_build(syms);
  const auto payload = lossless::huffman_encode(table, syms);
  auto r = ab(
      "huffman_decode", payload.size(),
      [&] { (void)lossless::huffman_decode(table, payload, syms.size()); },
      [&] {
        (void)lossless::huffman_decode_reference(table, payload, syms.size());
      });
  r.baseline = "per-bit reference";
  return r;
}

KernelResult bench_crc32() {
  std::vector<std::uint8_t> data(kElems * 8);
  std::mt19937_64 rng(5);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  auto r = ab(
      "crc32", data.size(), [&] { g_sink = g_sink + crc32(data); },
      [&] { g_sink = g_sink + detail::crc32_bytewise(data); });
  r.baseline = "bytewise";
  return r;
}

KernelResult bench_mask_roundtrip() {
  // Mixed valid/empty runs like a refinement mask.
  std::vector<std::uint8_t> mask(kElems);
  std::mt19937 rng(9);
  std::size_t i = 0;
  while (i < mask.size()) {
    const std::size_t run = 1 + rng() % 200;
    const std::uint8_t bit = rng() & 1;
    for (std::size_t j = 0; j < run && i < mask.size(); ++j) mask[i++] = bit;
  }
  const auto packed = amr::pack_mask(mask);
  // No dispatched scalar twin (the word-wise path is endian-gated, not
  // CPUID-gated): measure absolute round-trip throughput, ratio vs itself.
  std::vector<std::uint8_t> unpacked(mask.size());
  auto roundtrip = [&] {
    const auto p = amr::pack_mask(mask);
    amr::unpack_mask_into(p, unpacked);
  };
  auto r = ab("mask_roundtrip", mask.size(), roundtrip, roundtrip);
  r.baseline = "self";
  return r;
}

/// The byte mix the lossless stage actually sees: a Huffman-coded payload
/// (mid entropy — exercises the incompressible-skip heuristic), packed
/// sign/mode bits (long constant runs — exercises match emission), and a
/// stride-repetitive block index stream (medium-distance matches).
std::vector<std::uint8_t> lzss_corpus() {
  std::vector<std::uint8_t> corpus;
  std::mt19937 rng(41);
  std::vector<double> weights(256);
  double w = 1.0;
  for (auto& x : weights) {
    x = w;
    w *= 0.97;
  }
  std::discrete_distribution<int> skew(weights.begin(), weights.end());
  std::vector<std::uint32_t> syms(kElems / 4);
  for (auto& v : syms) v = 32700 + static_cast<std::uint32_t>(skew(rng));
  const auto table = lossless::huffman_build(syms);
  const auto huff = lossless::huffman_encode(table, syms);
  corpus.insert(corpus.end(), huff.begin(), huff.end());
  // Run-heavy segment: long same-byte stretches with occasional flips.
  for (std::size_t i = 0; i < kElems / 4;) {
    const std::size_t run = 16 + rng() % 512;
    const std::uint8_t b = static_cast<std::uint8_t>(rng() & 3);
    for (std::size_t j = 0; j < run && i < kElems / 4; ++j, ++i)
      corpus.push_back(b);
  }
  // Stride-repetitive segment: a 67-byte pattern with sparse noise.
  std::vector<std::uint8_t> pattern(67);
  for (auto& b : pattern) b = static_cast<std::uint8_t>(rng());
  for (std::size_t i = 0; i < kElems / 4; ++i)
    corpus.push_back(rng() % 97 == 0 ? static_cast<std::uint8_t>(rng())
                                     : pattern[i % pattern.size()]);
  return corpus;
}

KernelResult bench_lzss_compress() {
  const auto corpus = lzss_corpus();
  auto r = ab(
      "lzss_compress", corpus.size(),
      [&] { (void)lossless::lzss2_compress(corpus); },
      [&] { (void)lossless::lzss_compress(corpus); });
  r.baseline = "legacy bit-stream";
  return r;
}

KernelResult bench_lzss_decompress() {
  const auto corpus = lzss_corpus();
  const auto fast = lossless::lzss2_compress(corpus);
  const auto legacy = lossless::lzss_compress(corpus);
  auto r = ab(
      "lzss_decompress", corpus.size(),
      [&] { (void)lossless::lzss2_decompress(fast); },
      [&] { (void)lossless::lzss_decompress(legacy); });
  r.baseline = "legacy bit-stream";
  return r;
}

/// Disabled-telemetry overhead on a real wrapper. A runs the instrumented
/// huffman_decompress entry point with telemetry off (its span and
/// counter reduce to one relaxed atomic load and a predicted branch per
/// call); B performs the identical parse + table build + decode by hand
/// with no instrumentation in the path. Many calls on a small blob keep
/// the per-call overhead measurable. The CI floor asserts the off mode
/// costs <= 1% — i.e. a "zero cost when off" regression (say, a lock or
/// clock read sneaking into the disabled check) fails the run.
KernelResult bench_telemetry_off_overhead() {
  constexpr std::size_t kSyms = 1u << 15;
  constexpr int kIters = 64;
  std::mt19937 rng(29);
  std::vector<double> weights(512);
  double w = 1.0;
  for (auto& x : weights) {
    x = w;
    w *= 0.98;
  }
  std::discrete_distribution<int> skew(weights.begin(), weights.end());
  std::vector<std::uint32_t> syms(kSyms);
  for (auto& v : syms) v = 32000 + static_cast<std::uint32_t>(skew(rng));
  telemetry::set_mode(telemetry::Mode::kOff);
  const auto blob = lossless::huffman_compress(syms);
  auto r = ab(
      "telemetry_off", kSyms * sizeof(std::uint32_t) * kIters,
      [&] {
        for (int i = 0; i < kIters; ++i) {
          const auto out = lossless::huffman_decompress(blob);
          g_sink = g_sink + out.size();
        }
      },
      [&] {
        for (int i = 0; i < kIters; ++i) {
          ByteReader br(blob);
          const auto count = static_cast<std::size_t>(br.get_varint());
          const auto table = lossless::huffman_table_deserialize(br.get_blob());
          const auto out = lossless::huffman_decode(table, br.get_blob(), count);
          g_sink = g_sink + out.size();
        }
      });
  r.baseline = "uninstrumented";
  return r;
}

KernelResult bench_arena_vs_heap() {
  constexpr std::size_t kChunk = 1u << 16;  // 64K doubles per scratch buffer
  constexpr int kIters = 2048;
  auto r = ab(
      "arena_alloc", kChunk * sizeof(double) * kIters,
      [&] {
        for (int i = 0; i < kIters; ++i) {
          ArenaScope scope;
          auto s = scope.alloc<double>(kChunk);
          s[0] = 1.0;
          s[kChunk - 1] = 2.0;
          g_sink = g_sink + static_cast<std::uint64_t>(s[0] + s[kChunk - 1]);
        }
      },
      [&] {
        for (int i = 0; i < kIters; ++i) {
          std::vector<double> v(kChunk);
          v[0] = 1.0;
          v[kChunk - 1] = 2.0;
          g_sink = g_sink + static_cast<std::uint64_t>(v[0] + v[kChunk - 1]);
        }
      });
  r.baseline = "heap vector";
  return r;
}

/// One-level read of a sparse finest level, the Run2-style case: a 256^3
/// grid whose 512 valid cells sit in eight 4^3 clusters. A decodes the
/// level through the container index (header parse, CRC, the payload's
/// eight sub-blocks, into a lazily-zeroed grid) and frees it; B only
/// zero-fills and frees a std::vector of the same volume — the floor any
/// decoder that touches every cell of the grid pays. Both sides run on one
/// worker: waking a parallel region's threads for eight small sub-blocks
/// costs from under 1 ms to tens of ms depending on the host's scheduler,
/// which would swamp the per-cell work this row measures.
KernelResult bench_sparse_level_decode() {
  const Dims3 d{256, 256, 256};
  amr::AmrLevel lv(d);
  std::mt19937 rng(13);
  for (int c = 0; c < 8; ++c) {
    const std::size_t x0 = 8 * (rng() % 32), y0 = 8 * (rng() % 32),
                      z0 = 8 * (rng() % 32);
    for (std::size_t z = z0; z < z0 + 4; ++z)
      for (std::size_t y = y0; y < y0 + 4; ++y)
        for (std::size_t x = x0; x < x0 + 4; ++x) {
          lv.mask(x, y, z) = 1;
          lv.data(x, y, z) = 1.0 + 1e-3 * static_cast<double>(x + y + z);
        }
  }
  const amr::AmrDataset ds("sparse", {std::move(lv)});
  core::TacConfig cfg;
  cfg.sz.error_bound = 1e-4;
  const auto bytes = core::tac_compress(ds, cfg).bytes;
  const ParallelismGuard one_worker(1);
  auto r = ab(
      "sparse_level_decode", d.volume() * sizeof(double),
      [&] {
        const amr::AmrLevel out = core::decompress_level(bytes, 0);
        escape(out.data.data());
      },
      [&] {
        std::vector<double> grid(d.volume());
        escape(grid.data());
      });
  r.baseline = "zero-fill vector";
  return r;
}

void write_json(const std::vector<KernelResult>& results) {
  std::FILE* f = std::fopen("BENCH_hotpaths.json", "w");
  if (!f) return;
  std::fprintf(f, "{\n  \"bench\": \"micro_hotpaths\",\n  \"rounds\": %d,\n",
               kRounds);
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"seconds\": %.6f, "
                 "\"baseline\": \"%s\", \"baseline_seconds\": %.6f, "
                 "\"speedup\": %.3f, \"mb_per_s\": %.1f}%s\n",
                 r.name.c_str(), r.a_seconds, r.baseline, r.b_seconds,
                 r.speedup(), r.mb_per_s, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_hotpaths.json\n");
}

}  // namespace

int main() {
  std::printf("hot-path kernels, %d alternating rounds each\n", kRounds);
  std::printf("%-20s %12s %12s %9s %10s  %s\n", "kernel", "opt(s)", "base(s)",
              "speedup", "MB/s", "baseline");

  std::vector<KernelResult> results;
  results.push_back(bench_sz_roundtrip());
  results.push_back(bench_scan_range());
  results.push_back(bench_pack_sign_bits());
  results.push_back(bench_huffman_decode());
  results.push_back(bench_crc32());
  results.push_back(bench_lzss_compress());
  results.push_back(bench_lzss_decompress());
  results.push_back(bench_mask_roundtrip());
  results.push_back(bench_arena_vs_heap());
  results.push_back(bench_telemetry_off_overhead());
  results.push_back(bench_sparse_level_decode());

  bool ok = true;
  for (const auto& r : results) {
    std::printf("%-20s %12.4f %12.4f %8.2fx %10.1f  %s\n", r.name.c_str(),
                r.a_seconds, r.b_seconds, r.speedup(), r.mb_per_s, r.baseline);
    if (r.name == "huffman_decode" && r.speedup() < 4.0) {
      std::printf("FAIL: huffman_decode speedup %.2fx < 4x target\n",
                  r.speedup());
      ok = false;
    }
    if (r.name == "lzss_compress" && r.speedup() < 1.2) {
      std::printf("FAIL: lzss_compress speedup %.2fx < 1.2x target\n",
                  r.speedup());
      ok = false;
    }
    if (r.name == "sparse_level_decode" && r.speedup() < 4.0) {
      std::printf("FAIL: sparse_level_decode speedup %.2fx < 4x target\n",
                  r.speedup());
      ok = false;
    }
    if (r.name == "telemetry_off" && r.speedup() < 0.99) {
      std::printf("FAIL: disabled telemetry costs %.1f%% on huffman "
                  "decode (budget: <= 1%%)\n",
                  100.0 * (1.0 / r.speedup() - 1.0));
      ok = false;
    }
  }
  write_json(results);
  return ok ? 0 : 1;
}
