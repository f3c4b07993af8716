/// \file main.cpp
/// \brief The repository benchmark: three closed-loop workloads over the
/// Table-1 presets, each operation checked, printing end-to-end metrics
/// (or, with `--trace 1`, per-layer metrics) as one JSON line.
///
/// Every layer is measured from outside: this file times calls into the
/// library's public functions. The library's own stage totals are read
/// only in the traced run, to split `sz` time from the lossless tail.
/// See README.md in this directory for the workloads, the metric table
/// and how to run it; run.py builds this program and invokes it.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "amr/snapshot.hpp"
#include "analysis/metrics.hpp"
#include "common/arena.hpp"
#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "common/telemetry.hpp"
#include "core/backend.hpp"
#include "core/block_grid.hpp"
#include "core/extraction.hpp"
#include "core/gsp.hpp"
#include "core/selector.hpp"
#include "core/tac.hpp"
#include "simnyx/generator.hpp"
#include "sz/resolve.hpp"
#include "sz/sz.hpp"

namespace {

using namespace tac;
using Clock = std::chrono::steady_clock;

constexpr double kMB = 1e6;
/// Setups per timed run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Timed passes per run at least, so every cell has a median of three.
constexpr int kMinPasses = 3;
constexpr double kAbsBounds[] = {1e8, 1e9, 1e10};
/// Relative bound of the extract workload's six-field snapshot: the
/// fields span different units, so one absolute bound would not fit all.
constexpr double kSnapshotRelBound = 1e-3;
constexpr double kExtractT4Bound = 1e9;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linearly interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ------------------------------------------------------------------ trace

/// In-memory span recorder for the traced run. Spans nest by call order
/// on the main thread; the library's worker threads are never traced
/// here, only the public calls the benchmark makes.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    double t0;
    double t1;
  };

  int open(const char* name) {
    spans_.push_back({name, current_, now(), 0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].t1 = now();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// Inclusive and self (minus direct children) seconds per span name.
  struct Totals {
    double total = 0;
    double self = 0;
    std::size_t calls = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      const double d = spans_[i].t1 - spans_[i].t0;
      t.total += d;
      t.self += d - child[i];
      t.calls += 1;
    }
    return out;
  }

  /// Chrome-trace JSON (complete events, microseconds).
  bool write(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                    "\"ts\": %.3f, \"dur\": %.3f}%s\n",
                    s.name, s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                    i + 1 == spans_.size() ? "" : ",");
      f << buf;
    }
    f << "]}\n";
    return static_cast<bool>(f);
  }

 private:
  double now() const { return seconds_since(epoch_); }
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span; a no-op when `t` is null (the untraced passes).
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t), id_(t ? t->open(name) : -1) {}
  ~Scope() {
    if (t_) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Times `fn` on the steady clock, under a span when tracing.
template <class Fn>
double timed(Tracer* tr, const char* name, Fn&& fn) {
  const Scope s(tr, name);
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

// ------------------------------------------------------------ correctness

struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

double failed_frac(const Counts& n) {
  return n.attempted ? static_cast<double>(n.failed) /
                           static_cast<double>(n.attempted)
                     : 0.0;
}

void fail(Counts& n, const std::string& what) {
  n.failed += 1;
  if (n.failed <= 10) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

/// Exact identity of a decoded level: CRC of its valid values in raster
/// order and of its mask, plus the number of invalid cells that are not
/// exactly zero (must be 0).
struct LevelPrint {
  std::uint32_t data_crc = 0;
  std::uint32_t mask_crc = 0;
  std::size_t nonzero_invalid = 0;
  friend bool operator==(const LevelPrint&, const LevelPrint&) = default;
};

LevelPrint fingerprint(const amr::AmrLevel& lv) {
  LevelPrint p;
  double buf[4096];
  std::size_t fill = 0;
  const auto flush = [&] {
    p.data_crc = crc32({reinterpret_cast<const std::uint8_t*>(buf),
                        fill * sizeof(double)},
                       p.data_crc);
    fill = 0;
  };
  for (std::size_t i = 0; i < lv.data.size(); ++i) {
    if (lv.mask[i]) {
      buf[fill++] = lv.data[i];
      if (fill == std::size(buf)) flush();
    } else if (lv.data[i] != 0.0) {
      p.nonzero_invalid += 1;
    }
  }
  flush();
  p.mask_crc = crc32({lv.mask.data(), lv.mask.size()});
  return p;
}

std::vector<LevelPrint> fingerprint(const amr::AmrDataset& ds) {
  std::vector<LevelPrint> out;
  for (const amr::AmrLevel& lv : ds.levels()) out.push_back(fingerprint(lv));
  return out;
}

/// The absolute bound TAC applies to level `l` under `cfg` (relative
/// bounds resolve against the level's valid range).
double level_bound(const core::TacConfig& cfg, const amr::AmrLevel& lv) {
  if (cfg.sz.mode != sz::ErrorBoundMode::kRelative) return cfg.sz.error_bound;
  const auto [lo, hi] = lv.valid_range();
  return sz::resolve_range_bound(cfg.sz, lo, hi).error_bound;
}

/// Empty string when |x - x̂| <= eb on every valid cell, invalid cells
/// decode to exact zeros and the masks agree; else what broke.
std::string check_bound(const amr::AmrDataset& orig, const amr::AmrDataset& rec,
                        const core::TacConfig& cfg) {
  if (orig.num_levels() != rec.num_levels()) return "level count differs";
  for (std::size_t l = 0; l < orig.num_levels(); ++l) {
    const amr::AmrLevel& o = orig.level(l);
    const amr::AmrLevel& r = rec.level(l);
    if (!(o.dims() == r.dims())) return "level extents differ";
    const double eb = level_bound(cfg, o);
    for (std::size_t i = 0; i < o.data.size(); ++i) {
      if (o.mask[i] != r.mask[i]) return "mask differs";
      if (o.mask[i] ? !(std::fabs(o.data[i] - r.data[i]) <= eb)
                    : r.data[i] != 0.0)
        return "level " + std::to_string(l) + " cell " + std::to_string(i) +
               (o.mask[i] ? " exceeds the error bound" : " is not zero");
    }
  }
  return {};
}

bool same_level(const amr::AmrLevel& a, const amr::AmrLevel& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data.data(), b.data.data(),
                     a.data.size() * sizeof(double)) == 0 &&
         std::memcmp(a.mask.data(), b.mask.data(), a.mask.size()) == 0;
}

// -------------------------------------------------------------- workloads

struct Cell {
  std::string name;
  std::size_t dataset = 0;  ///< index into Inputs::datasets
  core::TacConfig cfg;
  core::Method method = core::Method::kTac;
};

/// Everything one setup produces.
struct Inputs {
  std::vector<amr::AmrDataset> datasets;
  std::vector<Cell> cells;
  double generate_s = 0;
  // extract only: the two containers, built once, and the fingerprints
  // of their full reference decode (fields in order, then Run2_T4).
  std::vector<std::uint8_t> snapshot;
  std::vector<std::string> fields;
  std::vector<std::uint8_t> t4;
  std::vector<std::vector<LevelPrint>> ref;
  std::vector<double> compress_s;  ///< one sample per container build
  std::size_t original_bytes = 0;
  double psnr_sum = 0;
};

struct Workload {
  std::string name;
  unsigned workers = 1;
};

core::TacConfig abs_config(double eb) {
  core::TacConfig cfg;
  cfg.sz = {.mode = sz::ErrorBoundMode::kAbsolute, .error_bound = eb,
            .profile = lossless::CodecProfile::kFast};
  return cfg;
}

const simnyx::DatasetPreset& preset(const std::vector<simnyx::DatasetPreset>& all,
                                    const std::string& name) {
  for (const auto& p : all)
    if (p.name == name) return p;
  throw std::logic_error("no preset " + name);
}

/// What the seed changes: the last mantissa bit of each valid value of
/// one fixed realization per preset (the generator's default seed), set
/// from a splitmix64 stream. Inputs differ per seed; their structure,
/// ranges and compressibility do not. Fresh realizations, axis
/// permutations and block-aligned shifts were tried and moved PSNR or
/// speed by 10-30% between seeds (README.md).
amr::AmrDataset perturb(amr::AmrDataset ds, std::uint64_t seed) {
  std::uint64_t bits = 0;
  int left = 0;
  for (amr::AmrLevel& lv : ds.levels())
    for (std::size_t i = 0; i < lv.data.size(); ++i) {
      if (!lv.mask[i] || lv.data[i] == 0.0) continue;
      if (left == 0) {  // splitmix64
        std::uint64_t z = (seed += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        bits = z ^ (z >> 31);
        left = 64;
      }
      const auto v = std::bit_cast<std::uint64_t>(lv.data[i]);
      lv.data[i] = std::bit_cast<double>((v & ~1ULL) | (bits & 1));
      bits >>= 1;
      --left;
    }
  return ds;
}

/// Generates the workload's inputs for `seed` on `gen_workers` workers;
/// for `extract` also builds both containers and their reference decode
/// on the workload's own workers (checked against the error bound,
/// counted as operations).
Inputs setup(const Workload& w, std::uint64_t seed, unsigned gen_workers,
             Counts& n) {
  Inputs in;
  const auto presets = simnyx::table1_presets(2);
  std::vector<std::string> names;
  set_parallelism(gen_workers);
  const auto t0 = Clock::now();
  if (w.name == "extract") {
    auto f = simnyx::generate_fields({});  // 128^3 finest, 2 levels (23% / 77%)
    for (amr::AmrDataset* ds :
         {&f.baryon_density, &f.dark_matter_density, &f.temperature,
          &f.velocity_x, &f.velocity_y, &f.velocity_z})
      in.datasets.push_back(perturb(std::move(*ds), seed));
    in.datasets.push_back(
        perturb(simnyx::generate_preset(preset(presets, "Run2_T4")), seed));
  } else {
    for (const auto& p : presets) {
      if (w.name == "dense_1t" && p.name.rfind("Run1_", 0) != 0) continue;
      in.datasets.push_back(perturb(simnyx::generate_preset(p), seed));
      names.push_back(p.name);
    }
  }
  in.generate_s = seconds_since(t0);
  set_parallelism(w.workers);

  if (w.name != "extract") {
    const core::Method m =
        w.name == "dense_1t" ? core::Method::kTac : core::Method::kAuto;
    for (std::size_t d = 0; d < in.datasets.size(); ++d)
      for (const double eb : kAbsBounds) {
        char name[64];
        std::snprintf(name, sizeof name, "%s/%s/%.0e",
                      names[d].c_str(), core::to_string(m), eb);
        in.cells.push_back({name, d, abs_config(eb), m});
      }
    return in;
  }

  core::TacConfig rel = abs_config(kSnapshotRelBound);
  rel.sz.mode = sz::ErrorBoundMode::kRelative;
  amr::Snapshot snap;
  for (std::size_t i = 0; i + 1 < in.datasets.size(); ++i) {
    snap.fields.push_back(in.datasets[i]);
    in.fields.push_back(in.datasets[i].field_name());
    in.cells.push_back({"snapshot/" + in.fields.back(), i, rel, core::Method::kTac});
  }
  in.cells.push_back({"Run2_T4/TAC", in.datasets.size() - 1,
                      abs_config(kExtractT4Bound), core::Method::kTac});

  // Built twice: the repeat must give identical bytes, and gives
  // compress_mbs a second sample per setup.
  for (int rep = 0; rep < 2; ++rep) {
    n.attempted += 2;
    const auto tc = Clock::now();
    auto snapshot = core::compress_snapshot(snap, rel, core::Method::kTac);
    auto t4 = core::tac_compress(in.datasets.back(), in.cells.back().cfg).bytes;
    in.compress_s.push_back(seconds_since(tc));
    if (rep == 0) {
      in.snapshot = std::move(snapshot);
      in.t4 = std::move(t4);
    } else if (snapshot != in.snapshot || t4 != in.t4) {
      fail(n, "extract containers differ between two builds");
    }
  }
  snap = {};

  n.attempted += 2;
  amr::Snapshot dec = core::decompress_snapshot(in.snapshot);
  amr::AmrDataset t4 = core::decompress_any(in.t4);
  dec.fields.push_back(std::move(t4));

  for (std::size_t i = 0; i < in.cells.size(); ++i) {
    const amr::AmrDataset& orig = in.datasets[i];
    in.original_bytes += orig.original_bytes();
    if (const std::string bad = check_bound(orig, dec.fields.at(i), in.cells[i].cfg);
        !bad.empty())
      fail(n, "reference decode of " + in.cells[i].name + ": " + bad);
    in.psnr_sum += analysis::distortion_amr(orig, dec.fields[i]).psnr;
    in.ref.push_back(fingerprint(dec.fields[i]));
  }
  return in;
}

/// Per-cell state of the round-trip workloads, kept across passes.
struct CellRun {
  std::vector<std::uint8_t> container;  ///< first compress: later ones must match
  std::vector<LevelPrint> decoded;      ///< first decode: later ones must match
  double psnr = 0;
  std::vector<double> compress_s;
  std::vector<double> decompress_s;
};

/// One pass over the cells: compress -> decompress_any -> verify, then a
/// random-access decompress_level of the finest level checked against
/// the full decode. Appends timings when `record`. Only the finest level
/// is read: the latency percentiles of a mix of every level would sit on
/// the cliffs between the per-level clusters and jump between runs.
void round_trip_pass(const Inputs& in, std::vector<CellRun>& runs, bool record,
                     Counts& n, std::vector<double>& read_s, Tracer* tr) {
  for (std::size_t c = 0; c < in.cells.size(); ++c) {
    const Cell& cell = in.cells[c];
    const amr::AmrDataset& ds = in.datasets[cell.dataset];
    CellRun& run = runs[c];
    try {
      n.attempted += 1;
      core::CompressedAmr out;
      const double ct = timed(tr, "op.compress", [&] {
        out = core::backend_for(cell.method).compress(ds, cell.cfg);
      });
      if (run.container.empty())
        run.container = out.bytes;
      else if (out.bytes != run.container)
        fail(n, cell.name + ": compressed bytes differ from the first repeat");

      n.attempted += 1;
      amr::AmrDataset rec;
      const double dt = timed(tr, "op.decompress_any",
                              [&] { rec = core::decompress_any(out.bytes); });
      if (const std::string bad = check_bound(ds, rec, cell.cfg); !bad.empty())
        fail(n, cell.name + ": " + bad);
      const auto print = fingerprint(rec);
      if (run.decoded.empty()) {
        run.decoded = print;
        run.psnr = analysis::distortion_amr(ds, rec).psnr;
      } else if (print != run.decoded) {
        fail(n, cell.name + ": decode differs from the first repeat");
      }
      if (record) {
        run.compress_s.push_back(ct);
        run.decompress_s.push_back(dt);
      }

      n.attempted += 1;
      amr::AmrLevel finest;
      const double rt = timed(tr, "op.decompress_level",
                              [&] { finest = core::decompress_level(out.bytes, 0); });
      if (!same_level(finest, rec.level(0)))
        fail(n, cell.name + ": decompress_level(0) differs from decompress_any");
      if (record) read_s.push_back(rt);
    } catch (const std::exception& e) {
      fail(n, cell.name + ": threw " + e.what());
    }
  }
}

/// One cycle of the extract workload's random-access reads, each checked
/// against the setup's reference decode. A field's full decode time also
/// goes to its CellRun, for decompress_mbs.
void extract_cycle(const Inputs& in, std::vector<CellRun>& runs, bool record,
                   Counts& n, std::vector<double>& read_s, Tracer* tr) {
  const auto op = [&](const std::string& what, const char* span, auto&& read,
                      const auto& want) {
    n.attempted += 1;
    try {
      decltype(read()) got;
      const double t = timed(tr, span, [&] { got = read(); });
      if (fingerprint(got) != want)
        fail(n, what + ": differs from the reference decode");
      if (record) read_s.push_back(t);
      return t;
    } catch (const std::exception& e) {
      fail(n, what + ": threw " + e.what());
      return 0.0;
    }
  };
  for (std::size_t f = 0; f < in.fields.size(); ++f) {
    const double t = op(
        "decompress_field(" + in.fields[f] + ")", "op.decompress_field",
        [&] { return core::decompress_field(in.snapshot, in.fields[f]); },
        in.ref[f]);
    if (record) runs[f].decompress_s.push_back(t);
  }
  for (std::size_t f = 0; f < in.fields.size(); ++f)
    for (std::size_t k = 0; k < in.ref[f].size(); ++k)
      op(in.fields[f] + " decompress_level(" + std::to_string(k) + ")",
         "op.field_level",
         [&] {
           return core::decompress_level(
               core::snapshot_field_bytes(in.snapshot, in.fields[f]), k);
         },
         in.ref[f][k]);
  for (std::size_t k = 0; k < in.ref.back().size(); ++k)
    op("Run2_T4 decompress_level(" + std::to_string(k) + ")", "op.t4_level",
       [&] { return core::decompress_level(in.t4, k); }, in.ref.back()[k]);
}

/// One pass of the workload's timed loop.
void workload_pass(const Workload& w, const Inputs& in, std::vector<CellRun>& runs,
                   bool record, Counts& n, std::vector<double>& read_s,
                   Tracer* tr) {
  if (w.name == "extract")
    extract_cycle(in, runs, record, n, read_s, tr);
  else
    round_trip_pass(in, runs, record, n, read_s, tr);
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Counts& n, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += n.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(n.attempted);
  s += ", \"failed\": " + std::to_string(n.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : -1.0,
                  metrics[i].unit.c_str());
    s += buf;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

std::string json_escape(const std::string& in) {
  std::string out;
  for (const char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMB;  // ru_maxrss: KiB
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0x5EED;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

void print_fingerprint(const Options& o, const Workload& w) {
  const char* force_scalar = std::getenv("TAC_FORCE_SCALAR");
  const char* trace_env = std::getenv("TAC_TRACE");
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "fingerprint {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"cpu\": \"%s\", \"nproc\": %u, \"workers\": %u, "
      "\"simd\": \"%s\", \"compiler\": \"%s\", \"flags\": \"%s\", "
      "\"build_type\": \"%s\", \"openmp\": %s, \"codec_profile\": \"%s\", "
      "\"tac_force_scalar\": %s, \"tac_trace_env\": \"%s\", "
      "\"telemetry_in_timed_runs\": \"off\", \"git_sha\": \"%s\", "
      "\"source_digest\": \"%s\"}\n",
      w.name.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, json_escape(cpu_model()).c_str(),
      std::max(1u, std::thread::hardware_concurrency()), w.workers,
      simd::level_name(simd::active_level()), json_escape(compiler).c_str(),
      json_escape(PERFBENCH_CXX_FLAGS).c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_OPENMP ? "true" : "false",
      lossless::to_string(lossless::default_profile()),
      (force_scalar && force_scalar[0] != '\0' && force_scalar[0] != '0')
          ? "true"
          : "false",
      json_escape(trace_env ? trace_env : "").c_str(),
      json_escape(o.git_sha).c_str(), json_escape(o.source_digest).c_str());
}

// ------------------------------------------------------------ timed run

std::vector<Metric> end_to_end(const Workload& w, const Inputs& in,
                               const std::vector<CellRun>& runs,
                               const std::vector<double>& read_s,
                               const std::vector<double>& setup_s,
                               const std::vector<double>& setup_compress_s) {
  double compress_mbs = 0, decompress_mbs = 0, ratio = 0, psnr = 0;
  if (w.name == "extract") {
    // The read loop encodes nothing: the setup's compress is this
    // workload's, its median over the setups. Decompression is the loop's
    // whole-field decode, per-field medians over the cycles.
    const double bytes = static_cast<double>(in.original_bytes);
    compress_mbs = bytes / median(setup_compress_s) / kMB;
    double field_bytes = 0, field_s = 0;
    for (std::size_t f = 0; f < in.fields.size(); ++f) {
      field_bytes += static_cast<double>(in.datasets[f].original_bytes());
      field_s += median(runs[f].decompress_s);
    }
    decompress_mbs = field_bytes / field_s / kMB;
    ratio = bytes / static_cast<double>(in.snapshot.size() + in.t4.size());
    psnr = in.psnr_sum / static_cast<double>(in.cells.size());
  } else {
    // Per-cell medians over the repeats, summed over the cells.
    double bytes = 0, stored = 0, ct = 0, dt = 0;
    for (std::size_t c = 0; c < runs.size(); ++c) {
      bytes += static_cast<double>(in.datasets[in.cells[c].dataset].original_bytes());
      stored += static_cast<double>(runs[c].container.size());
      ct += median(runs[c].compress_s);
      dt += median(runs[c].decompress_s);
      psnr += runs[c].psnr;
    }
    compress_mbs = bytes / ct / kMB;
    decompress_mbs = bytes / dt / kMB;
    ratio = bytes / stored;
    psnr /= static_cast<double>(runs.size());
  }
  return {
      {"compress_mbs", compress_mbs, "MB/s"},
      {"decompress_mbs", decompress_mbs, "MB/s"},
      {"compression_ratio", ratio, "ratio"},
      {"psnr_db", psnr, "dB"},
      {"extract_ms_p50", 1e3 * percentile(read_s, 0.5), "ms"},
      {"extract_ms_p90", 1e3 * percentile(read_s, 0.9), "ms"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

unsigned generation_workers() {
  return std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
}

int timed_run(const Options& o, const Workload& w) {
  telemetry::set_mode(telemetry::Mode::kOff);
  Counts n;
  Inputs in;
  std::vector<double> setup_s, setup_compress_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in = {};
    const auto t0 = Clock::now();
    in = setup(w, o.seed, generation_workers(), n);
    setup_s.push_back(seconds_since(t0));
    setup_compress_s.insert(setup_compress_s.end(), in.compress_s.begin(),
                            in.compress_s.end());
  }

  // No separate warm-up: the setups already ran the allocator and the
  // thread pool hot, and per-cell medians drop a slow first pass.
  std::vector<CellRun> runs(in.cells.size());
  std::vector<double> read_s;
  const auto t0 = Clock::now();
  int passes = 0;
  while (passes < kMinPasses || seconds_since(t0) < o.seconds) {
    workload_pass(w, in, runs, /*record=*/true, n, read_s, nullptr);
    ++passes;
  }
  const double measured = seconds_since(t0);

  const auto metrics = end_to_end(w, in, runs, read_s, setup_s,
                                  setup_compress_s);
  std::printf("summary: %d passes in %.2f s, %zu random-access reads, "
              "failed_ops_frac %.6g (%llu of %llu)\n",
              passes, measured, read_s.size(),
              failed_frac(n), static_cast<unsigned long long>(n.failed),
              static_cast<unsigned long long>(n.attempted));
  print_result(n, metrics);
  return n.failed == 0 ? 0 : 1;
}

// ----------------------------------------------------------- traced run

/// Counts and byte totals gathered by the layer pass (times come from
/// the tracer's spans).
struct LayerCounts {
  double sz_in_bytes = 0, sz_values = 0, outliers = 0;
  double huffman_bytes = 0, outlier_bytes = 0, metadata_bytes = 0;
  double subblocks = 0, groups = 0;
  double tac_wins = 0, oned_wins = 0;
  double skeleton_bytes = 0;
  double level_sum = 0, level_max = 0, backend_wall = 0;
  double decode_levels = 0, decode_any = 0, decode_level_net = 0;
};

/// The TAC level pipeline re-enacted through public calls, one span per
/// stage: occupancy -> select_strategy (-> relative-bound resolution) ->
/// extract -> gather/pad -> sz::compress (+ peek, and the matching
/// sz::decompress, checked).
/// Runs with the library's stage counters on only inside sz calls.
void mirror_level(const amr::AmrLevel& lv, const core::TacConfig& cfg,
                  Tracer& tr, LayerCounts& lc, Counts& n) {
  const Scope level_span(&tr, "mirror.level");
  const core::BlockGrid grid(lv.dims(), cfg.block_size);
  Array3D<std::uint8_t> occ;
  double density = 0;
  timed(&tr, "core.occupancy", [&] {
    occ = core::block_occupancy(lv, grid);
    density = core::occupancy_density(occ);
  });
  core::Strategy strategy = core::Strategy::kOpST;
  timed(&tr, "core.select_strategy", [&] {
    strategy = cfg.force_strategy.value_or(
        core::select_strategy(density, cfg.t1, cfg.t2));
  });
  sz::SzConfig level_cfg = cfg.sz;
  if (cfg.sz.mode == sz::ErrorBoundMode::kRelative)
    timed(&tr, "core.resolve_bound", [&] {
      const auto [lo, hi] = lv.valid_range();
      level_cfg = sz::resolve_range_bound(cfg.sz, lo, hi);
    });

  const auto encode = [&](std::span<const double> data, Dims3 dims,
                          std::size_t nblocks) {
    std::vector<std::uint8_t> stream;
    std::vector<double> back;
    telemetry::set_mode(telemetry::Mode::kCounters);
    timed(&tr, "sz.compress", [&] {
      stream = sz::compress<double>(data, dims, level_cfg, nblocks);
    });
    telemetry::set_mode(telemetry::Mode::kOff);
    sz::SzStreamInfo info;
    timed(&tr, "sz.peek", [&] { info = sz::peek(stream); });
    telemetry::set_mode(telemetry::Mode::kCounters);
    timed(&tr, "sz.decompress", [&] {
      back = sz::decompress<double>(stream, level_cfg.profile);
    });
    telemetry::set_mode(telemetry::Mode::kOff);
    lc.sz_in_bytes += static_cast<double>(data.size_bytes());
    lc.sz_values += static_cast<double>(data.size());
    lc.outliers += static_cast<double>(info.n_outliers);
    lc.huffman_bytes += static_cast<double>(info.huffman_bytes);
    lc.outlier_bytes += static_cast<double>(info.outlier_bytes);
    lc.metadata_bytes += static_cast<double>(info.metadata_bytes);
    n.attempted += 1;
    bool ok = back.size() == data.size();
    for (std::size_t i = 0; ok && i < back.size(); ++i)
      ok = std::fabs(back[i] - data[i]) <= level_cfg.error_bound;
    if (!ok) fail(n, "sz stream round trip exceeds the error bound");
  };

  switch (strategy) {
    case core::Strategy::kNaST:
    case core::Strategy::kOpST:
    case core::Strategy::kAKDTree: {
      std::vector<core::SubBlock> subs;
      timed(&tr, "core.extract", [&] {
        subs = strategy == core::Strategy::kNaST   ? core::nast_extract(occ)
               : strategy == core::Strategy::kOpST ? core::opst_extract(occ)
                                                   : core::akdtree_extract(occ);
      });
      ArenaScope scratch;
      std::vector<core::BlockGroup> groups;
      timed(&tr, "core.gather",
            [&] { groups = core::gather_groups(lv, grid, subs, scratch); });
      lc.subblocks += static_cast<double>(subs.size());
      lc.groups += static_cast<double>(groups.size());
      for (const core::BlockGroup& g : groups)
        encode(g.buffer, g.block_cell_dims, g.members.size());
      break;
    }
    case core::Strategy::kGSP:
    case core::Strategy::kZF: {
      Array3D<double> padded;
      timed(&tr, "core.pad", [&] {
        padded = strategy == core::Strategy::kGSP ? core::gsp_pad(lv, grid, occ)
                                                  : core::zf_pad(lv);
      });
      lc.groups += 1;
      encode(padded.span(), padded.dims(), 1);
      break;
    }
  }
}

/// One layer pass over the workload's cells: the mirrored pipeline
/// against the backend's own per-level encode (closure), then the
/// workload's backend on its workers with each level encoded alone
/// (parallel), the container read path piece by piece, and for `extract`
/// the snapshot field lookup.
void layer_pass(const Workload& w, const Inputs& in,
                const std::vector<std::span<const std::uint8_t>>& containers,
                Tracer& tr, LayerCounts& lc, Counts& n) {
  const core::CompressorBackend& tac_backend = core::backend_for(core::Method::kTac);
  for (std::size_t c = 0; c < in.cells.size(); ++c) {
    const Cell& cell = in.cells[c];
    const amr::AmrDataset& ds = in.datasets[cell.dataset];
    try {
      set_parallelism(1);
      for (std::size_t l = 0; l < ds.num_levels(); ++l) {
        mirror_level(ds.level(l), cell.cfg, tr, lc, n);
        timed(&tr, "closure.level_payload", [&] {
          (void)tac_backend.compress_level_payload(ds.level(l), l, cell.cfg);
        });
      }

      set_parallelism(w.workers);
      n.attempted += 1;
      core::CompressedAmr out;
      lc.backend_wall += timed(&tr, "parallel.backend_compress", [&] {
        out = core::backend_for(cell.method).compress(ds, cell.cfg);
      });
      if (!std::equal(out.bytes.begin(), out.bytes.end(), containers[c].begin(),
                      containers[c].end()))
        fail(n, cell.name + ": layer-pass container differs from the workload's");
      double sum = 0, worst = 0;
      for (std::size_t l = 0; l < ds.num_levels(); ++l) {
        core::Method m = cell.method;
        double t = 0;
        if (m == core::Method::kAuto) {
          core::SelectionDecision d;
          t += timed(&tr, "selector.select_level", [&] {
            d = core::select_for_level(ds.level(l), l, cell.cfg);
          });
          m = d.winner;
          (m == core::Method::kTac ? lc.tac_wins : lc.oned_wins) += 1;
        }
        t += timed(&tr, "parallel.level_payload", [&] {
          (void)core::backend_for(m).compress_level_payload(ds.level(l), l, cell.cfg);
        });
        sum += t;
        worst = std::max(worst, t);
      }
      lc.level_sum += sum;
      lc.level_max += worst;

      n.attempted += 1;
      amr::AmrDataset rec;
      lc.decode_any += timed(&tr, "parallel.decode_any",
                             [&] { rec = core::decompress_any(out.bytes); });
      if (const std::string bad = check_bound(ds, rec, cell.cfg); !bad.empty())
        fail(n, cell.name + ": " + bad);
      ByteReader r(out.bytes);
      core::CommonHeader h;
      const double ht = timed(&tr, "container.header_read",
                              [&] { h = core::read_common_header(r); });
      timed(&tr, "container.verify",
            [&] { core::verify_payloads(out.bytes, h.index); });
      for (const amr::AmrLevel& lv : h.skeleton.levels())
        lc.skeleton_bytes += static_cast<double>(
            lv.dims().volume() * (sizeof(double) + sizeof(std::uint8_t)));
      for (std::size_t k = 0; k < ds.num_levels(); ++k) {
        n.attempted += 1;
        amr::AmrLevel lv;
        const double t = timed(&tr, "core.decompress_level",
                               [&] { lv = core::decompress_level(out.bytes, k); });
        lc.decode_levels += t;
        lc.decode_level_net += t - ht;
        if (!same_level(lv, rec.level(k)))
          fail(n, cell.name + ": decompress_level differs from decompress_any");
      }
    } catch (const std::exception& e) {
      fail(n, cell.name + ": layer pass threw " + e.what());
    }
  }
  if (w.name == "extract")
    for (const std::string& f : in.fields) {
      n.attempted += 1;
      try {
        timed(&tr, "snapshot.field_lookup",
              [&] { (void)core::snapshot_field_bytes(in.snapshot, f); });
      } catch (const std::exception& e) {
        fail(n, "snapshot_field_bytes(" + f + ") threw " + e.what());
      }
    }
  set_parallelism(w.workers);
}

double stage_seconds(const std::vector<telemetry::StageStat>& stages,
                     std::initializer_list<const char*> names) {
  double s = 0;
  for (const auto& st : stages)
    for (const char* name : names)
      if (st.name == name) s += static_cast<double>(st.ns) * 1e-9;
  return s;
}

int traced_run(const Options& o, const Workload& w) {
  telemetry::set_mode(telemetry::Mode::kOff);
  Counts n;
  Tracer tr;
  const Inputs in = setup(w, o.seed, generation_workers(), n);
  std::vector<CellRun> runs(in.cells.size());
  std::vector<double> read_s;
  workload_pass(w, in, runs, /*record=*/false, n, read_s, nullptr);  // warm-up

  // Tracing overhead: the same pass untraced and traced (library stage
  // counters on, benchmark spans around every operation), alternating
  // which runs first; medians of each side.
  std::vector<double> plain_s, traced_s;
  const auto t0 = Clock::now();
  for (int pair = 0; pair < 2 || seconds_since(t0) < o.seconds; ++pair) {
    for (const bool traced : {pair % 2 == 0, pair % 2 != 0}) {
      if (traced) telemetry::set_mode(telemetry::Mode::kCounters);
      const auto tp = Clock::now();
      workload_pass(w, in, runs, /*record=*/false, n, read_s, traced ? &tr : nullptr);
      (traced ? traced_s : plain_s).push_back(seconds_since(tp));
      telemetry::set_mode(telemetry::Mode::kOff);
    }
  }

  std::vector<std::span<const std::uint8_t>> containers;
  for (std::size_t c = 0; c < in.cells.size(); ++c) {
    if (w.name != "extract")
      containers.emplace_back(runs[c].container);
    else if (c < in.fields.size())
      containers.push_back(core::snapshot_field_bytes(in.snapshot, in.fields[c]));
    else
      containers.emplace_back(in.t4);
  }
  telemetry::reset_stages();
  LayerCounts lc;
  layer_pass(w, in, containers, tr, lc, n);
  const auto stages = telemetry::collect_stages();

  const auto t = tr.totals();
  const auto total = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.total;
  };
  const double mirrored = total("core.occupancy") + total("core.select_strategy") +
                          total("core.resolve_bound") + total("core.extract") +
                          total("core.gather") + total("core.pad") +
                          total("sz.compress") + total("sz.peek");
  const double sz_s = total("sz.compress");
  const std::vector<Metric> metrics = {
      {"sz.compress_s", sz_s, "s"},
      {"sz.decompress_s", total("sz.decompress"), "s"},
      {"sz.in_mbs", lc.sz_in_bytes / sz_s / kMB, "MB/s"},
      {"sz.outlier_frac", lc.outliers / lc.sz_values, "fraction"},
      {"sz.huffman_bytes", lc.huffman_bytes, "bytes"},
      {"sz.outlier_bytes", lc.outlier_bytes, "bytes"},
      {"sz.metadata_bytes", lc.metadata_bytes, "bytes"},
      {"lossless.huffman_s", stage_seconds(stages, {"huffman.compress", "huffman.decode"}), "s"},
      {"lossless.lzss_s", stage_seconds(stages, {"lzss.compress", "lzss.decompress"}), "s"},
      {"core.occupancy_s", total("core.occupancy"), "s"},
      {"core.extract_s", total("core.extract"), "s"},
      {"core.gather_s", total("core.gather"), "s"},
      {"core.pad_s", total("core.pad"), "s"},
      {"core.subblocks", lc.subblocks, "count"},
      {"core.groups", lc.groups, "count"},
      {"selector.s", total("selector.select_level"), "s"},
      {"selector.share", total("selector.select_level") / lc.backend_wall, "fraction"},
      {"selector.tac_wins", lc.tac_wins, "count"},
      {"selector.oned_wins", lc.oned_wins, "count"},
      {"container.header_read_s", total("container.header_read"), "s"},
      {"container.verify_s", total("container.verify"), "s"},
      {"container.skeleton_mb", lc.skeleton_bytes / kMB, "MB"},
      {"core.decode_level_s", lc.decode_level_net, "s"},
      {"snapshot.field_lookup_s", total("snapshot.field_lookup"), "s"},
      {"parallel.level_sum_over_wall", lc.level_sum / lc.backend_wall, "ratio"},
      {"parallel.level_max_over_wall", lc.level_max / lc.backend_wall, "ratio"},
      {"parallel.decode_sum_over_wall", lc.decode_levels / lc.decode_any, "ratio"},
      {"simnyx.generate_s", in.generate_s, "s"},
      {"trace.closure", mirrored / total("closure.level_payload"), "ratio"},
      {"trace.overhead_frac", median(traced_s) / median(plain_s) - 1.0, "fraction"},
  };

  std::fprintf(stderr, "%-30s %8s %12s %12s\n", "span", "calls", "total_s", "self_s");
  for (const auto& [name, tt] : t)
    std::fprintf(stderr, "%-30s %8zu %12.6f %12.6f\n", name.c_str(), tt.calls,
                 tt.total, tt.self);
  if (!o.trace_out.empty() && !tr.write(o.trace_out))
    fail(n, "cannot write the span trace to " + o.trace_out);
  std::printf("summary: %zu traced and %zu untraced passes, failed_ops_frac "
              "%.6g (%llu of %llu)\n",
              traced_s.size(), plain_s.size(),
              failed_frac(n), static_cast<unsigned long long>(n.failed),
              static_cast<unsigned long long>(n.attempted));
  print_result(n, metrics);
  return n.failed == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload dense_1t|mixed_mt|extract "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] "
               "[--git-sha SHA] [--source-digest HEX]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v, nullptr, 0);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--trace-out") o.trace_out = v;
    else if (k == "--git-sha") o.git_sha = v;
    else if (k == "--source-digest") o.source_digest = v;
    else return usage();
  }
  if (argc % 2 == 0) return usage();
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  Workload w{o.workload, 1};
  if (w.name == "mixed_mt") w.workers = std::min(4u, nproc);
  else if (w.name != "dense_1t" && w.name != "extract") return usage();

  // Pin what the environment could otherwise change: the codec profile
  // (TAC_CODEC_PROFILE) and, per mode, telemetry (TAC_TRACE).
  lossless::set_default_profile(lossless::CodecProfile::kFast);
  // Pin glibc's large-allocation policy. Its default dynamic mmap
  // threshold moves 16 MB grids from fresh mmap pages to reused heap
  // pages after the first such grid is freed, so the same read took 7 or
  // 30 ms depending on allocation history. Fixed here at the 32 MiB
  // maximum, with freed heap kept, every grid up to 128^3 doubles reuses
  // warm heap pages, as in a long-running (in-situ) process; larger ones
  // (Run2_T4's 256^3 level) are always fresh mappings.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  set_parallelism(w.workers);
  print_fingerprint(o, w);
  try {
    return o.trace ? traced_run(o, w) : timed_run(o, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
