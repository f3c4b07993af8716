#include "core/selector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "core/block_grid.hpp"

namespace tac::core {
namespace {

/// Coordinates of one occupied unit block.
struct BlockCoord {
  std::size_t bx, by, bz;
};

/// splitmix64 — a tiny, well-mixed hash used to derive the per-level
/// sampling phase from (seed, level). Deterministic by construction.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Occupied unit blocks in raster order (x fastest) — a stable enumeration
/// the stride sampler indexes into.
std::vector<BlockCoord> occupied_blocks(const Array3D<std::uint8_t>& occ,
                                        const Dims3& bd) {
  std::vector<BlockCoord> out;
  for (std::size_t bz = 0; bz < bd.nz; ++bz)
    for (std::size_t by = 0; by < bd.ny; ++by)
      for (std::size_t bx = 0; bx < bd.nx; ++bx)
        if (occ(bx, by, bz)) out.push_back({bx, by, bz});
  return out;
}

/// Evenly strided sample of `want` blocks with a hashed phase offset, so
/// different levels (and seeds) probe different blocks but the same
/// (input, seed) always probes the same ones.
std::vector<BlockCoord> sample_blocks(const std::vector<BlockCoord>& occ,
                                      std::size_t want, std::size_t level,
                                      std::uint64_t seed) {
  if (want >= occ.size()) return occ;
  const std::size_t stride = occ.size() / want;
  const std::size_t phase =
      static_cast<std::size_t>(splitmix64(seed ^ level) % stride);
  std::vector<BlockCoord> out;
  out.reserve(want);
  for (std::size_t i = 0; i < want; ++i) out.push_back(occ[phase + i * stride]);
  return out;
}

/// Builds the stand-in level the candidates trial-compress: the sampled
/// unit blocks stacked along z into a (bs, bs, bs * n) grid, each block's
/// (possibly edge-clipped) cells copied into its slot's corner with the
/// real mask. The stand-in preserves intra-block structure — what the 3D
/// predictor and the 1D stream actually see — at a fraction of the
/// level's volume.
amr::AmrLevel build_sample_level(const amr::AmrLevel& lv,
                                 const BlockGrid& grid,
                                 const std::vector<BlockCoord>& blocks) {
  const std::size_t bs = grid.block_size();
  amr::AmrLevel sample(Dims3{bs, bs, bs * blocks.size()});
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const Box3 box = grid.block_box(blocks[i].bx, blocks[i].by, blocks[i].bz);
    const std::size_t z_base = i * bs;
    for (std::size_t z = box.z0; z < box.z1; ++z)
      for (std::size_t y = box.y0; y < box.y1; ++y)
        for (std::size_t x = box.x0; x < box.x1; ++x) {
          if (!lv.mask(x, y, z)) continue;
          const std::size_t sx = x - box.x0;
          const std::size_t sy = y - box.y0;
          const std::size_t sz_ = z_base + (z - box.z0);
          sample.data(sx, sy, sz_) = lv.data(x, y, z);
          sample.mask(sx, sy, sz_) = 1;
        }
  }
  return sample;
}

/// Scores the trials in place per the objective. kRatio compares raw byte
/// counts (deterministic); the time-based objectives normalize each term
/// by the best candidate's value so the blend weight is scale-free.
void score_trials(std::vector<CandidateTrial>& trials,
                  const SelectorConfig& cfg) {
  switch (cfg.objective) {
    case SelectorObjective::kRatio:
      for (auto& t : trials) t.score = static_cast<double>(t.trial_bytes);
      return;
    case SelectorObjective::kThroughput:
      for (auto& t : trials) t.score = t.trial_seconds;
      return;
    case SelectorObjective::kBalanced: {
      double best_bytes = trials.front().trial_bytes;
      double best_secs = trials.front().trial_seconds;
      for (const auto& t : trials) {
        best_bytes = std::min(best_bytes, static_cast<double>(t.trial_bytes));
        best_secs = std::min(best_secs, t.trial_seconds);
      }
      if (best_bytes <= 0) best_bytes = 1;
      if (best_secs <= 0) best_secs = 1e-9;
      const double w = std::clamp(cfg.balance, 0.0, 1.0);
      for (auto& t : trials)
        t.score = w * (static_cast<double>(t.trial_bytes) / best_bytes) +
                  (1.0 - w) * (t.trial_seconds / best_secs);
      return;
    }
  }
  throw std::invalid_argument("selector: unknown objective");
}

}  // namespace

std::vector<Method> selector_candidates(const SelectorConfig& cfg) {
  std::vector<Method> pool =
      cfg.candidates.empty() ? registered_methods() : cfg.candidates;
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  std::vector<Method> out;
  for (Method m : pool) {
    const CompressorBackend* b = find_backend(m);
    if (b != nullptr && b->supports_level_payloads()) out.push_back(m);
  }
  if (out.empty())
    throw std::invalid_argument(
        "selector: no candidate backend supports per-level payloads");
  return out;
}

SelectionDecision select_for_level(const amr::AmrLevel& lv, std::size_t level,
                                   const TacConfig& cfg) {
  TAC_SPAN("selector.select_level");
  Timer total;
  const std::vector<Method> candidates = selector_candidates(cfg.selector);

  SelectionDecision d;
  const BlockGrid grid(lv.dims(), cfg.block_size);
  const auto occ = block_occupancy(lv, grid);
  const auto occupied = occupied_blocks(occ, grid.block_dims());
  d.occupied_blocks = occupied.size();

  if (occupied.empty()) {  // empty level: nothing to probe, lowest tag wins
    d.winner = candidates.front();
    d.seconds = total.seconds();
    return d;
  }

  const double frac = std::clamp(cfg.selector.sample_fraction, 0.0, 1.0);
  std::size_t want = static_cast<std::size_t>(
      std::llround(frac * static_cast<double>(occupied.size())));
  want = std::max(want, std::max<std::size_t>(cfg.selector.min_sample_blocks,
                                              1));
  want = std::min(want, occupied.size());
  const auto sampled =
      sample_blocks(occupied, want, level, cfg.selector.seed);
  d.sampled_blocks = sampled.size();
  const amr::AmrLevel sample = build_sample_level(lv, grid, sampled);

  // The stacked sample is artificially dense (every block it contains is
  // occupied), which would bias TAC's density filter toward GSP. Pin the
  // trial to the strategy the REAL level's density selects, so the trial
  // measures what the final encode would actually do.
  TacConfig trial_cfg = cfg;
  if (!trial_cfg.force_strategy)
    trial_cfg.force_strategy =
        select_strategy(occupancy_density(occ), cfg.t1, cfg.t2);

  d.trials.reserve(candidates.size());
  TAC_COUNTER_ADD("selector.sampled_blocks", sampled.size());
  for (Method m : candidates) {
    CandidateTrial t;
    t.method = m;
    TAC_SPAN_NAMED(trial_span, "selector.trial");
    Timer encode;
    const LevelPayload p =
        backend_for(m).compress_level_payload(sample, level, trial_cfg);
    t.trial_seconds = encode.seconds();
    t.trial_bytes = p.bytes.size();
    trial_span.set_bytes(p.bytes.size());
    d.trials.push_back(t);
  }
  TAC_COUNTER_ADD("selector.trials", d.trials.size());
  score_trials(d.trials, cfg.selector);

  // Strict less-than over tag-ascending trials: ties deterministically go
  // to the lowest method tag.
  d.winner = d.trials.front().method;
  double best = d.trials.front().score;
  for (const auto& t : d.trials)
    if (t.score < best) {
      best = t.score;
      d.winner = t.method;
    }
  TAC_COUNTER_ADD("selector.trials_won", 1);
  TAC_COUNTER_ADD("selector.trials_lost", d.trials.size() - 1);
  d.seconds = total.seconds();
  return d;
}

namespace {

/// The `auto` pseudo-backend: the level pipeline with the selector as
/// picker — each level is encoded by its trial winner, whose tag lands in
/// the payload's v4 selector byte. Decoding is the pipeline's, which
/// dispatches every payload to the backend its index entry names.
class AutoBackend final : public CompressorBackend {
 public:
  [[nodiscard]] Method method() const override { return Method::kAuto; }
  [[nodiscard]] const char* name() const override { return "auto"; }

  [[nodiscard]] CompressedAmr compress(const amr::AmrDataset& ds,
                                       const TacConfig& cfg) const override {
    (void)selector_candidates(cfg.selector);  // validate before any work
    // With the default kRatio objective the winners — and therefore the
    // container bytes — are identical at any thread count.
    return compress_levels(
        ds, cfg,
        [](const amr::AmrLevel& lv, std::size_t level, const TacConfig& c) {
          const SelectionDecision d = select_for_level(lv, level, c);
          return LevelPick{d.winner, d.seconds};
        });
  }
};

}  // namespace

namespace detail {
std::unique_ptr<CompressorBackend> make_auto_backend() {
  return std::make_unique<AutoBackend>();
}
}  // namespace detail

}  // namespace tac::core
