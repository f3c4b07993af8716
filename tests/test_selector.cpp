#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "amr/snapshot.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/selector.hpp"
#include "lossless/codec.hpp"
#include "simnyx/generator.hpp"

/// The per-level adaptive backend selector (core/selector.hpp) and the
/// `auto` pseudo-backend: candidate filtering, deterministic sampling and
/// selection, mixed-method v4 containers, and the typed error on unknown
/// selector bytes.

namespace tac::core {
namespace {

using lossless::CodecProfile;

/// Pin the codec profile so trial byte counts — and therefore the
/// recorded winners — do not depend on the TAC_CODEC_PROFILE CI leg.
TacConfig auto_config(double abs_eb = 1e8) {
  TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kAbsolute;
  cfg.sz.error_bound = abs_eb;
  cfg.sz.profile = CodecProfile::kFast;
  return cfg;
}

/// The bench's Run1_Z10 preset at test scale: its finest level is dense
/// (TAC's 3D context wins) while the coarse level's layout favors the
/// plain 1D stream — a deterministic mixed-method container.
amr::AmrDataset mixed_winner_dataset() {
  return simnyx::generate_preset(simnyx::table1_presets(/*scale_shift=*/2)[0]);
}

CommonHeader header_of(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  return read_common_header(r);
}

/// Byte offset of index entry `i`'s selector byte inside a v4 container
/// (varint entry count is one byte for every dataset here).
std::size_t selector_byte_offset(const CommonHeader& h, std::size_t i) {
  EXPECT_LT(h.index.entries.size(), 128u);
  return h.index_offset + 1 + i * kPayloadEntryV4Bytes + kPayloadEntryV3Bytes;
}

TEST(Selector, AutoIsRegisteredButNotALevelCandidate) {
  const auto methods = registered_methods();
  EXPECT_NE(std::find(methods.begin(), methods.end(), Method::kAuto),
            methods.end());
  EXPECT_STREQ(backend_for(Method::kAuto).name(), "auto");
  EXPECT_FALSE(backend_for(Method::kAuto).supports_level_payloads());
  EXPECT_TRUE(backend_for(Method::kTac).supports_level_payloads());
  EXPECT_TRUE(backend_for(Method::kOneD).supports_level_payloads());
  EXPECT_FALSE(backend_for(Method::kZMesh).supports_level_payloads());
  EXPECT_FALSE(backend_for(Method::kUpsample3D).supports_level_payloads());
}

TEST(Selector, CandidateFilterKeepsOnlyLevelCapableBackends) {
  SelectorConfig cfg;  // empty candidate list = every registered backend
  const auto defaults = selector_candidates(cfg);
  EXPECT_EQ(defaults, (std::vector<Method>{Method::kTac, Method::kOneD}));

  cfg.candidates = {Method::kOneD, Method::kZMesh, Method::kOneD,
                    Method::kUpsample3D};
  EXPECT_EQ(selector_candidates(cfg), (std::vector<Method>{Method::kOneD}));

  cfg.candidates = {Method::kZMesh, Method::kUpsample3D};
  EXPECT_THROW((void)selector_candidates(cfg), std::invalid_argument);
}

TEST(Selector, RecordsPerLevelWinnersInTheV4Index) {
  const auto ds = mixed_winner_dataset();
  const TacConfig cfg = auto_config();
  const CompressedAmr out = backend_for(Method::kAuto).compress(ds, cfg);
  EXPECT_EQ(out.report.method, Method::kAuto);
  ASSERT_EQ(out.report.levels.size(), ds.num_levels());

  const CommonHeader h = header_of(out.bytes);
  EXPECT_EQ(h.version, kFormatVersion);
  ASSERT_EQ(h.index.entries.size(), ds.num_levels());
  std::set<Method> winners;
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto recorded = payload_method(h, l);
    ASSERT_TRUE(recorded.has_value()) << "level " << l;
    EXPECT_EQ(*recorded, out.report.levels[l].method) << "level " << l;
    EXPECT_GT(out.report.levels[l].selection_seconds, 0.0) << "level " << l;
    winners.insert(*recorded);
  }
  // The preset is chosen so the levels genuinely disagree: a container
  // whose every payload uses one method would not exercise the mixed
  // decode path at all.
  EXPECT_GE(winners.size(), 2u) << "expected a mixed-method container";
  EXPECT_TRUE(winners.count(Method::kTac));
  EXPECT_TRUE(winners.count(Method::kOneD));
}

TEST(Selector, MixedContainerRoundTripsWithinBound) {
  const auto ds = mixed_winner_dataset();
  const TacConfig cfg = auto_config();
  const CompressedAmr out = backend_for(Method::kAuto).compress(ds, cfg);

  // Full decode respects the error bound on every valid cell.
  const auto back = decompress_any(out.bytes);
  ASSERT_EQ(back.num_levels(), ds.num_levels());
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const auto& orig = ds.level(l);
    const auto& dec = back.level(l);
    ASSERT_EQ(dec.dims().volume(), orig.dims().volume());
    for (std::size_t i = 0; i < orig.data.size(); ++i) {
      if (!orig.mask[i]) continue;
      ASSERT_LE(std::abs(orig.data[i] - dec.data[i]), cfg.sz.error_bound)
          << "level " << l << " cell " << i;
    }
  }

  // Indexed single-level decode dispatches each payload to the recorded
  // backend and matches the full decode byte-for-byte.
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const amr::AmrLevel lv = decompress_level(out.bytes, l);
    ASSERT_EQ(lv.data.size(), back.level(l).data.size());
    EXPECT_EQ(std::memcmp(lv.data.span().data(),
                          back.level(l).data.span().data(),
                          lv.data.size() * sizeof(double)),
              0)
        << "level " << l;
  }
}

// Same input + seed -> same winners and a byte-identical container at any
// thread count, SIMD or scalar (the default kRatio objective compares
// trial byte counts, which are deterministic by construction).
TEST(Selector, AutoContainerStableAcrossThreadsAndSimd) {
  const auto ds = mixed_winner_dataset();
  const TacConfig cfg = auto_config();

  std::vector<std::uint8_t> reference;
  {
    ParallelismGuard serial(1);
    reference = backend_for(Method::kAuto).compress(ds, cfg).bytes;
  }
  for (const unsigned threads : {2u, 4u}) {
    ParallelismGuard guard(threads);
    EXPECT_EQ(backend_for(Method::kAuto).compress(ds, cfg).bytes, reference)
        << threads << " threads";
  }
  {
    ParallelismGuard guard(2);
    simd::force_scalar(true);
    const auto scalar_bytes =
        backend_for(Method::kAuto).compress(ds, cfg).bytes;
    simd::force_scalar(false);
    EXPECT_EQ(scalar_bytes, reference);
  }
}

TEST(Selector, SamplingSeedIsPartOfTheContract) {
  const auto ds = mixed_winner_dataset();
  TacConfig cfg = auto_config();
  const auto a = backend_for(Method::kAuto).compress(ds, cfg).bytes;
  const auto a2 = backend_for(Method::kAuto).compress(ds, cfg).bytes;
  EXPECT_EQ(a, a2);  // same seed -> same bytes

  // A different seed may sample different blocks; whatever it picks must
  // still decode correctly.
  cfg.selector.seed = 12345;
  const auto b = backend_for(Method::kAuto).compress(ds, cfg).bytes;
  const auto back = decompress_any(b);
  EXPECT_EQ(back.num_levels(), ds.num_levels());
}

TEST(Selector, UnknownSelectorByteIsATypedError) {
  const auto ds = mixed_winner_dataset();
  const CompressedAmr out =
      backend_for(Method::kAuto).compress(ds, auto_config());
  const CommonHeader h = header_of(out.bytes);

  // Payload CRCs do not cover the index, so a damaged selector byte must
  // be caught by the header parse — as a SelectorError naming the byte —
  // not by a checksum or a decoder misparse.
  auto damaged = out.bytes;
  damaged[selector_byte_offset(h, 0)] = 250;
  try {
    (void)decompress_any(damaged);
    FAIL() << "decompress_any should have rejected the selector byte";
  } catch (const SelectorError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("selector"), std::string::npos) << msg;
    EXPECT_NE(msg.find("250"), std::string::npos) << msg;
  }
}

// A fixed-method container stamps its own tag into every selector byte,
// and an `auto` container the tag of a level-capable winner. A registered
// tag outside those rules is damage (the index is not CRC-covered) and
// must not route the payload to that backend's decoder.
TEST(Selector, ContradictorySelectorByteIsATypedError) {
  const auto ds = mixed_winner_dataset();
  for (const auto& [container, named] :
       {std::pair{Method::kTac, Method::kOneD},
        std::pair{Method::kAuto, Method::kZMesh}}) {
    SCOPED_TRACE(to_string(container));
    const auto bytes = backend_for(container).compress(ds, auto_config()).bytes;
    const CommonHeader h = header_of(bytes);
    auto damaged = bytes;
    damaged[selector_byte_offset(h, 0)] = static_cast<std::uint8_t>(named);
    EXPECT_THROW((void)decompress_any(damaged), SelectorError);
    EXPECT_THROW((void)decompress_level(damaged, 0), SelectorError);
    // The sibling level's entry is intact, so its indexed read still works.
    EXPECT_EQ(decompress_level(damaged, 1).valid_count(),
              ds.level(1).valid_count());
  }
}

// Per-level bounds are part of the level pipeline, not of one backend:
// when 1D encodes a level it must apply that level's bound, not the
// loose global one.
TEST(Selector, PerLevelBoundsHoldWhenOneDEncodesTheLevel) {
  const auto ds = mixed_winner_dataset();
  ASSERT_EQ(ds.num_levels(), 2u);
  TacConfig cfg = auto_config(1e3);
  cfg.level_error_bounds = {1.0, 2.0};
  cfg.selector.candidates = {Method::kOneD};
  const CompressedAmr out = backend_for(Method::kAuto).compress(ds, cfg);
  const auto back = decompress_any(out.bytes);
  for (std::size_t l = 0; l < ds.num_levels(); ++l) {
    const double eb = cfg.level_error_bounds[l];
    EXPECT_EQ(out.report.levels[l].method, Method::kOneD) << "level " << l;
    EXPECT_EQ(out.report.levels[l].abs_error_bound, eb) << "level " << l;
    const auto& orig = ds.level(l);
    double max_err = 0;
    for (std::size_t i = 0; i < orig.data.size(); ++i)
      if (orig.mask[i])
        max_err = std::max(max_err,
                           std::abs(orig.data[i] - back.level(l).data[i]));
    EXPECT_LE(max_err, eb) << "level " << l;
  }
}

TEST(Selector, OneDRejectsAMismatchedBoundCount) {
  const auto ds = mixed_winner_dataset();
  TacConfig cfg = auto_config();
  for (const std::vector<double>& bounds :
       {std::vector<double>{1.0}, std::vector<double>{1.0, 2.0, 3.0}}) {
    cfg.level_error_bounds = bounds;
    EXPECT_THROW((void)backend_for(Method::kOneD).compress(ds, cfg),
                 std::invalid_argument)
        << bounds.size() << " bounds";
  }
}

TEST(Selector, FixedBackendsStampTheirOwnTag) {
  const auto ds = mixed_winner_dataset();
  const TacConfig cfg = auto_config();
  for (const Method m : {Method::kTac, Method::kOneD, Method::kZMesh,
                         Method::kUpsample3D}) {
    const auto bytes = backend_for(m).compress(ds, cfg).bytes;
    const CommonHeader h = header_of(bytes);
    ASSERT_FALSE(h.index.entries.empty());
    for (std::size_t i = 0; i < h.index.entries.size(); ++i) {
      const auto recorded = payload_method(h, i);
      ASSERT_TRUE(recorded.has_value()) << to_string(m) << " payload " << i;
      EXPECT_EQ(*recorded, m) << to_string(m) << " payload " << i;
    }
  }
}

TEST(Selector, EmptyLevelPicksLowestTagDeterministically) {
  // Two-level dataset whose coarse level is entirely empty: there is
  // nothing to trial-compress, so the selector must not probe at all and
  // must still produce a decodable payload.
  amr::AmrLevel fine(Dims3{16, 16, 16});
  for (std::size_t i = 0; i < fine.data.size(); ++i) {
    fine.data[i] = static_cast<double>(i % 97) * 1e6;
    fine.mask[i] = 1;
  }
  amr::AmrLevel coarse(Dims3{8, 8, 8});  // all cells masked out
  std::vector<amr::AmrLevel> levels;
  levels.push_back(std::move(fine));
  levels.push_back(std::move(coarse));
  const amr::AmrDataset ds("field", std::move(levels), 2);

  const CompressedAmr out =
      backend_for(Method::kAuto).compress(ds, auto_config(1e3));
  ASSERT_EQ(out.report.levels.size(), 2u);
  EXPECT_EQ(out.report.levels[1].method, Method::kTac);  // lowest tag
  const auto back = decompress_any(out.bytes);
  EXPECT_EQ(back.level(1).valid_count(), 0u);
}

TEST(Selector, SnapshotCompressesPerFieldWithAuto) {
  const auto ds = mixed_winner_dataset();
  amr::Snapshot s;
  s.fields.push_back(ds);
  s.fields.push_back(ds);
  s.fields[1] = [&] {
    auto copy = ds;
    // second field: same structure, shifted values
    for (auto& lv : copy.levels())
      for (std::size_t i = 0; i < lv.data.size(); ++i)
        if (lv.mask[i]) lv.data[i] += 1e7;
    return copy;
  }();

  const TacConfig cfg = auto_config();
  const auto bytes = compress_snapshot(s, cfg, Method::kAuto);
  for (const auto& name : snapshot_field_names(bytes)) {
    const auto field_bytes = snapshot_field_bytes(bytes, name);
    EXPECT_EQ(peek_method(field_bytes), Method::kAuto) << name;
    const CommonHeader h = header_of(field_bytes);
    for (std::size_t l = 0; l < h.index.entries.size(); ++l)
      EXPECT_TRUE(payload_method(h, l).has_value()) << name << " level " << l;
  }
  const amr::Snapshot back = decompress_snapshot(bytes);
  ASSERT_EQ(back.fields.size(), 2u);
  for (std::size_t f = 0; f < 2; ++f)
    for (std::size_t l = 0; l < ds.num_levels(); ++l) {
      const auto& orig = s.fields[f].level(l);
      const auto& dec = back.fields[f].level(l);
      for (std::size_t i = 0; i < orig.data.size(); ++i) {
        if (orig.mask[i]) {
          ASSERT_LE(std::abs(orig.data[i] - dec.data[i]), cfg.sz.error_bound)
              << "field " << f << " level " << l;
        }
      }
    }
}

}  // namespace
}  // namespace tac::core
