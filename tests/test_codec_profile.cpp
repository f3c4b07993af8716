#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/backend.hpp"
#include "core/tac.hpp"
#include "lossless/codec.hpp"
#include "simnyx/generator.hpp"
#include "sz/sz.hpp"

/// Codec profiles (lossless::CodecProfile): the per-payload profile byte
/// introduced by container format v3, the legacy vs fast lossless stream
/// families it selects, and the compatibility guarantees between them —
/// identical decoded values, typed errors on mismatch, v2 backward
/// compatibility for legacy-profile containers.

namespace tac::core {
namespace {

using lossless::CodecProfile;
using lossless::ProfileError;

/// Restores the process-wide default profile on scope exit so tests stay
/// order-independent (and pass under the TAC_CODEC_PROFILE=legacy CI leg).
class ScopedProfile {
 public:
  explicit ScopedProfile(CodecProfile p) : saved_(lossless::default_profile()) {
    lossless::set_default_profile(p);
  }
  ~ScopedProfile() { lossless::set_default_profile(saved_); }

 private:
  CodecProfile saved_;
};

amr::AmrDataset small_dataset(std::size_t n = 32,
                              std::vector<double> densities = {0.3, 0.7}) {
  simnyx::GeneratorConfig gc;
  gc.finest_dims = {n, n, n};
  gc.level_densities = std::move(densities);
  gc.region_size = 8;
  gc.seed = 2024;
  return simnyx::generate_baryon_density(gc);
}

TacConfig test_config() {
  TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kAbsolute;
  cfg.sz.error_bound = 1e6;
  return cfg;
}

CommonHeader header_of(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  return read_common_header(r);
}

std::vector<std::uint8_t> compress_with_profile(CodecProfile p,
                                                const amr::AmrDataset& ds) {
  ScopedProfile guard(p);
  return backend_for(Method::kTac).compress(ds, test_config()).bytes;
}

/// Byte offset of index entry `i`'s codec-profile byte inside a v4
/// container (varint entry count is one byte for every dataset here).
std::size_t profile_byte_offset(const CommonHeader& h, std::size_t i) {
  EXPECT_LT(h.index.entries.size(), 128u);
  return h.index_offset + 1 + i * kPayloadEntryV4Bytes + kPayloadEntryBytes;
}

/// A corpus that exercises every encoder regime: long runs (deep hash
/// chains), a stride-repetitive segment (offset reuse) and incompressible
/// noise (skip heuristic / stored fallback).
std::vector<std::uint8_t> mixed_corpus(std::size_t n) {
  std::vector<std::uint8_t> buf;
  buf.reserve(n);
  std::mt19937 rng(1234);
  while (buf.size() < n) {
    switch (rng() % 3u) {
      case 0: {  // run of one byte
        const auto b = static_cast<std::uint8_t>(rng() & 3u);
        for (std::size_t k = 16 + rng() % 200; k > 0 && buf.size() < n; --k)
          buf.push_back(b);
        break;
      }
      case 1:  // stride-repetitive
        for (std::size_t k = 0; k < 96 && buf.size() < n; ++k)
          buf.push_back(static_cast<std::uint8_t>(k % 7u + 60u));
        break;
      default:  // noise
        for (std::size_t k = 0; k < 64 && buf.size() < n; ++k)
          buf.push_back(static_cast<std::uint8_t>(rng()));
    }
  }
  buf.resize(n);
  return buf;
}

// Every input size 0..4097 must round-trip under both profiles, both
// through the lenient decoder and the strict (profile-checked) one.
TEST(CodecProfile, LosslessRoundTripsEverySizeUnderBothProfiles) {
  const auto corpus = mixed_corpus(4097);
  for (const CodecProfile p : {CodecProfile::kLegacy, CodecProfile::kFast}) {
    for (std::size_t n = 0; n <= corpus.size(); ++n) {
      const std::span<const std::uint8_t> input(corpus.data(), n);
      const auto packed = lossless::compress(input, p);
      const auto lenient = lossless::decompress(packed);
      ASSERT_TRUE(std::equal(input.begin(), input.end(), lenient.begin(),
                             lenient.end()))
          << lossless::to_string(p) << " size " << n;
      const auto strict = lossless::decompress(packed, p);
      ASSERT_TRUE(std::equal(input.begin(), input.end(), strict.begin(),
                             strict.end()))
          << lossless::to_string(p) << " strict size " << n;
    }
  }
}

TEST(CodecProfile, StrictDecodeRejectsTheOtherProfilesStream) {
  // Compressible input: both encoders beat stored, so the method byte is
  // profile-specific (a stored block would legitimately satisfy either).
  const std::vector<std::uint8_t> runs(8192, 0x55);
  const auto legacy = lossless::compress(runs, CodecProfile::kLegacy);
  const auto fast = lossless::compress(runs, CodecProfile::kFast);
  ASSERT_NE(legacy[0], fast[0]);  // distinct method bytes
  EXPECT_THROW((void)lossless::decompress(legacy, CodecProfile::kFast),
               ProfileError);
  EXPECT_THROW((void)lossless::decompress(fast, CodecProfile::kLegacy),
               ProfileError);
  try {
    (void)lossless::decompress(fast, CodecProfile::kLegacy);
    FAIL() << "strict decompress should have thrown";
  } catch (const ProfileError& e) {
    EXPECT_NE(std::string(e.what()).find("legacy"), std::string::npos)
        << e.what();
  }
}

// The fast profile swaps the dictionary stage, but decoded values must
// stay bit-identical to the legacy path: same predictions, same
// quantization, same outliers.
TEST(CodecProfile, SzDecodedValuesBitIdenticalAcrossProfiles) {
  struct Case {
    Dims3 dims;
    unsigned seed;
  };
  for (const auto& [dims, seed] :
       {Case{Dims3{33, 17, 5}, 7u}, Case{Dims3{64, 64, 4}, 8u},
        Case{Dims3{4097, 1, 1}, 9u}}) {
    std::mt19937 rng(seed);
    std::normal_distribution<double> noise(0.0, 1.0);
    std::vector<double> v(dims.volume());
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = std::sin(0.01 * static_cast<double>(i)) * 1e9 + noise(rng) * 1e5;
    // Non-finite values take the exact outlier path; -0.0 is finite and
    // quantizes lossily, but its reconstruction must still agree across
    // profiles bit-for-bit (the memcmp below covers all three).
    v[v.size() / 3] = std::numeric_limits<double>::quiet_NaN();
    v[v.size() / 2] = -0.0;
    v[v.size() - 1] = std::numeric_limits<double>::infinity();

    sz::SzConfig cfg;
    cfg.error_bound = 1e4;
    cfg.profile = CodecProfile::kLegacy;
    const auto legacy_stream = sz::compress<double>(v, dims, cfg);
    cfg.profile = CodecProfile::kFast;
    const auto fast_stream = sz::compress<double>(v, dims, cfg);

    const auto a = sz::decompress<double>(legacy_stream, CodecProfile::kLegacy);
    const auto b = sz::decompress<double>(fast_stream, CodecProfile::kFast);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << dims.nx << "x" << dims.ny << "x" << dims.nz;
    EXPECT_TRUE(std::isnan(b[v.size() / 3]));
    EXPECT_EQ(b[v.size() - 1], std::numeric_limits<double>::infinity());
  }
}

TEST(CodecProfile, ContainerIndexRecordsTheWritingProfile) {
  const auto ds = small_dataset();
  for (const CodecProfile p : {CodecProfile::kLegacy, CodecProfile::kFast}) {
    const auto bytes = compress_with_profile(p, ds);
    const CommonHeader h = header_of(bytes);
    EXPECT_EQ(h.version, kFormatVersion);
    ASSERT_FALSE(h.index.entries.empty());
    for (std::size_t i = 0; i < h.index.entries.size(); ++i) {
      const auto declared = payload_profile(h, i);
      ASSERT_TRUE(declared.has_value());
      EXPECT_EQ(*declared, p) << "payload " << i;
      EXPECT_EQ(bytes[profile_byte_offset(h, i)],
                static_cast<std::uint8_t>(p));
    }
    // Decoded values are profile-independent at the container level too.
    const auto back = decompress_any(bytes);
    EXPECT_EQ(back.num_levels(), ds.num_levels());
  }
  const auto legacy = decompress_any(compress_with_profile(
      CodecProfile::kLegacy, ds));
  const auto fast = decompress_any(compress_with_profile(
      CodecProfile::kFast, ds));
  for (std::size_t l = 0; l < legacy.num_levels(); ++l)
    EXPECT_EQ(std::memcmp(legacy.level(l).data.span().data(),
                          fast.level(l).data.span().data(),
                          legacy.level(l).data.size() * sizeof(double)),
              0)
        << "level " << l;
}

/// Rebuilds the v2 serialization of a v4 container: identical except for
/// the version byte and the two-bytes-narrower index entries — no profile
/// or selector byte — so every payload shifts back by twice the entry
/// count.
std::vector<std::uint8_t> downgrade_to_v2(const std::vector<std::uint8_t>& v3) {
  const CommonHeader h = header_of(v3);
  const std::uint64_t n = h.index.entries.size();
  EXPECT_LT(n, 128u);  // varint count stays one byte
  std::vector<std::uint8_t> v2(
      v3.begin(), v3.begin() + static_cast<long>(h.index_offset));
  v2[4] = 2;  // magic:4 bytes, then the format version byte
  v2.push_back(v3[h.index_offset]);  // entry count
  for (const PayloadEntry& e : h.index.entries) {
    const std::uint64_t off = e.offset - 2 * n;
    const std::uint64_t len = e.length;
    for (int b = 0; b < 8; ++b)
      v2.push_back(static_cast<std::uint8_t>(off >> (8 * b)));
    for (int b = 0; b < 8; ++b)
      v2.push_back(static_cast<std::uint8_t>(len >> (8 * b)));
    for (int b = 0; b < 4; ++b)
      v2.push_back(static_cast<std::uint8_t>(e.crc32 >> (8 * b)));
  }
  v2.insert(v2.end(), v3.begin() + static_cast<long>(h.payload_offset),
            v3.end());
  return v2;
}

// Containers written before the profile byte existed (v2 layout) must
// keep decoding through the lenient path. A legacy-profile v3 container
// is byte-identical to its v2 ancestor apart from the index widening, so
// the downgrade reconstructs exactly what the old writer emitted.
TEST(CodecProfile, LegacyProfileContainersDecodeIdenticallyAsV2) {
  const auto ds = small_dataset(32, {0.1, 0.3, 0.6});
  const auto v3 = compress_with_profile(CodecProfile::kLegacy, ds);
  const auto v2 = downgrade_to_v2(v3);
  ASSERT_EQ(v2.size(), v3.size() - 2 * header_of(v3).index.entries.size());

  const CommonHeader h2 = header_of(v2);
  EXPECT_EQ(h2.version, 2);
  EXPECT_FALSE(payload_profile(h2, 0).has_value());
  EXPECT_NO_THROW(verify_payloads(v2, h2.index));

  const auto from_v2 = decompress_any(v2);
  const auto from_v3 = decompress_any(v3);
  ASSERT_EQ(from_v2.num_levels(), from_v3.num_levels());
  for (std::size_t l = 0; l < from_v2.num_levels(); ++l)
    EXPECT_EQ(std::memcmp(from_v2.level(l).data.span().data(),
                          from_v3.level(l).data.span().data(),
                          from_v2.level(l).data.size() * sizeof(double)),
              0)
        << "level " << l;
}

TEST(CodecProfile, FlippedProfileByteIsATypedError) {
  const auto ds = small_dataset();
  const auto bytes = compress_with_profile(CodecProfile::kFast, ds);
  const CommonHeader h = header_of(bytes);

  // Declaring legacy over fast streams: the index parses (0 is a valid
  // profile) but the first payload's method byte contradicts it. Payload
  // CRCs still pass — the index is not covered by them — so this must be
  // caught by the profile check, not the checksums.
  auto mislabeled = bytes;
  for (std::size_t i = 0; i < h.index.entries.size(); ++i)
    mislabeled[profile_byte_offset(h, i)] =
        static_cast<std::uint8_t>(CodecProfile::kLegacy);
  EXPECT_NO_THROW(verify_payloads(mislabeled, header_of(mislabeled).index));
  EXPECT_THROW((void)decompress_any(mislabeled), ProfileError);

  // An out-of-range profile byte is rejected while reading the header,
  // with the payload called out.
  auto unknown = bytes;
  unknown[profile_byte_offset(h, 0)] = 9;
  try {
    (void)decompress_any(unknown);
    FAIL() << "decompress_any should have rejected the profile byte";
  } catch (const ProfileError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("profile"), std::string::npos) << msg;
    EXPECT_NE(msg.find('9'), std::string::npos) << msg;
  }
}

// The Lorenzo wavefront and the fast profile's chained matcher must not leak
// scheduling into the bytes: any thread count, SIMD or scalar, one
// container.
TEST(CodecProfile, FastProfileOutputStableAcrossThreadsAndSimd) {
  ScopedProfile profile(CodecProfile::kFast);
  const auto ds = small_dataset(64, {0.1, 0.3, 0.6});
  const TacConfig cfg = test_config();

  std::vector<std::uint8_t> reference;
  {
    ParallelismGuard serial(1);
    reference = backend_for(Method::kTac).compress(ds, cfg).bytes;
  }
  for (const unsigned threads : {2u, 4u}) {
    ParallelismGuard guard(threads);
    EXPECT_EQ(backend_for(Method::kTac).compress(ds, cfg).bytes, reference)
        << threads << " threads";
  }
  {
    ParallelismGuard guard(2);
    simd::force_scalar(true);
    const auto scalar_bytes = backend_for(Method::kTac).compress(ds, cfg).bytes;
    simd::force_scalar(false);
    EXPECT_EQ(scalar_bytes, reference);
  }
}

}  // namespace
}  // namespace tac::core
