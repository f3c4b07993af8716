#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "amr/snapshot.hpp"
#include "common/crc32.hpp"
#include "core/adaptive.hpp"
#include "core/backend.hpp"
#include "core/baselines.hpp"
#include "core/tac.hpp"
#include "simnyx/generator.hpp"

/// Container format v2: payload index, per-payload CRC32 checksums,
/// random-access partial decompression and v1 backward compatibility.

namespace tac::core {
namespace {

constexpr Method kAllMethods[] = {Method::kTac, Method::kOneD, Method::kZMesh,
                                  Method::kUpsample3D, Method::kAuto};

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

std::vector<std::uint8_t> compress_with(Method m, const amr::AmrDataset& ds) {
  return backend_for(m).compress(ds, test_config()).bytes;
}

CommonHeader header_of(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  return read_common_header(r);
}

/// Partial decode must reproduce exactly the slice a full decode yields:
/// same dims, same mask, byte-identical data (not approximately equal).
void expect_same_level(const amr::AmrLevel& got, const amr::AmrLevel& want,
                       const std::string& what) {
  ASSERT_EQ(got.dims(), want.dims()) << what;
  ASSERT_EQ(got.data.size(), want.data.size()) << what;
  EXPECT_TRUE(std::memcmp(got.data.span().data(), want.data.span().data(),
                          got.data.size() * sizeof(double)) == 0)
      << what;
  EXPECT_TRUE(got.mask == want.mask) << what;
}

/// Rebuilds the v1 serialization of a v2 container: v1 is byte-identical
/// except for the version byte and the absent payload index.
std::vector<std::uint8_t> downgrade_to_v1(
    const std::vector<std::uint8_t>& v2) {
  const CommonHeader h = header_of(v2);
  std::vector<std::uint8_t> v1(v2.begin(),
                               v2.begin() + static_cast<long>(h.index_offset));
  v1.insert(v1.end(), v2.begin() + static_cast<long>(h.payload_offset),
            v2.end());
  v1[4] = 1;  // magic:4 bytes, then the format version byte
  return v1;
}

TEST(ContainerV2, HeaderCarriesPayloadIndex) {
  const auto ds = small_dataset();
  for (const Method m : kAllMethods) {
    const auto bytes = compress_with(m, ds);
    const CommonHeader h = header_of(bytes);
    EXPECT_EQ(h.version, kFormatVersion);
    const std::size_t expected_payloads =
        (m == Method::kZMesh || m == Method::kUpsample3D) ? 1u
                                                          : ds.num_levels();
    ASSERT_EQ(h.index.entries.size(), expected_payloads) << to_string(m);

    // Entries tile the byte range [payload_offset, size) contiguously.
    std::uint64_t cursor = h.payload_offset;
    for (const PayloadEntry& e : h.index.entries) {
      EXPECT_EQ(e.offset, cursor) << to_string(m);
      cursor += e.length;
    }
    EXPECT_EQ(cursor, bytes.size()) << to_string(m);
    EXPECT_NO_THROW(verify_payloads(bytes, h.index)) << to_string(m);
  }
}

TEST(ContainerV2, DecompressLevelMatchesFullDecodeForEveryBackend) {
  const auto ds = small_dataset(32, {0.1, 0.3, 0.6});
  for (const Method m : kAllMethods) {
    const auto bytes = compress_with(m, ds);
    const auto full = decompress_any(bytes);
    for (std::size_t l = 0; l < ds.num_levels(); ++l)
      expect_same_level(decompress_level(bytes, l), full.level(l),
                        std::string(to_string(m)) + " level " +
                            std::to_string(l));
  }
}

TEST(ContainerV2, HeaderSkeletonIsStructureOnly) {
  const auto ds = small_dataset(32, {0.1, 0.3, 0.6});
  for (const Method m : kAllMethods) {
    const auto bytes = compress_with(m, ds);
    const CommonHeader h = header_of(bytes);
    EXPECT_EQ(h.skeleton.field_name(), ds.field_name()) << to_string(m);
    EXPECT_EQ(h.skeleton.refinement_ratio(), ds.refinement_ratio())
        << to_string(m);
    ASSERT_EQ(h.skeleton.num_levels(), ds.num_levels()) << to_string(m);
    for (std::size_t l = 0; l < ds.num_levels(); ++l) {
      const amr::AmrLevel& lv = h.skeleton.level(l);
      EXPECT_TRUE(lv.data.empty()) << to_string(m) << " level " << l;
      EXPECT_EQ(lv.dims(), ds.level(l).dims()) << to_string(m) << " level "
                                               << l;
      EXPECT_TRUE(lv.mask == ds.level(l).mask)
          << to_string(m) << " level " << l;
    }
  }
}

TEST(ContainerV2, DecompressLevelOutOfRangeThrows) {
  const auto ds = small_dataset();
  for (const Method m : kAllMethods) {
    const auto bytes = compress_with(m, ds);
    EXPECT_THROW((void)decompress_level(bytes, ds.num_levels()),
                 std::out_of_range)
        << to_string(m);
  }
}

TEST(ContainerV2, AnySingleByteCorruptionInPayloadIsChecksumError) {
  const auto ds = small_dataset();
  for (const Method m : kAllMethods) {
    const auto bytes = compress_with(m, ds);
    const CommonHeader h = header_of(bytes);
    for (std::size_t i = 0; i < h.index.entries.size(); ++i) {
      const PayloadEntry& e = h.index.entries[i];
      // Corrupt the first, middle and last byte of the payload.
      for (const std::uint64_t rel : {std::uint64_t{0}, e.length / 2,
                                      e.length - 1}) {
        auto corrupted = bytes;
        corrupted[static_cast<std::size_t>(e.offset + rel)] ^= 0x40;
        EXPECT_THROW((void)decompress_any(corrupted), ChecksumError)
            << to_string(m) << " payload " << i << " byte " << rel;
      }
    }
  }
}

TEST(ContainerV2, PartialDecodeCatchesItsOwnPayloadCorruption) {
  const auto ds = small_dataset();
  for (const Method m : {Method::kTac, Method::kOneD}) {
    const auto bytes = compress_with(m, ds);
    const CommonHeader h = header_of(bytes);
    ASSERT_EQ(h.index.entries.size(), ds.num_levels());
    for (std::size_t l = 0; l < ds.num_levels(); ++l) {
      auto corrupted = bytes;
      const PayloadEntry& e = h.index.entries[l];
      corrupted[static_cast<std::size_t>(e.offset + e.length / 2)] ^= 0x01;
      EXPECT_THROW((void)decompress_level(corrupted, l), ChecksumError)
          << to_string(m) << " level " << l;
      // The other levels' payloads are untouched: partial decode of a
      // clean level still succeeds on the corrupted container.
      for (std::size_t other = 0; other < ds.num_levels(); ++other) {
        if (other == l) continue;
        EXPECT_NO_THROW((void)decompress_level(corrupted, other))
            << to_string(m) << " corrupt " << l << " read " << other;
      }
    }
  }
}

TEST(ContainerV2, TruncationAtEveryIndexBoundaryThrows) {
  const auto ds = small_dataset();
  for (const Method m : kAllMethods) {
    const auto bytes = compress_with(m, ds);
    const CommonHeader h = header_of(bytes);
    std::vector<std::size_t> cuts = {h.index_offset, h.index_offset + 1,
                                     h.payload_offset};
    for (const PayloadEntry& e : h.index.entries) {
      cuts.push_back(static_cast<std::size_t>(e.offset));
      cuts.push_back(static_cast<std::size_t>(e.offset + e.length / 2));
      cuts.push_back(static_cast<std::size_t>(e.offset + e.length) - 1);
    }
    for (const std::size_t cut : cuts) {
      ASSERT_LT(cut, bytes.size());
      const std::vector<std::uint8_t> truncated(
          bytes.begin(), bytes.begin() + static_cast<long>(cut));
      EXPECT_THROW((void)decompress_any(truncated), std::exception)
          << to_string(m) << " cut at " << cut;
    }
  }
}

TEST(ContainerV2, V1ContainersStillDecode) {
  const auto ds = small_dataset(32, {0.1, 0.3, 0.6});
  for (const Method m : kAllMethods) {
    // auto containers name each payload's backend in the v4 selector
    // bytes, so they have no v1 form.
    if (m == Method::kAuto) continue;
    const auto v2 = compress_with(m, ds);
    const auto v1 = downgrade_to_v1(v2);
    ASSERT_LT(v1.size(), v2.size());
    EXPECT_EQ(peek_method(v1), m);

    const CommonHeader h = header_of(v1);
    EXPECT_EQ(h.version, 1);
    EXPECT_TRUE(h.index.entries.empty());
    EXPECT_EQ(h.index_offset, h.payload_offset);

    const auto from_v1 = decompress_any(v1);
    const auto from_v2 = decompress_any(v2);
    ASSERT_EQ(from_v1.num_levels(), from_v2.num_levels());
    for (std::size_t l = 0; l < from_v1.num_levels(); ++l)
      EXPECT_TRUE(std::memcmp(from_v1.level(l).data.span().data(),
                              from_v2.level(l).data.span().data(),
                              from_v1.level(l).data.size() *
                                  sizeof(double)) == 0)
          << to_string(m) << " level " << l;

    // Partial decompression falls back to a full decode on v1 input but
    // still returns the right level.
    for (std::size_t l = 0; l < from_v1.num_levels(); ++l)
      expect_same_level(decompress_level(v1, l), from_v1.level(l),
                        std::string(to_string(m)) + " v1 level " +
                            std::to_string(l));
  }
}

TEST(ContainerV2, IndexOverheadIsSmall) {
  // Tight bound -> large payloads; the fixed-size index must stay under
  // the 1% budget the bench enforces on the tab02 workload.
  const auto ds = small_dataset(64, {0.23, 0.77});
  TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kRelative;
  cfg.sz.error_bound = 1e-6;
  const auto bytes = tac_compress(ds, cfg).bytes;
  const CommonHeader h = header_of(bytes);
  const std::size_t index_bytes = h.payload_offset - h.index_offset;
  EXPECT_LT(static_cast<double>(index_bytes),
            0.01 * static_cast<double>(bytes.size()))
      << index_bytes << " index bytes in a " << bytes.size()
      << "-byte container";
}

TEST(ContainerV2, IndexEntryRangeCorruptionIsStructuralError) {
  const auto ds = small_dataset();
  const auto bytes = compress_with(Method::kTac, ds);
  const CommonHeader h = header_of(bytes);
  // The first index entry's offset field lives right after the varint
  // count; stomp its length field with a huge value.
  auto corrupted = bytes;
  const std::size_t first_entry = h.index_offset + 1;  // count < 128: 1 byte
  const std::uint64_t huge = ~std::uint64_t{0};
  std::memcpy(corrupted.data() + first_entry + 8, &huge, sizeof(huge));
  EXPECT_THROW((void)decompress_any(corrupted), std::runtime_error);
}

// ---------------------------------------------------------------- snapshot

amr::Snapshot make_snapshot() {
  amr::Snapshot s;
  const auto base = small_dataset();
  for (const char* name : {"baryon_density", "temperature", "velocity_x"}) {
    std::vector<amr::AmrLevel> levels(base.levels());
    amr::AmrDataset ds(name, std::move(levels), base.refinement_ratio());
    // Distinct data per field so cross-field mix-ups are caught.
    const double scale = 1.0 + static_cast<double>(s.fields.size());
    for (std::size_t l = 0; l < ds.num_levels(); ++l)
      for (std::size_t i = 0; i < ds.level(l).data.size(); ++i)
        ds.level(l).data[i] *= scale;
    s.fields.push_back(std::move(ds));
  }
  return s;
}

TEST(SnapshotV2, FieldIndexListsNamesInOrder) {
  const auto s = make_snapshot();
  const auto bytes = compress_snapshot(s, test_config());
  const auto names = snapshot_field_names(bytes);
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "baryon_density");
  EXPECT_EQ(names[1], "temperature");
  EXPECT_EQ(names[2], "velocity_x");
}

TEST(SnapshotV2, DecompressFieldMatchesFullDecode) {
  const auto s = make_snapshot();
  const auto bytes = compress_snapshot(s, test_config());
  const auto full = decompress_snapshot(bytes);
  for (std::size_t f = 0; f < s.fields.size(); ++f) {
    const auto one =
        decompress_field(bytes, s.fields[f].field_name());
    ASSERT_EQ(one.num_levels(), full.fields[f].num_levels());
    for (std::size_t l = 0; l < one.num_levels(); ++l)
      EXPECT_TRUE(std::memcmp(one.level(l).data.span().data(),
                              full.fields[f].level(l).data.span().data(),
                              one.level(l).data.size() * sizeof(double)) ==
                  0)
          << "field " << f << " level " << l;
  }
  EXPECT_THROW((void)decompress_field(bytes, "no_such_field"),
               std::runtime_error);
}

TEST(SnapshotV2, FieldCorruptionIsChecksumErrorOnlyForThatField) {
  const auto s = make_snapshot();
  auto bytes = compress_snapshot(s, test_config());
  // Corrupt a byte in the middle of field 1's container slice.
  const auto clean = bytes;
  const auto span = snapshot_field_bytes(clean, "temperature");
  const std::size_t field_mid =
      static_cast<std::size_t>(span.data() - clean.data()) + span.size() / 2;
  bytes[field_mid] ^= 0x10;
  EXPECT_THROW((void)decompress_field(bytes, "temperature"), ChecksumError);
  EXPECT_THROW((void)decompress_snapshot(bytes), ChecksumError);
  // Sibling fields stay independently readable.
  EXPECT_NO_THROW((void)decompress_field(bytes, "baryon_density"));
  EXPECT_NO_THROW((void)decompress_field(bytes, "velocity_x"));
}

TEST(SnapshotV2, V1SnapshotsStillDecode) {
  const auto s = make_snapshot();
  const TacConfig cfg = test_config();
  // Hand-build the v1 snapshot layout: magic, version 1, count,
  // length-prefixed per-field container blobs (exactly what the v1 writer
  // emitted).
  ByteWriter w;
  w.put<std::uint32_t>(0x53434154);  // "TACS"
  w.put<std::uint8_t>(1);
  w.put_varint(s.fields.size());
  for (const auto& field : s.fields)
    w.put_blob(adaptive_compress(field, cfg).bytes);
  const auto v1 = w.take();

  const auto back = decompress_snapshot(v1);
  ASSERT_EQ(back.fields.size(), s.fields.size());
  const auto names = snapshot_field_names(v1);
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[1], "temperature");
  // Field lookup works on v1 via the header-scan path.
  const auto one = decompress_field(v1, "velocity_x");
  EXPECT_EQ(one.field_name(), "velocity_x");
  EXPECT_EQ(one.num_levels(), s.fields[2].num_levels());
}

}  // namespace
}  // namespace tac::core
