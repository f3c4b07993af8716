#include "lossless/huffman.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "common/arena.hpp"
#include "common/bitio.hpp"
#include "common/bytes.hpp"
#include "common/telemetry.hpp"

namespace tac::lossless {
namespace {

/// Alphabets whose value range fits under this bound use dense
/// (array-indexed) frequency counts and encode tables instead of hash
/// maps. Quantization codes cluster around the quant radius, so the SZ
/// path is always dense.
constexpr std::uint64_t kDenseRange = std::uint64_t{1} << 18;

struct SymbolRange {
  std::uint32_t min = 0;
  std::uint32_t max = 0;
  [[nodiscard]] std::uint64_t width() const {
    return std::uint64_t{max} - min + 1;
  }
};

SymbolRange scan_symbol_range(std::span<const std::uint32_t> symbols) {
  SymbolRange r{symbols[0], symbols[0]};
  for (const std::uint32_t s : symbols) {
    if (s < r.min) r.min = s;
    if (s > r.max) r.max = s;
  }
  return r;
}

/// Computes optimal code lengths for the given (symbol, freq) pairs using
/// the standard two-queue merge over sorted leaves; O(n log n) from the
/// sort, O(n) merge.
std::vector<std::uint8_t> code_lengths(
    std::vector<std::pair<std::uint64_t, std::uint32_t>>& freq_sym) {
  const std::size_t n = freq_sym.size();
  std::vector<std::uint8_t> lengths(n, 0);
  if (n == 1) {
    lengths[0] = 1;  // a lone symbol still needs one bit to terminate decode
    return lengths;
  }
  std::sort(freq_sym.begin(), freq_sym.end());

  // Internal tree built over indices: leaves are [0, n), internals appended.
  struct Node {
    std::uint64_t freq;
    int left, right;  // children indices; -1 marks a leaf
  };
  std::vector<Node> nodes;
  nodes.reserve(2 * n);
  for (const auto& [f, s] : freq_sym) nodes.push_back({f, -1, -1});

  std::size_t leaf_next = 0;
  std::vector<int> merged;  // queue of internal node ids (freqs ascending)
  merged.reserve(n);
  std::size_t merged_next = 0;

  auto pop_min = [&]() -> int {
    const bool leaf_ok = leaf_next < n;
    const bool int_ok = merged_next < merged.size();
    if (leaf_ok &&
        (!int_ok || nodes[leaf_next].freq <= nodes[merged[merged_next]].freq))
      return static_cast<int>(leaf_next++);
    return merged[merged_next++];
  };

  for (std::size_t i = 0; i + 1 < n; ++i) {
    const int a = pop_min();
    const int b = pop_min();
    nodes.push_back({nodes[a].freq + nodes[b].freq, a, b});
    merged.push_back(static_cast<int>(nodes.size()) - 1);
  }

  // Depth-first assignment of depths to leaves.
  std::vector<std::pair<int, std::uint8_t>> stack{
      {static_cast<int>(nodes.size()) - 1, 0}};
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    const Node& nd = nodes[static_cast<std::size_t>(id)];
    if (nd.left < 0) {
      lengths[static_cast<std::size_t>(id)] = depth == 0 ? 1 : depth;
    } else {
      stack.push_back({nd.left, static_cast<std::uint8_t>(depth + 1)});
      stack.push_back({nd.right, static_cast<std::uint8_t>(depth + 1)});
    }
  }
  return lengths;
}

struct CanonicalCodes {
  // Parallel to table.symbols.
  std::vector<std::uint64_t> codes;
  std::array<std::uint64_t, HuffmanTable::kMaxLen + 2> first_code{};
  std::array<std::uint32_t, HuffmanTable::kMaxLen + 2> offset{};
  std::array<std::uint32_t, HuffmanTable::kMaxLen + 2> count{};
  std::vector<std::uint32_t> by_length;  // symbol ids sorted by (len, sym)
  unsigned min_len = 1;
  unsigned max_len = 1;
};

/// Assigns canonical codes: shorter codes first, ties broken by symbol
/// value. Standard DEFLATE-style construction. Symbols are stored sorted
/// ascending, so the (length, symbol) order falls out of one stable pass
/// instead of a comparison sort.
CanonicalCodes canonicalize(const HuffmanTable& table) {
  CanonicalCodes cc;
  const std::size_t n = table.symbols.size();
  cc.codes.resize(n);
  cc.by_length.resize(n);
  for (std::size_t i = 0; i < n; ++i) ++cc.count[table.lengths[i]];

  cc.min_len = 1;
  while (cc.min_len < HuffmanTable::kMaxLen && cc.count[cc.min_len] == 0)
    ++cc.min_len;
  cc.max_len = HuffmanTable::kMaxLen;
  while (cc.max_len > 1 && cc.count[cc.max_len] == 0) --cc.max_len;

  std::uint64_t code = 0;
  std::uint32_t off = 0;
  for (unsigned len = 1; len <= HuffmanTable::kMaxLen; ++len) {
    code <<= 1;
    cc.first_code[len] = code;
    cc.offset[len] = off;
    code += cc.count[len];
    off += cc.count[len];
  }
  // Counting sort by length: table.symbols is ascending, so ids of equal
  // length arrive in symbol order — exactly the canonical tie-break.
  std::array<std::uint32_t, HuffmanTable::kMaxLen + 2> next = cc.offset;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned len = table.lengths[i];
    const std::uint32_t slot = next[len]++;
    cc.by_length[slot] = static_cast<std::uint32_t>(i);
    cc.codes[i] = cc.first_code[len] + (slot - cc.offset[len]);
  }
  return cc;
}

}  // namespace

HuffmanTable huffman_build(std::span<const std::uint32_t> symbols) {
  HuffmanTable table;
  if (symbols.empty()) return table;

  // Frequency count: dense array over the value range when it is compact
  // (always true for quantization codes), hash map otherwise.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> freq_sym;
  const SymbolRange range = scan_symbol_range(symbols);
  if (range.width() <= kDenseRange) {
    ArenaScope scratch;
    const auto counts = scratch.alloc_zero<std::uint64_t>(
        static_cast<std::size_t>(range.width()));
    for (const std::uint32_t s : symbols) ++counts[s - range.min];
    for (std::size_t i = 0; i < counts.size(); ++i)
      if (counts[i] != 0)
        freq_sym.emplace_back(counts[i],
                              range.min + static_cast<std::uint32_t>(i));
  } else {
    std::unordered_map<std::uint32_t, std::uint64_t> freq;
    for (const std::uint32_t s : symbols) ++freq[s];
    freq_sym.reserve(freq.size());
    for (const auto& [sym, f] : freq) freq_sym.emplace_back(f, sym);
  }

  // Length-limit by halving frequencies until the deepest code fits the
  // writer; depth > 57 needs pathological Fibonacci-like counts, so this
  // loop effectively never runs more than once.
  std::vector<std::uint8_t> lengths;
  for (;;) {
    auto fs = freq_sym;
    lengths = code_lengths(fs);
    const std::uint8_t maxlen =
        *std::max_element(lengths.begin(), lengths.end());
    if (maxlen <= HuffmanTable::kMaxLen) {
      freq_sym = std::move(fs);
      break;
    }
    for (auto& [f, s] : freq_sym) f = (f + 1) / 2;
  }

  std::vector<std::pair<std::uint32_t, std::uint8_t>> sym_len(freq_sym.size());
  for (std::size_t i = 0; i < freq_sym.size(); ++i)
    sym_len[i] = {freq_sym[i].second, lengths[i]};
  std::sort(sym_len.begin(), sym_len.end());

  table.symbols.reserve(sym_len.size());
  table.lengths.reserve(sym_len.size());
  for (const auto& [sym, len] : sym_len) {
    table.symbols.push_back(sym);
    table.lengths.push_back(len);
  }
  return table;
}

std::vector<std::uint8_t> huffman_encode(
    const HuffmanTable& table, std::span<const std::uint32_t> symbols) {
  if (symbols.empty()) return {};
  const CanonicalCodes cc = canonicalize(table);
  const std::size_t n = table.symbols.size();

  BitWriter bw;
  const SymbolRange range{table.symbols.front(), table.symbols.back()};
  if (range.width() <= kDenseRange) {
    // Dense encode table indexed by (symbol - min): code<<6 | length.
    // Length 0 marks a symbol absent from the table.
    ArenaScope scratch;
    const auto enc = scratch.alloc_zero<std::uint64_t>(
        static_cast<std::size_t>(range.width()));
    for (std::size_t i = 0; i < n; ++i)
      enc[table.symbols[i] - range.min] =
          (cc.codes[i] << 6) | table.lengths[i];
    // Two symbols per accumulator push: MSB-first writes concatenate, so
    // write(a,la); write(b,lb) == write(a<<lb | b, la+lb) — identical
    // stream, half the accumulator updates. Skewed quantization codes are
    // 1-2 bits, so the combined length virtually always fits.
    const auto lookup = [&](std::uint32_t s) {
      const std::uint64_t e =
          (s >= range.min && s <= range.max) ? enc[s - range.min] : 0;
      if (e == 0)
        throw std::invalid_argument("huffman_encode: symbol not in table");
      return e;
    };
    std::size_t j = 0;
    for (; j + 1 < symbols.size(); j += 2) {
      const std::uint64_t e1 = lookup(symbols[j]);
      const std::uint64_t e2 = lookup(symbols[j + 1]);
      const unsigned len1 = static_cast<unsigned>(e1 & 63u);
      const unsigned len2 = static_cast<unsigned>(e2 & 63u);
      if (len1 + len2 <= 56) {
        bw.write(((e1 >> 6) << len2) | (e2 >> 6), len1 + len2);
      } else {
        bw.write(e1 >> 6, len1);
        bw.write(e2 >> 6, len2);
      }
    }
    if (j < symbols.size()) {
      const std::uint64_t e = lookup(symbols[j]);
      bw.write(e >> 6, static_cast<unsigned>(e & 63u));
    }
  } else {
    std::unordered_map<std::uint32_t, std::pair<std::uint64_t, std::uint8_t>>
        enc;
    enc.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      enc[table.symbols[i]] = {cc.codes[i], table.lengths[i]};
    for (const std::uint32_t s : symbols) {
      const auto it = enc.find(s);
      if (it == enc.end())
        throw std::invalid_argument("huffman_encode: symbol not in table");
      bw.write(it->second.first, it->second.second);
    }
  }
  return bw.finish();
}

std::vector<std::uint32_t> huffman_decode_reference(
    const HuffmanTable& table, std::span<const std::uint8_t> payload,
    std::size_t count) {
  std::vector<std::uint32_t> out;
  out.reserve(count);
  if (count == 0) return out;
  if (table.empty())
    throw std::invalid_argument("huffman_decode: empty table");

  const CanonicalCodes cc = canonicalize(table);
  BitReader br(payload);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t code = 0;
    unsigned len = 0;
    for (;;) {
      code = code << 1 | (br.read_bit() ? 1u : 0u);
      ++len;
      if (len > HuffmanTable::kMaxLen)
        throw std::runtime_error("huffman_decode: corrupt stream");
      const std::uint64_t rel = code - cc.first_code[len];
      if (cc.count[len] != 0 && code >= cc.first_code[len] &&
          rel < cc.count[len]) {
        const std::uint32_t id = cc.by_length[cc.offset[len] + rel];
        out.push_back(table.symbols[id]);
        break;
      }
    }
  }
  return out;
}

std::vector<std::uint32_t> huffman_decode(const HuffmanTable& table,
                                          std::span<const std::uint8_t> payload,
                                          std::size_t count) {
  if (count == 0) return {};
  if (table.empty())
    throw std::invalid_argument("huffman_decode: empty table");

  const CanonicalCodes cc = canonicalize(table);

  // Up-front sanity: `count` symbols need at least count * min_len bits.
  // A truncated payload fails here immediately instead of spinning the
  // decode loop to the end of the (possibly large) symbol count. The
  // error type matches what the bit reader throws on a mid-symbol
  // truncation.
  const std::size_t total_bits = payload.size() * 8;
  if (static_cast<std::uint64_t>(count) * cc.min_len > total_bits)
    throw std::out_of_range(
        "huffman_decode: payload too short for declared symbol count");

  // Primary table: every code of length <= kPrimaryBits owns all its
  // suffix extensions, so one 12-bit probe resolves it. Longer codes fall
  // through to the canonical by-length walk (they are rare by
  // construction: a 12-bit code needs frequency < data/4096).
  //
  // Entries pack up to TWO symbols: quantization codes are heavily skewed
  // (average length 1-2 bits), so a whole second code usually fits in the
  // probed window and one lookup retires two symbols. Layout (64-bit):
  //   bits  0..5   total consumed length (one or both symbols)
  //   bits  6..11  length of the first symbol alone
  //   bit   12     pair flag
  //   bits 13..37  first symbol id
  //   bits 38..62  second symbol id (pair entries only)
  constexpr unsigned kPrimaryBits = 12;
  ArenaScope scratch;
  const auto primary =
      scratch.alloc_zero<std::uint64_t>(std::size_t{1} << kPrimaryBits);
  const std::size_t n = table.symbols.size();
  const bool ids_fit = n < (std::size_t{1} << 25);
  for (std::size_t id = 0; id < n; ++id) {
    const unsigned len = table.lengths[id];
    if (len > kPrimaryBits) continue;
    const std::uint64_t base = cc.codes[id] << (kPrimaryBits - len);
    const std::size_t fan = std::size_t{1} << (kPrimaryBits - len);
    const std::uint64_t entry =
        (static_cast<std::uint64_t>(id) << 13) | (std::uint64_t{len} << 6) |
        len;
    for (std::size_t k = 0; k < fan; ++k) primary[base + k] = entry;
  }
  if (ids_fit) {
    // Overlay pair entries: for each (first, second) with len1 + len2 <=
    // kPrimaryBits, every slot whose prefix is code1·code2 decodes both.
    // Total writes are bounded by Kraft: sum fan(id1, id2) <= 2^12.
    for (std::size_t id1 = 0; id1 < n; ++id1) {
      const unsigned len1 = table.lengths[id1];
      if (len1 >= kPrimaryBits) continue;
      const std::uint64_t base1 = cc.codes[id1] << (kPrimaryBits - len1);
      for (unsigned len2 = 1; len2 + len1 <= kPrimaryBits; ++len2) {
        for (std::uint32_t s = 0; s < cc.count[len2]; ++s) {
          const std::uint32_t id2 = cc.by_length[cc.offset[len2] + s];
          const unsigned total = len1 + len2;
          const std::uint64_t base =
              base1 | ((cc.first_code[len2] + s) << (kPrimaryBits - total));
          const std::size_t fan = std::size_t{1} << (kPrimaryBits - total);
          const std::uint64_t entry = (std::uint64_t{id2} << 38) |
                                      (std::uint64_t{id1} << 13) |
                                      (std::uint64_t{1} << 12) |
                                      (std::uint64_t{len1} << 6) | total;
          for (std::size_t k = 0; k < fan; ++k) primary[base + k] = entry;
        }
      }
    }
  }

  // Pre-sized output + raw index writes: push_back's capacity check and
  // size store per symbol are measurable at this loop's throughput.
  std::vector<std::uint32_t> out(count);
  std::uint32_t* const dst = out.data();
  const std::uint32_t* const sym = table.symbols.data();
  const std::uint8_t* const bytes = payload.data();
  const std::size_t nbytes = payload.size();
  BitReader br(payload);
  for (std::size_t i = 0; i < count;) {
    // Bulk region: while a full 8-byte window is readable and at least two
    // symbols remain wanted, a primary hit can consume at most
    // kPrimaryBits of the >= 56 peeked bits — every per-probe bounds
    // check (peek boundary, consume overrun) is provably dead, so the
    // loop runs with none. Long codes and the stream tail fall through to
    // the careful path below.
    {
      const std::size_t start = br.bits_consumed();
      std::size_t pos = start;
      bool fall_through = false;
      // 4 probes per window load: each consumes <= kPrimaryBits, and the
      // load supplies >= 57 valid bits, so bit offsets stay < 64 and the
      // serial pos -> address -> load -> probe dependency is paid once
      // per 4 probes instead of every probe. `i + 8` leaves room for 4
      // pair retires.
      while (!fall_through && i + 8 <= count && (pos >> 3) + 8 <= nbytes) {
        std::uint64_t w;
        std::memcpy(&w, bytes + (pos >> 3), 8);
        w = __builtin_bswap64(w) << (pos & 7);
        for (int k = 0; k < 4; ++k) {
          const std::uint64_t e = primary[w >> (64 - kPrimaryBits)];
          if (e == 0) {  // long code: resolve on the careful path
            fall_through = true;
            break;
          }
          // Branch-free retire: single entries carry id2 == 0 (id1 tops
          // out at bit 37) and total == len in bits 0..5, so writing both
          // slots and stepping by 1 + pair_flag is always correct — a
          // single probe's second write is overwritten next trip. The
          // pair/single mix is data-dependent and mispredicts as a branch.
          dst[i] = sym[(e >> 13) & 0x1FFFFFFu];
          dst[i + 1] = sym[e >> 38];
          i += 1 + ((e >> 12) & 1u);
          const unsigned len = e & 63u;
          w <<= len;
          pos += len;
        }
      }
      if (pos != start) br.consume(pos - start);
      if (i >= count) break;
    }
    const std::uint64_t w = br.peek_window();
    const std::uint64_t e = primary[w >> (64 - kPrimaryBits)];
    if (e != 0) {
      if ((e & (std::uint64_t{1} << 12)) != 0 && i + 1 < count) {
        br.consume(e & 63u);  // throws if the pair crosses the end
        dst[i] = sym[(e >> 13) & 0x1FFFFFFu];
        dst[i + 1] = sym[e >> 38];
        i += 2;
        continue;
      }
      br.consume((e >> 6) & 63u);  // throws if the symbol crosses the end
      dst[i] = sym[(e >> 13) & 0x1FFFFFFu];
      ++i;
      continue;
    }
    // Long-code path: compare the left-aligned window against the
    // canonical first-code ladder for lengths above the primary width.
    bool matched = false;
    for (unsigned len = kPrimaryBits + 1; len <= cc.max_len; ++len) {
      const std::uint64_t code = w >> (64 - len);
      const std::uint64_t rel = code - cc.first_code[len];
      if (cc.count[len] != 0 && code >= cc.first_code[len] &&
          rel < cc.count[len]) {
        br.consume(len);
        dst[i] = sym[cc.by_length[cc.offset[len] + rel]];
        ++i;
        matched = true;
        break;
      }
    }
    if (!matched) {
      // The per-bit reference reads until it runs out of payload, so a
      // garbage tail that never matches must surface as the same error.
      if (br.bits_total() - br.bits_consumed() < cc.max_len)
        throw std::out_of_range("BitReader: read past end of stream");
      throw std::runtime_error("huffman_decode: corrupt stream");
    }
  }
  return out;
}

std::vector<std::uint8_t> huffman_table_serialize(const HuffmanTable& table) {
  ByteWriter w;
  w.put_varint(table.symbols.size());
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < table.symbols.size(); ++i) {
    w.put_varint(table.symbols[i] - prev);  // ascending -> small deltas
    prev = table.symbols[i];
    w.put<std::uint8_t>(table.lengths[i]);
  }
  return w.take();
}

HuffmanTable huffman_table_deserialize(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const std::uint64_t n = r.get_varint();
  // Each entry is a symbol-delta varint and a length byte.
  if (n > r.remaining() / 2)
    throw std::runtime_error("huffman table: symbol count exceeds table");
  HuffmanTable table;
  table.symbols.reserve(n);
  table.lengths.reserve(n);
  std::uint32_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    prev += static_cast<std::uint32_t>(r.get_varint());
    const auto len = r.get<std::uint8_t>();
    if (len == 0 || len > HuffmanTable::kMaxLen)
      throw std::runtime_error("huffman table: invalid code length");
    table.symbols.push_back(prev);
    table.lengths.push_back(len);
  }
  return table;
}

std::vector<std::uint8_t> huffman_compress(
    std::span<const std::uint32_t> symbols) {
  TAC_SPAN_NAMED(span, "huffman.compress");
  TAC_COUNTER_ADD("huffman.encode_symbols", symbols.size());
  ByteWriter w;
  w.put_varint(symbols.size());
  HuffmanTable table;
  {
    TAC_SPAN("huffman.build");
    table = huffman_build(symbols);
  }
  w.put_blob(huffman_table_serialize(table));
  {
    TAC_SPAN_BYTES("huffman.encode", symbols.size_bytes());
    w.put_blob(huffman_encode(table, symbols));
  }
  auto out = w.take();
  span.set_bytes(out.size());
  TAC_COUNTER_ADD("huffman.encode_bytes_out", out.size());
  return out;
}

std::vector<std::uint32_t> huffman_decompress(
    std::span<const std::uint8_t> bytes) {
  TAC_SPAN_NAMED(span, "huffman.decode");
  ByteReader r(bytes);
  const std::uint64_t count = r.get_varint();
  const auto tbl_bytes = r.get_blob();
  const HuffmanTable table = huffman_table_deserialize(tbl_bytes);
  const auto payload = r.get_blob();
  auto out = huffman_decode(table, payload, static_cast<std::size_t>(count));
  span.set_bytes(out.size() * sizeof(std::uint32_t));
  TAC_COUNTER_ADD("huffman.decode_symbols", out.size());
  return out;
}

}  // namespace tac::lossless
