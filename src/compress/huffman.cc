#include "compress/huffman.h"

#include <algorithm>
#include <cstring>
#include <queue>

namespace mmlib::huffman {

namespace {

constexpr int kMaxCodeLength = 15;
constexpr int kSymbols = 256;

/// Computes Huffman code lengths for the given frequencies; zero-frequency
/// symbols get length 0. Lengths are capped at kMaxCodeLength by scaling
/// frequencies down and rebuilding when the tree gets too deep.
void ComputeCodeLengths(uint64_t freqs[kSymbols], uint8_t lengths[kSymbols]) {
  struct Node {
    uint64_t weight;
    int symbol;  // -1 for internal
    int left = -1;
    int right = -1;
  };

  for (;;) {
    std::vector<Node> nodes;
    using QueueEntry = std::pair<uint64_t, int>;  // (weight, node index)
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        queue;
    for (int s = 0; s < kSymbols; ++s) {
      if (freqs[s] > 0) {
        nodes.push_back(Node{freqs[s], s});
        queue.push({freqs[s], static_cast<int>(nodes.size()) - 1});
      }
    }
    std::memset(lengths, 0, kSymbols);
    if (nodes.empty()) {
      return;
    }
    if (nodes.size() == 1) {
      lengths[nodes[0].symbol] = 1;
      return;
    }
    while (queue.size() > 1) {
      const auto [wa, a] = queue.top();
      queue.pop();
      const auto [wb, b] = queue.top();
      queue.pop();
      nodes.push_back(Node{wa + wb, -1, a, b});
      queue.push({wa + wb, static_cast<int>(nodes.size()) - 1});
    }

    // Assign depths iteratively from the root.
    int max_depth = 0;
    std::vector<std::pair<int, int>> stack;  // (node, depth)
    stack.push_back({queue.top().second, 0});
    while (!stack.empty()) {
      const auto [index, depth] = stack.back();
      stack.pop_back();
      const Node& node = nodes[index];
      if (node.symbol >= 0) {
        lengths[node.symbol] = static_cast<uint8_t>(depth);
        max_depth = std::max(max_depth, depth);
      } else {
        stack.push_back({node.left, depth + 1});
        stack.push_back({node.right, depth + 1});
      }
    }
    if (max_depth <= kMaxCodeLength) {
      return;
    }
    // Flatten the distribution and retry (rare: needs very skewed input).
    for (int s = 0; s < kSymbols; ++s) {
      if (freqs[s] > 0) {
        freqs[s] = freqs[s] / 2 + 1;
      }
    }
  }
}

/// Assigns canonical codes (numerically increasing with (length, symbol)).
void AssignCanonicalCodes(const uint8_t lengths[kSymbols],
                          uint16_t codes[kSymbols]) {
  uint16_t length_count[kMaxCodeLength + 1] = {};
  for (int s = 0; s < kSymbols; ++s) {
    length_count[lengths[s]]++;
  }
  length_count[0] = 0;
  uint16_t next_code[kMaxCodeLength + 1] = {};
  uint16_t code = 0;
  for (int len = 1; len <= kMaxCodeLength; ++len) {
    code = static_cast<uint16_t>((code + length_count[len - 1]) << 1);
    next_code[len] = code;
  }
  for (int s = 0; s < kSymbols; ++s) {
    if (lengths[s] > 0) {
      codes[s] = next_code[lengths[s]]++;
    }
  }
}

class BitWriter {
 public:
  explicit BitWriter(Bytes* out) : out_(out) {}

  void Write(uint32_t bits, int count) {
    for (int i = count - 1; i >= 0; --i) {
      buffer_ = static_cast<uint8_t>((buffer_ << 1) | ((bits >> i) & 1));
      if (++bit_count_ == 8) {
        out_->push_back(buffer_);
        buffer_ = 0;
        bit_count_ = 0;
      }
    }
  }

  void Flush() {
    if (bit_count_ > 0) {
      out_->push_back(static_cast<uint8_t>(buffer_ << (8 - bit_count_)));
      buffer_ = 0;
      bit_count_ = 0;
    }
  }

 private:
  Bytes* out_;
  uint8_t buffer_ = 0;
  int bit_count_ = 0;
};

class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Result<int> ReadBit() {
    const size_t byte = pos_ / 8;
    if (byte >= size_) {
      return Status::Corruption("Huffman bitstream truncated");
    }
    const int bit = (data_[byte] >> (7 - pos_ % 8)) & 1;
    ++pos_;
    return bit;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

Result<Bytes> Encode(const Bytes& input) {
  uint64_t freqs[kSymbols] = {};
  for (uint8_t b : input) {
    freqs[b]++;
  }
  uint8_t lengths[kSymbols];
  ComputeCodeLengths(freqs, lengths);
  uint16_t codes[kSymbols] = {};
  AssignCanonicalCodes(lengths, codes);

  BytesWriter header;
  header.WriteU64(input.size());
  // 256 code lengths, 4 bits each (lengths fit in 0..15).
  for (int s = 0; s < kSymbols; s += 2) {
    header.WriteU8(
        static_cast<uint8_t>((lengths[s] << 4) | lengths[s + 1]));
  }
  Bytes out = header.TakeBytes();

  BitWriter writer(&out);
  for (uint8_t b : input) {
    writer.Write(codes[b], lengths[b]);
  }
  writer.Flush();
  return out;
}

Result<Bytes> Decode(std::span<const uint8_t> input, size_t max_output) {
  BytesReader reader(input.data(), input.size());
  MMLIB_ASSIGN_OR_RETURN(uint64_t original_size, reader.ReadU64());
  if (original_size > max_output) {
    return Status::Corruption("Huffman payload size out of range");
  }
  // Even a degenerate 1-bit-per-symbol stream cannot produce more than
  // 8 symbols per remaining input byte; reject inflated size claims early
  // so the reserve below cannot exhaust memory.
  if (original_size / 8 > input.size()) {
    return Status::Corruption("Huffman payload size exceeds bitstream");
  }
  uint8_t lengths[kSymbols];
  for (int s = 0; s < kSymbols; s += 2) {
    MMLIB_ASSIGN_OR_RETURN(uint8_t packed, reader.ReadU8());
    lengths[s] = packed >> 4;
    lengths[s + 1] = packed & 0x0f;
  }

  // Canonical decoding tables: first code and first symbol index per length.
  uint16_t length_count[kMaxCodeLength + 1] = {};
  for (int s = 0; s < kSymbols; ++s) {
    length_count[lengths[s]]++;
  }
  length_count[0] = 0;
  // Symbols sorted by (length, symbol).
  std::vector<int> sorted_symbols;
  for (int len = 1; len <= kMaxCodeLength; ++len) {
    for (int s = 0; s < kSymbols; ++s) {
      if (lengths[s] == len) {
        sorted_symbols.push_back(s);
      }
    }
  }
  uint32_t first_code[kMaxCodeLength + 1] = {};
  uint32_t first_index[kMaxCodeLength + 1] = {};
  uint32_t code = 0;
  uint32_t index = 0;
  for (int len = 1; len <= kMaxCodeLength; ++len) {
    code = (code + length_count[len - 1]) << 1;
    first_code[len] = code;
    first_index[len] = index;
    index += length_count[len];
  }

  if (original_size > 0 && sorted_symbols.empty()) {
    return Status::Corruption("Huffman table empty for non-empty payload");
  }

  Bytes out;
  out.reserve(original_size);
  BitReader bits(input.data() + reader.offset(),
                 input.size() - reader.offset());
  for (uint64_t i = 0; i < original_size; ++i) {
    uint32_t value = 0;
    int len = 0;
    for (;;) {
      MMLIB_ASSIGN_OR_RETURN(int bit, bits.ReadBit());
      value = (value << 1) | static_cast<uint32_t>(bit);
      ++len;
      if (len > kMaxCodeLength) {
        return Status::Corruption("invalid Huffman code");
      }
      if (length_count[len] > 0 &&
          value < first_code[len] + length_count[len] &&
          value >= first_code[len]) {
        out.push_back(static_cast<uint8_t>(
            sorted_symbols[first_index[len] + (value - first_code[len])]));
        break;
      }
    }
  }
  return out;
}

}  // namespace mmlib::huffman
