#pragma once

#include <span>

#include "util/bytes.h"
#include "util/result.h"

namespace mmlib {

/// Canonical byte-level Huffman coding.
///
/// Encodes a byte stream with a canonical Huffman code built from its
/// symbol frequencies. The header stores the 256 code lengths (4 bits
/// each); codes are limited to 15 bits. Used as the entropy stage of the
/// deflate-style Lz77HuffmanCodec.
namespace huffman {

/// Encodes `input`; output is self-contained (header + bitstream).
Result<Bytes> Encode(const Bytes& input);

/// Inverse of Encode. Fails with Corruption when the header claims more
/// than `max_output` bytes (corrupted sizes must not exhaust memory).
Result<Bytes> Decode(std::span<const uint8_t> input,
                     size_t max_output = 1ULL << 35);

}  // namespace huffman

}  // namespace mmlib

