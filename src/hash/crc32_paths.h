#pragma once

// Private to src/hash: the CRC-32 implementations behind Crc32. Exposed
// only so tests can run each path directly and compare them.

#include <cstddef>
#include <cstdint>

namespace mmlib::crc32_internal {

/// CRC-32 of `size` bytes at `data`, continuing from `seed` (a previous
/// result; 0 to start). Every path has this signature and these semantics.
using Crc32Fn = uint32_t (*)(const uint8_t* data, size_t size, uint32_t seed);

/// Slicing-by-8 table lookups; runs on every CPU.
uint32_t Crc32Slicing8(const uint8_t* data, size_t size, uint32_t seed);

#if defined(__x86_64__)
/// Carry-less-multiply folding (PCLMULQDQ) over whole 16-byte blocks,
/// slicing-by-8 for inputs under 64 bytes and the tail. Call only when
/// CpuHasClmul() is true.
uint32_t Crc32Clmul(const uint8_t* data, size_t size, uint32_t seed);
#endif

/// True when the running CPU has PCLMULQDQ and SSE4.1. Detected once per
/// process.
bool CpuHasClmul();

/// The path Crc32 uses: CLMUL when available, else slicing-by-8. Both
/// return identical CRCs for identical inputs.
Crc32Fn SelectedCrc32();

}  // namespace mmlib::crc32_internal
