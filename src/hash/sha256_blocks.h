#pragma once

// Private to src/hash: the SHA-256 compression functions behind Sha256.
// Exposed only so tests can run each path directly and compare them.

#include <cstddef>
#include <cstdint>

namespace mmlib::sha256_internal {

/// Applies the SHA-256 compression function to `num_blocks` consecutive
/// 64-byte blocks at `blocks`, updating `state` (a..h, host order).
using BlocksFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                          size_t num_blocks);

/// Scalar FIPS 180-4 rounds; runs on every CPU.
void BlocksPortable(uint32_t state[8], const uint8_t* blocks,
                    size_t num_blocks);

#if defined(__x86_64__)
/// x86 SHA extensions (SHA-NI). Call only when CpuHasShaNi() is true.
void BlocksShaNi(uint32_t state[8], const uint8_t* blocks, size_t num_blocks);
#endif

/// True when the running CPU has the x86 SHA extensions (and SSE4.1).
/// Detected once per process.
bool CpuHasShaNi();

/// The block function Sha256 uses: SHA-NI when available, else portable.
/// Both produce identical states for identical inputs.
BlocksFn SelectedBlocks();

}  // namespace mmlib::sha256_internal
