// CRC-32 (declared in hash/sha256.h): slicing-by-8 on every CPU, and
// carry-less-multiply folding on x86 CPUs with PCLMULQDQ, chosen once per
// process the way Sha256 chooses its block function.

#include "hash/crc32_paths.h"
#include "hash/sha256.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mmlib {

namespace {

/// Slicing-by-8 tables: entries[0] is the classic byte-at-a-time table and
/// entries[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// input bytes fold into the register with eight independent lookups.
struct Crc32Tables {
  uint32_t entries[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      }
      entries[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xff];
      }
    }
  }
};

const Crc32Tables& GetCrc32Tables() {
  static const Crc32Tables* tables = new Crc32Tables();
  return *tables;
}

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

namespace crc32_internal {

uint32_t Crc32Slicing8(const uint8_t* data, size_t size, uint32_t seed) {
  const auto& t = GetCrc32Tables().entries;
  uint32_t c = seed ^ 0xffffffffu;
  for (; size >= 8; size -= 8, data += 8) {
    const uint32_t lo = LoadLe32(data) ^ c;
    const uint32_t hi = LoadLe32(data + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++data) {
    c = t[0][(c ^ *data) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

#if defined(__x86_64__)

namespace {

#define MMLIB_CLMUL __attribute__((target("pclmul,sse4.1")))

/// One fold step: carries the 128 bits of `acc` forward over the distance
/// the constant pair `k` encodes and adds `next`.
MMLIB_CLMUL inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Folds `size` bytes (a multiple of 16, at least 64) into the CRC register
/// `crc` (pre-inverted, as in Crc32Slicing8) and returns the register. This
/// is the scheme of "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction" (Gopal et al., Intel, 2009): four 128-bit lanes
/// fold 64 bytes per step, collapse into one lane, and a Barrett reduction
/// yields 32 bits. The constants are x^n mod P for the bit-reflected IEEE
/// polynomial, and P and its Barrett quotient themselves.
MMLIB_CLMUL uint32_t FoldBlocks(const uint8_t* data, size_t size,
                                uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  auto load = [](const uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };

  __m128i x1 = _mm_xor_si128(load(data), _mm_cvtsi32_si128(crc));
  __m128i x2 = load(data + 16);
  __m128i x3 = load(data + 32);
  __m128i x4 = load(data + 48);
  data += 64;
  size -= 64;
  for (; size >= 64; data += 64, size -= 64) {
    x1 = Fold(x1, k1k2, load(data));
    x2 = Fold(x2, k1k2, load(data + 16));
    x3 = Fold(x3, k1k2, load(data + 32));
    x4 = Fold(x4, k1k2, load(data + 48));
  }

  // Four lanes into one, then any remaining whole 16-byte blocks.
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; size >= 16; data += 16, size -= 16) {
    x1 = Fold(x1, k3k4, load(data));
  }

  // 128 bits to 64.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduction to 32 bits.
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

}  // namespace

MMLIB_CLMUL uint32_t Crc32Clmul(const uint8_t* data, size_t size,
                                uint32_t seed) {
  if (size < 64) {
    return Crc32Slicing8(data, size, seed);
  }
  const size_t whole = size & ~size_t{15};
  const uint32_t crc = ~FoldBlocks(data, whole, ~seed);
  return Crc32Slicing8(data + whole, size - whole, crc);
}

#undef MMLIB_CLMUL

bool CpuHasClmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

Crc32Fn SelectedCrc32() {
  static const Crc32Fn fn = CpuHasClmul() ? Crc32Clmul : Crc32Slicing8;
  return fn;
}

#else

bool CpuHasClmul() { return false; }

Crc32Fn SelectedCrc32() { return Crc32Slicing8; }

#endif  // defined(__x86_64__)

}  // namespace crc32_internal

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
  return crc32_internal::SelectedCrc32()(data, size, seed);
}

uint32_t Crc32(const Bytes& data) { return Crc32(data.data(), data.size()); }

}  // namespace mmlib
