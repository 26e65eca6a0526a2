#include "hash/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "hash/sha256_blocks.h"

namespace mmlib {

std::string Digest::ToHex() const {
  return mmlib::ToHex(bytes.data(), bytes.size());
}

Result<Digest> Digest::FromHex(std::string_view hex) {
  MMLIB_ASSIGN_OR_RETURN(Bytes raw, mmlib::FromHex(hex));
  if (raw.size() != 32) {
    return Status::InvalidArgument("digest hex must be 64 characters");
  }
  Digest d;
  std::memcpy(d.bytes.data(), raw.data(), 32);
  return d;
}

namespace {

constexpr uint32_t kInitialState[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

namespace sha256_internal {

void BlocksPortable(uint32_t state[8], const uint8_t* blocks,
                    size_t num_blocks) {
  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[i * 4]) << 24) |
             (static_cast<uint32_t>(blocks[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(blocks[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(blocks[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

namespace {

#define MMLIB_SHA_NI __attribute__((target("sha,sse4.1")))

/// Four rounds: `msg` holds W[t..t+3], `k` points at K[t..t+3]. The state
/// is carried as ABEF / CDGH, the layout sha256rnds2 expects.
MMLIB_SHA_NI inline void Rounds4(__m128i& abef, __m128i& cdgh, __m128i msg,
                                 const uint32_t* k) {
  __m128i wk = _mm_add_epi32(
      msg, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  wk = _mm_shuffle_epi32(wk, 0x0e);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
}

/// Message schedule: given W[t-16..t-13], W[t-12..t-9], W[t-8..t-5] and
/// W[t-4..t-1], returns W[t..t+3].
MMLIB_SHA_NI inline __m128i Schedule(__m128i w16, __m128i w12, __m128i w8,
                                     __m128i w4) {
  const __m128i w7 = _mm_alignr_epi8(w4, w8, 4);  // W[t-7..t-4]
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), w7), w4);
}

}  // namespace

MMLIB_SHA_NI void BlocksShaNi(uint32_t state[8], const uint8_t* blocks,
                              size_t num_blocks) {
  // Big-endian message words: reverse the bytes of each 32-bit lane.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // state[0..3] = DCBA and state[4..7] = HGFE (lane 3 first) become ABEF
  // and CDGH.
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const __m128i* in = reinterpret_cast<const __m128i*>(blocks);
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(in), byte_swap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), byte_swap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), byte_swap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), byte_swap);
    // Rounds 0..47 also extend the schedule by the four words needed 16
    // rounds later; rounds 48..63 only consume it.
    for (int t = 0; t < 48; t += 16) {
      Rounds4(abef, cdgh, m0, kRoundConstants + t);
      m0 = Schedule(m0, m1, m2, m3);
      Rounds4(abef, cdgh, m1, kRoundConstants + t + 4);
      m1 = Schedule(m1, m2, m3, m0);
      Rounds4(abef, cdgh, m2, kRoundConstants + t + 8);
      m2 = Schedule(m2, m3, m0, m1);
      Rounds4(abef, cdgh, m3, kRoundConstants + t + 12);
      m3 = Schedule(m3, m0, m1, m2);
    }
    Rounds4(abef, cdgh, m0, kRoundConstants + 48);
    Rounds4(abef, cdgh, m1, kRoundConstants + 52);
    Rounds4(abef, cdgh, m2, kRoundConstants + 56);
    Rounds4(abef, cdgh, m3, kRoundConstants + 60);
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

#undef MMLIB_SHA_NI

bool CpuHasShaNi() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

BlocksFn SelectedBlocks() {
  static const BlocksFn fn = CpuHasShaNi() ? BlocksShaNi : BlocksPortable;
  return fn;
}

#else

bool CpuHasShaNi() { return false; }

BlocksFn SelectedBlocks() { return BlocksPortable; }

#endif  // defined(__x86_64__)

}  // namespace sha256_internal

Sha256::Sha256() {
  std::memcpy(state_, kInitialState, sizeof(state_));
}

void Sha256::Update(const uint8_t* data, size_t size) {
  if (size == 0) {
    return;  // `data` may be null; memcpy must not see it.
  }
  const sha256_internal::BlocksFn blocks = sha256_internal::SelectedBlocks();
  total_bytes_ += size;
  if (buffer_size_ > 0) {
    const size_t take = std::min(size, 64 - buffer_size_);
    std::memcpy(buffer_ + buffer_size_, data, take);
    buffer_size_ += take;
    data += take;
    size -= take;
    if (buffer_size_ < 64) {
      return;
    }
    blocks(state_, buffer_, 1);
    buffer_size_ = 0;
  }
  const size_t whole = size / 64;
  if (whole > 0) {
    blocks(state_, data, whole);
    data += whole * 64;
    size -= whole * 64;
  }
  if (size > 0) {
    std::memcpy(buffer_, data, size);
    buffer_size_ = size;
  }
}

Digest Sha256::Finish() {
  const sha256_internal::BlocksFn blocks = sha256_internal::SelectedBlocks();
  const uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffer_size_++] = 0x80;
  if (buffer_size_ > 56) {
    // No room for the length: pad out this block and start another.
    std::memset(buffer_ + buffer_size_, 0, 64 - buffer_size_);
    blocks(state_, buffer_, 1);
    buffer_size_ = 0;
  }
  std::memset(buffer_ + buffer_size_, 0, 56 - buffer_size_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_length >> (8 * (7 - i)));
  }
  blocks(state_, buffer_, 1);

  Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest.bytes[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    digest.bytes[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest.bytes[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest.bytes[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Digest Sha256::Hash(const uint8_t* data, size_t size) {
  Sha256 hasher;
  hasher.Update(data, size);
  return hasher.Finish();
}

Digest Sha256::HashPair(const Digest& left, const Digest& right) {
  Sha256 hasher;
  hasher.Update(left.bytes.data(), left.bytes.size());
  hasher.Update(right.bytes.data(), right.bytes.size());
  return hasher.Finish();
}

}  // namespace mmlib
