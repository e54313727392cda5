// CRC-32 of the IEEE 802.3 polynomial (reflected, 0xEDB88320) behind the
// single mm::Crc32 entry point. On x86 CPUs with PCLMULQDQ the bulk of the
// input is folded 64 bytes at a time with carry-less multiplies and reduced
// with a Barrett step; other CPUs, inputs under 64 B and the final tail under
// 16 B go through the byte-at-a-time table. Both paths compute the same value.
#include <array>
#include <cstddef>
#include <cstdint>

#include "mm/util/hash.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define MM_CRC32_CLMUL 1
#include <immintrin.h>
#else
#define MM_CRC32_CLMUL 0
#endif

namespace mm {
namespace {

// Reflected CRC-32 lookup table for polynomial 0xEDB88320, built once.
constexpr std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = BuildCrcTable();

// Advances the running (pre-inverted) CRC state over `size` bytes.
std::uint32_t CrcTable(std::uint32_t crc, const std::uint8_t* data,
                       std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    crc = kCrcTable[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if MM_CRC32_CLMUL

#define MM_CRC32_TARGET __attribute__((target("pclmul,sse4.1")))

MM_CRC32_TARGET inline __m128i Load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds `acc` forward by the distance its constants `k` encode, then adds
// `next`, the 128 bits that distance lands on.
MM_CRC32_TARGET inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Advances the running CRC state over `n` bytes at `p`, where n >= 64 and is
// a multiple of 16. The 4x128-bit fold, 128->64-bit fold and Barrett reduction
// of Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Intel, 2009), with the bit-reflected constants
// for this polynomial: k1..k5, P' = 0x1DB710641 and mu = 0x1F7011641.
MM_CRC32_TARGET std::uint32_t CrcClmul(std::uint32_t crc, const std::uint8_t* p,
                                       std::size_t n) {
  const __m128i seed = _mm_cvtsi32_si128(static_cast<int>(crc));
  __m128i x1 = _mm_xor_si128(Load128(p), seed);
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;

  // Four independent 128-bit lanes, each folded across 512 bits per step.
  const __m128i k1k2 = _mm_set_epi64x(0x1C6E41596, 0x154442BD4);
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }

  // Fold the four lanes into one, then any remaining 16-byte blocks.
  const __m128i k3k4 = _mm_set_epi64x(0x0CCAA009E, 0x1751997D0);
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = Fold(x1, k3k4, Load128(p));
  }

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163CD6124);
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4), t);

  // Barrett reduction to 32 bits.
  const __m128i poly = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

// Decided once, on first use: __builtin_cpu_init makes the feature test safe
// even when the first checksum runs from a static constructor.
bool CpuHasClmul() {
  static const bool kHas = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0 &&
           __builtin_cpu_supports("sse4.1") != 0;
  }();
  return kHas;
}

#undef MM_CRC32_TARGET

#endif  // MM_CRC32_CLMUL

}  // namespace

std::uint32_t Crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
#if MM_CRC32_CLMUL
  if (size >= 64 && CpuHasClmul()) {
    const std::size_t folded = size & ~std::size_t{15};
    crc = CrcClmul(crc, data, folded);
    data += folded;
    size -= folded;
  }
#endif
  return CrcTable(crc, data, size) ^ 0xFFFFFFFFu;
}

}  // namespace mm
