#include "src/sample/reservoir.h"

namespace cvopt {

size_t DrawOrdinals(uint64_t n, uint64_t k, Rng* rng, uint32_t* out,
                    std::vector<uint64_t>* bitmap) {
  if (k >= n) {
    for (uint64_t i = 0; i < n; ++i) out[i] = static_cast<uint32_t>(i);
    return static_cast<size_t>(n);
  }
  const size_t words = static_cast<size_t>((n + 63) / 64);
  if (bitmap->size() < words) bitmap->resize(words, 0);
  uint64_t* bits = bitmap->data();
  // Floyd: for j = n-k .. n-1, take a uniform t in [0, j], or j itself
  // when t is already taken (j never is: earlier picks are all below j).
  for (uint64_t j = n - k; j < n; ++j) {
    uint64_t t = rng->Uniform(j + 1);
    if ((bits[t >> 6] >> (t & 63)) & 1) t = j;
    bits[t >> 6] |= uint64_t{1} << (t & 63);
  }
  // Read back ascending, zeroing each word; the words past the k-th set
  // bit are already zero.
  size_t i = 0;
  for (size_t w = 0; i < k; ++w) {
    uint64_t x = bits[w];
    bits[w] = 0;
    for (; x != 0; x &= x - 1) {
      out[i++] = static_cast<uint32_t>(w * 64 + __builtin_ctzll(x));
    }
  }
  return static_cast<size_t>(k);
}

}  // namespace cvopt
