#include "src/streams.h"

#include <utility>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rng::Below(uint64_t bound) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

std::vector<Token> UniformStream(uint32_t n, size_t tokens, uint64_t seed) {
  Rng rng(seed);
  std::vector<Token> s;
  s.reserve(tokens);
  // Each inserted copy is deleted at most once (swap-pop), so no edge
  // multiplicity goes negative.
  std::vector<std::pair<uint32_t, uint32_t>> inserted;
  while (s.size() < tokens) {
    if (!inserted.empty() && rng.Below(10) == 0) {
      size_t pick = rng.Below(inserted.size());
      auto [u, v] = inserted[pick];
      inserted[pick] = inserted.back();
      inserted.pop_back();
      s.push_back({u, v, -1});
      continue;
    }
    uint32_t u = static_cast<uint32_t>(rng.Below(n));
    uint32_t v = static_cast<uint32_t>(rng.Below(n));
    if (u == v) continue;
    s.push_back({u, v, +1});
    inserted.emplace_back(u, v);
  }
  return s;
}

std::vector<Token> HotspotStream(uint32_t n, size_t tokens, uint64_t seed) {
  Rng rng(seed);
  std::vector<Token> s;
  s.reserve(tokens);
  const uint32_t hubs = n < 16 ? 1 : n / 16;
  while (s.size() < tokens) {
    uint32_t u = static_cast<uint32_t>(rng.Below(hubs));
    uint32_t v = static_cast<uint32_t>(rng.Below(n));
    if (u == v) continue;
    size_t run = 1 + rng.Below(4);
    for (size_t r = 0; r < run && s.size() < tokens; ++r) {
      s.push_back({u, v, +1});
    }
  }
  return s;
}

std::vector<Token> SlidingStream(uint32_t n, size_t tokens, uint64_t seed) {
  Rng rng(seed);
  std::vector<Token> s;
  s.reserve(tokens);
  const size_t window = tokens / 8 < 4 ? 4 : tokens / 8;
  std::vector<std::pair<uint32_t, uint32_t>> live;  // FIFO from `head`
  size_t head = 0;
  while (s.size() < tokens) {
    if (live.size() - head >= window) {
      auto [u, v] = live[head++];
      s.push_back({u, v, -1});
      continue;
    }
    uint32_t u = static_cast<uint32_t>(rng.Below(n));
    uint32_t v = static_cast<uint32_t>(rng.Below(n));
    if (u == v) continue;
    s.push_back({u, v, +1});
    live.emplace_back(u, v);
  }
  return s;
}

std::vector<uint8_t> Interleave(const std::vector<size_t>& sizes,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> left = sizes;
  size_t total = 0;
  for (size_t sz : sizes) total += sz;
  std::vector<uint8_t> order;
  order.reserve(total);
  // Drawing the next stream with probability proportional to what it has
  // left makes every merge order equally likely.
  for (size_t remaining = total; remaining > 0; --remaining) {
    uint64_t pick = rng.Below(remaining);
    uint8_t k = 0;
    while (pick >= left[k]) pick -= left[k++];
    --left[k];
    order.push_back(k);
  }
  return order;
}

uint64_t StreamDigest(const std::vector<Token>& tokens) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint32_t word) {
    for (int b = 0; b < 4; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Token& t : tokens) {
    mix(t.u);
    mix(t.v);
    mix(static_cast<uint32_t>(t.delta));
  }
  return h;
}

}  // namespace perfbench
