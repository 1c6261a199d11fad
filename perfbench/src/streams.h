// The benchmark's own stream shapes, generated in memory from the seed.
//
// They live here rather than in the repository's src/workload/ so that a
// change to the library's generators cannot change what the benchmark
// measures; tests/selftest.cc pins a digest per shape for one seed. The
// random source is a private SplitMix64 for the same reason.
#ifndef PERFBENCH_SRC_STREAMS_H_
#define PERFBENCH_SRC_STREAMS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One stream token: edge {u, v} gains `delta` copies.
struct Token {
  uint32_t u;
  uint32_t v;
  int32_t delta;
};

/// SplitMix64 sequence with Lemire range reduction.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound), bound > 0.
  uint64_t Below(uint64_t bound);

 private:
  uint64_t state_;
};

/// Uniform endpoints; every tenth draw deletes a random live copy.
std::vector<Token> UniformStream(uint32_t n, size_t tokens, uint64_t seed);

/// Hub bursts: one endpoint among the n/16 hubs, the other uniform, and
/// each drawn edge repeated 1-4 times in a row.
std::vector<Token> HotspotStream(uint32_t n, size_t tokens, uint64_t seed);

/// FIFO sliding window of tokens/8 copies: once the window is full, each
/// step deletes the oldest live copy, so every early arrival is deleted.
std::vector<Token> SlidingStream(uint32_t n, size_t tokens, uint64_t seed);

/// A uniformly random merge of `sizes.size()` streams: entry g names the
/// stream whose next token is the g-th token overall.
std::vector<uint8_t> Interleave(const std::vector<size_t>& sizes,
                                uint64_t seed);

/// FNV-1a over the tokens' fields, for pinning generated streams.
uint64_t StreamDigest(const std::vector<Token>& tokens);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STREAMS_H_
