// Exact reference answers, computed from the generated stream before any
// clock starts. Independent of the library: a private union-find over
// the edges whose multiplicity is nonzero at each queried position.
#ifndef PERFBENCH_SRC_REFERENCE_H_
#define PERFBENCH_SRC_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "src/streams.h"

namespace perfbench {

/// For each position p in `positions` (ascending, each <= stream size),
/// the number of connected components of the n-node graph made of the
/// edges with nonzero multiplicity after the first p tokens.
std::vector<uint64_t> ExactComponents(uint32_t n,
                                      const std::vector<Token>& stream,
                                      const std::vector<uint64_t>& positions);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REFERENCE_H_
