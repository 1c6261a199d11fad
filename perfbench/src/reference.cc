#include "src/reference.h"

#include <numeric>
#include <unordered_map>

namespace perfbench {
namespace {

class UnionFind {
 public:
  explicit UnionFind(uint32_t n) : parent_(n), components_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }

  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    parent_[a] = b;
    --components_;
  }

  uint64_t components() const { return components_; }

 private:
  std::vector<uint32_t> parent_;
  uint64_t components_;
};

}  // namespace

std::vector<uint64_t> ExactComponents(
    uint32_t n, const std::vector<Token>& stream,
    const std::vector<uint64_t>& positions) {
  std::unordered_map<uint64_t, int64_t> multiplicity;
  auto key = [](uint32_t u, uint32_t v) {
    uint64_t a = u < v ? u : v;
    uint64_t b = u < v ? v : u;
    return (b << 32) | a;
  };
  std::vector<uint64_t> out;
  out.reserve(positions.size());
  size_t next = 0;
  for (uint64_t p = 0; next < positions.size(); ++p) {
    while (next < positions.size() && positions[next] == p) {
      UnionFind uf(n);
      for (const auto& [edge, count] : multiplicity) {
        uf.Union(static_cast<uint32_t>(edge >> 32),
                 static_cast<uint32_t>(edge & 0xffffffffu));
      }
      out.push_back(uf.components());
      ++next;
    }
    if (p == stream.size()) break;
    const Token& t = stream[p];
    auto it = multiplicity.emplace(key(t.u, t.v), 0).first;
    it->second += t.delta;
    if (it->second == 0) multiplicity.erase(it);
  }
  return out;
}

}  // namespace perfbench
