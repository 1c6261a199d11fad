// k-RECOVERY (Theorem 2.2): exact recovery of a vector with at most k
// nonzero entries, FAIL otherwise.
//
// Layout: `rows` independent hash rows, each with ~2k 1-sparse cells; an
// element hashes to one cell per row. Decoding peels: any cell whose
// restricted vector is 1-sparse reveals one (index, value) pair, which is
// then cancelled from every row (linearity), exposing further cells. With
// 2k cells per row and O(log) rows this recovers every k-sparse vector
// w.h.p. and detects failure otherwise — the classic IBLT / exact sparse
// recovery structure of Gilbert-Indyk [24].
//
// Like the ℓ₀-sampler, the measurement core is factored out over raw cell
// slices so sketches can either own their cells (SparseRecovery) or borrow
// them from a bank-owned contiguous arena (SparseRecoveryView over
// NodeRecoveryBank storage, src/core/node_sketch.h).
#ifndef GRAPHSKETCH_SRC_SKETCH_SPARSE_RECOVERY_H_
#define GRAPHSKETCH_SRC_SKETCH_SPARSE_RECOVERY_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/sketch/one_sparse.h"

namespace gsketch {

/// Result of decoding a SparseRecovery sketch.
struct RecoveryResult {
  /// Recovered (index, value) pairs, ascending by index. Valid only when
  /// `ok` is true.
  std::vector<std::pair<uint64_t, int64_t>> entries;
  /// True iff the sketch decoded completely (support fit in capacity).
  bool ok = false;
};

/// Shared parameterization of identically-measured k-RECOVERY sketches.
struct RecoveryParams {
  uint64_t domain = 0;
  uint32_t capacity = 0;
  uint32_t rows = 0;
  uint32_t buckets = 0;  ///< cells per row
  uint64_t seed = 0;

  /// Canonical construction (clamps exactly as the original sketch did).
  static RecoveryParams Make(uint64_t domain, uint32_t capacity,
                             uint32_t rows, uint64_t seed);

  size_t CellsPerSketch() const {
    return static_cast<size_t>(rows) * buckets;
  }

  bool operator==(const RecoveryParams& o) const {
    return domain == o.domain && capacity == o.capacity && rows == o.rows &&
           buckets == o.buckets && seed == o.seed;
  }
  bool operator!=(const RecoveryParams& o) const { return !(*this == o); }
};

// Measurement core over a slice of p.CellsPerSketch() cells, row-major.

/// Applies x[index] += delta to one sketch's cells.
void RecoveryCellsUpdate(const RecoveryParams& p, OneSparseCell* cells,
                         uint64_t index, int64_t delta);

/// Two-sketch variant sharing the per-row hashes (bank hot path: both
/// endpoints of a stream token).
void RecoveryCellsUpdateTwo(const RecoveryParams& p, OneSparseCell* cells_a,
                            OneSparseCell* cells_b, uint64_t index,
                            int64_t delta_a, int64_t delta_b);

/// Applies x[ids[i]] += deltas[i] for i in [0, count) to ONE sketch's
/// cells — the gutter-flush fast path. Row-major iteration derives each
/// row's seeds once per batch; cell updates commute, so the cells are
/// bit-identical to `count` RecoveryCellsUpdate calls in stream order.
void RecoveryCellsUpdateBatch(const RecoveryParams& p, OneSparseCell* cells,
                              const uint64_t* ids, const int64_t* deltas,
                              size_t count);

/// Attempts full recovery from one sketch's cells (peels a scratch copy).
RecoveryResult RecoveryCellsDecode(const RecoveryParams& p,
                                   const OneSparseCell* cells);

/// True iff the summarized vector is zero w.h.p.
bool RecoveryCellsIsZero(const RecoveryParams& p, const OneSparseCell* cells);

/// Linear sketch recovering vectors of support size <= capacity exactly.
class SparseRecovery {
 public:
  /// Constructs a sketch over [0, domain) able to recover up to `capacity`
  /// nonzero entries, with `rows` independent hash rows (>= 2 recommended).
  SparseRecovery(uint64_t domain, uint32_t capacity, uint32_t rows,
                 uint64_t seed);

  /// Applies x[index] += delta. O(rows) cell updates.
  void Update(uint64_t index, int64_t delta) {
    RecoveryCellsUpdate(params_, cells_.data(), index, delta);
  }

  /// Adds another sketch with identical parameterization.
  void Merge(const SparseRecovery& other);

  /// Subtracts another sketch with identical parameterization.
  void Subtract(const SparseRecovery& other);

  /// Attempts full recovery. Does not mutate the sketch.
  RecoveryResult Decode() const {
    return RecoveryCellsDecode(params_, cells_.data());
  }

  /// True iff the summarized vector is zero w.h.p.
  bool IsZero() const { return RecoveryCellsIsZero(params_, cells_.data()); }

  /// Number of 1-sparse cells held (space proxy).
  size_t CellCount() const { return cells_.size(); }

  /// Serializes parameters, seed, and cells (Sec 1.1 wire format).
  void AppendTo(std::string* out) const;

  /// Parses a sketch back from the wire; nullopt on malformed input.
  static std::optional<SparseRecovery> Deserialize(ByteReader* r);

  uint64_t domain() const { return params_.domain; }
  uint32_t capacity() const { return params_.capacity; }
  uint32_t rows() const { return params_.rows; }
  uint64_t seed() const { return params_.seed; }
  const RecoveryParams& params() const { return params_; }

 private:
  friend class NodeRecoveryBank;    // arena SumOver accumulates into cells_
  friend class SparseRecoveryView;  // Materialize copies into cells_

  RecoveryParams params_;
  std::vector<OneSparseCell> cells_;
};

/// Read-only view of one k-RECOVERY sketch living in a bank arena. Valid
/// only while the owning bank is alive and unmoved.
class SparseRecoveryView {
 public:
  SparseRecoveryView(const RecoveryParams* params, const OneSparseCell* cells)
      : params_(params), cells_(cells) {}

  RecoveryResult Decode() const {
    return RecoveryCellsDecode(*params_, cells_);
  }
  bool IsZero() const { return RecoveryCellsIsZero(*params_, cells_); }
  size_t CellCount() const { return params_->CellsPerSketch(); }

  /// Copies the viewed slice into an owning sketch.
  SparseRecovery Materialize() const;

  uint64_t domain() const { return params_->domain; }
  uint32_t capacity() const { return params_->capacity; }
  uint32_t rows() const { return params_->rows; }
  uint64_t seed() const { return params_->seed; }
  const OneSparseCell* cells() const { return cells_; }

 private:
  const RecoveryParams* params_;
  const OneSparseCell* cells_;
};

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_SKETCH_SPARSE_RECOVERY_H_
