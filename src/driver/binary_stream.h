// Compact binary on-disk format for dynamic graph streams, modeled on the
// binary stream files of production streaming-connectivity systems: a text
// stream parsed with iostreams tops out around a few million updates/sec,
// while fixed-width records read in bulk keep the ingestion pipeline fed.
//
// Layout (little-endian, no alignment):
//   offset  size  field
//   0       4     magic  "GSKB" (0x424b5347)
//   4       4     format version (currently 1)
//   8       4     n — number of nodes; all endpoints are < n
//   12      8     update count t
//   20      12·t  records: u (u32), v (u32), delta (i32)
//
// The writer patches the update count into the header on Close(), so
// streams can be produced without knowing t up front. Readers validate the
// header, endpoint bounds, and that exactly t records are present.
//
// Deltas are int64 everywhere in memory; the wire record keeps its i32
// delta for format-v1 compatibility, so Append SPLITS a wide delta into
// several maximal i32 records for the same edge — linearity makes the
// record sequence exactly equivalent, and readers need no change. (Before
// the split existed, a wide delta was silently truncated to its low 32
// bits on the way to disk.)
#ifndef GRAPHSKETCH_SRC_DRIVER_BINARY_STREAM_H_
#define GRAPHSKETCH_SRC_DRIVER_BINARY_STREAM_H_

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/stream.h"

namespace gsketch {

inline constexpr uint32_t kBinaryStreamMagic = 0x424b5347u;  // "GSKB"
inline constexpr uint32_t kBinaryStreamVersion = 1;
inline constexpr size_t kBinaryStreamHeaderBytes = 20;
inline constexpr size_t kBinaryStreamRecordBytes = 12;

/// Records per ReadBatch call for consumers that stream a whole file
/// (SketchDriver::ProcessFile, the CLI's ingest loops).
inline constexpr size_t kStreamReadChunk = 4096;

/// Most i32 wire records one Append will split a wide delta into, i.e. a
/// per-record delta magnitude cap of ~2.2e12 (1024 · (2³¹−1)). Far past
/// any real multigraph multiplicity; without the cap a single absurd
/// delta (think INT64_MAX from a typo) would silently balloon the file
/// by ~4.3e9 records. Exceeding it fails the writer (ok() goes false).
inline constexpr int64_t kMaxDeltaChunks = 1024;

/// Buffered writer for the GSKB format. Append updates, then Close() (or
/// destroy) to flush and patch the final update count into the header.
class BinaryStreamWriter {
 public:
  /// Opens `path` for writing, truncating. Check ok() before appending.
  BinaryStreamWriter(const std::string& path, NodeId n,
                     size_t buffer_bytes = 1 << 16);
  ~BinaryStreamWriter();

  BinaryStreamWriter(const BinaryStreamWriter&) = delete;
  BinaryStreamWriter& operator=(const BinaryStreamWriter&) = delete;

  /// False once the file failed to open or a write failed.
  bool ok() const { return ok_; }

  /// Appends one update. Endpoints must be distinct and < n. A delta
  /// outside i32 range is split into several wire records whose deltas
  /// sum to it (see file comment); updates_written() counts wire records.
  /// A delta needing more than kMaxDeltaChunks records fails the writer.
  void Append(NodeId u, NodeId v, int64_t delta);
  void Append(const EdgeUpdate& e) { Append(e.u, e.v, e.delta); }

  /// Flushes, patches the header count, and closes. Returns success;
  /// idempotent.
  bool Close();

  uint64_t updates_written() const { return count_; }
  NodeId nodes() const { return n_; }

 private:
  void FlushBuffer();

  std::FILE* file_ = nullptr;
  std::string buffer_;
  size_t buffer_limit_;
  NodeId n_;
  uint64_t count_ = 0;
  bool ok_ = false;
};

/// Buffered reader for the GSKB format. Header fields are available right
/// after construction; updates are pulled in caller-sized batches.
class BinaryStreamReader {
 public:
  explicit BinaryStreamReader(const std::string& path,
                              size_t buffer_bytes = 1 << 15);
  ~BinaryStreamReader();

  BinaryStreamReader(const BinaryStreamReader&) = delete;
  BinaryStreamReader& operator=(const BinaryStreamReader&) = delete;

  /// False once the open, the header, or any record failed to parse;
  /// error() then describes why.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  NodeId nodes() const { return n_; }
  uint64_t num_updates() const { return total_; }

  /// Appends up to `max_updates` updates to `*out` and returns how many
  /// were read. Returns 0 at end of stream or on error (check ok()).
  /// Malformed records (out-of-range or equal endpoints, truncation)
  /// poison the reader.
  size_t ReadBatch(size_t max_updates, std::vector<EdgeUpdate>* out);

  /// True once all num_updates() records have been returned.
  bool Done() const { return delivered_ == total_; }

 private:
  void Fail(const std::string& why);

  std::FILE* file_ = nullptr;
  std::vector<unsigned char> buffer_;
  size_t buf_size_ = 0;  // valid bytes in buffer_
  size_t buf_pos_ = 0;   // consumed bytes in buffer_
  NodeId n_ = 0;
  uint64_t total_ = 0;
  uint64_t delivered_ = 0;
  bool ok_ = false;
  std::string error_;
};

/// Writes a whole in-memory stream; returns success.
bool WriteBinaryStream(const std::string& path, const DynamicGraphStream& s);

/// Reads a whole file back into memory; nullopt on any error.
std::optional<DynamicGraphStream> ReadBinaryStream(const std::string& path);

/// Sniffs whether `path` starts with the GSKB magic (false also on I/O
/// error), so tools can accept text and binary streams interchangeably.
bool LooksLikeBinaryStream(const std::string& path);

// ------------------------------------------------------------------------
// GSKT: the multi-tenant tagged trace format. One file carries K tenants'
// interleaved streams — each record is a GSKB record plus the tenant the
// update belongs to — so a single reader drives a whole co-hosted serve
// run deterministically. GSKB itself is untouched (single-graph files and
// tools keep their bytes); the tag lives in a separate format.
//
// Layout (little-endian, no alignment):
//   offset  size  field
//   0       4     magic  "GSKT" (0x544b5347)
//   4       4     format version (currently 1)
//   8       4     n — number of nodes; all endpoints are < n
//   12      4     k — number of tenants; all tags are < k
//   16      8     update count t
//   24      16·t  records: tenant (u32), u (u32), v (u32), delta (i32)
//
// Same conventions as GSKB: the writer patches t on Close(), wide int64
// deltas split into maximal i32 records, readers validate header, bounds,
// and exact record count.
// ------------------------------------------------------------------------

inline constexpr uint32_t kTaggedStreamMagic = 0x544b5347u;  // "GSKT"
inline constexpr uint32_t kTaggedStreamVersion = 1;
inline constexpr size_t kTaggedStreamHeaderBytes = 24;
inline constexpr size_t kTaggedStreamRecordBytes = 16;

/// One tenant-tagged stream token: apply {u, v} += delta to tenant
/// `tenant`'s graph.
struct TaggedUpdate {
  uint32_t tenant = 0;
  NodeId u = 0;
  NodeId v = 0;
  int64_t delta = 0;
};

/// Buffered writer for the GSKT format (see GSKB writer for conventions).
class TaggedStreamWriter {
 public:
  TaggedStreamWriter(const std::string& path, NodeId n, uint32_t tenants,
                     size_t buffer_bytes = 1 << 16);
  ~TaggedStreamWriter();

  TaggedStreamWriter(const TaggedStreamWriter&) = delete;
  TaggedStreamWriter& operator=(const TaggedStreamWriter&) = delete;

  bool ok() const { return ok_; }

  /// Appends one tagged update; tenant must be < tenants, endpoints
  /// distinct and < n. Wide deltas split as in GSKB.
  void Append(uint32_t tenant, NodeId u, NodeId v, int64_t delta);

  bool Close();

  uint64_t updates_written() const { return count_; }
  NodeId nodes() const { return n_; }
  uint32_t tenants() const { return tenants_; }

 private:
  void FlushBuffer();

  std::FILE* file_ = nullptr;
  std::string buffer_;
  size_t buffer_limit_;
  NodeId n_;
  uint32_t tenants_;
  uint64_t count_ = 0;
  bool ok_ = false;
};

/// Buffered reader for the GSKT format (see GSKB reader for conventions).
class TaggedStreamReader {
 public:
  explicit TaggedStreamReader(const std::string& path,
                              size_t buffer_bytes = 1 << 15);
  ~TaggedStreamReader();

  TaggedStreamReader(const TaggedStreamReader&) = delete;
  TaggedStreamReader& operator=(const TaggedStreamReader&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  NodeId nodes() const { return n_; }
  uint32_t tenants() const { return tenants_; }
  uint64_t num_updates() const { return total_; }

  /// Appends up to `max_updates` tagged updates to `*out`; 0 at end of
  /// stream or on error (check ok()).
  size_t ReadBatch(size_t max_updates, std::vector<TaggedUpdate>* out);

  bool Done() const { return delivered_ == total_; }

 private:
  void Fail(const std::string& why);

  std::FILE* file_ = nullptr;
  std::vector<unsigned char> buffer_;
  size_t buf_size_ = 0;
  size_t buf_pos_ = 0;
  NodeId n_ = 0;
  uint32_t tenants_ = 0;
  uint64_t total_ = 0;
  uint64_t delivered_ = 0;
  bool ok_ = false;
  std::string error_;
};

/// Sniffs whether `path` starts with the GSKT magic (false also on I/O
/// error).
bool LooksLikeTaggedStream(const std::string& path);

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_DRIVER_BINARY_STREAM_H_
