// Compact binary on-disk formats for dynamic graph streams, modeled on the
// binary stream files of production streaming-connectivity systems: a text
// stream parsed with iostreams tops out around a few million updates/sec,
// while fixed-width records read in bulk keep the ingestion pipeline fed.
//
// One codec reads and writes two formats. GSKB carries one graph's stream;
// GSKT, the multi-tenant tagged trace, is GSKB plus a tenant-count header
// field and a tenant column, so one file carries K tenants' interleaved
// streams and a single reader drives a whole co-hosted serve run
// deterministically. GSKB files and the tools that read them are
// untouched by the tag.
//
// Layouts (little-endian, no alignment):
//   GSKB                              GSKT
//   offset  size  field               offset  size  field
//   0       4     magic "GSKB"        0       4     magic "GSKT"
//   4       4     version (1)         4       4     version (1)
//   8       4     n                   8       4     n
//                                     12      4     k — tenants; tags < k
//   12      8     update count t      16      8     update count t
//   20      12·t  records             24      16·t  records
//   record: u (u32), v (u32),         record: tenant (u32), u (u32),
//           delta (i32)                       v (u32), delta (i32)
// All endpoints are < n.
//
// The writer patches the update count into the header on Close(), so
// streams can be produced without knowing t up front. Readers validate the
// header, endpoint (and tag) bounds, and that exactly t records are
// present.
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

inline constexpr uint32_t kTaggedStreamMagic = 0x544b5347u;  // "GSKT"
inline constexpr uint32_t kTaggedStreamVersion = 1;
inline constexpr size_t kTaggedStreamHeaderBytes = 24;
inline constexpr size_t kTaggedStreamRecordBytes = 16;

/// Records per ReadBatch call for consumers that stream a whole file
/// (SketchDriver::ProcessFile, the CLI's ingest loops).
inline constexpr size_t kStreamReadChunk = 4096;

/// Most i32 wire records one Append will split a wide delta into, i.e. a
/// per-record delta magnitude cap of ~2.2e12 (1024 · (2³¹−1)). Far past
/// any real multigraph multiplicity; without the cap a single absurd
/// delta (think INT64_MAX from a typo) would silently balloon the file
/// by ~4.3e9 records. Exceeding it fails the writer (ok() goes false).
inline constexpr int64_t kMaxDeltaChunks = 1024;

/// One tenant-tagged stream token: apply {u, v} += delta to tenant
/// `tenant`'s graph.
struct TaggedUpdate {
  uint32_t tenant = 0;
  NodeId u = 0;
  NodeId v = 0;
  int64_t delta = 0;
};

/// The writing half of the codec, shared by both formats: buffering, the
/// wide-delta split and its kMaxDeltaChunks cap, and the header patch.
/// Used through BinaryStreamWriter and TaggedStreamWriter.
class StreamWriterBase {
 public:
  StreamWriterBase(const StreamWriterBase&) = delete;
  StreamWriterBase& operator=(const StreamWriterBase&) = delete;

  /// False once the file failed to open or a write failed.
  bool ok() const { return ok_; }

  /// Flushes, patches the header count, and closes the file (a borrowed
  /// sink is flushed, not closed). Returns success; idempotent.
  bool Close();

  /// Wire records written so far (a split wide delta counts each record).
  uint64_t updates_written() const { return count_; }
  NodeId nodes() const { return n_; }

 protected:
  /// `file` null means the open failed. A borrowed (not owned) sink is
  /// never sought: records wait in memory until Close() writes the header
  /// with the final count first.
  StreamWriterBase(std::FILE* file, bool owned, bool tagged, NodeId n,
                   uint32_t tenants, size_t buffer_bytes);
  ~StreamWriterBase();

  /// Appends one update, split into maximal i32 records; `tenant` is
  /// written only to a tagged stream.
  void Put(uint32_t tenant, NodeId u, NodeId v, int64_t delta);

  uint32_t tenants_;

 private:
  void FlushBuffer();

  std::FILE* file_;
  bool owned_;
  bool tagged_;
  std::string buffer_;
  size_t buffer_limit_;
  NodeId n_;
  uint64_t count_ = 0;
  bool header_written_ = false;
  bool ok_;
};

/// Buffered writer for the GSKB format. Append updates, then Close() (or
/// destroy) to flush and patch the final update count into the header.
class BinaryStreamWriter : public StreamWriterBase {
 public:
  /// Opens `path` for writing, truncating. Check ok() before appending.
  BinaryStreamWriter(const std::string& path, NodeId n,
                     size_t buffer_bytes = 1 << 16);
  /// Writes to `sink`, which stays open and need not seek (stdout into a
  /// pipe): the whole stream is held until Close().
  BinaryStreamWriter(std::FILE* sink, NodeId n);

  /// Appends one update. Endpoints must be distinct and < n. A delta
  /// outside i32 range is split into several wire records whose deltas
  /// sum to it (see file comment); updates_written() counts wire records.
  /// A delta needing more than kMaxDeltaChunks records fails the writer.
  void Append(NodeId u, NodeId v, int64_t delta) { Put(0, u, v, delta); }
  void Append(const EdgeUpdate& e) { Append(e.u, e.v, e.delta); }
};

/// Buffered writer for the GSKT format (GSKB's conventions).
class TaggedStreamWriter : public StreamWriterBase {
 public:
  TaggedStreamWriter(const std::string& path, NodeId n, uint32_t tenants,
                     size_t buffer_bytes = 1 << 16);

  /// Appends one tagged update; tenant must be < tenants, endpoints
  /// distinct and < n. Wide deltas split as in GSKB.
  void Append(uint32_t tenant, NodeId u, NodeId v, int64_t delta) {
    Put(tenant, u, v, delta);
  }

  uint32_t tenants() const { return tenants_; }
};

/// The reading half of the codec, shared by both formats: open, header
/// parse, the size check, buffered refill, and the first failure's
/// diagnostic. Used through BinaryStreamReader and TaggedStreamReader.
class StreamReaderBase {
 public:
  StreamReaderBase(const StreamReaderBase&) = delete;
  StreamReaderBase& operator=(const StreamReaderBase&) = delete;

  /// False once the open, the header, or any record failed to parse;
  /// error() then describes why.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  NodeId nodes() const { return n_; }
  uint64_t num_updates() const { return total_; }

  /// True once all num_updates() records have been returned.
  bool Done() const { return delivered_ == total_; }

 protected:
  /// `file` null means opening `name` failed. A borrowed (not owned) file
  /// is read from its current position and left open; it must seek, as
  /// regular files and fmemopen's streams do, for the size check.
  StreamReaderBase(std::FILE* file, bool owned, bool tagged,
                   const std::string& name, size_t buffer_bytes);
  ~StreamReaderBase();

  /// Appends up to `max_updates` records to `*out` (EdgeUpdate for GSKB,
  /// TaggedUpdate for GSKT) and returns how many were read.
  template <typename Update>
  size_t Read(size_t max_updates, std::vector<Update>* out);

  uint32_t tenants_ = 0;

 private:
  void Fail(const std::string& why);

  std::FILE* file_;
  bool owned_;
  std::vector<unsigned char> buffer_;
  size_t buf_size_ = 0;  // valid bytes in buffer_
  size_t buf_pos_ = 0;   // consumed bytes in buffer_
  NodeId n_ = 0;
  uint64_t total_ = 0;
  uint64_t delivered_ = 0;
  bool ok_ = false;
  std::string error_;
};

/// Buffered reader for the GSKB format. Header fields are available right
/// after construction; updates are pulled in caller-sized batches.
class BinaryStreamReader : public StreamReaderBase {
 public:
  explicit BinaryStreamReader(const std::string& path,
                              size_t buffer_bytes = 1 << 15);
  /// Reads `file` (stdin's bytes through fmemopen, say), which stays open.
  explicit BinaryStreamReader(std::FILE* file, size_t buffer_bytes = 1 << 15);

  /// Appends up to `max_updates` updates to `*out` and returns how many
  /// were read. Returns 0 at end of stream or on error (check ok()).
  /// Malformed records (out-of-range or equal endpoints, truncation)
  /// poison the reader.
  size_t ReadBatch(size_t max_updates, std::vector<EdgeUpdate>* out);
};

/// Buffered reader for the GSKT format (GSKB's conventions; a tag ≥ k
/// also poisons the reader).
class TaggedStreamReader : public StreamReaderBase {
 public:
  explicit TaggedStreamReader(const std::string& path,
                              size_t buffer_bytes = 1 << 15);

  uint32_t tenants() const { return tenants_; }

  /// Appends up to `max_updates` tagged updates to `*out`; 0 at end of
  /// stream or on error (check ok()).
  size_t ReadBatch(size_t max_updates, std::vector<TaggedUpdate>* out);
};

/// Writes a whole in-memory stream; returns success.
bool WriteBinaryStream(const std::string& path, const DynamicGraphStream& s);

/// Reads a whole file back into memory; nullopt on any error.
std::optional<DynamicGraphStream> ReadBinaryStream(const std::string& path);

/// Sniffs whether `path` starts with the GSKB magic (false also on I/O
/// error), so tools can accept text and binary streams interchangeably.
bool LooksLikeBinaryStream(const std::string& path);
/// The same sniff on an open file, which is rewound afterwards.
bool LooksLikeBinaryStream(std::FILE* file);

}  // namespace gsketch

#endif  // GRAPHSKETCH_SRC_DRIVER_BINARY_STREAM_H_
