#include "src/driver/binary_stream.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <type_traits>

namespace gsketch {

namespace {

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>(static_cast<uint8_t>(v >> (8 * i))));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(static_cast<uint8_t>(v >> (8 * i))));
  }
}

uint32_t GetU32(const unsigned char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t GetU64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

/// What separates the two formats; everything else is shared. The update
/// count is always the header's last 8 bytes.
struct Layout {
  uint32_t magic;
  uint32_t version;
  size_t header_bytes;
  size_t record_bytes;
  const char* name;  ///< "bad magic (not a <name>)"
  const char* noun;  ///< "truncated <noun>: ..."
};

constexpr Layout kGskb{kBinaryStreamMagic, kBinaryStreamVersion,
                       kBinaryStreamHeaderBytes, kBinaryStreamRecordBytes,
                       "GSKB stream", "stream"};
constexpr Layout kGskt{kTaggedStreamMagic, kTaggedStreamVersion,
                       kTaggedStreamHeaderBytes, kTaggedStreamRecordBytes,
                       "GSKT trace", "trace"};

constexpr const Layout& LayoutOf(bool tagged) {
  return tagged ? kGskt : kGskb;
}

// Record decoders, chosen at compile time by the record type so the GSKB
// loop carries no tenant column: the tag, when present, leads the record.
// Each returns false for a record the header's bounds rule out.
bool Decode(const unsigned char* p, NodeId n, uint32_t /*tenants*/,
            EdgeUpdate* e) {
  e->u = GetU32(p);
  e->v = GetU32(p + 4);
  e->delta = static_cast<int32_t>(GetU32(p + 8));
  return e->u < n && e->v < n && e->u != e->v;
}

bool Decode(const unsigned char* p, NodeId n, uint32_t tenants,
            TaggedUpdate* e) {
  EdgeUpdate edge;
  bool valid = Decode(p + 4, n, tenants, &edge);
  *e = TaggedUpdate{GetU32(p), edge.u, edge.v, edge.delta};
  return valid && e->tenant < tenants;
}

std::string Describe(const EdgeUpdate& e, NodeId n, uint32_t /*tenants*/) {
  return "(" + std::to_string(e.u) + ", " + std::to_string(e.v) +
         ") with n=" + std::to_string(n);
}

std::string Describe(const TaggedUpdate& e, NodeId n, uint32_t tenants) {
  return "tenant " + std::to_string(e.tenant) + " edge (" +
         std::to_string(e.u) + ", " + std::to_string(e.v) + ") with k=" +
         std::to_string(tenants) + " n=" + std::to_string(n);
}

}  // namespace

// ------------------------------------------------------------- writing --

StreamWriterBase::StreamWriterBase(std::FILE* file, bool owned, bool tagged,
                                   NodeId n, uint32_t tenants,
                                   size_t buffer_bytes)
    : tenants_(tenants),
      file_(file),
      owned_(owned),
      tagged_(tagged),
      buffer_limit_(owned ? std::max(buffer_bytes, LayoutOf(tagged).record_bytes)
                          : SIZE_MAX),
      n_(n),
      ok_(file != nullptr) {
  if (!ok_) return;
  const Layout& layout = LayoutOf(tagged_);
  if (owned_) buffer_.reserve(buffer_limit_ + layout.record_bytes);
  PutU32(&buffer_, layout.magic);
  PutU32(&buffer_, layout.version);
  PutU32(&buffer_, n_);
  if (tagged_) PutU32(&buffer_, tenants_);
  PutU64(&buffer_, 0);  // update count, patched by Close()
}

StreamWriterBase::~StreamWriterBase() { Close(); }

void StreamWriterBase::Put(uint32_t tenant, NodeId u, NodeId v,
                           int64_t delta) {
  assert(u != v && u < n_ && v < n_ && (!tagged_ || tenant < tenants_));
  if (!ok_) return;
  if (delta > kMaxDeltaChunks * INT32_MAX ||
      delta < kMaxDeltaChunks * int64_t{INT32_MIN}) {
    ok_ = false;  // would split into > kMaxDeltaChunks records
    return;
  }
  // Chunk the int64 delta into maximal i32 wire records (usually exactly
  // one). A zero delta still writes one record: the update happened, and
  // sketches apply zero deltas as (no-op) cell updates.
  for (;;) {
    int64_t chunk = std::clamp<int64_t>(delta, INT32_MIN, INT32_MAX);
    if (tagged_) PutU32(&buffer_, tenant);
    PutU32(&buffer_, u);
    PutU32(&buffer_, v);
    PutU32(&buffer_, static_cast<uint32_t>(static_cast<int32_t>(chunk)));
    ++count_;
    if (buffer_.size() >= buffer_limit_) FlushBuffer();
    delta -= chunk;
    if (delta == 0) break;
  }
}

void StreamWriterBase::FlushBuffer() {
  if (buffer_.empty()) return;
  if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
      buffer_.size()) {
    ok_ = false;
  }
  buffer_.clear();
  header_written_ = true;
}

bool StreamWriterBase::Close() {
  if (file_ == nullptr) return false;
  // Patch the final update count into the header: in the buffer while the
  // header is still there (always so on a borrowed sink), else in place.
  // A failed writer keeps the placeholder 0, so readers reject its file.
  std::string count;
  PutU64(&count, count_);
  const size_t count_at = LayoutOf(tagged_).header_bytes - count.size();
  const bool patch_on_disk = header_written_;
  if (ok_ && !patch_on_disk) buffer_.replace(count_at, count.size(), count);
  FlushBuffer();
  if (ok_ && patch_on_disk &&
      (std::fseek(file_, static_cast<long>(count_at), SEEK_SET) != 0 ||
       std::fwrite(count.data(), 1, count.size(), file_) != count.size())) {
    ok_ = false;
  }
  if ((owned_ ? std::fclose(file_) : std::fflush(file_)) != 0) ok_ = false;
  file_ = nullptr;
  return ok_;
}

BinaryStreamWriter::BinaryStreamWriter(const std::string& path, NodeId n,
                                       size_t buffer_bytes)
    : StreamWriterBase(std::fopen(path.c_str(), "wb"), /*owned=*/true,
                       /*tagged=*/false, n, 0, buffer_bytes) {}

BinaryStreamWriter::BinaryStreamWriter(std::FILE* sink, NodeId n)
    : StreamWriterBase(sink, /*owned=*/false, /*tagged=*/false, n, 0, 0) {}

TaggedStreamWriter::TaggedStreamWriter(const std::string& path, NodeId n,
                                       uint32_t tenants,
                                       size_t buffer_bytes)
    : StreamWriterBase(std::fopen(path.c_str(), "wb"), /*owned=*/true,
                       /*tagged=*/true, n, tenants, buffer_bytes) {}

// ------------------------------------------------------------- reading --

StreamReaderBase::StreamReaderBase(std::FILE* file, bool owned, bool tagged,
                                   const std::string& name,
                                   size_t buffer_bytes)
    : file_(file), owned_(owned) {
  const Layout& layout = LayoutOf(tagged);
  // Round the buffer up to a whole number of records so records never
  // straddle a refill boundary.
  size_t records = std::max<size_t>(buffer_bytes / layout.record_bytes, 1);
  buffer_.resize(records * layout.record_bytes);

  if (file_ == nullptr) {
    Fail("cannot open " + name);
    return;
  }
  const long start = std::ftell(file_);
  unsigned char header[kTaggedStreamHeaderBytes];
  if (std::fread(header, 1, layout.header_bytes, file_) !=
      layout.header_bytes) {
    Fail("truncated header");
    return;
  }
  if (GetU32(header) != layout.magic) {
    Fail(std::string("bad magic (not a ") + layout.name + ")");
    return;
  }
  uint32_t version = GetU32(header + 4);
  if (version != layout.version) {
    Fail("unsupported format version " + std::to_string(version));
    return;
  }
  n_ = GetU32(header + 8);
  if (tagged) tenants_ = GetU32(header + 12);
  total_ = GetU64(header + layout.header_bytes - 8);
  if (n_ < 2) {
    Fail("header declares n < 2");
    return;
  }
  if (tagged && tenants_ == 0) {
    Fail("header declares zero tenants");
    return;
  }
  // The file must hold exactly t records: a too-short file is truncation,
  // a too-long one (or a zero count) is typically a producer that died
  // before Close() patched the header. Divide rather than multiply, so a
  // hostile count cannot wrap around to the file's size.
  const long end =
      std::fseek(file_, 0, SEEK_END) == 0 ? std::ftell(file_) : -1;
  if (start < 0 || end < 0) {
    Fail("not seekable");
    return;
  }
  // The header was read, so the body size cannot wrap.
  const uint64_t body =
      static_cast<uint64_t>(end - start) - layout.header_bytes;
  if (body % layout.record_bytes != 0 ||
      body / layout.record_bytes != total_) {
    Fail("file holds " + std::to_string(end - start) +
         " bytes but header declares " + std::to_string(total_) +
         " updates (" +
         std::to_string(layout.header_bytes + total_ * layout.record_bytes) +
         " bytes)");
    return;
  }
  if (std::fseek(file_, start + static_cast<long>(layout.header_bytes),
                 SEEK_SET) != 0) {
    Fail("not seekable");
    return;
  }
  ok_ = true;
}

StreamReaderBase::~StreamReaderBase() {
  if (file_ != nullptr && owned_) std::fclose(file_);
}

void StreamReaderBase::Fail(const std::string& why) {
  ok_ = false;
  if (error_.empty()) error_ = why;
  if (file_ != nullptr && owned_) std::fclose(file_);
  file_ = nullptr;
}

template <typename Update>
size_t StreamReaderBase::Read(size_t max_updates, std::vector<Update>* out) {
  constexpr bool kTagged = std::is_same_v<Update, TaggedUpdate>;
  constexpr size_t kRecordBytes = LayoutOf(kTagged).record_bytes;
  size_t produced = 0;
  while (ok_ && produced < max_updates && delivered_ < total_) {
    if (buf_pos_ == buf_size_) {
      uint64_t left = total_ - delivered_;
      size_t want = buffer_.size();
      if (left * kRecordBytes < want) {
        want = static_cast<size_t>(left) * kRecordBytes;
      }
      buf_size_ = std::fread(buffer_.data(), 1, want, file_);
      buf_pos_ = 0;
      if (buf_size_ < kRecordBytes) {
        Fail(std::string("truncated ") + LayoutOf(kTagged).noun +
             ": header declares " + std::to_string(total_) +
             " updates, file ends after " + std::to_string(delivered_));
        return produced;
      }
      buf_size_ -= buf_size_ % kRecordBytes;
    }
    Update e;
    if (!Decode(buffer_.data() + buf_pos_, n_, tenants_, &e)) {
      Fail("bad record at update " + std::to_string(delivered_) + ": " +
           Describe(e, n_, tenants_));
      return produced;
    }
    out->push_back(e);
    buf_pos_ += kRecordBytes;
    ++delivered_;
    ++produced;
  }
  return produced;
}

BinaryStreamReader::BinaryStreamReader(const std::string& path,
                                       size_t buffer_bytes)
    : StreamReaderBase(std::fopen(path.c_str(), "rb"), /*owned=*/true,
                       /*tagged=*/false, path, buffer_bytes) {}

BinaryStreamReader::BinaryStreamReader(std::FILE* file, size_t buffer_bytes)
    : StreamReaderBase(file, /*owned=*/false, /*tagged=*/false, "stream",
                       buffer_bytes) {}

size_t BinaryStreamReader::ReadBatch(size_t max_updates,
                                     std::vector<EdgeUpdate>* out) {
  return Read(max_updates, out);
}

TaggedStreamReader::TaggedStreamReader(const std::string& path,
                                       size_t buffer_bytes)
    : StreamReaderBase(std::fopen(path.c_str(), "rb"), /*owned=*/true,
                       /*tagged=*/true, path, buffer_bytes) {}

size_t TaggedStreamReader::ReadBatch(size_t max_updates,
                                     std::vector<TaggedUpdate>* out) {
  return Read(max_updates, out);
}

// ------------------------------------------------------- whole streams --

bool WriteBinaryStream(const std::string& path, const DynamicGraphStream& s) {
  BinaryStreamWriter w(path, s.NumNodes());
  for (const auto& e : s.Updates()) w.Append(e);
  return w.Close();
}

std::optional<DynamicGraphStream> ReadBinaryStream(const std::string& path) {
  BinaryStreamReader r(path);
  if (!r.ok()) return std::nullopt;
  DynamicGraphStream s(r.nodes());
  std::vector<EdgeUpdate> batch;
  while (!r.Done()) {
    batch.clear();
    if (r.ReadBatch(1 << 14, &batch) == 0) break;
    for (const auto& e : batch) s.Push(e.u, e.v, e.delta);
  }
  if (!r.ok() || !r.Done()) return std::nullopt;
  return s;
}

bool LooksLikeBinaryStream(std::FILE* file) {
  unsigned char head[4];
  bool is_binary = std::fread(head, 1, sizeof(head), file) == sizeof(head) &&
                   GetU32(head) == kBinaryStreamMagic;
  std::rewind(file);
  return is_binary;
}

bool LooksLikeBinaryStream(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  bool is_binary = LooksLikeBinaryStream(f);
  std::fclose(f);
  return is_binary;
}

}  // namespace gsketch
