// gsketch: command-line driver for sketching dynamic graph streams from
// files. See docs/CLI.md for the full manual.
//
// Usage:
//   gsketch <algorithm> [options] <n> <stream-file> [seed]
//   gsketch serve <alg> [options] <n> <stream-file> [seed]
//   gsketch gen <profile> <n> <updates> <out.gskb> [seed]
//   gsketch convert <n> <input> <output>
//   gsketch checkpoint <alg> [options] <n> <stream-file> <out.gskc> [seed]
//   gsketch resume [options] <stream-file> <in.gskc>
//   gsketch shard <alg> --shards S [options] <n> <stream-file> <out-prefix> [seed]
//   gsketch merge <out.gskc> <in1.gskc> <in2.gskc> [...]
//   gsketch inspect <in.gskc>
//
// Every sketch algorithm is a registry entry (src/core/sketch_registry.h):
// the CLI resolves the command name to an AlgInfo and drives the uniform
// LinearSketch contract, so a newly registered algorithm automatically
// gains run, checkpoint, resume, shard, and merge with no CLI changes.
// `shard` + `merge` realize Sec 1.1's distributed sketching: S sites
// sketch disjoint stream shards independently, and merging the GSKC files
// by sketch addition reproduces the single-stream sketch byte-for-byte.
//
// Stream commands outside the registry: `spanner` (multi-pass), `stats`,
// and `convert` (text stream <-> GSKB binary).
//
// Exit status: 0 success, 1 runtime failure (unreadable/malformed stream
// or checkpoint), 2 usage error (unknown command, malformed numbers, bad
// flags).
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/graphsketch.h"

namespace {

using namespace gsketch;

constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

void PrintUsage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s <algorithm> [options] <n> <stream-file> [seed]\n"
      "       %s serve <alg> [options] <n> <stream-file> [seed]\n"
      "       %s serve multi [options] <n> <trace.gskt> [seed]\n"
      "       %s gen <profile> <n> <updates> <out.gskb> [seed]\n"
      "       %s gen multi --tenants K <n> <updates> <out.gskt> [seed]\n"
      "       %s convert <n> <input> <output>\n"
      "       %s checkpoint <alg> [options] <n> <stream-file> <out.gskc> "
      "[seed]\n"
      "       %s resume [options] <stream-file> <in.gskc>\n"
      "       %s shard <alg> --shards S [options] <n> <stream-file> "
      "<out-prefix> [seed]\n"
      "       %s merge <out.gskc> <in1.gskc> <in2.gskc> [...]\n"
      "       %s inspect <in.gskc>\n"
      "\n"
      "sketch algorithms (each also works as the <alg> of serve, "
      "checkpoint,\nresume, shard, and merge):\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
      argv0);
  for (const AlgInfo& info : Registry()) {
    std::fprintf(out, "  %-12s %s\n", info.name, info.summary);
  }
  std::fprintf(out,
               "workload profiles for `gen` (deterministic in the seed; "
               "default seed 1):\n");
  for (const WorkloadProfile& p : WorkloadProfiles()) {
    std::fprintf(out, "  %-12s %s\n", p.name, p.summary);
  }
  std::fprintf(
      out,
      "stream commands:\n"
      "  serve        ingest while answering queries from snapshots\n"
      "  serve multi  co-host K sessions on one worker pool over a GSKT\n"
      "               tagged trace; the script opens sessions ('open\n"
      "               <name> <alg> [--snapshot-ms M]') and queries them\n"
      "               ('@<name> <pos> <query>', per-session positions)\n"
      "  gen          generate a seeded workload stream as GSKB binary\n"
      "               ('-' writes to stdout: gen ... - | gsketch <alg>)\n"
      "  gen multi    interleave K tenants' churn streams into one GSKT\n"
      "               tagged trace (tenant k solo = gen churn, seed+k)\n"
      "  spanner      3-pass Baswana-Sen spanner, print stretch-checked "
      "edges\n"
      "  stats        stream statistics only\n"
      "  convert      text stream -> GSKB binary (or binary -> text)\n"
      "  checkpoint   ingest a stream prefix, snapshot the sketch to GSKC\n"
      "  resume       restore a GSKC snapshot, finish the stream, answer\n"
      "  shard        sketch S stream shards independently, one GSKC each\n"
      "  merge        add GSKC sketches (distributed shards -> one sketch)\n"
      "  inspect      describe a GSKC checkpoint file\n"
      "options:  --threads N   worker threads (%s;\n"
      "                        serve, checkpoint, resume; default 1)\n"
      "          --gutter B    per-node gutter buffers of B bytes in\n"
      "                        [12, 2^30]; flushes coalesce into dense\n"
      "                        per-node batches (default 4096)\n"
      "          --progress    live insertion-rate reporting on stderr\n"
      "          --at N        checkpoint after N updates (default: half)\n"
      "          --k K         witness strength for %s (default 3)\n"
      "          --shards S    shard count for `shard` (in [2, 256])\n"
      "          --queries F   serve: query script, '<pos> <query>' lines\n"
      "                        (default: read the script from stdin)\n"
      "          --snapshot-every N\n"
      "                        serve: also snapshot every N updates\n"
      "                        (default 0 = only at query positions)\n"
      "          --snapshot-ms M\n"
      "                        serve: also snapshot every M milliseconds\n"
      "                        of wall clock; overdue ticks coalesce into\n"
      "                        one snapshot (default 0 = off)\n"
      "          --max-weight W\n"
      "                        wsparsify: top edge weight (weight classes\n"
      "                        cover [1, W]; default 2)\n"
      "          --tenants K   gen multi: tenant count in [2, 256]\n"
      "\n"
      "Stream files are GSKB binary (make one with `gen` or `convert`) or\n"
      "text \"u v delta\" lines; '-' reads the stream from stdin. See\n"
      "docs/CLI.md.\n",
      ShardedAlgNameList().c_str(), KAlgNameList().c_str());
}

/// Strict unsigned decimal parse: the whole token must be digits.
bool ParseU64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool LoadTextStream(const char* path, NodeId n, DynamicGraphStream* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path);
    return false;
  }
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    long long u, v, delta;
    if (!(ss >> u >> v >> delta)) {
      std::fprintf(stderr, "error: %s:%zu: expected 'u v delta'\n", path,
                   lineno);
      return false;
    }
    if (u < 0 || v < 0 || u >= static_cast<long long>(n) ||
        v >= static_cast<long long>(n) || u == v) {
      std::fprintf(stderr, "error: %s:%zu: bad endpoints %lld %lld (n=%u)\n",
                   path, lineno, u, v, n);
      return false;
    }
    // Deltas are int64 end to end; a value past i32 is fine here and is
    // split into several wire records by the GSKB writer — up to the
    // writer's chunk cap, rejected here with the offending line so
    // convert fails fast instead of ballooning the output file.
    if (delta > kMaxDeltaChunks * INT32_MAX ||
        delta < kMaxDeltaChunks * static_cast<long long>(INT32_MIN)) {
      std::fprintf(stderr,
                   "error: %s:%zu: delta %lld exceeds the GSKB per-update "
                   "limit of %lld*2^31\n",
                   path, lineno, delta,
                   static_cast<long long>(kMaxDeltaChunks));
      return false;
    }
    out->Push(static_cast<NodeId>(u), static_cast<NodeId>(v), delta);
  }
  return true;
}

/// Sentinel for ForEachBinaryUpdate: read to the stream's declared end.
constexpr uint64_t kWholeStream = UINT64_MAX;

/// THE binary read loop: streams the first `limit` records (kWholeStream
/// = all of them) of the GSKB file at `path` into `fn(const EdgeUpdate&)`
/// in kStreamReadChunk chunks. Every consumer (LoadAnyStream,
/// IngestStreamRange, RunServe) funnels through here, so open failures,
/// node-count mismatches, bad records, and early truncation print ONE
/// uniform diagnostic instead of per-command drifting copies. Returns
/// false after printing it.
template <typename Fn>
bool ForEachBinaryUpdate(const char* path, NodeId n, uint64_t limit,
                         Fn&& fn) {
  BinaryStreamReader reader(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path, reader.error().c_str());
    return false;
  }
  if (reader.nodes() != n) {
    std::fprintf(stderr, "error: %s: stream declares n=%u but n=%u given\n",
                 path, reader.nodes(), n);
    return false;
  }
  if (limit == kWholeStream) limit = reader.num_updates();
  std::vector<EdgeUpdate> batch;
  batch.reserve(kStreamReadChunk);
  uint64_t index = 0;
  while (!reader.Done() && reader.ok() && index < limit) {
    batch.clear();
    if (reader.ReadBatch(kStreamReadChunk, &batch) == 0) break;
    for (const auto& e : batch) {
      if (index >= limit) break;
      fn(e);
      ++index;
    }
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path, reader.error().c_str());
    return false;
  }
  if (index < limit) {
    std::fprintf(stderr,
                 "error: %s: stream ended after %llu of %llu updates\n",
                 path, static_cast<unsigned long long>(index),
                 static_cast<unsigned long long>(limit));
    return false;
  }
  return true;
}

/// Reads stdin to exhaustion and parses it as a stream: GSKB binary when
/// it starts with the magic, text "u v delta" lines otherwise. Pipelines
/// (`gen ... - | gsketch <alg> <n> -`) have no seekable file to sniff, so
/// the whole stream is slurped into memory first — stdin is the
/// small-stream convenience path; huge streams should go through a file.
bool LoadStdinStream(NodeId n, DynamicGraphStream* out) {
  std::string data;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), stdin)) > 0) {
    data.append(buf, got);
  }
  if (std::ferror(stdin)) {
    std::fprintf(stderr, "error: <stdin>: read failed\n");
    return false;
  }
  uint32_t magic = 0;
  if (data.size() >= sizeof(magic)) std::memcpy(&magic, data.data(), 4);
  if (magic != kBinaryStreamMagic) {
    // Text path: same validation rules as LoadTextStream.
    std::istringstream in(data);
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ss(line);
      long long u, v, delta;
      if (!(ss >> u >> v >> delta)) {
        std::fprintf(stderr, "error: <stdin>:%zu: expected 'u v delta'\n",
                     lineno);
        return false;
      }
      if (u < 0 || v < 0 || u >= static_cast<long long>(n) ||
          v >= static_cast<long long>(n) || u == v) {
        std::fprintf(stderr,
                     "error: <stdin>:%zu: bad endpoints %lld %lld (n=%u)\n",
                     lineno, u, v, n);
        return false;
      }
      out->Push(static_cast<NodeId>(u), static_cast<NodeId>(v), delta);
    }
    return true;
  }
  // GSKB path: validate the in-memory header and records with the same
  // rules as BinaryStreamReader.
  if (data.size() < kBinaryStreamHeaderBytes) {
    std::fprintf(stderr, "error: <stdin>: truncated GSKB header\n");
    return false;
  }
  uint32_t version = 0, stream_n = 0;
  uint64_t count = 0;
  std::memcpy(&version, data.data() + 4, 4);
  std::memcpy(&stream_n, data.data() + 8, 4);
  std::memcpy(&count, data.data() + 12, 8);
  if (version != kBinaryStreamVersion) {
    std::fprintf(stderr, "error: <stdin>: unsupported GSKB version %u\n",
                 version);
    return false;
  }
  if (stream_n != n) {
    std::fprintf(stderr,
                 "error: <stdin>: stream declares n=%u but n=%u given\n",
                 stream_n, n);
    return false;
  }
  if (data.size() <
      kBinaryStreamHeaderBytes + count * kBinaryStreamRecordBytes) {
    std::fprintf(stderr, "error: <stdin>: GSKB stream truncated\n");
    return false;
  }
  for (uint64_t i = 0; i < count; ++i) {
    const char* rec =
        data.data() + kBinaryStreamHeaderBytes + i * kBinaryStreamRecordBytes;
    uint32_t u = 0, v = 0;
    int32_t delta = 0;
    std::memcpy(&u, rec, 4);
    std::memcpy(&v, rec + 4, 4);
    std::memcpy(&delta, rec + 8, 4);
    if (u >= n || v >= n || u == v) {
      std::fprintf(stderr,
                   "error: <stdin>: record %llu has bad endpoints %u %u "
                   "(n=%u)\n",
                   static_cast<unsigned long long>(i), u, v, n);
      return false;
    }
    out->Push(u, v, delta);
  }
  return true;
}

/// Loads a whole stream (binary or text) into memory, for the commands
/// that need random access to it. Binary failures report the reader's
/// diagnostic (truncation, bad records), not just "malformed".
bool LoadAnyStream(const char* path, NodeId n, DynamicGraphStream* out) {
  if (std::strcmp(path, "-") == 0) return LoadStdinStream(n, out);
  if (!LooksLikeBinaryStream(path)) return LoadTextStream(path, n, out);
  DynamicGraphStream stream(n);
  if (!ForEachBinaryUpdate(path, n, kWholeStream,
                           [&stream](const EdgeUpdate& e) {
                             stream.Push(e.u, e.v, e.delta);
                           })) {
    return false;
  }
  *out = std::move(stream);
  return true;
}

struct IngestOptions {
  uint32_t threads = 1;
  size_t gutter = kDefaultGutterBytes;  ///< per-node gutter bytes
  bool progress = false;
};

// More workers than this is never useful and protects against typo'd
// thread counts exhausting the process's thread limit.
constexpr uint64_t kMaxThreads = 256;

// Shard counts share the thread ceiling (each shard gets a thread).
constexpr uint64_t kMaxShards = 256;

/// Counts the updates in a stream file without materializing it: the GSKB
/// header carries the count; text files are scanned into memory (they are
/// the small-stream path) and the stream is handed back via *preloaded.
bool CountStreamUpdates(const char* path, NodeId n, uint64_t* total,
                        std::optional<DynamicGraphStream>* preloaded) {
  if (std::strcmp(path, "-") == 0) {
    DynamicGraphStream stream(n);
    if (!LoadStdinStream(n, &stream)) return false;
    *total = stream.Size();
    *preloaded = std::move(stream);
    return true;
  }
  if (LooksLikeBinaryStream(path)) {
    BinaryStreamReader reader(path);
    if (!reader.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", path, reader.error().c_str());
      return false;
    }
    if (reader.nodes() != n) {
      std::fprintf(stderr, "error: %s: stream declares n=%u but n=%u given\n",
                   path, reader.nodes(), n);
      return false;
    }
    *total = reader.num_updates();
    return true;
  }
  DynamicGraphStream stream(n);
  if (!LoadTextStream(path, n, &stream)) return false;
  *total = stream.Size();
  *preloaded = std::move(stream);
  return true;
}

/// THE driver-setup path: feeds updates [from, to) of the stream at `path`
/// into `*alg` through the batched parallel driver. Every command (run,
/// checkpoint, resume) funnels through here — the historical per-command
/// copies collapsed into this one function. GSKB files are streamed from
/// disk in constant memory (records before `from` are read and discarded;
/// the format has no index); text streams arrive preloaded from
/// CountStreamUpdates. Algorithms that are not endpoint-sharded ingest on
/// one worker regardless of --threads.
bool IngestStreamRange(LinearSketch* alg, const char* path, NodeId n,
                       const std::optional<DynamicGraphStream>& preloaded,
                       uint64_t from, uint64_t to, const IngestOptions& opt) {
  DriverOptions dopt;
  dopt.num_workers = alg->EndpointSharded() ? opt.threads : 1;
  dopt.gutter_bytes = opt.gutter;
  SketchDriver<LinearSketch> driver(alg, dopt);
  std::optional<InsertionTracker> tracker;
  if (opt.progress) {
    // Name the RESOLVED worker count (0 means hardware concurrency, and
    // non-sharded algorithms clamp to 1), so the header states what the
    // run actually uses rather than echoing the flag.
    std::fprintf(stderr, "progress: %u worker%s\n", driver.num_workers(),
                 driver.num_workers() == 1 ? "" : "s");
    // Report in stream tokens against the FULL stream length: the driver
    // counts endpoint halves (2 per token), so the counter halves it, and
    // a resumed range seeds the tracker at `from` (the checkpoint's
    // stream_pos) — percent/rate/ETA reflect true stream position, not 0%
    // of the remainder, and the closing line names the resume point.
    tracker.emplace(to,
                    [&driver, from] {
                      return from + driver.TotalUpdates() / 2;
                    },
                    /*initial=*/from);
  }

  bool ok = true;
  if (preloaded.has_value()) {
    const auto& updates = preloaded->Updates();
    for (uint64_t i = from; i < to; ++i) {
      driver.Push(updates[i].u, updates[i].v, updates[i].delta);
    }
  } else {
    // Records before `from` are read and discarded (the format has no
    // index); records past `to` are never read.
    uint64_t index = 0;
    ok = ForEachBinaryUpdate(path, n, to,
                             [&](const EdgeUpdate& e) {
                               if (index >= from) {
                                 driver.Push(e.u, e.v, e.delta);
                               }
                               ++index;
                             });
  }
  driver.Drain();
  if (tracker.has_value()) tracker->Stop();
  return ok;
}

/// One registered algorithm over one whole stream: make, ingest, answer.
int RunRegistered(const AlgInfo& info, NodeId n, const char* path,
                  uint64_t seed, const IngestOptions& opt,
                  const AlgOptions& aopt) {
  uint64_t total = 0;
  std::optional<DynamicGraphStream> preloaded;
  if (!CountStreamUpdates(path, n, &total, &preloaded)) return kExitRuntime;
  auto sk = info.make(n, aopt, seed);
  if (!IngestStreamRange(sk.get(), path, n, preloaded, 0, total, opt)) {
    return kExitRuntime;
  }
  sk->PrintAnswer(stdout);
  return 0;
}

struct CheckpointCmdOptions {
  uint64_t at = UINT64_MAX;  ///< updates before the snapshot; MAX = half
  uint32_t shards = 0;       ///< --shards value (shard command)
};

// --------------------------------------------------------------- serve --

struct ServeCmdOptions {
  const char* queries = nullptr;  ///< --queries script path; null = stdin
  uint64_t snapshot_every = 0;    ///< --snapshot-every N updates; 0 = off
  uint64_t snapshot_ms = 0;       ///< --snapshot-ms wall clock; 0 = off
};

/// One scripted query: answer `text` against a snapshot that reflects
/// exactly `pos` stream updates.
struct ServeQuery {
  uint64_t pos = 0;
  std::string text;
};

/// Parses a serve query script: one "<pos> <query...>" per line ("end" as
/// the position means end of stream), '#' comments and blank lines
/// skipped. Positions past the stream clamp to its end. Queries are
/// answered in position order (ties keep script order).
bool ParseQueryScript(std::istream& in, const char* name, uint64_t total,
                      std::vector<ServeQuery>* out) {
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string pos_tok;
    ss >> pos_tok;
    uint64_t pos = 0;
    if (pos_tok == "end") {
      pos = total;
    } else if (!ParseU64(pos_tok.c_str(), &pos)) {
      std::fprintf(stderr,
                   "error: %s:%zu: expected '<pos> <query>' (or 'end "
                   "<query>'), got '%s'\n",
                   name, lineno, line.c_str());
      return false;
    }
    if (pos > total) pos = total;
    std::string query;
    std::getline(ss, query);
    size_t start = query.find_first_not_of(" \t");
    query = start == std::string::npos ? std::string() : query.substr(start);
    if (query.empty()) {
      std::fprintf(stderr, "error: %s:%zu: position %llu has no query\n",
                   name, lineno, static_cast<unsigned long long>(pos));
      return false;
    }
    out->push_back(ServeQuery{pos, std::move(query)});
  }
  std::stable_sort(out->begin(), out->end(),
                   [](const ServeQuery& a, const ServeQuery& b) {
                     return a.pos < b.pos;
                   });
  return true;
}

/// serve: query-while-ingest. Ingests the stream through the batched
/// driver and, at every scripted position (plus every --snapshot-every
/// updates and --snapshot-ms wall-clock tick, overdue ticks coalesced),
/// takes a drain-barrier snapshot — a COW page-table fork
/// (SketchDriver::SnapshotNow + SnapshotView) — and publishes it; a
/// QueryEngine thread answers the queries pinned to those snapshots
/// WHILE ingestion continues, from the exact eager cut when one is
/// valid. Every answer is prefixed with the stream position it
/// reflects, and linearity makes it byte-identical to stopping
/// ingestion there and querying.
int RunServe(const AlgInfo& info, NodeId n, const char* path, uint64_t seed,
             const IngestOptions& opt, const ServeCmdOptions& sopt,
             const AlgOptions& aopt) {
  uint64_t total = 0;
  std::optional<DynamicGraphStream> preloaded;
  if (!CountStreamUpdates(path, n, &total, &preloaded)) return kExitRuntime;

  std::vector<ServeQuery> queries;
  if (sopt.queries != nullptr) {
    std::ifstream qin(sopt.queries);
    if (!qin) {
      std::fprintf(stderr, "error: cannot open %s\n", sopt.queries);
      return kExitRuntime;
    }
    if (!ParseQueryScript(qin, sopt.queries, total, &queries)) {
      return kExitRuntime;
    }
  } else if (!ParseQueryScript(std::cin, "<stdin>", total, &queries)) {
    return kExitRuntime;
  }

  auto sk = info.make(n, aopt, seed);
  DriverOptions dopt;
  dopt.num_workers = sk->EndpointSharded() ? opt.threads : 1;
  dopt.gutter_bytes = opt.gutter;
  // Families whose exact answers the eager spanning forest can serve in
  // O(α) straight from the producer thread (insert-only streams; the
  // forest invalidates itself on the first deletion it cannot absorb).
  dopt.eager_connectivity = info.tag == AlgTag::kConnectivity ||
                            info.tag == AlgTag::kSpanningForest;
  SketchDriver<LinearSketch> driver(sk.get(), dopt);
  SnapshotStore store;
  QueryEngine engine(&store, stdout);
  std::optional<InsertionTracker> tracker;
  if (opt.progress) {
    std::fprintf(stderr, "progress: %u worker%s\n", driver.num_workers(),
                 driver.num_workers() == 1 ? "" : "s");
    tracker.emplace(total, [&driver] { return driver.TotalUpdates() / 2; });
  }

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  auto now_seconds = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  SnapshotScheduler scheduler(
      static_cast<double>(sopt.snapshot_ms) / 1000.0);

  size_t qi = 0;
  uint64_t pushed = 0;
  uint64_t snapshots = 0;
  SnapshotTiming sum{};   // accumulated drain/publish time
  SnapshotTiming peak{};  // per-snapshot maxima
  // Serves every boundary that falls at the current position: one
  // snapshot per position, shared by all queries scripted there. Wall
  // clock is only consulted every 256 updates (--snapshot-ms tolerance
  // is far coarser than that; a clock read per push is not).
  auto serve_boundary = [&] {
    bool scripted = qi < queries.size() && queries[qi].pos == pushed;
    bool periodic = sopt.snapshot_every > 0 && pushed > 0 &&
                    pushed % sopt.snapshot_every == 0;
    bool timed = false;
    double now = 0;
    if (sopt.snapshot_ms > 0 && (pushed & 255u) == 0) {
      now = now_seconds();
      timed = scheduler.Due(now);
    }
    if (!scripted && !periodic && !timed) return;
    SnapshotTiming timing;
    auto snap = PublishSnapshot(&driver, &store, &timing);
    if (timed) scheduler.Taken(now);
    ++snapshots;
    sum.drain_ms += timing.drain_ms;
    sum.publish_ms += timing.publish_ms;
    peak.drain_ms = std::max(peak.drain_ms, timing.drain_ms);
    peak.publish_ms = std::max(peak.publish_ms, timing.publish_ms);
    if (opt.progress) {
      std::fprintf(stderr,
                   "snapshot @%llu: drain %.3f ms, publish %.3f ms\n",
                   static_cast<unsigned long long>(pushed), timing.drain_ms,
                   timing.publish_ms);
    }
    while (qi < queries.size() && queries[qi].pos == pushed) {
      engine.Submit(std::move(queries[qi].text), snap);
      ++qi;
    }
  };

  bool ok = true;
  if (preloaded.has_value()) {
    for (const auto& e : preloaded->Updates()) {
      serve_boundary();
      driver.Push(e.u, e.v, e.delta);
      ++pushed;
    }
  } else {
    ok = ForEachBinaryUpdate(path, n, total,
                             [&](const EdgeUpdate& e) {
                               serve_boundary();
                               driver.Push(e.u, e.v, e.delta);
                               ++pushed;
                             });
  }
  driver.Drain();
  if (ok) serve_boundary();  // end-of-stream queries (pos == total)
  engine.Finish();
  if (tracker.has_value()) tracker->Stop();
  std::fprintf(stderr,
               "served %llu queries (%llu errors) from %llu snapshots over "
               "%llu updates\n",
               static_cast<unsigned long long>(engine.answered()),
               static_cast<unsigned long long>(engine.errors()),
               static_cast<unsigned long long>(snapshots),
               static_cast<unsigned long long>(pushed));
  if (snapshots > 0) {
    std::fprintf(
        stderr,
        "snapshot timing: drain %.3f ms total (max %.3f), publish %.3f ms "
        "total (max %.3f); %llu overdue ticks coalesced, %llu eager "
        "answers\n",
        sum.drain_ms, peak.drain_ms, sum.publish_ms, peak.publish_ms,
        static_cast<unsigned long long>(scheduler.coalesced()),
        static_cast<unsigned long long>(engine.eager_answered()));
  }
  return ok ? 0 : kExitRuntime;
}

// ---------------------------------------------------- serve (multi) --

/// One `open` line of a multi-graph serve script: session `name` runs
/// family `alg`, bound to the NEXT tenant tag of the trace in open order
/// (first open = tenant 0). Optional per-session snapshot cadence.
struct MultiOpen {
  std::string name;
  std::string alg;
  uint64_t snapshot_ms = 0;  ///< 0 = inherit the global --snapshot-ms
};

/// One `@<name> <pos> <query>` line: answer against a snapshot of session
/// `name` reflecting exactly `pos` of ITS OWN stream tokens — the same
/// position a solo run of that tenant would script, so answers diff
/// against solo references modulo the `<name>` prefix.
struct MultiQuery {
  uint64_t pos = 0;  ///< per-session position; UINT64_MAX = "end"
  std::string text;
};

/// Parses a multi-graph serve script: `open <name> <alg> [--snapshot-ms
/// M]` lines and `@<name> <pos> <query>` lines ('#' comments and blanks
/// skipped; 'end' as a position means that session's end of stream).
bool ParseMultiScript(std::istream& in, const char* fname,
                      std::vector<MultiOpen>* opens,
                      std::vector<std::pair<std::string, MultiQuery>>* queries) {
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string head;
    ss >> head;
    if (head == "open") {
      MultiOpen open;
      std::string extra;
      if (!(ss >> open.name >> open.alg)) {
        std::fprintf(stderr,
                     "error: %s:%zu: expected 'open <name> <alg> "
                     "[--snapshot-ms M]', got '%s'\n",
                     fname, lineno, line.c_str());
        return false;
      }
      if (ss >> extra) {
        std::string value;
        if (extra != "--snapshot-ms" || !(ss >> value) ||
            !ParseU64(value.c_str(), &open.snapshot_ms) ||
            open.snapshot_ms == 0) {
          std::fprintf(stderr,
                       "error: %s:%zu: the only open option is "
                       "'--snapshot-ms M' (M > 0)\n",
                       fname, lineno);
          return false;
        }
      }
      if (open.name.empty() || open.name[0] == '@') {
        std::fprintf(stderr, "error: %s:%zu: bad session name '%s'\n",
                     fname, lineno, open.name.c_str());
        return false;
      }
      opens->push_back(std::move(open));
      continue;
    }
    if (head.size() > 1 && head[0] == '@') {
      std::string name = head.substr(1);
      std::string pos_tok;
      ss >> pos_tok;
      MultiQuery q;
      if (pos_tok == "end") {
        q.pos = UINT64_MAX;
      } else if (!ParseU64(pos_tok.c_str(), &q.pos)) {
        std::fprintf(stderr,
                     "error: %s:%zu: expected '@<name> <pos> <query>' "
                     "(or '@<name> end <query>'), got '%s'\n",
                     fname, lineno, line.c_str());
        return false;
      }
      std::getline(ss, q.text);
      size_t start = q.text.find_first_not_of(" \t");
      q.text = start == std::string::npos ? std::string()
                                          : q.text.substr(start);
      if (q.text.empty()) {
        std::fprintf(stderr, "error: %s:%zu: @%s has no query\n", fname,
                     lineno, name.c_str());
        return false;
      }
      queries->emplace_back(std::move(name), std::move(q));
      continue;
    }
    std::fprintf(stderr,
                 "error: %s:%zu: expected 'open ...' or '@<name> ...', "
                 "got '%s'\n",
                 fname, lineno, line.c_str());
    return false;
  }
  return true;
}

/// serve multi: co-hosted query-while-ingest over a GSKT tagged trace.
/// The script's `open` lines create one session per trace tenant (bound
/// in open order) on ONE SessionManager — shared worker pool, per-session
/// gutters/snapshots/answers. Every answer line is `<name>@<pos> <query>
/// => ...` where pos is the SESSION's own stream position, so each
/// tenant's answers are byte-identical (modulo the name prefix) to a solo
/// serve of that tenant's stream — the isolation invariant CI diffs.
int RunServeMulti(NodeId n, const char* trace_path, uint64_t seed,
                  const IngestOptions& opt, const ServeCmdOptions& sopt) {
  std::vector<MultiOpen> opens;
  std::vector<std::pair<std::string, MultiQuery>> scripted;
  if (sopt.queries != nullptr) {
    std::ifstream qin(sopt.queries);
    if (!qin) {
      std::fprintf(stderr, "error: cannot open %s\n", sopt.queries);
      return kExitRuntime;
    }
    if (!ParseMultiScript(qin, sopt.queries, &opens, &scripted)) {
      return kExitRuntime;
    }
  } else if (!ParseMultiScript(std::cin, "<stdin>", &opens, &scripted)) {
    return kExitRuntime;
  }
  if (opens.empty()) {
    std::fprintf(stderr, "error: multi serve script opened no sessions\n");
    return kExitRuntime;
  }

  // Load the whole tagged trace (records are 16 bytes; multi traces are
  // interleavings the generator bounds well under memory).
  TaggedStreamReader reader(trace_path);
  if (!reader.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", trace_path,
                 reader.error().c_str());
    return kExitRuntime;
  }
  if (reader.nodes() != n) {
    std::fprintf(stderr,
                 "error: %s declares n=%u but the command line says n=%u\n",
                 trace_path, reader.nodes(), n);
    return kExitRuntime;
  }
  if (opens.size() != reader.tenants()) {
    std::fprintf(stderr,
                 "error: %s carries %u tenants but the script opens %zu "
                 "sessions\n",
                 trace_path, reader.tenants(), opens.size());
    return kExitRuntime;
  }
  std::vector<TaggedUpdate> trace;
  trace.reserve(static_cast<size_t>(reader.num_updates()));
  while (!reader.Done()) {
    if (reader.ReadBatch(1 << 14, &trace) == 0) break;
  }
  if (!reader.ok() || !reader.Done()) {
    std::fprintf(stderr, "error: %s: %s\n", trace_path,
                 reader.error().c_str());
    return kExitRuntime;
  }

  const uint32_t tenants = reader.tenants();
  std::vector<uint64_t> tenant_total(tenants, 0);
  for (const auto& e : trace) ++tenant_total[e.tenant];

  // Session name -> tenant tag (open order IS tag order).
  std::vector<std::string> tenant_name(tenants);
  {
    std::map<std::string, uint32_t> by_name;
    for (uint32_t t = 0; t < tenants; ++t) {
      if (!by_name.emplace(opens[t].name, t).second) {
        std::fprintf(stderr, "error: session '%s' opened twice\n",
                     opens[t].name.c_str());
        return kExitRuntime;
      }
      tenant_name[t] = opens[t].name;
    }
    // Resolve each query's session and clamp its position.
    for (auto& [name, q] : scripted) {
      auto it = by_name.find(name);
      if (it == by_name.end()) {
        std::fprintf(stderr, "error: query names unopened session '%s'\n",
                     name.c_str());
        return kExitRuntime;
      }
      uint64_t total = tenant_total[it->second];
      if (q.pos > total) q.pos = total;
    }
  }
  std::vector<std::vector<MultiQuery>> queries(tenants);
  for (auto& [name, q] : scripted) {
    uint32_t t = 0;
    while (tenant_name[t] != name) ++t;
    queries[t].push_back(std::move(q));
  }
  for (auto& qs : queries) {
    std::stable_sort(qs.begin(), qs.end(),
                     [](const MultiQuery& a, const MultiQuery& b) {
                       return a.pos < b.pos;
                     });
  }

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  auto now_seconds = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  PipelineOptions popt;
  popt.num_workers = opt.threads;
  SessionManager manager(popt);
  std::vector<SketchSession*> sessions(tenants, nullptr);
  for (uint32_t t = 0; t < tenants; ++t) {
    const AlgInfo* info = FindAlg(opens[t].alg);
    if (info == nullptr) {
      std::fprintf(stderr, "error: unknown open alg '%s' (want %s)\n",
                   opens[t].alg.c_str(), RegistryNameList(", ").c_str());
      return kExitRuntime;
    }
    SessionConfig cfg;
    cfg.num_nodes = n;
    cfg.seed = seed;
    cfg.gutter_bytes = opt.gutter;
    cfg.eager_connectivity = info->tag == AlgTag::kConnectivity ||
                             info->tag == AlgTag::kSpanningForest;
    uint64_t ms = opens[t].snapshot_ms != 0 ? opens[t].snapshot_ms
                                            : sopt.snapshot_ms;
    cfg.snapshot_interval_seconds = static_cast<double>(ms) / 1000.0;
    cfg.start_seconds = now_seconds();
    std::string error;
    if (manager.Create(opens[t].name, opens[t].alg, cfg, &error) ==
        nullptr) {
      std::fprintf(stderr, "error: open %s: %s\n", opens[t].name.c_str(),
                   error.c_str());
      return kExitRuntime;
    }
    sessions[t] = manager.Find(opens[t].name);
  }

  QueryEngine engine(nullptr, stdout);
  std::vector<uint64_t> pushed(tenants, 0);
  std::vector<size_t> qi(tenants, 0);
  uint64_t snapshots = 0;
  SnapshotTiming sum{};

  // Serves every boundary of tenant `t` at its current position: one
  // snapshot per position, shared by all queries scripted there (same
  // policy as single-graph serve). `timed` additionally honors the
  // session's wall-clock cadence.
  auto serve_boundary = [&](uint32_t t, bool timed, double now) {
    SketchSession* s = sessions[t];
    bool scripted_here =
        qi[t] < queries[t].size() && queries[t][qi[t]].pos == pushed[t];
    bool due = timed && s->scheduler().Due(now);
    if (!scripted_here && !due) return;
    SnapshotTiming timing;
    auto snap = s->Publish(&timing);
    if (due) s->scheduler().Taken(now);
    ++snapshots;
    sum.drain_ms += timing.drain_ms;
    sum.publish_ms += timing.publish_ms;
    while (qi[t] < queries[t].size() &&
           queries[t][qi[t]].pos == pushed[t]) {
      engine.Submit(tenant_name[t], std::move(queries[t][qi[t]].text),
                    snap);
      ++qi[t];
    }
  };

  uint64_t global = 0;
  for (const auto& e : trace) {
    // Wall clock consulted every 256 trace records, as in single serve.
    bool check_clock = (global & 255u) == 0;
    double now = check_clock ? now_seconds() : 0;
    if (check_clock) {
      for (uint32_t t = 0; t < tenants; ++t) serve_boundary(t, true, now);
    } else {
      serve_boundary(e.tenant, false, 0);
    }
    sessions[e.tenant]->Push(e.u, e.v, e.delta);
    ++pushed[e.tenant];
    ++global;
  }
  for (uint32_t t = 0; t < tenants; ++t) {
    sessions[t]->Drain();
    serve_boundary(t, false, 0);  // end-of-stream queries
  }
  engine.Finish();
  std::fprintf(stderr,
               "served %llu queries (%llu errors) from %llu snapshots "
               "over %llu updates across %u sessions (%zu bytes hosted)\n",
               static_cast<unsigned long long>(engine.answered()),
               static_cast<unsigned long long>(engine.errors()),
               static_cast<unsigned long long>(snapshots),
               static_cast<unsigned long long>(global), tenants,
               manager.TotalMemoryBytes());
  if (snapshots > 0) {
    std::fprintf(stderr,
                 "snapshot timing: drain %.3f ms total, publish %.3f ms "
                 "total; %llu eager answers\n",
                 sum.drain_ms, sum.publish_ms,
                 static_cast<unsigned long long>(engine.eager_answered()));
  }
  return 0;
}

int RunCheckpoint(const AlgInfo& info, NodeId n, const char* stream_path,
                  const char* out_path, uint64_t seed,
                  const IngestOptions& opt, const CheckpointCmdOptions& copt,
                  const AlgOptions& aopt) {
  uint64_t total = 0;
  std::optional<DynamicGraphStream> preloaded;
  if (!CountStreamUpdates(stream_path, n, &total, &preloaded)) {
    return kExitRuntime;
  }
  uint64_t at = copt.at == UINT64_MAX ? total / 2 : copt.at;
  if (at > total) {
    std::fprintf(stderr,
                 "error: --at %llu exceeds the stream's %llu updates\n",
                 static_cast<unsigned long long>(at),
                 static_cast<unsigned long long>(total));
    return kExitRuntime;
  }

  std::string error;
  auto sk = info.make(n, aopt, seed);
  if (!IngestStreamRange(sk.get(), stream_path, n, preloaded, 0, at, opt) ||
      !SaveCheckpoint(out_path, *sk, at, &error)) {
    if (!error.empty()) std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitRuntime;
  }
  std::fprintf(stderr, "checkpointed %s after %llu/%llu updates to %s\n",
               info.name, static_cast<unsigned long long>(at),
               static_cast<unsigned long long>(total), out_path);
  return 0;
}

int RunResume(const char* stream_path, const char* ckpt_path,
              const IngestOptions& opt) {
  std::string error;
  auto ckpt = ReadCheckpointFile(ckpt_path, &error);
  if (!ckpt.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitRuntime;
  }
  auto sk = RestoreSketch(*ckpt, &error);
  if (sk == nullptr) {
    std::fprintf(stderr, "error: %s: %s\n", ckpt_path, error.c_str());
    return kExitRuntime;
  }

  // The restored sketch carries n, which the stream load validates
  // against.
  NodeId n = sk->num_nodes();
  uint64_t total = 0;
  std::optional<DynamicGraphStream> preloaded;
  if (!CountStreamUpdates(stream_path, n, &total, &preloaded)) {
    return kExitRuntime;
  }
  if (ckpt->stream_pos > total) {
    std::fprintf(stderr,
                 "error: checkpoint taken at update %llu but %s has only "
                 "%llu updates\n",
                 static_cast<unsigned long long>(ckpt->stream_pos),
                 stream_path, static_cast<unsigned long long>(total));
    return kExitRuntime;
  }
  // Shard checkpoints cover a round-robin subset, not a prefix: replaying
  // the "suffix" would double-apply some updates and skip others. They
  // are resumable only once they cover the whole stream (nothing left to
  // replay) — i.e. after merging ALL shards.
  if ((ckpt->flags & kCheckpointFlagShard) != 0 &&
      ckpt->stream_pos != total) {
    std::fprintf(stderr,
                 "error: %s covers %llu of %llu updates as a non-prefix "
                 "shard subset; merge all shards before resuming\n",
                 ckpt_path,
                 static_cast<unsigned long long>(ckpt->stream_pos),
                 static_cast<unsigned long long>(total));
    return kExitRuntime;
  }
  std::fprintf(stderr, "resuming %s at update %llu/%llu\n",
               CheckpointAlgName(ckpt->alg),
               static_cast<unsigned long long>(ckpt->stream_pos),
               static_cast<unsigned long long>(total));
  if (!IngestStreamRange(sk.get(), stream_path, n, preloaded,
                         ckpt->stream_pos, total, opt)) {
    return kExitRuntime;
  }
  sk->PrintAnswer(stdout);
  return 0;
}

/// shard: sketch S disjoint stream shards independently (update i goes to
/// shard i mod S), one thread per shard, and write one GSKC per shard.
/// `merge` over the outputs reproduces the single-stream sketch exactly.
int RunShard(const AlgInfo& info, NodeId n, const char* stream_path,
             const char* out_prefix, uint64_t seed, uint32_t shards,
             const AlgOptions& aopt) {
  uint64_t total = 0;
  std::optional<DynamicGraphStream> preloaded;
  if (!CountStreamUpdates(stream_path, n, &total, &preloaded)) {
    return kExitRuntime;
  }

  std::vector<std::unique_ptr<LinearSketch>> sketches(shards);
  std::vector<uint64_t> counts(shards, 0);
  std::vector<std::string> errors(shards);
  std::vector<std::thread> workers;
  workers.reserve(shards);
  for (uint32_t j = 0; j < shards; ++j) {
    workers.emplace_back([&, j] {
      // Each site owns a private, identically constructed sketch and its
      // own pass over the stream — no shared mutable state between sites.
      auto sk = info.make(n, aopt, seed);
      if (preloaded.has_value()) {
        const auto& updates = preloaded->Updates();
        for (uint64_t i = j; i < updates.size(); i += shards) {
          sk->Update(updates[i].u, updates[i].v, updates[i].delta);
          ++counts[j];
        }
      } else {
        BinaryStreamReader reader(stream_path);
        if (!reader.ok() || reader.nodes() != n) {
          errors[j] = reader.ok() ? "node-count mismatch" : reader.error();
          return;
        }
        std::vector<EdgeUpdate> batch;
        uint64_t index = 0;
        while (!reader.Done() && reader.ok()) {
          batch.clear();
          if (reader.ReadBatch(kStreamReadChunk, &batch) == 0) break;
          for (const auto& e : batch) {
            if (index % shards == j) {
              sk->Update(e.u, e.v, e.delta);
              ++counts[j];
            }
            ++index;
          }
        }
        if (!reader.ok()) {
          errors[j] = reader.error();
          return;
        }
      }
      sketches[j] = std::move(sk);
    });
  }
  for (auto& t : workers) t.join();

  for (uint32_t j = 0; j < shards; ++j) {
    if (!errors[j].empty()) {
      std::fprintf(stderr, "error: shard %u: %s\n", j, errors[j].c_str());
      return kExitRuntime;
    }
    std::string path =
        std::string(out_prefix) + ".shard" + std::to_string(j) + ".gskc";
    std::string error;
    // A shard covers a round-robin SUBSET of the stream, not a prefix:
    // flag it so `resume` refuses to replay a suffix on top of it.
    if (!SaveCheckpoint(path, *sketches[j], counts[j], &error,
                        kCheckpointFlagShard)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return kExitRuntime;
    }
  }
  std::fprintf(stderr,
               "sharded %s across %u sites (%llu updates) -> %s.shard*.gskc\n",
               info.name, shards, static_cast<unsigned long long>(total),
               out_prefix);
  return 0;
}

/// merge: add GSKC sketches (all the same algorithm, identically
/// constructed) into one checkpoint whose stream position is the total.
int RunMerge(const char* out_path, const std::vector<const char*>& inputs) {
  std::string error;
  std::unique_ptr<LinearSketch> acc;
  uint64_t stream_pos = 0;
  uint32_t flags = 0;
  for (const char* in_path : inputs) {
    auto ckpt = ReadCheckpointFile(in_path, &error);
    if (!ckpt.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return kExitRuntime;
    }
    auto sk = RestoreSketch(*ckpt, &error);
    if (sk == nullptr) {
      std::fprintf(stderr, "error: %s: %s\n", in_path, error.c_str());
      return kExitRuntime;
    }
    if (acc == nullptr) {
      acc = std::move(sk);
    } else if (!acc->Merge(*sk, &error)) {
      std::fprintf(stderr, "error: %s: %s\n", in_path, error.c_str());
      return kExitRuntime;
    }
    stream_pos += ckpt->stream_pos;
    // Any shard input keeps the merge a non-prefix subset (until it
    // happens to cover the whole stream, which `resume` verifies).
    flags |= ckpt->flags;
  }
  if (!SaveCheckpoint(out_path, *acc, stream_pos, &error, flags)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitRuntime;
  }
  std::fprintf(stderr, "merged %zu sketches (%s, %llu updates) into %s\n",
               inputs.size(), AlgTagName(acc->Tag()),
               static_cast<unsigned long long>(stream_pos), out_path);
  return 0;
}

int RunInspect(const char* path) {
  std::string error;
  auto ckpt = ReadCheckpointFile(path, &error);
  if (!ckpt.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitRuntime;
  }
  auto sk = RestoreSketch(*ckpt, &error);
  if (sk == nullptr) {
    std::fprintf(stderr, "error: %s: %s\n", path, error.c_str());
    return kExitRuntime;
  }
  std::printf("algorithm:  %s\nstream pos: %llu%s\npayload:    %zu bytes\n"
              "sketch:     %s\n",
              CheckpointAlgName(ckpt->alg),
              static_cast<unsigned long long>(ckpt->stream_pos),
              (ckpt->flags & kCheckpointFlagShard) != 0
                  ? " (shard subset, not a prefix)"
                  : "",
              ckpt->payload.size(), sk->Describe().c_str());
  return 0;
}

int RunSpanner(NodeId n, const DynamicGraphStream& stream, uint64_t seed) {
  BaswanaSenOptions opt;
  opt.k = 3;
  BaswanaSenSpanner sp(n, opt, seed);
  sp.Run(stream);
  Graph g = stream.Materialize();
  auto stats = CheckSpanner(g, sp.Spanner(), 0, seed);
  std::printf("# spanner: %zu edges, %u passes, stretch %.2f (bound %.0f)\n",
              sp.Spanner().NumEdges(), sp.NumPasses(), stats.max_stretch,
              sp.StretchBound());
  for (const auto& e : sp.Spanner().Edges()) {
    std::printf("%u %u\n", e.u, e.v);
  }
  return 0;
}

int RunStats(NodeId n, const DynamicGraphStream& stream) {
  Graph g = stream.Materialize();
  size_t inserts = 0, deletes = 0;
  for (const auto& e : stream.Updates()) {
    if (e.delta > 0) {
      ++inserts;
    } else {
      ++deletes;
    }
  }
  std::printf("nodes:       %u\nupdates:     %zu (%zu ins, %zu del)\n"
              "final edges: %zu\ncomponents:  %zu\n",
              n, stream.Size(), inserts, deletes, g.NumEdges(),
              g.NumComponents());
  return 0;
}

/// convert: text -> GSKB binary, or (when the input is already binary)
/// binary -> text, so `convert; convert` round-trips a stream.
int RunConvert(NodeId n, const char* in_path, const char* out_path) {
  const bool to_text = LooksLikeBinaryStream(in_path);
  DynamicGraphStream stream(n);
  if (!LoadAnyStream(in_path, n, &stream)) return kExitRuntime;

  if (to_text) {
    std::FILE* out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n", out_path);
      return kExitRuntime;
    }
    std::fprintf(out, "# converted from %s (n=%u, %zu updates)\n", in_path,
                 n, stream.Size());
    for (const auto& e : stream.Updates()) {
      std::fprintf(out, "%u %u %lld\n", e.u, e.v,
                   static_cast<long long>(e.delta));
    }
    if (std::fclose(out) != 0) {
      std::fprintf(stderr, "error: write to %s failed\n", out_path);
      return kExitRuntime;
    }
  } else {
    BinaryStreamWriter w(out_path, n);
    for (const auto& e : stream.Updates()) w.Append(e);
    uint64_t records = w.updates_written();
    if (!w.Close()) {
      std::fprintf(stderr, "error: write to %s failed\n", out_path);
      return kExitRuntime;
    }
    // Wide deltas split into several i32 wire records, so the file can
    // legitimately hold more records than the input had updates.
    if (records != stream.Size()) {
      std::fprintf(stderr,
                   "wrote %zu updates as %llu wire records (GSKB binary, "
                   "wide deltas split) to %s\n",
                   stream.Size(), static_cast<unsigned long long>(records),
                   out_path);
    } else {
      std::fprintf(stderr, "wrote %zu updates (GSKB binary) to %s\n",
                   stream.Size(), out_path);
    }
    return 0;
  }
  std::fprintf(stderr, "wrote %zu updates (text) to %s\n", stream.Size(),
               out_path);
  return 0;
}

/// gen: deterministic workload generation to GSKB binary. `out_path` "-"
/// streams the bytes to stdout so a differential repro is one pipeline:
///   gsketch gen churn 64 2000 - 7 | gsketch connectivity 64 -
int RunGen(const WorkloadProfile& profile, NodeId n, uint64_t updates,
           const char* out_path, uint64_t seed) {
  DynamicGraphStream stream =
      profile.generate(n, static_cast<size_t>(updates), seed);
  uint64_t records = 0;
  if (std::strcmp(out_path, "-") == 0) {
    // Stdout is not seekable, so the header count cannot be patched after
    // the fact like BinaryStreamWriter does; count wire records first
    // (wide deltas split into maximal i32 chunks, same as the writer).
    for (const auto& e : stream.Updates()) {
      int64_t rest = e.delta;
      do {
        int64_t chunk = rest > INT32_MAX
                            ? INT32_MAX
                            : (rest < INT32_MIN ? INT32_MIN : rest);
        rest -= chunk;
        ++records;
      } while (rest != 0);
    }
    const uint32_t magic = kBinaryStreamMagic;
    const uint32_t version = kBinaryStreamVersion;
    const uint32_t n32 = n;
    std::fwrite(&magic, 4, 1, stdout);
    std::fwrite(&version, 4, 1, stdout);
    std::fwrite(&n32, 4, 1, stdout);
    std::fwrite(&records, 8, 1, stdout);
    for (const auto& e : stream.Updates()) {
      int64_t rest = e.delta;
      do {
        int64_t chunk = rest > INT32_MAX
                            ? INT32_MAX
                            : (rest < INT32_MIN ? INT32_MIN : rest);
        rest -= chunk;
        int32_t delta32 = static_cast<int32_t>(chunk);
        std::fwrite(&e.u, 4, 1, stdout);
        std::fwrite(&e.v, 4, 1, stdout);
        std::fwrite(&delta32, 4, 1, stdout);
      } while (rest != 0);
    }
    if (std::fflush(stdout) != 0) {
      std::fprintf(stderr, "error: write to stdout failed\n");
      return kExitRuntime;
    }
  } else {
    BinaryStreamWriter w(out_path, n);
    for (const auto& e : stream.Updates()) w.Append(e);
    records = w.updates_written();
    if (!w.Close()) {
      std::fprintf(stderr, "error: write to %s failed\n", out_path);
      return kExitRuntime;
    }
  }
  WorkloadStats stats = ComputeWorkloadStats(stream);
  std::fprintf(stderr,
               "gen %s: n=%u seed=%llu, %zu updates (%zu ins, %zu del) -> "
               "%llu wire records, %zu final edges, %zu cancelled to 0\n",
               profile.name, n, static_cast<unsigned long long>(seed),
               stream.Size(), stats.insert_tokens, stats.delete_tokens,
               static_cast<unsigned long long>(records), stats.final_edges,
               stats.zeroed_edges);
  return 0;
}

/// gen multi: K tenants' churn streams interleaved into one GSKT tagged
/// trace. Tenant k's subsequence is exactly `gen churn <n> <u_k> ...
/// <seed+k>` (see GenerateMultiTenantTrace), so solo references for a
/// co-hosted run are one `gen churn` command per tenant.
int RunGenMulti(NodeId n, uint64_t updates, uint32_t tenants,
                const char* out_path, uint64_t seed) {
  std::vector<TaggedUpdate> trace = GenerateMultiTenantTrace(
      n, static_cast<size_t>(updates), tenants, seed);
  TaggedStreamWriter w(out_path, n, tenants);
  for (const auto& e : trace) w.Append(e.tenant, e.u, e.v, e.delta);
  uint64_t records = w.updates_written();
  if (!w.Close()) {
    std::fprintf(stderr, "error: write to %s failed\n", out_path);
    return kExitRuntime;
  }
  std::vector<uint64_t> per_tenant(tenants, 0);
  for (const auto& e : trace) ++per_tenant[e.tenant];
  std::string split;
  for (uint32_t t = 0; t < tenants; ++t) {
    if (!split.empty()) split += "+";
    split += std::to_string(per_tenant[t]);
  }
  std::fprintf(stderr,
               "gen multi: n=%u seed=%llu, %zu updates across %u tenants "
               "(%s) -> %llu wire records\n",
               n, static_cast<unsigned long long>(seed), trace.size(),
               tenants, split.c_str(),
               static_cast<unsigned long long>(records));
  return 0;
}

/// Parses positional <n>; exit-code semantics shared by every command.
bool ParseNodeCount(const char* arg, NodeId* n) {
  uint64_t n_arg = 0;
  if (!ParseU64(arg, &n_arg) || n_arg < 2 || n_arg > (1 << 24)) {
    std::fprintf(stderr, "error: n must be an integer in [2, 2^24]\n");
    return false;
  }
  *n = static_cast<NodeId>(n_arg);
  return true;
}

bool ParseSeed(const std::vector<const char*>& pos, size_t index,
               uint64_t* seed) {
  *seed = 1;
  if (pos.size() > index && !ParseU64(pos[index], seed)) {
    std::fprintf(stderr, "error: seed must be a non-negative integer\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(stderr, argv[0]);
    return kExitUsage;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    PrintUsage(stdout, argv[0]);
    return 0;
  }

  // Split the remaining arguments into flags and positionals.
  IngestOptions opt;
  CheckpointCmdOptions copt;
  ServeCmdOptions sopt;
  AlgOptions aopt;
  bool ingest_flags_given = false;
  bool at_given = false;
  bool k_given = false;
  bool mw_given = false;
  bool shards_given = false;
  bool serve_flags_given = false;
  uint32_t tenants = 0;
  std::vector<const char*> pos;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    uint64_t value = 0;
    if (arg == "--queries") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --queries needs a file path\n");
        return kExitUsage;
      }
      sopt.queries = argv[++i];
      serve_flags_given = true;
    } else if (arg == "--snapshot-every") {
      if (i + 1 >= argc || !ParseU64(argv[i + 1], &value) || value == 0) {
        std::fprintf(stderr,
                     "error: --snapshot-every needs a positive integer\n");
        return kExitUsage;
      }
      ++i;
      sopt.snapshot_every = value;
      serve_flags_given = true;
    } else if (arg == "--snapshot-ms") {
      if (i + 1 >= argc || !ParseU64(argv[i + 1], &value) || value == 0) {
        std::fprintf(stderr,
                     "error: --snapshot-ms needs a positive integer\n");
        return kExitUsage;
      }
      ++i;
      sopt.snapshot_ms = value;
      serve_flags_given = true;
    } else if (arg == "--max-weight") {
      if (i + 1 >= argc || !ParseU64(argv[i + 1], &value) || value == 0 ||
          value > (uint64_t{1} << 32)) {
        std::fprintf(stderr,
                     "error: --max-weight needs an integer in [1, 2^32]\n");
        return kExitUsage;
      }
      ++i;
      aopt.max_weight = static_cast<int64_t>(value);
      mw_given = true;
    } else if (arg == "--tenants") {
      if (i + 1 >= argc || !ParseU64(argv[i + 1], &value) || value < 2 ||
          value > 256) {
        std::fprintf(stderr,
                     "error: --tenants needs an integer in [2, 256]\n");
        return kExitUsage;
      }
      ++i;
      tenants = static_cast<uint32_t>(value);
    } else if (arg == "--at" || arg == "--k" || arg == "--shards") {
      if (i + 1 >= argc || !ParseU64(argv[i + 1], &value)) {
        std::fprintf(stderr, "error: %s needs a non-negative integer\n",
                     arg.c_str());
        return kExitUsage;
      }
      ++i;
      if (arg == "--at") {
        copt.at = value;
        at_given = true;
      } else if (arg == "--k") {
        if (value == 0 || value > 1024) {
          std::fprintf(stderr, "error: --k must be in [1, 1024]\n");
          return kExitUsage;
        }
        aopt.k = static_cast<uint32_t>(value);
        k_given = true;
      } else {
        if (value < 2 || value > kMaxShards) {
          std::fprintf(stderr, "error: --shards must be in [2, %llu]\n",
                       static_cast<unsigned long long>(kMaxShards));
          return kExitUsage;
        }
        copt.shards = static_cast<uint32_t>(value);
        shards_given = true;
      }
    } else if (arg == "--threads") {
      if (i + 1 >= argc || !ParseU64(argv[i + 1], &value) || value == 0) {
        std::fprintf(stderr, "error: --threads needs a positive integer\n");
        return kExitUsage;
      }
      ++i;
      ingest_flags_given = true;
      if (value > kMaxThreads) {
        std::fprintf(stderr, "error: --threads must be <= %llu\n",
                     static_cast<unsigned long long>(kMaxThreads));
        return kExitUsage;
      }
      opt.threads = static_cast<uint32_t>(value);
    } else if (arg == "--gutter") {
      // At least one 12-byte entry per gutter; cap at 1 GiB/node.
      if (i + 1 >= argc || !ParseU64(argv[i + 1], &value) ||
          value < kGutterEntryBytes || value > (uint64_t{1} << 30)) {
        std::fprintf(stderr,
                     "error: --gutter needs a byte count in [12, 2^30]\n");
        return kExitUsage;
      }
      ++i;
      ingest_flags_given = true;
      opt.gutter = value;
    } else if (arg == "--progress") {
      opt.progress = true;
      ingest_flags_given = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return kExitUsage;
    } else {
      pos.push_back(argv[i]);
    }
  }

  // Flag scoping, uniform across commands: each flag names the commands
  // (or registry capability) it belongs to; anything else is exit 2.
  auto reject_at = [&]() -> bool {
    if (!at_given) return false;
    std::fprintf(stderr, "error: --at applies only to checkpoint\n");
    return true;
  };
  auto reject_shards = [&]() -> bool {
    if (!shards_given) return false;
    std::fprintf(stderr, "error: --shards applies only to shard\n");
    return true;
  };
  // Registry-capability flags: each is valid only for algorithms that
  // consume it (null info = a command that makes no sketch).
  auto reject_alg_flags = [&](const AlgInfo* info) -> bool {
    if (k_given && (info == nullptr || !info->uses_k)) {
      std::fprintf(stderr, "error: --k applies only to %s\n",
                   KAlgNameList().c_str());
      return true;
    }
    if (mw_given &&
        (info == nullptr || info->tag != AlgTag::kWeightedSparsify)) {
      std::fprintf(stderr, "error: --max-weight applies only to wsparsify\n");
      return true;
    }
    return false;
  };
  auto reject_ingest = [&](const char* why) -> bool {
    if (!ingest_flags_given) return false;
    std::fprintf(stderr,
                 "error: --threads/--gutter/--progress apply only to %s\n",
                 why);
    return true;
  };
  auto reject_serve = [&]() -> bool {
    if (!serve_flags_given) return false;
    std::fprintf(stderr,
                 "error: --queries/--snapshot-every/--snapshot-ms apply "
                 "only to serve\n");
    return true;
  };
  auto reject_tenants = [&]() -> bool {
    if (tenants == 0) return false;
    std::fprintf(stderr, "error: --tenants applies only to gen multi\n");
    return true;
  };
  const std::string sharded_cmds =
      ShardedAlgNameList() + ", serve, checkpoint, and resume";

  if (cmd == "serve") {
    if (reject_at() || reject_shards() || reject_tenants()) {
      return kExitUsage;
    }
    if (pos.size() < 3 || pos.size() > 4) {
      PrintUsage(stderr, argv[0]);
      return kExitUsage;
    }
    if (std::strcmp(pos[0], "multi") == 0) {
      // Multi-graph serve: sessions and families come from the script's
      // `open` lines, so the sketch-flag scope is empty here.
      if (reject_alg_flags(nullptr)) return kExitUsage;
      NodeId n = 0;
      uint64_t seed = 1;
      if (!ParseNodeCount(pos[1], &n) || !ParseSeed(pos, 3, &seed)) {
        return kExitUsage;
      }
      return RunServeMulti(n, pos[2], seed, opt, sopt);
    }
    const AlgInfo* info = FindAlg(pos[0]);
    if (info == nullptr) {
      std::fprintf(stderr, "error: unknown serve alg '%s' (want %s)\n",
                   pos[0], RegistryNameList(", ").c_str());
      return kExitUsage;
    }
    if (reject_alg_flags(info)) return kExitUsage;
    if (!info->endpoint_sharded &&
        reject_ingest(sharded_cmds.c_str())) {
      return kExitUsage;
    }
    NodeId n = 0;
    uint64_t seed = 1;
    if (!ParseNodeCount(pos[1], &n) || !ParseSeed(pos, 3, &seed)) {
      return kExitUsage;
    }
    return RunServe(*info, n, pos[2], seed, opt, sopt, aopt);
  }

  if (cmd == "checkpoint") {
    if (reject_serve() || reject_tenants()) return kExitUsage;
    if (pos.size() < 4 || pos.size() > 5) {
      PrintUsage(stderr, argv[0]);
      return kExitUsage;
    }
    const AlgInfo* info = FindAlg(pos[0]);
    if (info == nullptr) {
      std::fprintf(stderr, "error: unknown checkpoint alg '%s' (want %s)\n",
                   pos[0], RegistryNameList(", ").c_str());
      return kExitUsage;
    }
    if (reject_alg_flags(info) || reject_shards()) return kExitUsage;
    if (!info->endpoint_sharded &&
        reject_ingest(sharded_cmds.c_str())) {
      return kExitUsage;
    }
    NodeId n = 0;
    uint64_t seed = 1;
    if (!ParseNodeCount(pos[1], &n) || !ParseSeed(pos, 4, &seed)) {
      return kExitUsage;
    }
    return RunCheckpoint(*info, n, pos[2], pos[3], seed, opt, copt, aopt);
  }

  if (cmd == "resume") {
    if (reject_at() || reject_alg_flags(nullptr) || reject_shards() ||
        reject_serve() || reject_tenants()) {
      return kExitUsage;
    }
    if (pos.size() != 2) {
      PrintUsage(stderr, argv[0]);
      return kExitUsage;
    }
    return RunResume(pos[0], pos[1], opt);
  }

  if (cmd == "shard") {
    if (reject_at() || reject_serve() || reject_tenants()) {
      return kExitUsage;
    }
    if (!shards_given) {
      std::fprintf(stderr, "error: shard requires --shards S\n");
      return kExitUsage;
    }
    if (reject_ingest("per-stream ingestion; shard parallelism comes from "
                      "--shards")) {
      return kExitUsage;
    }
    if (pos.size() < 4 || pos.size() > 5) {
      PrintUsage(stderr, argv[0]);
      return kExitUsage;
    }
    const AlgInfo* info = FindAlg(pos[0]);
    if (info == nullptr) {
      std::fprintf(stderr, "error: unknown shard alg '%s' (want %s)\n",
                   pos[0], RegistryNameList(", ").c_str());
      return kExitUsage;
    }
    if (reject_alg_flags(info)) return kExitUsage;
    NodeId n = 0;
    uint64_t seed = 1;
    if (!ParseNodeCount(pos[1], &n) || !ParseSeed(pos, 4, &seed)) {
      return kExitUsage;
    }
    return RunShard(*info, n, pos[2], pos[3], seed, copt.shards, aopt);
  }

  if (cmd == "merge") {
    if (reject_at() || reject_alg_flags(nullptr) || reject_shards() ||
        reject_serve() || reject_tenants() ||
        reject_ingest(sharded_cmds.c_str())) {
      return kExitUsage;
    }
    if (pos.size() < 3) {
      std::fprintf(stderr,
                   "error: merge needs <out.gskc> and at least two "
                   "inputs\n");
      return kExitUsage;
    }
    std::vector<const char*> inputs(pos.begin() + 1, pos.end());
    return RunMerge(pos[0], inputs);
  }

  if (cmd == "inspect") {
    if (reject_at() || reject_alg_flags(nullptr) || reject_shards() ||
        reject_serve() || reject_tenants() ||
        reject_ingest(sharded_cmds.c_str())) {
      return kExitUsage;
    }
    if (pos.size() != 1) {
      PrintUsage(stderr, argv[0]);
      return kExitUsage;
    }
    return RunInspect(pos[0]);
  }

  if (reject_at() || reject_shards() || reject_serve()) return kExitUsage;

  if (cmd == "gen") {
    if (reject_alg_flags(nullptr)) return kExitUsage;
    if (ingest_flags_given) {
      std::fprintf(stderr, "error: gen takes no options\n");
      return kExitUsage;
    }
    if (pos.size() < 4 || pos.size() > 5) {
      PrintUsage(stderr, argv[0]);
      return kExitUsage;
    }
    NodeId n = 0;
    uint64_t updates = 0;
    uint64_t seed = 1;
    if (!ParseNodeCount(pos[1], &n) || !ParseSeed(pos, 4, &seed)) {
      return kExitUsage;
    }
    if (!ParseU64(pos[2], &updates) || updates == 0 ||
        updates > (uint64_t{1} << 40)) {
      std::fprintf(stderr,
                   "error: updates must be an integer in [1, 2^40]\n");
      return kExitUsage;
    }
    if (std::strcmp(pos[0], "multi") == 0) {
      if (tenants == 0) {
        std::fprintf(stderr, "error: gen multi requires --tenants K\n");
        return kExitUsage;
      }
      return RunGenMulti(n, updates, tenants, pos[3], seed);
    }
    if (reject_tenants()) return kExitUsage;
    const WorkloadProfile* profile = FindWorkloadProfile(pos[0]);
    if (profile == nullptr) {
      std::fprintf(stderr, "error: unknown gen profile '%s' (want %s)\n",
                   pos[0], WorkloadProfileNameList().c_str());
      return kExitUsage;
    }
    return RunGen(*profile, n, updates, pos[3], seed);
  }

  if (cmd == "convert") {
    if (reject_alg_flags(nullptr) || reject_tenants()) return kExitUsage;
    if (ingest_flags_given) {
      std::fprintf(stderr, "error: convert takes no options\n");
      return kExitUsage;
    }
    if (pos.size() != 3) {
      PrintUsage(stderr, argv[0]);
      return kExitUsage;
    }
    NodeId n = 0;
    if (!ParseNodeCount(pos[0], &n)) return kExitUsage;
    return RunConvert(n, pos[1], pos[2]);
  }

  if (const AlgInfo* info = FindAlg(cmd)) {
    if (reject_alg_flags(info) || reject_tenants()) return kExitUsage;
    if (!info->endpoint_sharded &&
        reject_ingest(sharded_cmds.c_str())) {
      return kExitUsage;
    }
    if (pos.size() < 2 || pos.size() > 3) {
      PrintUsage(stderr, argv[0]);
      return kExitUsage;
    }
    NodeId n = 0;
    uint64_t seed = 1;
    if (!ParseNodeCount(pos[0], &n) || !ParseSeed(pos, 2, &seed)) {
      return kExitUsage;
    }
    return RunRegistered(*info, n, pos[1], seed, opt, aopt);
  }

  // The remaining commands replay an in-memory stream (multi-pass or
  // whole-stream algorithms); parallel ingestion does not apply.
  if (cmd == "spanner" || cmd == "stats") {
    if (reject_alg_flags(nullptr) || reject_tenants() ||
        reject_ingest(sharded_cmds.c_str())) {
      return kExitUsage;
    }
    if (pos.size() < 2 || pos.size() > 3) {
      PrintUsage(stderr, argv[0]);
      return kExitUsage;
    }
    NodeId n = 0;
    uint64_t seed = 1;
    if (!ParseNodeCount(pos[0], &n) || !ParseSeed(pos, 2, &seed)) {
      return kExitUsage;
    }
    DynamicGraphStream stream(n);
    if (!LoadAnyStream(pos[1], n, &stream)) return kExitRuntime;
    if (cmd == "spanner") return RunSpanner(n, stream, seed);
    return RunStats(n, stream);
  }

  std::fprintf(stderr, "error: unknown command '%s'\n", cmd.c_str());
  PrintUsage(stderr, argv[0]);
  return kExitUsage;
}
