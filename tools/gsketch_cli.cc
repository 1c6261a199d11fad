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
// Commands are rows of one table (kCommands): positional arity, accepted
// flags and a runner. main() checks every row the same way, so flag scope
// is decided in one place: by the row, then by the family's AlgInfo.
//
// Exit status: 0 success, 1 runtime failure (unreadable/malformed stream
// or checkpoint), 2 usage error (unknown command, malformed numbers, bad
// flags).
#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
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
      "               <name> <alg>') and queries them ('@<name> <pos>\n"
      "               <query>', per-session positions)\n"
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

// ------------------------------------------------------- stream input --

/// THE text parser, for files and stdin alike: one "u v delta" update per
/// line, '#' comments and blank lines skipped.
bool ParseTextStream(std::istream& in, const char* name, NodeId n,
                     DynamicGraphStream* out) {
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    long long u, v, delta;
    if (!(ss >> u >> v >> delta)) {
      std::fprintf(stderr, "error: %s:%zu: expected 'u v delta'\n", name,
                   lineno);
      return false;
    }
    if (u < 0 || v < 0 || u >= static_cast<long long>(n) ||
        v >= static_cast<long long>(n) || u == v) {
      std::fprintf(stderr, "error: %s:%zu: bad endpoints %lld %lld (n=%u)\n",
                   name, lineno, u, v, n);
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
                   name, lineno, delta,
                   static_cast<long long>(kMaxDeltaChunks));
      return false;
    }
    out->Push(static_cast<NodeId>(u), static_cast<NodeId>(v), delta);
  }
  return true;
}

/// Sentinel for ReadBinaryUpdates: read to the stream's declared end.
constexpr uint64_t kWholeStream = UINT64_MAX;

/// THE binary read loop: checks that `reader` opened and declares n
/// nodes, then streams its first `limit` records (kWholeStream = all of
/// them) into `fn(const EdgeUpdate&)` in kStreamReadChunk chunks. Files,
/// stdin and every shard site read through here, so open failures,
/// node-count mismatches, bad records and early truncation get one
/// diagnostic, returned (empty on success) for the caller to print.
template <typename Fn>
std::string ReadBinaryUpdates(BinaryStreamReader& reader, NodeId n,
                              uint64_t limit, Fn&& fn) {
  if (!reader.ok()) return reader.error();
  if (reader.nodes() != n) {
    return "stream declares n=" + std::to_string(reader.nodes()) +
           " but n=" + std::to_string(n) + " given";
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
  if (!reader.ok()) return reader.error();
  if (index < limit) {
    return "stream ended after " + std::to_string(index) + " of " +
           std::to_string(limit) + " updates";
  }
  return "";
}

/// '-' names stdin (for an input) or stdout (for an output).
bool IsStdio(const char* path) { return std::strcmp(path, "-") == 0; }

/// One opened stream input, file or stdin ('-'). A GSKB file streams
/// from disk through `reader` in constant memory; text files and stdin
/// arrive parsed whole in `preloaded`. A pipe can be neither sniffed nor
/// sized, so stdin is read whole first and its bytes, through fmemopen,
/// meet the same GSKB reader and text parser as a file's — every header,
/// size and record check applies, under the name <stdin>.
struct StreamInput {
  std::string name;
  std::unique_ptr<BinaryStreamReader> reader;
  std::optional<DynamicGraphStream> preloaded;
  uint64_t total = 0;
  bool binary = false;  ///< the bytes read were GSKB, not text
};

/// Opens the stream at `path` ('-' = stdin) for a graph of n nodes;
/// prints the diagnostic and returns false on failure.
bool OpenStream(const char* path, NodeId n, StreamInput* in) {
  const bool from_stdin = IsStdio(path);
  in->name = from_stdin ? "<stdin>" : path;
  auto fail = [in](const std::string& why) {
    std::fprintf(stderr, "error: %s: %s\n", in->name.c_str(), why.c_str());
    return false;
  };
  if (!from_stdin && LooksLikeBinaryStream(path)) {
    in->binary = true;
    in->reader = std::make_unique<BinaryStreamReader>(path);
    std::string error =
        ReadBinaryUpdates(*in->reader, n, 0, [](const EdgeUpdate&) {});
    if (!error.empty()) return fail(error);
    in->total = in->reader->num_updates();
    return true;
  }
  DynamicGraphStream stream(n);
  if (from_stdin) {
    std::string data;
    char buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), stdin)) > 0) {
      data.append(buf, got);
    }
    std::FILE* mem = std::ferror(stdin)
                         ? nullptr
                         : fmemopen(data.data(), data.size(), "rb");
    if (mem == nullptr) return fail("read failed");
    in->binary = LooksLikeBinaryStream(mem);
    std::string error;
    if (in->binary) {
      BinaryStreamReader reader(mem);
      error = ReadBinaryUpdates(reader, n, kWholeStream,
                                [&stream](const EdgeUpdate& e) {
                                  stream.Push(e.u, e.v, e.delta);
                                });
    }
    std::fclose(mem);
    if (!error.empty()) return fail(error);
    std::istringstream text(data);
    if (!in->binary && !ParseTextStream(text, "<stdin>", n, &stream)) {
      return false;
    }
  } else {
    std::ifstream text(path);
    if (!text) {
      std::fprintf(stderr, "error: cannot open %s\n", path);
      return false;
    }
    if (!ParseTextStream(text, path, n, &stream)) return false;
  }
  in->total = stream.Size();
  in->preloaded = std::move(stream);
  return true;
}

/// Feeds updates [0, to) of `in` to `fn(const EdgeUpdate&)`; prints the
/// diagnostic and returns false on a read failure.
template <typename Fn>
bool ForEachUpdate(StreamInput& in, NodeId n, uint64_t to, Fn&& fn) {
  if (in.preloaded.has_value()) {
    const auto& updates = in.preloaded->Updates();
    for (uint64_t i = 0; i < to; ++i) fn(updates[i]);
    return true;
  }
  std::string error = ReadBinaryUpdates(*in.reader, n, to, fn);
  if (error.empty()) return true;
  std::fprintf(stderr, "error: %s: %s\n", in.name.c_str(), error.c_str());
  return false;
}

/// Loads a whole stream (binary or text) into memory, for the commands
/// that need random access to it; `*binary`, when given, says which of
/// the two the bytes were.
bool LoadAnyStream(const char* path, NodeId n, DynamicGraphStream* out,
                   bool* binary = nullptr) {
  StreamInput in;
  if (!OpenStream(path, n, &in)) return false;
  if (binary != nullptr) *binary = in.binary;
  if (in.preloaded.has_value()) {
    *out = std::move(*in.preloaded);
    return true;
  }
  return ForEachUpdate(in, n, in.total, [out](const EdgeUpdate& e) {
    out->Push(e.u, e.v, e.delta);
  });
}

// ------------------------------------------------------- command line --

struct IngestOptions {
  uint32_t threads = 1;
  size_t gutter = kDefaultGutterBytes;  ///< per-node gutter bytes
  bool progress = false;
};

/// Flag groups: the unit a command row accepts, refuses or requires.
enum FlagGroup : unsigned {
  kAtFlag = 1u << 0,        ///< --at
  kShardsFlag = 1u << 1,    ///< --shards
  kQueriesFlag = 1u << 2,   ///< --queries
  kTenantsFlag = 1u << 3,   ///< --tenants
  kKFlag = 1u << 4,         ///< --k
  kMaxWeightFlag = 1u << 5, ///< --max-weight
  kIngestFlags = 1u << 6,   ///< --threads, --gutter, --progress
  kAlgFlags = kKFlag | kMaxWeightFlag,
};

/// One command line: the positionals after the command word(s), the flag
/// values, and what main() resolved from them (family, n, seed).
struct Invocation {
  std::vector<const char*> pos;
  unsigned given = 0;  ///< FlagGroup bits present on the command line
  IngestOptions ingest;
  AlgOptions alg;
  uint64_t at = UINT64_MAX;         ///< --at; MAX = half the stream
  uint32_t shards = 0;              ///< --shards
  uint32_t tenants = 0;             ///< --tenants
  const char* queries = nullptr;    ///< --queries script path; null = stdin
  const AlgInfo* info = nullptr;
  NodeId n = 0;
  uint64_t seed = 1;
};

/// One flag that takes a number. A value that does not parse, or is below
/// `least`, gets `needs`; one outside [lo, hi] gets `range` (or `needs`).
struct ValueFlag {
  const char* name;
  unsigned group;
  uint64_t least, lo, hi;
  const char* needs;
  const char* range;
  void (*set)(Invocation* a, uint64_t value);
};

const ValueFlag kValueFlags[] = {
    {"--max-weight", kMaxWeightFlag, 1, 1, uint64_t{1} << 32,
     "needs an integer in [1, 2^32]", nullptr,
     [](Invocation* a, uint64_t v) {
       a->alg.max_weight = static_cast<int64_t>(v);
     }},
    {"--tenants", kTenantsFlag, 2, 2, 256, "needs an integer in [2, 256]",
     nullptr,
     [](Invocation* a, uint64_t v) {
       a->tenants = static_cast<uint32_t>(v);
     }},
    {"--at", kAtFlag, 0, 0, UINT64_MAX, "needs a non-negative integer",
     nullptr, [](Invocation* a, uint64_t v) { a->at = v; }},
    {"--k", kKFlag, 0, 1, 1024, "needs a non-negative integer",
     "must be in [1, 1024]",
     [](Invocation* a, uint64_t v) { a->alg.k = static_cast<uint32_t>(v); }},
    // Shard counts share the thread ceiling (each shard gets a thread).
    {"--shards", kShardsFlag, 0, 2, 256, "needs a non-negative integer",
     "must be in [2, 256]",
     [](Invocation* a, uint64_t v) { a->shards = static_cast<uint32_t>(v); }},
    // More workers than this is never useful and protects against typo'd
    // thread counts exhausting the process's thread limit.
    {"--threads", kIngestFlags, 1, 1, 256, "needs a positive integer",
     "must be <= 256",
     [](Invocation* a, uint64_t v) {
       a->ingest.threads = static_cast<uint32_t>(v);
     }},
    // At least one 12-byte entry per gutter; cap at 1 GiB/node.
    {"--gutter", kIngestFlags, kGutterEntryBytes, kGutterEntryBytes,
     uint64_t{1} << 30, "needs a byte count in [12, 2^30]", nullptr,
     [](Invocation* a, uint64_t v) { a->ingest.gutter = v; }},
};

/// Splits argv[2..] into flags (values into *a) and positionals. Prints
/// the diagnostic and returns false on a malformed or unknown flag.
bool ParseFlags(int argc, char** argv, Invocation* a) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--queries") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --queries needs a file path\n");
        return false;
      }
      a->queries = argv[++i];
      a->given |= kQueriesFlag;
      continue;
    }
    if (arg == "--progress") {
      a->ingest.progress = true;
      a->given |= kIngestFlags;
      continue;
    }
    const ValueFlag* flag = nullptr;
    for (const ValueFlag& f : kValueFlags) {
      if (arg == f.name) flag = &f;
    }
    if (flag == nullptr) {
      if (arg.rfind("--", 0) == 0) {
        std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
        return false;
      }
      a->pos.push_back(argv[i]);
      continue;
    }
    uint64_t value = 0;
    if (i + 1 >= argc || !ParseU64(argv[i + 1], &value) ||
        value < flag->least) {
      std::fprintf(stderr, "error: %s %s\n", flag->name, flag->needs);
      return false;
    }
    if (value < flag->lo || value > flag->hi) {
      std::fprintf(stderr, "error: %s %s\n", flag->name,
                   flag->range != nullptr ? flag->range : flag->needs);
      return false;
    }
    ++i;
    flag->set(a, value);
    a->given |= flag->group;
  }
  return true;
}

/// Parses the `<pos> <query>` tail of a script line, 'end' reading as
/// UINT64_MAX: false on a malformed position. `*query` is the rest of the
/// line without leading blanks, possibly empty.
bool ParseScriptQuery(std::istringstream& ss, uint64_t* pos,
                      std::string* query) {
  std::string pos_tok;
  ss >> pos_tok;
  if (pos_tok == "end") {
    *pos = UINT64_MAX;
  } else if (!ParseU64(pos_tok.c_str(), pos)) {
    return false;
  }
  std::getline(ss, *query);
  size_t start = query->find_first_not_of(" \t");
  *query = start == std::string::npos ? std::string() : query->substr(start);
  return true;
}

/// Runs `parse(std::istream&, const char* name)` over the --queries file,
/// or over stdin when it is '-' or not given.
template <typename Parse>
bool ParseScript(const char* path, Parse&& parse) {
  if (path == nullptr || IsStdio(path)) return parse(std::cin, "<stdin>");
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path);
    return false;
  }
  return parse(in, path);
}

// ------------------------------------------------------------ runners --

/// THE driver-setup path: feeds updates [from, to) of `in` into `*alg`
/// through the batched parallel driver. Every command (run, checkpoint,
/// resume) funnels through here — the historical per-command copies
/// collapsed into this one function. GSKB files are streamed from disk in
/// constant memory (records before `from` are read and discarded; the
/// format has no index); text streams and stdin arrive preloaded.
/// Algorithms that are not endpoint-sharded ingest on one worker
/// regardless of --threads.
bool IngestStreamRange(LinearSketch* alg, StreamInput& in, NodeId n,
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

  // Records before `from` are read and discarded; records past `to` are
  // never read.
  uint64_t index = 0;
  bool ok = ForEachUpdate(in, n, to, [&](const EdgeUpdate& e) {
    if (index++ >= from) driver.Push(e.u, e.v, e.delta);
  });
  driver.Drain();
  if (tracker.has_value()) tracker->Stop();
  return ok;
}

/// One registered algorithm over one whole stream: make, ingest, answer.
/// Positionals: <n> <stream-file> [seed].
int RunRegistered(const Invocation& a) {
  StreamInput in;
  if (!OpenStream(a.pos[1], a.n, &in)) return kExitRuntime;
  auto sk = a.info->make(a.n, a.alg, a.seed);
  if (!IngestStreamRange(sk.get(), in, a.n, 0, in.total, a.ingest)) {
    return kExitRuntime;
  }
  sk->PrintAnswer(stdout);
  return 0;
}

// --------------------------------------------------------------- serve --

/// One scripted query: answer `text` against a snapshot that reflects
/// exactly `pos` of its session's stream tokens.
struct ServeQuery {
  uint64_t pos = 0;
  std::string text;
};

/// Refusal for '-' as a GSKT path: the tagged-trace codec reads and
/// writes seekable files only.
constexpr char kGsktNoStdio[] =
    "error: a GSKT trace cannot be read from stdin or written to stdout; "
    "name a file\n";

/// The serve front end both commands share, checked before stdin is read:
/// '-' names stdin for the stream and for --queries (no --queries reads
/// the script from stdin too), stdin can feed only one of the two, and a
/// GSKT trace (`gskt`) has no stdin path. Prints the refusal.
bool ServeInputsOk(const char* stream, const char* queries, bool gskt) {
  if (!IsStdio(stream)) return true;
  if (gskt) {
    std::fputs(kGsktNoStdio, stderr);
  } else if (queries == nullptr || IsStdio(queries)) {
    std::fputs(
        "error: the stream and the query script cannot both come from "
        "stdin; give the script with --queries FILE\n",
        stderr);
  } else {
    return true;
  }
  return false;
}

/// Parses a serve query script: one "<pos> <query...>" per line ("end" as
/// the position means end of stream), '#' comments and blank lines
/// skipped. Positions past the stream clamp to its end.
bool ParseQueryScript(std::istream& in, const char* name, uint64_t total,
                      std::vector<ServeQuery>* out) {
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    ServeQuery q;
    if (!ParseScriptQuery(ss, &q.pos, &q.text)) {
      std::fprintf(stderr,
                   "error: %s:%zu: expected '<pos> <query>' (or 'end "
                   "<query>'), got '%s'\n",
                   name, lineno, line.c_str());
      return false;
    }
    q.pos = std::min(q.pos, total);
    if (q.text.empty()) {
      std::fprintf(stderr, "error: %s:%zu: position %llu has no query\n",
                   name, lineno, static_cast<unsigned long long>(q.pos));
      return false;
    }
    out->push_back(std::move(q));
  }
  return true;
}

/// A session as every serve run configures it: the command line's n,
/// seed, family knobs and gutter size, and the eager forest for the
/// families whose answers it can serve exactly (insert-only prefixes; it
/// hands over to the sketch on the first deletion it cannot absorb).
SessionConfig ServeSessionConfig(const Invocation& a, const AlgInfo& info) {
  SessionConfig cfg;
  cfg.num_nodes = a.n;
  cfg.seed = a.seed;
  cfg.options = a.alg;
  cfg.gutter_bytes = a.ingest.gutter;
  cfg.eager_connectivity = EagerCutServes(info.tag);
  return cfg;
}

/// One session a serve run feeds, with its answer label (empty for
/// single-graph serve) and its scripted queries.
struct ServeLane {
  SketchSession* session = nullptr;
  std::string label;
  std::vector<ServeQuery> queries;  ///< position order once serving
  size_t next = 0;                  ///< first query not yet submitted
  uint64_t pushed = 0;              ///< this session's tokens so far
};

/// What a serve run did, for its closing stderr summary.
struct ServeStats {
  bool ok = true;          ///< the feed read its whole input
  uint64_t tokens = 0;     ///< pushed, over every lane
  uint64_t snapshots = 0;  ///< captures published
  SnapshotTiming sum{};    ///< accumulated drain/publish time
  SnapshotTiming peak{};   ///< per-snapshot maxima
  uint64_t answered = 0, errors = 0, eager = 0;
};

/// THE serve loop, for one session or many. `feed(push)` calls
/// push(lane, u, v, delta) once per stream token and returns false on a
/// read failure. Before each token the loop serves the boundary the
/// token's lane stands at, if a query is scripted there: it publishes ONE
/// capture — a COW page-table fork at a drain barrier — that every query
/// scripted at that position shares, and a QueryEngine thread answers
/// those pinned queries WHILE ingestion continues; the capture lives only
/// as long as they do. At the end each lane drains and serves its
/// end-of-stream boundary. Every answer is prefixed with the position it
/// reflects, and linearity makes it byte-identical to stopping that
/// session's ingestion there and querying.
template <typename Feed>
ServeStats ServeLanes(SessionManager* manager, std::vector<ServeLane>* lanes,
                      const Invocation& a, uint64_t total, Feed&& feed) {
  for (ServeLane& l : *lanes) {
    std::stable_sort(l.queries.begin(), l.queries.end(),
                     [](const ServeQuery& x, const ServeQuery& y) {
                       return x.pos < y.pos;
                     });
  }
  ServeStats st;
  QueryEngine engine(nullptr, stdout);
  std::optional<InsertionTracker> tracker;
  if (a.ingest.progress) {
    const uint32_t workers = manager->pipeline().num_workers();
    std::fprintf(stderr, "progress: %u worker%s\n", workers,
                 workers == 1 ? "" : "s");
    tracker.emplace(total, [lanes] {
      uint64_t halves = 0;
      for (const ServeLane& l : *lanes) halves += l.session->applied_halves();
      return halves / 2;
    });
  }
  auto serve_boundary = [&](ServeLane& l) {
    if (l.next == l.queries.size() || l.queries[l.next].pos != l.pushed) {
      return;
    }
    SnapshotTiming timing;
    auto snap = l.session->Publish(&timing);
    ++st.snapshots;
    st.sum.drain_ms += timing.drain_ms;
    st.sum.publish_ms += timing.publish_ms;
    st.peak.drain_ms = std::max(st.peak.drain_ms, timing.drain_ms);
    st.peak.publish_ms = std::max(st.peak.publish_ms, timing.publish_ms);
    if (a.ingest.progress) {
      std::fprintf(stderr, "snapshot %s@%llu: drain %.3f ms, publish %.3f ms\n",
                   l.label.c_str(), static_cast<unsigned long long>(l.pushed),
                   timing.drain_ms, timing.publish_ms);
    }
    while (l.next < l.queries.size() && l.queries[l.next].pos == l.pushed) {
      engine.Submit(l.label, std::move(l.queries[l.next].text), snap);
      ++l.next;
    }
  };
  st.ok = feed([&](uint32_t lane, NodeId u, NodeId v, int64_t delta) {
    ServeLane& l = (*lanes)[lane];
    serve_boundary(l);
    l.session->Push(u, v, delta);
    ++l.pushed;
    ++st.tokens;
  });
  for (ServeLane& l : *lanes) {
    l.session->Drain();
    if (st.ok) serve_boundary(l);  // end-of-stream queries
  }
  engine.Finish();
  if (tracker.has_value()) tracker->Stop();
  st.answered = engine.answered();
  st.errors = engine.errors();
  st.eager = engine.eager_answered();
  return st;
}

/// serve: query-while-ingest over one graph, run as one unlabeled session
/// through ServeLanes. Positionals: <alg> <n> <stream> [seed].
int RunServe(const Invocation& a) {
  if (!ServeInputsOk(a.pos[2], a.queries, false)) return kExitUsage;
  StreamInput in;
  if (!OpenStream(a.pos[2], a.n, &in)) return kExitRuntime;
  const uint64_t total = in.total;
  std::vector<ServeLane> lanes(1);
  if (!ParseScript(a.queries, [&](std::istream& s, const char* name) {
        return ParseQueryScript(s, name, total, &lanes[0].queries);
      })) {
    return kExitRuntime;
  }

  PipelineOptions popt;
  popt.num_workers = a.ingest.threads;
  SessionManager manager(popt);
  std::string error;
  lanes[0].session =
      manager.Create("", a.info->name, ServeSessionConfig(a, *a.info), &error);
  if (lanes[0].session == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitRuntime;
  }
  const ServeStats st =
      ServeLanes(&manager, &lanes, a, total, [&](auto&& push) {
        return ForEachUpdate(in, a.n, total, [&](const EdgeUpdate& e) {
          push(0, e.u, e.v, e.delta);
        });
      });
  std::fprintf(stderr,
               "served %llu queries (%llu errors) from %llu snapshots over "
               "%llu updates\n",
               static_cast<unsigned long long>(st.answered),
               static_cast<unsigned long long>(st.errors),
               static_cast<unsigned long long>(st.snapshots),
               static_cast<unsigned long long>(st.tokens));
  if (st.snapshots > 0) {
    std::fprintf(
        stderr,
        "snapshot timing: drain %.3f ms total (max %.3f), publish %.3f ms "
        "total (max %.3f); %llu eager answers\n",
        st.sum.drain_ms, st.peak.drain_ms, st.sum.publish_ms,
        st.peak.publish_ms, static_cast<unsigned long long>(st.eager));
  }
  return st.ok ? 0 : kExitRuntime;
}

// ---------------------------------------------------- serve (multi) --

/// One `open` line of a multi-graph serve script: session `name` runs
/// family `alg`, bound to the NEXT tenant tag of the trace in open order
/// (first open = tenant 0).
struct MultiOpen {
  std::string name;
  std::string alg;
};

/// Parses a multi-graph serve script: `open <name> <alg>` lines and
/// `@<name> <pos> <query>` lines ('#' comments and blanks skipped; 'end'
/// as a position means that session's end of stream). A
/// query's position counts ITS session's own stream tokens — the position
/// a solo run of that tenant would script, so answers diff against solo
/// references modulo the `<name>` prefix.
bool ParseMultiScript(
    std::istream& in, const char* fname, std::vector<MultiOpen>* opens,
    std::vector<std::pair<std::string, ServeQuery>>* queries) {
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
      if (!(ss >> open.name >> open.alg) || ss >> extra) {
        std::fprintf(stderr,
                     "error: %s:%zu: expected 'open <name> <alg>', got "
                     "'%s'\n",
                     fname, lineno, line.c_str());
        return false;
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
      ServeQuery q;
      if (!ParseScriptQuery(ss, &q.pos, &q.text)) {
        std::fprintf(stderr,
                     "error: %s:%zu: expected '@<name> <pos> <query>' "
                     "(or '@<name> end <query>'), got '%s'\n",
                     fname, lineno, line.c_str());
        return false;
      }
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
/// gutters/snapshots/answers — and ServeLanes serves them all. Every
/// answer line is `<name>@<pos> <query> => ...` where pos is the
/// SESSION's own stream position, so each tenant's answers are
/// byte-identical (modulo the name prefix) to a solo serve of that
/// tenant's stream — the isolation invariant CI diffs.
/// Positionals (after `multi`): <n> <trace.gskt> [seed].
int RunServeMulti(const Invocation& a) {
  const char* trace_path = a.pos[1];
  if (!ServeInputsOk(trace_path, a.queries, true)) return kExitUsage;
  std::vector<MultiOpen> opens;
  std::vector<std::pair<std::string, ServeQuery>> scripted;
  if (!ParseScript(a.queries, [&](std::istream& s, const char* name) {
        return ParseMultiScript(s, name, &opens, &scripted);
      })) {
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
  if (reader.nodes() != a.n) {
    std::fprintf(stderr,
                 "error: %s declares n=%u but the command line says n=%u\n",
                 trace_path, reader.nodes(), a.n);
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

  // One lane per tenant, labeled with its session name (open order IS
  // tag order); each query joins its session's lane, position clamped.
  std::vector<ServeLane> lanes(tenants);
  std::map<std::string, uint32_t> by_name;
  for (uint32_t t = 0; t < tenants; ++t) {
    if (!by_name.emplace(opens[t].name, t).second) {
      std::fprintf(stderr, "error: session '%s' opened twice\n",
                   opens[t].name.c_str());
      return kExitRuntime;
    }
    lanes[t].label = opens[t].name;
  }
  for (auto& [name, q] : scripted) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      std::fprintf(stderr, "error: query names unopened session '%s'\n",
                   name.c_str());
      return kExitRuntime;
    }
    q.pos = std::min(q.pos, tenant_total[it->second]);
    lanes[it->second].queries.push_back(std::move(q));
  }

  PipelineOptions popt;
  popt.num_workers = a.ingest.threads;
  SessionManager manager(popt);
  for (uint32_t t = 0; t < tenants; ++t) {
    const AlgInfo* info = FindAlg(opens[t].alg);
    if (info == nullptr) {
      std::fprintf(stderr, "error: unknown open alg '%s' (want %s)\n",
                   opens[t].alg.c_str(), RegistryNameList(", ").c_str());
      return kExitRuntime;
    }
    std::string error;
    lanes[t].session = manager.Create(opens[t].name, opens[t].alg,
                                      ServeSessionConfig(a, *info), &error);
    if (lanes[t].session == nullptr) {
      std::fprintf(stderr, "error: open %s: %s\n", opens[t].name.c_str(),
                   error.c_str());
      return kExitRuntime;
    }
  }

  const ServeStats st = ServeLanes(
      &manager, &lanes, a, trace.size(), [&](auto&& push) {
        for (const auto& e : trace) push(e.tenant, e.u, e.v, e.delta);
        return true;
      });
  std::fprintf(stderr,
               "served %llu queries (%llu errors) from %llu snapshots "
               "over %llu updates across %u sessions (%zu bytes hosted)\n",
               static_cast<unsigned long long>(st.answered),
               static_cast<unsigned long long>(st.errors),
               static_cast<unsigned long long>(st.snapshots),
               static_cast<unsigned long long>(st.tokens), tenants,
               manager.TotalMemoryBytes());
  if (st.snapshots > 0) {
    std::fprintf(stderr,
                 "snapshot timing: drain %.3f ms total, publish %.3f ms "
                 "total; %llu eager answers\n",
                 st.sum.drain_ms, st.sum.publish_ms,
                 static_cast<unsigned long long>(st.eager));
  }
  return 0;
}

/// Positionals: <alg> <n> <stream-file> <out.gskc> [seed].
int RunCheckpoint(const Invocation& a) {
  const char* out_path = a.pos[3];
  StreamInput in;
  if (!OpenStream(a.pos[2], a.n, &in)) return kExitRuntime;
  const uint64_t total = in.total;
  uint64_t at = a.at == UINT64_MAX ? total / 2 : a.at;
  if (at > total) {
    std::fprintf(stderr,
                 "error: --at %llu exceeds the stream's %llu updates\n",
                 static_cast<unsigned long long>(at),
                 static_cast<unsigned long long>(total));
    return kExitRuntime;
  }

  std::string error;
  auto sk = a.info->make(a.n, a.alg, a.seed);
  if (!IngestStreamRange(sk.get(), in, a.n, 0, at, a.ingest) ||
      !SaveCheckpoint(out_path, *sk, at, &error)) {
    if (!error.empty()) std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitRuntime;
  }
  std::fprintf(stderr, "checkpointed %s after %llu/%llu updates to %s\n",
               a.info->name, static_cast<unsigned long long>(at),
               static_cast<unsigned long long>(total), out_path);
  return 0;
}

/// Positionals: <stream-file> <in.gskc>.
int RunResume(const Invocation& a) {
  const char* stream_path = a.pos[0];
  const char* ckpt_path = a.pos[1];
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
  StreamInput in;
  if (!OpenStream(stream_path, n, &in)) return kExitRuntime;
  const uint64_t total = in.total;
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
  if (!IngestStreamRange(sk.get(), in, n, ckpt->stream_pos, total,
                         a.ingest)) {
    return kExitRuntime;
  }
  sk->PrintAnswer(stdout);
  return 0;
}

/// shard: sketch S disjoint stream shards independently (update i goes to
/// shard i mod S), one thread per shard, and write one GSKC per shard.
/// `merge` over the outputs reproduces the single-stream sketch exactly.
/// Positionals: <alg> <n> <stream-file> <out-prefix> [seed].
int RunShard(const Invocation& a) {
  const char* stream_path = a.pos[2];
  const char* out_prefix = a.pos[3];
  const uint32_t shards = a.shards;
  StreamInput in;
  if (!OpenStream(stream_path, a.n, &in)) return kExitRuntime;

  std::vector<std::unique_ptr<LinearSketch>> sketches(shards);
  std::vector<uint64_t> counts(shards, 0);
  std::vector<std::string> errors(shards);
  std::vector<std::thread> workers;
  workers.reserve(shards);
  for (uint32_t j = 0; j < shards; ++j) {
    workers.emplace_back([&, j] {
      // Each site owns a private, identically constructed sketch and its
      // own pass over the stream — no shared mutable state between sites.
      auto sk = a.info->make(a.n, a.alg, a.seed);
      uint64_t index = 0;
      auto take = [&](const EdgeUpdate& e) {
        if (index++ % shards == j) {
          sk->Update(e.u, e.v, e.delta);
          ++counts[j];
        }
      };
      if (in.preloaded.has_value()) {
        for (const auto& e : in.preloaded->Updates()) take(e);
      } else {
        BinaryStreamReader reader(stream_path);
        errors[j] = ReadBinaryUpdates(reader, a.n, kWholeStream, take);
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
               a.info->name, shards, static_cast<unsigned long long>(in.total),
               out_prefix);
  return 0;
}

/// merge: add GSKC sketches (all the same algorithm, identically
/// constructed) into one checkpoint whose stream position is the total.
/// Positionals: <out.gskc> <in1.gskc> <in2.gskc> [...].
int RunMerge(const Invocation& a) {
  if (a.pos.size() < 3) {
    std::fprintf(stderr,
                 "error: merge needs <out.gskc> and at least two inputs\n");
    return kExitUsage;
  }
  const char* out_path = a.pos[0];
  std::string error;
  std::unique_ptr<LinearSketch> acc;
  uint64_t stream_pos = 0;
  uint32_t flags = 0;
  for (size_t i = 1; i < a.pos.size(); ++i) {
    const char* in_path = a.pos[i];
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
               a.pos.size() - 1, AlgTagName(acc->Tag()),
               static_cast<unsigned long long>(stream_pos), out_path);
  return 0;
}

/// Positionals: <in.gskc>.
int RunInspect(const Invocation& a) {
  const char* path = a.pos[0];
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

/// The remaining stream commands replay an in-memory stream (multi-pass
/// or whole-stream algorithms); parallel ingestion does not apply.
/// Positionals: <n> <stream-file> [seed].
int RunSpanner(const Invocation& a) {
  DynamicGraphStream stream(a.n);
  if (!LoadAnyStream(a.pos[1], a.n, &stream)) return kExitRuntime;
  BaswanaSenOptions opt;
  opt.k = 3;
  BaswanaSenSpanner sp(a.n, opt, a.seed);
  sp.Run(stream);
  Graph g = stream.Materialize();
  auto stats = CheckSpanner(g, sp.Spanner(), 0, a.seed);
  std::printf("# spanner: %zu edges, %u passes, stretch %.2f (bound %.0f)\n",
              sp.Spanner().NumEdges(), sp.NumPasses(), stats.max_stretch,
              sp.StretchBound());
  for (const auto& e : sp.Spanner().Edges()) {
    std::printf("%u %u\n", e.u, e.v);
  }
  return 0;
}

/// Positionals: <n> <stream-file> [seed].
int RunStats(const Invocation& a) {
  DynamicGraphStream stream(a.n);
  if (!LoadAnyStream(a.pos[1], a.n, &stream)) return kExitRuntime;
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
              a.n, stream.Size(), inserts, deletes, g.NumEdges(),
              g.NumComponents());
  return 0;
}

/// A GSKB writer for `path`, or for stdout when it is '-'. Stdout may be
/// a pipe, which cannot seek back to patch the header: that writer holds
/// the stream until Close() and writes the header with its final count
/// first.
std::unique_ptr<BinaryStreamWriter> GskbWriter(const char* path, NodeId n) {
  if (IsStdio(path)) return std::make_unique<BinaryStreamWriter>(stdout, n);
  return std::make_unique<BinaryStreamWriter>(path, n);
}

/// convert: text -> GSKB binary, or (when the bytes read are already
/// binary) binary -> text, so `convert; convert` round-trips a stream.
/// '-' reads stdin or writes stdout. Positionals: <n> <input> <output>.
int RunConvert(const Invocation& a) {
  const NodeId n = a.n;
  const char* in_name = IsStdio(a.pos[1]) ? "<stdin>" : a.pos[1];
  const char* out_path = a.pos[2];
  const char* out_name = IsStdio(out_path) ? "<stdout>" : out_path;
  DynamicGraphStream stream(n);
  bool to_text = false;
  if (!LoadAnyStream(a.pos[1], n, &stream, &to_text)) return kExitRuntime;

  if (to_text) {
    std::FILE* out = IsStdio(out_path) ? stdout : std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n", out_path);
      return kExitRuntime;
    }
    std::fprintf(out, "# converted from %s (n=%u, %zu updates)\n", in_name,
                 n, stream.Size());
    for (const auto& e : stream.Updates()) {
      std::fprintf(out, "%u %u %lld\n", e.u, e.v,
                   static_cast<long long>(e.delta));
    }
    if ((out == stdout ? std::fflush(out) : std::fclose(out)) != 0) {
      std::fprintf(stderr, "error: write to %s failed\n", out_name);
      return kExitRuntime;
    }
    std::fprintf(stderr, "wrote %zu updates (text) to %s\n", stream.Size(),
                 out_name);
    return 0;
  }
  auto w = GskbWriter(out_path, n);
  for (const auto& e : stream.Updates()) w->Append(e);
  uint64_t records = w->updates_written();
  if (!w->Close()) {
    std::fprintf(stderr, "error: write to %s failed\n", out_name);
    return kExitRuntime;
  }
  // Wide deltas split into several i32 wire records, so the file can
  // legitimately hold more records than the input had updates.
  if (records != stream.Size()) {
    std::fprintf(stderr,
                 "wrote %zu updates as %llu wire records (GSKB binary, "
                 "wide deltas split) to %s\n",
                 stream.Size(), static_cast<unsigned long long>(records),
                 out_name);
  } else {
    std::fprintf(stderr, "wrote %zu updates (GSKB binary) to %s\n",
                 stream.Size(), out_name);
  }
  return 0;
}

bool ParseUpdateCount(const char* arg, uint64_t* updates) {
  if (ParseU64(arg, updates) && *updates != 0 &&
      *updates <= (uint64_t{1} << 40)) {
    return true;
  }
  std::fprintf(stderr, "error: updates must be an integer in [1, 2^40]\n");
  return false;
}

/// gen: deterministic workload generation to GSKB binary. `out_path` "-"
/// streams the bytes to stdout so a differential repro is one pipeline:
///   gsketch gen churn 64 2000 - 7 | gsketch connectivity 64 -
/// Positionals: <profile> <n> <updates> <out.gskb> [seed].
int RunGen(const Invocation& a) {
  uint64_t updates = 0;
  if (!ParseUpdateCount(a.pos[2], &updates)) return kExitUsage;
  const WorkloadProfile* profile = FindWorkloadProfile(a.pos[0]);
  if (profile == nullptr) {
    std::fprintf(stderr, "error: unknown gen profile '%s' (want %s)\n",
                 a.pos[0], WorkloadProfileNameList().c_str());
    return kExitUsage;
  }
  DynamicGraphStream stream =
      profile->generate(a.n, static_cast<size_t>(updates), a.seed);
  auto w = GskbWriter(a.pos[3], a.n);
  for (const auto& e : stream.Updates()) w->Append(e);
  uint64_t records = w->updates_written();
  if (!w->Close()) {
    std::fprintf(stderr, "error: write to %s failed\n",
                 IsStdio(a.pos[3]) ? "stdout" : a.pos[3]);
    return kExitRuntime;
  }
  WorkloadStats stats = ComputeWorkloadStats(stream);
  std::fprintf(stderr,
               "gen %s: n=%u seed=%llu, %zu updates (%zu ins, %zu del) -> "
               "%llu wire records, %zu final edges, %zu cancelled to 0\n",
               profile->name, a.n, static_cast<unsigned long long>(a.seed),
               stream.Size(), stats.insert_tokens, stats.delete_tokens,
               static_cast<unsigned long long>(records), stats.final_edges,
               stats.zeroed_edges);
  return 0;
}

/// gen multi: K tenants' churn streams interleaved into one GSKT tagged
/// trace. Tenant k's subsequence is exactly `gen churn <n> <u_k> ...
/// <seed+k>` (see GenerateMultiTenantTrace), so solo references for a
/// co-hosted run are one `gen churn` command per tenant.
/// Positionals (after `multi`): <n> <updates> <out.gskt> [seed].
int RunGenMulti(const Invocation& a) {
  uint64_t updates = 0;
  if (!ParseUpdateCount(a.pos[1], &updates)) return kExitUsage;
  const char* out_path = a.pos[2];
  if (IsStdio(out_path)) {
    std::fputs(kGsktNoStdio, stderr);
    return kExitUsage;
  }
  const uint32_t tenants = a.tenants;
  std::vector<TaggedUpdate> trace = GenerateMultiTenantTrace(
      a.n, static_cast<size_t>(updates), tenants, a.seed);
  TaggedStreamWriter w(out_path, a.n, tenants);
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
               a.n, static_cast<unsigned long long>(a.seed), trace.size(),
               tenants, split.c_str(),
               static_cast<unsigned long long>(records));
  return 0;
}

// ------------------------------------------------------ command table --

constexpr int kNoArg = -1;
/// alg_at value of the family row: the command word names the family.
constexpr int kCommandWord = -2;
constexpr size_t kAnyCount = SIZE_MAX;

/// One command. main() checks, in order: the flags the row refuses, the
/// flag it requires, the positional arity (usage text on a mismatch), the
/// family (whose AlgInfo then refuses --k, --max-weight or the ingest
/// flags it cannot use), <n> and the optional trailing seed; then runs.
struct Command {
  const char* name;  ///< "serve multi" matches `serve multi ...`
  size_t min_args, max_args;  ///< positionals after the command word(s)
  int alg_at;                 ///< positional naming the family, or kNoArg
  int n_at;                   ///< positional holding <n>, or kNoArg
  bool seed;                  ///< the optional last positional is a seed
  unsigned accepts;           ///< FlagGroup bits
  unsigned required;          ///< FlagGroup bit that must be given, or 0
  const char* required_usage; ///< e.g. "--shards S"
  /// Refusal of the ingest flags when this row refuses them; null = the
  /// default (they apply only to the sharded families and serve,
  /// checkpoint and resume).
  const char* ingest_refusal;
  int (*run)(const Invocation&);
};

const Command kCommands[] = {
    {"serve multi", 2, 3, kNoArg, 0, true, kIngestFlags | kQueriesFlag, 0,
     nullptr, nullptr, RunServeMulti},
    {"serve", 3, 4, 0, 1, true, kIngestFlags | kQueriesFlag | kAlgFlags, 0,
     nullptr, nullptr, RunServe},
    {"checkpoint", 4, 5, 0, 1, true, kIngestFlags | kAtFlag | kAlgFlags, 0,
     nullptr, nullptr, RunCheckpoint},
    {"resume", 2, 2, kNoArg, kNoArg, false, kIngestFlags, 0, nullptr,
     nullptr, RunResume},
    {"shard", 4, 5, 0, 1, true, kShardsFlag | kAlgFlags, kShardsFlag,
     "--shards S",
     "--threads/--gutter/--progress apply only to per-stream ingestion; "
     "shard parallelism comes from --shards",
     RunShard},
    {"merge", 0, kAnyCount, kNoArg, kNoArg, false, 0, 0, nullptr, nullptr,
     RunMerge},
    {"inspect", 1, 1, kNoArg, kNoArg, false, 0, 0, nullptr, nullptr,
     RunInspect},
    {"gen multi", 3, 4, kNoArg, 0, true, kTenantsFlag, kTenantsFlag,
     "--tenants K", "gen takes no options", RunGenMulti},
    {"gen", 4, 5, kNoArg, 1, true, 0, 0, nullptr, "gen takes no options",
     RunGen},
    {"convert", 3, 3, kNoArg, 0, false, 0, 0, nullptr,
     "convert takes no options", RunConvert},
    {"spanner", 2, 3, kNoArg, 0, true, 0, 0, nullptr, nullptr, RunSpanner},
    {"stats", 2, 3, kNoArg, 0, true, 0, 0, nullptr, nullptr, RunStats},
    // Every registered family: `gsketch <alg> <n> <stream-file> [seed]`.
    {nullptr, 2, 3, kCommandWord, 0, true, kIngestFlags | kAlgFlags, 0,
     nullptr, nullptr, RunRegistered},
};

/// The row for `cmd`, consuming a leading `multi` positional for the
/// two-word rows; null for an unknown command.
const Command* FindCommand(const std::string& cmd,
                           std::vector<const char*>* pos) {
  const bool multi = !pos->empty() && std::strcmp((*pos)[0], "multi") == 0;
  for (const Command& c : kCommands) {
    if (c.name == nullptr) {
      if (FindAlg(cmd) != nullptr) return &c;
    } else if (multi && c.name == cmd + " multi") {
      pos->erase(pos->begin());
      return &c;
    } else if (c.name == cmd) {
      return &c;
    }
  }
  return nullptr;
}

/// Prints the first refusal among the flags `a` gives that the row — and,
/// once known, the family — cannot use. True if it refused one.
bool RefuseFlags(const Command& c, const Invocation& a) {
  unsigned accepts = c.accepts;
  if (a.info != nullptr) {
    if (!a.info->uses_k) accepts &= ~kKFlag;
    if (a.info->tag != AlgTag::kWeightedSparsify) accepts &= ~kMaxWeightFlag;
    if (!a.info->endpoint_sharded) accepts &= ~kIngestFlags;
  }
  const unsigned refused = a.given & ~accepts;
  std::string why;
  if (refused & kAtFlag) {
    why = "--at applies only to checkpoint";
  } else if (refused & kShardsFlag) {
    why = "--shards applies only to shard";
  } else if (refused & kQueriesFlag) {
    why = "--queries applies only to serve";
  } else if (refused & kTenantsFlag) {
    why = "--tenants applies only to gen multi";
  } else if (refused & kKFlag) {
    why = "--k applies only to " + KAlgNameList();
  } else if (refused & kMaxWeightFlag) {
    why = "--max-weight applies only to wsparsify";
  } else if (refused & kIngestFlags) {
    why = c.ingest_refusal != nullptr
              ? c.ingest_refusal
              : "--threads/--gutter/--progress apply only to " +
                    ShardedAlgNameList() + ", serve, checkpoint, and resume";
  } else {
    return false;
  }
  std::fprintf(stderr, "error: %s\n", why.c_str());
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
  Invocation a;
  if (!ParseFlags(argc, argv, &a)) return kExitUsage;
  const Command* c = FindCommand(cmd, &a.pos);
  if (c == nullptr) {
    std::fprintf(stderr, "error: unknown command '%s'\n", cmd.c_str());
    PrintUsage(stderr, argv[0]);
    return kExitUsage;
  }
  if (RefuseFlags(*c, a)) return kExitUsage;
  if ((a.given & c->required) != c->required) {
    std::fprintf(stderr, "error: %s requires %s\n", c->name,
                 c->required_usage);
    return kExitUsage;
  }
  if (a.pos.size() < c->min_args || a.pos.size() > c->max_args) {
    PrintUsage(stderr, argv[0]);
    return kExitUsage;
  }
  if (c->alg_at != kNoArg) {
    const char* alg = c->alg_at == kCommandWord ? argv[1] : a.pos[c->alg_at];
    a.info = FindAlg(alg);
    if (a.info == nullptr) {
      std::fprintf(stderr, "error: unknown %s alg '%s' (want %s)\n", c->name,
                   alg, RegistryNameList(", ").c_str());
      return kExitUsage;
    }
    if (RefuseFlags(*c, a)) return kExitUsage;
  }
  if (c->n_at != kNoArg) {
    uint64_t n = 0;
    if (!ParseU64(a.pos[c->n_at], &n) || n < 2 || n > (1 << 24)) {
      std::fprintf(stderr, "error: n must be an integer in [2, 2^24]\n");
      return kExitUsage;
    }
    a.n = static_cast<NodeId>(n);
  }
  if (c->seed && a.pos.size() == c->max_args &&
      !ParseU64(a.pos.back(), &a.seed)) {
    std::fprintf(stderr, "error: seed must be a non-negative integer\n");
    return kExitUsage;
  }
  return c->run(a);
}
