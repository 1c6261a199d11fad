// Transcript tests for gsketch_cli. Each case runs the built binary (its
// path is fixed at configure time) in a fresh temporary directory and
// compares its exit code, its stdout and, where that is deterministic,
// its stderr with a fixed transcript. Serve's timing summary and the
// --progress lines are never pinned. GSKB inputs are built here byte by
// byte, not with the codec under test.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#ifndef GSKETCH_CLI
#error "GSKETCH_CLI must name the gsketch_cli binary (see CMakeLists.txt)"
#endif
#ifndef GSKETCH_TEST_DATA_DIR
#error "GSKETCH_TEST_DATA_DIR must be defined (see CMakeLists.txt)"
#endif

namespace {

struct Outcome {
  int code = -1;
  std::string out;
  std::string err;
};

/// Stands for "stderr is not pinned" in EXPECT_RUN.
constexpr const char* kAnyErr = nullptr;

std::string RawLiteral(const std::string& s) { return "R\"(" + s + ")\""; }

::testing::AssertionResult RunMatches(const Outcome& r, int code,
                                      const std::string& out,
                                      const char* err) {
  if (r.code == code && r.out == out && (err == nullptr || r.err == err)) {
    return ::testing::AssertionSuccess();
  }
  // Printed as literals, so an intended change is pasted, not retyped.
  return ::testing::AssertionFailure()
         << "\n  exit " << r.code << " (want " << code << ")"
         << "\n  out " << RawLiteral(r.out) << "\n  err "
         << RawLiteral(r.err);
}

#define EXPECT_RUN(run, code, out, err) \
  EXPECT_TRUE(RunMatches((run), (code), (out), (err)))

std::string Le(uint64_t v, int bytes) {
  std::string s;
  for (int i = 0; i < bytes; ++i) {
    s.push_back(static_cast<char>(static_cast<uint8_t>(v >> (8 * i))));
  }
  return s;
}

struct Rec {
  uint32_t u, v;
  int32_t delta;
};

/// GSKB bytes: magic, version, n and a declared update count, then one
/// 12-byte record per entry of `recs`.
std::string Gskb(uint32_t n, const std::vector<Rec>& recs, uint64_t declared,
                 uint32_t version = 1) {
  std::string s = "GSKB" + Le(version, 4) + Le(n, 4) + Le(declared, 8);
  for (const Rec& r : recs) {
    s += Le(r.u, 4) + Le(r.v, 4) + Le(static_cast<uint32_t>(r.delta), 4);
  }
  return s;
}

// The family stream: a triangle with one edge deleted again, plus a path.
const char kStreamText[] =
    "# demo\n0 1 1\n1 2 1\n2 0 1\n3 4 1\n4 5 1\n1 2 -1\n";
const std::vector<Rec> kStreamRecs = {{0, 1, 1}, {1, 2, 1}, {2, 0, 1},
                                      {3, 4, 1}, {4, 5, 1}, {1, 2, -1}};

// The docs' demo stream at n = 4; its answer is one component.
const std::vector<Rec> kDemoRecs = {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}};

class Cli : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = ::testing::TempDir() + "/gsketch_cli_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
    // The binary runs as `gsketch` from PATH, so argv[0], and with it
    // the usage text, reads the same from every build tree.
    std::filesystem::create_directory(dir_ + "/bin");
    std::filesystem::create_symlink(GSKETCH_CLI, dir_ + "/bin/gsketch");
    Write("s.txt", kStreamText);
    Write("s.gskb", Gskb(6, kStreamRecs, kStreamRecs.size()));
    Write("demo.gskb", Gskb(4, kDemoRecs, kDemoRecs.size()));
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  void Write(const std::string& name, const std::string& bytes) {
    std::ofstream f(dir_ + "/" + name, std::ios::binary);
    f << bytes;
  }

  std::string Read(const std::string& name) const {
    std::ifstream f(dir_ + "/" + name, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
  }

  static std::string Data(const char* name) {
    std::ifstream f(std::string(GSKETCH_TEST_DATA_DIR) + "/" + name,
                    std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
  }

  /// Runs a shell command line (a `gsketch ...` call or a pipeline of
  /// them) in the case's directory with `in` on stdin.
  Outcome Sh(const std::string& cmd, const std::string& in = "") {
    Write(".stdin", in);
    std::string line = "cd '" + dir_ + "' && PATH='" + dir_ +
                       "/bin':\"$PATH\" && ( " + cmd +
                       " ) < .stdin > .stdout 2> .stderr";
    int status = std::system(line.c_str());
    Outcome r;
    r.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    r.out = Read(".stdout");
    r.err = Read(".stderr");
    return r;
  }

  std::string dir_;
};

const char kUsage[] = R"(usage: gsketch <algorithm> [options] <n> <stream-file> [seed]
       gsketch serve <alg> [options] <n> <stream-file> [seed]
       gsketch serve multi [options] <n> <trace.gskt> [seed]
       gsketch gen <profile> <n> <updates> <out.gskb> [seed]
       gsketch gen multi --tenants K <n> <updates> <out.gskt> [seed]
       gsketch convert <n> <input> <output>
       gsketch checkpoint <alg> [options] <n> <stream-file> <out.gskc> [seed]
       gsketch resume [options] <stream-file> <in.gskc>
       gsketch shard <alg> --shards S [options] <n> <stream-file> <out-prefix> [seed]
       gsketch merge <out.gskc> <in1.gskc> <in2.gskc> [...]
       gsketch inspect <in.gskc>

sketch algorithms (each also works as the <alg> of serve, checkpoint,
resume, shard, and merge):
)";

TEST_F(Cli, HelpAndUsage) {
  Outcome help = Sh("gsketch help");
  EXPECT_EQ(help.code, 0);
  EXPECT_EQ(help.out.rfind(kUsage, 0), 0u) << help.out;
  EXPECT_EQ(help.err, "");
  EXPECT_RUN(Sh("gsketch --help"), 0, help.out, "");
  EXPECT_RUN(Sh("gsketch -h"), 0, help.out, "");
  EXPECT_RUN(Sh("gsketch"), 2, "", help.out.c_str());
  EXPECT_RUN(Sh("gsketch frobnicate"), 2, "",
             ("error: unknown command 'frobnicate'\n" + help.out).c_str());
  EXPECT_RUN(Sh("gsketch connectivity 6"), 2, "", help.out.c_str());
}

struct FamilyAnswer {
  const char* family;
  const char* answer;  ///< on the family stream
  const char* empty;   ///< on an empty stream
};

const FamilyAnswer kFamilies[] = {
    {"connectivity", "components: 2\nconnected:  no\n",
     "components: 6\nconnected:  no\n"},
    {"bipartite", "bipartite: yes\n", "bipartite: yes\n"},
    {"mincut", "min cut: 0 (level 0)\none side (3 nodes): 0 2 1\n",
     "min cut: 0 (level 0)\none side (1 nodes): 0\n"},
    {"sparsify", "# sparsifier: 4 edges (k=9)\n0 2 1\n0 1 1\n3 4 1\n4 5 1\n",
     "# sparsifier: 0 edges (k=9)\n"},
    {"triangles",
     "gamma[single-edge] = 0.8750   (count estimate ~14)\n"
     "gamma[wedge      ] = 0.1250   (count estimate ~2)\n"
     "gamma[triangle   ] = 0.0000   (count estimate ~0)\n",
     "gamma[single-edge] = 0.0000   (count estimate ~0)\n"
     "gamma[wedge      ] = 0.0000   (count estimate ~0)\n"
     "gamma[triangle   ] = 0.0000   (count estimate ~0)\n"},
    {"kconnect", "witness min cut: 0\n3-connected: no\n",
     "witness min cut: 0\n3-connected: no\n"},
    {"kedge", "# witness: 4 edges (k=3)\n0 1 1\n0 2 1\n3 4 1\n4 5 1\n",
     "# witness: 0 edges (k=3)\n"},
    {"forest", "# forest: 4 edges, 2 components\n0 2 1\n0 1 1\n3 4 1\n4 5 1\n",
     "# forest: 0 edges, 6 components\n"},
    {"mst", "mst weight: 4\n", "mst weight: 0\n"},
    {"wsparsify",
     "# weighted sparsifier: 4 edges (2 classes)\n0 2 2\n0 1 2\n3 4 1\n"
     "4 5 2\n",
     "# weighted sparsifier: 0 edges (2 classes)\n"},
};

const char kIngestScope[] =
    "error: --threads/--gutter/--progress apply only to connectivity, "
    "bipartite, mincut, sparsify, kconnect, kedge, forest, mst, wsparsify, "
    "serve, checkpoint, and resume\n";

// Every family answers the same on a text file, a GSKB file and stdin
// (GSKB or text), and with or without parallel ingestion.
TEST_F(Cli, EveryFamilyOnEveryInput) {
  const std::string gskb = Read("s.gskb");
  for (const FamilyAnswer& f : kFamilies) {
    SCOPED_TRACE(f.family);
    const std::string cmd = std::string("gsketch ") + f.family + " 6 ";
    EXPECT_RUN(Sh(cmd + "s.txt"), 0, f.answer, "");
    EXPECT_RUN(Sh(cmd + "s.gskb"), 0, f.answer, "");
    for (const char* flags : {"", " --threads 2 --gutter 64"}) {
      SCOPED_TRACE(flags);
      const bool refused =
          *flags != '\0' && std::string(f.family) == "triangles";
      for (const std::string& in : {gskb, std::string(kStreamText)}) {
        if (refused) {
          EXPECT_RUN(Sh(cmd + "-" + flags, in), 2, "", kIngestScope);
        } else {
          EXPECT_RUN(Sh(cmd + "-" + flags, in), 0, f.answer, "");
        }
      }
      if (refused) {
        EXPECT_RUN(Sh(cmd + "-" + flags), 2, "", kIngestScope);
      } else {
        EXPECT_RUN(Sh(cmd + "-" + flags), 0, f.empty, "");
      }
    }
  }
}

TEST_F(Cli, ExplicitSeed) {
  EXPECT_RUN(Sh("gsketch forest 6 s.gskb 9"), 0,
             "# forest: 4 edges, 2 components\n0 1 1\n0 2 1\n3 4 1\n4 5 1\n",
             "");
}

TEST_F(Cli, ConvertBothWays) {
  EXPECT_RUN(Sh("gsketch convert 6 s.txt out.gskb"), 0, "",
             "wrote 6 updates (GSKB binary) to out.gskb\n");
  EXPECT_EQ(Read("out.gskb"), Read("s.gskb"));
  EXPECT_RUN(Sh("gsketch convert 6 s.gskb back.txt"), 0, "",
             "wrote 6 updates (text) to back.txt\n");
  EXPECT_EQ(Read("back.txt"),
            "# converted from s.gskb (n=6, 6 updates)\n0 1 1\n1 2 1\n2 0 1\n"
            "3 4 1\n4 5 1\n1 2 -1\n");
}

// '-' reads stdin or writes stdout, and the direction follows the bytes
// read, not the name "-".
TEST_F(Cli, ConvertThroughStdio) {
  EXPECT_RUN(Sh("gsketch convert 6 s.gskb file.txt"), 0, "", kAnyErr);
  const std::string from_file = Read("file.txt");
  const std::string updates = from_file.substr(from_file.find(" (n="));
  // The text the file path writes, with <stdin> as the header's name.
  EXPECT_RUN(Sh("gsketch convert 6 - back.txt", Read("s.gskb")), 0, "",
             "wrote 6 updates (text) to back.txt\n");
  EXPECT_EQ(Read("back.txt"), "# converted from <stdin>" + updates);
  EXPECT_RUN(Sh("gsketch convert 6 s.txt -"), 0, Read("s.gskb"),
             "wrote 6 updates (GSKB binary) to <stdout>\n");
  EXPECT_RUN(Sh("gsketch convert 6 s.gskb -"), 0, from_file,
             "wrote 6 updates (text) to <stdout>\n");
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/-"));
}

TEST_F(Cli, ConvertSplitsWideDeltas) {
  Write("wide.txt", "0 1 8589946921\n2 3 1\n");
  EXPECT_RUN(Sh("gsketch convert 4 wide.txt wide.gskb"), 0, "",
             "wrote 2 updates as 6 wire records (GSKB binary, wide deltas "
             "split) to wide.gskb\n");
  EXPECT_RUN(Sh("gsketch convert 4 wide.gskb wide_back.txt"), 0, "",
             "wrote 6 updates (text) to wide_back.txt\n");
  EXPECT_EQ(Read("wide_back.txt"),
            "# converted from wide.gskb (n=4, 6 updates)\n0 1 2147483647\n"
            "0 1 2147483647\n0 1 2147483647\n0 1 2147483647\n0 1 12333\n"
            "2 3 1\n");
  Write("huge.txt", "0 1 9000000000000\n");
  const char huge[] =
      "error: huge.txt:1: delta 9000000000000 exceeds the GSKB per-update "
      "limit of 1024*2^31\n";
  EXPECT_RUN(Sh("gsketch convert 4 huge.txt out.gskb"), 1, "", huge);
  EXPECT_RUN(Sh("gsketch connectivity 4 huge.txt"), 1, "", huge);
}

const char kGenSummary[] =
    "gen churn: n=24 seed=505, 600 updates (351 ins, 249 del) -> 600 wire "
    "records, 53 final edges, 157 cancelled to 0\n";

TEST_F(Cli, GenToFileAndToStdoutMatchTheGoldenFixture) {
  const std::string golden = Data("golden_gen_churn.gskb");
  ASSERT_FALSE(golden.empty());
  EXPECT_RUN(Sh("gsketch gen churn 24 600 out.gskb 505"), 0, "",
             kGenSummary);
  EXPECT_EQ(Read("out.gskb"), golden);
  EXPECT_RUN(Sh("gsketch gen churn 24 600 - 505"), 0, golden, kGenSummary);
  // Through real pipes: stdout cannot seek and stdin cannot be sized.
  EXPECT_RUN(Sh("gsketch gen churn 24 600 - 505 | "
                "gsketch connectivity 24 - 7"),
             0, Data("golden_gen_churn.answer"), kGenSummary);
}

TEST_F(Cli, GenMultiAndServeMulti) {
  EXPECT_RUN(Sh("gsketch gen multi --tenants 2 64 2000 multi.gskt 7"), 0, "",
             kAnyErr);
  Write("multi.q",
        "open a connectivity\nopen b forest\n@a 500 components\n"
        "@a end components\n@b 250 connected 0 1\n@b end components\n");
  const char answers[] =
      "b@250 connected 0 1 => no\na@500 components => 2\n"
      "a@1000 components => 1\nb@1000 components => 1\n";
  EXPECT_RUN(Sh("gsketch serve multi 64 multi.gskt 7 --queries multi.q "
                "--threads 2 --gutter 256"),
             0, answers, kAnyErr);
  // The script on stdin, one session per tenant in tag order.
  EXPECT_RUN(Sh("gsketch serve multi 64 multi.gskt 7", Read("multi.q")), 0,
             answers, kAnyErr);
  // A capture is taken only where a query reads: a@500, a@end, b@250 and
  // b@end, so 4 captures in all.
  Outcome progress = Sh(
      "gsketch serve multi 64 multi.gskt 7 --queries multi.q --progress");
  EXPECT_RUN(progress, 0, answers, kAnyErr);
  EXPECT_NE(progress.err.find("progress: 1 worker\n"), std::string::npos)
      << progress.err;
  EXPECT_NE(progress.err.find("served 4 queries (0 errors) from 4 "
                              "snapshots over 2000 updates"),
            std::string::npos)
      << progress.err;
}

// '-' names stdin for the stream and for --queries, stdin feeds only one
// of them, and a GSKT trace has no stdio path at all; each refusal exits 2
// before stdin is read.
TEST_F(Cli, ServeStdinRules) {
  const char both[] =
      "error: the stream and the query script cannot both come from stdin; "
      "give the script with --queries FILE\n";
  const char gskt[] =
      "error: a GSKT trace cannot be read from stdin or written to stdout; "
      "name a file\n";
  EXPECT_RUN(Sh("gsketch serve connectivity 6 s.gskb --queries -",
                "2 components\nend components\n"),
             0, "@2 components => 4\n@6 components => 2\n", kAnyErr);
  EXPECT_RUN(Sh("gsketch serve connectivity 6 -", Read("s.gskb")), 2, "",
             both);
  EXPECT_RUN(Sh("gsketch serve connectivity 6 - --queries -", Read("s.gskb")),
             2, "", both);
  EXPECT_RUN(Sh("gsketch gen multi --tenants 2 64 100 - 7"), 2, "", gskt);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/-"));
  Write("multi.q", "open a connectivity\nopen b forest\n");
  EXPECT_RUN(Sh("gsketch serve multi 64 - --queries multi.q"), 2, "", gskt);
}

TEST_F(Cli, ServeAnswersScriptedPositions) {
  const char script[] =
      "# how does connectivity evolve?\n0 components\n2 components\n"
      "2 connected 0 2\nend answer\n";
  const char answers[] =
      "@0 components => 6\n@2 components => 4\n@2 connected 0 2 => yes\n"
      "@6 answer =>\n";
  const std::string connectivity =
      answers + std::string("components: 2\nconnected:  no\n");
  EXPECT_RUN(Sh("gsketch serve connectivity 6 s.txt", script), 0,
             connectivity, kAnyErr);
  Write("q.txt", script);
  EXPECT_RUN(Sh("gsketch serve connectivity 6 s.gskb --queries q.txt "
                "--threads 2 --gutter 64"),
             0, connectivity, kAnyErr);
  // The stream itself on stdin, the script from a file.
  EXPECT_RUN(Sh("gsketch serve forest 6 - --queries q.txt", Read("s.gskb")),
             0,
             answers + std::string("# forest: 4 edges, 2 components\n0 2 1\n"
                                   "0 1 1\n3 4 1\n4 5 1\n"),
             kAnyErr);
  EXPECT_RUN(Sh("gsketch serve connectivity 6 s.txt", "x components\n"), 1,
             "",
             "error: <stdin>:1: expected '<pos> <query>' (or 'end <query>'), "
             "got 'x components'\n");
  EXPECT_RUN(Sh("gsketch serve connectivity 6 s.txt", "3\n"), 1, "",
             "error: <stdin>:1: position 3 has no query\n");
  EXPECT_RUN(Sh("gsketch serve multi 6 s.gskb", "3 components\n"), 1, "",
             "error: <stdin>:1: expected 'open ...' or '@<name> ...', got "
             "'3 components'\n");
  EXPECT_RUN(Sh("gsketch serve multi 6 s.gskb",
                "open a connectivity --snapshot-ms 5\n"),
             1, "",
             "error: <stdin>:1: expected 'open <name> <alg>', got 'open a "
             "connectivity --snapshot-ms 5'\n");
}

TEST_F(Cli, CheckpointResumeInspect) {
  const char answer[] = "components: 2\nconnected:  no\n";
  const char resuming[] = "resuming connectivity at update 3/6\n";
  EXPECT_RUN(Sh("gsketch checkpoint connectivity 6 s.gskb c.gskc 1 --at 3"),
             0, "", "checkpointed connectivity after 3/6 updates to c.gskc\n");
  EXPECT_RUN(Sh("gsketch resume s.gskb c.gskc"), 0, answer, resuming);
  EXPECT_RUN(Sh("gsketch resume s.txt c.gskc --threads 2"), 0, answer,
             resuming);
  EXPECT_RUN(Sh("gsketch resume - c.gskc", Read("s.gskb")), 0, answer,
             resuming);
  EXPECT_RUN(Sh("gsketch inspect c.gskc"), 0,
             "algorithm:  connectivity\nstream pos: 3\npayload:    22356 "
             "bytes\nsketch:     connectivity: n=6, 900 cells\n",
             "");
  EXPECT_RUN(Sh("gsketch checkpoint kedge 6 - k.gskc --k 2", kStreamText), 0,
             "", "checkpointed kedge after 3/6 updates to k.gskc\n");
  EXPECT_RUN(Sh("gsketch inspect k.gskc"), 0,
             "algorithm:  kedge\nstream pos: 3\npayload:    44716 bytes\n"
             "sketch:     kedge: n=6, k=2, 1800 cells\n",
             "");
  EXPECT_RUN(Sh("gsketch checkpoint connectivity 6 s.gskb c.gskc --at 7"), 1,
             "", "error: --at 7 exceeds the stream's 6 updates\n");
  EXPECT_RUN(Sh("gsketch resume demo.gskb c.gskc"), 1, "",
             "error: demo.gskb: stream declares n=4 but n=6 given\n");
  EXPECT_RUN(Sh("gsketch inspect s.gskb"), 1, "",
             "error: s.gskb: not a GSKC checkpoint (bad magic)\n");
}

TEST_F(Cli, ShardMergeMatchesTheGoldenCheckpoint) {
  Write("g.gskb", Data("golden_stream.gskb"));
  EXPECT_RUN(Sh("gsketch shard connectivity --shards 2 8 g.gskb site 42"), 0,
             "",
             "sharded connectivity across 2 sites (12 updates) -> "
             "site.shard*.gskc\n");
  EXPECT_RUN(Sh("gsketch merge m.gskc site.shard0.gskc site.shard1.gskc"), 0,
             "", "merged 2 sketches (connectivity, 12 updates) into m.gskc\n");
  EXPECT_EQ(Read("m.gskc"), Data("golden_merged.gskc"));
  EXPECT_RUN(Sh("gsketch resume g.gskb site.shard0.gskc"), 1, "",
             "error: site.shard0.gskc covers 6 of 12 updates as a non-prefix "
             "shard subset; merge all shards before resuming\n");
  EXPECT_RUN(Sh("gsketch inspect site.shard1.gskc"), 0,
             "algorithm:  connectivity\nstream pos: 6 (shard subset, not a "
             "prefix)\npayload:    35556 bytes\nsketch:     connectivity: "
             "n=8, 1440 cells\n",
             "");
  EXPECT_RUN(Sh("gsketch resume g.gskb m.gskc"), 0,
             "components: 1\nconnected:  yes\n",
             "resuming connectivity at update 12/12\n");
  // Text and stdin streams shard from memory, to the same bytes.
  Write("g.txt", Data("golden_stream.txt"));
  EXPECT_RUN(Sh("gsketch shard connectivity --shards 2 8 g.txt t 42"), 0, "",
             "sharded connectivity across 2 sites (12 updates) -> "
             "t.shard*.gskc\n");
  EXPECT_RUN(Sh("gsketch shard connectivity --shards 2 8 - p 42",
                Read("g.gskb")),
             0, "",
             "sharded connectivity across 2 sites (12 updates) -> "
             "p.shard*.gskc\n");
  for (const char* prefix : {"t", "p"}) {
    for (const char* shard : {".shard0.gskc", ".shard1.gskc"}) {
      EXPECT_EQ(Read(prefix + std::string(shard)),
                Read("site" + std::string(shard)));
    }
  }
  EXPECT_RUN(Sh("gsketch merge m.gskc site.shard0.gskc d.gskc"), 1, "",
             "error: cannot open d.gskc\n");
}

// Checkpoints of one family over the same n, measured with different
// seeds (or shapes), do not add: merge exits 1 naming the field and
// writes nothing. With one seed the same shards merge to the truth.
TEST_F(Cli, MergeRefusesSketchesMeasuredDifferently) {
  Write("a.txt", "0 1 1\n2 3 1\n");
  Write("b.txt", "1 2 1\n");
  Write("all.txt", "0 1 1\n2 3 1\n1 2 1\n");
  EXPECT_RUN(Sh("gsketch checkpoint connectivity --at 2 4 a.txt a.gskc 1"), 0,
             "", "checkpointed connectivity after 2/2 updates to a.gskc\n");
  EXPECT_RUN(Sh("gsketch checkpoint connectivity --at 1 4 b.txt b.gskc 2"), 0,
             "", "checkpointed connectivity after 1/1 updates to b.gskc\n");
  EXPECT_RUN(Sh("gsketch merge m.gskc a.gskc b.gskc"), 1, "",
             "error: b.gskc: connectivity: incompatible sketches: seed "
             "differs\n");
  EXPECT_RUN(Sh("gsketch inspect m.gskc"), 1, "",
             "error: cannot open m.gskc\n");
  EXPECT_RUN(Sh("gsketch checkpoint kedge --at 1 4 b.txt k.gskc 1 --k 2"), 0,
             "", "checkpointed kedge after 1/1 updates to k.gskc\n");
  EXPECT_RUN(Sh("gsketch checkpoint kedge --at 1 4 b.txt k3.gskc 1 --k 3"), 0,
             "", "checkpointed kedge after 1/1 updates to k3.gskc\n");
  EXPECT_RUN(Sh("gsketch merge m.gskc k.gskc k3.gskc"), 1, "",
             "error: k3.gskc: kedge: incompatible sketches: k differs\n");
  EXPECT_RUN(Sh("gsketch checkpoint connectivity --at 1 4 b.txt b.gskc 1"), 0,
             "", "checkpointed connectivity after 1/1 updates to b.gskc\n");
  EXPECT_RUN(Sh("gsketch merge m.gskc a.gskc b.gskc"), 0, "",
             "merged 2 sketches (connectivity, 3 updates) into m.gskc\n");
  EXPECT_RUN(Sh("gsketch resume all.txt m.gskc"), 0,
             "components: 1\nconnected:  yes\n",
             "resuming connectivity at update 3/3\n");
}

TEST_F(Cli, SpannerAndStats) {
  const char spanner[] =
      "# spanner: 4 edges, 3 passes, stretch 1.00 (bound 5)\n0 2\n0 1\n3 4\n"
      "4 5\n";
  const char stats[] =
      "nodes:       6\nupdates:     6 (5 ins, 1 del)\nfinal edges: 4\n"
      "components:  2\n";
  EXPECT_RUN(Sh("gsketch spanner 6 s.txt"), 0, spanner, "");
  EXPECT_RUN(Sh("gsketch spanner 6 - 3", Read("s.gskb")), 0, spanner, "");
  EXPECT_RUN(Sh("gsketch stats 6 s.gskb"), 0, stats, "");
  EXPECT_RUN(Sh("gsketch stats 6 -", kStreamText), 0, stats, "");
}

#define KNOWN_ALGS                                                         \
  "(want connectivity, bipartite, mincut, sparsify, triangles, kconnect, " \
  "kedge, forest, mst, wsparsify)\n"

struct Refusal {
  const char* cmd;
  const char* err;
};

// Every flag-scope rule, and every argument error: exit 2 before any
// work starts.
TEST_F(Cli, UsageErrorsExitTwo) {
  const Refusal kRefusals[] = {
      {"gsketch connectivity 6 s.txt --at 3",
       "error: --at applies only to checkpoint\n"},
      {"gsketch connectivity 6 s.txt --shards 2",
       "error: --shards applies only to shard\n"},
      {"gsketch connectivity 6 s.txt --k 2",
       "error: --k applies only to kconnect/kedge\n"},
      {"gsketch connectivity 6 s.txt --max-weight 4",
       "error: --max-weight applies only to wsparsify\n"},
      {"gsketch triangles 6 s.txt --threads 2", kIngestScope},
      {"gsketch triangles 6 s.txt --progress", kIngestScope},
      {"gsketch connectivity 6 s.txt --queries q",
       "error: --queries applies only to serve\n"},
      {"gsketch connectivity 6 s.txt --tenants 2",
       "error: --tenants applies only to gen multi\n"},
      {"gsketch serve connectivity 6 s.txt --at 3",
       "error: --at applies only to checkpoint\n"},
      {"gsketch serve connectivity 6 s.txt --shards 2",
       "error: --shards applies only to shard\n"},
      {"gsketch serve connectivity 6 s.txt --tenants 2",
       "error: --tenants applies only to gen multi\n"},
      {"gsketch serve triangles 6 s.txt --gutter 64", kIngestScope},
      {"gsketch serve multi 6 s.gskb --k 2",
       "error: --k applies only to kconnect/kedge\n"},
      {"gsketch serve nosuch 6 s.txt",
       "error: unknown serve alg 'nosuch' " KNOWN_ALGS},
      {"gsketch checkpoint connectivity 6 s.txt c.gskc --queries q",
       "error: --queries applies only to serve\n"},
      {"gsketch checkpoint connectivity 6 s.txt c.gskc --tenants 2",
       "error: --tenants applies only to gen multi\n"},
      {"gsketch checkpoint connectivity 6 s.txt c.gskc --shards 2",
       "error: --shards applies only to shard\n"},
      {"gsketch checkpoint mst 6 s.txt c.gskc --k 2",
       "error: --k applies only to kconnect/kedge\n"},
      {"gsketch checkpoint nosuch 6 s.txt c.gskc",
       "error: unknown checkpoint alg 'nosuch' " KNOWN_ALGS},
      {"gsketch resume s.txt c.gskc --at 1",
       "error: --at applies only to checkpoint\n"},
      {"gsketch resume s.txt c.gskc --k 2",
       "error: --k applies only to kconnect/kedge\n"},
      {"gsketch resume s.txt c.gskc --shards 2",
       "error: --shards applies only to shard\n"},
      {"gsketch resume s.txt c.gskc --queries q",
       "error: --queries applies only to serve\n"},
      {"gsketch resume s.txt c.gskc --tenants 2",
       "error: --tenants applies only to gen multi\n"},
      {"gsketch shard connectivity 6 s.txt p",
       "error: shard requires --shards S\n"},
      {"gsketch shard connectivity --shards 2 6 s.txt p --at 1",
       "error: --at applies only to checkpoint\n"},
      {"gsketch shard connectivity --shards 2 6 s.txt p --threads 2",
       "error: --threads/--gutter/--progress apply only to "
       "per-stream ingestion; shard parallelism comes from "
       "--shards\n"},
      {"gsketch shard connectivity --shards 2 6 s.txt p --queries q",
       "error: --queries applies only to serve\n"},
      {"gsketch shard connectivity --shards 2 6 s.txt p --tenants 2",
       "error: --tenants applies only to gen multi\n"},
      {"gsketch shard connectivity --shards 2 6 s.txt p --k 2",
       "error: --k applies only to kconnect/kedge\n"},
      {"gsketch shard nosuch --shards 2 6 s.txt p",
       "error: unknown shard alg 'nosuch' " KNOWN_ALGS},
      {"gsketch merge o.gskc a.gskc b.gskc --threads 2", kIngestScope},
      {"gsketch merge o.gskc a.gskc b.gskc --max-weight 2",
       "error: --max-weight applies only to wsparsify\n"},
      {"gsketch merge o.gskc a.gskc",
       "error: merge needs <out.gskc> and at least two inputs\n"},
      {"gsketch inspect c.gskc --gutter 64", kIngestScope},
      {"gsketch inspect c.gskc --at 1",
       "error: --at applies only to checkpoint\n"},
      {"gsketch gen churn 6 10 o.gskb --threads 2",
       "error: gen takes no options\n"},
      {"gsketch gen churn 6 10 o.gskb --k 2",
       "error: --k applies only to kconnect/kedge\n"},
      {"gsketch gen churn 6 10 o.gskb --tenants 2",
       "error: --tenants applies only to gen multi\n"},
      {"gsketch gen churn 6 10 o.gskb --at 1",
       "error: --at applies only to checkpoint\n"},
      {"gsketch gen multi 6 10 o.gskt",
       "error: gen multi requires --tenants K\n"},
      {"gsketch gen nosuch 6 10 o.gskb",
       "error: unknown gen profile 'nosuch' (want uniform, "
       "powerlaw, hotspot, sliding, churn, mixed)\n"},
      {"gsketch gen churn 6 0 o.gskb",
       "error: updates must be an integer in [1, 2^40]\n"},
      {"gsketch convert 6 s.txt o.gskb --gutter 64",
       "error: convert takes no options\n"},
      {"gsketch convert 6 s.txt o.gskb --max-weight 2",
       "error: --max-weight applies only to wsparsify\n"},
      {"gsketch convert 6 s.txt o.gskb --tenants 2",
       "error: --tenants applies only to gen multi\n"},
      {"gsketch convert 6 s.txt o.gskb --queries q",
       "error: --queries applies only to serve\n"},
      {"gsketch spanner 6 s.txt --threads 2", kIngestScope},
      {"gsketch stats 6 s.txt --k 2",
       "error: --k applies only to kconnect/kedge\n"},
      {"gsketch stats 6 s.txt --tenants 2",
       "error: --tenants applies only to gen multi\n"},
      {"gsketch stats 6 s.txt --queries q",
       "error: --queries applies only to serve\n"},
      {"gsketch connectivity 6 s.txt --frob",
       "error: unknown option '--frob'\n"},
      {"gsketch connectivity 1 s.txt",
       "error: n must be an integer in [2, 2^24]\n"},
      {"gsketch connectivity 6 s.txt x",
       "error: seed must be a non-negative integer\n"},
      {"gsketch connectivity 6 s.txt --threads 0",
       "error: --threads needs a positive integer\n"},
      {"gsketch connectivity 6 s.txt --threads 300",
       "error: --threads must be <= 256\n"},
      {"gsketch connectivity 6 s.txt --gutter 4",
       "error: --gutter needs a byte count in [12, 2^30]\n"},
      {"gsketch kedge 6 s.txt --k 0", "error: --k must be in [1, 1024]\n"},
      {"gsketch shard connectivity --shards 1 6 s.txt p",
       "error: --shards must be in [2, 256]\n"},
      {"gsketch checkpoint connectivity 6 s.txt c.gskc --at x",
       "error: --at needs a non-negative integer\n"},
      {"gsketch serve connectivity 6 s.txt --queries",
       "error: --queries needs a file path\n"},
      {"gsketch serve connectivity 6 s.txt --snapshot-every 2",
       "error: unknown option '--snapshot-every'\n"},
      {"gsketch serve connectivity 6 s.txt --snapshot-ms 5",
       "error: unknown option '--snapshot-ms'\n"},
      {"gsketch wsparsify 6 s.txt --max-weight 0",
       "error: --max-weight needs an integer in [1, 2^32]\n"},
      {"gsketch gen multi --tenants 1 6 10 o.gskt",
       "error: --tenants needs an integer in [2, 256]\n"},
      {"gsketch serve multi x s.gskb",
       "error: n must be an integer in [2, 2^24]\n"},
      {"gsketch gen churn 6 10 o.gskb x",
       "error: seed must be a non-negative integer\n"},
  };
  for (const Refusal& r : kRefusals) {
    SCOPED_TRACE(r.cmd);
    EXPECT_RUN(Sh(r.cmd), 2, "", r.err);
  }
  // Wrong arity prints the usage text.
  const std::string usage = Sh("gsketch help").out;
  for (const char* cmd :
       {"gsketch serve connectivity 6", "gsketch checkpoint connectivity 6 x",
        "gsketch resume x", "gsketch shard connectivity --shards 2 6 x",
        "gsketch inspect", "gsketch gen churn 6 10", "gsketch convert 6 x",
        "gsketch spanner 6", "gsketch stats 6 x 1 2", "gsketch serve multi 6"}) {
    SCOPED_TRACE(cmd);
    EXPECT_RUN(Sh(cmd), 2, "", usage.c_str());
  }
}

struct BadStream {
  const char* what;
  std::string bytes;
  const char* err;  ///< the diagnostic after "error: <name>: "
};

std::vector<BadStream> BadStreams() {
  const std::string demo = Gskb(4, kDemoRecs, 3);
  return {
      {"truncated to 30 bytes", demo.substr(0, 30),
       "file holds 30 bytes but header declares 3 updates (56 bytes)"},
      // A producer that died before Close() patched the count.
      {"header count 0", Gskb(4, kDemoRecs, 0),
       "file holds 56 bytes but header declares 0 updates (20 bytes)"},
      {"header count 1", Gskb(4, kDemoRecs, 1),
       "file holds 56 bytes but header declares 1 updates (32 bytes)"},
      {"bad record", Gskb(4, {{0, 1, 1}, {9, 2, 1}, {2, 3, 1}}, 3),
       "bad record at update 1: (9, 2) with n=4"},
      {"version 2", Gskb(4, kDemoRecs, 3, 2), "unsupported format version 2"},
      {"truncated header", demo.substr(0, 10), "truncated header"},
  };
}

// A malformed GSKB file fails with exit 1 and the reader's diagnostic.
TEST_F(Cli, MalformedStreamFilesExitOne) {
  for (const BadStream& b : BadStreams()) {
    SCOPED_TRACE(b.what);
    Write("bad.gskb", b.bytes);
    EXPECT_RUN(Sh("gsketch connectivity 4 bad.gskb"), 1, "",
               (std::string("error: bad.gskb: ") + b.err + "\n").c_str());
  }
  EXPECT_RUN(Sh("gsketch connectivity 5 demo.gskb"), 1, "",
             "error: demo.gskb: stream declares n=4 but n=5 given\n");
  EXPECT_RUN(Sh("gsketch connectivity 5 -", Read("demo.gskb")), 1, "",
             "error: <stdin>: stream declares n=4 but n=5 given\n");
  EXPECT_RUN(Sh("gsketch connectivity 4 nope.txt"), 1, "",
             "error: cannot open nope.txt\n");
  Write("bad.txt", "0 1 1\nzero one 1\n");
  EXPECT_RUN(Sh("gsketch connectivity 4 bad.txt"), 1, "",
             "error: bad.txt:2: expected 'u v delta'\n");
  EXPECT_RUN(Sh("gsketch connectivity 4 -", Read("bad.txt")), 1, "",
             "error: <stdin>:2: expected 'u v delta'\n");
  Write("bad.txt", "0 9 1\n");
  EXPECT_RUN(Sh("gsketch connectivity 4 bad.txt"), 1, "",
             "error: bad.txt:1: bad endpoints 0 9 (n=4)\n");
  EXPECT_RUN(Sh("gsketch connectivity 4 -", Read("bad.txt")), 1, "",
             "error: <stdin>:1: bad endpoints 0 9 (n=4)\n");
}

// Stdin goes through the same reader and text parser as a file: the same
// diagnostic, with <stdin> as the name. (Stdin once had a reader of its
// own that skipped the size check: the two count cases answered a silent
// prefix with exit 0, the huge delta was answered too, and the other
// cases failed with wording of their own.)
TEST_F(Cli, StdinIsValidatedLikeAFile) {
  for (const BadStream& b : BadStreams()) {
    SCOPED_TRACE(b.what);
    EXPECT_RUN(Sh("gsketch connectivity 4 -", b.bytes), 1, "",
               (std::string("error: <stdin>: ") + b.err + "\n").c_str());
  }
  const char huge[] = "0 1 9000000000000\n";
  const char want[] =
      "error: <stdin>:1: delta 9000000000000 exceeds the GSKB per-update "
      "limit of 1024*2^31\n";
  EXPECT_RUN(Sh("gsketch connectivity 4 -", huge), 1, "", want);
  EXPECT_RUN(Sh("gsketch convert 4 - out.gskb", huge), 1, "", want);
}

}  // namespace
