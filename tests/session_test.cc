// Session-layer isolation parity (src/session/): N named sketch sessions
// co-hosted on ONE shared IngestPipeline must leave every tenant's sketch
// byte-identical to that tenant running solo.
//
// The load-bearing property is the multi-tenant restatement of linearity:
// sessions apply to disjoint sketch objects, so however the shared worker
// pool interleaves tenants' gutter flushes on its shared queue, each
// tenant's bytes equal a plain sequential solo run of its own
// subsequence. The matrix covers 2 and 5 tenants, mixed registry
// families, 1 and 3 workers, and one-entry, small and default gutters,
// with mid-stream per-session drains thrown in so the per-channel drain
// barrier runs while OTHER sessions keep flowing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/sketch_registry.h"
#include "src/driver/binary_stream.h"
#include "src/driver/ingest_pipeline.h"
#include "src/driver/snapshot.h"
#include "src/session/session_manager.h"
#include "src/session/sketch_session.h"
#include "src/workload/stream_generator.h"

namespace gsketch {
namespace {

constexpr NodeId kN = 16;
constexpr uint64_t kSeed = 31;

std::string Bytes(const LinearSketch& sk) {
  std::string out;
  sk.AppendTo(&out);
  return out;
}

std::string TenantName(uint32_t t) { return "tenant" + std::to_string(t); }

// ------------------------------------------------- resolved workers --

// ResolveWorkerCount is THE shared resolution rule (pipeline, driver
// facade, CLI, benches): 0 means hardware_concurrency with a fallback of
// 1; explicit counts pass through untouched.
TEST(ResolveWorkers, ZeroMeansHardwareExplicitPassesThrough) {
  EXPECT_GE(ResolveWorkerCount(0), 1u);
  EXPECT_EQ(ResolveWorkerCount(1), 1u);
  EXPECT_EQ(ResolveWorkerCount(5), 5u);
}

// ----------------------------------------------- co-hosting parity --

// The full matrix: per-tenant byte parity of co-hosted ingestion against
// plain sequential solo runs, for every combination of tenant count,
// worker count, and gutter size. Families are assigned round-robin
// from the registry (the sharded subset when workers > 1, since the
// session layer refuses non-sharded families on a multi-worker pool).
TEST(SessionParity, CoHostedTenantsMatchSoloBytes) {
  for (uint32_t tenants : {2u, 5u}) {
    for (uint32_t threads : {1u, 3u}) {
      std::vector<const AlgInfo*> fams;
      for (const AlgInfo& info : Registry()) {
        if (threads == 1 || info.endpoint_sharded) fams.push_back(&info);
      }
      ASSERT_GE(fams.size(), 2u);
      for (size_t gutter_bytes : {size_t{12}, size_t{256}, size_t{4096}}) {
        SCOPED_TRACE("tenants=" + std::to_string(tenants) +
                     " threads=" + std::to_string(threads) +
                     " gutter=" + std::to_string(gutter_bytes));
        const uint64_t seed =
            kSeed + tenants * 1000 + threads * 100 + gutter_bytes / 64;
        std::vector<TaggedUpdate> trace =
            GenerateMultiTenantTrace(kN, 400, tenants, seed);

        // Solo references: each tenant's subsequence applied through a
        // plain sequential Update loop — the gold standard co-hosted
        // ingestion must match byte for byte.
        std::vector<std::string> expected(tenants);
        std::vector<uint64_t> tokens(tenants, 0);
        for (uint32_t t = 0; t < tenants; ++t) {
          auto solo = fams[t % fams.size()]->make(kN, AlgOptions{}, kSeed);
          for (const TaggedUpdate& e : trace) {
            if (e.tenant != t) continue;
            solo->Update(e.u, e.v, e.delta);
            ++tokens[t];
          }
          expected[t] = Bytes(*solo);
        }

        // Co-hosted run over one shared pipeline.
        PipelineOptions popt;
        popt.num_workers = threads;
        SessionManager mgr(popt);
        std::vector<SketchSession*> sessions(tenants);
        for (uint32_t t = 0; t < tenants; ++t) {
          SessionConfig cfg;
          cfg.num_nodes = kN;
          cfg.seed = kSeed;
          cfg.gutter_bytes = gutter_bytes;
          std::string err;
          sessions[t] = mgr.Create(TenantName(t),
                                   fams[t % fams.size()]->name, cfg, &err);
          ASSERT_NE(sessions[t], nullptr) << err;
        }
        size_t pushed = 0;
        for (const TaggedUpdate& e : trace) {
          sessions[e.tenant]->Push(e.u, e.v, e.delta);
          // Mid-stream per-session drains: the barrier must cut ONE
          // session consistently while the others keep flowing.
          if (++pushed % 97 == 0) {
            sessions[pushed % tenants]->Drain();
          }
        }
        size_t total_memory = 0;
        for (uint32_t t = 0; t < tenants; ++t) {
          sessions[t]->Drain();
          EXPECT_EQ(sessions[t]->stream_pos(), tokens[t]);
          EXPECT_EQ(sessions[t]->applied_halves(), 2 * tokens[t]);
          EXPECT_EQ(Bytes(sessions[t]->sketch()), expected[t])
              << "tenant " << t << " (" << fams[t % fams.size()]->name
              << ") diverged from its solo run";
          // Post-drain, gutters are empty: memory is exactly the cells.
          EXPECT_EQ(sessions[t]->MemoryBytes(),
                    sessions[t]->sketch().CellCount() *
                        sizeof(OneSparseCell));
          total_memory += sessions[t]->MemoryBytes();
        }
        EXPECT_EQ(mgr.TotalMemoryBytes(), total_memory);
        EXPECT_EQ(mgr.size(), tenants);
      }
    }
  }
}

// The `multi` trace profile's derivability contract: tenant k's
// subsequence — in order — is exactly the `churn` profile with
// (n, u_k, seed + k). This is what lets a co-hosted CLI run be diffed
// against per-tenant solo CLI runs without any shared state.
TEST(SessionParity, TraceTenantSubsequenceIsTheChurnProfile) {
  constexpr uint32_t kTenants = 3;
  constexpr size_t kUpdates = 500;  // 500 = 167+167+166 across 3 tenants
  std::vector<TaggedUpdate> trace =
      GenerateMultiTenantTrace(kN, kUpdates, kTenants, kSeed);
  ASSERT_EQ(trace.size(), kUpdates);
  const WorkloadProfile* churn = FindWorkloadProfile("churn");
  ASSERT_NE(churn, nullptr);
  for (uint32_t k = 0; k < kTenants; ++k) {
    size_t u_k = kUpdates / kTenants + (k < kUpdates % kTenants ? 1 : 0);
    DynamicGraphStream solo = churn->generate(kN, u_k, kSeed + k);
    size_t i = 0;
    for (const TaggedUpdate& e : trace) {
      if (e.tenant != k) continue;
      ASSERT_LT(i, solo.Size());
      const EdgeUpdate& s = solo.Updates()[i++];
      EXPECT_EQ(e.u, s.u);
      EXPECT_EQ(e.v, s.v);
      EXPECT_EQ(e.delta, s.delta);
    }
    EXPECT_EQ(i, solo.Size()) << "tenant " << k << " count mismatch";
  }
}

// --------------------------------------------------- manager surface --

TEST(SessionManagerApi, ErrorsAndListing) {
  SessionManager mgr;
  SessionConfig cfg;
  cfg.num_nodes = kN;
  cfg.seed = kSeed;
  std::string err;
  ASSERT_NE(mgr.Create("b", "connectivity", cfg, &err), nullptr) << err;
  ASSERT_NE(mgr.Create("a", "forest", cfg, &err), nullptr) << err;

  // Duplicate names and unknown families are rejected with diagnostics.
  EXPECT_EQ(mgr.Create("a", "connectivity", cfg, &err), nullptr);
  EXPECT_NE(err.find("already open"), std::string::npos) << err;
  EXPECT_EQ(mgr.Create("c", "nosuchalg", cfg, &err), nullptr);
  EXPECT_NE(err.find("unknown algorithm"), std::string::npos) << err;

  EXPECT_EQ(mgr.size(), 2u);
  EXPECT_FALSE(mgr.Close("nope", &err));
  EXPECT_TRUE(mgr.Close("a", &err));
  EXPECT_EQ(mgr.size(), 1u);

  // A multi-worker pool refuses non-sharded families at Create time (the
  // shared pool cannot clamp workers per session).
  bool have_nonsharded = false;
  for (const AlgInfo& info : Registry()) {
    if (!info.endpoint_sharded) {
      have_nonsharded = true;
      PipelineOptions popt;
      popt.num_workers = 3;
      SessionManager multi(popt);
      EXPECT_EQ(multi.Create("x", info.name, cfg, &err), nullptr);
      EXPECT_NE(err.find("multi-worker"), std::string::npos) << err;
      break;
    }
  }
  if (!have_nonsharded) {
    GTEST_LOG_(INFO) << "every registered family is endpoint-sharded";
  }
}

// ------------------------------------------- labeled query serving --

// One QueryEngine (store-less) answers for multiple sessions: each
// query pinned to its session's capture is answered as `<label>@<pos>`,
// and the answer text is byte-identical to the solo sketch's own Query
// output at the same position.
TEST(SessionQuery, LabeledAnswersMatchSoloModuloPrefix) {
  constexpr uint32_t kTenants = 2;
  std::vector<TaggedUpdate> trace =
      GenerateMultiTenantTrace(kN, 300, kTenants, kSeed);

  SessionManager mgr;
  std::vector<SketchSession*> sessions(kTenants);
  std::vector<std::unique_ptr<LinearSketch>> solo(kTenants);
  for (uint32_t t = 0; t < kTenants; ++t) {
    SessionConfig cfg;
    cfg.num_nodes = kN;
    cfg.seed = kSeed;
    std::string err;
    sessions[t] = mgr.Create(TenantName(t), "connectivity", cfg, &err);
    ASSERT_NE(sessions[t], nullptr) << err;
    solo[t] = FindAlg("connectivity")->make(kN, AlgOptions{}, kSeed);
  }
  for (const TaggedUpdate& e : trace) {
    sessions[e.tenant]->Push(e.u, e.v, e.delta);
    solo[e.tenant]->Update(e.u, e.v, e.delta);
  }

  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  std::string want;
  {
    QueryEngine engine(/*store=*/nullptr, out);
    for (uint32_t t = 0; t < kTenants; ++t) {
      // Publish pins the drained position; the snapshot must reflect
      // exactly the live (drained) sketch bytes.
      auto snap = sessions[t]->Publish();
      ASSERT_NE(snap, nullptr);
      EXPECT_EQ(snap->stream_pos, sessions[t]->stream_pos());
      EXPECT_EQ(Bytes(*snap->sketch), Bytes(sessions[t]->sketch()));

      std::string answer, qerr;
      ASSERT_TRUE(solo[t]->Query("components", &answer, &qerr)) << qerr;
      want += TenantName(t) + "@" +
              std::to_string(sessions[t]->stream_pos()) +
              " components => " + answer + "\n";
      engine.Submit(TenantName(t), "components", std::move(snap));
    }
    engine.Finish();
    EXPECT_EQ(engine.answered(), kTenants);
    EXPECT_EQ(engine.errors(), 0u);
  }
  std::fflush(out);
  std::rewind(out);
  std::string got(want.size() + 64, '\0');
  got.resize(std::fread(&got[0], 1, got.size(), out));
  std::fclose(out);
  EXPECT_EQ(got, want);
}

// A session keeps no reference to what it publishes: the capture lives
// exactly as long as its readers. Dropping the caller's pointer frees it,
// and a capture pinned to a query is freed once the engine has answered.
TEST(SessionQuery, CapturesLiveOnlyAsLongAsTheirReaders) {
  SessionManager mgr;
  SessionConfig cfg;
  cfg.num_nodes = kN;
  cfg.seed = kSeed;
  std::string err;
  SketchSession* s = mgr.Create("live", "connectivity", cfg, &err);
  ASSERT_NE(s, nullptr) << err;
  s->Push(0, 1, 1);

  auto snap = s->Publish();
  ASSERT_NE(snap, nullptr);
  std::weak_ptr<const SketchSnapshot> dropped = snap;
  snap.reset();
  EXPECT_TRUE(dropped.expired());

  s->Push(1, 2, 1);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  QueryEngine engine(/*store=*/nullptr, out);
  snap = s->Publish();
  std::weak_ptr<const SketchSnapshot> pinned = snap;
  engine.Submit("live", "components", std::move(snap));
  engine.Finish();
  EXPECT_EQ(engine.answered(), 1u);
  EXPECT_TRUE(pinned.expired());
  std::fclose(out);
}

}  // namespace
}  // namespace gsketch
