// Umbrella header: the full public API of the graphsketch library.
//
//   #include "src/graphsketch.h"
//
// pulls in every sketch, substrate, and verification utility. Individual
// headers remain includable for finer dependency control.
#ifndef GRAPHSKETCH_SRC_GRAPHSKETCH_H_
#define GRAPHSKETCH_SRC_GRAPHSKETCH_H_

// Randomness substrate.
#include "src/hash/kwise_hash.h"
#include "src/hash/nisan_prg.h"
#include "src/hash/random.h"
#include "src/hash/splitmix.h"

// Linear-sketch substrate.
#include "src/sketch/l0_sampler.h"
#include "src/sketch/one_sparse.h"
#include "src/sketch/serde.h"
#include "src/sketch/sparse_recovery.h"
#include "src/sketch/support_estimator.h"

// Graph substrate and exact baselines.
#include "src/graph/bfs.h"
#include "src/graph/cuts.h"
#include "src/graph/dinic.h"
#include "src/graph/edge_id.h"
#include "src/graph/generators.h"
#include "src/graph/gomory_hu.h"
#include "src/graph/graph.h"
#include "src/graph/spanner_check.h"
#include "src/graph/stoer_wagner.h"
#include "src/graph/stream.h"
#include "src/graph/subgraph_census.h"
#include "src/graph/union_find.h"

// The paper's algorithms.
#include "src/core/adaptive.h"
#include "src/core/baswana_sen.h"
#include "src/core/connectivity_suite.h"
#include "src/core/k_edge_connect.h"
#include "src/core/min_cut.h"
#include "src/core/node_sketch.h"
#include "src/core/recurse_connect.h"
#include "src/core/sampling_levels.h"
#include "src/core/simple_sparsifier.h"
#include "src/core/sketch_registry.h"
#include "src/core/spanning_forest.h"
#include "src/core/sparsifier.h"
#include "src/core/subgraph_patterns.h"
#include "src/core/subgraph_sketch.h"
#include "src/core/weighted_sparsifier.h"

// High-throughput ingestion and serving: binary stream files, the
// batched multi-threaded driver, mid-stream checkpointing, and
// query-while-ingest snapshots.
#include "src/driver/binary_stream.h"
#include "src/driver/checkpoint.h"
#include "src/driver/ingest_pipeline.h"
#include "src/driver/progress.h"
#include "src/driver/sketch_driver.h"
#include "src/driver/snapshot.h"

// Multi-tenant session layer: named sketch sessions co-hosted on one
// shared ingest pipeline.
#include "src/session/session_manager.h"
#include "src/session/sketch_session.h"

// Seeded workload generation and the benchmark-trajectory gate.
#include "src/workload/bench_baseline.h"
#include "src/workload/stream_generator.h"

#endif  // GRAPHSKETCH_SRC_GRAPHSKETCH_H_
