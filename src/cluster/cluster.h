// Cluster-scale serving: N engine replicas behind a pluggable router.
//
// A Cluster owns a fleet of replica specifications — each a full Setup
// (models, parallelism, GPU; heterogeneous mixes allowed) plus the
// EngineConfig that replica serves under — and dispatches one arrival
// stream across them with a Router policy (router.h). The shape follows
// the XRT ERT command scheduler: one dispatcher feeding per-compute-unit
// queues, with the dispatch decision made once per command at submission.
//
// Execution is a deterministic three-phase pipeline:
//   1. Partition (serial pre-pass): the router assigns every request, in
//      arrival order, to a replica. Per-replica partitions inherit the
//      stream's arrival order, so the engine's nondecreasing-arrival
//      invariant holds by construction; ids are renumbered densely per
//      replica (the request pool requires dense ids; request content is
//      keyed by stream_seed, which travels untouched).
//   2. Replica runs: each replica serves its partition as one sweep Cell
//      (RunCells) with its own Experiment, scheduler, and engine —
//      nothing shared, so any thread count yields byte-identical metrics.
//   3. Merge: per-replica Metrics fold into a ClusterMetrics aggregate in
//      replica order (cluster_metrics.h).
// Same-seed cluster runs are therefore byte-identical at any thread
// count — pinned by tests/cluster_test.cc through the same canonical-
// text machinery as the golden corpus.
#ifndef ADASERVE_SRC_CLUSTER_CLUSTER_H_
#define ADASERVE_SRC_CLUSTER_CLUSTER_H_

#include <string>
#include <vector>

#include "src/cluster/cluster_metrics.h"
#include "src/cluster/router.h"
#include "src/harness/comparisons.h"
#include "src/harness/sweep_runner.h"

namespace adaserve {

// One replica of the fleet: a Table-1-style setup and the engine config
// it serves under.
struct ReplicaSpec {
  Setup setup;
  EngineConfig engine;
};

struct ClusterConfig {
  std::vector<ReplicaSpec> replicas;
  RouterPolicy router = RouterPolicy::kRoundRobin;
  RouterConfig router_config;
  // Replica-level parallelism: 0 resolves to hardware_concurrency, 1 runs
  // replicas serially. Metrics are identical either way.
  int threads = 1;
  // Router backlog model: cost of one prompt token relative to one decode
  // token in the service-time estimate (prefill is compute-bound and
  // batched, so a prompt token is much cheaper than a decode token).
  double prefill_token_weight = 0.15;
};

struct ReplicaRunResult {
  std::string label;
  // Requests the router dispatched to this replica.
  size_t routed = 0;
  EngineResult result;
  // The replica task's own compute seconds.
  double wall_clock_s = 0.0;
};

struct ClusterResult {
  // Replica order (== ClusterConfig::replicas order).
  std::vector<ReplicaRunResult> replicas;
  // metrics.merged.makespan is the fleet-wide end of run (max replica
  // makespan).
  ClusterMetrics metrics;
  // Wall-clock seconds of the whole cluster run (partition + replicas).
  double wall_clock_s = 0.0;

  // Canonical text (merged + per-replica blocks) for golden/determinism
  // comparisons.
  std::string Text() const;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  size_t num_replicas() const { return config_.replicas.size(); }
  const ClusterConfig& config() const { return config_; }

  // Router-side seed states: zero backlog, capability scores derived from
  // each replica's roofline (service_tps) and draft deployment
  // (spec_strength). Exposed so router unit tests see exactly what
  // Partition starts from.
  std::vector<ReplicaRouterState> SeedRouterStates() const;

  // Phase 1 — the routing pre-pass. Consumes `stream` (single-pass) and
  // returns one arrival-ordered, densely re-id'd request vector per
  // replica. Deterministic for a fixed (stream, policy, router seed).
  std::vector<std::vector<Request>> Partition(ArrivalStream& stream) const;

  // Phases 1-3: partition `stream`, run every replica under a fresh
  // `system` scheduler, merge. Replicas run as cells on a SweepRunner
  // with config().threads workers.
  ClusterResult Run(SystemKind system, ArrivalStream& stream) const;

  // As above for a pre-partitioned workload (replica i serves
  // partitions[i]); Run(system, stream) is Partition + this.
  ClusterResult RunPartitioned(SystemKind system,
                               std::vector<std::vector<Request>> partitions) const;

 private:
  ClusterConfig config_;
  // Static capability scores, replica order (derived once at construction
  // from the replicas' latency models).
  std::vector<double> service_tps_;
  std::vector<double> spec_strength_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_CLUSTER_CLUSTER_H_
