#ifndef AWR_DATALOG_PARALLEL_EVAL_H_
#define AWR_DATALOG_PARALLEL_EVAL_H_

#include <deque>
#include <vector>

#include "awr/common/context.h"
#include "awr/common/result.h"
#include "awr/common/thread_pool.h"
#include "awr/datalog/database.h"
#include "awr/datalog/eval_core.h"

namespace awr::datalog {

/// Work partitioning and the deterministic round barrier shared by the
/// parallel paths of every fixpoint engine (least-model, inflationary,
/// and — through least-model — stratified, well-founded and stable
/// models).
///
/// The unit of fan-out is a FireTask: fire one rule with (optionally)
/// one positive body occurrence's extent replaced by a partition chunk.
/// Two task shapes cover all round kinds:
///
///  * delta rounds (semi-naive): one task per
///    (rule × delta-occurrence × delta-partition) — the sequential
///    rule→occurrence loop, with each delta extent further split;
///  * full-scan rounds (naive, semi-naive round 0, inflationary): one
///    task per (rule × partition of the extent read by the rule's FIRST
///    plan step).  The first plan step drives the outermost enumeration
///    loop, so splitting its extent splits the whole match set into
///    disjoint classes.
///
/// In both shapes each body match of the round is enumerated by exactly
/// one task, so the total number of governance polls is identical to
/// the sequential path for every thread count.  Workers accumulate
/// derived facts privately; the barrier merges them into the shared
/// output in task order, making models (sets) and added-fact counts
/// bit-identical to sequential evaluation.
struct FireTask {
  /// Sentinel for "no extent override": the task fires the rule against
  /// the base BodyContext unchanged.
  static constexpr size_t kNoOverride = static_cast<size_t>(-1);

  const PlannedRule* rule = nullptr;
  /// Body-literal index whose positive extent is replaced, or
  /// kNoOverride.
  size_t override_index = kNoOverride;
  /// The replacement extent (borrowed; a partition chunk or a full
  /// delta extent).  Null iff override_index == kNoOverride.
  const ValueSet* override_extent = nullptr;
};

/// Minimum facts per partition chunk: splitting finer than this costs
/// more in chunk copies and task overhead than the parallelism returns.
/// The default when AWR_PARTITION_GRAIN is unset; see MinPartitionGrain.
inline constexpr size_t kMinPartitionGrain = 8;

/// The effective partition grain: the value of the environment variable
/// AWR_PARTITION_GRAIN clamped to [1, 1 << 20], or kMinPartitionGrain
/// when unset or unparsable.  Read once.  Larger grains give workers
/// longer contiguous column chunks (better cache behavior, less chunk-
/// copy overhead); smaller grains spread skewed extents more evenly.
size_t MinPartitionGrain();

/// Splits `extent` into at most `max_parts` disjoint chunks of at least
/// MinPartitionGrain() facts each.  Chunks are CONTIGUOUS runs of the
/// extent's iteration order, so a chunk's column store is a dense copy
/// of a cache-friendly range rather than a strided sample — a word
/// cursor then streams each chunk's columns sequentially.  (Any
/// disjoint cover computes the same round: matches are a set union over
/// chunks, and merge order at the barrier is task order, not chunk
/// content.)  Returns an EMPTY vector when one part suffices — the
/// caller then points the task at `extent` directly, avoiding the copy.
std::vector<ValueSet> PartitionExtent(const ValueSet& extent,
                                      size_t max_parts);

/// Builds the task list for a full-scan round: for each rule, partition
/// the extent read by its first plan step (when that step is a positive
/// atom) into at most `max_parts` chunks, one task per chunk.  Rules
/// whose first step is not a positive atom (a comparison, a negation,
/// or an empty body) get a single unpartitioned task.  Chunks are
/// materialized into `chunk_storage` (a deque for pointer stability);
/// extents are resolved through `ctx.positive_extent`.  Task order is
/// rule order, chunks in partition order — the deterministic merge
/// order at the barrier.
std::vector<FireTask> MakeScanSplitTasks(
    const std::vector<PlannedRule>& rules, const BodyContext& ctx,
    size_t max_parts, std::deque<ValueSet>* chunk_storage);

/// Builds the task list for a semi-naive delta round: for each rule,
/// for each positive body occurrence of a predicate with a non-empty
/// delta extent (in body order, exactly the sequential occurrence
/// loop), one task per partition of that delta extent.  Single-chunk
/// deltas borrow the delta extent directly (no copy).
std::vector<FireTask> MakeDeltaTasks(const std::vector<PlannedRule>& rules,
                                     const Interpretation& delta,
                                     size_t max_parts,
                                     std::deque<ValueSet>* chunk_storage);

/// The round barrier: runs every task on `pool`, merges the derived
/// facts into `out` in task order, and returns the number of facts that
/// were new with respect to both `existing` and `out` — the same count
/// the sequential FireRule loop produces.
///
/// Before submitting anything, pre-builds every hash index the tasks'
/// plans will probe (on both base extents and partition chunks), so
/// workers perform only const reads on extents — this is what makes
/// PR 2's lazy index build safe under concurrency (ValueSet asserts no
/// build happens on a worker thread).
///
/// Workers never touch `base_ctx.context`; they poll `governor` per
/// body match instead.  Tasks run to completion even after another task
/// fails — aborting mid-round would make the failing poll count depend
/// on scheduling.  The returned status is the first non-OK in task
/// order; on error nothing is merged into `out` (the caller discards
/// the round, as the sequential path does when FireRule fails).
Result<size_t> RunFireTasks(const std::vector<FireTask>& tasks,
                            const BodyContext& base_ctx,
                            const Interpretation& existing,
                            Interpretation* out, ThreadPool* pool,
                            ParallelGovernor* governor);

}  // namespace awr::datalog

#endif  // AWR_DATALOG_PARALLEL_EVAL_H_
