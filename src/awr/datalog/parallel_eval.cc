#include "awr/datalog/parallel_eval.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <future>
#include <utility>

#include "awr/datalog/vm/vm.h"

namespace awr::datalog {

size_t MinPartitionGrain() {
  static const size_t grain = [] {
    const char* env = std::getenv("AWR_PARTITION_GRAIN");
    if (env == nullptr || *env == '\0') return kMinPartitionGrain;
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || parsed < 1) return kMinPartitionGrain;
    return std::min<size_t>(static_cast<size_t>(parsed), size_t{1} << 20);
  }();
  return grain;
}

std::vector<ValueSet> PartitionExtent(const ValueSet& extent,
                                      size_t max_parts) {
  size_t parts = std::min(
      max_parts, std::max<size_t>(1, extent.size() / MinPartitionGrain()));
  if (parts <= 1) return {};
  // Contiguous runs of the iteration order: chunk c takes rows
  // [c*per, (c+1)*per), so each chunk's column store is a dense
  // cache-friendly range of the parent extent.
  std::vector<ValueSet> out(parts);
  const size_t per = (extent.size() + parts - 1) / parts;
  size_t i = 0;
  for (const Value& fact : extent) {
    out[i / per].Insert(fact);
    ++i;
  }
  return out;
}

namespace {

/// Appends one task per partition chunk of `extent` (or a single task
/// borrowing `extent` itself when partitioning is not worthwhile),
/// overriding the positive atom at body position `override_index`.
void AppendPartitionedTasks(const PlannedRule& pr, size_t override_index,
                            const ValueSet& extent, size_t max_parts,
                            std::deque<ValueSet>* chunk_storage,
                            std::vector<FireTask>* tasks) {
  std::vector<ValueSet> parts = PartitionExtent(extent, max_parts);
  if (parts.empty()) {
    tasks->push_back(FireTask{&pr, override_index, &extent});
    return;
  }
  for (ValueSet& part : parts) {
    chunk_storage->push_back(std::move(part));
    tasks->push_back(FireTask{&pr, override_index, &chunk_storage->back()});
  }
}

}  // namespace

std::vector<FireTask> MakeScanSplitTasks(
    const std::vector<PlannedRule>& rules, const BodyContext& ctx,
    size_t max_parts, std::deque<ValueSet>* chunk_storage) {
  std::vector<FireTask> tasks;
  for (const PlannedRule& pr : rules) {
    if (pr.plan.size() == 0) {
      tasks.push_back(FireTask{&pr});
      continue;
    }
    const size_t first_literal = pr.plan.steps[0].literal;
    const Literal& lit = pr.rule.body[first_literal];
    if (!lit.is_atom() || !lit.positive) {
      tasks.push_back(FireTask{&pr});
      continue;
    }
    const ValueSet& extent = ctx.positive_extent(lit.atom.predicate,
                                                 first_literal);
    AppendPartitionedTasks(pr, first_literal, extent, max_parts, chunk_storage,
                           &tasks);
  }
  return tasks;
}

std::vector<FireTask> MakeDeltaTasks(const std::vector<PlannedRule>& rules,
                                     const Interpretation& delta,
                                     size_t max_parts,
                                     std::deque<ValueSet>* chunk_storage) {
  std::vector<FireTask> tasks;
  for (const PlannedRule& pr : rules) {
    for (size_t i = 0; i < pr.rule.body.size(); ++i) {
      const Literal& lit = pr.rule.body[i];
      if (!lit.is_atom() || !lit.positive) continue;
      const ValueSet& delta_extent = delta.Extent(lit.atom.predicate);
      if (delta_extent.empty()) continue;
      AppendPartitionedTasks(pr, i, delta_extent, max_parts, chunk_storage,
                             &tasks);
    }
  }
  return tasks;
}

namespace {

/// Builds, on the calling (driver) thread, every hash index the task's
/// plan will probe — on the base extents and on the override chunk — so
/// workers only ever read indexes.  Mirrors the probe condition in
/// BodyEnumerator::MatchPositive exactly.
void PrebuildTaskIndexes(const FireTask& t, const BodyContext& base_ctx) {
  if (!base_ctx.use_join_index) return;
  const PlannedRule& pr = *t.rule;
  for (const PlanStep& step : pr.plan.steps) {
    if (step.bound_positions.empty()) continue;
    const Literal& lit = pr.rule.body[step.literal];
    if (!lit.is_atom() || !lit.positive) continue;
    const ValueSet& extent =
        step.literal == t.override_index
            ? *t.override_extent
            : base_ctx.positive_extent(lit.atom.predicate, step.literal);
    extent.BuildIndex(step.bound_positions);
  }
}

struct TaskResult {
  Interpretation derived;
  Status status = Status::OK();
};

}  // namespace

Result<size_t> RunFireTasks(const std::vector<FireTask>& tasks,
                            const BodyContext& base_ctx,
                            const Interpretation& existing,
                            Interpretation* out, ThreadPool* pool,
                            ParallelGovernor* governor) {
  // Pre-build every index any task will probe (driver thread only):
  // after this, extents are immutable shared state for the round.
  for (const FireTask& t : tasks) PrebuildTaskIndexes(t, base_ctx);

  // Per-task contexts: workers poll the governor, never the parent
  // context; override tasks view their chunk at the overridden body
  // position and the base extents everywhere else.
  std::vector<BodyContext> contexts(tasks.size());
  std::vector<TaskResult> results(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    const FireTask& t = tasks[i];
    BodyContext ctx = base_ctx;
    ctx.context = nullptr;
    ctx.governor = governor;
    if (t.override_index != FireTask::kNoOverride) {
      auto base_extent = base_ctx.positive_extent;
      ctx.positive_extent =
          [base_extent, override_index = t.override_index,
           override_extent = t.override_extent](
              const std::string& pred, size_t body_index) -> const ValueSet& {
        if (body_index == override_index) return *override_extent;
        return base_extent(pred, body_index);
      };
    }
    contexts[i] = std::move(ctx);
  }

  // Bytecode pre-lowering, also driver-side: resolve each task's
  // compiled program from the global cache (lowering on first use) and
  // materialize the columnar state its word-level cursors and its emit
  // filter over the head extent would read (on the base extents and
  // the override chunks).  Workers then execute read-only programs;
  // their cache lookups are guaranteed hits, and a loop whose column
  // index is missing opens on a row cursor over the indexes pre-built
  // above.
  if (base_ctx.use_bytecode) {
    for (size_t i = 0; i < tasks.size(); ++i) {
      vm::PrepareVmFire(*tasks[i].rule, contexts[i],
                        &existing.Extent(tasks[i].rule->rule.head.predicate));
    }
  }

  // Like the sequential FireRule: both extents are resolved once per
  // task, the output entry at the task's first new fact.
  auto run_task = [&existing, &contexts, &results](size_t i,
                                                   const FireTask& t) {
    const std::string& head = t.rule->rule.head.predicate;
    const ValueSet& known = existing.Extent(head);
    TaskResult& result = results[i];
    ValueSet* sink = nullptr;
    result.status = FireRuleFacts(
        *t.rule, contexts[i],
        [&](Value fact) -> Status {
          if (known.Contains(fact)) return Status::OK();
          if (sink == nullptr) sink = &result.derived.MutableExtent(head);
          sink->Insert(fact);
          return Status::OK();
        },
        &known);
  };

  if (pool == nullptr) {
    for (size_t i = 0; i < tasks.size(); ++i) run_task(i, tasks[i]);
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) {
      futures.push_back(
          pool->Submit([&run_task, i, &tasks] { run_task(i, tasks[i]); }));
    }
    // The round barrier: every task runs to completion (aborting
    // siblings mid-round would make poll counts depend on scheduling).
    // future::get rethrows anything a task threw; exceptions never
    // cross the library boundary, so convert the first one to a Status
    // — after draining the remaining futures, or the pool would still
    // hold references to this frame's state when we unwind.
    Status thrown = Status::OK();
    for (std::future<void>& f : futures) {
      try {
        f.get();
      } catch (const std::exception& e) {
        if (thrown.ok()) {
          thrown = Status::Internal(std::string("parallel task threw: ") +
                                    e.what());
        }
      } catch (...) {
        if (thrown.ok()) {
          thrown = Status::Internal("parallel task threw a non-exception");
        }
      }
    }
    if (!thrown.ok()) return thrown;
  }

  // First non-OK in task order; nothing merged on error — the caller
  // discards the round, as the sequential loop does when FireRule fails.
  for (const TaskResult& r : results) {
    if (!r.status.ok()) return r.status;
  }

  // Deterministic merge in task order.  Duplicates across tasks (the
  // same head derived by different rules or chunks) collapse here just
  // as they do in the sequential shared accumulator, so `added` counts
  // distinct new facts exactly as FireRule's loop does.  Task results
  // hold only facts new to `existing`, in non-empty extents, so every
  // entry this creates in `out` receives a new fact.
  size_t added = 0;
  for (const TaskResult& r : results) added += out->InsertAll(r.derived);
  return added;
}

}  // namespace awr::datalog
