#include "awr/datalog/leastmodel.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <optional>
#include <set>
#include <string>

#include "awr/common/thread_pool.h"
#include "awr/datalog/parallel_eval.h"

namespace awr::datalog {

bool JoinIndexEnabledByDefault() {
  static const bool enabled = [] {
    const char* force_scan = std::getenv("AWR_FORCE_SCAN_JOINS");
    return force_scan == nullptr || *force_scan == '\0' ||
           std::strcmp(force_scan, "0") == 0;
  }();
  return enabled;
}

bool ColumnarEnabledByDefault() { return ColumnarStorageEnabled(); }

size_t DefaultEvalThreads() {
  static const size_t threads = [] {
    const char* env = std::getenv("AWR_EVAL_THREADS");
    if (env == nullptr || *env == '\0') return size_t{1};
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || parsed < 1) return size_t{1};
    return std::min<size_t>(static_cast<size_t>(parsed), 64);
  }();
  return threads;
}

namespace {

std::set<std::string> HeadPredicates(const std::vector<PlannedRule>& rules) {
  std::set<std::string> heads;
  for (const PlannedRule& pr : rules) heads.insert(pr.rule.head.predicate);
  return heads;
}

Interpretation Project(const Interpretation& full,
                       const std::set<std::string>& heads) {
  Interpretation out;
  for (const auto& [pred, extent] : full) {
    if (heads.count(pred) != 0) out.SetExtent(pred, extent);
  }
  return out;
}

// The loop's state over a borrowed base: the head predicates' extents
// live in `derived` (starting as base's facts for them); every other
// predicate is read straight from `base`.
class SplitState {
 public:
  SplitState(const std::vector<PlannedRule>& rules, const Interpretation& base)
      : base_(base), heads_(HeadPredicates(rules)) {
    derived = Project(base, heads_);
    // derived now holds copies of exactly base's head entries.
    base_bytes_ = base.ApproxBytes() - derived.ApproxBytes();
  }

  const ValueSet& Extent(const std::string& pred) const {
    return IsHead(pred) ? derived.Extent(pred) : base_.Extent(pred);
  }

  // The extent `not pred(t)` is tested against in the frozen J
  // described by `neg`; nullptr when J is empty.
  const ValueSet* NegatedExtent(const FrozenNegation& neg,
                                const std::string& pred) const {
    const Interpretation* j =
        neg.derived != nullptr && IsHead(pred) ? neg.derived : neg.base;
    return j == nullptr ? nullptr : &j->Extent(pred);
  }

  // Overlaid(base, derived).ApproxBytes(), without building it.
  size_t ApproxBytes() const { return base_bytes_ + derived.ApproxBytes(); }

  // Re-enters a snapshot frame: its interpretation projected onto the
  // head predicates (the rest of it equals the base).
  void Restore(const Interpretation& full) { derived = Project(full, heads_); }

  Interpretation derived;

 private:
  bool IsHead(const std::string& pred) const {
    return heads_.count(pred) != 0;
  }

  const Interpretation& base_;
  const std::set<std::string> heads_;
  size_t base_bytes_ = 0;  // base's bytes outside the head entries
};

// Derives all heads of `rule` under `ctx` into `out` (skipping facts
// already in `existing`); returns the number of new facts.  Dispatches
// through FireRuleFacts, so rules run their compiled programs (flat
// relations on word cursors) or the interpreter — same fact set and
// poll sites either way.  Both extents are resolved once per firing;
// the output entry is created at the first new fact, since an empty
// entry would change ApproxBytes and with it the memory charges.
Result<size_t> FireRule(const PlannedRule& pr, const BodyContext& ctx,
                        const Interpretation& existing, Interpretation* out) {
  const std::string& head = pr.rule.head.predicate;
  const ValueSet& known = existing.Extent(head);
  ValueSet* sink = nullptr;
  size_t added = 0;
  AWR_RETURN_IF_ERROR(FireRuleFacts(
      pr, ctx,
      [&](Value fact) -> Status {
        if (known.Contains(fact)) return Status::OK();
        if (sink == nullptr) sink = &out->MutableExtent(head);
        if (sink->Insert(fact)) ++added;
        return Status::OK();
      },
      &known));
  return added;
}

// Checkpoint plumbing: the frame view aliases the loop's live state,
// `interrupted` reports the last completed barrier to the owner just
// before a non-OK return, and `arrived` advances the barrier
// bookkeeping after a completed round.  The invariant both maintain: a
// reported frame is always "the state after rounds_done complete
// rounds, before anything of the next one", and barrier_charges is
// total_charges() at that same point — so a resumed run re-executes
// exactly the charges the interrupted run had not yet completed.
struct BarrierTracker {
  const snapshot::CheckpointHooks* hooks;
  snapshot::LeastModelFrameView view;
  bool capture_on_interrupt;
  bool capture_at_barrier;

  BarrierTracker(const snapshot::CheckpointHooks* h, bool seminaive,
                 ExecutionContext* ctx)
      : hooks(h),
        capture_on_interrupt(h != nullptr &&
                             static_cast<bool>(h->on_interrupt)),
        capture_at_barrier(h != nullptr && static_cast<bool>(h->at_barrier)) {
    view.seminaive = seminaive;
    view.barrier_charges = ctx->total_charges();
  }

  Status Interrupted(Status st) const {
    if (capture_on_interrupt) hooks->on_interrupt(view);
    return st;
  }

  void Arrived(ExecutionContext* ctx) {
    ++view.rounds_done;
    view.barrier_charges = ctx->total_charges();
    if (capture_at_barrier) hooks->at_barrier(view);
  }
};

// Fires one round's rules and collects the facts new to the state into
// `delta`.  Sequentially that is FireRule over `rules` — each rule once
// against `ctx`, or, in a delta round, once per positive body
// occurrence of a predicate with a non-empty extent in `*prev_delta`,
// with that extent substituted for the occurrence.  With a pool the
// same firings fan out as (rule × extent-partition) tasks with a
// deterministic merge at the barrier (see parallel_eval.h): the same
// fact set, the same count, the same polls.
Result<size_t> FireRound(const std::vector<PlannedRule>& rules,
                         const BodyContext& ctx, const SplitState& state,
                         const Interpretation* prev_delta, ThreadPool* pool,
                         ParallelGovernor* governor, Interpretation* delta) {
  if (pool != nullptr) {
    std::deque<ValueSet> chunks;
    std::vector<FireTask> tasks =
        prev_delta == nullptr
            ? MakeScanSplitTasks(rules, ctx, pool->size(), &chunks)
            : MakeDeltaTasks(rules, *prev_delta, pool->size(), &chunks);
    return RunFireTasks(tasks, ctx, state.derived, delta, pool, governor);
  }
  size_t added = 0;
  for (const PlannedRule& pr : rules) {
    if (prev_delta == nullptr) {
      AWR_ASSIGN_OR_RETURN(size_t n, FireRule(pr, ctx, state.derived, delta));
      added += n;
      continue;
    }
    for (size_t i = 0; i < pr.rule.body.size(); ++i) {
      const Literal& lit = pr.rule.body[i];
      if (!lit.is_atom() || !lit.positive) continue;
      const ValueSet& changed = prev_delta->Extent(lit.atom.predicate);
      if (changed.empty()) continue;
      BodyContext occ_ctx = ctx;
      occ_ctx.positive_extent =
          [&state, &changed, i](const std::string& pred,
                                size_t body_index) -> const ValueSet& {
        return body_index == i ? changed : state.Extent(pred);
      };
      AWR_ASSIGN_OR_RETURN(size_t n,
                           FireRule(pr, occ_ctx, state.derived, delta));
      added += n;
    }
  }
  return added;
}

}  // namespace

Interpretation DerivedPart(const std::vector<PlannedRule>& rules,
                           const Interpretation& full) {
  return Project(full, HeadPredicates(rules));
}

Result<Interpretation> LeastModelWithFrozenNegation(
    const std::vector<PlannedRule>& rules, const Interpretation& base,
    const FrozenNegation& neg, const EvalOptions& opts, ExecutionContext* ctx,
    const LeastModelControl& control) {
  // The parallel path: the same rounds with the same charge skeleton,
  // each round's firings fanned out over a pool (see FireRound).
  std::optional<ThreadPool> local_pool;
  ThreadPool* pool = opts.pool;
  if (pool == nullptr && opts.num_threads > 1) {
    local_pool.emplace(opts.num_threads);
    pool = &*local_pool;
  }
  std::optional<ParallelGovernor> governor;
  if (pool != nullptr) governor.emplace(ctx);

  SplitState state(rules, base);
  BarrierTracker bar(control.hooks, opts.seminaive, ctx);
  bar.view.base = &base;
  bar.view.derived = &state.derived;

  BodyContext body_ctx{
      &opts.functions,
      [&state](const std::string& pred, size_t) -> const ValueSet& {
        return state.Extent(pred);
      },
      nullptr,
      // Parallel workers poll the governor instead (RunFireTasks).
      pool != nullptr ? nullptr : ctx, opts.use_join_index};
  body_ctx.use_columnar = opts.use_columnar;
  body_ctx.use_bytecode = opts.use_bytecode;
  TestNegationAgainst(body_ctx, [&state, &neg](const std::string& pred) {
    return state.NegatedExtent(neg, pred);
  });
  auto fire = [&](const Interpretation* prev_delta, Interpretation* delta) {
    return FireRound(rules, body_ctx, state, prev_delta, pool,
                     governor ? &*governor : nullptr, delta);
  };

  if (!opts.seminaive) {
    // Naive iteration: every round fires every rule against the full
    // interpretation.
    if (control.resume != nullptr) {
      state.Restore(control.resume->interp);
      bar.view.rounds_done = control.resume->rounds_done;
    }
    // The naive loop charges memory after merging the round's delta, so
    // at that charge point the live state is one round ahead of the last
    // barrier; keep a barrier copy of the derived extents for interrupt
    // capture.
    Interpretation barrier_derived;
    if (bar.capture_on_interrupt) {
      barrier_derived = state.derived;
      bar.view.derived = &barrier_derived;
    }
    for (;;) {
      Status st = ctx->ChargeRound("least-model(naive)");
      if (!st.ok()) return bar.Interrupted(std::move(st));
      Interpretation delta;
      auto added = fire(nullptr, &delta);
      if (!added.ok()) return bar.Interrupted(added.status());
      if (*added == 0) break;
      st = ctx->ChargeFacts(*added, "least-model(naive)");
      if (!st.ok()) return bar.Interrupted(std::move(st));
      state.derived.InsertAll(delta);
      st = ctx->ChargeMemory(state.ApproxBytes(), "least-model(naive)");
      if (!st.ok()) return bar.Interrupted(std::move(st));
      if (bar.capture_on_interrupt) barrier_derived = state.derived;
      bar.Arrived(ctx);
    }
    return std::move(state.derived);
  }

  // Semi-naive iteration.  Round 0 fires every rule against `base`;
  // subsequent rounds fire only rules with a positive occurrence of a
  // predicate that changed, substituting the delta for one occurrence
  // at a time.  Within a round every fallible charge precedes the
  // mutations, so on an interrupt (derived, delta) is exactly the last
  // barrier's state.
  Interpretation delta;
  bool run_round0 = true;
  if (control.resume != nullptr) {
    state.Restore(control.resume->interp);
    bar.view.rounds_done = control.resume->rounds_done;
    if (control.resume->rounds_done > 0) {
      delta = control.resume->delta;
      run_round0 = false;
      bar.view.delta = &delta;
    }
  }
  if (run_round0) {
    // view.delta stays null through round 0: the delta under
    // construction is not part of the 0-round barrier state.
    Status st = ctx->ChargeRound("least-model(seminaive)");
    if (!st.ok()) return bar.Interrupted(std::move(st));
    auto added = fire(nullptr, &delta);
    if (!added.ok()) return bar.Interrupted(added.status());
    st = ctx->ChargeFacts(*added, "least-model(seminaive)");
    if (!st.ok()) return bar.Interrupted(std::move(st));
    state.derived.InsertAll(delta);
    bar.view.delta = &delta;
    bar.Arrived(ctx);
  }

  while (delta.TotalFacts() > 0) {
    Status st = ctx->ChargeRound("least-model(seminaive)");
    if (!st.ok()) return bar.Interrupted(std::move(st));
    st = ctx->ChargeMemory(state.ApproxBytes() + delta.ApproxBytes(),
                           "least-model(seminaive)");
    if (!st.ok()) return bar.Interrupted(std::move(st));
    Interpretation next_delta;
    auto added = fire(&delta, &next_delta);
    if (!added.ok()) return bar.Interrupted(added.status());
    st = ctx->ChargeFacts(*added, "least-model(seminaive)");
    if (!st.ok()) return bar.Interrupted(std::move(st));
    state.derived.InsertAll(next_delta);
    delta = std::move(next_delta);
    bar.Arrived(ctx);
  }
  return std::move(state.derived);
}

namespace {

Result<Interpretation> EvalMinimalModelImpl(
    const Program& program, const Database& edb, const EvalOptions& opts,
    const snapshot::EvalSnapshot* resume) {
  if (program.UsesNegation()) {
    return Status::FailedPrecondition(
        "EvalMinimalModel requires a positive program; use EvalStratified, "
        "EvalInflationary or EvalWellFounded for programs with negation");
  }
  AWR_ASSIGN_OR_RETURN(std::vector<PlannedRule> rules, PlanProgram(program));
  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;
  // The evaluation's one copy of the EDB: the least-model loop builds
  // its indexes on it, never on the caller's database.
  Interpretation model = edb;

  EvalOptions eff_opts = opts;
  if (resume != nullptr) {
    // Re-enter the loop in the mode the snapshot was taken in: the
    // semi-naive delta frame is meaningless to the naive loop and vice
    // versa.
    eff_opts.seminaive = resume->inner.seminaive;
  }

  snapshot::CheckpointDriver driver(opts.checkpoint);
  snapshot::CheckpointHooks hooks;
  LeastModelControl control;
  uint64_t program_fp = 0;
  uint64_t edb_fp = 0;
  if (driver.active()) {
    program_fp = snapshot::ProgramFingerprint(program);
    edb_fp = snapshot::DatabaseFingerprint(edb);
    auto build = [&](const snapshot::LeastModelFrameView& v) {
      snapshot::EvalSnapshot s;
      s.engine = snapshot::EngineKind::kLeastModel;
      s.program_fingerprint = program_fp;
      s.edb_fingerprint = edb_fp;
      s.charges_at_barrier = v.barrier_charges;
      s.inner_active = true;
      s.inner = snapshot::MaterializeFrame(v);
      return s;
    };
    hooks.at_barrier = [&driver, build](const snapshot::LeastModelFrameView& v) {
      driver.AtBarrier([&] { return build(v); });
    };
    hooks.on_interrupt = [&driver,
                          build](const snapshot::LeastModelFrameView& v) {
      driver.OnInterrupt([&] { return build(v); });
    };
    control.hooks = &hooks;
  }
  if (resume != nullptr) control.resume = &resume->inner;
  AWR_ASSIGN_OR_RETURN(
      Interpretation derived,
      LeastModelWithFrozenNegation(rules, model, FrozenNegation{}, eff_opts,
                                   ctx, control));
  model.OverlayWith(std::move(derived));
  return model;
}

}  // namespace

Result<Interpretation> EvalMinimalModel(const Program& program,
                                        const Database& edb,
                                        const EvalOptions& opts) {
  return EvalMinimalModelImpl(program, edb, opts, nullptr);
}

Result<Interpretation> EvalMinimalModelFrom(
    const Program& program, const Database& edb, const EvalOptions& opts,
    const snapshot::EvalSnapshot& resume) {
  return EvalMinimalModelImpl(program, edb, opts, &resume);
}

}  // namespace awr::datalog
