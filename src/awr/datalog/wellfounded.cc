#include "awr/datalog/wellfounded.h"

#include <optional>
#include <utility>

#include "awr/common/thread_pool.h"

namespace awr::datalog {

namespace {

Result<ThreeValuedInterp> EvalWellFoundedImpl(
    const Program& program, const Database& edb, const EvalOptions& opts,
    const snapshot::EvalSnapshot* resume) {
  AWR_ASSIGN_OR_RETURN(std::vector<PlannedRule> rules, PlanProgram(program));
  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;

  // Hoist one worker pool across all alternation steps instead of
  // paying thread startup once per inner least-model fixpoint.
  EvalOptions eff_opts = opts;
  std::optional<ThreadPool> local_pool;
  if (eff_opts.pool == nullptr && eff_opts.num_threads > 1) {
    local_pool.emplace(eff_opts.num_threads);
    eff_opts.pool = &*local_pool;
  }

  snapshot::CheckpointDriver driver(opts.checkpoint);
  uint64_t program_fp = 0;
  uint64_t edb_fp = 0;
  if (driver.active()) {
    program_fp = snapshot::ProgramFingerprint(program);
    edb_fp = snapshot::DatabaseFingerprint(edb);
  }

  // The evaluation's one copy of the EDB, the base every alternation
  // step borrows: its indexes and column stores are built once.
  Interpretation base = edb;

  // I_{k+1} = S(I_k), I_0 = ∅.  An iterate I_k (k >= 1) is kept as its
  // derived part — the extents of the rules' head predicates; the rest
  // of it is the base.  I_0 holds nothing at all, EDB facts included,
  // so only from step 1 on does negation read EDB facts from the base.
  // Track the last two iterates; the sequence converges when
  // I_{k+1} == I_{k-1} (period 2) or I_{k+1} == I_k (2-valued).
  Interpretation prev_prev;  // I_{k-1}
  Interpretation prev;       // I_k, starts as I_0 = ∅
  bool have_two = false;
  uint64_t step = 0;  // completed alternation steps (= k)
  // True while the snapshot's in-flight alternation step is still to be
  // re-entered: its outer ChargeRound was already paid before the
  // snapshot's barrier, so the resumed loop must not charge it again.
  bool pending_inner = false;
  if (resume != nullptr) {
    prev = DerivedPart(rules, resume->neg_context);
    prev_prev = DerivedPart(rules, resume->prev_prev);
    have_two = resume->have_two;
    step = resume->outer_index;
    pending_inner = resume->inner_active;
  }
  uint64_t outer_barrier_charges = ctx->total_charges();

  // The full iterate I_k whose derived part is `derived`.
  auto full = [&base](const Interpretation& derived, uint64_t k) {
    return k == 0 ? Interpretation() : Overlaid(base, derived);
  };
  // I_{k+1} == I_j, given I_{k+1}'s derived part `next`.  The two share
  // the base unless j == 0, and I_{k+1} == ∅ iff it has no facts: then
  // neither the base nor `next` (which holds the base's head facts) has.
  auto same_as = [&base](const Interpretation& next,
                         const Interpretation& derived, uint64_t j) {
    if (j == 0) return next.TotalFacts() == 0 && base.TotalFacts() == 0;
    return next == derived;
  };

  // The outer barrier: between alternation steps, before the next outer
  // ChargeRound.  Full iterates are built only here, at capture.
  auto build_outer = [&] {
    snapshot::EvalSnapshot s;
    s.engine = snapshot::EngineKind::kWellFounded;
    s.program_fingerprint = program_fp;
    s.edb_fingerprint = edb_fp;
    s.charges_at_barrier = outer_barrier_charges;
    s.outer_index = step;
    s.have_two = have_two;
    s.inner_active = false;
    s.neg_context = full(prev, step);
    if (have_two) s.prev_prev = full(prev_prev, step - 1);
    return s;
  };

  snapshot::CheckpointHooks hooks;
  LeastModelControl control;
  if (driver.active()) {
    // An inner barrier: mid alternation step, with the in-flight
    // least-model frame attached on top of the outer phase.
    auto build_inner = [&](const snapshot::LeastModelFrameView& v) {
      snapshot::EvalSnapshot s = build_outer();
      s.charges_at_barrier = v.barrier_charges;
      s.inner_active = true;
      s.inner = snapshot::MaterializeFrame(v);
      return s;
    };
    hooks.at_barrier = [&driver,
                        build_inner](const snapshot::LeastModelFrameView& v) {
      driver.AtBarrier([&] { return build_inner(v); });
    };
    hooks.on_interrupt = [&driver, build_inner](
                             const snapshot::LeastModelFrameView& v) {
      driver.OnInterrupt([&] { return build_inner(v); });
    };
    control.hooks = &hooks;
  }

  // Only the resumed first step may need a different seminaive mode
  // (the snapshot's frame dictates it); all later steps use eff_opts.
  EvalOptions resumed_step_opts;
  if (pending_inner) {
    resumed_step_opts = eff_opts;
    resumed_step_opts.seminaive = resume->inner.seminaive;
  }

  for (;;) {
    if (!pending_inner) {
      Status st = ctx->ChargeRound("well-founded(alternation)");
      if (!st.ok()) {
        driver.OnInterrupt(build_outer);
        return st;
      }
    }
    control.resume = pending_inner ? &resume->inner : nullptr;
    const EvalOptions& step_opts =
        pending_inner ? resumed_step_opts : eff_opts;
    const FrozenNegation neg =
        step == 0 ? FrozenNegation{} : FrozenNegation{&base, &prev};
    auto next_result = LeastModelWithFrozenNegation(rules, base, neg,
                                                    step_opts, ctx, control);
    pending_inner = false;
    // On an interrupt the inner hooks have already captured the barrier.
    if (!next_result.ok()) return next_result.status();
    Interpretation next = std::move(*next_result);
    if (same_as(next, prev, step)) {
      // Total (2-valued) fixpoint.
      Interpretation model = std::move(base);
      model.OverlayWith(std::move(next));
      return ThreeValuedInterp{model, std::move(model)};
    }
    if (have_two && same_as(next, prev_prev, step - 1)) {
      // Period-2 limit: the smaller iterate is the certain set T, the
      // larger is the possible set (complement of F).  Both are past
      // I_0 here, so they share the base.
      if (!next.IsSubsetOf(prev)) std::swap(next, prev);
      Interpretation possible = base;
      possible.OverlayWith(std::move(prev));
      Interpretation certain = std::move(base);
      certain.OverlayWith(std::move(next));
      return ThreeValuedInterp{std::move(certain), std::move(possible)};
    }
    prev_prev = std::move(prev);
    prev = std::move(next);
    have_two = true;
    ++step;
    outer_barrier_charges = ctx->total_charges();
  }
}

}  // namespace

Result<ThreeValuedInterp> EvalWellFounded(const Program& program,
                                          const Database& edb,
                                          const EvalOptions& opts) {
  return EvalWellFoundedImpl(program, edb, opts, nullptr);
}

Result<ThreeValuedInterp> EvalWellFoundedFrom(
    const Program& program, const Database& edb, const EvalOptions& opts,
    const snapshot::EvalSnapshot& resume) {
  return EvalWellFoundedImpl(program, edb, opts, &resume);
}

}  // namespace awr::datalog
