#ifndef AWR_DATALOG_LEASTMODEL_H_
#define AWR_DATALOG_LEASTMODEL_H_

#include <vector>

#include "awr/common/context.h"
#include "awr/common/limits.h"
#include "awr/common/result.h"
#include "awr/datalog/database.h"
#include "awr/datalog/eval_core.h"
#include "awr/datalog/functions.h"
#include "awr/snapshot/state.h"

namespace awr {
class ThreadPool;
}

namespace awr::datalog {

/// True unless the environment variable AWR_FORCE_SCAN_JOINS is set to
/// a non-empty value other than "0".  The default for
/// EvalOptions::use_join_index; scripts/tier1.sh runs the test suite
/// both ways.
bool JoinIndexEnabledByDefault();

/// The default for EvalOptions::num_threads: the value of the
/// environment variable AWR_EVAL_THREADS clamped to [1, 64], or 1 (the
/// sequential path) when unset or unparsable.  scripts/tier1.sh runs
/// the test suite with AWR_EVAL_THREADS=4 as one of its passes.
size_t DefaultEvalThreads();

/// True unless the environment variable AWR_NO_COLUMNAR is set to a
/// non-empty value other than "0" (the value-layer switch,
/// ColumnarStorageEnabled).  The default for
/// EvalOptions::use_columnar; scripts/tier1.sh runs the test suite
/// both ways.
bool ColumnarEnabledByDefault();

/// Shared evaluation configuration for all datalog evaluators.
struct EvalOptions {
  FunctionRegistry functions = FunctionRegistry::Default();
  EvalLimits limits = EvalLimits::Default();
  /// Use semi-naive (differential) iteration for least-model
  /// computations; naive iteration otherwise.  Both compute the same
  /// model — the flag exists for benchmarking (bench_tc_scaling).
  bool seminaive = true;
  /// Probe per-predicate hash indexes (ValueSet::Probe) for positive
  /// atoms with bound argument positions instead of scanning the full
  /// extent.  Both paths compute the same model with identical
  /// governance charge points; the scan path (false) is the
  /// differential-test oracle.  Env-overridable: AWR_FORCE_SCAN_JOINS=1
  /// flips the default to false process-wide.
  bool use_join_index = JoinIndexEnabledByDefault();
  /// Let compiled programs open loops over flat scalar relations on
  /// word cursors (DESIGN.md §12); row cursors handle everything else
  /// and remain the differential-test oracle.  Models, charge counts
  /// and interrupt statuses are identical either way.
  /// Env-overridable: AWR_NO_COLUMNAR=1 flips the default to false
  /// process-wide (and disables the columnar ValueSet layout itself).
  bool use_columnar = ColumnarEnabledByDefault();
  /// Execute rules through compiled bytecode programs (DESIGN.md §14)
  /// instead of the tree-walking enumerator; the interpreter remains
  /// the differential-test oracle.  Models, charge counts and interrupt
  /// statuses are identical either way.  Env-overridable:
  /// AWR_NO_BYTECODE=1 flips the default to false process-wide.
  bool use_bytecode = BytecodeEnabledByDefault();
  /// Optional resource governance (borrowed, may outlive the call but
  /// not vice versa).  When set, the evaluator charges this context —
  /// deadline, cancellation, fault injection and memory accounting all
  /// apply, and `limits` above is ignored in favour of the context's
  /// own budget.  When null, the evaluator builds a private context
  /// from `limits`.
  ExecutionContext* context = nullptr;
  /// Worker threads for the parallel fixpoint path.  1 (the default)
  /// keeps today's sequential evaluation, which doubles as the
  /// differential-test oracle; >1 fans each round out as one task per
  /// (rule × extent-partition) with a deterministic merge at the round
  /// barrier, so the computed model is identical for every value.
  /// Env-overridable via AWR_EVAL_THREADS (see DefaultEvalThreads).
  size_t num_threads = DefaultEvalThreads();
  /// Optional pre-built worker pool (borrowed).  When set it is used
  /// regardless of num_threads — engines that call the least-model
  /// fixpoint repeatedly (well-founded alternation, stratified strata)
  /// hoist one pool across all calls.  When null and num_threads > 1,
  /// each evaluation builds its own.
  ThreadPool* pool = nullptr;
  /// Checkpointing policy (DESIGN.md §9): with a sink attached, the
  /// top-level engines (EvalMinimalModel / EvalInflationary /
  /// EvalStratified / EvalWellFounded) capture resumable round-barrier
  /// snapshots every N rounds and/or when a charge interrupts the
  /// evaluation; snapshot::Resume* continues from one under fresh
  /// options and produces a model byte-identical to an uninterrupted
  /// run.  Without a sink (the default) no state is ever copied.
  snapshot::CheckpointPolicy checkpoint;
};

/// Internal plumbing between the top-level engines and the least-model
/// fixpoint loop: optional checkpoint callbacks planted by the owning
/// engine, and an optional frame to resume from instead of starting at
/// round 0.  Both are borrowed and may be null.  Callers outside the
/// engines use EvalOptions::checkpoint / snapshot::Resume* instead.
struct LeastModelControl {
  const snapshot::CheckpointHooks* hooks = nullptr;
  const snapshot::LeastModelFrame* resume = nullptr;
};

/// The frozen interpretation J that negative literals are tested
/// against, in the least-model loop's split form: J takes the extents of
/// the call's head predicates from `derived` and every other extent from
/// `base`.  A null `derived` takes every extent from `base`; a null
/// `base` is the empty interpretation — the well-founded engine's
/// I_0 = ∅, under which `not e(t)` holds for EDB predicates too.
///
/// Like the least-model call's `base`, both interpretations get lazy
/// caches built on them: compiled programs test `not p(t)` on the
/// full-arity column index of J's extent for p (BodyContext::
/// negated_extent), built on the calling thread and pre-built there
/// before a parallel round.  They must be the engine's own, never a
/// caller's const Database shared with other threads.
struct FrozenNegation {
  const Interpretation* base = nullptr;
  const Interpretation* derived = nullptr;
};

/// Computes the least model of `rules` + `base` where every *negative*
/// literal is tested against the FIXED interpretation J given by `neg`:
/// `not P(t)` holds iff J does not contain P(t).
///
/// This is the operator S(J) of the alternating-fixpoint construction:
/// the paper's "derivations starting from the current set T of true
/// facts, where only facts not in T are allowed to be used negatively"
/// (§2.2).  Positive programs get their ordinary minimal model (any
/// `neg` is vacuous).
///
/// Borrowed base.  `base` is read by reference and never written: every
/// predicate that no rule of `rules` derives is read straight from it,
/// so the hash indexes and column stores built on its extents persist
/// across calls — an engine that calls this repeatedly (every
/// alternation step, every stratum) builds them once.  Those lazy
/// caches are built on the calling thread (and pre-built there before a
/// parallel round), so `base` must be the engine's own copy, never a
/// caller's const Database shared with other threads.
///
/// The loop's own state is only the extents of the head predicates,
/// each starting as `base`'s facts for it (usually none).  Those
/// extents are the result: the full model is Overlaid(base, result),
/// which the engines build once, at the end.  `rules` may be a subset
/// of the program (stratified evaluation passes one stratum at a time);
/// `base` must already contain everything lower strata / the EDB
/// established.
///
/// Governance is that of the full state: every ChargeMemory figure
/// equals Overlaid(base, state).ApproxBytes(), and checkpoint hooks
/// receive the split state (see snapshot::LeastModelFrameView), from
/// which a capture builds the full interpretation.  A resumed frame's
/// interpretation is projected back onto the head predicates; its other
/// extents must equal `base`'s.
Result<Interpretation> LeastModelWithFrozenNegation(
    const std::vector<PlannedRule>& rules, const Interpretation& base,
    const FrozenNegation& neg, const EvalOptions& opts, ExecutionContext* ctx,
    const LeastModelControl& control = {});

/// The extents of `full` for the predicates some rule of `rules`
/// derives: a full interpretation projected onto the state a
/// least-model call over `rules` keeps.
Interpretation DerivedPart(const std::vector<PlannedRule>& rules,
                           const Interpretation& full);

/// Minimal-model evaluation of a *positive* program (no negated atoms):
/// the classical datalog semantics.  Fails with FailedPrecondition if
/// the program uses negation.
Result<Interpretation> EvalMinimalModel(const Program& program,
                                        const Database& edb,
                                        const EvalOptions& opts = {});

/// Continues a minimal-model evaluation from a round-barrier snapshot
/// previously captured via EvalOptions::checkpoint.  The caller is
/// responsible for validating that `resume` matches this program/edb
/// (snapshot::ResumeMinimalModel does); the remaining rounds charge
/// whatever governance `opts` carries, so the resumed run's charges plus
/// the snapshot's charges_at_barrier equal an uninterrupted run's total.
Result<Interpretation> EvalMinimalModelFrom(const Program& program,
                                            const Database& edb,
                                            const EvalOptions& opts,
                                            const snapshot::EvalSnapshot& resume);

}  // namespace awr::datalog

#endif  // AWR_DATALOG_LEASTMODEL_H_
