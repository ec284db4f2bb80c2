#ifndef AWR_DATALOG_VM_VM_H_
#define AWR_DATALOG_VM_VM_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "awr/datalog/eval_core.h"
#include "awr/datalog/vm/bytecode.h"

namespace awr::datalog::vm {

/// Executes one firing of a compiled rule under `ctx`: enumerates every
/// body match, polling CheckInterrupt("body-match") once per match, and
/// delivers each derived head fact to `on_fact`.  Exactly the row
/// enumerator's observable behavior (see the parity contract in
/// bytecode.h); word-level cursors may reorder deliveries, so they are
/// lowered for infallible rules only.  `allow_build` gates lazy
/// columnar builds exactly like FireRuleFacts (false on pool workers,
/// which only read pre-built state and otherwise fall back to
/// row-level cursors).
///
/// `known` is the optional word-level duplicate filter with
/// FireRuleFacts' contract: an extent whose facts the caller treats as
/// already derived, immutable while the rule fires.  For infallible
/// rules the emit handler then suppresses duplicate head projections
/// within the firing and skips facts already in `known` — at the raw
/// word level, before the tuple is ever materialized (every skipped
/// delivery would have been a caller no-op; the per-match interrupt
/// poll still fires).
///
/// When ctx.negated_extent is set, each negated atom's extent in J and
/// its full-arity column index are resolved once per firing, and
/// `not p(t)` is tested on the raw argument words where it can be
/// (DESIGN.md §14); VmExecStats counts word-level and tuple-level
/// tests.
///
/// Each firing also feeds the process-wide ColumnarExecStats: a word
/// firing when every loop it opened was a word cursor, its word-chain
/// opens and how many of them matched, and its word-level emits.
///
/// `cr` must have passed VerifyCompiledRule (LowerRule and
/// DecodeProgram both guarantee it): the dispatch loop performs no
/// bounds checks of its own.
Status ExecuteCompiledRule(const CompiledRule& cr, const BodyContext& ctx,
                           const std::function<Status(Value)>& on_fact,
                           bool allow_build,
                           const ValueSet* known = nullptr);

/// Driver-side pre-build for parallel rounds (the columnar analogue of
/// ValueSet::BuildIndex pre-building): resolves (lowering on first use)
/// the compiled program for `planned` from the global cache and
/// materializes the column stores/indexes its word-capable steps would
/// read — plus, for infallible rules, the full-arity index on `known`
/// that the emit path's duplicate filter probes, and the full-arity
/// index on each negated atom's extent in J — so workers execute with
/// const reads only.  Returns the program, or nullptr when the
/// rule is not lowerable.
std::shared_ptr<const CompiledRule> PrepareVmFire(const PlannedRule& planned,
                                                  const BodyContext& ctx,
                                                  const ValueSet* known);

/// Process-wide VM counters for the REPL's :stats, awrd stats and the
/// benchmarks.  Execution counters are updated atomically (workers run
/// compiled programs too); cache counters are snapshots of the global
/// CompiledPlanCache.
struct VmExecStats {
  uint64_t vm_rules_fired = 0;   ///< firings served by compiled programs
  uint64_t ops_dispatched = 0;   ///< bytecode instructions executed
  uint64_t word_opens = 0;       ///< loops opened on word-level cursors
  uint64_t row_opens = 0;        ///< loops opened on row-level cursors
  uint64_t vm_facts = 0;         ///< facts emitted by compiled programs
  /// Negated-atom tests answered without building a tuple: an empty J,
  /// or a probe of J's full-arity column index with the raw words.
  uint64_t neg_word_tests = 0;
  /// Negated-atom tests answered on a built tuple (hash-set lookup in J
  /// or BodyContext::negation_holds).
  uint64_t neg_row_tests = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_entries = 0;
  uint64_t programs_lowered = 0;
  uint64_t lower_failures = 0;
};
VmExecStats GetVmExecStats();
void ResetVmExecStats();

}  // namespace awr::datalog::vm

#endif  // AWR_DATALOG_VM_VM_H_
