#ifndef AWR_DATALOG_EVAL_CORE_H_
#define AWR_DATALOG_EVAL_CORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "awr/common/context.h"
#include "awr/common/result.h"
#include "awr/datalog/ast.h"
#include "awr/datalog/database.h"
#include "awr/datalog/functions.h"
#include "awr/datalog/safety.h"

namespace awr::datalog {

/// A variable binding environment for one rule instantiation.
class Env {
 public:
  /// Returns the binding of `v`, or nullptr when unbound.
  const Value* Lookup(Var v) const {
    auto it = bindings_.find(v.id);
    return it == bindings_.end() ? nullptr : &it->second;
  }

  /// Binds `v` (must be unbound).
  void Bind(Var v, Value value) { bindings_.emplace(v.id, std::move(value)); }

  /// Removes the binding of `v`.
  void Unbind(Var v) { bindings_.erase(v.id); }

 private:
  std::unordered_map<uint32_t, Value> bindings_;
};

/// Evaluates a term under `env`.  Fails on unbound variables and on
/// interpreted-function errors.
Result<Value> EvalTerm(const TermExpr& term, const Env& env,
                       const FunctionRegistry& fns);

/// Process-wide default for BodyContext::use_bytecode /
/// EvalOptions::use_bytecode: true unless AWR_NO_BYTECODE is set to a
/// non-empty value other than "0" (the interpreter then remains the
/// oracle, as with AWR_NO_COLUMNAR / AWR_FORCE_SCAN_JOINS).
bool BytecodeEnabledByDefault();

/// The evaluation context abstracts *which* extents a rule body reads,
/// so the same join machinery serves naive, semi-naive, inflationary and
/// alternating-fixpoint evaluation:
///
///  * `positive_extent(pred, body_index)` — the extent a positive atom
///    at that body position scans (semi-naive substitutes the delta for
///    one occurrence at a time);
///  * `negation_holds(pred, fact)` — whether `not pred(fact)` is
///    satisfied.  The choice of this test is exactly the semantic knob
///    the paper turns: "was not derived so far" (inflationary) versus
///    "cannot be derived at all" (valid / well-founded).
///
/// Engines that test negation against a frozen interpretation J set
/// both `negation_holds` and `negated_extent` through
/// TestNegationAgainst, so the two cannot disagree.
struct BodyContext {
  const FunctionRegistry* fns;
  std::function<const ValueSet&(const std::string& pred, size_t body_index)>
      positive_extent;
  std::function<bool(const std::string& pred, const Value& fact)>
      negation_holds;
  /// Optional governance (borrowed): when set, the enumerator polls
  /// ExecutionContext::CheckInterrupt before delivering each body match,
  /// so cancellation and deadlines take effect inside a round, not just
  /// between rounds.
  ExecutionContext* context = nullptr;
  /// When true, positive atoms with bound argument positions probe the
  /// extent's hash index (ValueSet::Probe) instead of scanning it.  The
  /// scan path (false) computes the same matches and is kept alive as
  /// the differential-test oracle; see EvalOptions::use_join_index.
  bool use_join_index = true;
  /// Thread-safe governance for parallel rounds (borrowed).  When set it
  /// takes precedence over `context`: the enumerator polls the governor
  /// at exactly the per-match site where the sequential path polls the
  /// context, so the total number of interrupt polls per round is
  /// identical for every thread count (see ParallelGovernor).
  ParallelGovernor* governor = nullptr;
  /// When true, compiled programs open the loops of infallible rules
  /// over flat extents on word cursors — raw column words instead of
  /// Value rows (DESIGN.md §12); when false every loop opens on a row
  /// cursor, the differential oracle (AWR_NO_COLUMNAR=1 /
  /// EvalOptions::use_columnar = false).  Both cursor kinds deliver the
  /// same fact set and poll the interrupt hook once per body match.
  bool use_columnar = true;
  /// When true, FireRuleFacts executes rules through compiled bytecode
  /// programs (src/awr/datalog/vm/, DESIGN.md §14) instead of the
  /// tree-walking enumerator, with the same observable behavior; rules
  /// the VM declines fall back to the interpreter.  When false the
  /// interpreter runs every rule — the reference executor.
  bool use_bytecode = BytecodeEnabledByDefault();
  /// Optional: the extent of `pred` in the frozen interpretation J that
  /// `not pred(t)` is tested against, or nullptr when J has no facts
  /// (the well-founded I_0 = ∅).  When set, compiled programs resolve
  /// each negated atom's extent once per firing and test the raw
  /// argument words on its full-arity column index, building no tuple
  /// (DESIGN.md §14).  When unset, every test goes through
  /// `negation_holds`.  The interpreter always calls `negation_holds`,
  /// so the bytecode/interpreter differential cross-checks the two.
  /// The extents must not change while rules fire, and lazy column
  /// indexes are built on them on the calling thread.
  std::function<const ValueSet*(const std::string& pred)> negated_extent =
      nullptr;
};

/// Sets both negation members of `ctx` from one resolver: `not pred(t)`
/// holds iff `extent_of(pred)` is null or does not contain t.
void TestNegationAgainst(
    BodyContext& ctx,
    std::function<const ValueSet*(const std::string& pred)> extent_of);

/// Enumerates every satisfying assignment of `rule`'s body (processed in
/// `plan` order) and invokes `on_match(env)` for each.  A non-OK status
/// from the callback aborts the enumeration.
Status ForEachBodyMatch(const Rule& rule, const RulePlan& plan,
                        const BodyContext& ctx,
                        const std::function<Status(const Env&)>& on_match);

/// Evaluates the head atom's arguments under `env`, packing them as the
/// fact tuple.
Result<Value> EvalHead(const Rule& rule, const Env& env,
                       const FunctionRegistry& fns);

/// A rule paired with its precomputed evaluation plan.
struct PlannedRule {
  Rule rule;
  RulePlan plan;
  /// Compiled-plan cache fingerprint (vm::PlanCacheFingerprint), filled
  /// in by PlanProgram; 0 means "not yet computed" and the cache
  /// fingerprints on the fly.
  uint64_t cache_key = 0;
};

/// Plans every rule of `program`; fails if any rule is unsafe.
Result<std::vector<PlannedRule>> PlanProgram(const Program& program);

/// Fires `rule` once: enumerates its body matches and delivers the
/// derived head facts to `on_fact`.  Runs the rule's compiled program
/// (vm::ExecuteCompiledRule) when ctx.use_bytecode is set and the rule
/// lowers, else the tree-walking enumerator (ForEachBodyMatch +
/// EvalHead).  The interpreter delivers one fact per match (duplicates
/// included — the caller dedups); the VM's word-level emit path for
/// infallible rules additionally suppresses duplicate head projections
/// WITHIN the firing at the raw-word level, before any tuple is
/// materialized.  Since every caller treats duplicate facts as no-ops
/// (set insert / Holds check), the deliveries are observationally
/// equivalent: both poll the governor/context interrupt hook once per
/// match, so models, charge counts, and fault/deadline/cancel statuses
/// are identical.
///
/// `known` is an optional duplicate filter: an extent whose facts the
/// caller treats as already derived (the set backing its Holds check,
/// or any subset of it).  It MUST NOT change while the rule fires.  The
/// VM's word-level emit path then skips known facts by probing that
/// extent's full-arity column index — never materializing the tuple at
/// all; the interpreter ignores it (its callers' Holds checks already
/// dedup).  Since every skipped fact would have been a caller no-op,
/// delivery with and without `known` is observationally equivalent.
Status FireRuleFacts(const PlannedRule& planned, const BodyContext& ctx,
                     const std::function<Status(Value)>& on_fact,
                     const ValueSet* known = nullptr);

/// Process-wide counters of how much rule firing runs on word columns,
/// for the REPL's :stats and the benchmarks.  Updated atomically
/// (workers fire rules too).
struct ColumnarExecStats {
  uint64_t batch_rules_fired = 0;  ///< firings whose every loop opened
                                   ///< on a word cursor
  uint64_t row_rules_fired = 0;    ///< all other firings (interpreter
                                   ///< firings included)
  uint64_t batch_probes = 0;       ///< word-chain (column index) opens
  uint64_t batch_probe_hits = 0;   ///< word-chain opens with a match
  uint64_t batch_facts = 0;        ///< facts delivered by the word-level
                                   ///< emit path
};
ColumnarExecStats GetColumnarExecStats();
void ResetColumnarExecStats();
/// Adds one firing's tallies to the process-wide counters (the VM per
/// compiled firing, FireRuleFacts per interpreter firing).
void AddColumnarExecStats(const ColumnarExecStats& firing);

}  // namespace awr::datalog

#endif  // AWR_DATALOG_EVAL_CORE_H_
