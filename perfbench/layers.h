#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Per-layer measurements of the traced run, taken from outside: the
// benchmark times calls into each layer's public functions and reads the
// counters the layers already export.  Nothing here changes what a
// timed op does.

#include <cstdint>
#include <string>
#include <vector>

#include "awr/datalog/eval_core.h"
#include "awr/datalog/vm/vm.h"
#include "awr/value/value.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

/// The process-global counters the evaluation layers export.
struct LayerCounters {
  datalog::vm::VmExecStats vm;
  datalog::ColumnarExecStats columnar;
  awr::Value::InternerStats interner;

  static LayerCounters Now();
  /// Growth since `before` of the fields the metrics read (the others
  /// are left 0).  Interner entries are a level; its difference is the
  /// growth too.
  LayerCounters Since(const LayerCounters& before) const;
};

/// One evaluation taken apart layer by layer.
struct LayerProfile {
  double parse_ms = 0;     ///< ParseProgram + ParseFacts
  double safety_ms = 0;    ///< CheckProgramSafe
  double stratify_ms = 0;  ///< Stratify (fails fast on win-move; timed anyway)
  double plan_ms = 0;      ///< PlanProgram
  double lower_ms = 0;     ///< cold vm::LowerRule over the planned rules
  double eval_ms = 0;      ///< the engine call on parsed inputs
  uint64_t rounds = 0;
  uint64_t charges = 0;
  uint64_t facts_out = 0;
  uint64_t new_facts = 0;  ///< facts_out minus EDB facts
  LayerCounters eval_counters;  ///< counter growth during the engine call
  double replay_ms = 0;    ///< FireRuleFacts per planned rule, final model
  uint64_t replay_matches = 0;
  double insert_ns = 0;    ///< per fact, into a fresh ValueSet
  double contains_ns = 0;  ///< per fact
  double bytes_per_fact = 0;
  double capture_overhead_ms = 0;  ///< eval with a checkpoint every 8 rounds, minus eval_ms
  double serialize_ms = 0;  ///< last captured snapshot; 0 when none
  double deserialize_ms = 0;
  uint64_t snapshot_bytes = 0;
};

/// Profiles one evaluation of `inputs` under the shipped defaults,
/// recording a span per layer call under `parent` when `log` is set.
awr::Result<LayerProfile> ProfileEvaluation(const TextInputs& inputs,
                                            SpanLog* log, int64_t parent,
                                            const std::string& op);

/// Named per-layer metric values.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The evaluation-layer metrics (parser through snapshot) from a set of
/// profiles and the counter growth over `ops` timed ops.
void AppendEvaluationMetrics(const std::vector<LayerProfile>& profiles,
                             const LayerCounters& window, uint64_t ops,
                             std::vector<Metric>* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
