#include "layers.h"

#include <functional>

#include "awr/common/context.h"
#include "awr/datalog/depgraph.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/safety.h"
#include "awr/datalog/vm/bytecode.h"
#include "awr/snapshot/snapshot.h"
#include "awr/value/value_set.h"

namespace perfbench {

using awr::Result;
using awr::Status;
using awr::Value;
using awr::ValueSet;

namespace {

double MsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e6; }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Times `fn` under a span named `name`.
template <typename Fn>
double TimedMs(SpanLog* log, const char* name, int64_t parent,
               const std::string& op, Fn&& fn) {
  ScopedSpan span(log, name, parent, op);
  const int64_t t0 = NowNs();
  fn();
  return MsSince(t0);
}

const datalog::Interpretation& TrueFacts(const Model& model) {
  if (const auto* two = std::get_if<datalog::Interpretation>(&model)) return *two;
  return std::get<datalog::ThreeValuedInterp>(model).certain;
}

const datalog::Interpretation& AllFacts(const Model& model) {
  if (const auto* two = std::get_if<datalog::Interpretation>(&model)) return *two;
  return std::get<datalog::ThreeValuedInterp>(model).possible;
}

}  // namespace

LayerCounters LayerCounters::Now() {
  return {datalog::vm::GetVmExecStats(), datalog::GetColumnarExecStats(),
          Value::interner_stats()};
}

LayerCounters LayerCounters::Since(const LayerCounters& b) const {
  LayerCounters d;
  d.vm.vm_rules_fired = vm.vm_rules_fired - b.vm.vm_rules_fired;
  d.vm.ops_dispatched = vm.ops_dispatched - b.vm.ops_dispatched;
  d.vm.word_opens = vm.word_opens - b.vm.word_opens;
  d.vm.row_opens = vm.row_opens - b.vm.row_opens;
  d.vm.vm_facts = vm.vm_facts - b.vm.vm_facts;
  d.vm.cache_hits = vm.cache_hits - b.vm.cache_hits;
  d.vm.cache_misses = vm.cache_misses - b.vm.cache_misses;
  d.columnar.batch_rules_fired =
      columnar.batch_rules_fired - b.columnar.batch_rules_fired;
  d.columnar.row_rules_fired = columnar.row_rules_fired - b.columnar.row_rules_fired;
  d.columnar.batch_probes = columnar.batch_probes - b.columnar.batch_probes;
  d.columnar.batch_probe_hits =
      columnar.batch_probe_hits - b.columnar.batch_probe_hits;
  d.columnar.batch_facts = columnar.batch_facts - b.columnar.batch_facts;
  d.interner.entries = interner.entries - b.interner.entries;
  d.interner.hits = interner.hits - b.interner.hits;
  d.interner.misses = interner.misses - b.interner.misses;
  return d;
}

Result<LayerProfile> ProfileEvaluation(const TextInputs& inputs, SpanLog* log,
                                       int64_t parent, const std::string& op) {
  LayerProfile p;
  Result<datalog::Program> program = Status::Internal("unparsed");
  Result<datalog::Database> edb = Status::Internal("unparsed");
  p.parse_ms = TimedMs(log, "parser.parse", parent, op, [&] {
    program = datalog::ParseProgram(inputs.program);
    edb = datalog::ParseFacts(inputs.edb);
  });
  if (!program.ok()) return program.status();
  if (!edb.ok()) return edb.status();

  Status safe;
  p.safety_ms = TimedMs(log, "safety.check", parent, op,
                        [&] { safe = datalog::CheckProgramSafe(*program); });
  if (!safe.ok()) return safe;
  p.stratify_ms = TimedMs(log, "depgraph.stratify", parent, op,
                          [&] { (void)datalog::Stratify(*program); });
  Result<std::vector<datalog::PlannedRule>> planned = Status::Internal("unplanned");
  p.plan_ms = TimedMs(log, "eval_core.plan", parent, op,
                      [&] { planned = datalog::PlanProgram(*program); });
  if (!planned.ok()) return planned.status();
  Status lowered;
  p.lower_ms = TimedMs(log, "vm.lower", parent, op, [&] {
    for (const datalog::PlannedRule& rule : *planned) {
      auto cr = datalog::vm::LowerRule(rule.rule, rule.plan, {});
      if (!cr.ok()) lowered = cr.status();
    }
  });
  if (!lowered.ok()) return lowered;

  // The engine call, as a timed op makes it.
  datalog::EvalOptions opts = ShippedOptions();
  awr::ExecutionContext ctx(opts.limits);
  opts.context = &ctx;
  Result<Model> model = Status::Internal("unevaluated");
  const LayerCounters before = LayerCounters::Now();
  p.eval_ms = TimedMs(log, "engine.eval", parent, op, [&] {
    model = Evaluate(inputs.semantics, *program, *edb, opts);
  });
  p.eval_counters = LayerCounters::Now().Since(before);
  if (!model.ok()) return model.status();
  p.rounds = ctx.rounds();
  p.charges = ctx.total_charges();
  p.facts_out = CountFacts(*model);
  p.new_facts = p.facts_out - edb->TotalFacts();

  // Every planned rule fired once over the final model; the interrupt
  // poll runs once per body match, so the context counts matches.
  {
    const datalog::Interpretation& truth = TrueFacts(*model);
    datalog::FunctionRegistry fns = datalog::FunctionRegistry::Default();
    awr::ExecutionContext replay_ctx;
    datalog::BodyContext body{
        &fns,
        [&truth](const std::string& pred, size_t) -> const ValueSet& {
          return truth.Extent(pred);
        },
        [&truth](const std::string& pred, const Value& fact) {
          return !truth.Holds(pred, fact);
        },
        &replay_ctx, /*use_join_index=*/true};
    Status fired;
    p.replay_ms = TimedMs(log, "fire.replay", parent, op, [&] {
      for (const datalog::PlannedRule& rule : *planned) {
        Status st = datalog::FireRuleFacts(rule, body,
                                           [](Value) { return Status::OK(); });
        if (!st.ok()) fired = st;
      }
    });
    if (!fired.ok()) return fired;
    p.replay_matches = replay_ctx.total_charges();
  }

  // The op's facts re-inserted into, then probed in, a fresh ValueSet.
  {
    std::vector<Value> facts;
    for (const auto& [pred, extent] : AllFacts(*model)) {
      facts.insert(facts.end(), extent.begin(), extent.end());
    }
    ValueSet set;
    const double n = static_cast<double>(facts.size());
    p.insert_ns = 1e6 * TimedMs(log, "value_set.insert", parent, op, [&] {
                    for (const Value& v : facts) set.Insert(v);
                  }) / n;
    size_t found = 0;
    p.contains_ns = 1e6 * TimedMs(log, "value_set.contains", parent, op, [&] {
                      for (const Value& v : facts) found += set.Contains(v);
                    }) / n;
    if (found != facts.size()) return Status::Internal("value_set lost facts");
    p.bytes_per_fact = Ratio(static_cast<double>(set.approx_bytes()), n);
  }

  // awrd's checkpoint period: a capture every 8 rounds.
  {
    datalog::EvalOptions with_sink = ShippedOptions();
    awr::ExecutionContext sink_ctx(with_sink.limits);
    with_sink.context = &sink_ctx;
    awr::snapshot::CheckpointSink sink;
    with_sink.checkpoint.sink = &sink;
    with_sink.checkpoint.every_n_rounds = 8;
    with_sink.checkpoint.on_interrupt = true;
    Result<Model> again = Status::Internal("unevaluated");
    p.capture_overhead_ms =
        TimedMs(log, "snapshot.capture", parent, op, [&] {
          again = Evaluate(inputs.semantics, *program, *edb, with_sink);
        }) - p.eval_ms;
    if (!again.ok()) return again.status();
    if (sink.latest.has_value()) {
      Result<std::vector<uint8_t>> bytes = Status::Internal("unserialized");
      p.serialize_ms = TimedMs(log, "snapshot.serialize", parent, op, [&] {
        bytes = awr::snapshot::Serialize(*sink.latest);
      });
      if (!bytes.ok()) return bytes.status();
      p.snapshot_bytes = bytes->size();
      Result<awr::snapshot::EvalSnapshot> back = Status::Internal("undecoded");
      p.deserialize_ms = TimedMs(log, "snapshot.deserialize", parent, op, [&] {
        back = awr::snapshot::Deserialize(*bytes);
      });
      if (!back.ok()) return back.status();
    }
  }
  return p;
}

void AppendEvaluationMetrics(const std::vector<LayerProfile>& profiles,
                             const LayerCounters& w, uint64_t ops,
                             std::vector<Metric>* out) {
  auto median = [&](const std::function<double(const LayerProfile&)>& field) {
    std::vector<double> v;
    for (const LayerProfile& p : profiles) v.push_back(field(p));
    return Median(std::move(v));
  };
  auto sum = [&](const std::function<double(const LayerProfile&)>& field) {
    double s = 0;
    for (const LayerProfile& p : profiles) s += field(p);
    return s;
  };
  const double per_op = ops == 0 ? 0.0 : 1.0 / static_cast<double>(ops);
  auto add = [out](const char* name, double value, const char* unit) {
    out->push_back({name, value, unit});
  };

  add("parser.parse_ms", median([](auto& p) { return p.parse_ms; }), "ms");
  add("safety.check_ms", median([](auto& p) { return p.safety_ms; }), "ms");
  add("depgraph.stratify_ms", median([](auto& p) { return p.stratify_ms; }), "ms");
  add("eval_core.plan_ms", median([](auto& p) { return p.plan_ms; }), "ms");

  add("vm.lower_ms", median([](auto& p) { return p.lower_ms; }), "ms");
  add("vm.cache_hit_rate",
      Ratio(w.vm.cache_hits, w.vm.cache_hits + w.vm.cache_misses), "ratio");
  add("vm.rules_fired", w.vm.vm_rules_fired * per_op, "count/op");
  add("vm.ops_per_fact", Ratio(w.vm.ops_dispatched, w.vm.vm_facts), "ratio");
  add("vm.word_open_share",
      Ratio(w.vm.word_opens, w.vm.word_opens + w.vm.row_opens), "ratio");

  add("columnar.batch_fire_share",
      Ratio(w.columnar.batch_rules_fired,
            w.columnar.batch_rules_fired + w.columnar.row_rules_fired),
      "ratio");
  add("columnar.probes", w.columnar.batch_probes * per_op, "count/op");
  add("columnar.probe_hit_rate",
      Ratio(w.columnar.batch_probe_hits, w.columnar.batch_probes), "ratio");

  add("engine.eval_ms", median([](auto& p) { return p.eval_ms; }), "ms");
  add("engine.rounds", median([](auto& p) { return double(p.rounds); }), "count");
  add("engine.charges", median([](auto& p) { return double(p.charges); }), "count");
  add("engine.facts_out", median([](auto& p) { return double(p.facts_out); }),
      "count");
  add("engine.emitted_per_new_fact",
      Ratio(sum([](auto& p) {
              return double(p.eval_counters.vm.vm_facts +
                            p.eval_counters.columnar.batch_facts);
            }),
            sum([](auto& p) { return double(p.new_facts); })),
      "ratio");

  add("fire.replay_ms", median([](auto& p) { return p.replay_ms; }), "ms");
  add("fire.ns_per_match",
      Ratio(1e6 * sum([](auto& p) { return p.replay_ms; }),
            sum([](auto& p) { return double(p.replay_matches); })),
      "ns");

  add("value_set.insert_ns", median([](auto& p) { return p.insert_ns; }), "ns");
  add("value_set.contains_ns", median([](auto& p) { return p.contains_ns; }), "ns");
  add("value_set.bytes_per_fact", median([](auto& p) { return p.bytes_per_fact; }),
      "B");

  add("interner.hit_rate",
      Ratio(w.interner.hits, w.interner.hits + w.interner.misses), "ratio");
  add("interner.entries_delta", static_cast<double>(w.interner.entries) * per_op,
      "count/op");

  add("snapshot.capture_overhead_ms",
      median([](auto& p) { return p.capture_overhead_ms; }), "ms");
  add("snapshot.serialize_ms", median([](auto& p) { return p.serialize_ms; }), "ms");
  add("snapshot.deserialize_ms", median([](auto& p) { return p.deserialize_ms; }),
      "ms");
  add("snapshot.bytes", median([](auto& p) { return double(p.snapshot_bytes); }),
      "B");
}

}  // namespace perfbench
