// Parity pins for the least-model loop's borrowed base (DESIGN.md §2,
// §9): the loop reads every predicate that no rule of the call derives
// straight from the engine's one copy of the EDB, and keeps only the
// head predicates' extents as its own state.  The cases below cover
// the places where that split is easy to get wrong:
//   * negated EDB predicates under WFS — the first alternation step
//     tests `not e(t)` against I_0 = ∅, so it holds for EDB facts too
//     (`never` is derived in that step only);
//   * a predicate with both EDB facts and rules (its extent starts as
//     the EDB's facts, under all three engines);
//   * a three-stratum stratified program (negation reads the
//     pre-stratum base);
//   * win-move, with undefined positions.
// For each one the rendered model (both halves of a 3-valued model,
// empty extents included), the governance figures — total charges,
// rounds and the memory high-water mark — and the bytes of every
// every-barrier checkpoint are pinned to constants recorded from the
// copying loop the split replaced, at 1 and 4 threads.  Every capture must also round-trip
// through the codec and resume to the same model with charge parity.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "awr/common/context.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/stratified.h"
#include "awr/datalog/wellfounded.h"
#include "awr/snapshot/resume.h"
#include "awr/snapshot/snapshot.h"
#include "awr/snapshot/state.h"
#include "awr/value/value_codec.h"

namespace awr {
namespace {

using datalog::Database;
using datalog::EvalOptions;
using datalog::Program;
using snapshot::EvalSnapshot;

enum class Engine { kMinimal, kStratified, kWellFounded };

struct Case {
  const char* name;
  Engine engine;
  const char* program;
  const char* facts;
};

/// The figures a run must reproduce.
struct Pinned {
  std::string model;
  size_t charges;
  size_t rounds;
  size_t high_water_bytes;
  uint64_t captures;
  uint64_t snapshot_hash;  ///< FNV-1a over every capture's bytes, in order
};

constexpr const char* kNegatedEdbProgram = R"(
  p(X) :- d(X), not e(X).
  q(X) :- d(X), not p(X).
  never(X) :- e(X), d(X), not d(X).
)";
constexpr const char* kNegatedEdbFacts = R"(
  d(1). d(2). d(3). d(4). d(5). d(6).
  e(2). e(4). e(7).
)";

constexpr const char* kMixedProgram = R"(
  tc(X, Y) :- edge(X, Y).
  tc(X, Z) :- tc(X, Y), edge(Y, Z).
)";
constexpr const char* kMixedFacts = R"(
  edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 2). edge(5, 6).
  tc(9, 9). tc(6, 1).
)";

constexpr const char* kThreeStrataProgram = R"(
  reach(X, Y) :- edge(X, Y).
  reach(X, Z) :- reach(X, Y), edge(Y, Z).
  unreach(X, Y) :- node(X), node(Y), not reach(X, Y).
  partial(X) :- unreach(X, Y).
  total(X) :- node(X), not partial(X).
)";
constexpr const char* kThreeStrataFacts = R"(
  node(1). node(2). node(3). node(4).
  edge(1, 2). edge(2, 3). edge(3, 1). edge(3, 4).
  reach(4, 4).
)";

constexpr const char* kWinMoveProgram = "win(X) :- move(X, Y), not win(Y).";
constexpr const char* kWinMoveFacts = R"(
  move(a, b). move(b, c). move(c, d). move(d, e).
  move(f, g). move(g, f).
  move(h, i). move(i, j). move(j, h). move(j, k).
  move(l, l). move(l, m).
)";

const std::vector<Case>& Cases() {
  static const std::vector<Case> cases = {
      {"negated_edb_wfs", Engine::kWellFounded, kNegatedEdbProgram,
       kNegatedEdbFacts},
      {"mixed_minimal", Engine::kMinimal, kMixedProgram, kMixedFacts},
      {"mixed_stratified", Engine::kStratified, kMixedProgram, kMixedFacts},
      {"mixed_wfs", Engine::kWellFounded, kMixedProgram, kMixedFacts},
      {"three_strata_stratified", Engine::kStratified, kThreeStrataProgram,
       kThreeStrataFacts},
      {"three_strata_wfs", Engine::kWellFounded, kThreeStrataProgram,
       kThreeStrataFacts},
      {"win_move_wfs", Engine::kWellFounded, kWinMoveProgram, kWinMoveFacts},
  };
  return cases;
}

/// The figures the copying loop produced for each case (identical at 1
/// and 4 threads and under every oracle switch).
const Pinned& PinnedFor(const std::string& name) {
  static const std::map<std::string, Pinned> pinned = {
      {"negated_edb_wfs",
       {"certain:\n"
        "d = {<1>, <2>, <3>, <4>, <5>, <6>}\n"
        "e = {<2>, <4>, <7>}\n"
        "p = {<1>, <3>, <5>, <6>}\n"
        "q = {<2>, <4>}\n"
        "possible:\n"
        "d = {<1>, <2>, <3>, <4>, <5>, <6>}\n"
        "e = {<2>, <4>, <7>}\n"
        "p = {<1>, <3>, <5>, <6>}\n"
        "q = {<2>, <4>}\n",
        54, 12, 6392, 8, 0xac1ddc7e93808169ull}},
      {"mixed_minimal",
       {"edge = {<1, 2>, <2, 3>, <3, 4>, <4, 2>, <5, 6>}\n"
        "tc = {<1, 2>, <1, 3>, <1, 4>, <2, 2>, <2, 3>, <2, 4>, <3, 2>, <3, 3>, <3, 4>, <4, 2>, <4, 3>, <4, 4>, <5, 6>, <6, 1>, <6, 2>, <6, 3>, <6, 4>, <9, 9>}\n",
        32, 4, 4992, 4, 0xbab01ccb21c549c6ull}},
      {"mixed_stratified",
       {"edge = {<1, 2>, <2, 3>, <3, 4>, <4, 2>, <5, 6>}\n"
        "tc = {<1, 2>, <1, 3>, <1, 4>, <2, 2>, <2, 3>, <2, 4>, <3, 2>, <3, 3>, <3, 4>, <4, 2>, <4, 3>, <4, 4>, <5, 6>, <6, 1>, <6, 2>, <6, 3>, <6, 4>, <9, 9>}\n",
        32, 4, 4992, 4, 0xdd09446e0d1152c8ull}},
      {"mixed_wfs",
       {"certain:\n"
        "edge = {<1, 2>, <2, 3>, <3, 4>, <4, 2>, <5, 6>}\n"
        "tc = {<1, 2>, <1, 3>, <1, 4>, <2, 2>, <2, 3>, <2, 4>, <3, 2>, <3, 3>, <3, 4>, <4, 2>, <4, 3>, <4, 4>, <5, 6>, <6, 1>, <6, 2>, <6, 3>, <6, 4>, <9, 9>}\n"
        "possible:\n"
        "edge = {<1, 2>, <2, 3>, <3, 4>, <4, 2>, <5, 6>}\n"
        "tc = {<1, 2>, <1, 3>, <1, 4>, <2, 2>, <2, 3>, <2, 4>, <3, 2>, <3, 3>, <3, 4>, <4, 2>, <4, 3>, <4, 4>, <5, 6>, <6, 1>, <6, 2>, <6, 3>, <6, 4>, <9, 9>}\n",
        66, 10, 4992, 8, 0xbe4846802eed577eull}},
      {"three_strata_stratified",
       {"edge = {<1, 2>, <2, 3>, <3, 1>, <3, 4>}\n"
        "node = {<1>, <2>, <3>, <4>}\n"
        "partial = {<4>}\n"
        "reach = {<1, 1>, <1, 2>, <1, 3>, <1, 4>, <2, 1>, <2, 2>, <2, 3>, <2, 4>, <3, 1>, <3, 2>, <3, 3>, <3, 4>, <4, 4>}\n"
        "total = {<1>, <2>, <3>}\n"
        "unreach = {<4, 1>, <4, 2>, <4, 3>}\n",
        49, 9, 5909, 9, 0xe3ca39f2e9cd2b1eull}},
      {"three_strata_wfs",
       {"certain:\n"
        "edge = {<1, 2>, <2, 3>, <3, 1>, <3, 4>}\n"
        "node = {<1>, <2>, <3>, <4>}\n"
        "partial = {<4>}\n"
        "reach = {<1, 1>, <1, 2>, <1, 3>, <1, 4>, <2, 1>, <2, 2>, <2, 3>, <2, 4>, <3, 1>, <3, 2>, <3, 3>, <3, 4>, <4, 4>}\n"
        "total = {<1>, <2>, <3>}\n"
        "unreach = {<4, 1>, <4, 2>, <4, 3>}\n"
        "possible:\n"
        "edge = {<1, 2>, <2, 3>, <3, 1>, <3, 4>}\n"
        "node = {<1>, <2>, <3>, <4>}\n"
        "partial = {<4>}\n"
        "reach = {<1, 1>, <1, 2>, <1, 3>, <1, 4>, <2, 1>, <2, 2>, <2, 3>, <2, 4>, <3, 1>, <3, 2>, <3, 3>, <3, 4>, <4, 4>}\n"
        "total = {<1>, <2>, <3>}\n"
        "unreach = {<4, 1>, <4, 2>, <4, 3>}\n",
        172, 20, 10218, 16, 0x5e9550d72a15e48bull}},
      {"win_move_wfs",
       {"certain:\n"
        "move = {<a, b>, <b, c>, <c, d>, <d, e>, <f, g>, <g, f>, <h, i>, <i, j>, <j, h>, <j, k>, <l, l>, <l, m>}\n"
        "win = {<b>, <d>, <h>, <j>, <l>}\n"
        "possible:\n"
        "move = {<a, b>, <b, c>, <c, d>, <d, e>, <f, g>, <g, f>, <h, i>, <i, j>, <j, h>, <j, k>, <l, l>, <l, m>}\n"
        "win = {<b>, <d>, <f>, <g>, <h>, <j>, <l>}\n",
        77, 18, 5154, 12, 0xf2a485068af35c00ull}},
  };
  return pinned.at(name);
}

/// Records every capture, in order.
class RecordingSink : public snapshot::CheckpointSink {
 public:
  void Store(EvalSnapshot s) override {
    history.push_back(s);
    CheckpointSink::Store(std::move(s));
  }
  std::vector<EvalSnapshot> history;
};

std::string RenderModel(const datalog::Interpretation& interp) {
  return interp.ToString();
}

std::string RenderModel(const datalog::ThreeValuedInterp& model) {
  return "certain:\n" + model.certain.ToString() + "possible:\n" +
         model.possible.ToString();
}

/// Evaluates (or, with `resume`, continues) `c` and renders the model.
Result<std::string> Evaluate(const Case& c, const Program& program,
                             const Database& edb, const EvalOptions& opts,
                             const EvalSnapshot* resume) {
  switch (c.engine) {
    case Engine::kMinimal: {
      auto r = resume != nullptr
                   ? snapshot::ResumeMinimalModel(program, edb, *resume, opts)
                   : datalog::EvalMinimalModel(program, edb, opts);
      if (!r.ok()) return r.status();
      return RenderModel(*r);
    }
    case Engine::kStratified: {
      auto r = resume != nullptr
                   ? snapshot::ResumeStratified(program, edb, *resume, opts)
                   : datalog::EvalStratified(program, edb, opts);
      if (!r.ok()) return r.status();
      return RenderModel(*r);
    }
    case Engine::kWellFounded: {
      auto r = resume != nullptr
                   ? snapshot::ResumeWellFounded(program, edb, *resume, opts)
                   : datalog::EvalWellFounded(program, edb, opts);
      if (!r.ok()) return r.status();
      return RenderModel(*r);
    }
  }
  return Status::Internal("unknown engine");
}

struct Observed {
  std::string model;
  size_t charges = 0;
  size_t rounds = 0;
  size_t high_water_bytes = 0;
  std::vector<EvalSnapshot> captures;
};

/// One governed run with every-barrier checkpointing, from scratch or
/// (with `resume`) from a capture.  The disarmed injector routes every
/// poll through the context's counter, so the charge total is the same
/// at every thread count.
Observed RunCase(const Case& c, size_t threads,
                 const EvalSnapshot* resume = nullptr) {
  Observed out;
  auto program = datalog::ParseProgram(c.program);
  auto edb = datalog::ParseFacts(c.facts);
  EXPECT_TRUE(program.ok()) << program.status();
  EXPECT_TRUE(edb.ok()) << edb.status();
  if (!program.ok() || !edb.ok()) return out;
  FaultInjector injector;
  ExecutionContext ctx;
  ctx.set_fault_injector(&injector);
  RecordingSink sink;
  EvalOptions opts;
  opts.num_threads = threads;
  opts.context = &ctx;
  opts.checkpoint.every_n_rounds = 1;
  opts.checkpoint.sink = &sink;
  auto model = Evaluate(c, *program, *edb, opts, resume);
  EXPECT_TRUE(model.ok()) << c.name << ": " << model.status();
  if (!model.ok()) return out;
  out.model = *model;
  out.charges = ctx.total_charges();
  out.rounds = ctx.rounds();
  out.high_water_bytes = ctx.high_water_bytes();
  out.captures = std::move(sink.history);
  return out;
}

std::vector<uint8_t> Bytes(const EvalSnapshot& s) {
  auto bytes = snapshot::Serialize(s);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::vector<uint8_t>{};
}

uint64_t SnapshotHash(const std::vector<EvalSnapshot>& captures) {
  uint64_t h = kFnvOffsetBasis;
  for (const EvalSnapshot& s : captures) {
    std::vector<uint8_t> bytes = Bytes(s);
    h = Fnv1a(bytes.data(), bytes.size(), h);
  }
  return h;
}

TEST(BorrowedBaseParity, ModelsChargesAndCapturesMatchPinnedFigures) {
  for (const Case& c : Cases()) {
    const Pinned& want = PinnedFor(c.name);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(std::string(c.name) + " threads=" + std::to_string(threads));
      Observed got = RunCase(c, threads);
      EXPECT_EQ(got.model, want.model);
      EXPECT_EQ(got.charges, want.charges);
      EXPECT_EQ(got.rounds, want.rounds);
      EXPECT_EQ(got.high_water_bytes, want.high_water_bytes);
      EXPECT_EQ(got.captures.size(), want.captures);
      EXPECT_EQ(SnapshotHash(got.captures), want.snapshot_hash);
    }
  }
}

// Every capture survives the codec byte-for-byte, resumes to the pinned
// model with charge parity, and the resumed run's own captures are the
// original run's later captures (charge coordinates rebased onto the
// interrupted run's), byte for byte.
TEST(BorrowedBaseParity, EveryBarrierCheckpointRoundTripsAndResumes) {
  for (const Case& c : Cases()) {
    const Pinned& want = PinnedFor(c.name);
    Observed full = RunCase(c, 1);
    ASSERT_EQ(full.captures.size(), want.captures) << c.name;
    for (size_t i = 0; i < full.captures.size(); ++i) {
      SCOPED_TRACE(std::string(c.name) + " capture " + std::to_string(i));
      const std::vector<uint8_t> bytes = Bytes(full.captures[i]);
      auto loaded = snapshot::Deserialize(bytes);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_EQ(Bytes(*loaded), bytes);

      Observed resumed = RunCase(c, 1, &*loaded);
      EXPECT_EQ(resumed.model, want.model);
      EXPECT_EQ(loaded->charges_at_barrier + resumed.charges, want.charges);
      ASSERT_EQ(resumed.captures.size(), full.captures.size() - i - 1);
      for (size_t j = 0; j < resumed.captures.size(); ++j) {
        EvalSnapshot rebased = resumed.captures[j];
        rebased.charges_at_barrier += loaded->charges_at_barrier;
        EXPECT_EQ(Bytes(rebased), Bytes(full.captures[i + 1 + j]))
            << "resumed capture " << j;
      }
    }
  }
}

}  // namespace
}  // namespace awr
