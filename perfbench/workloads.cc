#include "workloads.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "awr/common/context.h"
#include "awr/datalog/inflationary.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/safety.h"
#include "awr/datalog/stratified.h"
#include "awr/datalog/wellfounded.h"
#include "awr/value/value_codec.h"

namespace perfbench {

using awr::Result;
using awr::Status;
using service::Semantics;

namespace {

std::string Fact(const char* pred, const std::string& a, const std::string& b) {
  return std::string(pred) + "(" + a + "," + b + ").\n";
}

}  // namespace

TextInputs MakeWfsGame(uint64_t seed) {
  constexpr int kPositions = 10000;
  constexpr int kTwoCycles = 156;
  Rng rng(seed ^ 0x3f5000000000ull);
  TextInputs in;
  in.semantics = Semantics::kWellFounded;
  in.program = "win(X) :- move(X, Y), not win(Y).\n";
  for (int i = 0; i < kPositions; ++i) {
    const uint64_t degree = rng.Below(3);
    for (uint64_t d = 0; d < degree; ++d) {
      in.edb += Fact("move", std::to_string(i),
                     std::to_string(rng.Below(kPositions)));
    }
  }
  for (int c = 0; c < kTwoCycles; ++c) {
    const std::string a = std::to_string(kPositions + 2 * c);
    const std::string b = std::to_string(kPositions + 2 * c + 1);
    in.edb += Fact("move", a, b) + Fact("move", b, a);
  }
  return in;
}

std::vector<TextInputs> WfsGames(uint64_t seed) {
  std::vector<TextInputs> games;
  for (uint64_t g = 0; g < kWfsGames; ++g) games.push_back(MakeWfsGame(seed * 64 + g));
  return games;
}

const char* RequestClassName(RequestClass c) {
  switch (c) {
    case RequestClass::kTcChain:
      return "tc_chain";
    case RequestClass::kReachIsland:
      return "reach_island";
    case RequestClass::kWinMove:
      return "win_move";
  }
  return "?";
}

namespace {

// Size range of each request class, indexed by RequestClass.
constexpr int kMinSize[kRequestClasses] = {12, 8, 6};
constexpr int kMaxSize[kRequestClasses] = {24, 14, 10};

RequestShape DrawShapeOf(RequestClass cls, Rng& rng) {
  const int c = static_cast<int>(cls);
  return {cls, rng.Between(kMinSize[c], kMaxSize[c])};
}

}  // namespace

RequestShape DrawRequestShape(Rng& rng) {
  const uint64_t quarter = rng.Below(4);
  if (quarter < 2) return DrawShapeOf(RequestClass::kTcChain, rng);
  if (quarter == 2) return DrawShapeOf(RequestClass::kReachIsland, rng);
  return DrawShapeOf(RequestClass::kWinMove, rng);
}

std::vector<RequestShape> AllRequestShapes() {
  std::vector<RequestShape> all;
  for (int c = 0; c < kRequestClasses; ++c) {
    for (int size = kMinSize[c]; size <= kMaxSize[c]; ++size) {
      all.push_back({static_cast<RequestClass>(c), size});
    }
  }
  return all;
}

service::SubmitRequest MakeRequest(const RequestShape& shape, std::string id) {
  service::SubmitRequest req;
  req.id = std::move(id);
  const int n = shape.size;
  switch (shape.cls) {
    case RequestClass::kTcChain:
      req.semantics = Semantics::kMinimalModel;
      req.program =
          "path(X,Y) :- edge(X,Y).\n"
          "path(X,Z) :- edge(X,Y), path(Y,Z).\n";
      for (int i = 0; i < n; ++i) {
        req.edb += Fact("edge", std::to_string(i), std::to_string(i + 1));
      }
      break;
    case RequestClass::kReachIsland:
      req.semantics = Semantics::kStratified;
      req.program =
          "reach(X) :- source(X).\n"
          "reach(Y) :- reach(X), edge(X,Y).\n"
          "island(X) :- node(X), not reach(X).\n";
      req.edb = "source(0).\n";
      for (int i = 0; i <= n + 4; ++i) {
        req.edb += "node(" + std::to_string(i) + ").\n";
      }
      for (int i = 0; i < n; ++i) {
        req.edb += Fact("edge", std::to_string(i), std::to_string(i + 1));
      }
      break;
    case RequestClass::kWinMove:
      req.semantics = Semantics::kWellFounded;
      req.program = "win(X) :- move(X,Y), not win(Y).\n";
      for (int i = 0; i < n; ++i) {
        req.edb += Fact("move", "n" + std::to_string(i),
                        "n" + std::to_string(i + 1));
      }
      req.edb += "move(n1,n0).\n";
      break;
  }
  return req;
}

std::string RenderModel(const Model& model) {
  return std::visit([](const auto& m) { return m.ToString(); }, model);
}

uint64_t CountFacts(const Model& model) {
  if (const auto* two = std::get_if<datalog::Interpretation>(&model)) {
    return two->TotalFacts();
  }
  return std::get<datalog::ThreeValuedInterp>(model).possible.TotalFacts();
}

Result<Model> Evaluate(Semantics semantics, const datalog::Program& program,
                       const datalog::Database& edb,
                       const datalog::EvalOptions& opts) {
  auto wrap = [](auto r) -> Result<Model> {
    if (!r.ok()) return r.status();
    return Model(*std::move(r));
  };
  switch (semantics) {
    case Semantics::kMinimalModel:
      return wrap(datalog::EvalMinimalModel(program, edb, opts));
    case Semantics::kInflationary:
      return wrap(datalog::EvalInflationary(program, edb, opts));
    case Semantics::kStratified:
      return wrap(datalog::EvalStratified(program, edb, opts));
    case Semantics::kWellFounded:
      return wrap(datalog::EvalWellFounded(program, edb, opts));
  }
  return Status::InvalidArgument("unknown semantics");
}

Result<Model> RunLocalOp(const TextInputs& inputs, datalog::EvalOptions opts,
                         uint64_t* charges, uint64_t* rounds, SpanLog* log,
                         int64_t parent) {
  Result<datalog::Program> program = Status::Internal("unparsed");
  Result<datalog::Database> edb = Status::Internal("unparsed");
  {
    ScopedSpan span(log, "parser.parse", parent);
    program = datalog::ParseProgram(inputs.program);
    edb = datalog::ParseFacts(inputs.edb);
  }
  if (!program.ok()) return program.status();
  if (!edb.ok()) return edb.status();
  awr::ExecutionContext ctx(opts.limits);
  opts.context = &ctx;
  Result<Model> model = Status::Internal("unevaluated");
  {
    ScopedSpan span(log, "engine.eval", parent);
    model = Evaluate(inputs.semantics, *program, *edb, opts);
  }
  *charges = ctx.total_charges();
  *rounds = ctx.rounds();
  return model;
}

datalog::EvalOptions ShippedOptions() { return datalog::EvalOptions{}; }

datalog::EvalOptions ReferenceOptions() {
  datalog::EvalOptions opts;
  opts.use_join_index = false;
  opts.use_columnar = false;
  opts.use_bytecode = false;
  opts.num_threads = 1;
  return opts;
}

Result<Answer> ReferenceAnswer(const TextInputs& inputs) {
  Answer a;
  auto model = RunLocalOp(inputs, ReferenceOptions(), &a.charges, &a.rounds);
  if (!model.ok()) return model.status();
  a.facts = CountFacts(*model);
  a.fingerprint = awr::Fnv1a(RenderModel(*model));
  return a;
}

ExpectedTable LoadExpected(const std::string& path) {
  ExpectedTable table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    uint64_t seed = 0;
    size_t input = 0;
    Answer a;
    if (fields >> workload >> seed >> input >> a.facts >> std::hex >>
        a.fingerprint >> std::dec >> a.charges >> a.rounds) {
      table[{workload, seed, input}] = a;
    }
  }
  return table;
}

bool WriteExpected(const std::string& path, const ExpectedTable& table) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "# Expected answers under the reference configuration; "
               "regenerate with `python3 perfbench/run.py --self-check`.\n"
               "# workload seed input facts fingerprint(hex) charges rounds\n");
  for (const auto& [key, a] : table) {
    std::fprintf(out, "%s %" PRIu64 " %zu %" PRIu64 " %016" PRIx64 " %" PRIu64
                      " %" PRIu64 "\n",
                 std::get<0>(key).c_str(), std::get<1>(key), std::get<2>(key),
                 a.facts, a.fingerprint, a.charges, a.rounds);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
