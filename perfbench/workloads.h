#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// Seeded inputs of the workloads, the local op, and the reference
// configuration every answer is checked against.  README.md says why
// each workload was chosen.

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "awr/common/result.h"
#include "awr/datalog/database.h"
#include "awr/datalog/leastmodel.h"
#include "awr/service/protocol.h"
#include "stats.h"

namespace perfbench {

namespace datalog = awr::datalog;
namespace service = awr::service;

/// splitmix64: the one generator every seeded input is drawn from.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  int Between(int lo, int hi) {
    return lo + static_cast<int>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }

 private:
  uint64_t state_;
};

/// Program and EDB as text, the way a user or awrd sees them.
struct TextInputs {
  service::Semantics semantics = service::Semantics::kMinimalModel;
  std::string program;
  std::string edb;
};

/// wfs_game: well-founded win-move over a random 10,000-position game
/// (out-degree 0..2) plus 156 disjoint 2-cycles.
TextInputs MakeWfsGame(uint64_t seed);

/// The games a wfs_game run cycles through.  A game's alternation depth,
/// and with it the cost of an op, varies by about +-20% from game to
/// game (45 to 87 rounds); the mean over 16 games still spreads by 5.5%
/// (IQR / median of the mean rounds over seeds 0-99), over 64 games by
/// 3.0%, so one run's figures stay comparable with another's.
inline constexpr int kWfsGames = 64;
std::vector<TextInputs> WfsGames(uint64_t seed);

/// The awrd request mix (bench_service's classes, sized per request).
enum class RequestClass { kTcChain = 0, kReachIsland = 1, kWinMove = 2 };
inline constexpr int kRequestClasses = 3;
const char* RequestClassName(RequestClass c);

/// One request's content; `size` is the class's size parameter.  The
/// key names the content, so a reference answer is computed once per
/// distinct content.
struct RequestShape {
  RequestClass cls = RequestClass::kTcChain;
  int size = 0;
  int key() const { return static_cast<int>(cls) * 64 + size; }
};
/// Half TC chains of 12..24 edges, a quarter stratified reach/island, a
/// quarter well-founded win-move.
RequestShape DrawRequestShape(Rng& rng);
/// Every shape DrawRequestShape can return.
std::vector<RequestShape> AllRequestShapes();
service::SubmitRequest MakeRequest(const RequestShape& shape, std::string id);

/// An evaluated model: two-valued, or three-valued for wellfounded.
using Model = std::variant<datalog::Interpretation, datalog::ThreeValuedInterp>;

/// What the correctness gate compares.
struct Answer {
  uint64_t facts = 0;        ///< true facts, plus undefined ones for WFS
  uint64_t fingerprint = 0;  ///< FNV-1a of the rendered model
  uint64_t charges = 0;      ///< ExecutionContext::total_charges
  uint64_t rounds = 0;       ///< ExecutionContext::rounds

  bool operator==(const Answer& o) const {
    return facts == o.facts && fingerprint == o.fingerprint &&
           charges == o.charges && rounds == o.rounds;
  }
};

/// The rendered model (ResultRecord::model's form).
std::string RenderModel(const Model& model);
uint64_t CountFacts(const Model& model);

/// Runs the engine `inputs.semantics` names on parsed inputs.
awr::Result<Model> Evaluate(service::Semantics semantics,
                            const datalog::Program& program,
                            const datalog::Database& edb,
                            const datalog::EvalOptions& opts);

/// One local op: parse program and EDB text, evaluate under `opts` with
/// a fresh ExecutionContext (which it attaches), and report charges and
/// rounds through the out-parameters.  With a span log, the parse and
/// the engine call are spans under `parent`.
awr::Result<Model> RunLocalOp(const TextInputs& inputs,
                              datalog::EvalOptions opts, uint64_t* charges,
                              uint64_t* rounds, SpanLog* log = nullptr,
                              int64_t parent = -1);

/// The shipped defaults (what every timed op runs).
datalog::EvalOptions ShippedOptions();
/// The reference configuration: scan joins, row storage, the
/// tree-walking interpreter, one thread.
datalog::EvalOptions ReferenceOptions();

/// The answer under the reference configuration.
awr::Result<Answer> ReferenceAnswer(const TextInputs& inputs);

/// Expected answers stored with the benchmark, keyed by (workload, seed,
/// input index).  One line per entry: workload seed input facts
/// fingerprint charges rounds.
using ExpectedKey = std::tuple<std::string, uint64_t, size_t>;
using ExpectedTable = std::map<ExpectedKey, Answer>;
ExpectedTable LoadExpected(const std::string& path);
bool WriteExpected(const std::string& path, const ExpectedTable& table);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
