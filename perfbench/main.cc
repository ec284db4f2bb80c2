// The canonical awr benchmark.  Usage (normally through run.py):
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--expected <table>] [--out <dir>] [--rev <source id>]
//   perfbench --self-check --expected <table>
//
// A run sets up several times, measures one window of --seconds
// (--trace 0: end-to-end metrics) or an untraced and a traced half
// window plus per-layer profiles (--trace 1), checks every answer
// against the reference configuration, and prints one JSON result as
// its last line.  README.md documents the workloads and metrics.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "awr/value/value_codec.h"
#include "awrd_load.h"
#include "layers.h"
#include "stats.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetups = 9;       // set-ups per run; setup_s is their median
// The seeds whose wfs_game answers expected.tsv holds.
constexpr uint64_t kExpectedSeeds = 100;
constexpr int kProfileReps = 3;  // layer profiles per local traced run
constexpr double kSliceSeconds = 1;  // awrd windows are summarized per slice
constexpr double kStorageProbeSeconds = 2;  // durable probe of awrd_memory
// Untimed load between the set-ups and the measuring window.  On a
// shared host the first seconds of load run measurably slower (awrd
// p99 1.4-2.5 ms against 1.0 ms later); the window starts after them.
constexpr double kWarmupSeconds = 3;
// awrd's peak_rss_mb is taken when this many requests have completed
// (7 to 15 s into a window at 22K to 11K req/s), or at the window's end.
constexpr uint64_t kRssMarkRequests = 200'000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string expected = "perfbench/expected.tsv";
  std::string out = ".bench_out";
  std::string rev = "unknown";
  bool self_check = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      a->self_check = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (flag == "--expected") {
      a->expected = v;
    } else if (flag == "--out") {
      a->out = v;
    } else if (flag == "--rev") {
      a->rev = v;
    } else {
      return false;
    }
  }
  return true;
}

/// Every number must be of the shipped defaults: refuse any AWR_* knob.
bool EnvironmentIsClean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "AWR_", 4) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      clean = false;
    }
  }
  return clean;
}

/// What a run hands back for printing.
struct RunOutput {
  OpTally tally;
  std::vector<Metric> metrics;
  std::string notes;  // extra report fields, as `"key": value, ...`
};

void AddEndToEndMetrics(double throughput, double p50_ms, double p99_ms,
                        size_t samples, size_t p99_beyond, bool p99_resolved,
                        const std::vector<double>& setup_s, double rss_mb,
                        RunOutput* out) {
  out->metrics.push_back({"throughput_ops_s", throughput, "1/s"});
  out->metrics.push_back({"latency_ms_p50", p50_ms, "ms"});
  out->metrics.push_back({"latency_ms_p99", p99_ms, "ms"});
  out->metrics.push_back({"setup_s", Median(setup_s), "s"});
  out->metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"samples\": %zu, \"p99_beyond\": %zu, \"p99_resolved\": %s, "
                "\"setups\": %zu, ",
                samples, p99_beyond, p99_resolved ? "true" : "false",
                setup_s.size());
  out->notes += buf;
}

// ---------------------------------------------------------------------
// wfs_game: one op = parse program and EDB text, evaluate.

struct LocalWindow {
  std::vector<double> latency_ms;
  /// (input index, answer) per completed op, checked after the run.
  std::vector<std::pair<size_t, Answer>> answers;
  OpTally tally;
};

/// Runs ops for `seconds`, cycling through `inputs` from `first_op` on.
LocalWindow RunLocalWindow(const std::vector<TextInputs>& inputs,
                           double seconds, SpanLog* log, uint64_t first_op) {
  LocalWindow w;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t op = first_op; NowNs() < deadline; ++op) {
    const size_t input = op % inputs.size();
    Answer a;
    ++w.tally.attempted;
    const int64_t t0 = NowNs();
    awr::Result<Model> model = awr::Status::Internal("not run");
    {
      ScopedSpan span(log, "op", -1, std::to_string(op));
      model = RunLocalOp(inputs[input], ShippedOptions(), &a.charges, &a.rounds,
                         log, span.index());
    }
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    if (!model.ok()) {
      ++w.tally.failed;
      continue;
    }
    w.latency_ms.push_back(ms);
    // Outside the timed interval: what the correctness gate compares.
    a.facts = CountFacts(*model);
    a.fingerprint = awr::Fnv1a(RenderModel(*model));
    w.answers.emplace_back(input, a);
  }
  return w;
}

/// The window's op latencies grouped by input.
std::vector<std::vector<double>> PerInput(const LocalWindow& w, size_t inputs) {
  std::vector<std::vector<double>> groups(inputs);
  for (size_t i = 0; i < w.latency_ms.size(); ++i) {
    groups[w.answers[i].first].push_back(w.latency_ms[i]);
  }
  return groups;
}

/// Ops per second of op time (the checks between ops are not counted),
/// each input weighted equally: a window ends part way through a pass
/// over the inputs, and the inputs differ in cost.
double LocalThroughput(const LocalWindow& w, size_t inputs) {
  double mean_ms = 0;
  size_t seen = 0;
  for (const std::vector<double>& group : PerInput(w, inputs)) {
    if (group.empty()) continue;
    double ms = 0;
    for (double x : group) ms += x;
    mean_ms += ms / static_cast<double>(group.size());
    ++seen;
  }
  return mean_ms == 0 ? 0 : 1e3 * static_cast<double>(seen) / mean_ms;
}

awr::Status RunLocal(const Args& args, int64_t process_start, SpanLog* log,
                     RunOutput* out) {
  std::vector<double> setup_s;
  std::vector<TextInputs> inputs;
  LocalWindow warm;  // the warm-up ops, checked like the others
  for (int k = 0; k < kSetups; ++k) {
    const int64_t t0 = k == 0 ? process_start : NowNs();
    inputs = WfsGames(args.seed);
    Answer a;
    auto model = RunLocalOp(inputs[0], ShippedOptions(), &a.charges, &a.rounds);
    if (!model.ok()) return model.status();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    a.facts = CountFacts(*model);
    a.fingerprint = awr::Fnv1a(RenderModel(*model));
    warm.answers.emplace_back(0, a);
    ++warm.tally.attempted;
  }
  std::vector<LocalWindow> windows;
  windows.push_back(std::move(warm));
  windows.push_back(RunLocalWindow(inputs, kWarmupSeconds, nullptr, 0));

  const LayerCounters before = LayerCounters::Now();
  windows.push_back(RunLocalWindow(
      inputs, args.trace ? args.seconds / 2 : args.seconds, nullptr, 0));
  const double rss_mb = PeakRssMb();
  const LayerCounters counters = LayerCounters::Now().Since(before);
  const uint64_t main_ops = windows.back().latency_ms.size();
  const double untraced = LocalThroughput(windows.back(), inputs.size());

  if (!args.trace) {
    // Percentiles per input, then the median over inputs.
    const SlicedWindow s = SummarizeGroups(PerInput(windows.back(), inputs.size()));
    AddEndToEndMetrics(untraced, s.p50_ms, s.p99_ms, s.samples, s.min_p99_beyond,
                       s.p99_resolved, setup_s, rss_mb, out);
  } else {
    windows.push_back(RunLocalWindow(inputs, args.seconds / 2, log, main_ops));
    const double with_spans = LocalThroughput(windows.back(), inputs.size());
    std::vector<LayerProfile> profiles;
    for (int r = 0; r < kProfileReps; ++r) {
      const std::string op = "profile-" + std::to_string(r);
      ScopedSpan root(log, "profile", -1, op);
      auto profile = ProfileEvaluation(inputs[r % inputs.size()], log,
                                       root.index(), op);
      if (!profile.ok()) return profile.status();
      profiles.push_back(*profile);
    }
    AppendEvaluationMetrics(profiles, counters, main_ops, &out->metrics);
    AppendServiceMetrics(nullptr, nullptr, nullptr, &out->metrics);
    out->metrics.push_back({"trace.throughput_ops_s", with_spans, "1/s"});
    out->metrics.push_back({"trace.overhead_share",
                            untraced == 0 ? 0 : (untraced - with_spans) / untraced,
                            "ratio"});
  }

  // The correctness gate: every op's answer against the stored expected
  // answer, or against the reference configuration when the table has
  // no entry for this seed.
  const ExpectedTable table = LoadExpected(args.expected);
  std::vector<Answer> expected;
  bool from_table = true;
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto it = table.find({args.workload, args.seed, i});
    if (it != table.end()) {
      expected.push_back(it->second);
      continue;
    }
    from_table = false;
    auto ref = ReferenceAnswer(inputs[i]);
    if (!ref.ok()) return ref.status();
    expected.push_back(*ref);
  }
  out->notes += from_table ? "\"expected_from\": \"table\", "
                           : "\"expected_from\": \"reference run\", ";
  for (const LocalWindow& w : windows) {
    out->tally.Add(w.tally);
    for (const auto& [input, a] : w.answers) {
      out->tally.wrong += a == expected[input] ? 0 : 1;
    }
  }
  return awr::Status::OK();
}

// ---------------------------------------------------------------------
// awrd workloads.

SlicedWindow Slice(const AwrdWindow& w) {
  const double seconds = static_cast<double>(w.end_ns - w.start_ns) / 1e9;
  return SliceWindow(w.done, w.start_ns, w.end_ns,
                     std::max(1, static_cast<int>(seconds / kSliceSeconds)));
}

awr::Status RunAwrd(const Args& args, int64_t process_start, SpanLog* log,
                    RunOutput* out) {
  AwrdOptions opts;
  opts.seed = args.seed;
  opts.sessions = static_cast<int>(
      std::min<unsigned>(4, std::max(1u, std::thread::hardware_concurrency())));
  opts.work_dir = args.out;
  opts.setups = kSetups;
  opts.rss_mark_requests = kRssMarkRequests;
  AwrdBench bench(opts);
  auto setup = bench.SetUp(process_start);
  if (!setup.ok()) return setup.status();

  out->tally.Add(bench.Run(kWarmupSeconds, nullptr).tally);
  const AwrdWindow main =
      bench.Run(args.trace ? args.seconds / 2 : args.seconds, nullptr);
  // In-memory results are never evicted, so RSS grows with every request
  // served; taken at a fixed request count it does not grow with speed.
  const bool marked = bench.rss_mb_at_mark() > 0;
  const double rss_mb = marked ? bench.rss_mb_at_mark() : PeakRssMb();
  out->notes += std::string("\"rss_at\": \"") +
                (marked ? std::to_string(kRssMarkRequests) + " requests"
                        : std::string("window end")) +
                "\", ";
  out->tally.Add(main.tally);
  // QueryService::Stats() before and after the window, as differences.
  std::string delta;
  for (const auto& [name, value] : main.stats_delta.counters) {
    if (!delta.empty()) delta += ", ";
    delta += "\"" + JsonEscape(name) + "\": " +
             std::to_string(static_cast<int64_t>(value));
  }
  out->notes += "\"sessions\": " + std::to_string(opts.sessions) +
                ", \"replays_sent\": " + std::to_string(main.replays_sent) +
                ", \"stats_delta\": {" + delta + "}, ";

  if (!args.trace) {
    const SlicedWindow s = Slice(main);
    AddEndToEndMetrics(s.throughput, s.p50_ms, s.p99_ms, s.samples,
                       s.min_p99_beyond, s.p99_resolved, *setup, rss_mb, out);
  } else {
    const AwrdWindow traced = bench.Run(args.seconds / 2, log);
    out->tally.Add(traced.tally);
    std::vector<LayerProfile> profiles;
    auto service = bench.ProfileLayers(log, &profiles);
    if (!service.ok()) return service.status();
    // Storage is measured on a short probe of the same traffic against
    // a durable server.
    AwrdOptions disk = opts;
    disk.durable = true;
    disk.setups = 1;
    AwrdBench durable(disk);
    auto started = durable.SetUp(NowNs());
    if (!started.ok()) return started.status();
    const AwrdWindow probe = durable.Run(kStorageProbeSeconds, log);
    durable.TearDown();
    out->tally.Add(probe.tally);
    AppendEvaluationMetrics(profiles, main.counters, main.done.size(),
                            &out->metrics);
    AppendServiceMetrics(&main, &*service, &probe,
                         &out->metrics);
    const double untraced = Slice(main).throughput;
    const double with_spans = Slice(traced).throughput;
    out->metrics.push_back({"trace.throughput_ops_s", with_spans, "1/s"});
    out->metrics.push_back({"trace.overhead_share",
                            untraced == 0 ? 0 : (untraced - with_spans) / untraced,
                            "ratio"});
  }
  bench.TearDown();
  return awr::Status::OK();
}

// ---------------------------------------------------------------------

/// Regenerates the expected answers from the reference configuration and
/// checks the shipped defaults against them.
int SelfCheck(const Args& args) {
  struct Job {
    ExpectedKey key;
    TextInputs inputs;
  };
  std::vector<Job> jobs;
  for (uint64_t seed = 0; seed < kExpectedSeeds; ++seed) {
    std::vector<TextInputs> inputs = WfsGames(seed);
    for (size_t i = 0; i < inputs.size(); ++i) {
      jobs.push_back({{"wfs_game", seed, i}, std::move(inputs[i])});
    }
  }
  ExpectedTable table;
  std::mutex mu;
  size_t next = 0;
  bool ok = true;
  auto worker = [&] {
    for (;;) {
      const Job* job = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next == jobs.size()) return;
        job = &jobs[next++];
      }
      auto ref = ReferenceAnswer(job->inputs);
      Answer shipped;
      auto model = RunLocalOp(job->inputs, ShippedOptions(), &shipped.charges,
                              &shipped.rounds);
      if (model.ok()) {
        shipped.facts = CountFacts(*model);
        shipped.fingerprint = awr::Fnv1a(RenderModel(*model));
      }
      std::lock_guard<std::mutex> lock(mu);
      const auto& [workload, seed, input] = job->key;
      if (!ref.ok() || !model.ok() || !(shipped == *ref)) {
        std::fprintf(stderr,
                     "%s seed %lu input %zu: the shipped defaults and the "
                     "reference configuration disagree or fail\n",
                     workload.c_str(), static_cast<unsigned long>(seed), input);
        ok = false;
        continue;
      }
      table[job->key] = *ref;
    }
  };
  std::vector<std::thread> threads;
  const unsigned n = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  for (unsigned i = 0; i < n; ++i) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  if (!ok) return 1;
  if (!WriteExpected(args.expected, table)) {
    std::fprintf(stderr, "cannot write %s\n", args.expected.c_str());
    return 1;
  }
  std::printf("wrote %zu expected answers to %s\n", table.size(),
              args.expected.c_str());
  return 0;
}

std::string ResultLine(const RunOutput& out, bool correct) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.tally.attempted);
  line += ", \"failed\": " + std::to_string(out.tally.errors());
  line += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out.metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + out.metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + out.metrics[i].unit +
            "\"}";
  }
  return line + "}}";
}

int Main(int argc, char** argv) {
  const int64_t process_start = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "perfbench: bad arguments (see main.cc)\n");
    return 2;
  }
  if (!EnvironmentIsClean()) return 2;
  if (args.self_check) return SelfCheck(args);
  const bool local = args.workload == "wfs_game";
  if (!local && args.workload != "awrd_memory") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.out.c_str());
    return 2;
  }

  SpanLog spans;
  SpanLog* log = args.trace ? &spans : nullptr;
  RunOutput out;
  awr::Status st = local ? RunLocal(args, process_start, log, &out)
                         : RunAwrd(args, process_start, log, &out);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  }
  std::string trace_path;
  if (log != nullptr) {
    log->LinkByOp({"client.request", "server.submit", "executor.execute",
                   "client.roundtrip"});
    trace_path = args.out + "/trace-" + args.workload + "-" +
                 std::to_string(args.seed) + ".json";
    if (!log->WriteJson(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }

  const bool correct = out.tally.errors() == 0;
  std::printf(
      "{\"report\": {\"workload\": \"%s\", \"seed\": %lu, \"seconds\": %g, "
      "\"trace\": %d, %s\"error_rate\": %.17g, \"failed\": %lu, \"refused\": %lu, "
      "\"wrong\": %lu, \"nproc\": %u, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"rev\": \"%s\", \"trace_file\": \"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long>(args.seed), args.seconds,
      args.trace ? 1 : 0, out.notes.c_str(), out.tally.ErrorRate(),
      static_cast<unsigned long>(out.tally.failed),
      static_cast<unsigned long>(out.tally.refused),
      static_cast<unsigned long>(out.tally.wrong),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      JsonEscape(args.rev).c_str(), JsonEscape(trace_path).c_str());
  std::printf("%s\n", ResultLine(out, correct).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
