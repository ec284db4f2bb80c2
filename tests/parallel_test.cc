// Unit tests for the parallel-evaluation building blocks: the worker
// pool, the thread-safe governance shim, the sharded interner, extent
// partitioning, and the pre-built ValueSet index lifecycle.  The
// end-to-end model-identity and status-parity properties live in
// property_test.cc (ParallelVsSequentialDifferential and
// ParallelGovernance); this file covers the pieces in isolation —
// including the concurrency-stress cases scripts/tier1.sh runs under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "awr/common/context.h"
#include "awr/common/intern.h"
#include "awr/common/thread_pool.h"
#include "awr/datalog/database.h"
#include "awr/datalog/eval_core.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/parallel_eval.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/vm/vm.h"
#include "awr/value/value_set.h"

namespace awr {
namespace {

// ----------------------------------------------------------------------
// ThreadPool

TEST(ParallelPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  auto f = pool.Submit([] {});
  f.get();
}

TEST(ParallelPoolTest, OnWorkerThreadDistinguishesWorkers) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  ThreadPool pool(2);
  bool on_worker = false;
  pool.Submit([&on_worker] { on_worker = ThreadPool::OnWorkerThread(); }).get();
  EXPECT_TRUE(on_worker);
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

TEST(ParallelPoolTest, DestructorCompletesQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
    // Destructor joins after draining the queue.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelPoolTest, ThrowingTaskSurfacesAsFailedFuture) {
  ThreadPool pool(2);
  std::future<void> bad =
      pool.Submit([] { throw std::runtime_error("task exploded"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker survives: the pool keeps running ordinary tasks.
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 20);
  // Non-std exceptions are captured the same way.
  std::future<void> worse = pool.Submit([] { throw 42; });
  EXPECT_THROW(worse.get(), int);
}

TEST(ParallelPoolTest, ThrowingTasksDoNotDeadlockDestruction) {
  // Discarded futures of throwing tasks: nothing ever calls get(), so
  // the stored exceptions die with the shared states.  Destruction must
  // still drain the queue and join — neither a terminate() (the task
  // threw on a worker) nor a hang.
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([] { throw std::runtime_error("discarded"); });
    }
  }
  SUCCEED();
}

// ----------------------------------------------------------------------
// ParallelGovernor

TEST(ParallelGovernorTest, NullParentAlwaysPasses) {
  ParallelGovernor governor(nullptr);
  EXPECT_TRUE(governor.CheckInterrupt("x").ok());
  EXPECT_TRUE(governor.ChargeMemory(1u << 30, "x").ok());
}

TEST(ParallelGovernorTest, CancellationPropagatesWithContextMessage) {
  CancelSource source;
  ExecutionContext ctx;
  ctx.set_cancel_token(source.token());
  ParallelGovernor governor(&ctx);
  EXPECT_TRUE(governor.CheckInterrupt("body-match").ok());
  source.RequestCancel();
  Status st = governor.CheckInterrupt("body-match");
  EXPECT_TRUE(st.IsCancelled()) << st;
  // The fast path produces the same message format as the context's own
  // check; only the charge coordinate may differ, because fast-path
  // polls are uncounted while a direct context check charges first.
  EXPECT_EQ(st.message().rfind("body-match: cancelled by caller (round 0, "
                               "charge ",
                               0),
            0u)
      << st.message();
  Status direct = ctx.CheckInterrupt("body-match");
  EXPECT_EQ(direct.message(), "body-match: cancelled by caller (round 0, "
                              "charge 1)");
}

TEST(ParallelGovernorTest, FaultInjectorTripsAtExactCharge) {
  FaultInjector injector;
  injector.TripAt(3);
  ExecutionContext ctx;
  ctx.set_fault_injector(&injector);
  ParallelGovernor governor(&ctx);
  EXPECT_TRUE(governor.CheckInterrupt("a").ok());
  EXPECT_TRUE(governor.CheckInterrupt("b").ok());
  EXPECT_EQ(governor.CheckInterrupt("c").code(), StatusCode::kInternal);
  EXPECT_EQ(injector.charges_seen(), 3u);
}

TEST(ParallelGovernorTest, ConcurrentPollsTripExactlyOnce) {
  constexpr size_t kThreads = 4;
  constexpr size_t kPollsPerThread = 250;
  FaultInjector injector;
  injector.TripAt(kThreads * kPollsPerThread / 2);
  ExecutionContext ctx;
  ctx.set_fault_injector(&injector);
  ParallelGovernor governor(&ctx);

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&governor, &failures] {
      for (size_t i = 0; i < kPollsPerThread; ++i) {
        if (!governor.CheckInterrupt("poll").ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 1u);
  EXPECT_EQ(injector.charges_seen(), kThreads * kPollsPerThread);
}

// Regression test for the deadline-vs-cancel race: four threads poll a
// shared governor while the context's deadline expires mid-round AND a
// fifth thread concurrently requests cancellation.  Either interruption
// is a correct outcome; what must never happen is a data race (this is
// one of the cases scripts/tier1.sh runs under ThreadSanitizer), a
// missed interruption, or a status that is neither of the two.
TEST(ParallelGovernorTest, ConcurrentCancelWhileDeadlineExpires) {
  constexpr size_t kThreads = 4;
  constexpr int kRepeats = 25;
  for (int rep = 0; rep < kRepeats; ++rep) {
    CancelSource source;
    ExecutionContext ctx;
    ctx.set_cancel_token(source.token());
    ctx.set_deadline(ExecutionContext::Clock::now() +
                     std::chrono::microseconds(500 + 100 * (rep % 7)));
    ParallelGovernor governor(&ctx);

    std::vector<StatusCode> observed(kThreads, StatusCode::kOk);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&governor, &observed, t] {
        // Poll until interrupted; record what interrupted us.
        for (int i = 0; i < 2'000'000; ++i) {
          Status st = governor.CheckInterrupt("race-probe");
          if (!st.ok()) {
            observed[t] = st.code();
            return;
          }
        }
      });
    }
    // Race the cancellation against the expiring deadline.
    std::this_thread::sleep_for(std::chrono::microseconds(400));
    source.RequestCancel();
    for (auto& t : threads) t.join();

    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_TRUE(observed[t] == StatusCode::kCancelled ||
                  observed[t] == StatusCode::kDeadlineExceeded)
          << "rep " << rep << " thread " << t << " saw "
          << StatusCodeToString(observed[t]);
    }
  }
}

TEST(ParallelGovernorTest, ChargeMemoryForwardsToParent) {
  ExecutionContext ctx;
  ParallelGovernor governor(&ctx);
  EXPECT_TRUE(governor.ChargeMemory(12345, "merge").ok());
  EXPECT_EQ(ctx.high_water_bytes(), 12345u);
}

// ----------------------------------------------------------------------
// Sharded interner

TEST(ParallelInternerTest, ConcurrentInternOfSameStringsAgrees) {
  constexpr size_t kThreads = 8;
  constexpr size_t kStrings = 100;
  std::vector<std::vector<uint32_t>> ids(kThreads,
                                         std::vector<uint32_t>(kStrings));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (size_t i = 0; i < kStrings; ++i) {
        ids[t][i] = InternString("parallel-intern-shared-" + std::to_string(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]) << "thread " << t;
  }
  for (size_t i = 0; i < kStrings; ++i) {
    EXPECT_EQ(InternedString(ids[0][i]),
              "parallel-intern-shared-" + std::to_string(i));
  }
}

TEST(ParallelInternerTest, ConcurrentDistinctStringsRoundTrip) {
  constexpr size_t kThreads = 8;
  constexpr size_t kStrings = 200;
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ok] {
      for (size_t i = 0; i < kStrings; ++i) {
        std::string s = "parallel-intern-t" + std::to_string(t) + "-" +
                        std::to_string(i);
        uint32_t id = InternString(s);
        if (InternedString(id) != s || InternString(s) != id) ok = false;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok.load());
}

TEST(ParallelInternerTest, SizeCountsDistinctStrings) {
  size_t before = Interner::Global().size();
  InternString("parallel-intern-size-probe");
  InternString("parallel-intern-size-probe");
  EXPECT_EQ(Interner::Global().size(), before + 1);
}

// ----------------------------------------------------------------------
// Concurrent structural hash-consing (Value composites)
//
// Runs under TSan in tier1.sh.  Four threads race to intern identical
// tuples and sets; every thread must come back with the same canonical
// Rep (identity equality), and no insert may be lost: the interner's
// entry count grows by exactly the number of distinct structures.

TEST(ParallelValueInternTest, RacingIdenticalCompositesYieldOneCanonicalRep) {
  SetStructuralInterningForTesting(true);
  constexpr size_t kThreads = 4;
  constexpr size_t kShapes = 64;
  constexpr size_t kRounds = 8;
  std::vector<std::vector<const void*>> ids(
      kThreads, std::vector<const void*>(kShapes));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < kShapes; ++i) {
          const auto n = static_cast<int64_t>(i);
          Value tuple = Value::Tuple(
              {Value::Atom("race"), Value::Int(n),
               Value::Set({Value::Int(n), Value::Int(n + 1)})});
          if (round == 0) {
            ids[t][i] = tuple.identity();
          } else if (ids[t][i] != tuple.identity()) {
            ids[t][i] = nullptr;  // canonical identity drifted
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kShapes; ++i) {
      ASSERT_NE(ids[t][i], nullptr) << "thread " << t << " shape " << i;
      EXPECT_EQ(ids[t][i], ids[0][i]) << "thread " << t << " shape " << i;
    }
  }
}

TEST(ParallelValueInternTest, NoLostInsertsUnderContention) {
  SetStructuralInterningForTesting(true);
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 128;
  // All threads build the same kPerThread distinct structures (unique
  // to this test via the atom spelling), racing on every one.
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (size_t i = 0; i < kPerThread; ++i) {
        (void)Value::Tuple({Value::Atom("no-lost-inserts"),
                            Value::Set({Value::Int(static_cast<int64_t>(i))})});
      }
    });
  }
  for (auto& t : threads) t.join();
  // Sequential re-construction must be all hits: every structure is
  // resident exactly once.
  const Value::InternerStats before = Value::interner_stats();
  std::vector<const void*> first;
  for (size_t i = 0; i < kPerThread; ++i) {
    first.push_back(
        Value::Tuple({Value::Atom("no-lost-inserts"),
                      Value::Set({Value::Int(static_cast<int64_t>(i))})})
            .identity());
  }
  const Value::InternerStats after = Value::interner_stats();
  EXPECT_EQ(after.entries, before.entries) << "re-probe inserted new reps";
  EXPECT_GE(after.hits, before.hits + kPerThread);
  for (size_t i = 0; i < kPerThread; ++i) {
    EXPECT_EQ(
        first[i],
        Value::Tuple({Value::Atom("no-lost-inserts"),
                      Value::Set({Value::Int(static_cast<int64_t>(i))})})
            .identity());
  }
}

// ----------------------------------------------------------------------
// Extent partitioning

ValueSet IntExtent(int n) {
  ValueSet out;
  for (int i = 0; i < n; ++i) {
    out.Insert(Value::Tuple({Value::Int(i), Value::Int(i + 1)}));
  }
  return out;
}

TEST(ParallelPartitionTest, EmptyAndSmallExtentsStayWhole) {
  EXPECT_TRUE(datalog::PartitionExtent(ValueSet{}, 8).empty());
  // Below the grain, one chunk per 8 facts → a single part → no copy.
  EXPECT_TRUE(datalog::PartitionExtent(IntExtent(7), 8).empty());
  EXPECT_TRUE(datalog::PartitionExtent(IntExtent(100), 1).empty());
}

TEST(ParallelPartitionTest, ChunksAreDisjointAndCoverTheExtent) {
  ValueSet extent = IntExtent(100);
  std::vector<ValueSet> parts = datalog::PartitionExtent(extent, 4);
  ASSERT_EQ(parts.size(), 4u);
  ValueSet merged;
  size_t total = 0;
  for (const ValueSet& part : parts) {
    total += part.size();
    merged.InsertAll(part);
  }
  EXPECT_EQ(total, extent.size());  // disjoint: no double insertion
  EXPECT_EQ(merged, extent);
}

TEST(ParallelPartitionTest, GrainLimitsPartCount) {
  // 16 facts / grain 8 = at most 2 parts even when 8 are requested.
  std::vector<ValueSet> parts = datalog::PartitionExtent(IntExtent(16), 8);
  EXPECT_EQ(parts.size(), 2u);
}

// ----------------------------------------------------------------------
// ValueSet index lifecycle (pre-build for parallel regions)

TEST(ParallelIndexTest, BuildIndexIsIdempotentAndProbeReusesIt) {
  ValueSet extent = IntExtent(20);
  const std::vector<size_t> positions{0};
  extent.BuildIndex(positions);
  extent.BuildIndex(positions);
  EXPECT_EQ(extent.index_count(), 1u);
  const std::vector<Value>& bucket =
      extent.Probe(positions, Value::Tuple({Value::Int(7)}));
  ASSERT_EQ(bucket.size(), 1u);
  EXPECT_EQ(bucket[0], Value::Tuple({Value::Int(7), Value::Int(8)}));
  EXPECT_EQ(extent.index_count(), 1u);  // probe did not build another
}

TEST(ParallelIndexTest, PrebuiltIndexTracksLaterMutation) {
  ValueSet extent = IntExtent(5);
  extent.BuildIndex({1});
  extent.Insert(Value::Tuple({Value::Int(99), Value::Int(3)}));
  const std::vector<Value>& bucket =
      extent.Probe({1}, Value::Tuple({Value::Int(3)}));
  EXPECT_EQ(bucket.size(), 2u);  // the original <2,3> plus <99,3>
}

TEST(ParallelIndexTest, ConcurrentProbesOfPrebuiltIndexAreSafe) {
  ValueSet extent = IntExtent(64);
  const std::vector<size_t> positions{0};
  extent.BuildIndex(positions);
  ThreadPool pool(4);
  std::atomic<size_t> hits{0};
  std::vector<std::future<void>> futures;
  for (int t = 0; t < 8; ++t) {
    futures.push_back(pool.Submit([&extent, &positions, &hits] {
      for (int i = 0; i < 64; ++i) {
        hits += extent.Probe(positions, Value::Tuple({Value::Int(i)})).size();
      }
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(hits.load(), 8u * 64u);
}

// The driver-side VM pre-build also builds the full-arity index on the
// head extent that workers' word-level emit filter probes — including
// for rules with negation, like win-move.
TEST(ParallelIndexTest, PrepareVmFireBuildsKnownFactsIndex) {
  auto program = *datalog::ParseProgram("win(X) :- move(X, Y), not win(Y).");
  auto planned = datalog::PlanProgram(program);
  ASSERT_TRUE(planned.ok()) << planned.status();
  datalog::Interpretation interp;
  for (int i = 0; i < 6; ++i) {
    interp.AddFact("move", {Value::Int(i), Value::Int(i + 1)});
  }
  interp.AddFact("win", {Value::Int(4)});
  datalog::FunctionRegistry fns = datalog::FunctionRegistry::Default();
  datalog::BodyContext ctx{
      &fns,
      [&interp](const std::string& pred, size_t) -> const ValueSet& {
        return interp.Extent(pred);
      },
      [&interp](const std::string& pred, const Value& fact) {
        return !interp.Holds(pred, fact);
      }};
  ctx.use_bytecode = true;
  const ValueSet& known = interp.Extent("win");
  auto cr = datalog::vm::PrepareVmFire(planned->front(), ctx, &known);
  ASSERT_NE(cr, nullptr);
  EXPECT_TRUE(cr->infallible);
  // AWR_NO_COLUMNAR=1 disables the column stores process-wide.
  EXPECT_EQ(known.FindColumnIndex({0}) != nullptr, ColumnarStorageEnabled());
}

// ----------------------------------------------------------------------
// End-to-end: a caller-supplied pool drives the parallel path

TEST(ParallelEvalOptionsTest, ExternalPoolComputesTheSequentialModel) {
  auto tc = *datalog::ParseProgram(R"(
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- edge(X, Y), tc(Y, Z).
  )");
  datalog::Database edges;
  for (int i = 0; i < 30; ++i) {
    edges.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
  }
  datalog::EvalOptions seq;
  seq.num_threads = 1;
  auto oracle = datalog::EvalMinimalModel(tc, edges, seq);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  ThreadPool pool(4);
  datalog::EvalOptions par;
  par.num_threads = 1;  // pool takes precedence regardless
  par.pool = &pool;
  auto parallel = datalog::EvalMinimalModel(tc, edges, par);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(parallel->ToString(), oracle->ToString());
}

TEST(ParallelEvalOptionsTest, DefaultThreadsRespectsClampRange) {
  // Whatever AWR_EVAL_THREADS says, the resolved default is in [1, 64].
  size_t threads = datalog::DefaultEvalThreads();
  EXPECT_GE(threads, 1u);
  EXPECT_LE(threads, 64u);
}

}  // namespace
}  // namespace awr
