#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles with their sample counts,
// the error tally behind error_rate, and the span log of the traced run
// with per-layer self time.  Covered by stats_test.cc.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile of a sample, with the counts that say whether the
/// sample supports it.  `beyond` is the number of samples strictly
/// above `value`; a percentile with fewer than kMinBeyond of them is
/// unresolved (its value is still reported, flagged).
struct Percentile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
  bool resolved = false;
};

inline constexpr size_t kMinBeyond = 10;

/// The q-quantile (0 <= q <= 1) of `samples`, interpolating linearly
/// between closest ranks (position q * (n - 1) in sorted order).  An
/// empty sample gives value 0, unresolved.
Percentile ComputePercentile(std::vector<double> samples, double q);

/// A window's latencies cut into groups (equal time slices, or the
/// inputs a run cycles through), each summarized on its own, the figures
/// reported as medians over the groups: a burst of host noise in one
/// slice, or the one heaviest input, then moves no figure.
struct SlicedWindow {
  double throughput = 0;  ///< completions per second
  double p50_ms = 0;
  double p99_ms = 0;
  size_t samples = 0;         ///< completions in all groups
  size_t min_p99_beyond = 0;  ///< fewest samples beyond one group's p99
  bool p99_resolved = false;  ///< every group's p99 is resolved
};

/// `done` holds (completion time, latency in ms) per op; [start_ns,
/// end_ns) is cut into `slices` slices by completion time.
SlicedWindow SliceWindow(const std::vector<std::pair<int64_t, double>>& done,
                         int64_t start_ns, int64_t end_ns, int slices);

/// The latency part of SlicedWindow over any grouping of the samples:
/// medians over groups of each group's p50 and p99.  Empty groups are
/// skipped.  Throughput is left 0.
SlicedWindow SummarizeGroups(std::vector<std::vector<double>> groups);

/// Ops attempted and the three ways one can go wrong.  error_rate counts
/// all three against the attempts.
struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;   ///< the call returned a non-OK status
  uint64_t refused = 0;  ///< shed or rejected by the server
  uint64_t wrong = 0;    ///< completed, but the answer did not check out

  uint64_t errors() const { return failed + refused + wrong; }
  double ErrorRate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(errors()) /
                                static_cast<double>(attempted);
  }
  void Add(const OpTally& other) {
    attempted += other.attempted;
    failed += other.failed;
    refused += other.refused;
    wrong += other.wrong;
  }
};

/// Nanoseconds on the steady clock; spans and latencies share it.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One traced call into a layer.  `parent` indexes the span that caused
/// it (-1: none); `op` names the op (local op number or awrd request
/// id) so spans recorded on other threads can be linked to it.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  std::string op;
};

/// The part of [start, end) not covered by any child interval.  Children
/// may overlap each other and stick out of the parent; only the union of
/// their parts inside the parent is subtracted.
int64_t SelfTimeNs(int64_t start, int64_t end,
                   std::vector<std::pair<int64_t, int64_t>> children);

/// In-memory span log, written out once at exit.  Thread-safe: awrd
/// session threads and the server's storage calls record concurrently.
class SpanLog {
 public:
  /// Opens a span and returns its index (for End and for children).
  int64_t Begin(std::string name, int64_t parent, std::string op);
  void End(int64_t index);

  /// Sets the parent of every parentless span whose op matches a span
  /// named in `roots` to that span: storage calls the server makes on
  /// behalf of a request become children of the request's span.
  void LinkByOp(const std::vector<std::string>& roots);

  /// Total self time per span name, in nanoseconds.
  std::map<std::string, int64_t> SelfTimeByName() const;

  /// Writes {"spans": [...], "self_ms": {...}} to `path`.
  bool WriteJson(const std::string& path) const;

  /// A copy of the spans recorded so far.
  std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null log makes it a no-op, which is how the untraced
/// run pays nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int64_t parent = -1,
             std::string op = {})
      : log_(log),
        index_(log == nullptr ? -1
                              : log->Begin(std::move(name), parent,
                                           std::move(op))) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  SpanLog* log_;
  int64_t index_;
};

/// The process's peak resident set so far (ru_maxrss), in MB.
double PeakRssMb();

/// Median of `samples` (0 for an empty sample).
double Median(std::vector<double> samples);

/// Escapes `s` for a JSON string literal (without the quotes).
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
