#ifndef PERFBENCH_AWRD_LOAD_H_
#define PERFBENCH_AWRD_LOAD_H_

// The awrd workloads: a closed loop of client sessions against an
// in-process QueryService + SocketServer, every reply checked against
// the reference configuration, storage calls counted through an Fs
// wrapper.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "awr/service/protocol.h"
#include "awr/service/server.h"
#include "awr/storage/fs.h"
#include "layers.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

/// Forwards every call to storage::DefaultFs() (so the fsync discipline
/// is the production one) and counts and times it.  With a span log set
/// it records one span per call, named by method, whose op is the
/// request id taken from the file name.
class CountingFs : public awr::storage::Fs {
 public:
  struct Counts {
    uint64_t atomic_writes = 0;
    uint64_t bytes_written = 0;
    uint64_t reads = 0;
    uint64_t renames = 0;
    uint64_t removes = 0;
    uint64_t lists = 0;
    uint64_t dir_syncs = 0;
    uint64_t mkdirs = 0;
    uint64_t exists = 0;
    int64_t busy_ns = 0;  ///< total time inside forwarded calls
  };

  CountingFs() = default;
  CountingFs(const CountingFs&) = delete;
  CountingFs& operator=(const CountingFs&) = delete;

  awr::Status WriteFileAtomic(const std::string& path,
                              const std::vector<uint8_t>& bytes) override;
  awr::Result<std::vector<uint8_t>> ReadFile(const std::string& path) override;
  awr::Status Rename(const std::string& from, const std::string& to) override;
  awr::Status Remove(const std::string& path) override;
  awr::Result<std::vector<std::string>> List(const std::string& dir) override;
  awr::Status SyncDir(const std::string& dir) override;
  awr::Status MkDir(const std::string& dir) override;
  bool FileExists(const std::string& path) override;

  Counts counts() const;
  /// Durations of WriteFileAtomic calls, in ms, since the last Reset.
  std::vector<double> write_ms() const;
  void Reset();
  void set_span_log(SpanLog* log) { log_.store(log); }

 private:
  template <typename Fn>
  auto Forward(const char* name, const std::string& path, uint64_t Counts::*counter,
               Fn&& fn);

  awr::storage::Fs* base_ = awr::storage::DefaultFs();
  std::atomic<SpanLog*> log_{nullptr};
  mutable std::mutex mu_;
  Counts counts_;                 // guarded by mu_
  std::vector<double> write_ms_;  // guarded by mu_
};

struct AwrdOptions {
  bool durable = false;
  uint64_t seed = 0;
  int sessions = 4;
  /// Directory (inside the checkout) for the socket and the state dir.
  std::string work_dir;
  /// Set up this many times; the last setup serves the run.
  int setups = 5;
  /// Take the peak RSS when this many requests have completed across
  /// all windows (0: never); see rss_mb_at_mark().
  uint64_t rss_mark_requests = 0;
};

/// Result of one measuring window.
struct AwrdWindow {
  OpTally tally;
  /// (completion time, latency in ms) per completed request.
  std::vector<std::pair<int64_t, double>> done;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t sent = 0;               ///< requests the clients sent
  uint64_t replays_sent = 0;
  awr::service::StatsReply stats_delta;
  CountingFs::Counts fs;
  std::vector<double> fs_write_ms;
  LayerCounters counters;          ///< evaluation-layer counter growth
};

/// Service-side layers timed on fresh requests, in-process and over
/// the socket.
struct ServiceProfile {
  double encode_us = 0;  ///< EncodeSubmit + EncodeResult, per request
  double decode_us = 0;  ///< DecodeSubmit + DecodeResult, per request
  double request_bytes = 0;
  double reply_bytes = 0;
  double submit_ms = 0;  ///< in-process QueryService::Submit
  /// Client round trip minus in-process Submit, medians.
  double wire_overhead_ms = 0;
  double execute_ms[kRequestClasses] = {};  ///< in-process ExecuteRequest
};

/// The service, protocol and wire metrics of `served` and `profile`,
/// and the storage metrics of `durable` (a window with a state dir).
/// Null pointers (a local workload) report every metric as 0.
void AppendServiceMetrics(const AwrdWindow* served, const ServiceProfile* profile,
                          const AwrdWindow* durable, std::vector<Metric>* out);

/// The live server plus everything a run needs; see awrd_load.cc.
class AwrdBench {
 public:
  explicit AwrdBench(AwrdOptions opts);
  ~AwrdBench();
  AwrdBench(const AwrdBench&) = delete;
  AwrdBench& operator=(const AwrdBench&) = delete;

  /// Sets up `setups` times (input generation, server start, a warm-up
  /// request of every shape); returns the set-up durations in seconds, the
  /// first measured from `first_start_ns` (process start).  Then, not
  /// timed, computes the reference answer of every request shape.
  awr::Result<std::vector<double>> SetUp(int64_t first_start_ns);

  /// One closed-loop window of `seconds`; `log` (may be null) traces it.
  /// Every reply is checked as it arrives: a new request's model and
  /// charges against the reference answer, a replay's encoded Result
  /// frame against the first reply's.
  AwrdWindow Run(double seconds, SpanLog* log);

  /// The service, protocol, wire and executor layers measured from
  /// outside on fresh requests of every class; appends the
  /// evaluation-layer profile of each request to `profiles`.
  awr::Result<ServiceProfile> ProfileLayers(SpanLog* log,
                                            std::vector<LayerProfile>* profiles);

  /// Stops the server and removes its files.
  void TearDown();

  /// Peak RSS in MB once rss_mark_requests requests had completed; 0
  /// while fewer have.
  double rss_mb_at_mark() const { return rss_mb_at_mark_.load(); }

 private:
  struct Server;
  struct Reply;

  awr::Status StartServer(int generation);

  AwrdOptions opts_;
  std::vector<awr::service::SubmitRequest> templates_;  // by shape key
  /// Reference (model hash, charges) by shape key.
  std::vector<std::pair<uint64_t, uint64_t>> reference_;
  std::unique_ptr<Server> server_;
  /// Per session, across windows: the last kReplayPool completed
  /// requests, a ring indexed by completion count.  Replays draw from
  /// it, so the benchmark's own memory stays fixed as the server's grows.
  std::vector<std::vector<Reply>> replies_;
  std::vector<uint64_t> replies_done_;
  std::vector<uint64_t> next_id_;  // per session: the next new request id
  uint64_t windows_run_ = 0;
  std::atomic<uint64_t> completed_{0};  // requests completed, all windows
  std::atomic<double> rss_mb_at_mark_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_AWRD_LOAD_H_
