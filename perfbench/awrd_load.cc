#include "awrd_load.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <thread>

#include "awr/service/client.h"
#include "awr/service/executor.h"

namespace perfbench {

using awr::Result;
using awr::Status;
using awr::StatusCode;
using service::ResultRecord;
using service::SubmitRequest;

// ---------------------------------------------------------------------
// CountingFs

namespace {

/// The request id a store file belongs to: its name up to the first '.'
/// ("<dir>/<id>.res" -> "<id>"); empty for directories.
std::string OpOfPath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = name.find('.');
  return dot == std::string::npos ? std::string() : name.substr(0, dot);
}

}  // namespace

template <typename Fn>
auto CountingFs::Forward(const char* name, const std::string& path,
                         uint64_t Counts::*counter, Fn&& fn) {
  SpanLog* log = log_.load();
  ScopedSpan span(log, name, -1, log == nullptr ? std::string() : OpOfPath(path));
  const int64_t t0 = NowNs();
  auto result = fn();
  const int64_t ns = NowNs() - t0;
  std::lock_guard<std::mutex> lock(mu_);
  ++(counts_.*counter);
  counts_.busy_ns += ns;
  if (counter == &Counts::atomic_writes) {
    write_ms_.push_back(static_cast<double>(ns) / 1e6);
  }
  return result;
}

Status CountingFs::WriteFileAtomic(const std::string& path,
                                   const std::vector<uint8_t>& bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    counts_.bytes_written += bytes.size();
  }
  return Forward("storage.write_atomic", path, &Counts::atomic_writes,
                 [&] { return base_->WriteFileAtomic(path, bytes); });
}

Result<std::vector<uint8_t>> CountingFs::ReadFile(const std::string& path) {
  return Forward("storage.read", path, &Counts::reads,
                 [&] { return base_->ReadFile(path); });
}

Status CountingFs::Rename(const std::string& from, const std::string& to) {
  return Forward("storage.rename", to, &Counts::renames,
                 [&] { return base_->Rename(from, to); });
}

Status CountingFs::Remove(const std::string& path) {
  return Forward("storage.remove", path, &Counts::removes,
                 [&] { return base_->Remove(path); });
}

Result<std::vector<std::string>> CountingFs::List(const std::string& dir) {
  return Forward("storage.list", dir, &Counts::lists,
                 [&] { return base_->List(dir); });
}

Status CountingFs::SyncDir(const std::string& dir) {
  return Forward("storage.sync_dir", dir, &Counts::dir_syncs,
                 [&] { return base_->SyncDir(dir); });
}

Status CountingFs::MkDir(const std::string& dir) {
  return Forward("storage.mkdir", dir, &Counts::mkdirs,
                 [&] { return base_->MkDir(dir); });
}

bool CountingFs::FileExists(const std::string& path) {
  return Forward("storage.exists", path, &Counts::exists,
                 [&] { return base_->FileExists(path); });
}

CountingFs::Counts CountingFs::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

std::vector<double> CountingFs::write_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_ms_;
}

void CountingFs::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counts_ = Counts{};
  write_ms_.clear();
}

// ---------------------------------------------------------------------
// AwrdBench

namespace {

double MsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e6; }

uint64_t HashBytes(const std::vector<uint8_t>& bytes) {
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

uint64_t HashString(const std::string& s) { return std::hash<std::string>{}(s); }

std::string SessionId(int session, uint64_t seq) {
  return "s" + std::to_string(session) + "-" + std::to_string(seq);
}

/// Counter growth between two Stats() replies (level counters such as
/// "inflight" come out as differences too; nothing reads them).
service::StatsReply StatsDelta(const service::StatsReply& before,
                               const service::StatsReply& after) {
  service::StatsReply d;
  for (const auto& [name, value] : after.counters) {
    d.counters.emplace_back(name, value - before.Get(name));
  }
  return d;
}

/// Completed requests a session keeps for replays.
constexpr size_t kReplayPool = 1024;
/// Completions per second a session reserves room for, so the
/// latency record does not reallocate during a window.
constexpr double kReservedRate = 20000;

}  // namespace

/// A request the session completed, kept for replays.
struct AwrdBench::Reply {
  uint64_t seq = 0;
  int key = 0;
  uint64_t reply_hash = 0;  ///< of the encoded Result frame
};

struct AwrdBench::Server {
  std::string state_dir;  // empty in memory mode
  std::string socket_path;
  CountingFs fs;
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<service::SocketServer> socket;
  std::vector<service::Client> clients;  // one per session

  ~Server() {
    clients.clear();
    if (socket != nullptr) socket->Stop();
    if (service != nullptr) {
      service->BeginDrain();
      service->WaitDrained();
    }
    socket.reset();
    service.reset();
    std::error_code ec;
    if (!state_dir.empty()) std::filesystem::remove_all(state_dir, ec);
  }
};

AwrdBench::AwrdBench(AwrdOptions opts) : opts_(std::move(opts)) {
  replies_.assign(static_cast<size_t>(opts_.sessions),
                  std::vector<Reply>(kReplayPool));
  replies_done_.resize(static_cast<size_t>(opts_.sessions));
  next_id_.resize(static_cast<size_t>(opts_.sessions));
}

AwrdBench::~AwrdBench() { TearDown(); }

void AwrdBench::TearDown() { server_.reset(); }

Status AwrdBench::StartServer(int generation) {
  auto s = std::make_unique<Server>();
  const std::string tag = std::string(opts_.durable ? "disk-" : "mem-") +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(generation);
  s->socket_path = opts_.work_dir + "/awrd-" + tag + ".sock";
  service::ServiceConfig config;
  if (opts_.durable) {
    s->state_dir = opts_.work_dir + "/state-" + tag;
    std::error_code ec;
    std::filesystem::remove_all(s->state_dir, ec);
    config.state_dir = s->state_dir;
    config.fs = &s->fs;
  }
  s->service = std::make_unique<service::QueryService>(config);
  s->socket = std::make_unique<service::SocketServer>(s->service.get(),
                                                      s->socket_path);
  server_ = std::move(s);
  Status started = server_->socket->Start();
  if (!started.ok()) return started;
  for (int i = 0; i < opts_.sessions; ++i) {
    server_->clients.emplace_back(server_->socket_path);
    Status connected = server_->clients.back().Connect();
    if (!connected.ok()) return connected;
  }
  return Status::OK();
}

Result<std::vector<double>> AwrdBench::SetUp(int64_t first_start_ns) {
  std::vector<double> seconds;
  for (int g = 0; g < opts_.setups; ++g) {
    server_.reset();  // the previous set-up's server
    const int64_t t0 = g == 0 ? first_start_ns : NowNs();
    templates_.assign(kRequestClasses * 64, SubmitRequest{});
    for (const RequestShape& shape : AllRequestShapes()) {
      templates_[static_cast<size_t>(shape.key())] = MakeRequest(shape, "");
    }
    Status started = StartServer(g);
    if (!started.ok()) return started;
    for (const RequestShape& shape : AllRequestShapes()) {
      SubmitRequest req = MakeRequest(shape, "warm-" + std::to_string(shape.key()));
      auto res = server_->clients[0].SubmitWithRetry(req);
      if (!res.ok()) return res.status();
      if (res->code != StatusCode::kOk) return res->ToStatus();
    }
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  reference_.assign(templates_.size(), {0, 0});
  for (const RequestShape& shape : AllRequestShapes()) {
    const SubmitRequest& req = templates_[static_cast<size_t>(shape.key())];
    uint64_t charges = 0, rounds = 0;
    auto model = RunLocalOp({req.semantics, req.program, req.edb},
                            ReferenceOptions(), &charges, &rounds);
    if (!model.ok()) return model.status();
    reference_[static_cast<size_t>(shape.key())] = {
        HashString(RenderModel(*model)), charges};
  }
  return seconds;
}

AwrdWindow AwrdBench::Run(double seconds, SpanLog* log) {
  AwrdWindow w;
  Server& s = *server_;
  s.fs.Reset();
  s.fs.set_span_log(log);
  const service::StatsReply stats_before = s.service->Stats();
  const LayerCounters counters_before = LayerCounters::Now();
  const uint64_t window_seed = opts_.seed * 0x100000001b3ull + windows_run_++;

  struct SessionOut {
    OpTally tally;
    std::vector<std::pair<int64_t, double>> done;
    uint64_t replays = 0;
  };
  std::vector<SessionOut> outs(static_cast<size_t>(opts_.sessions));
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int sess = 0; sess < opts_.sessions; ++sess) {
    threads.emplace_back([&, sess] {
      SessionOut& out = outs[static_cast<size_t>(sess)];
      out.done.reserve(static_cast<size_t>(seconds * kReservedRate));
      std::vector<Reply>& mine = replies_[static_cast<size_t>(sess)];
      uint64_t& mine_done = replies_done_[static_cast<size_t>(sess)];
      service::Client& client = s.clients[static_cast<size_t>(sess)];
      Rng rng(window_seed * 31 + static_cast<uint64_t>(sess));
      uint64_t& next_id = next_id_[static_cast<size_t>(sess)];
      while (NowNs() < deadline) {
        // One send in five replays an id this session already completed.
        const Reply* original = nullptr;
        int key = 0;
        if (mine_done > 0 && rng.Below(5) == 0) {
          original = &mine[rng.Below(std::min<uint64_t>(mine_done, kReplayPool))];
          key = original->key;
        } else {
          key = DrawRequestShape(rng).key();
        }
        // A new request gets a fresh id even when an earlier one failed.
        const uint64_t seq = original != nullptr ? original->seq : next_id++;
        SubmitRequest req = templates_[static_cast<size_t>(key)];
        req.id = SessionId(sess, seq);
        ++out.tally.attempted;
        out.replays += original != nullptr;
        Result<ResultRecord> res = Status::Internal("unsent");
        const int64_t q0 = NowNs();
        {
          ScopedSpan span(log, "client.request", -1, req.id);
          res = client.SubmitWithRetry(req);
        }
        const int64_t q1 = NowNs();
        const double ms = static_cast<double>(q1 - q0) / 1e6;
        if (!res.ok()) {
          ++out.tally.failed;
          continue;
        }
        if (res->code != StatusCode::kOk) {
          if (awr::StatusCodeIsRetryable(res->code)) {
            ++out.tally.refused;
          } else {
            ++out.tally.failed;
          }
          continue;
        }
        out.done.emplace_back(q1, ms);
        if (completed_.fetch_add(1) + 1 == opts_.rss_mark_requests) {
          rss_mb_at_mark_.store(PeakRssMb());
        }
        const uint64_t reply_hash = HashBytes(service::EncodeResult(*res));
        if (original != nullptr) {
          if (reply_hash != original->reply_hash) ++out.tally.wrong;
        } else {
          const auto& [model_hash, charges] = reference_[static_cast<size_t>(key)];
          if (HashString(res->model) != model_hash || res->charges != charges) {
            ++out.tally.wrong;
          }
          mine[mine_done++ % kReplayPool] = {seq, key, reply_hash};
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  w.start_ns = t0;
  w.end_ns = deadline;
  s.fs.set_span_log(nullptr);

  for (SessionOut& out : outs) {
    w.tally.Add(out.tally);
    w.done.insert(w.done.end(), out.done.begin(), out.done.end());
    w.replays_sent += out.replays;
  }
  w.sent = w.tally.attempted;
  w.stats_delta = StatsDelta(stats_before, s.service->Stats());
  w.fs = s.fs.counts();
  w.fs_write_ms = s.fs.write_ms();
  w.counters = LayerCounters::Now().Since(counters_before);
  return w;
}


Result<ServiceProfile> AwrdBench::ProfileLayers(
    SpanLog* log, std::vector<LayerProfile>* profiles) {
  constexpr int kPerClass = 20;
  constexpr int kCodecReps = 50;
  Server& s = *server_;
  ServiceProfile p;
  std::vector<double> submit_ms, roundtrip_ms, encode_us, decode_us;
  std::vector<double> execute_ms[kRequestClasses];
  const std::vector<RequestShape> shapes = AllRequestShapes();
  Rng rng(opts_.seed ^ 0x5eed0000ull);
  int n = 0;
  for (int c = 0; c < kRequestClasses; ++c) {
    std::vector<RequestShape> of_class;
    for (const RequestShape& shape : shapes) {
      if (static_cast<int>(shape.cls) == c) of_class.push_back(shape);
    }
    for (int i = 0; i < kPerClass; ++i) {
      const RequestShape shape = of_class[rng.Below(of_class.size())];
      const std::string op = "p" + std::to_string(n++);
      SubmitRequest req = templates_[static_cast<size_t>(shape.key())];

      req.id = op + "-x";
      int64_t t0 = NowNs();
      ResultRecord executed;
      {
        ScopedSpan span(log, "executor.execute", -1, req.id);
        executed = service::ExecuteRequest(req, s.service->store(),
                                           s.service->config().exec);
      }
      execute_ms[c].push_back(MsSince(t0));
      if (executed.code != StatusCode::kOk) return executed.ToStatus();

      req.id = op + "-s";
      t0 = NowNs();
      ResultRecord submitted;
      {
        ScopedSpan span(log, "server.submit", -1, req.id);
        submitted = s.service->Submit(req);
      }
      submit_ms.push_back(MsSince(t0));
      if (submitted.code != StatusCode::kOk) return submitted.ToStatus();

      req.id = op + "-w";
      t0 = NowNs();
      Result<ResultRecord> remote = Status::Internal("unsent");
      {
        ScopedSpan span(log, "client.roundtrip", -1, req.id);
        remote = s.clients[0].Submit(req);
      }
      roundtrip_ms.push_back(MsSince(t0));
      if (!remote.ok()) return remote.status();
      if (remote->code != StatusCode::kOk) return remote->ToStatus();

      std::vector<uint8_t> request_bytes, reply_bytes;
      t0 = NowNs();
      {
        ScopedSpan span(log, "protocol.encode", -1, op);
        for (int r = 0; r < kCodecReps; ++r) {
          request_bytes = service::EncodeSubmit(req);
          reply_bytes = service::EncodeResult(submitted);
        }
      }
      encode_us.push_back(MsSince(t0) * 1e3 / kCodecReps);
      t0 = NowNs();
      bool decoded = true;
      {
        ScopedSpan span(log, "protocol.decode", -1, op);
        for (int r = 0; r < kCodecReps; ++r) {
          decoded &= service::DecodeSubmit(request_bytes).ok();
          decoded &= service::DecodeResult(reply_bytes).ok();
        }
      }
      decode_us.push_back(MsSince(t0) * 1e3 / kCodecReps);
      if (!decoded) return Status::Internal("protocol round trip failed");
      p.request_bytes += static_cast<double>(request_bytes.size());
      p.reply_bytes += static_cast<double>(reply_bytes.size());

      auto profile = ProfileEvaluation({req.semantics, req.program, req.edb},
                                       log, -1, op);
      if (!profile.ok()) return profile.status();
      profiles->push_back(*profile);
    }
  }
  p.request_bytes /= n;
  p.reply_bytes /= n;
  p.encode_us = Median(encode_us);
  p.decode_us = Median(decode_us);
  p.submit_ms = Median(submit_ms);
  p.wire_overhead_ms = Median(roundtrip_ms) - p.submit_ms;
  for (int c = 0; c < kRequestClasses; ++c) {
    p.execute_ms[c] = Median(execute_ms[c]);
  }
  return p;
}

void AppendServiceMetrics(const AwrdWindow* w, const ServiceProfile* p,
                          const AwrdWindow* durable, std::vector<Metric>* out) {
  auto add = [out](std::string name, double value, const char* unit) {
    out->push_back({std::move(name), value, unit});
  };
  auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const bool on = w != nullptr && p != nullptr;
  add("protocol.encode_us", on ? p->encode_us : 0, "us");
  add("protocol.decode_us", on ? p->decode_us : 0, "us");
  add("protocol.request_bytes", on ? p->request_bytes : 0, "B");
  add("protocol.reply_bytes", on ? p->reply_bytes : 0, "B");
  add("wire.overhead_ms", on ? p->wire_overhead_ms : 0, "ms");
  for (int c = 0; c < kRequestClasses; ++c) {
    add(std::string("executor.execute_ms.") +
            RequestClassName(static_cast<RequestClass>(c)),
        on ? p->execute_ms[c] : 0, "ms");
  }
  add("server.submit_ms", on ? p->submit_ms : 0, "ms");

  double shed = 0, joined = 0, replay_share = 0, retries = 0;
  double writes = 0, syncs = 0, reads = 0, bytes = 0, write_p50 = 0, busy = 0;
  if (on) {
    const service::StatsReply& d = w->stats_delta;
    const double submits = static_cast<double>(d.Get("submits"));
    shed = static_cast<double>(d.Get("shed"));
    joined = static_cast<double>(d.Get("dedup_joined"));
    // Submits answered from a stored result: neither admitted, shed,
    // joined to an in-flight run nor refused while draining.
    replay_share = ratio(submits - static_cast<double>(d.Get("admitted")) -
                             shed - joined -
                             static_cast<double>(d.Get("drain_rejected")),
                         submits);
    retries = submits - static_cast<double>(w->sent);
  }
  if (durable != nullptr) {
    const CountingFs::Counts& fs = durable->fs;
    const double completed = static_cast<double>(durable->done.size());
    writes = ratio(static_cast<double>(fs.atomic_writes), completed);
    syncs = ratio(static_cast<double>(fs.dir_syncs), completed);
    reads = ratio(static_cast<double>(fs.reads), completed);
    bytes = ratio(static_cast<double>(fs.bytes_written), completed);
    write_p50 = Median(durable->fs_write_ms);
    double request_ms = 0;
    for (const auto& [t, ms] : durable->done) request_ms += ms;
    busy = ratio(static_cast<double>(fs.busy_ns) / 1e6, request_ms);
  }
  add("server.shed", shed, "count");
  add("server.dedup_joined", joined, "count");
  add("server.replay_hit_share", replay_share, "ratio");
  add("client.retries", retries, "count");
  add("storage.atomic_writes_per_request", writes, "count/req");
  add("storage.dir_syncs_per_request", syncs, "count/req");
  add("storage.reads_per_request", reads, "count/req");
  add("storage.bytes_per_request", bytes, "B/req");
  add("storage.write_ms_p50", write_p50, "ms");
  add("storage.busy_share", busy, "ratio");
}

}  // namespace perfbench
