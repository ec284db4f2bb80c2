#include "awr/service/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <utility>

#include "awr/datalog/vm/vm.h"
#include "awr/service/wire.h"

namespace awr::service {

namespace {

ResultRecord FailRecord(Semantics semantics, const Status& st,
                        uint64_t retry_after_ms = 0) {
  ResultRecord r;
  r.code = st.code();
  r.message = st.message();
  r.retry_after_ms = retry_after_ms;
  r.semantics = semantics;
  return r;
}

}  // namespace

// ---------------------------------------------------------------------
// QueryService

QueryService::QueryService(ServiceConfig config)
    : config_(std::move(config)),
      store_(config_.state_dir.empty()
                 ? nullptr
                 : std::make_unique<RequestStore>(config_.state_dir,
                                                  config_.fs)),
      admission_(config_.budget_bytes) {
  if (store_ != nullptr) {
    // Scrub BEFORE recovery scans the directory: stale temp files go
    // away, corrupt records move to quarantine, and the .req/.res
    // lifecycle invariant holds for everything recovery will look at.
    ScrubReport scrubbed = store_->Scrub();
    if (scrubbed.tmp_removed > 0 || scrubbed.quarantined > 0) {
      std::fprintf(stderr,
                   "awr: startup scrub: removed %llu stale temp file(s), "
                   "quarantined %llu corrupt file(s) under %s\n",
                   static_cast<unsigned long long>(scrubbed.tmp_removed),
                   static_cast<unsigned long long>(scrubbed.quarantined),
                   store_->QuarantineDir().c_str());
    }
  }
  if (store_ != nullptr && config_.recover_on_start) {
    recovery_ = std::thread([this] { RecoveryLoop(); });
  }
}

QueryService::~QueryService() {
  BeginDrain();
  WaitDrained();
}

ResultRecord QueryService::Submit(const SubmitRequest& req) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++submits_;
  }
  return ExecuteAdmitted(req, /*journaled=*/false);
}

ResultRecord QueryService::Fetch(const FetchRequest& freq) {
  Status valid = ValidateRequestId(freq.id);
  if (!valid.ok()) return FailRecord(Semantics::kMinimalModel, valid);
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++fetches_;
    if (store_ != nullptr && store_->HasResult(freq.id)) {
      auto res = store_->ReadResult(freq.id);
      if (res.ok()) return *res;
      return FailRecord(Semantics::kMinimalModel,
                        Status::Internal("stored result unreadable: " +
                                         res.status().message()));
    }
    if (store_ == nullptr) {
      auto done = memory_results_.find(freq.id);
      if (done != memory_results_.end()) return done->second;
    }
    auto it = inflight_.find(freq.id);
    if (it != inflight_.end()) {
      if (!freq.wait) {
        return FailRecord(Semantics::kMinimalModel,
                          Status::Unavailable("request is in flight"),
                          /*retry_after_ms=*/50);
      }
      std::shared_ptr<Inflight> joined = it->second;
      ++dedup_joined_;
      cv_.wait(lock, [&] { return joined->done; });
      return joined->result;
    }
  }
  // Idle.  A journal entry means unfinished work (possibly from a
  // previous server life): run it now, resuming from its checkpoint.
  if (store_ != nullptr && store_->HasRequest(freq.id)) {
    auto req = store_->ReadRequest(freq.id);
    if (!req.ok()) {
      return FailRecord(Semantics::kMinimalModel,
                        Status::Internal("journal entry unreadable: " +
                                         req.status().message()));
    }
    return ExecuteAdmitted(*req, /*journaled=*/true);
  }
  return FailRecord(Semantics::kMinimalModel,
                    Status::NotFound("no such request: " + freq.id));
}

ResultRecord QueryService::ExecuteAdmitted(const SubmitRequest& req,
                                           bool journaled) {
  Status valid = ValidateRequestId(req.id);
  if (!valid.ok()) return FailRecord(req.semantics, valid);

  const uint64_t reserve_bytes =
      req.max_bytes != 0 ? req.max_bytes : config_.exec.default_max_bytes;
  std::shared_ptr<Inflight> entry;
  uint64_t attempt = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Completed before?  Idempotent hit — this is what makes a client
    // retry of an already-finished submit safe (and free).
    if (store_ != nullptr && store_->HasResult(req.id)) {
      auto res = store_->ReadResult(req.id);
      if (res.ok()) return *res;
      return FailRecord(req.semantics,
                        Status::Internal("stored result unreadable: " +
                                         res.status().message()));
    }
    if (store_ == nullptr) {
      auto done = memory_results_.find(req.id);
      if (done != memory_results_.end()) return done->second;
    }
    // In flight?  Join it — never run the same id twice concurrently.
    auto it = inflight_.find(req.id);
    if (it != inflight_.end()) {
      std::shared_ptr<Inflight> joined = it->second;
      ++dedup_joined_;
      cv_.wait(lock, [&] { return joined->done; });
      return joined->result;
    }
    if (draining_.load(std::memory_order_relaxed)) {
      ++drain_rejected_;
      return FailRecord(req.semantics,
                        Status::Unavailable("server is draining"),
                        config_.drain_retry_after_ms);
    }
    uint64_t hint = 0;
    Status admitted = admission_.TryReserve(reserve_bytes, &hint);
    if (!admitted.ok()) {
      return FailRecord(req.semantics, admitted, hint);
    }
    entry = std::make_shared<Inflight>();
    inflight_[req.id] = entry;
    attempt = attempts_[req.id]++;
  }

  ResultRecord res;
  Status journal = Status::OK();
  if (store_ != nullptr && !journaled) {
    journal = store_->WriteRequest(req);
  }
  if (!journal.ok()) {
    // A request we cannot journal we also refuse to run: otherwise a
    // crash mid-run would strand a checkpoint with no way to finish it.
    // Shed it RETRYABLY — nothing executed, so a blind retry after the
    // disk recovers (ENOSPC cleared, mount fixed) is safe and correct.
    res = FailRecord(req.semantics,
                     Status::Unavailable("journal write failed: " +
                                         journal.message()),
                     config_.drain_retry_after_ms);
  } else {
    ExecOptions exec = config_.exec;
    exec.cancel = entry->cancel.token();
    exec.chaos_attempt = attempt;
    // The context's memory cap must equal the admission reservation —
    // that identity is the whole admission-control story.
    SubmitRequest bounded = req;
    bounded.max_bytes = reserve_bytes;
    res = ExecuteRequest(bounded, store_.get(), exec);
    if (store_ != nullptr && ShouldStoreResult(res)) {
      Status stored = store_->WriteResult(req.id, res);
      if (!stored.ok()) {
        // The outcome exists but is not durable, so it must not be
        // acknowledged: an acknowledged result the client can never
        // fetch again after a restart would break idempotent replay.
        // Shed as retryable — the journal entry survives, so a retry
        // (or the next warm restart) finishes the work.
        store_->NoteResultWriteFailure();
        res = FailRecord(req.semantics,
                         Status::Unavailable("result not durable: " +
                                             stored.message()),
                         config_.drain_retry_after_ms);
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    entry->result = res;
    entry->done = true;
    inflight_.erase(req.id);
    if (store_ == nullptr && ShouldStoreResult(res)) {
      memory_results_[req.id] = res;
    }
    if (res.code == StatusCode::kOk) {
      ++completed_ok_;
    } else if (StatusCodeIsRetryable(res.code) ||
               res.code == StatusCode::kDeadlineExceeded) {
      ++transient_;
    } else {
      ++failed_terminal_;
    }
    if (res.resumed) ++resumed_runs_;
    if (!StatusCodeIsRetryable(res.code)) attempts_.erase(req.id);
  }
  admission_.Release(reserve_bytes);
  cv_.notify_all();
  return res;
}

void QueryService::RecoveryLoop() {
  const std::vector<std::string> ids = store_->UnfinishedRequests();
  for (const std::string& id : ids) {
    if (draining_.load(std::memory_order_relaxed)) return;
    auto req = store_->ReadRequest(id);
    if (!req.ok()) continue;  // corrupt journal entry: leave it for
                              // inspection, serve everyone else
    ExecuteAdmitted(*req, /*journaled=*/true);
    std::lock_guard<std::mutex> lock(mu_);
    ++recovered_;
  }
}

StatsReply QueryService::Stats() const {
  StatsReply stats;
  std::lock_guard<std::mutex> lock(mu_);
  stats.counters = {
      {"submits", submits_},
      {"fetches", fetches_},
      {"completed_ok", completed_ok_},
      {"failed_terminal", failed_terminal_},
      {"transient", transient_},
      {"drain_rejected", drain_rejected_},
      {"dedup_joined", dedup_joined_},
      {"resumed_runs", resumed_runs_},
      {"recovered", recovered_},
      {"inflight", inflight_.size()},
      {"draining", draining_.load(std::memory_order_relaxed) ? 1u : 0u},
      {"admitted", admission_.admitted_count()},
      {"shed", admission_.shed_count()},
      {"budget_bytes", admission_.budget_bytes()},
      {"reserved_bytes", admission_.reserved_bytes()},
      {"high_water_bytes", admission_.high_water_bytes()},
  };
  // Bytecode VM counters (process-wide, so sessions sharing the
  // compiled-plan cache see the cross-session hit rate the cache is
  // there to provide): same numbers as the REPL's :stats VM section.
  const datalog::vm::VmExecStats vm = datalog::vm::GetVmExecStats();
  stats.counters.emplace_back("vm_rules_fired", vm.vm_rules_fired);
  stats.counters.emplace_back("vm_ops_dispatched", vm.ops_dispatched);
  stats.counters.emplace_back("vm_facts", vm.vm_facts);
  stats.counters.emplace_back("vm_neg_word_tests", vm.neg_word_tests);
  stats.counters.emplace_back("vm_neg_row_tests", vm.neg_row_tests);
  stats.counters.emplace_back("vm_cache_hits", vm.cache_hits);
  stats.counters.emplace_back("vm_cache_misses", vm.cache_misses);
  stats.counters.emplace_back("vm_cache_evictions", vm.cache_evictions);
  stats.counters.emplace_back("vm_cache_entries", vm.cache_entries);
  stats.counters.emplace_back("vm_programs_lowered", vm.programs_lowered);
  stats.counters.emplace_back("vm_lower_failures", vm.lower_failures);
  if (store_ != nullptr) {
    stats.counters.emplace_back("store_scrub_tmp_removed",
                                store_->scrub_tmp_removed());
    stats.counters.emplace_back("store_scrub_quarantined",
                                store_->scrub_quarantined());
    stats.counters.emplace_back("store_snapshot_write_failures",
                                store_->snapshot_write_failures());
    stats.counters.emplace_back("store_result_write_failures",
                                store_->result_write_failures());
  }
  return stats;
}

void QueryService::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_.store(true, std::memory_order_relaxed);
  // Evict in-flight work through the cancellation contract; each
  // request flushes its last-barrier checkpoint on the way out.
  for (auto& [id, entry] : inflight_) {
    entry->cancel.RequestCancel();
  }
}

void QueryService::WaitDrained() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return inflight_.empty(); });
  }
  if (recovery_.joinable()) recovery_.join();
}

// ---------------------------------------------------------------------
// SocketServer

SocketServer::SocketServer(QueryService* service, std::string socket_path,
                           size_t max_sessions)
    : service_(service),
      socket_path_(std::move(socket_path)),
      max_sessions_(max_sessions) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  if (::pipe2(wake_pipe_, O_CLOEXEC) != 0) {
    return Status::Internal("server: cannot create wake pipe");
  }
  auto fd = ListenUnix(socket_path_, /*backlog=*/128);
  if (!fd.ok()) return fd.status();
  listen_fd_ = *fd;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SocketServer::Stop() {
  if (stopping_.exchange(true)) {
    // Second caller (e.g. destructor after explicit Stop): nothing to
    // do — the first Stop joined everything.
    return;
  }
  // One byte wakes every poll: readers never consume it.
  if (wake_pipe_[1] >= 0) {
    uint8_t b = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : sessions_) {
      if (!s->done.load()) ::shutdown(s->fd, SHUT_RDWR);
    }
    sessions.swap(sessions_);
  }
  for (auto& s : sessions) {
    if (s->thread.joinable()) s->thread.join();
    if (s->fd >= 0) ::close(s->fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(socket_path_.c_str());
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

size_t SocketServer::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& s : sessions_) {
    if (!s->done.load()) ++n;
  }
  return n;
}

void SocketServer::ReapFinishedSessions() {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      if ((*it)->fd >= 0) ::close((*it)->fd);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void SocketServer::AcceptLoop() {
  for (;;) {
    struct pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                            {wake_pipe_[0], POLLIN, 0}};
    int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0 || stopping_.load()) return;
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (stopping_.load()) return;
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ReapFinishedSessions();
    if (sessions_.size() >= max_sessions_) {
      // Over the session cap: shed the connection, politely.
      SendFrame(fd, EncodeError(Status::Unavailable(
                        "session limit reached; retry shortly")));
      ::close(fd);
      continue;
    }
    auto session = std::make_unique<Session>();
    session->fd = fd;
    Session* raw = session.get();
    session->thread = std::thread([this, raw] { SessionLoop(raw); });
    sessions_.push_back(std::move(session));
  }
}

void SocketServer::SessionLoop(Session* session) {
  for (;;) {
    auto payload = RecvFrame(session->fd, wake_pipe_[0]);
    if (!payload.ok()) break;  // orderly EOF, torn frame, or shutdown
    auto type = PeekType(*payload);
    std::vector<uint8_t> reply;
    if (!type.ok()) {
      // Unknown type byte: the frame boundary is still intact, so
      // answer and keep the session.
      reply = EncodeError(type.status());
    } else {
      switch (*type) {
        case MessageType::kSubmit: {
          auto req = DecodeSubmit(*payload);
          reply = req.ok() ? EncodeResult(service_->Submit(*req))
                           : EncodeError(req.status());
          break;
        }
        case MessageType::kFetch: {
          auto req = DecodeFetch(*payload);
          reply = req.ok() ? EncodeResult(service_->Fetch(*req))
                           : EncodeError(req.status());
          break;
        }
        case MessageType::kPing: {
          PongReply pong;
          pong.draining = service_->draining();
          reply = EncodePong(pong);
          break;
        }
        case MessageType::kStats:
          reply = EncodeStatsReply(service_->Stats());
          break;
        case MessageType::kDrain: {
          // Ack first so the requester is not stuck behind the drain.
          SendFrame(session->fd, EncodeAck());
          if (!drain_signalled_.exchange(true)) {
            service_->BeginDrain();
            if (on_drain_) on_drain_();
          }
          continue;
        }
        default:
          reply = EncodeError(Status::InvalidArgument(
              "protocol: client sent a server-side message type"));
          break;
      }
    }
    if (!SendFrame(session->fd, reply).ok()) break;
  }
  session->done.store(true);
}

}  // namespace awr::service
