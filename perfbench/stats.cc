#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

Percentile ComputePercentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  p.value = samples[lo] + (pos - static_cast<double>(lo)) *
                              (samples[hi] - samples[lo]);
  p.beyond = static_cast<size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), p.value));
  p.resolved = p.beyond >= kMinBeyond;
  return p;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> samples) {
  return ComputePercentile(std::move(samples), 0.5).value;
}

SlicedWindow SliceWindow(const std::vector<std::pair<int64_t, double>>& done,
                         int64_t start_ns, int64_t end_ns, int slices) {
  SlicedWindow w;
  if (slices < 1 || end_ns <= start_ns) return w;
  const double width = static_cast<double>(end_ns - start_ns) / slices;
  std::vector<std::vector<double>> latency(static_cast<size_t>(slices));
  for (const auto& [t, ms] : done) {
    if (t < start_ns || t >= end_ns) continue;
    const size_t s = std::min(static_cast<size_t>(static_cast<double>(t - start_ns) / width),
                              latency.size() - 1);
    latency[s].push_back(ms);
  }
  std::vector<double> rate;
  for (const std::vector<double>& slice : latency) {
    rate.push_back(static_cast<double>(slice.size()) / (width / 1e9));
  }
  w = SummarizeGroups(std::move(latency));
  w.throughput = Median(std::move(rate));
  return w;
}

SlicedWindow SummarizeGroups(std::vector<std::vector<double>> groups) {
  SlicedWindow w;
  std::vector<double> p50, p99;
  w.p99_resolved = true;
  w.min_p99_beyond = SIZE_MAX;
  for (std::vector<double>& group : groups) {
    if (group.empty()) continue;  // no percentile to report
    w.samples += group.size();
    p50.push_back(ComputePercentile(group, 0.50).value);
    const Percentile tail = ComputePercentile(std::move(group), 0.99);
    p99.push_back(tail.value);
    w.min_p99_beyond = std::min(w.min_p99_beyond, tail.beyond);
    w.p99_resolved = w.p99_resolved && tail.resolved;
  }
  if (p50.empty()) {
    w.p99_resolved = false;
    w.min_p99_beyond = 0;
  }
  w.p50_ms = Median(std::move(p50));
  w.p99_ms = Median(std::move(p99));
  return w;
}

int64_t SelfTimeNs(int64_t start, int64_t end,
                   std::vector<std::pair<int64_t, int64_t>> children) {
  if (end <= start) return 0;
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t reach = start;  // children are merged left to right
  for (auto [c0, c1] : children) {
    c0 = std::max(c0, reach);
    c1 = std::min(c1, end);
    if (c1 <= c0) continue;
    covered += c1 - c0;
    reach = c1;
  }
  return (end - start) - covered;
}

int64_t SpanLog::Begin(std::string name, int64_t parent, std::string op) {
  Span span{std::move(name), NowNs(), 0, parent, std::move(op)};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size() - 1);
}

void SpanLog::End(int64_t index) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

void SpanLog::LinkByOp(const std::vector<std::string>& roots) {
  auto is_root = [&roots](const Span& span) {
    return std::find(roots.begin(), roots.end(), span.name) != roots.end();
  };
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::string, int64_t> root_of_op;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (is_root(spans_[i]) && !spans_[i].op.empty()) {
      root_of_op.emplace(spans_[i].op, static_cast<int64_t>(i));
    }
  }
  for (Span& span : spans_) {
    if (span.parent != -1 || span.op.empty() || is_root(span)) continue;
    auto it = root_of_op.find(span.op);
    if (it != root_of_op.end()) span.parent = it->second;
  }
}

std::map<std::string, int64_t> SpanLog::SelfTimeByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] +=
        SelfTimeNs(spans_[i].start_ns, spans_[i].end_ns, std::move(children[i]));
  }
  return out;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteJson(const std::string& path) const {
  const std::map<std::string, int64_t> self = SelfTimeByName();
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"self_ms\": {");
  bool first = true;
  for (const auto& [name, ns] : self) {
    std::fprintf(out, "%s\"%s\": %.6f", first ? "" : ", ",
                 JsonEscape(name).c_str(), static_cast<double>(ns) / 1e6);
    first = false;
  }
  std::fprintf(out, "},\n\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"op\": \"%s\"}%s\n",
                 i, JsonEscape(s.name).c_str(),
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0),
                 static_cast<long long>(s.parent), JsonEscape(s.op).c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
