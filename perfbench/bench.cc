#include "bench.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "gen/generators.h"

namespace dkc::perfbench {
namespace {

// Why each workload is in the table is recorded in BENCHMARK.json.
constexpr WorkloadSpec kWorkloads[] = {
    {"solve-dense", 5, 2000, 24, 0.1},
    {"serve-steady", 4, 4000, 16, 0.1},
};

std::string FormatNumber(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += spec.name;
  }
  return names;
}

Input MakeInput(const WorkloadSpec& spec, uint64_t seed, size_t updates) {
  Rng rng(seed);
  Input input;
  input.graph = WattsStrogatz(spec.n, spec.degree, spec.beta, rng).value();
  Rng stream_rng = rng.Fork();
  input.stream = MakeChurnStream(input.graph, updates, stream_rng);
  return input;
}

bool SameCliques(const CliqueStore& a, const CliqueStore& b) {
  if (a.k() != b.k() || a.size() != b.size()) return false;
  for (CliqueId c = 0; c < a.size(); ++c) {
    const auto x = a.Get(c);
    const auto y = b.Get(c);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) return false;
  }
  return true;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted(values_);
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, sorted.size()) - 1;
  std::nth_element(sorted.begin(), sorted.begin() + index, sorted.end());
  return sorted[index];
}

std::string MedianNote(const char* what, const Samples& samples) {
  std::string note = "median of " + std::to_string(samples.size()) + " " +
                     what + ":";
  for (double v : samples.values()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4g", v);
    note += buf;
  }
  return note;
}

uint64_t SpanLog::Begin(const char* name, uint64_t parent) {
  if (!enabled_) return 0;
  spans_.push_back({name, parent, Clock::now(), {}});
  return spans_.size();
}

double SpanLog::End(uint64_t id) {
  if (!enabled_ || id == 0) return 0.0;
  Span& span = spans_[id - 1];
  span.end = Clock::now();
  return MillisBetween(span.start, span.end);
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("[\n", out);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = MillisBetween(origin_, s.start) * 1e3;
    const double dur = MillisBetween(s.start, s.end) * 1e3;
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%llu}}%s\n",
                 s.name, ts, dur, i + 1,
                 static_cast<unsigned long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", out);
  return std::fclose(out) == 0;
}

void Report::Add(std::string name, double value, std::string unit,
                 std::string note, bool end_to_end) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(
      {std::move(name), value, std::move(unit), std::move(note), end_to_end});
}

void Report::Check(bool ok, const std::string& what) {
  Count(1, ok ? 0 : 1, what);
}

void Report::Count(uint64_t n, uint64_t failed, const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "FAILED: %s (%llu of %llu)\n", what.c_str(),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(n));
  }
}

void Report::Print(bool trace) const {
  std::printf("failed_frac = %s (%llu failed of %llu attempted)\n",
              FormatNumber(attempted_ == 0
                               ? 1.0
                               : static_cast<double>(failed_) /
                                     static_cast<double>(attempted_))
                  .c_str(),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const Metric& m : metrics_) {
    std::printf("%s%s = %s %s%s%s\n", m.end_to_end ? "" : "  ",
                m.name.c_str(), FormatNumber(m.value).c_str(), m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (m.end_to_end == trace) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace dkc::perfbench
