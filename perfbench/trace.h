// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only around the benchmark's own calls into the
// repository's public functions, so every layer is timed from outside and
// nothing inside src/ is instrumented.  A span has a name, a start and end
// on the steady clock, the span that caused it (the innermost span open
// when it started) and a request id shared by the spans of one query.
// Spans stay in memory and are written out as Chrome trace events when the
// run ends.  When the recorder is disabled a span costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Trace {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;   ///< index of the causing span, -1 = root
    std::uint64_t request = 0;  ///< shared by the spans of one query
    double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  };

  /// RAII guard: closes its span on destruction.  Inert when the trace is
  /// disabled.
  class Scope {
   public:
    Scope(Trace* trace, std::int64_t index) : trace_(trace), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (index_ >= 0) trace_->close(index_);
    }

   private:
    Trace* trace_;
    std::int64_t index_;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  Scope span(const char* name, std::uint64_t request = 0) {
    if (!enabled_) return Scope(this, -1);
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    const auto index = static_cast<std::int64_t>(spans_.size() - 1);
    open_.push_back(index);
    return Scope(this, index);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span called `name`.
  double total_s(const std::string& name) const {
    double t = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) t += s.seconds();
    }
    return t;
  }

  /// Per `name` span, its duration minus the time its direct children
  /// cover: the part of the layer no recorded call accounts for.
  std::vector<double> self_each(const std::string& name) const {
    std::vector<double> self;
    std::vector<std::int64_t> slot(spans_.size(), -1);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.name == name) {
        slot[i] = static_cast<std::int64_t>(self.size());
        self.push_back(s.seconds());
      }
      if (s.parent >= 0 && slot[static_cast<std::size_t>(s.parent)] >= 0) {
        self[static_cast<std::size_t>(slot[static_cast<std::size_t>(s.parent)])] -=
            s.seconds();
      }
    }
    return self;
  }

  double self_s(const std::string& name) const {
    double t = 0.0;
    for (double v : self_each(name)) t += v;
    return t;
  }

  /// Chrome trace-event JSON ("X" complete events, one track).
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld,\"request\":%llu}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_ns * 1e-3,
                   (s.end_ns - s.start_ns) * 1e-3, i,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void close(std::int64_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

}  // namespace perfbench
