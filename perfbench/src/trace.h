// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer, kept in memory, and written
// out once when the run ends. A disabled tracer records nothing, so the
// untraced run pays one branch per call site.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the process's first call.
[[nodiscard]] std::int64_t now_ns();

struct Span {
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::int64_t request = -1;  ///< request index for serving spans, else -1
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// A fresh span id, for spans whose children are recorded before them.
  [[nodiscard]] std::uint32_t reserve_id() { return next_id_.fetch_add(1); }

  /// Records a finished span under a reserved id; returns the id.
  std::uint32_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint32_t parent = 0,
                       std::int64_t request = -1, std::uint32_t id = 0);

  /// Durations in ms of every span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

  /// Writes every span as one JSON document.
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

}  // namespace perfbench
