#include "obs/mem.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/prof/flight_recorder.hpp"

#if defined(__linux__)
#include <fstream>
#include <sstream>
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace mclx::obs {

namespace {

#if defined(__unix__) || defined(__APPLE__)
ProcMemSample rusage_fallback() {
  ProcMemSample s;
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
    // ru_maxrss is KiB on Linux, bytes on macOS; this branch only runs
    // when /proc is unavailable, so assume the BSD/macOS convention off
    // Linux and KiB otherwise.
#if defined(__linux__)
    const std::uint64_t peak =
        static_cast<std::uint64_t>(ru.ru_maxrss) * 1024ull;
#elif defined(__APPLE__)
    const std::uint64_t peak = static_cast<std::uint64_t>(ru.ru_maxrss);
#else
    const std::uint64_t peak =
        static_cast<std::uint64_t>(ru.ru_maxrss) * 1024ull;
#endif
    s.vm_hwm_bytes = peak;
    s.vm_rss_bytes = peak;  // best effort: rusage has no current RSS
    s.available = true;
  }
  return s;
}
#endif

}  // namespace

ProcMemSample read_proc_mem() {
  ProcMemSample s;
#if defined(__linux__)
  std::ifstream in("/proc/self/status");
  if (in) {
    std::string line;
    while (std::getline(in, line)) {
      const bool hwm = line.rfind("VmHWM:", 0) == 0;
      const bool rss = line.rfind("VmRSS:", 0) == 0;
      if (!hwm && !rss) continue;
      // Format: "VmHWM:     12345 kB".
      std::istringstream fields(line.substr(6));
      std::uint64_t kib = 0;
      if (fields >> kib) {
        if (hwm) s.vm_hwm_bytes = kib * 1024ull;
        if (rss) s.vm_rss_bytes = kib * 1024ull;
        s.available = true;
      }
    }
  }
  if (s.available) return s;
#endif
#if defined(__unix__) || defined(__APPLE__)
  return rusage_fallback();
#else
  return s;
#endif
}

void MemLedger::charge(std::string_view label, std::uint64_t bytes) {
  if (bytes == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  MemLabelStats& st = labels_[std::string(label)];
  st.current_bytes += bytes;
  if (st.current_bytes > st.high_water_bytes) {
    st.high_water_bytes = st.current_bytes;
  }
  ++st.charges;
  total_current_ += bytes;
  if (total_current_ > total_high_water_) {
    // Power-of-2 high-water crossings go to the flight recorder: coarse
    // enough to never flood a ring (at most ~64 events per run), yet a
    // stall/crash post-mortem still shows the footprint trajectory.
    const auto log2_floor = [](std::uint64_t v) {
      int b = 0;
      while (v >>= 1) ++b;
      return b;
    };
    const bool crossed =
        total_high_water_ == 0 ||
        log2_floor(total_current_) > log2_floor(total_high_water_);
    total_high_water_ = total_current_;
    if (crossed) {
      fr_record(FrEventKind::kAllocHwm, "total_hwm", total_high_water_);
    }
  }
  ++total_charges_;
  charge_bytes_.record(static_cast<double>(bytes));
  timeline_point_locked(label, st.current_bytes);
  if (sample_interval_ && total_charges_ % sample_interval_ == 0) {
    process_sample_locked();
  }
}

void MemLedger::release(std::string_view label, std::uint64_t bytes) {
  if (bytes == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = labels_.find(label);
  if (it == labels_.end()) return;
  MemLabelStats& st = it->second;
  const std::uint64_t drop = std::min(bytes, st.current_bytes);
  st.current_bytes -= drop;
  total_current_ -= std::min(drop, total_current_);
  timeline_point_locked(label, st.current_bytes);
}

MemLabelStats MemLedger::label_stats(std::string_view label) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = labels_.find(label);
  return it == labels_.end() ? MemLabelStats{} : it->second;
}

std::map<std::string, MemLabelStats> MemLedger::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {labels_.begin(), labels_.end()};
}

std::uint64_t MemLedger::prefix_high_water_max(std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t best = 0;
  for (auto it = labels_.lower_bound(prefix); it != labels_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    best = std::max(best, it->second.high_water_bytes);
  }
  return best;
}

std::uint64_t MemLedger::prefix_high_water_sum(std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t sum = 0;
  for (auto it = labels_.lower_bound(prefix); it != labels_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    sum += it->second.high_water_bytes;
  }
  return sum;
}

std::uint64_t MemLedger::total_current_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_current_;
}

std::uint64_t MemLedger::total_high_water_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_high_water_;
}

std::uint64_t MemLedger::total_charges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_charges_;
}

void MemLedger::checkpoint(std::string_view name) {
  const ProcMemSample proc = read_proc_mem();  // I/O outside the lock
  std::lock_guard<std::mutex> lock(mu_);
  checkpoints_.push_back(MemCheckpoint{std::string(name), proc});
  if (proc.available) timeline_point_locked("proc.vm_rss", proc.vm_rss_bytes);
}

std::vector<MemCheckpoint> MemLedger::checkpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoints_;
}

void MemLedger::set_process_sample_interval(std::uint64_t every_charges) {
  std::lock_guard<std::mutex> lock(mu_);
  sample_interval_ = every_charges;
}

void MemLedger::enable_timeline(std::function<double()> clock) {
  std::lock_guard<std::mutex> lock(mu_);
  timeline_enabled_ = true;
  clock_ = std::move(clock);
}

std::vector<MemTimelinePoint> MemLedger::timeline() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timeline_;
}

bool MemLedger::timeline_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timeline_enabled_;
}

void MemLedger::predict(std::string_view channel, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  audits_[std::string(channel)].predicted.push_back(value);
}

void MemLedger::measure(std::string_view channel, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  audits_[std::string(channel)].measured.push_back(value);
}

std::vector<std::pair<double, double>> MemLedger::audit_pairs(
    std::string_view channel) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<double, double>> out;
  auto it = audits_.find(channel);
  if (it == audits_.end()) return out;
  const AuditChannel& ch = it->second;
  const std::size_t n = std::min(ch.predicted.size(), ch.measured.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(ch.predicted[i], ch.measured[i]);
  }
  return out;
}

void MemLedger::publish(MetricsRegistry& registry) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (total_charges_) {
    registry.add("memory.charges", total_charges_);
    registry.merge_histogram("memory.charge_bytes", charge_bytes_);
  }
  for (const auto& [label, st] : labels_) {
    (void)label;
    registry.record("memory.hwm_bytes",
                    static_cast<double>(st.high_water_bytes));
  }
  for (const auto& [name, ch] : audits_) {
    const std::size_t n = std::min(ch.predicted.size(), ch.measured.size());
    for (std::size_t i = 0; i < n; ++i) {
      const double pred = ch.predicted[i];
      const double meas = ch.measured[i];
      registry.record(name + ".predicted", pred);
      registry.record(name + ".measured", meas);
      if (meas > 0 && std::isfinite(pred)) {
        registry.record(name + ".rel_error", std::abs(pred - meas) / meas);
      }
    }
  }
}

void MemLedger::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  labels_.clear();
  total_current_ = 0;
  total_high_water_ = 0;
  total_charges_ = 0;
  charge_bytes_.clear();
  checkpoints_.clear();
  timeline_.clear();
  audits_.clear();
}

void MemLedger::timeline_point_locked(std::string_view label,
                                      std::uint64_t current) {
  if (!timeline_enabled_) return;
  const double t = clock_ ? clock_() : 0.0;
  timeline_.push_back(MemTimelinePoint{t, std::string(label), current});
}

void MemLedger::process_sample_locked() {
  const ProcMemSample proc = read_proc_mem();
  checkpoints_.push_back(MemCheckpoint{"auto", proc});
  if (proc.available) timeline_point_locked("proc.vm_rss", proc.vm_rss_bytes);
}

}  // namespace mclx::obs
