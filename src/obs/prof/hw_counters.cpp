#include "obs/prof/hw_counters.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/prof/flight_recorder.hpp"
#include "obs/prof/roofline.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace mclx::obs {

namespace {

#if defined(__linux__)
/// The five events of the session, in HwCounterValues field order.
struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
};

constexpr EventSpec kEvents[HwCounters::kNumEvents] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HW_CACHE,
     PERF_COUNT_HW_CACHE_L1D | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
         (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
};

int perf_open(const EventSpec& spec, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = spec.type;
  attr.config = spec.config;
  attr.disabled = group_fd < 0 ? 1 : 0;  // the leader gates the group
  // User-space-only counting works at perf_event_paranoid <= 2 without
  // any capability; kernel cycles are not what the kernels spend anyway.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = 0;  // this thread only
  const long fd = syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
                          group_fd, /*flags=*/0UL);
  return static_cast<int>(fd);
}
#endif  // __linux__

std::atomic<int> g_scoped_profiling{0};

}  // namespace

// ---------------------------------------------------------------------------
// HwCounters

HwCounters::HwCounters(Options options) {
#if defined(__linux__)
  if (options.force_noop) return;
  // The leader (cycles) decides availability; secondary events that fail
  // to open (VMs without an L1d PMU node, etc.) just stay at -1/zero.
  fds_[0] = perf_open(kEvents[0], -1);
  if (fds_[0] < 0) return;
  for (int e = 1; e < kNumEvents; ++e) fds_[e] = perf_open(kEvents[e], fds_[0]);
  available_ = true;
#else
  (void)options;
#endif
}

HwCounters::~HwCounters() {
#if defined(__linux__)
  for (int e = 0; e < kNumEvents; ++e) {
    if (fds_[e] >= 0) ::close(fds_[e]);
  }
#endif
}

void HwCounters::start() {
#if defined(__linux__)
  if (!available_) return;
  ioctl(fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
#endif
}

void HwCounters::stop() {
#if defined(__linux__)
  if (!available_) return;
  ioctl(fds_[0], PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
#endif
}

HwCounterValues HwCounters::read() const {
  HwCounterValues v;
#if defined(__linux__)
  if (!available_) return v;
  std::uint64_t raw[kNumEvents] = {0, 0, 0, 0, 0};
  for (int e = 0; e < kNumEvents; ++e) {
    if (fds_[e] < 0) continue;
    std::uint64_t value = 0;
    if (::read(fds_[e], &value, sizeof(value)) == sizeof(value)) {
      raw[e] = value;
    }
  }
  v.cycles = raw[0];
  v.instructions = raw[1];
  v.l1d_misses = raw[2];
  v.llc_misses = raw[3];
  v.branch_misses = raw[4];
  v.available = true;
#endif
  return v;
}

bool HwCounters::platform_supported() {
#if defined(__linux__)
  // root / CAP_PERFMON can count at any paranoid level; otherwise
  // process-scope user-space counting needs paranoid <= 2. An unreadable
  // file means no perf_event support compiled in at all.
  std::ifstream in("/proc/sys/kernel/perf_event_paranoid");
  int paranoid = 0;
  if (!(in >> paranoid)) return false;
  if (::geteuid() == 0) return true;
  return paranoid <= 2;
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Process-wide switches

bool prof_env_enabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("MCLX_PROF");
    return v != nullptr && (std::strcmp(v, "ON") == 0 ||
                            std::strcmp(v, "on") == 0 ||
                            std::strcmp(v, "1") == 0);
  }();
  return enabled;
}

bool kernel_profiling_enabled() {
  return g_scoped_profiling.load(std::memory_order_relaxed) > 0 ||
         prof_env_enabled();
}

ScopedKernelProfiling::ScopedKernelProfiling() {
  g_scoped_profiling.fetch_add(1, std::memory_order_relaxed);
}

ScopedKernelProfiling::~ScopedKernelProfiling() {
  g_scoped_profiling.fetch_sub(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// KernelCounterScope

namespace {

/// Lazily opened per-thread counter set for kernel windows — separate
/// from any StageHwProfiler's set so a stage window bracketing a kernel
/// window keeps counting (two perf groups coexist fine; each is
/// reset/enabled independently).
HwCounters& kernel_thread_counters() {
  thread_local HwCounters counters;
  return counters;
}

}  // namespace

KernelCounterScope::KernelCounterScope(std::string_view kernel,
                                       std::uint64_t flops)
    : kernel_(kernel), flops_(flops) {
  if (!kernel_profiling_enabled() || context().metrics == nullptr) return;
  active_ = true;
  kernel_thread_counters().start();
}

KernelCounterScope::~KernelCounterScope() {
  if (!active_) return;
  HwCounters& counters = kernel_thread_counters();
  counters.stop();
  const HwCounterValues v = counters.read();
  MetricsRegistry* m = context().metrics;
  if (m == nullptr) return;  // sink swapped mid-kernel: drop, don't crash
  const std::string prefix = "prof.hw.kernel." + std::string(kernel_) + ".";
  m->add(prefix + "windows");
  if (v.available) {
    m->add(prefix + "cycles", v.cycles);
    m->add(prefix + "instructions", v.instructions);
    m->add(prefix + "l1d_misses", v.l1d_misses);
    m->add(prefix + "llc_misses", v.llc_misses);
    m->add(prefix + "branch_misses", v.branch_misses);
  }
  if (flops_ > 0) publish_roofline(*m, kernel_, flops_, v);
}

// ---------------------------------------------------------------------------
// StageHwProfiler

StageHwProfiler::StageHwProfiler(MetricsRegistry* registry)
    : registry_(registry) {}

StageHwProfiler::~StageHwProfiler() { finish(); }

void StageHwProfiler::attribute() {
  if (open_stage_ < 0) return;
  counters_.stop();
  const HwCounterValues v = counters_.read();
  MetricsRegistry* m = registry_ != nullptr ? registry_ : context().metrics;
  const int stage = open_stage_;
  open_stage_ = -1;
  if (m == nullptr) return;
  const std::string prefix =
      "prof.hw.stage." +
      std::string(to_string(static_cast<RunStage>(stage))) + ".";
  m->add(prefix + "windows");
  if (!v.available) return;
  m->add(prefix + "cycles", v.cycles);
  m->add(prefix + "instructions", v.instructions);
  m->add(prefix + "l1d_misses", v.l1d_misses);
  m->add(prefix + "llc_misses", v.llc_misses);
  m->add(prefix + "branch_misses", v.branch_misses);
}

void StageHwProfiler::on_stage(int stage) {
  attribute();
  if (stage == static_cast<int>(RunStage::kFinished)) return;
  open_stage_ = stage;
  counters_.start();
}

void StageHwProfiler::finish() { attribute(); }

}  // namespace mclx::obs
