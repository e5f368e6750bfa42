#include "obs/prof/flight_recorder.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>

#include "obs/expo.hpp"
#include "obs/json_writer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#define MCLX_FR_HAVE_SIGNALS 1
#endif

namespace mclx::obs {

std::string_view to_string(FrEventKind kind) {
  switch (kind) {
    case FrEventKind::kStage:
      return "stage";
    case FrEventKind::kIteration:
      return "iteration";
    case FrEventKind::kKernel:
      return "kernel";
    case FrEventKind::kAllocHwm:
      return "alloc_hwm";
    case FrEventKind::kMark:
      return "mark";
  }
  return "unknown";
}

namespace {

/// Process-wide thread index: stable, small, assignable without a
/// syscall (signal-safety requires no gettid on the dump path, and the
/// record path wants one TLS load).
std::uint32_t current_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Storage

/// One cache line per slot: a torn concurrent write never straddles
/// lines, and the seq stamp brackets the payload for readers.
struct alignas(64) FlightRecorder::Slot {
  std::atomic<std::uint64_t> seq{0};  ///< 0 = empty/being written
  double t = 0;
  double v = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t kind = 0;
  std::uint32_t tid = 0;
  char name[16] = {};
};

struct FlightRecorder::Ring {
  std::atomic<std::uint64_t> head{0};  ///< tickets issued
  std::unique_ptr<Slot[]> slots;
};

FlightRecorder::FlightRecorder(Options options)
    : num_rings_(options.num_rings > 0 ? options.num_rings : 1),
      capacity_(round_up_pow2(
          options.ring_capacity > 0 ? options.ring_capacity : 1)) {
  rings_ = std::make_unique<Ring[]>(num_rings_);
  for (std::size_t r = 0; r < num_rings_; ++r) {
    rings_[r].slots = std::make_unique<Slot[]>(capacity_);
  }
  const auto t0 = std::chrono::steady_clock::now();
  clock_ = [t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
}

FlightRecorder::~FlightRecorder() = default;

void FlightRecorder::set_clock(std::function<double()> clock) {
  if (clock) clock_ = std::move(clock);
}

double FlightRecorder::now() const { return clock_(); }

FlightRecorder::Ring& FlightRecorder::ring_for_current_thread() const {
  // Single-entry TLS cache: a thread records into few recorders at a
  // time (in practice one — its job's), so the cache hits on the
  // iteration-rate path and a recorder switch costs one fetch_add.
  struct Cache {
    const FlightRecorder* recorder = nullptr;
    std::uint32_t ring = 0;
  };
  thread_local Cache cache;
  if (cache.recorder != this) {
    const std::uint32_t claimed =
        next_ring_.fetch_add(1, std::memory_order_relaxed);
    cache.recorder = this;
    cache.ring = claimed < num_rings_
                     ? claimed
                     : current_thread_index() % num_rings_;
  }
  return rings_[cache.ring];
}

void FlightRecorder::record(FrEventKind kind, std::string_view name,
                            std::uint64_t a, std::uint64_t b, double v) {
  Ring& ring = ring_for_current_thread();
  const std::uint64_t ticket =
      ring.head.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring.slots[ticket & (capacity_ - 1)];
  slot.seq.store(0, std::memory_order_release);  // invalidate for readers
  slot.t = now();
  slot.v = v;
  slot.a = a;
  slot.b = b;
  slot.kind = static_cast<std::uint32_t>(kind);
  slot.tid = current_thread_index();
  const std::size_t n = std::min(name.size(), sizeof(slot.name) - 1);
  std::memcpy(slot.name, name.data(), n);
  slot.name[n] = '\0';
  slot.seq.store(ticket + 1, std::memory_order_release);
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < num_rings_; ++r) {
    total += rings_[r].head.load(std::memory_order_acquire);
  }
  return total;
}

std::vector<FrEvent> FlightRecorder::merged() const {
  std::vector<FrEvent> events;
  events.reserve(num_rings_ * 8);
  for (std::size_t r = 0; r < num_rings_; ++r) {
    const Ring& ring = rings_[r];
    for (std::size_t i = 0; i < capacity_; ++i) {
      const Slot& slot = ring.slots[i];
      const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
      if (seq1 == 0) continue;
      FrEvent e;
      e.t = slot.t;
      e.v = slot.v;
      e.a = slot.a;
      e.b = slot.b;
      e.kind = slot.kind;
      e.tid = slot.tid;
      std::memcpy(e.name, slot.name, sizeof(e.name));
      e.name[sizeof(e.name) - 1] = '\0';
      e.seq = seq1;
      const std::uint64_t seq2 = slot.seq.load(std::memory_order_acquire);
      if (seq1 != seq2) continue;  // torn: a writer lapped us mid-copy
      events.push_back(e);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FrEvent& x, const FrEvent& y) {
              if (x.t != y.t) return x.t < y.t;
              if (x.tid != y.tid) return x.tid < y.tid;
              return x.seq < y.seq;
            });
  return events;
}

// ---------------------------------------------------------------------------
// Dumps

std::string FlightRecorder::dump_json(std::string_view job,
                                      std::string_view reason) const {
  const std::vector<FrEvent> events = merged();
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.field("job", job);
  w.field("reason", reason);
  w.field("total_recorded", total_recorded());
  w.field("retained", static_cast<std::uint64_t>(events.size()));
  w.begin_array("events");
  for (const FrEvent& e : events) {
    w.begin_object(JsonWriter::Style::kCompact);
    w.field("t", e.t);
    w.field("kind", to_string(static_cast<FrEventKind>(e.kind)));
    w.field("name", std::string_view(e.name));
    w.field("tid", static_cast<std::uint64_t>(e.tid));
    w.field("seq", e.seq);
    w.field("a", e.a);
    w.field("b", e.b);
    w.field("v", e.v);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

bool FlightRecorder::dump_file(const std::string& path, std::string_view job,
                               std::string_view reason) const {
  try {
    write_file_atomic(path, dump_json(job, reason));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// --- async-signal-safe emission --------------------------------------------
//
// Everything below must hold in a signal handler: no allocation, no
// stdio, no locks — formatting into stack buffers, write(2) to flush.

namespace {

#if MCLX_FR_HAVE_SIGNALS

void sig_write(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w <= 0) return;  // full disk / bad fd: nothing safe left to do
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

void sig_puts(int fd, const char* s) { sig_write(fd, s, std::strlen(s)); }

std::size_t fmt_u64(char* buf, std::uint64_t v) {
  char tmp[24];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v > 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

/// Fixed-point "%.6f" without snprintf. Non-finite and absurd values
/// (past 2^63 seconds) degrade to 0 — a post-mortem needs valid JSON
/// more than it needs them.
std::size_t fmt_double(char* buf, double v) {
  std::size_t n = 0;
  if (!(v == v) || v > 9.2e18 || v < -9.2e18) {
    buf[0] = '0';
    return 1;
  }
  if (v < 0) {
    buf[n++] = '-';
    v = -v;
  }
  const std::uint64_t whole = static_cast<std::uint64_t>(v);
  n += fmt_u64(buf + n, whole);
  buf[n++] = '.';
  std::uint64_t frac = static_cast<std::uint64_t>(
      (v - static_cast<double>(whole)) * 1e6 + 0.5);
  if (frac >= 1000000) frac = 999999;  // rounding spilled into the units
  for (int d = 5; d >= 0; --d) {
    buf[n + static_cast<std::size_t>(d)] =
        static_cast<char>('0' + frac % 10);
    frac /= 10;
  }
  return n + 6;
}

/// JSON string emission with the minimal escape set; event names and
/// job ids are ASCII identifiers, but a hostile byte must not produce
/// invalid JSON. Control characters are dropped (escaping them needs
/// \u00XX, not worth it here).
void sig_json_string(int fd, const char* s) {
  sig_puts(fd, "\"");
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      const char esc[3] = {'\\', static_cast<char>(c), '\0'};
      sig_puts(fd, esc);
    } else if (c >= 0x20) {
      sig_write(fd, s, 1);
    }
  }
  sig_puts(fd, "\"");
}

#endif  // MCLX_FR_HAVE_SIGNALS

}  // namespace

void FlightRecorder::dump_fd(int fd, const char* job,
                             const char* reason) const {
#if MCLX_FR_HAVE_SIGNALS
  char num[32];
  sig_puts(fd, "{\"job\":");
  sig_json_string(fd, job != nullptr ? job : "");
  sig_puts(fd, ",\"reason\":");
  sig_json_string(fd, reason != nullptr ? reason : "");
  sig_puts(fd, ",\"total_recorded\":");
  sig_write(fd, num, fmt_u64(num, total_recorded()));
  sig_puts(fd, ",\"events\":[");
  bool first = true;
  for (std::size_t r = 0; r < num_rings_; ++r) {
    const Ring& ring = rings_[r];
    for (std::size_t i = 0; i < capacity_; ++i) {
      const Slot& slot = ring.slots[i];
      const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
      if (seq1 == 0) continue;
      // Copy to the stack, then re-check seq — same torn-slot detection
      // as merged(), memcpy-only so it stays signal-safe.
      FrEvent e;
      e.t = slot.t;
      e.v = slot.v;
      e.a = slot.a;
      e.b = slot.b;
      e.kind = slot.kind;
      e.tid = slot.tid;
      std::memcpy(e.name, slot.name, sizeof(e.name));
      e.name[sizeof(e.name) - 1] = '\0';
      if (slot.seq.load(std::memory_order_acquire) != seq1) continue;
      if (!first) sig_puts(fd, ",");
      first = false;
      sig_puts(fd, "{\"t\":");
      sig_write(fd, num, fmt_double(num, e.t));
      sig_puts(fd, ",\"kind\":");
      sig_json_string(fd,
                      to_string(static_cast<FrEventKind>(e.kind)).data());
      sig_puts(fd, ",\"name\":");
      sig_json_string(fd, e.name);
      sig_puts(fd, ",\"tid\":");
      sig_write(fd, num, fmt_u64(num, e.tid));
      sig_puts(fd, ",\"seq\":");
      sig_write(fd, num, fmt_u64(num, seq1));
      sig_puts(fd, ",\"a\":");
      sig_write(fd, num, fmt_u64(num, e.a));
      sig_puts(fd, ",\"b\":");
      sig_write(fd, num, fmt_u64(num, e.b));
      sig_puts(fd, ",\"v\":");
      sig_write(fd, num, fmt_double(num, e.v));
      sig_puts(fd, "}");
    }
  }
  sig_puts(fd, "]}\n");
#else
  (void)fd;
  (void)job;
  (void)reason;
#endif
}

// ---------------------------------------------------------------------------
// Fatal-signal dump

#if MCLX_FR_HAVE_SIGNALS

namespace {

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE};
constexpr std::size_t kNumFatalSignals =
    sizeof(kFatalSignals) / sizeof(kFatalSignals[0]);

// The handler reads these; install/uninstall write them. The recorder
// pointer is atomic (the handler may race an uninstall on another
// thread); the path buffer is fixed storage written before the pointer
// is published.
std::atomic<FlightRecorder*> g_crash_recorder{nullptr};
char g_crash_path[512] = {};
struct sigaction g_previous[kNumFatalSignals];
bool g_crash_installed = false;

void crash_handler(int sig) {
  FlightRecorder* recorder =
      g_crash_recorder.exchange(nullptr, std::memory_order_acq_rel);
  if (recorder != nullptr) {
    const int fd =
        ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      const char* reason = sig == SIGSEGV   ? "signal:SIGSEGV"
                           : sig == SIGABRT ? "signal:SIGABRT"
                           : sig == SIGBUS  ? "signal:SIGBUS"
                           : sig == SIGFPE  ? "signal:SIGFPE"
                                            : "signal";
      recorder->dump_fd(fd, "", reason);
      ::close(fd);
    }
  }
  // Die the way the default disposition dies (correct wait status,
  // core file where enabled): restore default and re-raise.
  signal(sig, SIG_DFL);
  raise(sig);
}

}  // namespace

bool install_crash_dump(FlightRecorder* recorder, const std::string& path) {
  uninstall_crash_dump();
  if (recorder == nullptr) return false;
  const std::size_t n = std::min(path.size(), sizeof(g_crash_path) - 1);
  std::memcpy(g_crash_path, path.data(), n);
  g_crash_path[n] = '\0';

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = crash_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESETHAND;  // belt and braces vs the explicit restore
  for (std::size_t i = 0; i < kNumFatalSignals; ++i) {
    if (sigaction(kFatalSignals[i], &action, &g_previous[i]) != 0) {
      for (std::size_t j = 0; j < i; ++j) {
        sigaction(kFatalSignals[j], &g_previous[j], nullptr);
      }
      return false;
    }
  }
  g_crash_installed = true;
  g_crash_recorder.store(recorder, std::memory_order_release);
  return true;
}

void uninstall_crash_dump() {
  g_crash_recorder.store(nullptr, std::memory_order_release);
  if (!g_crash_installed) return;
  for (std::size_t i = 0; i < kNumFatalSignals; ++i) {
    sigaction(kFatalSignals[i], &g_previous[i], nullptr);
  }
  g_crash_installed = false;
}

#else  // !MCLX_FR_HAVE_SIGNALS

bool install_crash_dump(FlightRecorder*, const std::string&) { return false; }
void uninstall_crash_dump() {}

#endif

}  // namespace mclx::obs
