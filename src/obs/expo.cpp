#include "obs/expo.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/run_report.hpp"  // json_number: shortest round-trip doubles

namespace mclx::obs {

namespace {

/// One sample line: name[{labels}] value.
void sample(std::ostream& os, const std::string& name,
            const std::string& labels, double value) {
  os << name;
  if (!labels.empty()) os << '{' << labels << '}';
  os << ' ' << json_number(value) << '\n';
}

void sample(std::ostream& os, const std::string& name,
            const std::string& labels, std::uint64_t value) {
  os << name;
  if (!labels.empty()) os << '{' << labels << '}';
  os << ' ' << value << '\n';
}

void header(std::ostream& os, const std::string& name, std::string_view kind,
            std::string_view source) {
  os << "# HELP " << name << " mclx metric " << source << '\n';
  os << "# TYPE " << name << ' ' << kind << '\n';
}

std::string quantile_label(double q) {
  return "quantile=\"" + json_number(q) + "\"";
}

}  // namespace

std::string prometheus_name(std::string_view name, std::string_view prefix) {
  std::string out;
  out.reserve(prefix.size() + name.size() + 1);
  if (!prefix.empty()) {
    out.append(prefix);
    out.push_back('_');
  }
  if (prefix.empty() && !name.empty() && name.front() >= '0' &&
      name.front() <= '9') {
    out.push_back('_');
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string prometheus_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void write_prometheus(std::ostream& os, const MetricsRegistry& registry,
                      const ExpoOptions& options) {
  registry.for_each(
      [&](std::string_view name, std::uint64_t value) {
        const std::string base =
            prometheus_name(name, options.prefix) + "_total";
        header(os, base, "counter", name);
        sample(os, base, "", value);
      },
      [&](std::string_view name, const Histogram& hist) {
        const std::string base = prometheus_name(name, options.prefix);
        header(os, base, "histogram", name);
        // Cumulative le buckets straight from the log2 buckets: the
        // underflow bucket closes at 0, bucket e at 2^e.
        std::uint64_t cum = 0;
        if (hist.nonpositive() > 0) {
          cum += hist.nonpositive();
          sample(os, base + "_bucket", "le=\"0\"", cum);
        }
        for (const auto& [e, c] : hist.buckets()) {
          cum += c;
          sample(os, base + "_bucket",
                 "le=\"" + json_number(Histogram::bucket_hi(e)) + "\"", cum);
        }
        sample(os, base + "_bucket", "le=\"+Inf\"", hist.count());
        sample(os, base + "_sum", "", hist.sum());
        sample(os, base + "_count", "", hist.count());
        if (!options.quantiles.empty() && !hist.empty()) {
          header(os, base + "_quantile", "gauge", name);
          for (const double q : options.quantiles) {
            sample(os, base + "_quantile", quantile_label(q),
                   hist.quantile(q));
          }
        }
        if (!hist.empty()) {
          header(os, base + "_min", "gauge", name);
          sample(os, base + "_min", "", hist.min());
          header(os, base + "_max", "gauge", name);
          sample(os, base + "_max", "", hist.max());
        }
      });
}

void write_prometheus_jobs(std::ostream& os,
                           const std::vector<ProgressSnapshot>& jobs,
                           const ExpoOptions& options) {
  if (jobs.empty()) return;
  const std::string p =
      options.prefix.empty() ? "job" : options.prefix + "_job";
  struct Gauge {
    const char* suffix;
    const char* kind;
    std::function<double(const ProgressSnapshot&)> value;
  };
  const Gauge gauges[] = {
      {"_iteration", "gauge",
       [](const ProgressSnapshot& s) {
         return static_cast<double>(s.iteration);
       }},
      {"_chaos", "gauge", [](const ProgressSnapshot& s) { return s.chaos; }},
      {"_live_nnz", "gauge",
       [](const ProgressSnapshot& s) {
         return static_cast<double>(s.live_nnz);
       }},
      {"_ledger_bytes", "gauge",
       [](const ProgressSnapshot& s) {
         return static_cast<double>(s.ledger_bytes);
       }},
      {"_virtual_seconds", "gauge",
       [](const ProgressSnapshot& s) { return s.virtual_s; }},
      {"_wall_seconds", "gauge",
       [](const ProgressSnapshot& s) { return s.wall_s; }},
      {"_active", "gauge",
       [](const ProgressSnapshot& s) {
         return s.started && !s.finished ? 1.0 : 0.0;
       }},
  };
  for (const Gauge& g : gauges) {
    const std::string name = p + g.suffix;
    header(os, name, g.kind, "job progress gauge");
    for (const ProgressSnapshot& s : jobs) {
      sample(os, name, "job=\"" + prometheus_label_value(s.job) + "\"",
             g.value(s));
    }
  }
  // The stage gauge carries the stage name as a label next to its index,
  // so dashboards can display it without a mapping table.
  const std::string stage_name = p + "_stage";
  header(os, stage_name, "gauge", "job run stage");
  for (const ProgressSnapshot& s : jobs) {
    sample(os, stage_name,
           "job=\"" + prometheus_label_value(s.job) + "\",stage=\"" +
               std::string(to_string(s.stage)) + "\"",
           static_cast<std::uint64_t>(s.stage));
  }
}

std::string prometheus_text(const MetricsRegistry* registry,
                            const std::vector<ProgressSnapshot>* jobs,
                            const ExpoOptions& options) {
  std::ostringstream os;
  if (registry) write_prometheus(os, *registry, options);
  if (jobs) write_prometheus_jobs(os, *jobs, options);
  return os.str();
}

void write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      // The open itself may have created a zero-byte tmp before failing
      // (e.g. quota exceeded on the first block): clean up regardless.
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error("write_file_atomic: cannot open " + tmp);
    }
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.close();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error("write_file_atomic: write failed");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm_ec;
    std::filesystem::remove(tmp, rm_ec);
    throw std::filesystem::filesystem_error("write_file_atomic: rename failed",
                                            tmp, path, ec);
  }
}

// ---------------------------------------------------------------------------
// StatusServer

namespace {

/// How long a client has to send its request line. The server answers
/// one connection at a time, so this bounds how long a silent or slow
/// client holds up every other request and the server's shutdown.
constexpr std::chrono::microseconds kRequestDeadline = std::chrono::seconds(1);

/// Longest request line read; a longer one is a bad request.
constexpr std::size_t kMaxRequestLine = 2048;

constexpr std::string_view kPlainText =
    "text/plain; version=0.0.4; charset=utf-8";

void respond(int fd, std::string_view status, std::string_view type,
             std::string_view body) {
  std::ostringstream response;
  response << "HTTP/1.1 " << status << "\r\n"
           << "Content-Type: " << type << "\r\n"
           << "Content-Length: " << body.size() << "\r\n"
           << "Connection: close\r\n\r\n"
           << body;
  const std::string out = response.str();
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t w =
        ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) return;
    sent += static_cast<std::size_t>(w);
  }
}

}  // namespace

StatusServer::StatusServer(int port, Content content)
    : content_(std::move(content)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("StatusServer: socket failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 8) < 0) {
    ::close(listen_fd_);
    throw std::runtime_error("StatusServer: cannot bind 127.0.0.1:" +
                             std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));
  thread_ = std::thread([this] { serve_loop(); });
}

StatusServer::~StatusServer() {
  stop_.store(true);
  // The loop polls with a timeout, so a plain join suffices; shutdown
  // kicks it out of any in-flight accept immediately.
  ::shutdown(listen_fd_, SHUT_RDWR);
  thread_.join();
  ::close(listen_fd_);
}

void StatusServer::serve_loop() {
  while (!stop_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100 /*ms*/);
    if (stop_.load()) return;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    handle(fd);
    ::close(fd);
  }
}

void StatusServer::handle(int fd) {
  // One short GET per connection, routed on its request line. The line
  // must arrive before the deadline: every recv waits at most the time
  // left, so a client that trickles bytes cannot stretch it either.
  const auto deadline = std::chrono::steady_clock::now() + kRequestDeadline;
  std::string request;
  bool timed_out = false;
  while (request.find('\n') == std::string::npos &&
         request.size() < kMaxRequestLine) {
    const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      timed_out = true;
      break;
    }
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(left.count() / 1'000'000);
    tv.tv_usec = static_cast<suseconds_t>(left.count() % 1'000'000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char buf[512];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      request.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno != EINTR) {
      timed_out = errno == EAGAIN || errno == EWOULDBLOCK;
      break;
    } else if (n == 0) {
      break;  // the client closed its side: route what it sent
    }
  }
  if (timed_out) {
    respond(fd, "408 Request Timeout", kPlainText,
            "no request line within the deadline\n");
    return;
  }
  if (request.empty()) return;

  // "GET <path>[ <version>]"; a query string does not change the route.
  const std::string_view line = std::string_view(request).substr(
      0, request.find_first_of("\r\n"));
  std::string_view path;
  if (line.substr(0, 4) == "GET ") {
    path = line.substr(4, line.find(' ', 4) - 4);
    path = path.substr(0, path.find('?'));
  }
  if (line.size() >= kMaxRequestLine || path.empty() || path[0] != '/') {
    respond(fd, "400 Bad Request", kPlainText, "expected GET <path>\n");
  } else if (path == "/metrics") {
    respond(fd, "200 OK", kPlainText,
            content_.metrics_text ? content_.metrics_text() : "");
  } else if (path == "/jobs") {
    respond(fd, "200 OK", "application/json",
            content_.jobs_json ? content_.jobs_json() : "[]");
  } else {
    respond(fd, "404 Not Found", kPlainText, "try /metrics or /jobs\n");
  }
}

}  // namespace mclx::obs
