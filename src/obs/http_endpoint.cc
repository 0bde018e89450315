#include "obs/http_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace expdb {
namespace obs {

namespace {

// Bounds chosen for a scrape endpoint: request lines are short, and a
// client that sends more than this is not a scraper.
constexpr size_t kMaxRequestBytes = 8192;
// The accept loop polls with this timeout so Stop() is noticed promptly
// without any cross-thread socket shutdown dance.
constexpr int kPollTimeoutMs = 200;

std::string StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Status";
  }
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string PercentDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size() && HexDigit(s[i + 1]) >= 0 &&
        HexDigit(s[i + 2]) >= 0) {
      out.push_back(static_cast<char>(HexDigit(s[i + 1]) * 16 +
                                      HexDigit(s[i + 2])));
      i += 2;
    } else if (s[i] == '+') {
      out.push_back(' ');
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

/// Writes the whole buffer, tolerating short writes and EINTR.
bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::optional<std::string> QueryParam(const std::string& query,
                                      const std::string& key) {
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string_view pair =
        std::string_view(query).substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    const std::string_view k = eq == std::string_view::npos
                                   ? pair
                                   : pair.substr(0, eq);
    if (PercentDecode(k) == key) {
      return eq == std::string_view::npos ? std::string()
                                          : PercentDecode(pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
  return std::nullopt;
}

HttpEndpoint::HttpEndpoint(Handler handler) : handler_(std::move(handler)) {
  MetricsRegistry& r = MetricsRegistry::Global();
  requests_.SetParent(r.GetCounter(
      "expdb_http_requests_total", "HTTP observability requests served"));
  errors_.SetParent(r.GetCounter(
      "expdb_http_errors_total",
      "HTTP observability requests rejected (malformed, oversized, or "
      "non-GET)"));
}

HttpEndpoint::~HttpEndpoint() { Stop(); }

int HttpEndpoint::Start(int port, std::string* error) {
  std::lock_guard<std::mutex> guard(mu_);
  if (thread_running_) return port_;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = "socket(): " + std::string(strerror(errno));
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = "bind(127.0.0.1:" + std::to_string(port) +
               "): " + std::string(strerror(errno));
    }
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 16) != 0) {
    if (error != nullptr) *error = "listen(): " + std::string(strerror(errno));
    ::close(fd);
    return -1;
  }
  // Recover the kernel-assigned port when 0 was requested.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    if (error != nullptr) {
      *error = "getsockname(): " + std::string(strerror(errno));
    }
    ::close(fd);
    return -1;
  }
  port_ = ntohs(bound.sin_port);
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread(&HttpEndpoint::Loop, this, fd);
  thread_running_ = true;
  return port_;
}

void HttpEndpoint::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!thread_running_) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_running_ = false;
    port_ = 0;
    to_join = std::move(thread_);
  }
  if (to_join.joinable()) to_join.join();
}

bool HttpEndpoint::running() const {
  std::lock_guard<std::mutex> guard(mu_);
  return thread_running_;
}

int HttpEndpoint::port() const {
  std::lock_guard<std::mutex> guard(mu_);
  return port_;
}

void HttpEndpoint::Loop(int listen_fd) {
  // The listening fd is owned by this thread: opened by Start, closed
  // here on the way out — no cross-thread close races.
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTimeoutMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // listener broken; nothing sensible to do but exit
    }
    if (ready == 0) continue;  // timeout: re-check stop_
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;
    ServeConnection(conn);
    ::close(conn);
  }
  ::close(listen_fd);
}

void HttpEndpoint::ServeConnection(int fd) {
  // Read until the end of the header block (we never accept bodies), but
  // never past the read deadline fixed here, at accept time.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kReadDeadlineMs);
  std::string request;
  char buf[2048];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    if (request.size() > kMaxRequestBytes) {
      errors_.Increment();
      WriteAll(fd, "HTTP/1.1 400 Bad Request\r\nConnection: close\r\n"
                   "Content-Length: 0\r\n\r\n");
      return;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }

  // Parse "METHOD /path?query HTTP/1.1".
  const size_t line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos
                         ? std::string::npos
                         : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    errors_.Increment();
    WriteAll(fd, "HTTP/1.1 400 Bad Request\r\nConnection: close\r\n"
                 "Content-Length: 0\r\n\r\n");
    return;
  }
  HttpRequest req;
  req.method = line.substr(0, sp1);
  for (char& c : req.method) c = static_cast<char>(toupper(c));
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    req.query = target.substr(qmark + 1);
    target.resize(qmark);
  }
  req.path = PercentDecode(target);

  requests_.Increment();
  HttpResponse resp;
  if (req.method != "GET") {
    errors_.Increment();
    resp.status = 405;
    resp.content_type = "text/plain; charset=utf-8";
    resp.body = "only GET is supported\n";
  } else {
    resp = handler_(req);
  }

  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    StatusText(resp.status) + "\r\n";
  out += "Content-Type: " + resp.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += resp.body;
  WriteAll(fd, out);
}

std::optional<HttpResponse> HttpGet(const std::string& host, int port,
                                    const std::string& target,
                                    std::string* error, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = "socket(): " + std::string(strerror(errno));
    return std::nullopt;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad host address '" + host + "'";
    ::close(fd);
    return std::nullopt;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = "connect(" + host + ":" + std::to_string(port) +
               "): " + std::string(strerror(errno));
    }
    ::close(fd);
    return std::nullopt;
  }
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!WriteAll(fd, request)) {
    if (error != nullptr) *error = "send(): " + std::string(strerror(errno));
    ::close(fd);
    return std::nullopt;
  }

  std::string raw;
  char buf[4096];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) {
      if (error != nullptr) *error = "timed out waiting for response";
      ::close(fd);
      return std::nullopt;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = "recv(): " + std::string(strerror(errno));
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;  // server closed: response complete
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos || raw.rfind("HTTP/", 0) != 0) {
    if (error != nullptr) *error = "malformed response";
    return std::nullopt;
  }
  HttpResponse resp;
  const size_t sp = raw.find(' ');
  if (sp != std::string::npos && sp + 4 <= raw.size()) {
    resp.status = std::atoi(raw.c_str() + sp + 1);
  }
  // Recover Content-Type for callers that verify it.
  const std::string headers = raw.substr(0, header_end);
  size_t ct = headers.find("Content-Type:");
  if (ct == std::string::npos) ct = headers.find("content-type:");
  if (ct != std::string::npos) {
    size_t ct_end = headers.find("\r\n", ct);
    if (ct_end == std::string::npos) ct_end = headers.size();
    std::string value = headers.substr(ct + 13, ct_end - ct - 13);
    const size_t first = value.find_first_not_of(' ');
    resp.content_type = first == std::string::npos ? "" : value.substr(first);
  }
  resp.body = raw.substr(header_end + 4);
  return resp;
}

}  // namespace obs
}  // namespace expdb
