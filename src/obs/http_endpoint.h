// Embedded HTTP observability endpoint (docs/OBSERVABILITY.md §9): a
// minimal, dependency-free HTTP/1.1 server over POSIX sockets so the
// engine's metrics, health verdict, and telemetry rings are reachable
// from *outside* the process (curl, Prometheus, a load balancer's
// health checker).
//
// Deliberately small: one blocking listener thread on 127.0.0.1, one
// connection served at a time, GET only, Connection: close. That is
// exactly enough for a scrape/health-check surface and keeps the
// attack/bug surface commensurate with an embedded database. The
// routing is a caller-supplied handler, so this layer knows nothing
// about the engine — obs sits at the bottom of the dependency stack
// (below even common), hence the error-string API instead of Status.

#ifndef EXPDB_OBS_HTTP_ENDPOINT_H_
#define EXPDB_OBS_HTTP_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace expdb {
namespace obs {

/// \brief One parsed request line. Only what routing needs: the method,
/// the path, and the raw (undecoded) query string.
struct HttpRequest {
  std::string method;  ///< "GET", uppercased
  std::string path;    ///< "/metrics"
  std::string query;   ///< "metric=expdb_sql_statements_total" ("" = none)
};

/// \brief One response. The server adds Content-Length and
/// Connection: close itself.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// \brief Extracts the value of `key` from a query string of
/// k=v&k2=v2 pairs (%XX-decoded); nullopt when absent.
std::optional<std::string> QueryParam(const std::string& query,
                                      const std::string& key);

/// \brief The blocking single-listener server. Start() binds and spawns
/// the thread; Stop() (and the destructor) joins it. Requests and
/// malformed/oversized inputs count into expdb_http_requests_total /
/// expdb_http_errors_total.
class HttpEndpoint {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// A connection's whole request must arrive within this long of its
  /// accept; a client that trickles bytes cannot hold the single
  /// listener past it.
  static constexpr int kReadDeadlineMs = 1000;

  explicit HttpEndpoint(Handler handler);
  ~HttpEndpoint();

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// \brief Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port)
  /// and starts the listener thread. Returns the actually bound port,
  /// or -1 with `*error` describing the failure (port in use, no
  /// socket). Idempotent while running: returns the current port.
  int Start(int port, std::string* error = nullptr);

  /// \brief Stops and joins the listener (idempotent). The in-flight
  /// connection, if any, finishes; the listening socket closes. May
  /// take up to one poll timeout (~200ms) to return.
  void Stop();

  bool running() const;

  /// \brief The actually bound port (differs from Start's argument when
  /// 0 was passed); 0 when not running.
  int port() const;

  uint64_t requests_served() const { return requests_.value(); }

 private:
  void Loop(int listen_fd);
  void ServeConnection(int fd);

  Handler handler_;
  mutable std::mutex mu_;
  std::thread thread_;
  bool thread_running_ = false;  // guarded by mu_
  int port_ = 0;                 // guarded by mu_
  std::atomic<bool> stop_{false};

  // Instance counters parented into the process-wide expdb_http_*.
  obs::Counter requests_;
  obs::Counter errors_;
};

/// \brief A minimal blocking HTTP/1.1 GET client for tests and the CI
/// artifact gate (fetch-your-own-endpoint over loopback). `target` is
/// the path plus optional query ("/metrics", "/timeseries?metric=x").
/// Returns nullopt with `*error` set on connect/read failure. Not a
/// general client: no redirects, no chunked encoding; the response is
/// read until EOF (this server closes per response).
std::optional<HttpResponse> HttpGet(const std::string& host, int port,
                                    const std::string& target,
                                    std::string* error = nullptr,
                                    int timeout_ms = 5000);

}  // namespace obs
}  // namespace expdb

#endif  // EXPDB_OBS_HTTP_ENDPOINT_H_
