// Unit tests for the embedded HTTP observability endpoint: bind/serve/
// stop lifecycle, routing through the caller handler, query parsing,
// error paths, and concurrent fetches against the single listener.

#include "obs/http_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace expdb {
namespace obs {
namespace {

TEST(QueryParamTest, ParsesPairsAndDecodes) {
  EXPECT_EQ(QueryParam("metric=abc", "metric"), "abc");
  EXPECT_EQ(QueryParam("a=1&metric=xy_z&b=2", "metric"), "xy_z");
  EXPECT_EQ(QueryParam("metric=a%20b%2Fc", "metric"), "a b/c");
  EXPECT_EQ(QueryParam("metric=", "metric"), "");
  EXPECT_FALSE(QueryParam("other=1", "metric").has_value());
  EXPECT_FALSE(QueryParam("", "metric").has_value());
}

TEST(HttpEndpointTest, ServesHandlerResponseOnEphemeralPort) {
  HttpEndpoint server([](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = req.method + " " + req.path + "?" + req.query;
    return resp;
  });
  std::string error;
  const int port = server.Start(0, &error);
  ASSERT_GT(port, 0) << error;
  EXPECT_TRUE(server.running());
  EXPECT_EQ(server.port(), port);

  auto resp = HttpGet("127.0.0.1", port, "/hello?x=1", &error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "GET /hello?x=1");

  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
}

TEST(HttpEndpointTest, StartWhileRunningReturnsCurrentPort) {
  HttpEndpoint server([](const HttpRequest&) { return HttpResponse{}; });
  const int port = server.Start(0);
  ASSERT_GT(port, 0);
  EXPECT_EQ(server.Start(0), port);  // idempotent while running
  server.Stop();
  server.Stop();  // idempotent when stopped
}

TEST(HttpEndpointTest, HandlerStatusAndContentTypePropagate) {
  HttpEndpoint server([](const HttpRequest& req) {
    HttpResponse resp;
    if (req.path == "/missing") {
      resp.status = 404;
      resp.body = "not here";
    } else if (req.path == "/unhealthy") {
      resp.status = 503;
      resp.content_type = "application/json";
      resp.body = "{\"status\":\"unhealthy\"}";
    }
    return resp;
  });
  const int port = server.Start(0);
  ASSERT_GT(port, 0);
  auto missing = HttpGet("127.0.0.1", port, "/missing");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);
  EXPECT_EQ(missing->body, "not here");
  auto unhealthy = HttpGet("127.0.0.1", port, "/unhealthy");
  ASSERT_TRUE(unhealthy.has_value());
  EXPECT_EQ(unhealthy->status, 503);
  EXPECT_EQ(unhealthy->content_type, "application/json");
}

TEST(HttpEndpointTest, SequentialAndConcurrentFetches) {
  HttpEndpoint server([](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = "echo:" + req.query;
    return resp;
  });
  const int port = server.Start(0);
  ASSERT_GT(port, 0);
  // The listener serves one connection at a time; concurrent clients
  // queue in the kernel backlog and every fetch must still succeed.
  constexpr int kThreads = 4;
  constexpr int kFetches = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kFetches; ++i) {
        const std::string q = std::to_string(t * 100 + i);
        auto resp = HttpGet("127.0.0.1", port, "/e?" + q);
        if (!resp.has_value() || resp->body != "echo:" + q) ++failures[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  EXPECT_GE(server.requests_served(),
            static_cast<uint64_t>(kThreads) * kFetches);
}

TEST(HttpEndpointTest, RestartAfterStopBindsAgain) {
  HttpEndpoint server([](const HttpRequest&) {
    HttpResponse resp;
    resp.body = "alive";
    return resp;
  });
  const int first = server.Start(0);
  ASSERT_GT(first, 0);
  server.Stop();
  const int second = server.Start(0);
  ASSERT_GT(second, 0);
  auto resp = HttpGet("127.0.0.1", second, "/");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, "alive");
  server.Stop();
}

// A client that sends one byte every 100 ms never completes its request
// line; the endpoint must cut it off at the read deadline (not restart
// its wait after every byte) and then serve the next client.
TEST(HttpEndpointTest, TricklingClientIsCutOffAtTheReadDeadline) {
  HttpEndpoint server([](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = "served " + req.path;
    return resp;
  });
  const int port = server.Start(0);
  ASSERT_GT(port, 0);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed_ms = [&] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  // Trickle "GET /slow..." one byte per 100 ms until the server answers
  // or closes; give up after five deadlines.
  const std::string trickle = "GET /slow" + std::string(200, 'w');
  bool cut_off = false;
  for (size_t i = 0; i < trickle.size() && !cut_off &&
                     elapsed_ms() < 5 * HttpEndpoint::kReadDeadlineMs;
       ++i) {
    if (::send(fd, &trickle[i], 1, MSG_NOSIGNAL) != 1) {
      cut_off = true;
      break;
    }
    pollfd pfd{fd, POLLIN, 0};
    cut_off = ::poll(&pfd, 1, 100) > 0;
  }
  const int64_t waited = elapsed_ms();
  ::close(fd);
  EXPECT_TRUE(cut_off);
  EXPECT_LT(waited, HttpEndpoint::kReadDeadlineMs + 1000);
  auto resp = HttpGet("127.0.0.1", port, "/healthz");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, "served /healthz");
}

TEST(HttpGetTest, ConnectFailureReportsError) {
  // Find a port with nothing listening by binding-and-closing.
  HttpEndpoint probe([](const HttpRequest&) { return HttpResponse{}; });
  const int port = probe.Start(0);
  ASSERT_GT(port, 0);
  probe.Stop();
  std::string error;
  auto resp = HttpGet("127.0.0.1", port, "/", &error, /*timeout_ms=*/1000);
  EXPECT_FALSE(resp.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(HttpEndpointTest, PortInUseFailsWithError) {
  HttpEndpoint first([](const HttpRequest&) { return HttpResponse{}; });
  const int port = first.Start(0);
  ASSERT_GT(port, 0);
  HttpEndpoint second([](const HttpRequest&) { return HttpResponse{}; });
  std::string error;
  EXPECT_EQ(second.Start(port, &error), -1);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace obs
}  // namespace expdb
