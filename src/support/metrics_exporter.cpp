//===- support/metrics_exporter.cpp - Prometheus egress ------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// The HTTP side is deliberately primitive: one blocking listener
// polled with a short timeout so stop() is prompt, one request served
// at a time, request bytes read once. Only the request line's path is
// parsed — enough to route "/", "/metrics", and the registered
// endpoints, and to give everything else an honest 404. Still no event
// loop, no framework, and no failure modes beyond the socket calls
// themselves.
//
//===----------------------------------------------------------------------===//

#include "support/metrics_exporter.h"

#include "quality/live_stats.h"
#include "support/telemetry.h"

#include <chrono>
#include <cstdio>
#include <string_view>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace sepe;

std::string metrics::renderPrometheus(const ExtraFn &Extra) {
  std::string Out = telemetry::toPrometheus();
  Out += "# TYPE sepe_trace_emitted counter\n";
  Out += "sepe_trace_emitted " + std::to_string(telemetry::emitted()) + "\n";
  Out += "# TYPE sepe_trace_dropped counter\n";
  Out += "sepe_trace_dropped " + std::to_string(telemetry::dropped()) + "\n";
  Out += "# TYPE sepe_trace_occupancy gauge\n";
  Out += "sepe_trace_occupancy " + std::to_string(telemetry::occupancy()) +
         "\n";
  Out += quality::liveStatsPrometheus();
  if (Extra)
    Out += Extra();
  return Out;
}

// --- MetricsServer ----------------------------------------------------------

bool metrics::MetricsServer::start(uint16_t Port, ExtraFn ExtraIn) {
  if (running())
    return false;

  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  const int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 8) != 0) {
    ::close(Fd);
    return false;
  }

  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    BoundPort = ntohs(Addr.sin_port);
  else
    BoundPort = Port;

  ListenFd = Fd;
  Extra = std::move(ExtraIn);
  StopFlag.store(false, std::memory_order_release);
  Running.store(true, std::memory_order_release);
  Thread = std::thread([this] { serveLoop(); });
  return true;
}

void metrics::MetricsServer::registerHandler(
    std::string Path, std::string ContentType,
    std::function<std::string()> Body) {
  Endpoints.push_back({std::move(Path), std::move(ContentType),
                       std::move(Body)});
}

namespace {

/// Extracts the request path from "METHOD /path[?query] HTTP/1.x...".
/// Empty string when the request line does not parse.
std::string requestPath(const char *Buf, size_t Len) {
  const std::string_view Request(Buf, Len);
  const size_t FirstSpace = Request.find(' ');
  if (FirstSpace == std::string_view::npos)
    return "";
  const size_t PathEnd = Request.find_first_of(" \r\n", FirstSpace + 1);
  if (PathEnd == std::string_view::npos)
    return "";
  std::string_view Path =
      Request.substr(FirstSpace + 1, PathEnd - FirstSpace - 1);
  const size_t Query = Path.find('?');
  if (Query != std::string_view::npos)
    Path = Path.substr(0, Query);
  return std::string(Path);
}

} // namespace

void metrics::MetricsServer::serveLoop() {
  while (!StopFlag.load(std::memory_order_acquire)) {
    pollfd Pfd{ListenFd, POLLIN, 0};
    const int Ready = ::poll(&Pfd, 1, /*timeout_ms=*/200);
    if (Ready <= 0 || (Pfd.revents & POLLIN) == 0)
      continue;
    const int Client = ::accept(ListenFd, nullptr, nullptr);
    if (Client < 0)
      continue;

    // One read is enough for the request line; the headers behind it
    // never change the routing decision.
    char Buf[1024];
    const ssize_t Got = ::recv(Client, Buf, sizeof(Buf), 0);
    const std::string Path =
        Got > 0 ? requestPath(Buf, static_cast<size_t>(Got)) : "";

    std::string Status = "200 OK";
    std::string ContentType = "text/plain; version=0.0.4; charset=utf-8";
    std::string Body;
    const Endpoint *Mounted = nullptr;
    for (const Endpoint &E : Endpoints)
      if (E.Path == Path) {
        Mounted = &E;
        break;
      }
    if (Mounted != nullptr) {
      ContentType = Mounted->ContentType;
      Body = Mounted->Body ? Mounted->Body() : "";
    } else if (Path == "/" || Path == "/metrics") {
      Body = renderPrometheus(Extra);
    } else {
      Status = "404 Not Found";
      ContentType = "text/plain; charset=utf-8";
      Body = "404 not found: " + (Path.empty() ? "<bad request>" : Path) +
             "\nknown paths: /metrics";
      for (const Endpoint &E : Endpoints)
        Body += " " + E.Path;
      Body += "\n";
    }

    std::string Response = "HTTP/1.1 " + Status +
                           "\r\n"
                           "Content-Type: " +
                           ContentType +
                           "\r\n"
                           "Content-Length: " +
                           std::to_string(Body.size()) +
                           "\r\n"
                           "Connection: close\r\n\r\n" +
                           Body;
    size_t Off = 0;
    while (Off < Response.size()) {
      const ssize_t N =
          ::send(Client, Response.data() + Off, Response.size() - Off,
                 MSG_NOSIGNAL);
      if (N <= 0)
        break;
      Off += static_cast<size_t>(N);
    }
    ::close(Client);
    Served.fetch_add(1, std::memory_order_relaxed);
  }
}

void metrics::MetricsServer::stop() {
  if (!running())
    return;
  StopFlag.store(true, std::memory_order_release);
  if (Thread.joinable())
    Thread.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  BoundPort = 0;
  Running.store(false, std::memory_order_release);
}

// --- SnapshotWriter ---------------------------------------------------------

void metrics::SnapshotWriter::start(std::string PathIn, double IntervalSec,
                                    ExtraFn ExtraIn) {
  if (Running.load(std::memory_order_acquire))
    return;
  Path = std::move(PathIn);
  Extra = std::move(ExtraIn);
  StopFlag.store(false, std::memory_order_release);
  Running.store(true, std::memory_order_release);
  Thread = std::thread([this, IntervalSec] { writeLoop(IntervalSec); });
}

bool metrics::SnapshotWriter::writeOnce() {
  const std::string Body = renderPrometheus(Extra);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (F == nullptr)
    return false;
  const bool Wrote = std::fwrite(Body.data(), 1, Body.size(), F) ==
                     Body.size();
  const bool Ok = (std::fclose(F) == 0) && Wrote;
  if (Ok)
    Written.fetch_add(1, std::memory_order_relaxed);
  return Ok;
}

void metrics::SnapshotWriter::writeLoop(double IntervalSec) {
  using namespace std::chrono;
  const auto Interval =
      duration_cast<steady_clock::duration>(duration<double>(
          IntervalSec < 0.05 ? 0.05 : IntervalSec));
  auto Next = steady_clock::now() + Interval;
  while (!StopFlag.load(std::memory_order_acquire)) {
    // Sleep in short slices so stop() never waits a full interval.
    std::this_thread::sleep_for(milliseconds(20));
    if (steady_clock::now() < Next)
      continue;
    (void)writeOnce();
    Next = steady_clock::now() + Interval;
  }
}

void metrics::SnapshotWriter::stop() {
  if (!Running.load(std::memory_order_acquire))
    return;
  StopFlag.store(true, std::memory_order_release);
  if (Thread.joinable())
    Thread.join();
  (void)writeOnce(); // final snapshot reflects end-of-run state
  Running.store(false, std::memory_order_release);
}
