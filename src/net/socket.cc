#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "util/fault.h"

namespace snorkel {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(Errno("fcntl(O_NONBLOCK)"));
  }
  return Status::OK();
}

/// Milliseconds until `deadline`, clamped for poll(): -1 = no deadline,
/// 0 = already expired.
int PollTimeout(SocketDeadline deadline) {
  if (deadline == kNoDeadline) return -1;
  auto now = std::chrono::steady_clock::now();
  if (deadline <= now) return 0;
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now)
                .count();
  return static_cast<int>(std::min<long long>(ms + 1, 1 << 30));
}

/// Waits for `events` on `fd` until the deadline. OK = ready.
Status WaitReady(int fd, short events, SocketDeadline deadline,
                 const char* what) {
  for (;;) {
    int timeout = PollTimeout(deadline);
    if (timeout == 0) {
      return Status::DeadlineExceeded(std::string(what) +
                                      " deadline expired");
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    int rc = poll(&pfd, 1, timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("poll"));
    }
    if (rc == 0) {
      return Status::DeadlineExceeded(std::string(what) +
                                      " deadline expired");
    }
    // Readable/writable OR error/hangup: let the following read/write call
    // surface the precise failure.
    return Status::OK();
  }
}

}  // namespace

SocketDeadline DeadlineAfterMs(uint64_t timeout_ms) {
  if (timeout_ms == 0) return kNoDeadline;
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(timeout_ms);
}

uint64_t RemainingMs(SocketDeadline deadline) {
  if (deadline == kNoDeadline) return 0;
  auto now = std::chrono::steady_clock::now();
  if (deadline <= now) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count());
}

Socket::Socket(int fd) : fd_(fd) {
  if (fd_ >= 0) (void)SetNonBlocking(fd_);
}

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket::~Socket() { Close(); }

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> Socket::Connect(const std::string& host, uint16_t port,
                               SocketDeadline deadline) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Not a dotted quad: resolve (IPv4 only — the fabric is loopback/LAN).
    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* info = nullptr;
    int rc = getaddrinfo(host.c_str(), nullptr, &hints, &info);
    if (rc != 0 || info == nullptr) {
      if (info != nullptr) freeaddrinfo(info);
      return Status::Unavailable("cannot resolve host '" + host +
                                 "': " + gai_strerror(rc));
    }
    addr.sin_addr =
        reinterpret_cast<struct sockaddr_in*>(info->ai_addr)->sin_addr;
    freeaddrinfo(info);
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  Socket socket(fd);  // Adopts + sets non-blocking; closes on early return.
  int one = 1;
  // Frames are written whole and latency matters more than byte count on
  // this RPC path; disable Nagle.
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
  // EINTR: a signal interrupted connect, but the connection attempt
  // continues asynchronously exactly like EINPROGRESS — poll for the
  // outcome instead of surfacing a spurious transport error.
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    return Status::Unavailable(Errno("connect to " + host + ":" +
                                     std::to_string(port)));
  }
  if (rc != 0) {
    Status ready = WaitReady(fd, POLLOUT, deadline, "connect");
    if (!ready.ok()) return ready;
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      errno = err != 0 ? err : errno;
      return Status::Unavailable(Errno("connect to " + host + ":" +
                                       std::to_string(port)));
    }
  }
  return socket;
}

Status Socket::SendAll(std::string_view bytes, SocketDeadline deadline) {
  if (fd_ < 0) return Status::Unavailable("send on closed socket");
  if (fault::Point("net.send")) {
    // Same typed error a real mid-send break produces; the connection is
    // poisoned from the caller's perspective either way.
    return Status::Unavailable("injected fault at net.send");
  }
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      SNORKEL_RETURN_IF_ERROR(WaitReady(fd_, POLLOUT, deadline, "send"));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable(Errno("send"));
  }
  return Status::OK();
}

Status Socket::RecvExact(char* out, size_t size, SocketDeadline deadline,
                         bool eof_ok) {
  size_t got = 0;
  return RecvSome(out, size, &got, deadline, eof_ok);
}

Status Socket::RecvSome(char* out, size_t size, size_t* got,
                        SocketDeadline deadline, bool eof_ok) {
  if (fd_ < 0) return Status::Unavailable("recv on closed socket");
  if (fault::Point("net.recv")) {
    return Status::Unavailable("injected fault at net.recv");
  }
  while (*got < size) {
    ssize_t n = ::recv(fd_, out + *got, size - *got, 0);
    if (n > 0) {
      *got += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      if (*got == 0 && eof_ok) {
        return Status::NotFound("peer closed the connection");
      }
      return Status::Unavailable("peer closed the connection mid-message");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // A deadline expiry propagates with *got intact — the caller may
      // re-arm and resume without losing consumed stream bytes.
      SNORKEL_RETURN_IF_ERROR(WaitReady(fd_, POLLIN, deadline, "recv"));
      continue;
    }
    if (errno == EINTR) continue;
    return Status::Unavailable(Errno("recv"));
  }
  return Status::OK();
}

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

ListenSocket::~ListenSocket() { Close(); }

void ListenSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<ListenSocket> ListenSocket::Listen(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  ListenSocket listener;
  listener.fd_ = fd;
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  Status nonblocking = SetNonBlocking(fd);
  if (!nonblocking.ok()) return nonblocking;

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Unavailable(Errno("bind to port " + std::to_string(port)));
  }
  if (::listen(fd, backlog) != 0) {
    return Status::Unavailable(Errno("listen"));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
    return Status::Internal(Errno("getsockname"));
  }
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Result<Socket> ListenSocket::Accept(uint64_t timeout_ms) {
  if (fd_ < 0) return Status::Unavailable("accept on closed socket");
  SocketDeadline deadline = DeadlineAfterMs(timeout_ms);
  for (;;) {
    Status ready = WaitReady(fd_, POLLIN, deadline, "accept");
    if (!ready.ok()) return ready;
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      // EINTR (signal) and EAGAIN (another waiter took the connection) are
      // both "nothing accepted YET", not errors: keep waiting within the
      // deadline instead of surfacing a spurious failure.
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;
      }
      return Status::Unavailable(Errno("accept"));
    }
    int one = 1;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Socket(fd);
  }
}

Status SendFrame(Socket& socket, const Frame& frame, SocketDeadline deadline) {
  return socket.SendAll(EncodeFrame(frame), deadline);
}

Result<Frame> RecvFrame(Socket& socket, SocketDeadline deadline, bool eof_ok) {
  char header_bytes[kWireHeaderBytes];
  SNORKEL_RETURN_IF_ERROR(
      socket.RecvExact(header_bytes, sizeof(header_bytes), deadline, eof_ok));
  auto header = DecodeFrameHeader(
      std::string_view(header_bytes, sizeof(header_bytes)));
  if (!header.ok()) return header.status();
  std::string body(header->body_size, '\0');
  if (!body.empty()) {
    SNORKEL_RETURN_IF_ERROR(
        socket.RecvExact(body.data(), body.size(), deadline));
  }
  return DecodeFrameBody(body);
}

Result<Frame> FrameReader::Recv(Socket& socket, SocketDeadline deadline,
                                bool eof_ok) {
  if (!have_header_) {
    if (buffer_.size() != kWireHeaderBytes) {
      buffer_.assign(kWireHeaderBytes, '\0');
    }
    SNORKEL_RETURN_IF_ERROR(socket.RecvSome(buffer_.data(), kWireHeaderBytes,
                                            &got_, deadline,
                                            eof_ok && got_ == 0));
    auto header = DecodeFrameHeader(
        std::string_view(buffer_.data(), kWireHeaderBytes));
    if (!header.ok()) return header.status();
    header_ = *header;
    have_header_ = true;
    got_ = 0;
    buffer_.assign(header_.body_size, '\0');
  }
  SNORKEL_RETURN_IF_ERROR(
      socket.RecvSome(buffer_.data(), header_.body_size, &got_, deadline));
  auto frame = DecodeFrameBody(
      std::string_view(buffer_.data(), header_.body_size));
  // The frame's bytes are fully consumed either way; reset for the next one.
  have_header_ = false;
  got_ = 0;
  buffer_.clear();
  return frame;
}

}  // namespace snorkel
