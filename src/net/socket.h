#ifndef SNORKEL_NET_SOCKET_H_
#define SNORKEL_NET_SOCKET_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/wire.h"
#include "util/status.h"

namespace snorkel {

/// Absolute deadline for a socket operation (steady clock, so wall-clock
/// jumps cannot spuriously expire a request). kNoDeadline = wait forever.
using SocketDeadline = std::chrono::steady_clock::time_point;
inline constexpr SocketDeadline kNoDeadline = SocketDeadline::max();

/// Deadline `timeout_ms` milliseconds from now; 0 = kNoDeadline.
SocketDeadline DeadlineAfterMs(uint64_t timeout_ms);

/// Milliseconds left until `deadline`; 0 when no deadline is set OR the
/// deadline is already spent (callers distinguish via kNoDeadline).
uint64_t RemainingMs(SocketDeadline deadline);

/// A connected TCP stream socket (RAII over the fd, move-only). All IO is
/// non-blocking under the hood with poll()-based waits, so every call takes
/// an absolute deadline and fails typed instead of hanging:
///   - kDeadlineExceeded: the deadline expired mid-operation.
///   - kUnavailable: the peer is unreachable or the connection broke
///     (ECONNREFUSED/ECONNRESET/EPIPE/EOF mid-message).
/// SIGPIPE is suppressed per-send (MSG_NOSIGNAL); no global signal state.
class Socket {
 public:
  Socket() = default;
  /// Adopts an fd (already connected; switched to non-blocking).
  explicit Socket(int fd);
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  /// Connects to host:port within the deadline. `host` is a dotted-quad or
  /// resolvable name ("127.0.0.1", "localhost").
  static Result<Socket> Connect(const std::string& host, uint16_t port,
                                SocketDeadline deadline);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  /// Writes all of `bytes` or fails typed.
  Status SendAll(std::string_view bytes, SocketDeadline deadline);

  /// Reads exactly `size` bytes into `out` or fails typed. EOF before
  /// `size` bytes is kUnavailable (the peer hung up mid-message); EOF at
  /// offset 0 with `eof_ok` reports kNotFound so callers can distinguish a
  /// clean peer close from a mid-frame break. A deadline expiry mid-read
  /// LOSES the partial bytes — use RecvSome where the caller must be able
  /// to re-arm the deadline and resume.
  Status RecvExact(char* out, size_t size, SocketDeadline deadline,
                   bool eof_ok = false);

  /// Resumable RecvExact: `*got` is the read cursor, advanced as bytes
  /// arrive and PRESERVED when the deadline expires, so a later call with a
  /// fresh deadline continues where this one stopped instead of discarding
  /// consumed stream bytes. `eof_ok` as in RecvExact (clean close only when
  /// `*got` is still 0).
  Status RecvSome(char* out, size_t size, size_t* got, SocketDeadline deadline,
                  bool eof_ok = false);

 private:
  int fd_ = -1;
};

/// A listening TCP socket bound to 127.0.0.1 (the fabric is a single-host /
/// trusted-network tier; binding loopback by default keeps test servers off
/// external interfaces). Accept() polls with a bounded wait so server loops
/// can interleave accepts with their own stop checks.
class ListenSocket {
 public:
  ListenSocket() = default;
  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;
  ~ListenSocket();

  /// Binds and listens on `port` (0 = kernel-assigned ephemeral port; read
  /// it back from port()).
  static Result<ListenSocket> Listen(uint16_t port, int backlog = 64);

  /// The bound port (resolved after Listen with port 0).
  uint16_t port() const { return port_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

  /// Accepts one connection, waiting at most `timeout_ms`. Returns
  /// kDeadlineExceeded when nothing arrived in time (the server loop's
  /// chance to check its stop flag) and kUnavailable once the socket is
  /// closed.
  Result<Socket> Accept(uint64_t timeout_ms);

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// Writes one encoded frame to the stream.
Status SendFrame(Socket& socket, const Frame& frame, SocketDeadline deadline);

/// Reads one frame (header, then body) from the stream. `eof_ok` as in
/// RecvExact: a clean close between frames decodes as kNotFound. A deadline
/// expiry anywhere inside the frame abandons the partial bytes, so callers
/// must treat it as fatal for the connection (the client does: its deadline
/// is the whole request budget). Server loops that re-arm short waits use
/// FrameReader instead.
Result<Frame> RecvFrame(Socket& socket, SocketDeadline deadline,
                        bool eof_ok = false);

/// Incremental frame reader for receive loops that interleave short waits
/// with stop checks: kDeadlineExceeded PRESERVES partial progress (header or
/// body bytes already consumed from the stream stay buffered), so the next
/// Recv call resumes the same frame instead of reading mid-stream and
/// poisoning the framing. One instance per connection; not thread-safe.
class FrameReader {
 public:
  /// Reads toward one complete frame. Returns the frame when it completes,
  /// kDeadlineExceeded to ask the caller to re-arm (progress kept), or a
  /// terminal framing/transport error. `eof_ok`: a clean peer close is
  /// kNotFound only while NO byte of the next frame has arrived; EOF
  /// mid-frame is always kUnavailable.
  Result<Frame> Recv(Socket& socket, SocketDeadline deadline,
                     bool eof_ok = false);

 private:
  std::string buffer_;
  size_t got_ = 0;
  bool have_header_ = false;
  FrameHeader header_;
};

}  // namespace snorkel

#endif  // SNORKEL_NET_SOCKET_H_
