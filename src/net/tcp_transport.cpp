#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "wire/registry.hpp"

namespace shadow::net {

namespace {

/// Routing prologue in front of every frame on the stream:
/// [record_len u32][from u32][to u32], little-endian; record_len counts the
/// from/to words plus the frame.
constexpr std::size_t kRoutePrefix = 12;
constexpr std::size_t kRouteWords = 8;  // from + to
/// Streams carrying a longer record are desynchronized (or hostile) and the
/// connection is dropped; the largest legitimate frames are ~50 KB snapshot
/// batches.
constexpr std::size_t kMaxRecordLen = 64u << 20;

std::uint32_t read_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

// ------------------------------------------------------------- TcpContext --

/// NodeContext over the TCP event loop: sends route immediately (TCP itself
/// provides FIFO ordering), charge() is a no-op because real CPU time was
/// actually consumed, and timers go on the transport's monotonic heap.
class TcpTransport::TcpContext final : public NodeContext {
 public:
  TcpContext(TcpTransport& transport, NodeId self) : transport_(transport), self_(self) {}

  NodeId self() const override { return self_; }
  Time now() const override { return transport_.now(); }

  void send(NodeId to, Message msg) override {
    msg.from = self_;
    transport_.count_frame(msg);
    transport_.route(self_, to, msg);
  }

  void multicast(const std::vector<NodeId>& tos, const Message& msg) override {
    if (tos.empty()) return;
    Message shared = msg;
    shared.from = self_;
    // One frame for the whole fan-out: every destination's write queue
    // references the buffer make_msg wrote.
    transport_.count_frame(shared);
    for (NodeId to : tos) transport_.route(self_, to, shared);
  }

  void charge(Time /*micros*/) override {}

  TimerId set_timer(Time delay, TimerFn fn) override {
    return transport_.schedule_timer_for_node(self_, transport_.now() + delay, std::move(fn));
  }
  void cancel_timer(TimerId id) override { transport_.cancel(id); }

  Rng& rng() override { return transport_.node_rng(self_); }

 private:
  TcpTransport& transport_;
  NodeId self_;
};

// ----------------------------------------------------------- TcpTransport --

TcpTransport::TcpTransport(TcpOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  SHADOW_REQUIRE_MSG(options_.local_host < options_.hosts.size(),
                     "local_host must index the host table");
  peers_.resize(options_.hosts.size());
  epoch_ = options_.epoch.value_or(std::chrono::steady_clock::now());
}

TcpTransport::~TcpTransport() { shutdown(); }

bool TcpTransport::start() {
  if (listen_fd_ >= 0) return true;
  const TcpHostAddr& me = options_.hosts[options_.local_host];
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(me.port);
  if (::inet_pton(AF_INET, me.address.c_str(), &sa.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    listen_port_ = ntohs(bound.sin_port);
  }
  listen_fd_ = fd;
  return true;
}

void TcpTransport::set_host_port(HostId host, std::uint16_t port) {
  SHADOW_REQUIRE_MSG(!pipelined_, "the host table is frozen once the I/O thread runs");
  SHADOW_REQUIRE(host.value < options_.hosts.size());
  options_.hosts[host.value].port = port;
}

void TcpTransport::shutdown() {
  if (pipelined_) {
    io_stop_.store(true, std::memory_order_release);
    inbound_ring_->close();   // un-blocks an I/O thread stuck pushing inbound
    outbound_ring_->close();
    wake_io();
    if (io_thread_.joinable()) io_thread_.join();
    pipelined_ = false;
    close_fd(wake_pipe_[0]);
    close_fd(wake_pipe_[1]);
    inbound_ring_.reset();
    outbound_ring_.reset();
    outbound_overflow_.clear();
  }
  close_fd(listen_fd_);
  for (Peer& peer : peers_) {
    close_fd(peer.fd);
    peer.connecting = false;
    peer.outq.clear();
  }
  for (Inbound& in : inbound_) close_fd(in.fd);
  inbound_.clear();
  loopback_.clear();
}

// -- topology ----------------------------------------------------------------

HostId TcpTransport::add_host() {
  SHADOW_REQUIRE_MSG(next_host_ < options_.hosts.size(),
                     "add_host exceeds the configured host address table");
  return HostId{next_host_++};
}

NodeId TcpTransport::add_node(std::string name, std::optional<HostId> host) {
  SHADOW_REQUIRE_MSG(!pipelined_, "topology is frozen once the I/O thread runs");
  // Not value_or: its argument is evaluated eagerly and would burn a
  // host-table slot even when the caller placed the node explicitly.
  const HostId h = host.has_value() ? *host : add_host();
  SHADOW_REQUIRE(h.value < options_.hosts.size());
  Node node;
  node.name = std::move(name);
  node.host = h;
  node.rng = rng_.fork();
  nodes_.push_back(std::move(node));
  return NodeId{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

void TcpTransport::set_handler(NodeId node, MessageHandler handler) {
  SHADOW_REQUIRE_MSG(!pipelined_, "topology is frozen once the I/O thread runs");
  SHADOW_REQUIRE(node.value < nodes_.size());
  nodes_[node.value].handler = std::move(handler);
}

const std::string& TcpTransport::node_name(NodeId node) const {
  SHADOW_REQUIRE(node.value < nodes_.size());
  return nodes_[node.value].name;
}

HostId TcpTransport::host_of(NodeId node) const {
  SHADOW_REQUIRE(node.value < nodes_.size());
  return nodes_[node.value].host;
}

bool TcpTransport::is_local(NodeId node) const {
  SHADOW_REQUIRE(node.value < nodes_.size());
  return nodes_[node.value].host.value == options_.local_host;
}

Rng& TcpTransport::node_rng(NodeId node) {
  SHADOW_REQUIRE(node.value < nodes_.size());
  return nodes_[node.value].rng;
}

// -- clock / timers ----------------------------------------------------------

Time TcpTransport::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<Time>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

TimerId TcpTransport::schedule_timer_for_node(NodeId node, Time at, TimerFn fn) {
  SHADOW_REQUIRE(node.value < nodes_.size());
  const TimerId id = next_timer_++;
  // Identical-assembly processes construct every node object in the cluster,
  // but each process executes only its local nodes: timers registered for a
  // remote node are accepted and discarded, so its replica object stays inert
  // here while the real one runs in its own process.
  if (nodes_[node.value].host.value != options_.local_host) return id;
  timers_.push(PendingTimer{at, timer_seq_++, id, node});
  timer_fns_.emplace(id, std::move(fn));
  return id;
}

void TcpTransport::cancel(TimerId id) { timer_fns_.erase(id); }

std::size_t TcpTransport::fire_due_timers() {
  std::size_t fired = 0;
  while (!timers_.empty() && timers_.top().at <= now()) {
    const PendingTimer top = timers_.top();
    timers_.pop();
    auto it = timer_fns_.find(top.id);
    if (it == timer_fns_.end()) continue;  // cancelled
    TimerFn fn = std::move(it->second);
    timer_fns_.erase(it);
    if (nodes_[top.node.value].stopped) continue;  // stop suppresses timers
    TcpContext ctx(*this, top.node);
    fn(ctx);
    ++fired;
  }
  return fired;
}

// -- lifecycle ---------------------------------------------------------------

void TcpTransport::stop(NodeId node) {
  SHADOW_REQUIRE(node.value < nodes_.size());
  if (nodes_[node.value].stopped) return;
  nodes_[node.value].stopped = true;
  for (TransportObserver* obs : observers_) obs->on_crash(now(), node);
}

bool TcpTransport::stopped(NodeId node) const {
  SHADOW_REQUIRE(node.value < nodes_.size());
  return nodes_[node.value].stopped;
}

// -- send path ---------------------------------------------------------------

void TcpTransport::post(NodeId from, NodeId to, Message msg) {
  msg.from = from;
  count_frame(msg);
  route(from, to, msg);
}

void TcpTransport::route(NodeId from, NodeId to, Message& msg) {
  SHADOW_REQUIRE(to.value < nodes_.size());
  SHADOW_CHECK_MSG(msg.frame != nullptr,
                   "message '" + msg.header +
                       "' was built without a codec (explicit-size make_msg) and cannot "
                       "be serialized to a frame");
  const OwnedBytes& frame = msg.frame;
  msg.uid = ++msg_uid_counter_;
  for (TransportObserver* obs : observers_) obs->on_send(now(), from, to, msg);
  const HostId host = nodes_[to.value].host;
  if (host.value == options_.local_host) {
    // Local destination: skip the sockets but keep the byte path — the
    // receiver decodes the same frame a remote peer would, so loopback and
    // remote deliveries are indistinguishable to the protocol stack.
    loopback_.push_back(LoopbackRecord{from, to, frame});
    return;
  }
  if (pipelined_) {
    // Consensus thread → I/O thread, never blocking (see push_outbound).
    push_outbound(OutboundRecord{host, from, to, frame});
    return;
  }
  enqueue_record(host, from, to, frame);
}

void TcpTransport::enqueue_record(HostId host, NodeId from, NodeId to, OwnedBytes frame) {
  SHADOW_REQUIRE(host.value < peers_.size());
  ensure_peer_connection(host);
  BytesWriter w;
  w.u32(static_cast<std::uint32_t>(kRouteWords + frame->size()));
  w.u32(from.value);
  w.u32(to.value);
  OutRecord rec;
  std::memcpy(rec.prefix.data(), w.peek().data(), rec.prefix.size());
  rec.frame = std::move(frame);
  peers_[host.value].outq.push_back(std::move(rec));
}

void TcpTransport::ensure_peer_connection(HostId host) {
  Peer& peer = peers_[host.value];
  if (peer.fd >= 0 || now() < peer.retry_at) return;
  const TcpHostAddr& addr = options_.hosts[host.value];
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    schedule_reconnect(host);
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  if (::inet_pton(AF_INET, addr.address.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    schedule_reconnect(host);
    return;
  }
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc == 0) {
    peer.fd = fd;
    peer_connected(host);
  } else if (errno == EINPROGRESS) {
    peer.fd = fd;
    peer.connecting = true;
  } else {
    ::close(fd);
    schedule_reconnect(host);
  }
}

void TcpTransport::fail_peer(HostId host) {
  Peer& peer = peers_[host.value];
  const bool established = peer.fd >= 0 && !peer.connecting;
  close_fd(peer.fd);
  peer.connecting = false;
  if (established) {
    peer_down_total_.fetch_add(1, std::memory_order_relaxed);
    peer.down_since = now();
    for (TransportObserver* obs : observers_) obs->on_peer_down(now(), host);
  }
  schedule_reconnect(host);
  // The receiver discarded the partial stream with the dead connection;
  // rewind the in-flight record so the replacement connection resends it
  // whole and framing stays intact.
  if (!peer.outq.empty()) peer.outq.front().offset = 0;
}

void TcpTransport::schedule_reconnect(HostId host) {
  Peer& peer = peers_[host.value];
  peer.backoff = peer.backoff == 0
                     ? options_.connect_retry
                     : std::min(peer.backoff * 2, options_.connect_retry_cap);
  ++peer.attempts;
  reconnect_attempts_.fetch_add(1, std::memory_order_relaxed);
  // Seeded jitter: every process derives its delays from its own RNG, so a
  // cluster-wide restart doesn't reconnect in lockstep. In pipelined mode
  // all connect paths run on the I/O thread, so rng_ is single-threaded.
  const double spread = options_.connect_retry_jitter;
  const double factor = 1.0 + spread * (2.0 * rng_.uniform01() - 1.0);
  const Time delay = std::max<Time>(1, static_cast<Time>(
                                           static_cast<double>(peer.backoff) * factor));
  peer.retry_at = now() + delay;
  for (TransportObserver* obs : observers_) {
    obs->on_reconnect_attempt(now(), host, peer.attempts, peer.backoff);
  }
}

void TcpTransport::peer_connected(HostId host) {
  Peer& peer = peers_[host.value];
  peer.connecting = false;
  peer.backoff = 0;
  peer.attempts = 0;
  peer.retry_at = 0;
  const Time downtime = peer.down_since == 0 ? 0 : now() - peer.down_since;
  peer.down_since = 0;
  for (TransportObserver* obs : observers_) obs->on_peer_up(now(), host, downtime);
}

void TcpTransport::flush_peer(HostId host) {
  Peer& peer = peers_[host.value];
  if (peer.fd < 0 || peer.connecting) return;
  while (!peer.outq.empty()) {
    // Gather the unsent remainders of as many queued records as fit into
    // one vectored write — back-to-back consensus decisions coalesce into a
    // single sendmsg instead of one syscall per record. Each record
    // contributes its routing prologue plus its frame, written straight from
    // the buffer every destination of a multicast shares. Whatever does not
    // fit in the iovec array goes out on the next pass.
    std::array<iovec, 64> iov{};
    std::size_t iov_n = 0;
    std::size_t records_gathered = 0;
    std::size_t skip = peer.outq.front().offset;  // only the front is partial
    const auto gather = [&](const std::uint8_t* data, std::size_t len) {
      if (len == 0 || iov_n == iov.size()) return;
      if (skip >= len) {
        skip -= len;
        return;
      }
      iov[iov_n].iov_base = const_cast<std::uint8_t*>(data + skip);
      iov[iov_n].iov_len = len - skip;
      ++iov_n;
      skip = 0;
    };
    for (const OutRecord& rec : peer.outq) {
      if (iov_n == iov.size()) break;
      gather(rec.prefix.data(), rec.prefix.size());
      gather(rec.frame->data(), rec.frame->size());
      ++records_gathered;
    }
    msghdr mh{};
    mh.msg_iov = iov.data();
    mh.msg_iovlen = iov_n;
    const ssize_t written = ::sendmsg(peer.fd, &mh, MSG_NOSIGNAL);
    if (written > 0) {
      writev_calls_.fetch_add(1, std::memory_order_relaxed);
      writev_records_.fetch_add(records_gathered, std::memory_order_relaxed);
      // Credit the written bytes across the queue front-to-back, retiring
      // completed records; a partially written record keeps its offset.
      std::size_t credit = static_cast<std::size_t>(written);
      while (credit > 0) {
        OutRecord& front = peer.outq.front();
        const std::size_t step = std::min(credit, front.size() - front.offset);
        front.offset += step;
        credit -= step;
        if (front.offset == front.size()) peer.outq.pop_front();
      }
    } else if (written < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // socket buffer full; poll for POLLOUT
    } else {
      fail_peer(host);
      return;
    }
  }
}

// -- receive path ------------------------------------------------------------

std::size_t TcpTransport::drain_inbound(Inbound& in) {
  std::size_t handled = 0;
  std::uint8_t chunk[65536];
  while (in.fd >= 0) {
    const ssize_t got = ::recv(in.fd, chunk, sizeof(chunk), 0);
    if (got > 0) {
      in.buf.insert(in.buf.end(), chunk, chunk + got);
      if (!parse_records(in, handled)) {
        close_inbound(in, wire::FrameStatus::kBadMagic);  // desynchronized stream
        break;
      }
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_inbound(in, wire::FrameStatus::kTruncated);  // EOF or hard error
    break;
  }
  return handled;
}

void TcpTransport::close_inbound(Inbound& in, wire::FrameStatus reason) {
  // A peer dying mid-record leaves a frame prefix in the buffer that can
  // never complete: account it as a traced drop (the sender will resend the
  // whole record on its replacement connection) and release the memory.
  const std::size_t leftover = in.buf.size() - in.consumed;
  if (leftover > 0) {
    NodeId from{};
    NodeId to{};
    if (leftover >= kRoutePrefix) {
      const std::uint8_t* base = in.buf.data() + in.consumed;
      from = NodeId{read_u32le(base + 4)};
      to = NodeId{read_u32le(base + 8)};
    }
    wire_drops_.fetch_add(1, std::memory_order_relaxed);
    for (TransportObserver* obs : observers_) {
      obs->on_wire_drop(now(), from, to, "", leftover, reason);
    }
  }
  close_fd(in.fd);
  in.buf.clear();
  in.consumed = 0;
}

bool TcpTransport::parse_records(Inbound& in, std::size_t& handled) {
  for (;;) {
    const std::size_t avail = in.buf.size() - in.consumed;
    if (avail < 4) break;
    const std::uint8_t* base = in.buf.data() + in.consumed;
    const std::uint32_t record_len = read_u32le(base);
    if (record_len < kRouteWords || record_len > kMaxRecordLen) return false;
    if (avail < 4u + record_len) break;
    const NodeId from{read_u32le(base + 4)};
    const NodeId to{read_u32le(base + 8)};
    const std::span<const std::uint8_t> frame(base + kRoutePrefix, record_len - kRouteWords);
    if (to.value < nodes_.size() && nodes_[to.value].host.value == options_.local_host) {
      // Copy the frame once, off the transient socket read buffer, into an
      // owned buffer: every view the decoder produces — batch payloads
      // included — shares it. This copy is inherent to sockets, not a
      // re-framing, so it is not charged to batch_bytes_copied.
      if (dispatch_frame(from, to, std::make_shared<const Bytes>(frame.begin(), frame.end()),
                         /*from_socket=*/true)) {
        ++handled;
      }
    }
    // Records for unknown or non-local nodes are misrouted; drop silently.
    in.consumed += 4u + record_len;
  }
  if (in.consumed == in.buf.size()) {
    in.buf.clear();
    in.consumed = 0;
  } else if (in.consumed > (64u << 10)) {
    in.buf.erase(in.buf.begin(), in.buf.begin() + static_cast<std::ptrdiff_t>(in.consumed));
    in.consumed = 0;
  }
  return true;
}

bool TcpTransport::dispatch_frame(NodeId from, NodeId to, OwnedBytes frame, bool from_socket) {
  const auto drop = [&](const std::string& header, wire::FrameStatus status) {
    wire_drops_.fetch_add(1, std::memory_order_relaxed);
    for (TransportObserver* obs : observers_) {
      obs->on_wire_drop(now(), from, to, header, frame->size(), status);
    }
    return false;
  };
  wire::FrameView view;
  const wire::FrameStatus status = wire::decode_frame(*frame, view);
  if (status != wire::FrameStatus::kOk) return drop("", status);
  Message msg;
  msg.header = std::string(view.header);
  // A structurally valid frame whose header no codec was registered for
  // cannot be interpreted; drop it (traced), never crash the receiver.
  if (!view.body.empty() && !wire::registry().contains(msg.header)) {
    return drop(msg.header, wire::FrameStatus::kUnknownHeader);
  }
  msg.from = from;
  msg.wire_size = frame->size();
  msg.frame = std::move(frame);
  if (!view.body.empty()) msg.body = wire::registry().decode(msg.header, msg.body_bytes());
  if (pipelined_ && from_socket) {
    // I/O thread: hand the decoded message to the consensus thread. The
    // frame crosses by shared_ptr; a full ring blocks this thread, which
    // stops the socket reads and becomes TCP backpressure.
    if (!inbound_ring_->push(InboundDelivery{from, to, std::move(msg)})) {
      return false;  // ring closed: shutting down
    }
    notify_driver();
    return true;
  }
  // Loopback frames are dispatched on the consensus thread: deliver inline.
  return finish_delivery(to, std::move(msg));
}

bool TcpTransport::finish_delivery(NodeId to, Message&& msg) {
  msg.uid = ++msg_uid_counter_;
  Node& node = nodes_[to.value];
  if (node.stopped || !node.handler) return false;
  delivered_count_.fetch_add(1, std::memory_order_relaxed);
  for (TransportObserver* obs : observers_) obs->on_deliver(now(), to, msg);
  TcpContext ctx(*this, to);
  node.handler(ctx, msg);
  return true;
}

std::size_t TcpTransport::drain_loopback() {
  std::size_t handled = 0;
  // Handlers may enqueue further loopback sends; drain until quiescent.
  while (!loopback_.empty()) {
    const LoopbackRecord rec = std::move(loopback_.front());
    loopback_.pop_front();
    if (dispatch_frame(rec.from, rec.to, rec.frame, /*from_socket=*/false)) ++handled;
  }
  return handled;
}

// -- event loop --------------------------------------------------------------

/// The socket side of one event-loop iteration: kicks expired connect
/// backoffs, polls listen/peer/inbound fds (plus `wake_fd` if nonnegative —
/// the pipelined I/O thread's wake pipe), accepts, drains readable streams,
/// and flushes pending writes. Shared verbatim between the single-threaded
/// loop and the pipelined I/O thread; the caller decides what else (timers,
/// loopback, rings) belongs to its stage.
std::size_t TcpTransport::poll_sockets(Time max_wait, int wake_fd) {
  std::size_t handled = 0;

  // Kick pending (re)connections whose backoff expired.
  for (std::uint32_t h = 0; h < peers_.size(); ++h) {
    if (peers_[h].fd < 0 && !peers_[h].outq.empty()) ensure_peer_connection(HostId{h});
  }

  enum class Kind : std::uint8_t { kListen, kPeer, kInbound, kWake };
  struct Slot {
    Kind kind;
    std::uint32_t index;
  };
  std::vector<pollfd> fds;
  std::vector<Slot> slots;
  fds.push_back(pollfd{listen_fd_, POLLIN, 0});
  slots.push_back(Slot{Kind::kListen, 0});
  if (wake_fd >= 0) {
    fds.push_back(pollfd{wake_fd, POLLIN, 0});
    slots.push_back(Slot{Kind::kWake, 0});
  }
  for (std::uint32_t h = 0; h < peers_.size(); ++h) {
    const Peer& peer = peers_[h];
    if (peer.fd < 0) continue;
    short events = POLLIN;
    if (peer.connecting || !peer.outq.empty()) events |= POLLOUT;
    fds.push_back(pollfd{peer.fd, events, 0});
    slots.push_back(Slot{Kind::kPeer, h});
  }
  for (std::uint32_t i = 0; i < inbound_.size(); ++i) {
    if (inbound_[i].fd < 0) continue;
    fds.push_back(pollfd{inbound_[i].fd, POLLIN, 0});
    slots.push_back(Slot{Kind::kInbound, i});
  }

  const int timeout_ms = static_cast<int>(std::min<Time>((max_wait + 999) / 1000, 1000));
  ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

  for (std::size_t i = 0; i < fds.size(); ++i) {
    const short revents = fds[i].revents;
    if (revents == 0) continue;
    switch (slots[i].kind) {
      case Kind::kWake: {
        std::uint8_t sink[256];
        while (::read(wake_fd, sink, sizeof(sink)) > 0) {
        }
        break;
      }
      case Kind::kListen: {
        for (;;) {
          const int conn = ::accept4(listen_fd_, nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (conn < 0) break;
          int one = 1;
          ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          Inbound in;
          in.fd = conn;
          inbound_.push_back(std::move(in));
        }
        break;
      }
      case Kind::kPeer: {
        const HostId host{slots[i].index};
        Peer& peer = peers_[host.value];
        if (peer.fd != fds[i].fd) break;  // replaced during this iteration
        if (peer.connecting && (revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
          int err = 0;
          socklen_t len = sizeof(err);
          ::getsockopt(peer.fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err != 0) {
            fail_peer(host);
            break;
          }
          peer_connected(host);
        }
        if ((revents & (POLLERR | POLLHUP)) != 0 && !peer.connecting) {
          fail_peer(host);
          break;
        }
        if ((revents & POLLIN) != 0) {
          // Peers never send application data on our outbound connection;
          // readable here means EOF/reset.
          std::uint8_t sink[4096];
          const ssize_t got = ::recv(peer.fd, sink, sizeof(sink), 0);
          if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
            fail_peer(host);
            break;
          }
        }
        break;
      }
      case Kind::kInbound: {
        Inbound& in = inbound_[slots[i].index];
        if (in.fd != fds[i].fd) break;
        handled += drain_inbound(in);
        break;
      }
    }
  }

  // Flush everything enqueued since the last pass (plus newly connected
  // peers; in single-threaded mode the caller flushes again after handlers).
  for (std::uint32_t h = 0; h < peers_.size(); ++h) flush_peer(HostId{h});

  std::erase_if(inbound_, [](const Inbound& in) { return in.fd < 0; });
  return handled;
}

std::size_t TcpTransport::poll_once(Time max_wait) {
  SHADOW_REQUIRE_MSG(started(), "TcpTransport::start() must succeed before polling");
  if (pipelined_) return drive_once(max_wait);

  Time wait = max_wait;
  if (!timers_.empty()) {
    const Time t = now();
    wait = std::min(wait, timers_.top().at > t ? timers_.top().at - t : 0);
  }
  if (!loopback_.empty()) wait = 0;

  std::size_t handled = poll_sockets(wait, /*wake_fd=*/-1);
  handled += fire_due_timers();
  handled += drain_loopback();
  if (has_idle_hooks()) {
    handled += run_idle_hooks();
    handled += drain_loopback();
  }

  // Flush everything handlers/timers/hooks enqueued this iteration.
  for (std::uint32_t h = 0; h < peers_.size(); ++h) flush_peer(HostId{h});
  return handled;
}

std::size_t TcpTransport::run_for(Time duration) {
  const Time deadline = now() + duration;
  std::size_t handled = 0;
  while (now() < deadline) {
    handled += poll_once(std::min<Time>(deadline - now(), 10000));
  }
  return handled;
}

// -- pipelined mode ----------------------------------------------------------

bool TcpTransport::start_pipeline() {
  SHADOW_REQUIRE_MSG(started(), "start() must succeed before start_pipeline()");
  if (pipelined_) return true;
  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    wake_pipe_[0] = wake_pipe_[1] = -1;
    return false;
  }
  inbound_ring_ = std::make_unique<SpscRing<InboundDelivery>>(kRingCapacity);
  outbound_ring_ = std::make_unique<SpscRing<OutboundRecord>>(kRingCapacity);
  io_stop_.store(false, std::memory_order_release);
  pipelined_ = true;  // set before the thread starts: io_loop reads it
  io_thread_ = std::thread([this] { io_loop(); });
  return true;
}

void TcpTransport::io_loop() {
  while (!io_stop_.load(std::memory_order_acquire)) {
    // Move consensus-produced records onto the per-peer write queues; the
    // trailing flush inside poll_sockets writes them out.
    while (auto rec = outbound_ring_->try_pop()) {
      enqueue_record(rec->host, rec->from, rec->to, std::move(rec->frame));
    }
    // The wake pipe cuts the wait short whenever the consensus thread
    // pushes outbound work, so the cap only bounds idle latency.
    poll_sockets(100000, /*wake_fd=*/wake_pipe_[0]);
  }
}

std::size_t TcpTransport::drive_once(Time max_wait) {
  std::size_t handled = 0;
  flush_outbound_overflow();

  Time wait = max_wait;
  if (!timers_.empty()) {
    const Time t = now();
    wait = std::min(wait, timers_.top().at > t ? timers_.top().at - t : 0);
  }
  if (!loopback_.empty() || !outbound_overflow_.empty()) wait = 0;
  if (wait > 0) {
    std::unique_lock<std::mutex> lock(driver_mu_);
    driver_cv_.wait_for(lock, std::chrono::microseconds(std::min<Time>(wait, 1000000)),
                        [&] { return driver_work_; });
    driver_work_ = false;
  } else {
    std::lock_guard<std::mutex> lock(driver_mu_);
    driver_work_ = false;
  }

  // Drain what the I/O thread decoded; every pop frees a ring slot, which is
  // what un-blocks a backpressured I/O thread.
  while (auto d = inbound_ring_->try_pop()) {
    if (finish_delivery(d->to, std::move(d->msg))) ++handled;
  }
  handled += fire_due_timers();
  handled += drain_loopback();
  if (has_idle_hooks()) {
    // Executor completions post through here; they may loop back (client
    // responses to a local node), so drain loopback once more.
    handled += run_idle_hooks();
    handled += drain_loopback();
  }
  flush_outbound_overflow();
  return handled;
}

void TcpTransport::push_outbound(OutboundRecord rec) {
  // Spill-first keeps per-peer FIFO: once anything waits in the overflow
  // deque, later records must queue behind it. The consensus thread never
  // blocks here — the I/O thread might itself be blocked pushing inbound,
  // and the inbound ring only drains when this thread keeps running.
  if (outbound_overflow_.empty() && outbound_ring_->try_push(rec)) {
    wake_io();
    return;
  }
  outbound_overflow_.push_back(std::move(rec));
}

std::size_t TcpTransport::flush_outbound_overflow() {
  std::size_t moved = 0;
  while (!outbound_overflow_.empty() &&
         outbound_ring_->try_push(outbound_overflow_.front())) {
    outbound_overflow_.pop_front();
    ++moved;
  }
  if (moved > 0) wake_io();
  return moved;
}

void TcpTransport::wake_io() {
  if (wake_pipe_[1] < 0) return;
  const std::uint8_t byte = 1;
  // EAGAIN means a wake byte is already pending — exactly what we need.
  [[maybe_unused]] const ssize_t rc = ::write(wake_pipe_[1], &byte, 1);
}

void TcpTransport::notify_driver() {
  {
    std::lock_guard<std::mutex> lock(driver_mu_);
    driver_work_ = true;
  }
  driver_cv_.notify_one();
}

void TcpTransport::wake() {
  if (pipelined_) notify_driver();
}

void TcpTransport::close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace shadow::net
