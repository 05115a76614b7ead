#include "sim/shard_comm.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>

#include "support/check.hpp"

namespace mmn::sim::shard_comm {
namespace {

constexpr PacketRef kNoRef = static_cast<PacketRef>(-1);

void append_bytes(std::vector<std::uint8_t>& blob, const void* data,
                  std::size_t bytes) {
  if (bytes == 0) return;  // data() of an empty vector may be null
  const std::size_t old = blob.size();
  blob.resize(old + bytes);
  std::memcpy(blob.data() + old, data, bytes);
}

void append_u64(std::vector<std::uint8_t>& blob, std::uint64_t x) {
  append_bytes(blob, &x, sizeof(x));
}

/// Bounds-checked cursor over a received blob; every read is validated so a
/// torn or hostile frame trips MMN_REQUIRE instead of reading wild memory.
struct BlobReader {
  const std::uint8_t* p;
  std::size_t size;
  std::size_t cur = 0;

  void read(void* out, std::size_t bytes) {
    std::memcpy(out, p + take(bytes), bytes);
  }

  /// Claims the next `bytes` bytes (a length read off the wire, so the
  /// check cannot overflow) and returns their offset.
  std::size_t take(std::uint64_t bytes) {
    MMN_REQUIRE(bytes <= size - cur, "rank exchange blob truncated");
    const std::size_t at = cur;
    cur += bytes;
    return at;
  }

  /// A reader over the next `bytes` bytes, which this one skips.
  BlobReader sub(std::uint64_t bytes) {
    return BlobReader{p + take(bytes), static_cast<std::size_t>(bytes)};
  }

  std::uint64_t read_u64() {
    std::uint64_t x = 0;
    read(&x, sizeof(x));
    return x;
  }

  /// Parses one live-prefix Packet (the first word carries the size field,
  /// so the wire length is self-describing).  The void* casts opt into the
  /// same partial-object copy the staging pools do (stale tail never read).
  void read_packet(Packet& out) {
    MMN_REQUIRE(sizeof(std::uint64_t) <= size - cur,
                "rank exchange blob truncated");
    std::memcpy(static_cast<void*>(&out), p + cur, sizeof(std::uint64_t));
    const std::size_t live = out.live_bytes();
    MMN_REQUIRE(live <= sizeof(Packet) && live <= size - cur,
                "rank exchange packet overruns its blob");
    std::memcpy(static_cast<void*>(&out), p + cur, live);
    cur += live;
  }
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  MMN_REQUIRE(flags >= 0, "fcntl(F_GETFL) failed");
  MMN_REQUIRE(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              "fcntl(F_SETFL, O_NONBLOCK) failed");
}

/// One rank's view of the socketpair mesh: fd_[p] talks to rank p.
class SocketMesh final : public Transport {
 public:
  SocketMesh(unsigned rank, unsigned ranks, std::vector<int> fds)
      : rank_(rank), ranks_(ranks), fds_(std::move(fds)) {}

  SocketMesh(const SocketMesh&) = delete;
  SocketMesh& operator=(const SocketMesh&) = delete;

  ~SocketMesh() override {
    for (const int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }

  unsigned rank() const override { return rank_; }
  unsigned ranks() const override { return ranks_; }

  void exchange(unsigned peer, const std::uint8_t* data, std::size_t bytes,
                std::vector<std::uint8_t>& in) override {
    MMN_REQUIRE(peer < ranks_ && peer != rank_ && fds_[peer] >= 0,
                "exchange() with an invalid peer rank");
    const int fd = fds_[peer];

    // Outgoing frame: [u64 length][payload].  The length prefix is staged
    // separately so the payload is never copied.
    std::uint64_t out_len = bytes;
    std::size_t sent_hdr = 0;
    std::size_t sent_body = 0;

    // Incoming frame, drained concurrently with the writes so the swap
    // cannot deadlock on full kernel buffers.
    std::uint8_t in_hdr[sizeof(std::uint64_t)];
    std::size_t got_hdr = 0;
    std::uint64_t in_len = 0;
    std::size_t got_body = 0;
    in.clear();

    for (;;) {
      const bool out_done = sent_hdr == sizeof(out_len) && sent_body == bytes;
      const bool in_done =
          got_hdr == sizeof(in_hdr) && got_body == in_len;
      if (out_done && in_done) break;

      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = static_cast<short>((out_done ? 0 : POLLOUT) |
                                      (in_done ? 0 : POLLIN));
      pfd.revents = 0;
      const int rc = ::poll(&pfd, 1, -1);
      if (rc < 0) {
        MMN_REQUIRE(errno == EINTR, "poll() failed during rank exchange");
        continue;
      }
      MMN_REQUIRE((pfd.revents & (POLLERR | POLLNVAL)) == 0,
                  "rank exchange socket error");

      if (!out_done && (pfd.revents & (POLLOUT | POLLHUP)) != 0) {
        if (sent_hdr < sizeof(out_len)) {
          const auto* p = reinterpret_cast<const std::uint8_t*>(&out_len);
          const ssize_t k = ::send(fd, p + sent_hdr, sizeof(out_len) - sent_hdr,
                                   MSG_NOSIGNAL);
          if (k > 0) {
            sent_hdr += static_cast<std::size_t>(k);
            bytes_out_ += static_cast<std::uint64_t>(k);
          } else {
            MMN_REQUIRE(k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                                  errno == EINTR),
                        "send() failed during rank exchange");
          }
        } else if (sent_body < bytes) {
          const ssize_t k =
              ::send(fd, data + sent_body, bytes - sent_body, MSG_NOSIGNAL);
          if (k > 0) {
            sent_body += static_cast<std::size_t>(k);
            bytes_out_ += static_cast<std::uint64_t>(k);
          } else {
            MMN_REQUIRE(k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                                  errno == EINTR),
                        "send() failed during rank exchange");
          }
        }
      }

      if (!in_done && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
        if (got_hdr < sizeof(in_hdr)) {
          const ssize_t k =
              ::recv(fd, in_hdr + got_hdr, sizeof(in_hdr) - got_hdr, 0);
          MMN_REQUIRE(k != 0, "peer rank closed mid-exchange");
          if (k > 0) {
            got_hdr += static_cast<std::size_t>(k);
            bytes_in_ += static_cast<std::uint64_t>(k);
            if (got_hdr == sizeof(in_hdr)) {
              std::memcpy(&in_len, in_hdr, sizeof(in_len));
              in.resize(in_len);
            }
          } else {
            MMN_REQUIRE(errno == EAGAIN || errno == EWOULDBLOCK ||
                            errno == EINTR,
                        "recv() failed during rank exchange");
          }
        } else if (got_body < in_len) {
          const ssize_t k =
              ::recv(fd, in.data() + got_body, in_len - got_body, 0);
          MMN_REQUIRE(k != 0, "peer rank closed mid-exchange");
          if (k > 0) {
            got_body += static_cast<std::size_t>(k);
            bytes_in_ += static_cast<std::uint64_t>(k);
          } else {
            MMN_REQUIRE(errno == EAGAIN || errno == EWOULDBLOCK ||
                            errno == EINTR,
                        "recv() failed during rank exchange");
          }
        }
      }
    }
  }

  std::uint64_t bytes_out() const override { return bytes_out_; }
  std::uint64_t bytes_in() const override { return bytes_in_; }

 private:
  unsigned rank_;
  unsigned ranks_;
  std::vector<int> fds_;  ///< indexed by peer rank; -1 for self
  std::uint64_t bytes_out_ = 0;
  std::uint64_t bytes_in_ = 0;
};

/// ranks == 1: no peers, nothing to fork.
class LoopbackTransport final : public Transport {
 public:
  unsigned rank() const override { return 0; }
  unsigned ranks() const override { return 1; }
  void exchange(unsigned, const std::uint8_t*, std::size_t,
                std::vector<std::uint8_t>&) override {
    MMN_REQUIRE(false, "exchange() on a single-rank transport");
  }
  std::uint64_t bytes_out() const override { return 0; }
  std::uint64_t bytes_in() const override { return 0; }
};

}  // namespace

void run_ranks(unsigned ranks, const std::function<void(Transport&)>& fn) {
  MMN_REQUIRE(ranks >= 1 && ranks <= 64, "ranks must be in [1, 64]");
  if (ranks == 1) {
    LoopbackTransport t;
    fn(t);
    return;
  }

  // Full mesh, built before any fork so every rank inherits its endpoints:
  // pair (i, j), i < j, gets one socketpair; ends[i][j] is i's end.
  std::vector<std::vector<int>> ends(ranks, std::vector<int>(ranks, -1));
  for (unsigned i = 0; i < ranks; ++i) {
    for (unsigned j = i + 1; j < ranks; ++j) {
      int sp[2];
      MMN_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp) == 0,
                  "socketpair() failed building the rank mesh");
      set_nonblocking(sp[0]);
      set_nonblocking(sp[1]);
      ends[i][j] = sp[0];
      ends[j][i] = sp[1];
    }
  }

  unsigned my_rank = 0;
  std::vector<pid_t> children;
  children.reserve(ranks - 1);
  for (unsigned r = 1; r < ranks; ++r) {
    const pid_t pid = ::fork();
    MMN_REQUIRE(pid >= 0, "fork() failed spawning rank");
    if (pid == 0) {
      my_rank = r;
      children.clear();
      break;
    }
    children.push_back(pid);
  }

  // Keep only this rank's endpoints; close the rest of the mesh.
  std::vector<int> fds(ranks, -1);
  for (unsigned i = 0; i < ranks; ++i) {
    for (unsigned j = 0; j < ranks; ++j) {
      if (ends[i][j] < 0) continue;
      if (i == my_rank) {
        fds[j] = ends[i][j];
      } else {
        ::close(ends[i][j]);
      }
    }
  }

  if (my_rank != 0) {
    // A child never returns into the caller, not even by an exception: it
    // would go on running the parent's code (a test harness runs its
    // remaining tests).  Skip atexit/static destructors too: the child
    // shares the parent's stdio and harness state, none of which it owns.
    int code = 0;
    try {
      SocketMesh mesh(my_rank, ranks, std::move(fds));
      fn(mesh);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rank %u: %s\n", my_rank, e.what());
      code = 1;
    }
    ::_exit(code);
  }
  {
    SocketMesh mesh(my_rank, ranks, std::move(fds));
    fn(mesh);
  }
  for (const pid_t pid : children) {
    int status = 0;
    const pid_t got = ::waitpid(pid, &status, 0);
    MMN_REQUIRE(got == pid, "waitpid() failed reaping a rank");
    MMN_REQUIRE(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                "a child rank exited abnormally");
  }
}


RoundExchange::RoundExchange(Transport& t, NodeId n)
    : transport_(&t), rank_(t.rank()), ranks_(t.ranks()), n_(n) {
  MMN_REQUIRE(ranks_ >= 1 && rank_ < ranks_, "rank out of range");
  bounds_.resize(ranks_ + 1);
  for (unsigned r = 0; r < ranks_; ++r) {
    bounds_[r] = Scheduler::shard_range(n, r, ranks_).first;
  }
  bounds_[ranks_] = n;
  ingress_.resize(ranks_);
  out_headers_.resize(ranks_);
  out_payload_.resize(ranks_);
  last_src_.resize(ranks_);
  last_emit_.resize(ranks_);
  peer_writes_.resize(ranks_);
}

void RoundExchange::swap_outstanding(std::int64_t local) {
  peer_outstanding_ = 0;
  for (unsigned peer = 0; peer < ranks_; ++peer) {
    if (peer == rank_) continue;
    out_blob_.clear();
    append_u64(out_blob_, static_cast<std::uint64_t>(local));
    transport_->exchange(peer, out_blob_.data(), out_blob_.size(), in_blob_);
    BlobReader in{in_blob_.data(), in_blob_.size()};
    peer_outstanding_ += static_cast<std::int64_t>(in.read_u64());
  }
}

unsigned RoundExchange::owner_of(NodeId v) const {
  auto r = static_cast<unsigned>(static_cast<std::uint64_t>(v) * ranks_ / n_);
  if (r >= ranks_) r = ranks_ - 1;
  while (v < bounds_[r]) --r;
  while (v >= bounds_[r + 1]) ++r;
  return r;
}

/// Splits the round's staged sends into the own-window ingress buffer and
/// one wire batch per destination rank.  Partition preserves outbox order,
/// so every per-destination stream is still ascending-sender; interned
/// broadcast runs (consecutive equal refs — refs are unique per
/// stage_packet call within a shard, so equality implies one run) stage or
/// ship one payload.
void RoundExchange::partition(std::vector<ShardBuffer>& staged) {
  ShardBuffer& own = ingress_[rank_];
  const NodeId lo = this->lo();
  for (unsigned r = 0; r < ranks_; ++r) {
    out_headers_[r].clear();
    out_payload_[r].clear();
  }
  std::fill(last_emit_.begin(), last_emit_.end(), 0);
  for (const ShardBuffer& sb : staged) {
    // Refs are per shard: a new shard starts new runs everywhere.
    std::fill(last_src_.begin(), last_src_.end(), kNoRef);
    const Packet* pool = sb.pool.data();
    for (const MsgHeader& h : sb.outbox) {
      const unsigned dst = owner_of(h.to);
      if (dst == rank_) {
        if (h.ref != last_src_[dst]) {
          last_src_[dst] = h.ref;
          last_emit_[dst] = own.stage_packet(pool[h.ref]);
        }
        own.outbox.push_back(
            MsgHeader{h.to - lo, h.from, h.via, last_emit_[dst]});
      } else {
        if (h.ref != last_src_[dst]) {
          last_src_[dst] = h.ref;
          const Packet& pkt = pool[h.ref];
          append_bytes(out_payload_[dst], &pkt, pkt.live_bytes());
          ++last_emit_[dst];  // 1-based count; wire ref = count - 1
        }
        out_headers_[dst].push_back(
            MsgHeader{h.to, h.from, h.via, last_emit_[dst] - 1});
        ++xshard_msgs_;
      }
    }
  }
}

/// One blob each way with `peer`: cross-shard headers + payloads, this
/// rank's channel writes and its outstanding count.  The received headers
/// land in ingress_[peer], the writes in peer_writes_[peer].
void RoundExchange::swap_with(unsigned peer,
                              const std::vector<ShardBuffer>& staged,
                              std::int64_t local_outstanding) {
  out_blob_.clear();
  append_u64(out_blob_, out_headers_[peer].size());
  append_bytes(out_blob_, out_headers_[peer].data(),
               out_headers_[peer].size() * sizeof(MsgHeader));
  append_u64(out_blob_, out_payload_[peer].size());
  append_bytes(out_blob_, out_payload_[peer].data(),
               out_payload_[peer].size());
  std::uint64_t n_writes = 0;
  for (const ShardBuffer& sb : staged) n_writes += sb.channel_writes.size();
  append_u64(out_blob_, n_writes);
  for (const ShardBuffer& sb : staged) {
    for (const ChannelWrite& w : sb.channel_writes) {
      append_bytes(out_blob_, &w.node, sizeof(w.node));
      append_bytes(out_blob_, &w.packet, w.packet.live_bytes());
    }
  }
  append_u64(out_blob_, static_cast<std::uint64_t>(local_outstanding));

  transport_->exchange(peer, out_blob_.data(), out_blob_.size(), in_blob_);

  BlobReader in{in_blob_.data(), in_blob_.size()};
  const std::uint64_t n_headers = in.read_u64();
  MMN_REQUIRE(n_headers <= (in.size - in.cur) / sizeof(MsgHeader),
              "rank exchange blob truncated");
  BlobReader headers = in.sub(n_headers * sizeof(MsgHeader));
  BlobReader payload = in.sub(in.read_u64());
  ShardBuffer& ingress = ingress_[peer];
  // Wire refs are run ordinals: a ref change means the next payload in the
  // stream; equal refs share the previously staged slot.
  const NodeId lo = this->lo();
  const NodeId hi = this->hi();
  PacketRef last_wire = kNoRef;
  PacketRef staged_ref = 0;
  Packet pkt;
  for (std::uint64_t i = 0; i < n_headers; ++i) {
    MsgHeader h{};
    headers.read(&h, sizeof(h));
    MMN_REQUIRE(h.to >= lo && h.to < hi,
                "cross-shard header addressed to a node this rank "
                "does not own");
    if (h.ref != last_wire) {
      MMN_REQUIRE(h.ref == last_wire + 1 || last_wire == kNoRef,
                  "cross-shard payload runs out of order");
      last_wire = h.ref;
      payload.read_packet(pkt);
      staged_ref = ingress.stage_packet(pkt);
    }
    ingress.outbox.push_back(MsgHeader{h.to - lo, h.from, h.via, staged_ref});
  }
  MMN_REQUIRE(payload.cur == payload.size,
              "cross-shard payload bytes left over");

  const std::uint64_t n_peer_writes = in.read_u64();
  std::vector<ChannelWrite>& writes = peer_writes_[peer];
  writes.clear();
  for (std::uint64_t i = 0; i < n_peer_writes; ++i) {
    ChannelWrite w;
    in.read(&w.node, sizeof(w.node));
    in.read_packet(w.packet);
    writes.push_back(std::move(w));
  }
  peer_outstanding_ += static_cast<std::int64_t>(in.read_u64());
  MMN_REQUIRE(in.cur == in.size, "rank exchange blob has trailing bytes");
}

std::vector<ShardBuffer>& RoundExchange::round(
    std::vector<ShardBuffer>& staged, std::int64_t local_outstanding,
    std::vector<ChannelWrite>& writes) {
  partition(staged);
  // Peers in ascending id: the swap is full-duplex and ascending order
  // admits no waiting cycle, so the round's exchange always completes.
  peer_outstanding_ = 0;
  for (unsigned peer = 0; peer < ranks_; ++peer) {
    if (peer != rank_) swap_with(peer, staged, local_outstanding);
  }
  // Ranks own ascending node windows, so rank-major is ascending node
  // order: the serial commit order the disciplines' determinism contract
  // is stated over.
  for (unsigned r = 0; r < ranks_; ++r) {
    if (r != rank_) {
      for (ChannelWrite& w : peer_writes_[r]) writes.push_back(std::move(w));
      continue;
    }
    for (ShardBuffer& sb : staged) {
      for (ChannelWrite& w : sb.channel_writes) writes.push_back(std::move(w));
    }
  }
  for (ShardBuffer& sb : staged) sb.clear_round();
  return ingress_;
}

}  // namespace mmn::sim::shard_comm
