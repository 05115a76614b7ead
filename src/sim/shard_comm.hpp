// Cross-rank transport and wire codec for sharded execution.
//
// Rank mode splits the node set over OS processes: rank r of K runs an
// Engine over the node window shard_range(n, r, K) (sim/engine.hpp); per
// round each pair of ranks swaps one batched blob — cross-shard MsgHeaders
// plus their pooled payloads, the rank's channel writes, and its
// outstanding count.  Transport is the seam that keeps the engine code
// transport-agnostic: a tiny pairwise-exchange interface, whose bundled
// implementation is an AF_UNIX socketpair full mesh built by fork(); an MPI
// backend could drop in behind the same three calls.  RoundExchange is the
// one module that knows the blob's byte layout: RuntimeCore::run_round
// hands it the round's staged shards and gets back the ingress buffers to
// flip.
//
// The exchange primitive is a *swap*, not a send: both sides of a pair call
// exchange() with their outgoing blob and receive the peer's.  The
// implementation drains both directions concurrently (poll() on a
// nonblocking fd), so the swap cannot deadlock no matter how lopsided the
// two blobs are — neither side needs the other to finish writing first.
// Ranks visit peers in ascending (min, max) pair order, which gives the
// deterministic rank-major merge order the determinism proof needs
// (ARCHITECTURE.md, "Sharded execution").
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/runtime_core.hpp"

namespace mmn::sim::shard_comm {

/// Pairwise blob swap between this rank and one peer.  Implementations are
/// process-private handles onto a pre-built mesh; they are not thread-safe
/// (only the round loop's driver thread exchanges).
class Transport {
 public:
  virtual ~Transport() = default;

  virtual unsigned rank() const = 0;
  virtual unsigned ranks() const = 0;

  /// Swaps `bytes` of `data` against the peer's concurrent exchange() call;
  /// the peer's blob lands in `in` (resized, capacity reused round over
  /// round).  Both sides must call — the swap is symmetric and blocking.
  virtual void exchange(unsigned peer, const std::uint8_t* data,
                        std::size_t bytes, std::vector<std::uint8_t>& in) = 0;

  /// Wire traffic so far, both directions, framing included — the
  /// cross-boundary byte counters bench_shard_comm publishes.
  virtual std::uint64_t bytes_out() const = 0;
  virtual std::uint64_t bytes_in() const = 0;
};

/// Forks `ranks - 1` child processes and runs `fn(transport)` in every rank
/// over an AF_UNIX socketpair full mesh (parent = rank 0).  Children _exit
/// when fn returns, or with status 1 (message on stderr) when it throws;
/// the parent reaps them and requires clean exits, so a child that trips
/// MMN_REQUIRE fails the whole run.  With ranks == 1 no
/// fork happens and fn gets a loopback transport with no peers.  Returns
/// only in the parent.  fn must not spawn threads before exchanging (the
/// mesh is built pre-fork; rank mode is serial per rank by design).
void run_ranks(unsigned ranks, const std::function<void(Transport&)>& fn);

/// One rank's side of the synchronous round's wire.  The rank owns the node
/// window [lo, hi) = Scheduler::shard_range(n, rank, ranks).  Per round,
/// one blob per peer carries:
///   * the cross-shard MsgHeaders owned-sender -> peer-owned-destination
///     (global ids), refs renumbered to wire ordinals, followed by their
///     payloads — a run of consecutive equal refs (one broadcast's
///     interned payload) ships one payload;
///   * the rank's channel writes (replicated to every peer: the channel is
///     not sharded, every rank resolves every slot itself);
///   * the rank's outstanding (not-yet-finished) node count.
/// Ingress buffers are indexed by source rank, with destinations rebased to
/// window-local ids; flipping them in ascending rank order concatenates to
/// exactly the ascending-sender serial send order.  Every scratch buffer is
/// held at its high-water capacity, so a warmed-up round allocates nothing.
class RoundExchange {
 public:
  /// `t` must outlive the exchange; n is the global node count.
  RoundExchange(Transport& t, NodeId n);

  NodeId lo() const { return bounds_[rank_]; }
  NodeId hi() const { return bounds_[rank_ + 1]; }

  /// Swaps the ranks' outstanding counts once, before round 0 (termination
  /// is checked before the first round).
  void swap_outstanding(std::int64_t local);

  /// The round seam.  Splits the staged shards' sends (global destination
  /// ids, ascending shard = ascending sender order) into the own-window
  /// ingress buffer and one wire batch per peer, swaps blobs with every
  /// peer, appends the round's channel writes rank-major (= ascending node
  /// order) to `writes`, and clears the staged shards.  Returns the ingress
  /// buffers, one per source rank, for the flip.
  std::vector<ShardBuffer>& round(std::vector<ShardBuffer>& staged,
                                  std::int64_t local_outstanding,
                                  std::vector<ChannelWrite>& writes);

  /// Sum of the peers' outstanding counts from the last swap.
  std::int64_t peer_outstanding() const { return peer_outstanding_; }

  /// Cross-shard messages this rank sent to peers (headers on the wire).
  std::uint64_t xshard_msgs() const { return xshard_msgs_; }

 private:
  unsigned owner_of(NodeId v) const;
  void partition(std::vector<ShardBuffer>& staged);
  void swap_with(unsigned peer, const std::vector<ShardBuffer>& staged,
                 std::int64_t local_outstanding);

  Transport* transport_;
  unsigned rank_;
  unsigned ranks_;
  NodeId n_;
  std::vector<NodeId> bounds_;  ///< ranks + 1 window bounds, owner lookup
  std::vector<ShardBuffer> ingress_;  ///< per source rank, local ids

  std::vector<std::vector<MsgHeader>> out_headers_;     ///< per dst rank
  std::vector<std::vector<std::uint8_t>> out_payload_;  ///< per dst rank
  /// Per-destination interning state of partition(): the last staged ref
  /// seen and the ingress ref / wire ordinal count it was filed under.
  std::vector<PacketRef> last_src_;
  std::vector<PacketRef> last_emit_;
  std::vector<std::uint8_t> out_blob_;
  std::vector<std::uint8_t> in_blob_;
  std::vector<std::vector<ChannelWrite>> peer_writes_;  ///< per src rank
  std::int64_t peer_outstanding_ = 0;
  std::uint64_t xshard_msgs_ = 0;
};

}  // namespace mmn::sim::shard_comm
