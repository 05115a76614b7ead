#include "sim/runtime_core.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "sim/fault.hpp"
#include "sim/shard_comm.hpp"
#include "support/check.hpp"
#include "support/simd.hpp"

namespace mmn::sim {

// The strided histograms in flip/stage read the `to` field straight out of
// the packed header arrays; pin the layout they assume.
static_assert(offsetof(MsgHeader, to) == 0 && sizeof(MsgHeader) == 16,
              "flip's histogram reads `to` at offset 0, stride 16");
static_assert(offsetof(StampedHeader, to) == 16 && sizeof(StampedHeader) == 32,
              "stage's histogram reads `to` at offset 16, stride 32");

std::vector<ShardOutstanding> initial_outstanding(
    const std::vector<char>& flags, unsigned shards) {
  std::vector<ShardOutstanding> counts(shards);
  const auto n = static_cast<NodeId>(flags.size());
  for (unsigned s = 0; s < shards; ++s) {
    const auto [first, last] = Scheduler::shard_range(n, s, shards);
    for (NodeId v = first; v < last; ++v) {
      counts[s].count += flags[v] ? 0 : 1;
    }
  }
  return counts;
}

void MessageArena::reset(NodeId n, unsigned shards) {
  n_ = n;
  empty_ = true;
  bytes_moved_ = 0;
  buf_.clear();
  next_buf_.clear();
  spans_.assign(n_, InboxSpan{});
  next_spans_.assign(n_, InboxSpan{});
  // A sparse flip sets fewer than n/8 spans; a dense one keeps no list.
  set_.clear();
  next_set_.clear();
  set_.reserve(n_ / 8 + 1);
  next_set_.reserve(n_ / 8 + 1);
  dense_ = false;
  next_dense_ = false;
  cursor_.assign(n_, 0);
  scratch_.clear();
  pools_.assign(shards, {});
  next_pools_.assign(shards, {});
}

void MessageArena::clear_next_spans() {
  if (next_dense_) {
    std::fill(next_spans_.begin(), next_spans_.end(), InboxSpan{});
  } else {
    for (const NodeId v : next_set_) next_spans_[v] = InboxSpan{};
  }
  next_set_.clear();
  next_dense_ = false;
}

void MessageArena::flip(std::vector<ShardBuffer>& shards) {
  MMN_ASSERT(shards.size() == pools_.size(),
             "arena was reset for a different shard count");
  std::size_t total = 0;
  std::uint64_t payload_bytes = 0;
  for (const ShardBuffer& sb : shards) {
    total += sb.outbox.size();
    payload_bytes += sb.pool_bytes;
  }
  // Message-free rounds (channel-only stages, barrier quiescence): after one
  // empty flip every current span is empty and the current delivery buffer
  // too, so a second consecutive empty flip is a no-op — the shard pools
  // hold nothing live to recycle (payloads only enter through sends, and
  // every send files a header).  The recycled buffer's stale spans are
  // cleared lazily by the next flip that fills it.
  if (total == 0) {
    if (empty_) return;
    clear_next_spans();
    next_buf_.clear();
    for (unsigned s = 0; s < shards.size(); ++s) {
      shards[s].pool.swap(next_pools_[s]);
      shards[s].pool_used = 0;
      shards[s].pool_bytes = 0;
    }
    buf_.swap(next_buf_);
    spans_.swap(next_spans_);
    set_.swap(next_set_);
    std::swap(dense_, next_dense_);
    pools_.swap(next_pools_);
    empty_ = true;
    return;
  }
  empty_ = false;
  bytes_moved_ +=
      total * (sizeof(MsgHeader) + sizeof(Received)) + payload_bytes;
  next_buf_.resize(total);

  // POOL STABILITY: both paths below hoist sb.pool.data() and resolve every
  // header against it.  flip runs single-threaded after the round barrier
  // and calls back into no node code, so no send can grow a pool mid-flip;
  // the per-header DCHECK makes a stale ref (a header staged against a pool
  // that was since recycled) fault loudly in debug builds instead of
  // reading recycled payload memory.

  if (total < n_ / 8) {
    // Sparse round: far fewer messages than nodes.  The dense path below
    // pays three O(n) passes over the counters no matter how few headers
    // there are; here we sort the headers themselves — by destination with
    // the serial send position as tie-break, i.e. exactly the counting
    // sort's stable order — and write only the destinations' spans, after
    // clearing the ones the recycled buffer had set.  Delivery records are
    // resolved pre-sort because headers from different shards point into
    // different pools.
    clear_next_spans();
    scratch_.clear();
    std::uint32_t rank = 0;
    for (ShardBuffer& sb : shards) {
      const Packet* pool = sb.pool.data();
      for (const MsgHeader& h : sb.outbox) {
        MMN_DCHECK(h.ref < sb.pool_used,
                   "stale PacketRef: header points past the staged pool");
        scratch_.push_back(
            SparseEntry{h.to, rank++, Received{h.from, h.via, pool + h.ref}});
      }
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [](const SparseEntry& a, const SparseEntry& b) {
                if (a.to != b.to) return a.to < b.to;
                return a.rank < b.rank;
              });
    const auto total32 = static_cast<std::uint32_t>(total);
    for (std::uint32_t i = 0; i < total32;) {
      const NodeId to = scratch_[i].to;
      std::uint32_t j = i;
      for (; j < total32 && scratch_[j].to == to; ++j) {
        next_buf_[j] = scratch_[j].r;
      }
      next_spans_[to] = InboxSpan{i, j - i};
      next_set_.push_back(to);
      i = j;
    }
  } else {
    // Dense round: histogram destinations over all shards, turn counts into
    // scatter offsets with an exclusive prefix sum (both through the
    // runtime-dispatched SIMD kernels), then scatter stably — shards
    // ascend, each outbox in send order, together the exact serial send
    // order, so inbox contents are scheduler-independent.  Only the 16-byte
    // headers move; the buffer swap below transfers ownership of the
    // payload block without touching a byte of it.
    std::fill(cursor_.begin(), cursor_.end(), 0);
    for (const ShardBuffer& sb : shards) {
      if (sb.outbox.empty()) continue;
      simd::histogram_u32_strided(sb.outbox.data(), sizeof(MsgHeader),
                                  sb.outbox.size(), cursor_.data());
    }
    [[maybe_unused]] const std::uint32_t counted =
        simd::exclusive_prefix_sum_u32(cursor_.data(), n_);
    MMN_DCHECK(counted == total, "histogram lost headers");
    for (NodeId v = 0; v + 1 < n_; ++v) {
      next_spans_[v] = InboxSpan{cursor_[v], cursor_[v + 1] - cursor_[v]};
    }
    next_spans_[n_ - 1] = InboxSpan{
        cursor_[n_ - 1], static_cast<std::uint32_t>(total) - cursor_[n_ - 1]};
    next_set_.clear();
    next_dense_ = true;
    for (ShardBuffer& sb : shards) {
      const Packet* pool = sb.pool.data();
      for (const MsgHeader& h : sb.outbox) {
        MMN_DCHECK(h.ref < sb.pool_used,
                   "stale PacketRef: header points past the staged pool");
        next_buf_[cursor_[h.to]++] = Received{h.from, h.via, pool + h.ref};
      }
    }
  }

  for (unsigned s = 0; s < shards.size(); ++s) {
    ShardBuffer& sb = shards[s];
    sb.outbox.clear();
    // Recycle: the freshly staged payload buffer moves into next_pools_ (it
    // backs next_buf_, the round about to run); the shard gets the buffer
    // from two flips ago back — no longer referenced — with its slots held
    // at the high-water mark (pool_used rewinds to 0; the stale contents
    // are overwritten live-prefix-first by the next round's staging), so
    // steady-state staging never allocates or zero-fills.
    sb.pool.swap(next_pools_[s]);
    sb.pool_used = 0;
    sb.pool_bytes = 0;
  }
  buf_.swap(next_buf_);
  spans_.swap(next_spans_);
  set_.swap(next_set_);
  std::swap(dense_, next_dense_);
  pools_.swap(next_pools_);
}

void SlotBuckets::reset(NodeId n, std::uint64_t ticks_per_slot,
                        std::uint64_t ring_slots) {
  MMN_REQUIRE(ticks_per_slot >= 1, "need at least one tick per slot");
  MMN_REQUIRE(ring_slots >= 2, "bucket ring needs at least two slots");
  n_ = n;
  ticks_per_slot_ = ticks_per_slot;
  next_seq_ = 0;
  in_flight_ = 0;
  ring_.assign(ring_slots, {});
  staged_.clear();
  offsets_.assign(n_ + 1, 0);
  cursor_.assign(n_, 0);
  pool_.reset();
}

PacketRef SlotBuckets::push(const AsyncMsgHeader& send, const Packet& payload) {
  MMN_DCHECK(send.due_tick >= 1, "delivery tick predates the first slot");
  const PacketRef pooled = pool_.acquire(payload);
  const std::uint64_t due_slot = (send.due_tick - 1) / ticks_per_slot_;
  ring_[due_slot % ring_.size()].push_back(StampedHeader{
      send.due_tick, next_seq_++, send.to, send.from, send.via, pooled});
  ++in_flight_;
  return pooled;
}

void SlotBuckets::push_shared(const AsyncMsgHeader& send, PacketRef pooled) {
  MMN_DCHECK(send.due_tick >= 1, "delivery tick predates the first slot");
  pool_.add_ref(pooled);
  const std::uint64_t due_slot = (send.due_tick - 1) / ticks_per_slot_;
  ring_[due_slot % ring_.size()].push_back(StampedHeader{
      send.due_tick, next_seq_++, send.to, send.from, send.via, pooled});
  ++in_flight_;
}

std::size_t SlotBuckets::stage(std::uint64_t slot) {
  // The previous table's payloads were consumed by the delivery sub-round
  // that read it; each header drops its reader — an interned broadcast
  // slot frees only when the LAST sharing header releases it.
  for (const StampedHeader& h : staged_) pool_.release(h.ref);
  std::vector<StampedHeader>& bucket = ring_[slot % ring_.size()];
  staged_.clear();
  // Every slot's delivery loop ends on an empty stage; skip the O(n)
  // offsets rebuild for it (inbox() is never consulted on a zero return).
  if (bucket.empty()) return 0;
  const std::size_t m = bucket.size();
  // Radix partition by destination: histogram + exclusive prefix sum
  // (runtime-dispatched SIMD kernels) and a stable scatter.  Bucket order
  // is ascending seq — seqs are stamped at push in commit order — so each
  // destination's run lands already seq-sorted; only runs longer than one
  // message still need a (tick, seq) sort, and those are short.  The table
  // is identical to a global sort by (to, tick, seq): seq is unique, so
  // the order is total and scheduler-independent.  Only 32-byte headers
  // move; payloads stay in the pool.
  std::fill(cursor_.begin(), cursor_.end(), 0);
  simd::histogram_u32_strided(
      reinterpret_cast<const char*>(bucket.data()) + offsetof(StampedHeader, to),
      sizeof(StampedHeader), m, cursor_.data());
  [[maybe_unused]] const std::uint32_t counted =
      simd::exclusive_prefix_sum_u32(cursor_.data(), n_);
  MMN_DCHECK(counted == m, "histogram lost headers");
  std::memcpy(offsets_.data(), cursor_.data(), n_ * sizeof(std::uint32_t));
  offsets_[n_] = static_cast<std::uint32_t>(m);
  // Explicit doubling: resize on a cleared vector grows to exactly m (no
  // geometric overshoot), which would turn every new per-slot peak into a
  // steady-state allocation.
  if (staged_.capacity() < m) {
    staged_.reserve(std::max(m, staged_.capacity() * 2));
  }
  staged_.resize(m);
  for (const StampedHeader& h : bucket) {
    MMN_DCHECK((h.tick - 1) / ticks_per_slot_ == slot,
               "bucket ring too small for the delay bound");
    staged_[cursor_[h.to]++] = h;
  }
  bucket.clear();  // keeps its high-water capacity
  std::size_t i = 0;
  while (i < m) {
    const NodeId to = staged_[i].to;
    std::size_t j = i + 1;
    while (j < m && staged_[j].to == to) ++j;
    if (j - i > 1) {
      std::sort(staged_.begin() + static_cast<std::ptrdiff_t>(i),
                staged_.begin() + static_cast<std::ptrdiff_t>(j),
                [](const StampedHeader& a, const StampedHeader& b) {
                  if (a.tick != b.tick) return a.tick < b.tick;
                  return a.seq < b.seq;
                });
    }
    i = j;
  }
  in_flight_ -= m;
  return m;
}

RuntimeCore::RuntimeCore(const Graph& g, std::uint64_t seed,
                         std::unique_ptr<Scheduler> scheduler,
                         std::unique_ptr<ChannelDiscipline> discipline,
                         shard_comm::Transport* transport)
    : graph_(&g),
      scheduler_(scheduler ? std::move(scheduler)
                           : std::make_unique<SerialScheduler>()),
      discipline_(discipline ? std::move(discipline)
                             : std::make_unique<FreeForAllDiscipline>()) {
  const NodeId n = g.num_nodes();
  NodeId hi = n;
  if (transport != nullptr && transport->ranks() > 1) {
    exchange_ = std::make_unique<shard_comm::RoundExchange>(*transport, n);
    lo_ = exchange_->lo();
    hi = exchange_->hi();
  }
  // Views are O(n) pointer setup over the graph's shared CSR arena — no
  // per-node adjacency copy, no per-node edge index (see graph/graph.hpp).
  // The per-node streams fork from one root (Rng::fork is pure), so a
  // window's nodes draw exactly the whole run's sequences.
  views_.resize(hi - lo_);
  rngs_.reserve(hi - lo_);
  Rng root(seed);
  for (NodeId v = lo_; v < hi; ++v) {
    views_[v - lo_] = LocalView{v, n, &g};
    rngs_.push_back(root.fork(v));
  }
  shards_.resize(scheduler_->shards());
  latency_.reset(scheduler_->shards());
  for (unsigned s = 0; s < scheduler_->shards(); ++s) {
    shards_[s].latency = &latency_.block(s);
  }
  // A sharded run flips the ingress buffers, one per source rank.
  arena_.reset(hi - lo_, exchange_ ? transport->ranks() : scheduler_->shards());
  discipline_->reset(n);  // the replicated channel spans all n nodes
}

RuntimeCore::~RuntimeCore() = default;

void RuntimeCore::share_outstanding(std::int64_t local) {
  if (exchange_ != nullptr) exchange_->swap_outstanding(local);
}

std::int64_t RuntimeCore::peer_outstanding() const {
  return exchange_ != nullptr ? exchange_->peer_outstanding() : 0;
}

std::uint64_t RuntimeCore::xshard_msgs() const {
  return exchange_ != nullptr ? exchange_->xshard_msgs() : 0;
}

SlotObservation RuntimeCore::resolve_slot() {
  const SlotObservation obs =
      discipline_->slot(slot_writes_, channel_, metrics_);
  slot_writes_.clear();
  return obs;
}

void RuntimeCore::run_round(Scheduler::NodeFn fn,
                            const std::vector<ShardOutstanding>& outstanding) {
  if (wake_.all_awake()) {
    // Nobody sleeps: every node runs, dispatched by id.
    wake_.gather_all(round_);
    node_steps_ += num_nodes();
    scheduler_->for_each_node(num_nodes(), fn);
  } else {
    // Dispatch index i of the awake list to node awake[i].  Schedulers cut
    // [0, awake.size()) into contiguous ascending chunks, and the list
    // ascends, so shard s still runs a contiguous ascending run of node ids
    // below shard s + 1's and the shard-major merges below keep ascending
    // node order — the same argument as for dense stepping.
    const std::span<const NodeId> awake = wake_.gather(round_, slot_.state);
    node_steps_ += awake.size();
    struct Dispatch {
      const NodeId* ids;
      Scheduler::NodeFn fn;
    } dispatch{awake.data(), fn};
    scheduler_->for_each_node(
        static_cast<NodeId>(awake.size()),
        Scheduler::NodeFn{[](void* env, unsigned s, NodeId i) {
                            const auto* d = static_cast<const Dispatch*>(env);
                            d->fn(s, d->ids[i]);
                          },
                          &dispatch});
  }
  bool any_slept = false;
  for (ShardBuffer& sb : shards_) {
    any_slept = any_slept || sb.sleepers != 0;
    sb.sleepers = 0;
  }
  wake_.commit(round_, any_slept);
  for (ShardBuffer& sb : shards_) {
    metrics_.p2p_messages += sb.p2p_sent;
    sb.p2p_sent = 0;
    if (faults_ != nullptr) {
      faults_->stats().drops += sb.fault_drops;
      sb.fault_drops = 0;
    }
  }
  // What the flip delivers: the shards' own outboxes, or on a sharded run
  // the ingress buffers the rank seam fills (window-local destinations).
  std::vector<ShardBuffer>* delivered = &shards_;
  if (exchange_ == nullptr) {
    for (ShardBuffer& sb : shards_) {
      for (ChannelWrite& w : sb.channel_writes) {
        slot_writes_.push_back(std::move(w));
      }
      sb.channel_writes.clear();
    }
  } else {
    delivered =
        &exchange_->round(shards_, outstanding_sum(outstanding), slot_writes_);
  }
  // Message wakes matter only if some node sleeps into the next round.  A
  // header from another rank wakes its destination like a local one.
  if (!wake_.all_awake()) {
    for (const ShardBuffer& sb : *delivered) {
      for (const MsgHeader& h : sb.outbox) wake_.mark_message(h.to);
    }
  }
  slot_ = resolve_slot();
  arena_.flip(*delivered);  // clears the outboxes, recycles the pools
  ++round_;
  ++metrics_.rounds;
}

void RuntimeCore::commit_async_phase() {
  constexpr PacketRef kNoRef = static_cast<PacketRef>(-1);
  for (ShardBuffer& sb : shards_) {
    for (ChannelWrite& w : sb.channel_writes) {
      slot_writes_.push_back(std::move(w));
    }
    // Broadcast interning: AsyncContext::broadcast stages ONE payload
    // shared by a run of consecutive headers.  Shard refs are unique per
    // stage_packet call, so a repeated ref can only be such a run — the
    // first header files the payload into the bucket pool, the rest share
    // its refcounted slot.
    PacketRef prev_src = kNoRef;
    PacketRef prev_pooled = 0;
    for (const AsyncMsgHeader& send : sb.async_outbox) {
      if (send.ref == prev_src) {
        slot_buckets_.push_shared(send, prev_pooled);
      } else {
        prev_pooled = slot_buckets_.push(send, sb.pool[send.ref]);
        prev_src = send.ref;
      }
    }
    metrics_.p2p_messages += sb.p2p_sent;
    if (faults_ != nullptr) {
      faults_->stats().drops += sb.fault_drops;
    }
    sb.clear_round();
  }
}

}  // namespace mmn::sim
