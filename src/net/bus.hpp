// Thread-safe in-process message bus simulating the residential LAN the
// paper's agents broadcast over. Each agent owns an inbox; broadcasts
// fan out along the configured topology. The bus accounts for bytes and
// messages per link and models per-link latency (virtual, accumulated
// into counters — the simulation clock, not wall time, pays for it).
//
// Link faults are injected here, per delivery, from a net::FaultPlan:
// silent drops, fixed+jitter delay (stamped into Message::arrival_s for
// the deadline-based exchange rounds), duplication, reordering, and
// scheduled partitions keyed on the message's round. All fault
// randomness comes from one per-bus RNG stream (FaultPlan::seed), so
// runs are bitwise reproducible per seed and distinct buses never share
// a drop mask. Node-level failures (crashes, stragglers) live one layer
// up, in fl::ParamExchange — see docs/robustness.md.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "net/codec.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"
#include "net/shard_router.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace pfdrl::net {

struct BusStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  /// All failed deliveries (random loss + partition cuts).
  std::uint64_t messages_dropped = 0;
  /// Subset of messages_dropped caused by an active partition window.
  std::uint64_t messages_partition_dropped = 0;
  /// Deliveries enqueued twice by the duplication fault.
  std::uint64_t messages_duplicated = 0;
  /// Deliveries that received extra injected delay (delay_s/jitter_s).
  std::uint64_t messages_delayed = 0;
  /// Bytes billed at the link layer — post-codec frame sizes when a
  /// wire codec is attached, identical to logical_bytes otherwise.
  std::uint64_t bytes_on_wire = 0;
  /// Pre-codec bytes of the same deliveries (header + raw payload).
  /// bytes_on_wire / logical_bytes is the bus's achieved compression.
  std::uint64_t logical_bytes = 0;
  /// Total simulated link-seconds consumed by transfers.
  double simulated_transfer_seconds = 0.0;
  /// Total injected fault delay (fixed + jitter), simulated seconds.
  double simulated_fault_delay_seconds = 0.0;
};

class MessageBus {
 public:
  /// `fault` describes everything this bus's links do to traffic; a bare
  /// LinkModel converts implicitly for loss-only call sites.
  MessageBus(Topology topology, FaultPlan fault = {});

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const FaultPlan& fault_plan() const noexcept { return fault_; }
  [[nodiscard]] std::size_t num_agents() const noexcept {
    return topology_.num_agents();
  }

  /// Attach a cross-shard batching router (non-owning; may be nullptr to
  /// detach). With a router attached, broadcast() delivers same-shard
  /// targets immediately and parks cross-shard deliveries in the
  /// router's pair batches; flush_shard_batches() completes them. The
  /// router must outlive the bus or be detached first.
  void set_shard_router(ShardRouter* router) noexcept { router_ = router; }
  [[nodiscard]] ShardRouter* shard_router() const noexcept { return router_; }

  /// Attach a wire codec (non-owning; nullptr detaches). With a codec
  /// attached, broadcast()/send() encode the payload once against the
  /// sender's stream before fan-out — every delivery (including parked
  /// cross-shard batches and fault duplicates) then bills the coded
  /// frame size instead of the raw payload. The codec must outlive the
  /// bus or be detached first.
  void set_codec(WireCodec* codec) noexcept { codec_ = codec; }
  [[nodiscard]] WireCodec* codec() const noexcept { return codec_; }

  /// Drain the attached router's pair batches (pinned ascending
  /// (src shard, dst shard) order) into the inboxes, applying the same
  /// per-delivery fault/accounting path as direct delivery. Returns the
  /// number of messages handed over; 0 with no router attached.
  std::size_t flush_shard_batches();

  /// Broadcast along the topology from msg.sender. Returns the number of
  /// links traversed (cross-shard deliveries may still be parked in the
  /// shard router until flush_shard_batches()).
  std::size_t broadcast(const Message& msg);

  /// Point-to-point send (used by the star hub to relay).
  void send(AgentId to, Message msg);

  /// Non-blocking receive for `agent`.
  std::optional<Message> try_receive(AgentId agent);
  /// Drain everything currently queued for `agent`.
  std::vector<Message> drain(AgentId agent);
  /// Generational drain: extract exactly the messages tagged `round`,
  /// discard older generations as stale (counted into `*stale_discarded`
  /// when non-null — a restarted residence's crash backlog), and leave
  /// newer rounds parked.
  std::vector<Message> drain_round(AgentId agent, std::uint64_t round,
                                   std::size_t* stale_discarded = nullptr);
  /// Blocking receive with a wall-clock timeout; nullopt on timeout.
  std::optional<Message> receive_for(AgentId agent, double timeout_seconds);

  [[nodiscard]] std::size_t inbox_size(AgentId agent) const;
  [[nodiscard]] BusStats stats() const;
  void reset_stats();
  /// Restore accounting wholesale (warm-restart persistence).
  void restore_stats(const BusStats& stats);

  /// Fault-RNG snapshot/restore for warm restarts: the per-bus fault
  /// stream must continue where it left off or a resumed chaos run draws
  /// a different drop/delay mask than the uninterrupted one. In-flight
  /// inbox contents are intentionally NOT part of a snapshot — the
  /// exchange layer already treats unread backlog as stale and discards
  /// it (docs/robustness.md).
  [[nodiscard]] util::RngState fault_rng_state() const;
  void restore_fault_rng(const util::RngState& state);

 private:
  struct Inbox {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::deque<Message> queue;
  };

  void deliver(AgentId to, Message msg);
  void enqueue(Inbox& inbox, Message msg, std::uint64_t reorder_draw);

  Topology topology_;
  FaultPlan fault_;
  ShardRouter* router_ = nullptr;
  WireCodec* codec_ = nullptr;
  util::Rng fault_rng_;
  mutable std::mutex fault_mutex_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  mutable std::mutex stats_mutex_;
  BusStats stats_;
};

}  // namespace pfdrl::net
