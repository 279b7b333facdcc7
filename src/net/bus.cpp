#include "net/bus.hpp"

#include <chrono>
#include <stdexcept>

namespace pfdrl::net {

namespace {
// Legacy constant fault stream, used when FaultPlan::seed is 0 so that
// directly constructed buses (tests, micro-benches) stay reproducible
// without an experiment seed. Experiment-owned buses derive a per-bus
// stream with derive_fault_seed() instead.
constexpr std::uint64_t kLegacyFaultSeed = 0xD20BULL;
}  // namespace

MessageBus::MessageBus(Topology topology, FaultPlan fault)
    : topology_(std::move(topology)),
      fault_(std::move(fault)),
      fault_rng_(fault_.seed != 0 ? fault_.seed : kLegacyFaultSeed) {
  inboxes_.reserve(topology_.num_agents());
  for (std::size_t i = 0; i < topology_.num_agents(); ++i) {
    inboxes_.push_back(std::make_unique<Inbox>());
  }
}

void MessageBus::enqueue(Inbox& inbox, Message msg,
                         std::uint64_t reorder_draw) {
  std::lock_guard lock(inbox.mutex);
  if (fault_.reorder && !inbox.queue.empty()) {
    const std::size_t pos = reorder_draw % (inbox.queue.size() + 1);
    inbox.queue.insert(inbox.queue.begin() + static_cast<std::ptrdiff_t>(pos),
                       std::move(msg));
  } else {
    inbox.queue.push_back(std::move(msg));
  }
  inbox.cv.notify_one();
}

void MessageBus::deliver(AgentId to, Message msg) {
  if (to >= inboxes_.size()) throw std::out_of_range("bus: bad agent id");
  const std::size_t bytes = msg.wire_bytes();
  const std::size_t logical = msg.logical_bytes();
  const LinkModel& link = fault_.link;

  // All fault decisions for this delivery come from the per-bus stream,
  // drawn in a fixed order (drop, jitter, duplicate, reorder position)
  // so the stream state depends only on the delivery sequence.
  bool dropped = false;
  bool partitioned = false;
  bool duplicated = false;
  double extra_delay = 0.0;
  std::uint64_t reorder_draw = 0;
  {
    std::lock_guard lock(fault_mutex_);
    if (fault_.severed(msg.sender, to, msg.round)) {
      partitioned = true;
    } else if (link.drop_probability > 0.0 &&
               fault_rng_.bernoulli(link.drop_probability)) {
      dropped = true;
    } else {
      extra_delay = fault_.delay_s;
      if (fault_.jitter_s > 0.0) {
        extra_delay += fault_rng_.uniform(0.0, fault_.jitter_s);
      }
      if (fault_.duplicate_probability > 0.0) {
        duplicated = fault_rng_.bernoulli(fault_.duplicate_probability);
      }
      if (fault_.reorder) reorder_draw = fault_rng_.next();
    }
  }
  if (partitioned || dropped) {
    std::lock_guard slock(stats_mutex_);
    ++stats_.messages_dropped;
    if (partitioned) ++stats_.messages_partition_dropped;
    return;
  }

  const double transfer = link.transfer_seconds(bytes);
  msg.arrival_s += transfer + extra_delay;
  Message duplicate;
  if (duplicated) {
    duplicate = msg;  // shares the payload handle — no deep copy
    duplicate.arrival_s += transfer;  // retransmission: one transfer later
  }
  auto& inbox = *inboxes_[to];
  enqueue(inbox, std::move(msg), reorder_draw);
  if (duplicated) enqueue(inbox, std::move(duplicate), reorder_draw);

  std::lock_guard slock(stats_mutex_);
  stats_.messages_delivered += duplicated ? 2 : 1;
  stats_.bytes_on_wire += duplicated ? 2 * bytes : bytes;
  stats_.logical_bytes += duplicated ? 2 * logical : logical;
  stats_.simulated_transfer_seconds += duplicated ? 2 * transfer : transfer;
  if (duplicated) ++stats_.messages_duplicated;
  if (extra_delay > 0.0) {
    ++stats_.messages_delayed;
    stats_.simulated_fault_delay_seconds += extra_delay;
  }
}

std::size_t MessageBus::broadcast(const Message& msg) {
  {
    std::lock_guard slock(stats_mutex_);
    ++stats_.messages_sent;
  }
  // Encode once per broadcast: every fan-out target shares the same
  // refcounted payload handle and the same coded frame size.
  Message coded = msg;
  if (codec_ != nullptr) codec_->encode(coded);
  std::size_t links = 0;
  topology_.for_each_neighbor(coded.sender, [&](AgentId to) {
    ++links;
    if (router_ != nullptr && router_->cross_shard(coded.sender, to)) {
      router_->enqueue(to, coded);  // parked until flush_shard_batches()
    } else {
      deliver(to, coded);
    }
  });
  return links;
}

std::size_t MessageBus::flush_shard_batches() {
  if (router_ == nullptr) return 0;
  return router_->flush(
      [this](AgentId to, Message&& msg) { deliver(to, std::move(msg)); });
}

void MessageBus::send(AgentId to, Message msg) {
  {
    std::lock_guard slock(stats_mutex_);
    ++stats_.messages_sent;
  }
  // Already-coded messages (hub relays of a received frame) keep their
  // original frame size; fresh ones are encoded against the sender's
  // stream — an exact retransmission collapses to a repeat frame.
  if (codec_ != nullptr) codec_->encode(msg);
  deliver(to, std::move(msg));
}

std::optional<Message> MessageBus::try_receive(AgentId agent) {
  auto& inbox = *inboxes_.at(agent);
  std::lock_guard lock(inbox.mutex);
  if (inbox.queue.empty()) return std::nullopt;
  Message msg = std::move(inbox.queue.front());
  inbox.queue.pop_front();
  return msg;
}

std::vector<Message> MessageBus::drain(AgentId agent) {
  auto& inbox = *inboxes_.at(agent);
  std::lock_guard lock(inbox.mutex);
  std::vector<Message> out(std::make_move_iterator(inbox.queue.begin()),
                           std::make_move_iterator(inbox.queue.end()));
  inbox.queue.clear();
  return out;
}

std::vector<Message> MessageBus::drain_round(AgentId agent,
                                             std::uint64_t round,
                                             std::size_t* stale_discarded) {
  auto& inbox = *inboxes_.at(agent);
  std::lock_guard lock(inbox.mutex);
  std::vector<Message> out;
  out.reserve(inbox.queue.size());
  std::size_t stale = 0;
  for (auto it = inbox.queue.begin(); it != inbox.queue.end();) {
    if (it->round == round) {
      out.push_back(std::move(*it));
      it = inbox.queue.erase(it);
    } else if (it->round < round) {
      ++stale;
      it = inbox.queue.erase(it);
    } else {
      ++it;  // next generation — stays parked for its own drain
    }
  }
  if (stale_discarded != nullptr) *stale_discarded += stale;
  return out;
}

std::optional<Message> MessageBus::receive_for(AgentId agent,
                                               double timeout_seconds) {
  auto& inbox = *inboxes_.at(agent);
  std::unique_lock lock(inbox.mutex);
  const bool got = inbox.cv.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds),
      [&inbox] { return !inbox.queue.empty(); });
  if (!got) return std::nullopt;
  Message msg = std::move(inbox.queue.front());
  inbox.queue.pop_front();
  return msg;
}

std::size_t MessageBus::inbox_size(AgentId agent) const {
  const auto& inbox = *inboxes_.at(agent);
  std::lock_guard lock(inbox.mutex);
  return inbox.queue.size();
}

BusStats MessageBus::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

void MessageBus::reset_stats() {
  std::lock_guard lock(stats_mutex_);
  stats_ = BusStats{};
}

void MessageBus::restore_stats(const BusStats& stats) {
  std::lock_guard lock(stats_mutex_);
  stats_ = stats;
}

util::RngState MessageBus::fault_rng_state() const {
  std::lock_guard lock(fault_mutex_);
  return fault_rng_.state();
}

void MessageBus::restore_fault_rng(const util::RngState& state) {
  std::lock_guard lock(fault_mutex_);
  fault_rng_.restore(state);
}

}  // namespace pfdrl::net
