#include "fl/exchange.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "fl/aggregate.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::fl {

namespace {

// Relaxed add: every tally is an order-independent sum.
void bump(std::uint64_t& counter, std::uint64_t n = 1) {
  std::atomic_ref(counter).fetch_add(n, std::memory_order_relaxed);
}

ExchangeStats minus(const ExchangeStats& a, const ExchangeStats& b) {
  ExchangeStats d;
  d.accepted = a.accepted - b.accepted;
  d.rejected = a.rejected - b.rejected;
  d.relayed = a.relayed - b.relayed;
  d.items_averaged = a.items_averaged - b.items_averaged;
  d.params_averaged = a.params_averaged - b.params_averaged;
  d.duplicates = a.duplicates - b.duplicates;
  d.stale_msgs = a.stale_msgs - b.stale_msgs;
  d.late_msgs = a.late_msgs - b.late_msgs;
  d.quorum_met = a.quorum_met - b.quorum_met;
  d.quorum_missed = a.quorum_missed - b.quorum_missed;
  d.local_fallbacks = a.local_fallbacks - b.local_fallbacks;
  d.crashed_items = a.crashed_items - b.crashed_items;
  d.retries = a.retries - b.retries;
  return d;
}

}  // namespace

ParamExchange::ParamExchange(net::MessageBus& bus, Options options,
                             std::vector<ExchangeItem> items)
    : bus_(bus), options_(std::move(options)), items_(std::move(items)) {
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].agent >= bus_.num_agents()) {
      throw std::invalid_argument("ParamExchange: item agent not on the bus");
    }
    if (i > 0 && items_[i].agent < items_[i - 1].agent) {
      throw std::invalid_argument(
          "ParamExchange: items must be sorted ascending by agent");
    }
  }
  for (const auto& item : items_) {
    groups_[item.device_type].push_back(item.agent);
  }
  for (auto& [type, members] : groups_) {
    members.erase(std::unique(members.begin(), members.end()), members.end());
  }

  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i == 0 || items_[i].agent != items_[i - 1].agent) {
      agent_begin_.push_back(i);
    }
  }
  agent_begin_.push_back(items_.size());
  sent_.resize(items_.size());
  outbox_.resize(items_.size());
  live_.assign(items_.size(), 1);
  inboxes_.resize(bus_.num_agents());
  if (options_.metrics != nullptr) {
    group_hist_ = &options_.metrics->histogram(
        "exchange.group_size", obs::Histogram::count_buckets());
    if (!options_.group_size_histogram.empty()) {
      caller_hist_ = &options_.metrics->histogram(
          options_.group_size_histogram, obs::Histogram::count_buckets());
    }
  }
  // While this session is live, a pair batch holding two round
  // generations is a broken invariant — every round flushes its batches
  // before the next one broadcasts — so have the router fail fast instead
  // of silently interleaving rounds.
  if (net::ShardRouter* router = bus_.shard_router()) {
    router->set_strict_rounds(true);
  }
}

ParamExchange::~ParamExchange() {
  if (net::ShardRouter* router = bus_.shard_router()) {
    router->set_strict_rounds(false);
  }
}

ParamExchange::Mark ParamExchange::mark() const {
  return {tally_, bus_.stats(), net::Payload::allocations()};
}

// Phase 1: a live item builds its outgoing message — its shared slice as
// one refcounted payload; the bus fans out handles, not copies. Crashed
// residences skip the round (no broadcast, no drain — their inbox backlog
// is discarded as stale after restart). Stragglers start late: their
// compute delay seeds Message::arrival_s, so with a deadline their
// contributions tend to miss the cut at every receiver. The (possibly
// masked) payload doubles as the sender's own contribution in phase 3 —
// pairwise masks only cancel if every group member contributes the masked
// form.
void ParamExchange::prepare_item(std::size_t i, std::uint64_t round_id) {
  const ExchangeItem& item = items_[i];
  const ExchangePolicy& policy = options_.policy;
  if (policy.failures.crashed(item.agent, round_id)) {
    live_[i] = 0;
    bump(tally_.crashed_items);
    // A crashed residence's receivers hold stale delta mirrors (and its
    // quant error accumulator died with the process) — drop its codec
    // streams so the first post-restart broadcast is a keyframe.
    if (net::WireCodec* codec = bus_.codec(); codec != nullptr) {
      codec->reset_agent(item.agent);
    }
    return;
  }
  live_[i] = 1;
  const auto& group = groups_.at(item.device_type);
  if (options_.secure != nullptr && group.size() > 1) {
    sent_[i] = options_.secure->mask(item.agent, round_id, group, item.send);
  } else {
    sent_[i] = std::vector<double>(item.send.begin(), item.send.end());
  }
  net::Message& msg = outbox_[i];
  msg = net::Message{};
  msg.sender = item.agent;
  msg.kind = options_.kind;
  msg.device_type = item.device_type;
  msg.round = round_id;
  msg.arrival_s = policy.failures.compute_delay(item.agent);
  msg.payload = sent_[i];
}

// Encode the live messages of agent groups [lo, hi) as one codec batch.
// The codec keys its streams by sender, so disjoint agent ranges never
// share a stream and may encode concurrently; within the range messages
// encode in item order.
void ParamExchange::encode_agents(std::size_t lo, std::size_t hi) {
  thread_local std::vector<net::Message*> batch;
  batch.clear();
  for (std::size_t i = agent_begin_[lo]; i < agent_begin_[hi]; ++i) {
    if (live_[i]) batch.push_back(&outbox_[i]);
  }
  bus_.codec()->encode(batch);
}

// Star topology: the hub relays leaf messages to the other leaves and
// keeps a copy for its own aggregation — the "cloud aggregator" tax of
// the centralized baselines. Relayed messages share the same payload
// buffer as the original and accumulate the second hop's latency. When
// the lossy leaf->hub link ate a contribution, the leaf retransmits with
// backoff (up to policy.hub_retries attempts); a crashed hub takes the
// whole round down — every leaf falls back to local.
void ParamExchange::relay_via_hub(std::uint64_t round_id) {
  const ExchangePolicy& policy = options_.policy;
  if (bus_.topology().kind() != net::TopologyKind::kStar ||
      policy.failures.crashed(0, round_id)) {
    return;
  }
  auto hub_msgs = bus_.drain(0);
  if (policy.hub_retries > 0) {
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const auto& item = items_[i];
      if (!live_[i] || item.agent == 0) continue;
      const auto hub_has = [&] {
        return std::any_of(hub_msgs.begin(), hub_msgs.end(),
                           [&](const net::Message& m) {
                             return m.sender == item.agent &&
                                    m.device_type == item.device_type;
                           });
      };
      for (std::size_t attempt = 1;
           attempt <= policy.hub_retries && !hub_has(); ++attempt) {
        net::Message msg;
        msg.sender = item.agent;
        msg.kind = options_.kind;
        msg.device_type = item.device_type;
        msg.round = round_id;
        msg.arrival_s =
            policy.failures.compute_delay(item.agent) +
            static_cast<double>(attempt) * policy.retry_backoff_s;
        msg.payload = sent_[i];
        bump(tally_.retries);
        bus_.send(0, msg);
        auto retried = bus_.drain(0);
        hub_msgs.insert(hub_msgs.end(),
                        std::make_move_iterator(retried.begin()),
                        std::make_move_iterator(retried.end()));
      }
    }
  }
  for (auto& m : hub_msgs) {
    for (std::size_t h = 1; h < bus_.num_agents(); ++h) {
      if (static_cast<net::AgentId>(h) == m.sender) continue;
      bus_.send(static_cast<net::AgentId>(h), m);
      bump(tally_.relayed);
    }
    hub_keep_.push_back(std::move(m));
  }
}

// Phase 2: drain one live inbox generationally — round-r messages are
// kept, older rounds are discarded as stale, newer rounds stay parked —
// drop late (past-deadline) deliveries, and sort the survivors by
// (sender, device_type) so averaging order never depends on delivery
// interleaving. Crashed agents keep their backlog; a later drain
// discards it as stale. Agents without items drain too, so their inboxes
// never pile up across rounds.
void ParamExchange::drain_agent(std::size_t a, std::uint64_t round_id) {
  const auto agent = static_cast<net::AgentId>(a);
  auto& kept = inboxes_[a];
  kept.clear();
  if (options_.policy.failures.crashed(agent, round_id)) return;
  std::size_t stale = 0;
  auto raw = bus_.drain_round(agent, round_id, &stale);
  if (a == 0 && !hub_keep_.empty()) {
    raw.insert(raw.end(), std::make_move_iterator(hub_keep_.begin()),
               std::make_move_iterator(hub_keep_.end()));
    hub_keep_.clear();
  }
  const double deadline = options_.policy.round_deadline_s;
  std::uint64_t late = 0;
  kept.reserve(raw.size());
  for (auto& m : raw) {
    if (m.round != round_id) {  // a relayed copy of an older round
      ++stale;
      continue;
    }
    if (deadline > 0.0 && m.arrival_s > deadline) {
      ++late;
      continue;
    }
    kept.push_back(std::move(m));
  }
  std::sort(kept.begin(), kept.end(),
            [](const net::Message& x, const net::Message& y) {
              if (x.sender != y.sender) return x.sender < y.sender;
              return x.device_type < y.device_type;
            });
  bump(tally_.stale_msgs, stale);
  bump(tally_.late_msgs, late);
}

// Phase 3: participation-weighted grouped average for one item.
// Contributions are deduped per (sender, device_type) — duplicated
// deliveries collapse to one vote, so every unique participant that made
// the deadline weighs exactly 1/K in the mean. An item whose group misses
// the quorum (or min_group) keeps its local parameters untouched: one
// more item-round of staleness, never an average over garbage. Items only
// read the drained inboxes and the sent payloads and write their own
// in_place span (or local scratch), so distinct items may run
// concurrently.
void ParamExchange::aggregate_item(std::size_t i, const CommitFn& commit) {
  if (!live_[i]) return;
  const ExchangeItem& item = items_[i];
  const ExchangePolicy& policy = options_.policy;
  const std::size_t shared_len = item.send.size();
  std::vector<std::span<const double>> contributions;
  contributions.push_back(sent_[i]);
  bool have_prev = false;
  net::AgentId prev_sender = 0;
  for (const auto& m : inboxes_[item.agent]) {
    if (m.device_type != item.device_type) continue;
    if (m.sender == item.agent) continue;  // echo guard
    if (have_prev && m.sender == prev_sender) {  // duplicate delivery
      bump(tally_.duplicates);
      continue;
    }
    have_prev = true;
    prev_sender = m.sender;
    if (m.payload.size() != shared_len) {  // shape guard
      bump(tally_.rejected);
      continue;
    }
    contributions.push_back(m.payload);
    bump(tally_.accepted);
  }

  const std::size_t nominal = groups_.at(item.device_type).size();
  std::size_t required = options_.min_group;
  if (policy.quorum_fraction > 0.0) {
    required = std::max(
        required, static_cast<std::size_t>(std::ceil(
                      policy.quorum_fraction * static_cast<double>(nominal))));
  }
  if (contributions.size() < required) {  // local fallback
    bump(tally_.local_fallbacks);
    if (policy.quorum_fraction > 0.0) bump(tally_.quorum_missed);
    return;
  }
  if (policy.quorum_fraction > 0.0) bump(tally_.quorum_met);

  std::vector<double> scratch;
  std::span<const double> averaged;
  if (!item.in_place.empty()) {
    // Eq. 7 in place: the shared prefix of the live parameter span is
    // overwritten; the suffix (Eq. 8's personalization layers) is never
    // touched.
    fedavg_prefix(contributions, shared_len, item.in_place);
    averaged = std::span<const double>(item.in_place).subspan(0, shared_len);
  } else {
    scratch.assign(shared_len, 0.0);
    fedavg(contributions, scratch);
    averaged = scratch;
  }
  bump(tally_.items_averaged);
  bump(tally_.params_averaged, shared_len);
  if (group_hist_ != nullptr) {
    group_hist_->observe(static_cast<double>(contributions.size()));
  }
  if (caller_hist_ != nullptr) {
    caller_hist_->observe(static_cast<double>(contributions.size()));
  }
  if (commit) commit(i, averaged);
}

ExchangeStats ParamExchange::round(std::uint64_t round_id,
                                   const CommitFn& commit) {
  const Mark before = mark();
  // Broadcast runs in item order: a star hub relays leaves in that order
  // and stochastic fault plans draw the per-bus stream in delivery
  // order. Encoding before it is per stream, inboxes and items are
  // independent after it, and every tally is an order-independent sum,
  // so the encode, drain and aggregate fan-outs change no result.
  const bool sharded = bus_.shard_router() != nullptr;
  const auto fan_out = [&](std::size_t n,
                           const std::function<void(std::size_t)>& body) {
    if (sharded) {
      util::ThreadPool::global().parallel_for(0, n, body);
    } else {
      for (std::size_t k = 0; k < n; ++k) body(k);
    }
  };
  // Build every message first (crash resets and masks in item order),
  // then encode them in contiguous agent ranges, so the serial broadcast
  // below only fans out frames that are already coded —
  // MessageBus::broadcast skips the encode of a message with coded_bytes
  // set.
  for (std::size_t i = 0; i < items_.size(); ++i) prepare_item(i, round_id);
  if (bus_.codec() != nullptr) {
    const std::size_t groups = agent_begin_.size() - 1;
    if (sharded) {
      util::ThreadPool::global().parallel_for_chunked(
          0, groups,
          [&](std::size_t lo, std::size_t hi) { encode_agents(lo, hi); });
    } else {
      encode_agents(0, groups);
    }
  }
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (live_[i]) bus_.broadcast(outbox_[i]);
  }
  // Hand parked cross-shard traffic over to the inboxes as one batch per
  // shard pair, in pinned (src, dst) order. No-op without an attached
  // net::ShardRouter.
  bus_.flush_shard_batches();
  relay_via_hub(round_id);
  fan_out(bus_.num_agents(), [&](std::size_t a) { drain_agent(a, round_id); });
  fan_out(items_.size(), [&](std::size_t i) { aggregate_item(i, commit); });
  for (auto& inbox : inboxes_) inbox.clear();
  for (auto& msg : outbox_) msg.payload = {};
  return record_metrics(before);
}

ExchangeStats ParamExchange::record_metrics(const Mark& before) {
  const Mark now = mark();
  ExchangeStats d = minus(now.stats, before.stats);
  d.payload_allocations = now.allocations - before.allocations;
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    reg.counter("exchange.rounds").add(1);
    reg.counter("exchange.items").add(items_.size());
    reg.counter("exchange.payload_copies").add(d.payload_allocations);
    reg.counter("exchange.relays").add(d.relayed);
    reg.counter("exchange.quorum_met").add(d.quorum_met);
    reg.counter("exchange.quorum_missed").add(d.quorum_missed);
    reg.counter("exchange.stale_rounds").add(d.local_fallbacks);
    reg.counter("exchange.stale_msgs").add(d.stale_msgs);
    reg.counter("exchange.late_msgs").add(d.late_msgs);
    reg.counter("exchange.duplicate_msgs").add(d.duplicates);
    reg.counter("exchange.crashed_items").add(d.crashed_items);
    reg.counter("exchange.retries").add(d.retries);
    // fault.* — the run-wide fault ledger, folded as deltas of this bus's
    // counters so both federation buses add into one family.
    reg.counter("fault.drops")
        .add(now.bus.messages_dropped - before.bus.messages_dropped);
    reg.counter("fault.partition_drops")
        .add(now.bus.messages_partition_dropped -
             before.bus.messages_partition_dropped);
    reg.counter("fault.duplicates")
        .add(now.bus.messages_duplicated - before.bus.messages_duplicated);
    reg.counter("fault.delayed_msgs")
        .add(now.bus.messages_delayed - before.bus.messages_delayed);
    reg.counter("fault.crashes").add(d.crashed_items);
  }
  return d;
}

}  // namespace pfdrl::fl
