// The federated exchange round.
//
// Both of the paper's federation loops — DFL forecast averaging every β
// hours (Alg. 1) and DRL base-layer averaging every γ hours (Eq. 7) —
// are the same communication pattern: every agent broadcasts a flat
// parameter slice along the topology, a star hub optionally relays leaf
// messages (the "cloud tax" of the centralized baselines), every agent
// drains its inbox in deterministic (sender, device_type) order, guards
// contribution shapes, and averages per device-type group. ParamExchange
// owns that whole round; DflTrainer and DrlFederation are thin
// configurations of it (gossip-averaging systems — DSGD, FedAvg — treat
// the exchange round as a primitive, and so do we).
//
// A ParamExchange is a session over a fixed item set on one bus. It holds
// exactly one implementation of each phase — build an item's message,
// encode a range of agents' messages, drain an agent's inbox, aggregate
// an item, fold the metrics — and round(r) runs them at one barrier:
// build every item's message, encode them on the bus's wire codec,
// broadcast every item and hand the cross-shard batches over, run the
// star hub relay/retry stage, then drain every agent and aggregate every
// item. The broadcast always runs in item order; with a shard router on
// the bus the encode, drain and aggregate steps fan out on the global
// pool, per agent range, agent and item. Encoding is per sender stream,
// and every item averages the same sorted contribution set either way,
// so the fan-out changes no bits.
//
// Zero-copy: outgoing slices become one net::Payload allocation each; the
// bus fans out refcounted handles, so a full-mesh broadcast is O(1)
// payload allocations regardless of receiver count. The engine reports
// the allocation count as `exchange.payload_copies`.
//
// Degradation: rounds are deadline-based when ExchangePolicy asks for it.
// Each round drains whatever arrived by the per-round deadline (in
// simulated time), discards stale leftovers from earlier rounds and
// duplicate deliveries, aggregates the quorum that made it with a
// participation-weighted average (each unique arrival weighs 1/K), and
// falls back to local-only parameters when the quorum is missed. Crashed
// residences skip the round entirely; the star-relay hub path retries
// missing leaf contributions with backoff. Every degradation decision is
// observable through the exchange.* and fault.* metric families — see
// docs/robustness.md for the exact semantics the tests pin.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "fl/secure_agg.hpp"
#include "net/bus.hpp"
#include "net/fault.hpp"

namespace pfdrl::obs {
class Histogram;
class MetricsRegistry;
}

namespace pfdrl::fl {

/// One (agent, device) participant in an exchange round.
struct ExchangeItem {
  /// Residence / agent id on the bus.
  net::AgentId agent = 0;
  /// Device type — the aggregation group key (homologous models only).
  std::uint32_t device_type = 0;
  /// The shared slice this item broadcasts and averages over (for PFDRL
  /// this is the α-layer base prefix; for DFL the full parameter vector).
  std::span<const double> send;
  /// Optional in-place destination covering at least send.size() values
  /// (typically the network's flat parameter span). When non-empty the
  /// grouped average is written via fedavg_prefix — Eq. 7 lands directly
  /// in the live parameters and the untouched suffix is Eq. 8's
  /// personalization layers. When empty the engine averages into scratch
  /// and hands the result to the commit callback instead.
  std::span<double> in_place;
};

/// Robustness policy for a round: how long to wait, how many peers are
/// enough, how hard the star hub tries, and which residences are down.
/// The default policy reproduces the original always-everything round.
struct ExchangePolicy {
  /// Per-round deadline in simulated seconds; contributions whose
  /// Message::arrival_s exceeds it are discarded as late. 0 = no
  /// deadline (drain everything from the current round).
  double round_deadline_s = 0.0;
  /// Minimum fraction of an item's nominal aggregation group (own
  /// contribution included) that must arrive for averaging; below it the
  /// item falls back to its local parameters. 0 disables the gate
  /// (Options::min_group still applies).
  double quorum_fraction = 0.0;
  /// Star topology only: retransmission attempts per missing leaf
  /// contribution on the leaf->hub path. 0 disables retries.
  std::size_t hub_retries = 2;
  /// Extra simulated arrival delay per retry attempt (backoff).
  double retry_backoff_s = 0.05;
  /// Crash windows and compute stragglers, per residence.
  net::FailureSchedule failures{};

  [[nodiscard]] bool degraded() const noexcept {
    return round_deadline_s > 0.0 || quorum_fraction > 0.0 ||
           !failures.empty();
  }
};

/// What one round did (callers fold these into their own dfl.* / drl.*
/// metric namespaces; the engine also records exchange.* instruments).
struct ExchangeStats {
  /// Peer contributions merged after the shape guard.
  std::uint64_t accepted = 0;
  /// Contributions rejected by the shape guard.
  std::uint64_t rejected = 0;
  /// Hub relays performed (star topology only).
  std::uint64_t relayed = 0;
  /// Items whose group reached min_group and quorum and were averaged.
  std::uint64_t items_averaged = 0;
  /// Parameters overwritten by averaging, summed over items.
  std::uint64_t params_averaged = 0;
  /// Payload buffer allocations during the round (zero-copy accounting:
  /// one per broadcast item, never per receiver).
  std::uint64_t payload_allocations = 0;
  /// Duplicate deliveries collapsed by the (sender, device_type) dedupe
  /// — aggregation is idempotent under the bus's duplication fault.
  std::uint64_t duplicates = 0;
  /// Messages from older rounds discarded at drain (a restarted
  /// residence's crash backlog).
  std::uint64_t stale_msgs = 0;
  /// Current-round messages discarded for arriving past the deadline.
  std::uint64_t late_msgs = 0;
  /// Items whose group met the quorum fraction (counted only when the
  /// quorum gate is enabled).
  std::uint64_t quorum_met = 0;
  /// Items gated out by the quorum fraction (local fallback).
  std::uint64_t quorum_missed = 0;
  /// Live items that did not average this round for any reason (below
  /// min_group, or quorum missed) and kept local parameters — each one
  /// is an item-round of staleness.
  std::uint64_t local_fallbacks = 0;
  /// Items skipped because their residence is inside a crash window.
  std::uint64_t crashed_items = 0;
  /// Leaf->hub retransmissions attempted by the star relay path.
  std::uint64_t retries = 0;
};

class ParamExchange {
 public:
  struct Options {
    /// Kind stamped on outgoing messages.
    net::MessageKind kind = net::MessageKind::kForecastParams;
    /// Pairwise-mask broadcasts (groups of >= 2) so no neighbour sees raw
    /// parameters; the masked form is also the sender's own contribution,
    /// since masks only cancel under full group participation.
    const SecureAggregator* secure = nullptr;
    /// Minimum group size (own contribution included) to average at all;
    /// below it the item keeps its local parameters untouched.
    std::size_t min_group = 2;
    /// Sink for the exchange.* instruments; nullptr disables recording.
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional caller-namespaced histogram for per-average group sizes
    /// (e.g. "dfl.agg_group_size"); empty records exchange.group_size
    /// only.
    std::string group_size_histogram;
    /// Deadline / quorum / retry / failure-schedule policy; the default
    /// reproduces the original always-everything round.
    ExchangePolicy policy{};
  };

  /// Invoked for every averaged item after its result landed; `averaged`
  /// aliases item.in_place for in-place items and engine scratch
  /// otherwise (consumers without a mutable flat span call
  /// set_parameters here; consumers with one use it to notify). With a
  /// shard router on the bus it runs concurrently for distinct items.
  using CommitFn =
      std::function<void(std::size_t item, std::span<const double> averaged)>;

  /// A session over `items`, which must be sorted ascending by agent (an
  /// agent may own several items) and name agents that exist on the bus;
  /// std::invalid_argument otherwise. The spans must stay valid for the
  /// session's lifetime. Item indices are the ones CommitFn reports.
  ParamExchange(net::MessageBus& bus, Options options,
                std::vector<ExchangeItem> items);
  ~ParamExchange();

  ParamExchange(const ParamExchange&) = delete;
  ParamExchange& operator=(const ParamExchange&) = delete;

  [[nodiscard]] std::span<const ExchangeItem> items() const noexcept {
    return items_;
  }
  [[nodiscard]] const net::MessageBus& bus() const noexcept { return bus_; }

  /// One whole round. Returns that round's stats and folds its
  /// exchange.* / fault.* metrics.
  ExchangeStats round(std::uint64_t round_id, const CommitFn& commit);

 private:
  /// Baseline of one metric window.
  struct Mark {
    ExchangeStats stats;
    net::BusStats bus;
    std::uint64_t allocations = 0;
  };

  [[nodiscard]] Mark mark() const;
  /// Fold the exchange.* / fault.* deltas since `before` and return the
  /// round's stats.
  ExchangeStats record_metrics(const Mark& before);
  void prepare_item(std::size_t i, std::uint64_t round_id);
  void encode_agents(std::size_t lo, std::size_t hi);
  void relay_via_hub(std::uint64_t round_id);
  void drain_agent(std::size_t a, std::uint64_t round_id);
  void aggregate_item(std::size_t i, const CommitFn& commit);

  net::MessageBus& bus_;
  Options options_;
  std::vector<ExchangeItem> items_;
  /// Nominal aggregation groups: the sorted agent list per device type.
  /// Needed for secure masking (masks cancel exactly within a full
  /// group), to know whether a device has homologous peers at all, and as
  /// the quorum denominator — crashed members still count, so a shrinking
  /// live set shows up as a falling quorum fill, not a moving target.
  std::map<std::uint32_t, std::vector<net::AgentId>> groups_;
  /// Per-item send slots: the (possibly masked) payload each live item
  /// broadcast this round, which is also its own contribution.
  std::vector<net::Payload> sent_;
  /// Per-item outgoing message of the current round, encoded before the
  /// broadcast; its payload handle is released when the round ends.
  std::vector<net::Message> outbox_;
  /// Item ranges per distinct agent: agent group g owns items
  /// [agent_begin_[g], agent_begin_[g + 1]). The encode fan-out splits
  /// the groups, never an agent's items.
  std::vector<std::size_t> agent_begin_;
  std::vector<char> live_;
  /// Drained, filtered and sorted inboxes, indexed by agent; cleared once
  /// their items aggregated so the round's payload handles are released.
  std::vector<std::vector<net::Message>> inboxes_;
  /// Messages the star hub drained for relaying; the hub aggregates from
  /// these copies instead of looping them back through the network.
  std::vector<net::Message> hub_keep_;
  obs::Histogram* group_hist_ = nullptr;
  obs::Histogram* caller_hist_ = nullptr;
  /// Cumulative stats over the session (payload_allocations unused).
  /// Phases add through relaxed atomic refs — order-independent sums, so
  /// totals never depend on which worker or shard added them — and
  /// round() reads it only while no phase runs.
  ExchangeStats tally_;
};

}  // namespace pfdrl::fl
