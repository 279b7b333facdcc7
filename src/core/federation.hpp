// DRL parameter federation (paper §3.3.2, Eq. 7).
//
// Groups DQN agents by device type across residences and averages either
// the full parameter vector (the FRL baseline) or only the α-layer base
// prefix (PFDRL). Parameters travel over the simulated message bus so
// communication volume is accounted exactly — the PFDRL prefix messages
// are smaller, which is what produces the paper's Fig. 14 time-overhead
// ordering (PFDRL < FRL).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fl/exchange.hpp"
#include "net/bus.hpp"
#include "rl/dqn.hpp"

namespace pfdrl::obs {
class MetricsRegistry;
}

namespace pfdrl::core {

struct FederatedDevice {
  /// Residence / agent id on the bus.
  net::AgentId home = 0;
  /// Device type (aggregation group key).
  std::uint32_t device_type = 0;
  rl::DqnAgent* agent = nullptr;
};

class DrlFederation {
 public:
  /// `share_layers` = number of dense layers broadcast (the paper's α);
  /// pass the network's full layer count for FRL. `num_homes` sizes the
  /// bus. `fault` models the plan-exchange network (a bare LinkModel
  /// converts implicitly; lossy links shrink aggregation groups and the
  /// shape guard keeps averaging well-formed). `metrics` (optional)
  /// receives per-round drl.* instruments. `policy` adds deadline /
  /// quorum / crash / straggler degradation to every round.
  /// `topology_options` tunes the sparse topologies (hierarchical
  /// cluster size, gossip fanout/seed); mesh/star/ring ignore it.
  /// `shards` > 1 attaches a net::ShardRouter: cross-shard plan messages
  /// are batched per shard pair per round and the drain/aggregate phases
  /// run on the global pool (see docs/scaling.md). `wire_codec` attaches
  /// the lossless delta/XOR wire codec to the plan-exchange bus;
  /// `wire_quant` additionally enables lossy int8 quantization with
  /// error feedback (docs/wire.md).
  DrlFederation(std::size_t num_homes, std::size_t share_layers,
                net::TopologyKind topology, net::FaultPlan fault = {},
                obs::MetricsRegistry* metrics = nullptr,
                fl::ExchangePolicy policy = {},
                net::TopologyOptions topology_options = {},
                std::size_t shards = 0, bool wire_codec = false,
                bool wire_quant = false);

  // --- Rounds ------------------------------------------------------
  // One exchange session per training window, driven by either schedule
  // of fl::ParamExchange. begin_rounds opens it over a device set; every
  // round is then either round(r) (barrier schedule) or publish(s, r)
  // per shard followed by apply(s, r) once the shard's in-neighbors
  // published (pipelined schedule, core::RoundPipeline; the caller gates
  // it on fl::pipelinable(bus()), the engine throws otherwise).
  // end_rounds tears the session down. `devices` must outlive the
  // session and stay unmoved — commits notify through it. A bus of < 2
  // agents has nobody to exchange with: no session opens and every round
  // is a no-op.

  void begin_rounds(std::vector<FederatedDevice>& devices);
  /// Barrier schedule: broadcast each agent's shared slice, then average
  /// per device type at each home (Eq. 7) and stitch with the local
  /// personalization suffix (Eq. 8). Folds the round's drl.* metrics.
  void round(std::uint64_t round_id);
  void publish(std::size_t shard, std::uint64_t round_id);
  void apply(std::size_t shard, std::uint64_t round_id);
  /// Fold drl.* / exchange.* / fault.* metric deltas for the `rounds`
  /// pipelined rounds completed since the previous fold.
  void fold_metrics(std::uint64_t rounds);
  void end_rounds();
  /// Shard count of the open session (1 when unsharded or closed).
  [[nodiscard]] std::size_t shards() const;

  /// One-shot barrier round: begin_rounds + round + end_rounds.
  void round(std::vector<FederatedDevice>& devices, std::uint64_t round_id);

  [[nodiscard]] net::BusStats comm_stats() const { return bus_.stats(); }
  [[nodiscard]] std::size_t share_layers() const noexcept {
    return share_layers_;
  }
  /// The plan-exchange bus (warm-restart fault-RNG/stats restore; see
  /// sim/snapshot.hpp).
  [[nodiscard]] net::MessageBus& bus() noexcept { return bus_; }
  [[nodiscard]] const net::MessageBus& bus() const noexcept { return bus_; }
  /// Attached cross-shard router; nullptr when unsharded.
  [[nodiscard]] const net::ShardRouter* shard_router() const noexcept {
    return router_.get();
  }
  /// Attached wire codec; nullptr unless wire_codec/wire_quant is set.
  [[nodiscard]] net::WireCodec* wire_codec() const noexcept {
    return codec_.get();
  }

 private:
  std::size_t share_layers_;
  /// Declared before bus_ — the bus holds non-owning router and codec
  /// pointers.
  std::unique_ptr<net::ShardRouter> router_;
  std::unique_ptr<net::WireCodec> codec_;
  net::MessageBus bus_;
  obs::MetricsRegistry* metrics_;
  fl::ExchangePolicy policy_;
  /// Open exchange session and the device list its commits notify
  /// through.
  std::optional<fl::ParamExchange> session_;
  std::vector<FederatedDevice>* devices_ = nullptr;

  /// Commit callback: tell the agent its parameters changed underneath.
  void notify(std::size_t item, std::span<const double> averaged) const;
  /// drl.* counters plus bus / router / codec gauges for `rounds` rounds.
  void record(const fl::ExchangeStats& stats, std::uint64_t rounds);
};

}  // namespace pfdrl::core
