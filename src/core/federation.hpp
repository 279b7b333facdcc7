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
#include <vector>

#include "fl/exchange.hpp"
#include "fl/rounds.hpp"
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

  /// Open one training window's exchange session over `devices` and
  /// point `loop` (fl::run_rounds, which drives every round) at it:
  /// commits notify the agents, and exchange stats fold into drl.*
  /// counters plus bus / router / codec gauges. `devices` must outlive
  /// the session and stay unmoved. A bus of < 2 agents has nobody to
  /// exchange with: no session opens (nullptr) and the rounds run local
  /// only.
  [[nodiscard]] std::unique_ptr<fl::ParamExchange> open_rounds(
      std::vector<FederatedDevice>& devices, fl::RoundLoop& loop);

  /// One-shot barrier round: broadcast each agent's shared slice, then
  /// average per device type at each home (Eq. 7) and stitch with the
  /// local personalization suffix (Eq. 8).
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

  /// drl.* counters plus bus / router / codec gauges for one round.
  void record(const fl::ExchangeStats& stats);
};

}  // namespace pfdrl::core
