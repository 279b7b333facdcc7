#include "core/federation.hpp"

#include <algorithm>

#include "core/layer_split.hpp"
#include "fl/exchange.hpp"
#include "obs/metrics.hpp"

namespace pfdrl::core {

DrlFederation::DrlFederation(std::size_t num_homes, std::size_t share_layers,
                             net::TopologyKind topology, net::FaultPlan fault,
                             obs::MetricsRegistry* metrics,
                             fl::ExchangePolicy policy,
                             net::TopologyOptions topology_options,
                             std::size_t shards, bool wire_codec,
                             bool wire_quant)
    : share_layers_(share_layers),
      router_(shards > 1 ? std::make_unique<net::ShardRouter>(
                               std::max<std::size_t>(1, num_homes), shards)
                         : nullptr),
      codec_(wire_codec || wire_quant
                 ? std::make_unique<net::WireCodec>(
                       net::CodecOptions{.quantize = wire_quant})
                 : nullptr),
      bus_(net::Topology(topology, std::max<std::size_t>(1, num_homes),
                         topology_options),
           std::move(fault)),
      metrics_(metrics),
      policy_(std::move(policy)) {
  if (router_) bus_.set_shard_router(router_.get());
  if (codec_) bus_.set_codec(codec_.get());
}

std::unique_ptr<fl::ParamExchange> DrlFederation::open_rounds(
    std::vector<FederatedDevice>& devices, fl::RoundLoop& loop) {
  loop.session = nullptr;
  if (bus_.num_agents() < 2) return nullptr;
  // One exchange item per registered device agent. `send` is the α-layer
  // base prefix (Eq. 7's shared slice); `in_place` is the live parameter
  // span, so the engine lands the grouped average directly in the network
  // via fedavg_prefix and the untouched suffix stays Eq. 8's
  // personalization layers.
  std::vector<fl::ExchangeItem> items;
  items.reserve(devices.size());
  net::MessageKind kind = net::MessageKind::kDrlBaseParams;
  for (const auto& dev : devices) {
    nn::Mlp& net = dev.agent->network();
    const std::size_t prefix = base_prefix_params(net, share_layers_);
    if (share_layers_ >= net.num_layers()) {
      kind = net::MessageKind::kDrlFullParams;  // FRL shares everything
    }
    const auto params = net.parameters();
    items.push_back({.agent = dev.home,
                     .device_type = dev.device_type,
                     .send = params.subspan(0, prefix),
                     .in_place = params});
  }
  fl::ParamExchange::Options options;
  options.kind = kind;
  options.metrics = metrics_;
  options.group_size_histogram = "drl.agg_group_size";
  options.policy = policy_;
  auto session = std::make_unique<fl::ParamExchange>(bus_, std::move(options),
                                                     std::move(items));
  loop.session = session.get();
  // Commits tell the agent its parameters changed underneath.
  loop.commit = [&devices](std::size_t i, std::span<const double>) {
    devices[i].agent->notify_external_parameter_update();
  };
  loop.fold = [this](const fl::ExchangeStats& stats) { record(stats); };
  return session;
}

void DrlFederation::record(const fl::ExchangeStats& stats) {
  if (metrics_ == nullptr) return;
  metrics_->counter("drl.rounds").add(1);
  metrics_->counter("drl.messages_relayed").add(stats.relayed);
  metrics_->counter("drl.contributions_accepted").add(stats.accepted);
  metrics_->counter("drl.contributions_rejected").add(stats.rejected);
  metrics_->counter("drl.params_averaged").add(stats.params_averaged);
  obs::record_bus_stats(*metrics_, "bus.drl", bus_.stats());
  if (router_) {
    obs::record_shard_router_stats(*metrics_, "bus.drl", router_->stats());
  }
  if (codec_) {
    obs::record_codec_stats(*metrics_, "wire.drl", codec_->stats());
  }
}

void DrlFederation::round(std::vector<FederatedDevice>& devices,
                          std::uint64_t round_id) {
  fl::RoundLoop loop;
  if (const auto session = open_rounds(devices, loop)) {
    loop.fold(session->round(round_id, loop.commit));
  }
}

}  // namespace pfdrl::core
