#include "serve/server.hh"

namespace nlfm::serve
{

namespace
{

ModelRegistry
serverRegistry(nn::RnnNetwork &network, nn::BinarizedNetwork *bnn,
               const ServerOptions &options)
{
    ModelSpec spec;
    spec.name = "default";
    spec.network = &network;
    spec.bnn = bnn;
    spec.memo = options.memo;
    spec.memoized = options.memoized;
    spec.calibratedStepCostMs = options.calibratedStepCostMs;
    spec.autopilot = options.autopilot;
    ModelRegistry registry;
    registry.add(std::move(spec));
    return registry;
}

FleetOptions
serverFleetOptions(const ServerOptions &options)
{
    FleetOptions fleet;
    fleet.slots = options.slots;
    fleet.queueCapacity = options.queueCapacity;
    fleet.workers = options.workers;
    fleet.shedExpired = options.shedExpired;
    fleet.queuePolicy = options.queuePolicy;
    fleet.shedPredicted = options.shedPredicted;
    // One model has no neighbour to share machine time with fairly.
    fleet.costAwareAdmission = false;
    fleet.sessionCapacity = options.sessionCapacity;
    fleet.telemetry = options.telemetry;
    return fleet;
}

} // namespace

Server::Server(nn::RnnNetwork &network, nn::BinarizedNetwork *bnn,
               const ServerOptions &options)
    : options_(options), fleet_(serverRegistry(network, bnn, options),
                                serverFleetOptions(options))
{
}

} // namespace nlfm::serve
