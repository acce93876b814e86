// The benchmark's workloads (BENCHMARK.json lists all but serve_light,
// which runs by hand; see README.md). Each factory does the whole untimed
// set-up (simulation, training, input generation, server start) from the
// workload seed and returns a workload ready to Measure().
#pragma once

#include <cstdint>
#include <memory>

#include "common.h"

namespace e2ebench {

/// A stream of fresh simulated joins through SecurityGateway::Ingress +
/// FlushIdle.
std::unique_ptr<Workload> MakeGatewayOnboard(std::uint64_t seed);
/// Simulated standby traffic of an onboarded ~1k-device fleet.
std::unique_ptr<Workload> MakeGatewayForward(std::uint64_t seed);
/// Open-loop Poisson POST /identify probes over loopback HTTP.
std::unique_ptr<Workload> MakeServeLight(std::uint64_t seed);
/// Closed-loop POST /identify probes, 4 connections x 16 in flight.
std::unique_ptr<Workload> MakeServeSaturate(std::uint64_t seed);

}  // namespace e2ebench
