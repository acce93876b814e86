// End-to-end benchmark of the IoT Sentinel gateway and identification
// service. Usage (normally through e2ebench/run.py, which builds it):
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>] [--git-sha <sha>] [--source-digest <hex>]
//
// Workloads: gateway_onboard, gateway_forward, serve_light,
// serve_saturate. Set-up (simulation, training, input generation, server
// start) runs several times and its median is setup_s; then the timed part
// runs for --seconds. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run measures half its time untraced and half
// traced and reports both, so the tracing overhead is stated; its spans go
// through an obs::Tracer and are written as Chrome trace JSON.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace {

using e2ebench::Format;
using e2ebench::Outcome;
using e2ebench::Workload;

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
/// Spans a traced run keeps in memory (the most recent ones).
constexpr std::size_t kSpanCapacity = 1 << 17;

struct Metric {
  const char* name;
  const char* unit;
};

/// Per-layer metrics, printed for every workload in a traced run (0 where
/// the layer does not run on that workload).
const std::vector<Metric> kLayerMetrics = {
    {"sdn.ingress_calls", "count"},
    {"sdn.ingress_ns", "ns"},
    {"sdn.fastpath_ratio", "ratio"},
    {"sdn.fastpath_ns_p50", "ns"},
    {"sdn.flow_hash_hit_ratio", "ratio"},
    {"core.packet_in_ns_p50", "ns"},
    {"capture.frames_per_device", "count"},
    {"capture.duplicate_fingerprint_ratio", "ratio"},
    {"core.assess_calls", "count"},
    {"core.assess_ns_p50", "ns"},
    {"core.assess_ns_p99", "ns"},
    {"ml.bank_scan_ns_p50", "ns"},
    {"features.tiebreak_ns_p50", "ns"},
    {"features.tiebreak_ns_p99", "ns"},
    {"features.edit_distances_per_id", "count"},
    {"core.multi_match_ratio", "ratio"},
    {"core.unknown_ratio", "ratio"},
    {"core.enforce_ns_p50", "ns"},
    {"core.serve_submit_us_p50", "us"},
    {"core.serve_queue_wait_us_p50", "us"},
    {"core.serve_queue_wait_us_p99", "us"},
    {"core.serve_service_us_p50", "us"},
    {"core.serve_batch_size_mean", "count"},
    {"core.flush_size_ratio", "ratio"},
    {"core.flush_deadline_ratio", "ratio"},
    {"core.flush_sparse_ratio", "ratio"},
    {"core.serve_rejected", "count"},
    {"core.serve_shed", "count"},
    {"obs.http_overhead_us_p50", "us"},
    {"obs.http_overhead_us_p99", "us"},
    {"util.queue_lock_contended", "count"},
    {"util.queue_lock_wait_ns", "ns"},
    {"trace.ops_ratio", "ratio"},
    {"trace.latency_p50_ratio", "ratio"},
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "gateway_onboard") return e2ebench::MakeGatewayOnboard(seed);
  if (name == "gateway_forward") return e2ebench::MakeGatewayForward(seed);
  if (name == "serve_light") return e2ebench::MakeServeLight(seed);
  if (name == "serve_saturate") return e2ebench::MakeServeSaturate(seed);
  return nullptr;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// JSON string literal for the few free-text values printed (CPU model,
/// compiler): escapes quotes and backslashes.
std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Prints a timed phase's end-to-end numbers under both the benchmark's
/// metric names and the workload's own names.
void PrintPhase(const char* label, const Outcome& out,
                const std::vector<std::string>& names) {
  std::printf("[%s] attempted %llu failed %llu %s\n", label,
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.valid ? "valid" : "INVALID");
  std::printf("[%s] ops_per_s %.6g 1/s (%s): %llu completed in %.3f s\n",
              label, out.OpsPerSecond(), names[0].c_str(),
              static_cast<unsigned long long>(out.latency_us.count()),
              out.seconds);
  std::printf("[%s] latency_p50_us %.6g us (%s), latency_p99_us %.6g us (%s), "
              "%llu samples\n",
              label, out.latency_us.Quantile(0.5), names[1].c_str(),
              out.latency_us.Quantile(0.99), names[2].c_str(),
              static_cast<unsigned long long>(out.latency_us.count()));
  for (const auto& note : out.notes)
    std::printf("[%s] %s\n", label, note.c_str());
}

std::string JsonMetric(const char* name, double value, const char* unit) {
  return Format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name, value,
                unit);
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "<gateway_onboard|gateway_forward|serve_light|serve_saturate> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>] "
               "[--git-sha <sha>] [--source-digest <hex>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::stoull(value);
    } else if (arg == "--seconds") {
      seconds = std::stod(value);
    } else if (arg == "--trace") {
      trace = value == "1";
    } else if (arg == "--trace-dir") {
      trace_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const std::vector<std::string> known = {"gateway_onboard", "gateway_forward",
                                          "serve_light", "serve_saturate"};
  if (std::find(known.begin(), known.end(), workload_name) == known.end())
    return Usage("unknown or missing --workload");
  if (seconds <= 0) return Usage("--seconds must be positive");

  // Set-up, several times: the median is setup_s; the last one is kept.
  std::vector<double> setups;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    const std::uint64_t t0 = e2ebench::NowNs();
    workload = MakeWorkload(workload_name, seed);
    setups.push_back(static_cast<double>(e2ebench::NowNs() - t0) / 1e9);
  }
  const double setup_s = e2ebench::Quantile(setups, 0.5);

  std::printf(
      "env {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, \"build_type\": "
      "\"%s\", \"git_sha\": \"%s\", \"source_digest\": \"%s\", "
      "\"loopback\": %s}\n",
      std::thread::hardware_concurrency(), Quoted(CpuModel()).c_str(),
      Quoted(Compiler()).c_str(), E2EBENCH_BUILD_TYPE, git_sha.c_str(),
      source_digest.c_str(), workload->Loopback() ? "true" : "false");
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              workload_name.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace ? 1 : 0);
  std::printf("setup_s %.6g s (median of %d set-ups:", setup_s, kSetups);
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf(")\n");

  const auto names = workload->MetricNames();
  std::vector<std::string> metrics;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  if (!trace) {
    const Outcome out = workload->Measure(seconds, nullptr);
    PrintPhase("untraced", out, names);
    correct = out.valid;
    attempted = out.attempted;
    failed = out.failed;
    metrics.push_back(JsonMetric("setup_s", setup_s, "s"));
    metrics.push_back(
        JsonMetric("peak_rss_mb", e2ebench::PeakRssMb(), "MB"));
    metrics.push_back(JsonMetric("ops_per_s", out.OpsPerSecond(), "1/s"));
    metrics.push_back(
        JsonMetric("latency_p50_us", out.latency_us.Quantile(0.5), "us"));
    metrics.push_back(
        JsonMetric("latency_p99_us", out.latency_us.Quantile(0.99), "us"));
  } else {
    const Outcome plain = workload->Measure(seconds / 2, nullptr);
    sentinel::obs::Tracer tracer(kSpanCapacity);
    Outcome traced = workload->Measure(seconds / 2, &tracer);
    PrintPhase("untraced", plain, names);
    PrintPhase("traced", traced, names);
    const double ops_ratio =
        e2ebench::Ratio(traced.OpsPerSecond(), plain.OpsPerSecond());
    const double p50_ratio = e2ebench::Ratio(traced.latency_us.Quantile(0.5),
                                             plain.latency_us.Quantile(0.5));
    std::printf("tracing overhead: traced/untraced ops_per_s %.4f, "
                "latency_p50 %.4f; %llu spans recorded, the last %zu kept\n",
                ops_ratio, p50_ratio,
                static_cast<unsigned long long>(tracer.recorded()),
                std::min<std::size_t>(tracer.recorded(), tracer.capacity()));
    traced.layers["trace.ops_ratio"] = ops_ratio;
    traced.layers["trace.latency_p50_ratio"] = p50_ratio;
    if (!trace_dir.empty()) {
      const std::string path = Format("%s/%s-seed%llu.trace.json",
                                      trace_dir.c_str(), workload_name.c_str(),
                                      static_cast<unsigned long long>(seed));
      try {
        tracer.WriteChromeJson(path);
        std::printf("spans written to %s\n", path.c_str());
      } catch (const std::exception& e) {
        std::printf("could not write spans to %s: %s\n", path.c_str(),
                    e.what());
      }
    }
    correct = plain.valid && traced.valid;
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
    for (const Metric& m : kLayerMetrics) {
      const auto it = traced.layers.find(m.name);
      const double value = it == traced.layers.end() ? 0.0 : it->second;
      std::printf("layer %s %.6g %s\n", m.name, value, m.unit);
      metrics.push_back(JsonMetric(m.name, value, m.unit));
    }
  }

  std::string json = Format("{\"correct\": %s, \"attempted\": %llu, "
                            "\"failed\": %llu, \"metrics\": {",
                            correct ? "true" : "false",
                            static_cast<unsigned long long>(attempted),
                            static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json += (i == 0 ? "" : ", ") + metrics[i];
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
