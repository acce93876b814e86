// Always-on hierarchical wall-clock profiler. Pipeline stages open
// profiler frames through their StageScope (obs/stage.h), which names the
// frame after the stage-table row; ProfileScope / SENTINEL_PROFILE_SCOPE
// remain for frames that are not stages (tests). Frames build per-thread
// trees (one node per distinct call path, not per call), which Snapshot()
// merges across threads into a single self/total-time tree exportable as
// JSON (/profile endpoint) or collapsed-stack lines (flamegraph.pl /
// speedscope input).
//
// Cost contract (mirrors the metrics registry and tracer, DESIGN.md
// "Performance observability"):
// - Detached (no Profiler installed via SetCurrent) every scope is a
//   single relaxed load + branch: no clock read, no allocation, no
//   writes. Attached runs stay bit-identical to detached runs — the
//   profiler is purely observational, like the tracer and the quality
//   monitor.
// - Attached, entering a previously seen frame is wait-free: a walk of
//   the parent's child list (almost always length 1-2, matched by
//   string-literal pointer identity before strcmp) plus two relaxed
//   stores on exit. Node creation happens once per distinct
//   (thread, path) and publishes via release stores into the child
//   links, so concurrent Snapshot() readers never see a half-built node.
//   The profiler mutex guards only thread registration and snapshots,
//   which never run per-packet.
// - Memory is bounded: each thread owns a fixed-capacity node arena;
//   when it fills, further new paths collapse into a per-thread
//   "(overflow)" node instead of allocating.
//
// Relation to the rest of the observability plane: a stage's histogram
// gives the distribution of one stage, its span the provenance of one
// decision, and its profiler frame the wall time by call path (where
// does the time go overall). One StageScope feeds all three from the same
// two clock reads; none of the sinks depends on another.
//
// Threading: scopes must strictly nest per thread (RAII enforces this)
// and a thread's frames land in that thread's tree — a ParallelFor body
// profiles into the worker's tree, under the worker's root. The
// installed profiler must outlive every scope that observed it;
// front ends install with SetCurrent(&p) and uninstall (SetCurrent
// (nullptr)) before destroying `p`, exactly like SetDefaultRegistry.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sentinel::obs {

/// The one monotonic clock every instrument reads (stage scopes, spans,
/// profiler frames), in nanoseconds, so one pair of reads feeds them all.
using StageClock = std::chrono::steady_clock;
[[nodiscard]] inline std::uint64_t ToNs(StageClock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}
[[nodiscard]] inline std::uint64_t NowNs() { return ToNs(StageClock::now()); }

struct ProfilerConfig {
  /// Frame-tree nodes per thread (distinct call paths, not calls). New
  /// paths beyond this collapse into the thread's "(overflow)" node.
  std::size_t max_nodes_per_thread = 1024;
};

class Profiler {
 public:
  explicit Profiler(ProfilerConfig config = {});
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Process-wide installed profiler; nullptr = profiling off (every
  /// scope site reduces to one branch). Mirrors DefaultRegistry().
  [[nodiscard]] static Profiler* Current();
  static void SetCurrent(Profiler* profiler);

  /// One node of the merged cross-thread snapshot. `self_ns` is
  /// `total_ns` minus the children's totals, clamped at zero (frames
  /// still open while snapshotting can make children transiently
  /// outweigh their parent).
  struct Node {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::vector<Node> children;  // sorted by name
  };

  /// Merges every thread's tree by frame path under a synthetic
  /// "(root)" node. Safe to call while scopes are running; counts and
  /// times of frames mid-flight are simply not yet included.
  [[nodiscard]] Node Snapshot() const;

  /// {"threads": N, "dropped_paths": D, "root": {recursive nodes}}.
  [[nodiscard]] std::string RenderJson() const;

  /// Collapsed-stack lines "a;b;c <self_ns>\n" (flamegraph.pl /
  /// speedscope input; the value unit is nanoseconds). Nodes with zero
  /// self time are omitted; the synthetic root is not part of paths.
  [[nodiscard]] std::string RenderCollapsed() const;

  /// Indented text tree (count / total / self per frame), for
  /// `sentinelctl profile`.
  [[nodiscard]] std::string RenderText() const;

  /// Threads that have recorded at least one frame.
  [[nodiscard]] std::size_t thread_count() const;
  /// New call paths dropped into "(overflow)" nodes across all threads.
  [[nodiscard]] std::uint64_t dropped_paths() const;

  // ---- Internals shared with ProfileScope ------------------------------

  struct ThreadTree;

  /// The calling thread's tree in this profiler, created on first use.
  /// Cached thread-locally keyed by the profiler's instance id, so the
  /// mutex is paid once per (thread, profiler), not per scope.
  [[nodiscard]] ThreadTree* TreeForCurrentThread();

  [[nodiscard]] std::uint64_t instance_id() const { return instance_id_; }

 private:
  const ProfilerConfig config_;
  const std::uint64_t instance_id_;

  mutable Mutex mutex_{"obs.profiler"};
  std::vector<std::unique_ptr<ThreadTree>> threads_
      SENTINEL_GUARDED_BY(mutex_);
};

/// Per-thread frame tree. Exposed in the header only so ProfileScope can
/// inline its enter/exit fast path; not part of the public API.
struct Profiler::ThreadTree {
  struct FrameNode {
    /// Written by the owning thread before the node is published through
    /// a child link; immutable afterwards. Call sites pass string
    /// literals, so pointer comparison is the sibling-search fast path.
    const char* name = "";
    std::uint32_t parent = 0;
    // ordering: release on link (the owner publishes a fully
    // initialised node by storing its index into first_child /
    // next_sibling) / acquire on traversal — Snapshot() walks these
    // links from another thread and must see name/parent. Index 0 is
    // the root and never a child, so 0 doubles as "no link".
    std::atomic<std::uint32_t> first_child{0};
    std::atomic<std::uint32_t> next_sibling{0};
    // ordering: relaxed (both) — monotonic statistics written only by
    // the owning thread; Snapshot() takes any recent value, the usual
    // scrape contract.
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
  };

  explicit ThreadTree(std::size_t capacity);

  /// Child of `parent` named `name`, created on first sight. Falls back
  /// to the "(overflow)" node (index 1) when the arena is full. Owner
  /// thread only.
  [[nodiscard]] std::uint32_t FindOrAddChild(std::uint32_t parent,
                                             const char* name);

  void AddSample(std::uint32_t node, std::uint64_t elapsed_ns) {
    FrameNode& frame = nodes[node];
    // ordering: relaxed — statistics only; see FrameNode. The owner is
    // the only writer, so a load and a store replace the read-modify-write.
    frame.count.store(frame.count.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    frame.total_ns.store(
        frame.total_ns.load(std::memory_order_relaxed) + elapsed_ns,
        std::memory_order_relaxed);
  }

  const std::size_t capacity;
  /// Fixed arena; never reallocates, so Snapshot() can hold FrameNode
  /// references while the owner appends.
  std::unique_ptr<FrameNode[]> nodes;
  /// Nodes in use. Owner-written; Snapshot() discovers nodes through
  /// the child links, not this count.
  std::size_t node_count = 0;
  /// Innermost open frame of the owning thread (0 = root). Owner only.
  std::uint32_t current = 0;
  // ordering: relaxed — statistics only (new paths collapsed into the
  // overflow node); read by dropped_paths() from other threads.
  std::atomic<std::uint64_t> dropped{0};
};

/// RAII frame. Disabled (one relaxed load + branch, nothing else) when
/// no profiler is installed.
class ProfileScope {
 public:
  explicit ProfileScope(const char* name) {
    if (Profiler* profiler = Profiler::Current())
      Open(*profiler, name, NowNs());
  }
  /// Sink form for a StageScope (obs/stage.h): a closed frame that Open()
  /// starts at the caller's clock read and Close() records.
  ProfileScope() = default;
  ~ProfileScope() {
    if (tree_ != nullptr) Close(NowNs());
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  void Open(Profiler& profiler, const char* name, std::uint64_t start_ns) {
    tree_ = profiler.TreeForCurrentThread();
    parent_ = tree_->current;
    node_ = tree_->FindOrAddChild(parent_, name);
    tree_->current = node_;
    start_ns_ = start_ns;
  }
  /// Records the frame as ending at `end_ns`; no-op unless open.
  void Close(std::uint64_t end_ns) {
    if (tree_ == nullptr) return;
    tree_->AddSample(node_, end_ns - start_ns_);
    tree_->current = parent_;
    tree_ = nullptr;
  }

  [[nodiscard]] bool enabled() const { return tree_ != nullptr; }

 private:
  Profiler::ThreadTree* tree_ = nullptr;
  std::uint32_t node_ = 0;
  std::uint32_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
};

/// RAII install/uninstall of the process-wide profiler (tests, benches,
/// sentinelctl); mirrors ScopedDefaultRegistry.
class ScopedProfiler {
 public:
  explicit ScopedProfiler(Profiler* profiler)
      : previous_(Profiler::Current()) {
    Profiler::SetCurrent(profiler);
  }
  ~ScopedProfiler() { Profiler::SetCurrent(previous_); }
  ScopedProfiler(const ScopedProfiler&) = delete;
  ScopedProfiler& operator=(const ScopedProfiler&) = delete;

 private:
  Profiler* previous_;
};

// NOLINTBEGIN(cppcoreguidelines-macro-usage)
#define SENTINEL_PROFILE_CONCAT_INNER(a, b) a##b
#define SENTINEL_PROFILE_CONCAT(a, b) SENTINEL_PROFILE_CONCAT_INNER(a, b)
/// Opens a profiler frame named `name` (a string literal) for the rest
/// of the enclosing block.
#define SENTINEL_PROFILE_SCOPE(name)                             \
  ::sentinel::obs::ProfileScope SENTINEL_PROFILE_CONCAT(         \
      sentinel_profile_scope_, __LINE__)(name)
// NOLINTEND(cppcoreguidelines-macro-usage)

/// JSON exposition of the lock-contention telemetry recorded by the
/// sentinel::Mutex / SharedMutex wrappers (util/lock_telemetry.h):
/// {"enabled": b, "sites": [{"name", "acquisitions", "contended",
/// "wait_ns_total", "wait_histogram": [{"ge_ns", "count"}, ...]}, ...]}
/// with sites of the same name merged and sorted by name. Serves the
/// /locks endpoint and the diag bundle.
[[nodiscard]] std::string RenderLockContentionJson();

}  // namespace sentinel::obs
