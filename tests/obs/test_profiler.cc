// Unit tests for the hierarchical wall-clock profiler (obs/profiler.h):
// tree construction, cross-thread merging, export formats and their edge
// cases (nested scopes, thread exit mid-scope, empty profile, arena
// overflow), plus the differential contract that an attached profiler
// never changes pipeline results.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/device_identifier.h"
#include "devices/simulator.h"
#include "obs/profiler.h"
#include "util/thread_pool.h"

namespace sentinel::obs {
namespace {

const Profiler::Node* FindChild(const Profiler::Node& node,
                                const std::string& name) {
  for (const auto& child : node.children)
    if (child.name == name) return &child;
  return nullptr;
}

TEST(ProfilerTest, EmptyProfileSnapshotAndExports) {
  Profiler profiler;
  const auto root = profiler.Snapshot();
  EXPECT_EQ(root.name, "(root)");
  EXPECT_TRUE(root.children.empty());
  EXPECT_EQ(root.total_ns, 0u);
  EXPECT_EQ(profiler.thread_count(), 0u);
  EXPECT_EQ(profiler.dropped_paths(), 0u);
  EXPECT_EQ(profiler.RenderCollapsed(), "");
  const std::string json = profiler.RenderJson();
  EXPECT_NE(json.find("\"threads\":0"), std::string::npos);
  EXPECT_NE(json.find("\"root\""), std::string::npos);
}

TEST(ProfilerTest, DetachedScopeIsInertAndRecordsNothing) {
  ASSERT_EQ(Profiler::Current(), nullptr);
  {
    SENTINEL_PROFILE_SCOPE("detached");
  }
  ProfileScope scope("also_detached");
  EXPECT_FALSE(scope.enabled());
  Profiler profiler;
  ScopedProfiler scoped(&profiler);
  EXPECT_TRUE(profiler.Snapshot().children.empty());
}

TEST(ProfilerTest, NestedScopesBuildTreeWithSelfTimes) {
  Profiler profiler;
  ScopedProfiler scoped(&profiler);
  {
    SENTINEL_PROFILE_SCOPE("outer");
    {
      SENTINEL_PROFILE_SCOPE("inner_a");
    }
    {
      SENTINEL_PROFILE_SCOPE("inner_b");
    }
    {
      SENTINEL_PROFILE_SCOPE("inner_b");  // sibling repeat merges by name
    }
  }
  const auto root = profiler.Snapshot();
  ASSERT_EQ(root.children.size(), 1u);
  const auto& outer = root.children[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 1u);
  ASSERT_EQ(outer.children.size(), 2u);
  // Children are sorted by name.
  EXPECT_EQ(outer.children[0].name, "inner_a");
  EXPECT_EQ(outer.children[1].name, "inner_b");
  EXPECT_EQ(outer.children[0].count, 1u);
  EXPECT_EQ(outer.children[1].count, 2u);
  // self = total - sum(children), and totals nest.
  const std::uint64_t child_total =
      outer.children[0].total_ns + outer.children[1].total_ns;
  EXPECT_GE(outer.total_ns, child_total);
  EXPECT_EQ(outer.self_ns, outer.total_ns - child_total);
  EXPECT_EQ(root.total_ns, outer.total_ns);
  EXPECT_EQ(profiler.thread_count(), 1u);
}

TEST(ProfilerTest, SameNameDifferentPathsStayDistinct) {
  Profiler profiler;
  ScopedProfiler scoped(&profiler);
  {
    SENTINEL_PROFILE_SCOPE("a");
    SENTINEL_PROFILE_SCOPE("shared");
  }
  {
    SENTINEL_PROFILE_SCOPE("b");
    SENTINEL_PROFILE_SCOPE("shared");
  }
  const auto root = profiler.Snapshot();
  const auto* a = FindChild(root, "a");
  const auto* b = FindChild(root, "b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(FindChild(*a, "shared"), nullptr);
  EXPECT_NE(FindChild(*b, "shared"), nullptr);
}

TEST(ProfilerTest, CollapsedStackFormat) {
  Profiler profiler;
  ScopedProfiler scoped(&profiler);
  {
    SENTINEL_PROFILE_SCOPE("top");
    SENTINEL_PROFILE_SCOPE("mid");
    SENTINEL_PROFILE_SCOPE("leaf");
  }
  const std::string collapsed = profiler.RenderCollapsed();
  // Every line is "path;to;frame <self_ns>\n"; the synthetic root is
  // not part of any path.
  EXPECT_EQ(collapsed.find("(root)"), std::string::npos);
  EXPECT_NE(collapsed.find("top;mid;leaf "), std::string::npos);
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < collapsed.size()) {
    const std::size_t end = collapsed.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "unterminated collapsed line";
    const std::string line = collapsed.substr(start, end - start);
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty());
    for (const char c : value) EXPECT_TRUE(c >= '0' && c <= '9') << line;
    start = end + 1;
    ++lines;
  }
  EXPECT_GE(lines, 1u);
}

TEST(ProfilerTest, SnapshotWhileScopeStillOpen) {
  Profiler profiler;
  ScopedProfiler scoped(&profiler);
  SENTINEL_PROFILE_SCOPE("open_frame");
  {
    SENTINEL_PROFILE_SCOPE("closed_child");
  }
  // The open frame has no completed sample yet; its closed child does.
  // self_ns clamps at zero instead of underflowing.
  const auto root = profiler.Snapshot();
  const auto* open = FindChild(root, "open_frame");
  ASSERT_NE(open, nullptr);
  EXPECT_EQ(open->count, 0u);
  EXPECT_EQ(open->self_ns, 0u);
  ASSERT_EQ(open->children.size(), 1u);
  EXPECT_EQ(open->children[0].count, 1u);
}

TEST(ProfilerTest, ThreadExitMidScopeKeepsCompletedFrames) {
  Profiler profiler;
  ScopedProfiler scoped(&profiler);
  std::thread worker([] {
    SENTINEL_PROFILE_SCOPE("worker_outer");
    {
      SENTINEL_PROFILE_SCOPE("worker_inner");
    }
  });
  worker.join();
  // The worker is gone; its tree (owned by the profiler, not the
  // thread) still merges into the snapshot.
  const auto root = profiler.Snapshot();
  const auto* outer = FindChild(root, "worker_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  ASSERT_EQ(outer->children.size(), 1u);
  EXPECT_EQ(outer->children[0].name, "worker_inner");
  EXPECT_EQ(profiler.thread_count(), 1u);
}

TEST(ProfilerTest, MultiThreadFramesMergeByPath) {
  Profiler profiler;
  ScopedProfiler scoped(&profiler);
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    workers.emplace_back([] {
      for (int rep = 0; rep < 10; ++rep) {
        SENTINEL_PROFILE_SCOPE("shared_stage");
        SENTINEL_PROFILE_SCOPE("sub_stage");
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const auto root = profiler.Snapshot();
  const auto* stage = FindChild(root, "shared_stage");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->count, kThreads * 10);
  ASSERT_EQ(stage->children.size(), 1u);
  EXPECT_EQ(stage->children[0].count, kThreads * 10);
  EXPECT_EQ(profiler.thread_count(), kThreads);
}

TEST(ProfilerTest, ArenaOverflowCollapsesNewPaths) {
  // Capacity 4 = root + overflow + 2 real nodes; everything past that
  // collapses into "(overflow)" and is counted in dropped_paths().
  Profiler profiler(ProfilerConfig{.max_nodes_per_thread = 4});
  ScopedProfiler scoped(&profiler);
  static constexpr const char* kNames[] = {"p0", "p1", "p2", "p3", "p4"};
  for (const char* name : kNames) {
    ProfileScope scope(name);
  }
  EXPECT_GT(profiler.dropped_paths(), 0u);
  const auto root = profiler.Snapshot();
  const auto* overflow = FindChild(root, "(overflow)");
  ASSERT_NE(overflow, nullptr);
  EXPECT_GT(overflow->count, 0u);
  // Overflowed frames still balance enter/exit: re-profiling a known
  // path afterwards works.
  {
    SENTINEL_PROFILE_SCOPE("p0");
  }
  const auto after = profiler.Snapshot();
  const auto* p0 = FindChild(after, "p0");
  ASSERT_NE(p0, nullptr);
  EXPECT_EQ(p0->count, 2u);
}

TEST(ProfilerTest, RenderJsonShape) {
  Profiler profiler;
  ScopedProfiler scoped(&profiler);
  {
    SENTINEL_PROFILE_SCOPE("stage");
  }
  const std::string json = profiler.RenderJson();
  EXPECT_NE(json.find("\"threads\":1"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_paths\":0"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"total_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"self_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
}

TEST(ProfilerTest, ScopedProfilerRestoresPrevious) {
  Profiler first;
  Profiler second;
  ASSERT_EQ(Profiler::Current(), nullptr);
  {
    ScopedProfiler outer(&first);
    EXPECT_EQ(Profiler::Current(), &first);
    {
      ScopedProfiler inner(&second);
      EXPECT_EQ(Profiler::Current(), &second);
    }
    EXPECT_EQ(Profiler::Current(), &first);
  }
  EXPECT_EQ(Profiler::Current(), nullptr);
}

TEST(ProfilerTest, FreshProfilerAfterDestructionStartsEmpty) {
  // The thread-local tree cache is keyed by profiler instance id: a new
  // profiler (even at the same address) must not inherit stale trees.
  {
    Profiler profiler;
    ScopedProfiler scoped(&profiler);
    SENTINEL_PROFILE_SCOPE("first_life");
  }
  Profiler reborn;
  ScopedProfiler scoped(&reborn);
  {
    SENTINEL_PROFILE_SCOPE("second_life");
  }
  const auto root = reborn.Snapshot();
  EXPECT_EQ(FindChild(root, "first_life"), nullptr);
  EXPECT_NE(FindChild(root, "second_life"), nullptr);
}

TEST(ProfilerTest, ParallelForHammerWhileSnapshotting) {
  // Workers create and exercise frames while another thread snapshots
  // continuously: exercises the release/acquire child-link publication
  // (primary TSan target for the profiler).
  Profiler profiler;
  ScopedProfiler scoped(&profiler);
  util::ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    // ordering: relaxed — plain stop flag for the scrape loop.
    while (!stop.load(std::memory_order_relaxed)) {
      (void)profiler.Snapshot();
      (void)profiler.RenderCollapsed();
    }
  });
  static constexpr const char* kStageNames[] = {"h0", "h1", "h2", "h3"};
  for (int round = 0; round < 50; ++round) {
    util::ParallelFor(&pool, 64, [&](std::size_t i) {
      SENTINEL_PROFILE_SCOPE("hammer");
      ProfileScope inner(kStageNames[i % 4]);
    });
  }
  // ordering: relaxed — see above.
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  // Pool workers (and the participating caller) run loop bodies inside
  // the pool's own "sentinel_stage_parallel_chunk" frame.
  const auto root = profiler.Snapshot();
  const auto* chunk = FindChild(root, "sentinel_stage_parallel_chunk");
  ASSERT_NE(chunk, nullptr);
  const auto* hammer = FindChild(*chunk, "hammer");
  ASSERT_NE(hammer, nullptr);
  EXPECT_EQ(hammer->count, 50u * 64u);
  EXPECT_EQ(hammer->children.size(), 4u);
}

// ---- Differential: the profiler is purely observational ----------------

TEST(ProfilerDifferentialTest, VerdictsAndModelBytesBitIdentical) {
  const auto dataset = devices::GenerateFingerprintDataset(3, 99);
  std::vector<core::LabelledFingerprint> examples;
  examples.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    examples.push_back(core::LabelledFingerprint{
        &dataset.fingerprints[i], &dataset.fixed[i], dataset.labels[i]});
  }
  const auto probes = devices::GenerateFingerprintDataset(1, 77);

  const auto run = [&](bool attach_profiler) {
    Profiler profiler;
    ScopedProfiler scoped(attach_profiler ? &profiler : nullptr);
    core::DeviceIdentifier identifier;
    identifier.Train(examples);
    std::string verdicts;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const auto result =
          identifier.Identify(probes.fingerprints[i], probes.fixed[i]);
      verdicts += result.type.has_value() ? std::to_string(*result.type)
                                          : std::string("?");
      verdicts += ";";
      for (const int type : result.matched_types)
        verdicts += std::to_string(type) + ",";
      verdicts += "|";
    }
    const std::string path =
        testing::TempDir() + "/profiler_diff_" +
        (attach_profiler ? "on" : "off") + ".bin";
    identifier.SaveToFile(path);
    std::string model_bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0)
      model_bytes.append(buffer, n);
    std::fclose(f);
    std::remove(path.c_str());
    return std::pair<std::string, std::string>(verdicts, model_bytes);
  };

  const auto detached = run(false);
  const auto attached = run(true);
  EXPECT_EQ(detached.first, attached.first) << "verdicts diverged";
  ASSERT_FALSE(detached.second.empty());
  EXPECT_EQ(detached.second, attached.second) << "model bytes diverged";
}

}  // namespace
}  // namespace sentinel::obs
