#include "obs/profiler.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "obs/json.h"
#include "util/lock_telemetry.h"

namespace sentinel::obs {

namespace {

// ordering: release on install / acquire on read — SetCurrent publishes
// the Profiler object (its arena pointers, instance id) to every thread
// that later observes the pointer; mirrors the default-registry pattern.
std::atomic<Profiler*> g_current_profiler{nullptr};

// ordering: relaxed — id generator; uniqueness needs atomicity only.
std::atomic<std::uint64_t> g_next_instance_id{1};

/// Thread-local (profiler instance id -> tree) cache. The id check makes
/// a stale pointer from a destroyed profiler unreachable: a new profiler
/// reusing the same address still gets a fresh id, so the cache misses
/// and re-registers.
struct TlsTreeCache {
  std::uint64_t instance_id = 0;
  Profiler::ThreadTree* tree = nullptr;
};
thread_local TlsTreeCache t_tree_cache;

}  // namespace

Profiler::ThreadTree::ThreadTree(std::size_t cap)
    : capacity(cap < 2 ? 2 : cap),
      nodes(std::make_unique<FrameNode[]>(capacity)) {
  nodes[0].name = "(root)";
  nodes[1].name = "(overflow)";
  nodes[1].parent = 0;
  node_count = 2;
  // Pre-link the overflow node before the tree is visible to snapshots,
  // so overflowed samples always render under the root.
  // ordering: relaxed — happens-before is provided by the profiler
  // mutex when the tree is handed out.
  nodes[0].first_child.store(1, std::memory_order_relaxed);
}

std::uint32_t Profiler::ThreadTree::FindOrAddChild(std::uint32_t parent,
                                                   const char* name) {
  FrameNode& parent_node = nodes[parent];
  // ordering: acquire — pairs with the release link stores below so a
  // found node's name/parent are visible (also on the owner's own
  // re-entry, where it is trivially satisfied).
  std::uint32_t child = parent_node.first_child.load(std::memory_order_acquire);
  std::uint32_t last = 0;
  while (child != 0) {
    FrameNode& candidate = nodes[child];
    // Literal pointer identity first; strcmp covers sites that pass the
    // same text from different translation units.
    if (candidate.name == name || std::strcmp(candidate.name, name) == 0) {
      return child;
    }
    last = child;
    child = candidate.next_sibling.load(std::memory_order_acquire);
  }
  if (node_count >= capacity) {
    // ordering: relaxed — statistics only; see ThreadTree.
    dropped.fetch_add(1, std::memory_order_relaxed);
    return 1;  // the pre-linked "(overflow)" node
  }
  const auto index = static_cast<std::uint32_t>(node_count);
  FrameNode& node = nodes[index];
  node.name = name;
  node.parent = parent;
  node_count += 1;
  // ordering: release — publishes the initialised node through the
  // child link; pairs with the acquire traversal above and in
  // Snapshot().
  if (last == 0) {
    parent_node.first_child.store(index, std::memory_order_release);
  } else {
    nodes[last].next_sibling.store(index, std::memory_order_release);
  }
  return index;
}

Profiler::Profiler(ProfilerConfig config)
    : config_(config),
      instance_id_(g_next_instance_id.fetch_add(1, std::memory_order_relaxed)) {
}

Profiler::~Profiler() = default;

Profiler* Profiler::Current() {
  return g_current_profiler.load(std::memory_order_acquire);
}

void Profiler::SetCurrent(Profiler* profiler) {
  g_current_profiler.store(profiler, std::memory_order_release);
}

Profiler::ThreadTree* Profiler::TreeForCurrentThread() {
  TlsTreeCache& cache = t_tree_cache;
  if (cache.instance_id == instance_id_) return cache.tree;
  auto tree = std::make_unique<ThreadTree>(config_.max_nodes_per_thread);
  ThreadTree* raw = tree.get();
  {
    MutexLock lock(mutex_);
    threads_.push_back(std::move(tree));
  }
  cache.instance_id = instance_id_;
  cache.tree = raw;
  return raw;
}

namespace {

void MergeTree(const Profiler::ThreadTree& tree, std::uint32_t index,
               Profiler::Node& out) {
  const Profiler::ThreadTree::FrameNode& frame = tree.nodes[index];
  // ordering: relaxed — statistics; see FrameNode.
  out.count += frame.count.load(std::memory_order_relaxed);
  out.total_ns += frame.total_ns.load(std::memory_order_relaxed);
  // ordering: acquire — pairs with the owner's release link publication.
  std::uint32_t child = frame.first_child.load(std::memory_order_acquire);
  while (child != 0) {
    const Profiler::ThreadTree::FrameNode& child_frame = tree.nodes[child];
    const char* child_name = child_frame.name;
    auto it = std::find_if(out.children.begin(), out.children.end(),
                           [child_name](const Profiler::Node& node) {
                             return node.name == child_name;
                           });
    if (it == out.children.end()) {
      out.children.emplace_back();
      out.children.back().name = child_name;
      it = out.children.end() - 1;
    }
    MergeTree(tree, child, *it);
    child = child_frame.next_sibling.load(std::memory_order_acquire);
  }
}

/// Drops empty branches (e.g. an unused "(overflow)" node), computes
/// self times and sorts children by name.
void FinishNode(Profiler::Node& node) {
  node.children.erase(
      std::remove_if(node.children.begin(), node.children.end(),
                     [](const Profiler::Node& child) {
                       return child.count == 0 && child.total_ns == 0 &&
                              child.children.empty();
                     }),
      node.children.end());
  std::sort(node.children.begin(), node.children.end(),
            [](const Profiler::Node& a, const Profiler::Node& b) {
              return a.name < b.name;
            });
  std::uint64_t child_total = 0;
  for (Profiler::Node& child : node.children) {
    FinishNode(child);
    child_total += child.total_ns;
  }
  // Open frames can make children transiently outweigh the parent.
  node.self_ns = node.total_ns > child_total ? node.total_ns - child_total : 0;
}

void AppendNodeJson(std::string& out, const Profiler::Node& node) {
  out += "{\"name\":";
  AppendJsonEscaped(out, node.name);
  out += ",\"count\":" + std::to_string(node.count);
  out += ",\"total_ns\":" + std::to_string(node.total_ns);
  out += ",\"self_ns\":" + std::to_string(node.self_ns);
  out += ",\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i != 0) out += ',';
    AppendNodeJson(out, node.children[i]);
  }
  out += "]}";
}

void AppendCollapsed(std::string& out, const Profiler::Node& node,
                     const std::string& prefix) {
  const std::string path =
      prefix.empty() ? node.name : prefix + ";" + node.name;
  if (node.self_ns > 0) {
    out += path;
    out += ' ';
    out += std::to_string(node.self_ns);
    out += '\n';
  }
  for (const Profiler::Node& child : node.children) {
    AppendCollapsed(out, child, path);
  }
}

void AppendText(std::string& out, const Profiler::Node& node, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += node.name;
  out += "  count=" + std::to_string(node.count);
  out += " total_ns=" + std::to_string(node.total_ns);
  out += " self_ns=" + std::to_string(node.self_ns);
  out += '\n';
  for (const Profiler::Node& child : node.children) {
    AppendText(out, child, depth + 1);
  }
}

}  // namespace

Profiler::Node Profiler::Snapshot() const {
  Node root;
  root.name = "(root)";
  MutexLock lock(mutex_);
  for (const auto& tree : threads_) {
    MergeTree(*tree, 0, root);
  }
  root.count = 0;  // the synthetic root is never entered
  root.total_ns = 0;
  for (const Node& child : root.children) root.total_ns += child.total_ns;
  FinishNode(root);
  root.self_ns = 0;
  return root;
}

std::string Profiler::RenderJson() const {
  const Node root = Snapshot();
  std::string out;
  out.reserve(1024);
  out += "{\"threads\":" + std::to_string(thread_count());
  out += ",\"dropped_paths\":" + std::to_string(dropped_paths());
  out += ",\"root\":";
  AppendNodeJson(out, root);
  out += "}";
  return out;
}

std::string Profiler::RenderCollapsed() const {
  const Node root = Snapshot();
  std::string out;
  for (const Node& child : root.children) {
    AppendCollapsed(out, child, "");
  }
  return out;
}

std::string Profiler::RenderText() const {
  const Node root = Snapshot();
  std::string out;
  out += "profile: threads=" + std::to_string(thread_count());
  out += " dropped_paths=" + std::to_string(dropped_paths());
  out += '\n';
  for (const Node& child : root.children) {
    AppendText(out, child, 0);
  }
  return out;
}

std::size_t Profiler::thread_count() const {
  MutexLock lock(mutex_);
  return threads_.size();
}

std::uint64_t Profiler::dropped_paths() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& tree : threads_) {
    // ordering: relaxed — statistics; see ThreadTree.
    total += tree->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::string RenderLockContentionJson() {
  struct MergedSite {
    std::uint64_t acquisitions = 0;
    std::uint64_t contended = 0;
    std::uint64_t wait_ns_total = 0;
    std::uint64_t buckets[kLockWaitBuckets] = {};
  };
  // Registration order is first-use order, which varies run to run;
  // merge duplicates (the same name registered from several objects)
  // and sort for a deterministic exposition.
  std::map<std::string, MergedSite> merged;
  const std::size_t count = LockSiteCount();
  for (std::size_t i = 0; i < count; ++i) {
    const LockSiteStats& site = LockSiteAt(i);
    MergedSite& slot = merged[site.Name()];
    // ordering: relaxed — statistics scrape; see LockSiteStats.
    slot.acquisitions += site.acquisitions.load(std::memory_order_relaxed);
    slot.contended += site.contended.load(std::memory_order_relaxed);
    slot.wait_ns_total += site.wait_ns_total.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kLockWaitBuckets; ++b) {
      slot.buckets[b] += site.wait_buckets[b].load(std::memory_order_relaxed);
    }
  }
  {
    const LockSiteStats& overflow = LockOverflowSite();
    // ordering: relaxed — statistics scrape; see LockSiteStats.
    if (overflow.acquisitions.load(std::memory_order_relaxed) != 0) {
      MergedSite& slot = merged[overflow.Name()];
      slot.acquisitions += overflow.acquisitions.load(std::memory_order_relaxed);
      slot.contended += overflow.contended.load(std::memory_order_relaxed);
      slot.wait_ns_total +=
          overflow.wait_ns_total.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kLockWaitBuckets; ++b) {
        slot.buckets[b] +=
            overflow.wait_buckets[b].load(std::memory_order_relaxed);
      }
    }
  }

  std::string out;
  out.reserve(512);
  out += "{\"enabled\":";
  out += LockTelemetryEnabled() ? "true" : "false";
  out += ",\"sites\":[";
  bool first = true;
  for (const auto& [name, site] : merged) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    AppendJsonEscaped(out, name);
    out += ",\"acquisitions\":" + std::to_string(site.acquisitions);
    out += ",\"contended\":" + std::to_string(site.contended);
    out += ",\"wait_ns_total\":" + std::to_string(site.wait_ns_total);
    out += ",\"wait_histogram\":[";
    for (std::size_t b = 0; b < kLockWaitBuckets; ++b) {
      if (b != 0) out += ',';
      out += "{\"ge_ns\":" + std::to_string(LockWaitBucketFloorNs(b));
      out += ",\"count\":" + std::to_string(site.buckets[b]) + "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace sentinel::obs
