#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/error.h"

namespace brickx::transport {

/// Deterministic node-leader aggregation protocol, generic over the
/// sub-message type so it is testable without the MPI runtime (simmpi
/// instantiates it with its Envelope-carrying staging record).
///
/// Every staged sub-message is tagged with its sender's current *commit
/// generation* — the number of commit() calls that rank has made so far. A
/// frame keyed (src_node, dst_node, gen) seals once every member of
/// src_node has committed past `gen`; the committing call that raises the
/// node minimum seals all newly eligible frames in (gen asc, dst_node asc)
/// order, with sub-messages inside a frame ordered by (member rank,
/// per-rank staging order). Grouping, seal order and sub order are all
/// pure functions of each rank's program, never of thread interleaving, so
/// the framed flows — and everything timed off them — are bit-deterministic.
///
/// Liveness contract: co-located ranks must pass commit points in equal
/// counts between exchanges (bulk-synchronous phase alignment). Every
/// brickx workload satisfies this: all ranks run the same per-round
/// post-sends → wait → collective sequence, and finalize() force-seals any
/// leftovers at run-body end.
template <class Sub>
class Aggregator {
 public:
  struct Frame {
    int src_node = 0;
    int dst_node = 0;
    std::int64_t gen = 0;
    std::vector<Sub> subs;
  };
  /// Invoked with each sealed frame, under the aggregator lock — seals are
  /// serialized in protocol order. Must not re-enter the aggregator.
  using SealFn = std::function<void(Frame&&)>;

  /// `node_of[r]` maps rank r to its node id (contiguous from 0).
  Aggregator(std::vector<int> node_of, SealFn seal)
      : node_of_(std::move(node_of)), seal_(std::move(seal)) {
    BX_CHECK(!node_of_.empty(), "aggregator needs at least one rank");
    int nodes = 0;
    for (int n : node_of_) {
      BX_CHECK(n >= 0, "negative node id");
      nodes = std::max(nodes, n + 1);
    }
    commits_.assign(node_of_.size(), 0);
    ords_.assign(node_of_.size(), 0);
    nodes_.resize(static_cast<std::size_t>(nodes));
    for (std::size_t r = 0; r < node_of_.size(); ++r)
      nodes_[static_cast<std::size_t>(node_of_[r])].members.push_back(
          static_cast<int>(r));
  }

  /// Stage one sub-message from `src_rank` toward `dst_node`, in the
  /// sender's current commit generation.
  void stage(int src_rank, int dst_node, Sub sub) {
    std::lock_guard<std::mutex> lk(mu_);
    const auto r = static_cast<std::size_t>(src_rank);
    NodeState& ns = nodes_[static_cast<std::size_t>(node_of_[r])];
    ns.pending[{commits_[r], dst_node}].push_back(
        Item{src_rank, ords_[r]++, std::move(sub)});
    staged_ += 1;
  }

  /// Rank reached a commit point (wait entry, collective entry). Seals
  /// every frame of its node that became eligible.
  void commit(int rank) {
    std::lock_guard<std::mutex> lk(mu_);
    bump(rank, commits_[static_cast<std::size_t>(rank)] + 1);
  }

  /// Run-body end: this rank stages nothing further; once all members of a
  /// node finalize, all its remaining frames seal.
  void finalize(int rank) {
    std::lock_guard<std::mutex> lk(mu_);
    bump(rank, std::numeric_limits<std::int64_t>::max());
  }

  /// Sub-messages staged but not yet sealed (0 after all ranks finalize).
  [[nodiscard]] std::int64_t pending() const {
    std::lock_guard<std::mutex> lk(mu_);
    return staged_;
  }

 private:
  struct Item {
    int rank;
    std::int64_t ord;  ///< per-rank staging ordinal (program order)
    Sub sub;
  };
  struct NodeState {
    std::vector<int> members;
    /// (gen, dst_node) → staged items; map order is the seal order.
    std::map<std::pair<std::int64_t, int>, std::vector<Item>> pending;
  };

  // Precondition: mu_ held.
  void bump(int rank, std::int64_t count) {
    const auto r = static_cast<std::size_t>(rank);
    commits_[r] = std::max(commits_[r], count);
    NodeState& ns = nodes_[static_cast<std::size_t>(node_of_[r])];
    std::int64_t min_commit = std::numeric_limits<std::int64_t>::max();
    for (int m : ns.members)
      min_commit = std::min(min_commit, commits_[static_cast<std::size_t>(m)]);
    while (!ns.pending.empty() && ns.pending.begin()->first.first < min_commit)
      seal_front(ns);
  }

  // Precondition: mu_ held.
  void seal_front(NodeState& ns) {
    auto it = ns.pending.begin();
    std::vector<Item>& items = it->second;
    std::stable_sort(items.begin(), items.end(),
                     [](const Item& a, const Item& b) {
                       return a.rank != b.rank ? a.rank < b.rank
                                               : a.ord < b.ord;
                     });
    Frame f;
    f.src_node = node_of_[static_cast<std::size_t>(items.front().rank)];
    f.dst_node = it->first.second;
    f.gen = it->first.first;
    f.subs.reserve(items.size());
    for (Item& item : items) f.subs.push_back(std::move(item.sub));
    staged_ -= static_cast<std::int64_t>(items.size());
    ns.pending.erase(it);
    seal_(std::move(f));
  }

  std::vector<int> node_of_;
  SealFn seal_;
  mutable std::mutex mu_;
  std::vector<std::int64_t> commits_;  ///< per-rank commit generation
  std::vector<std::int64_t> ords_;     ///< per-rank staging ordinal
  std::vector<NodeState> nodes_;
  std::int64_t staged_ = 0;
};

}  // namespace brickx::transport
