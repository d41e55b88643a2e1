// Range partitioning of the keyspace into shards by boundary anchors, the
// same mechanism Wormhole uses for leaf anchors one level up: shard i covers
// [boundaries[i-1], boundaries[i]) with an implied "" before the first
// boundary, so every key routes to exactly one shard and the concatenation of
// the shards' ordered contents is the ordered whole. The Service keeps one
// index for every key and uses the router only in durable mode, to pick the
// write-ahead log partition (shard-<i> directory) a request commits to.
//
// Boundaries are chosen from sampled keys with the shortest-separating-prefix
// trick (leafops::SeparatorLen): the anchor between two adjacent samples is
// the shortest prefix of the upper sample that still compares above the lower
// one. Short boundaries keep routing comparisons cheap and are exactly how
// the paper keeps leaf anchors short.
#ifndef WH_SRC_SERVER_SHARD_ROUTER_H_
#define WH_SRC_SERVER_SHARD_ROUTER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace wh {

class ShardRouter {
 public:
  // `boundaries` must be strictly increasing and non-empty strings; the
  // router serves boundaries.size() + 1 shards. An empty vector is the
  // single-shard (unpartitioned) router.
  explicit ShardRouter(std::vector<std::string> boundaries);

  // Builds a router with at most `shards` shards from a set of sampled keys:
  // samples are sorted, and each boundary is the shortest separating prefix
  // at an evenly spaced quantile. Fewer distinct samples than shards yields
  // proportionally fewer shards (never zero).
  static ShardRouter FromSamples(std::vector<std::string> samples,
                                 size_t shards);

  // The shard whose range covers `key`: the number of boundaries <= key.
  size_t ShardOf(std::string_view key) const;

  size_t shard_count() const { return boundaries_.size() + 1; }
  const std::vector<std::string>& boundaries() const { return boundaries_; }

 private:
  std::vector<std::string> boundaries_;
};

}  // namespace wh

#endif  // WH_SRC_SERVER_SHARD_ROUTER_H_
