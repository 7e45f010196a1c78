// A replicated key-value store built on multi-writer atomic registers.
//
// Each key is an independent atomic register (atomicity is local, Section
// 2.1, so per-key registers compose into a linearizable map). The store is
// ONE SimHarness with a multi-key keyspace: every key is its own quorum
// group sharded over physical replicas, clients are table-driven slots of
// that harness, and every per-key history is machine-checked. (Earlier
// revisions emulated this with one harness per key and hand-stitched
// virtual time; the keyspace API makes the composition first-class.)
//
//   $ ./examples/replicated_kv
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "consistency/checkers.h"
#include "core/harness.h"
#include "core/workload.h"
#include "protocols/protocols.h"

namespace {

using namespace mwreg;

/// Name -> key index map over a keyspace harness, with one-op-per-client
/// well-formedness (Section 2.1) enforced by settling when a client is
/// still busy.
class KvStore {
 public:
  KvStore(SimHarness& h, std::vector<std::string> keys)
      : h_(h),
        keys_(std::move(keys)),
        writer_busy_(static_cast<std::size_t>(h.cfg().w())),
        reader_busy_(static_cast<std::size_t>(h.cfg().r())) {}

  void put(const std::string& key, int writer, std::int64_t value) {
    if (writer_busy_[static_cast<std::size_t>(writer)]) settle();
    writer_busy_[static_cast<std::size_t>(writer)] = true;
    h_.async_write_key(writer, key_of(key), value, [this, writer]() {
      writer_busy_[static_cast<std::size_t>(writer)] = false;
    });
  }

  void get(const std::string& key, int reader,
           std::function<void(TaggedValue)> done = nullptr) {
    if (reader_busy_[static_cast<std::size_t>(reader)]) settle();
    reader_busy_[static_cast<std::size_t>(reader)] = true;
    h_.async_read_key(reader, key_of(key),
                      [this, reader, done = std::move(done)](TaggedValue v) {
                        reader_busy_[static_cast<std::size_t>(reader)] = false;
                        if (done) done(v);
                      });
  }

  /// Run every pending operation to completion.
  void settle() { h_.run(); }

  bool check_all(std::string* why) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      const int k = static_cast<int>(i);
      const CheckResult tag = check_tag_witness(h_.key_history(k));
      if (!tag.atomic) {
        *why = "key '" + keys_[i] + "': " + tag.violation;
        return false;
      }
      const CheckResult graph = check_unique_value_graph(h_.key_history(k));
      if (!graph.atomic) {
        *why = "key '" + keys_[i] + "': " + graph.violation;
        return false;
      }
    }
    return true;
  }

  std::size_t total_ops() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      n += h_.key_history(static_cast<int>(i)).completed_count();
    }
    return n;
  }

 private:
  std::uint32_t key_of(const std::string& key) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == key) return static_cast<std::uint32_t>(i);
    }
    std::abort();
  }

  SimHarness& h_;
  std::vector<std::string> keys_;
  std::vector<bool> writer_busy_;
  std::vector<bool> reader_busy_;
};

}  // namespace

int main() {
  const std::vector<std::string> keys{"users", "orders", "carts", "stock"};
  const Protocol* proto = protocol_by_name("mw-abd(W2R2)");

  SimHarness::Options o;
  o.cfg = ClusterConfig{5, 3, 3, 2};  // 5 replicas per key, survives 2
  o.keyspace =
      KeyspaceConfig{static_cast<int>(keys.size()), /*shards=*/2, /*zipf=*/0};
  o.seed = 77;
  SimHarness h(*proto, std::move(o));
  KvStore store(h, keys);

  // A mixed workload: 3 writers and 3 readers hammer random keys.
  Rng rng(1234);
  int puts = 0, gets = 0;
  for (int round = 0; round < 40; ++round) {
    const std::string& key = keys[rng.next_below(keys.size())];
    if (rng.next_bool(0.4)) {
      store.put(key, static_cast<int>(rng.next_below(3)),
                round * 100 + static_cast<std::int64_t>(rng.next_below(100)));
      ++puts;
    } else {
      store.get(key, static_cast<int>(rng.next_below(3)));
      ++gets;
    }
    if (round % 5 == 4) store.settle();  // batch a few concurrent ops
  }
  store.settle();

  std::printf("replicated KV store: %d puts, %d gets across %zu keys\n", puts,
              gets, keys.size());

  // Pile on a Zipfian closed-loop batch through the same harness — the
  // closed-loop driver, reusing the warm table.
  WorkloadOptions w;
  w.ops_per_writer = 30;
  w.ops_per_reader = 30;
  run_random_workload(h, w);
  std::printf("completed operations: %zu\n", store.total_ops());

  std::string why;
  const bool ok = store.check_all(&why);
  std::printf("all per-key histories atomic: %s\n", ok ? "yes" : why.c_str());

  // Read-your-writes smoke check on one key.
  store.put("users", 0, 424242);
  store.settle();
  std::int64_t got = -1;
  store.get("users", 2, [&](mwreg::TaggedValue v) { got = v.payload; });
  store.settle();
  std::printf("read-your-writes on 'users': wrote 424242, read %lld\n",
              static_cast<long long>(got));
  return ok && got == 424242 ? 0 : 1;
}
