// Server replica of the paper's Algorithm 2 (Appendix A).
//
// State: the current max value `vali` and a `valuevector` mapping every value
// ever received to the set of clients that updated/confirmed it. The
// valuevector is a flat vector sorted by tag, each entry holding its updated
// set as a sorted id vector: exactly the order and form both read-ack
// encodings stream, so a reply is one pass over it.
//
// One deliberate clarification versus the printed pseudocode: on a READ the
// server records the reader in the updated set of EVERY value it reports
// (not only the values in the reader's valQueue). The printed Algorithm 2
// only updates valQueue values, but the proofs need more: Lemma 5 (MWA2)
// argues a just-written value is admissible with degree 2 at a following
// read, whose witness clients are {writer, reader} -- the reader must
// therefore be in the value's updated set at reply time even when a newer
// value has already superseded it, and Lemma 8's proof says "every server
// which replies to r2 ... adds r2 to its updated set before replying". The
// single-writer algorithm of Dutta et al. [12] does exactly this (its
// server stores one value and confirms the reader on it when replying).
// Without this clarification the schedule fuzzer finds MWA2 violations
// under heavy message reordering; DESIGN.md records the deviation.
//
// With Options::gc_enabled the server additionally garbage-collects the
// valuevector and serves incremental read acks (kFrReadDeltaReq /
// kFrReadAckDelta): entries strictly below the minimum confirmed watermark
// any reader has carried on its requests are pruned, and a read ack carries
// only the entries whose revision is newer than the revision the reader
// last acknowledged. DESIGN.md section 6 gives the safety argument against
// Lemmas 5 and 8; with gc_enabled=false the server is bit-exact with the
// pre-GC implementation (the ablation the benches compare against).
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/tag.h"
#include "core/server_base.h"
#include "protocols/messages.h"

namespace mwreg {

class FastReadServer final : public ServerBase {
 public:
  struct Options {
    /// `confirm_reported = false` reverts to the pseudocode as printed
    /// (update only the reader's valQueue values): kept for the ablation
    /// showing the MWA2 violations that motivates the clarification above.
    bool confirm_reported = true;
    /// Watermark-based valuevector GC + delta read acks (DESIGN.md
    /// section 6). Off by default: the legacy protocols stay bit-exact.
    bool gc_enabled = false;
  };

  FastReadServer(NodeId id, Network& net, const ClusterConfig& cfg)
      : FastReadServer(id, net, cfg, Options{}) {}

  FastReadServer(NodeId id, Network& net, const ClusterConfig& cfg,
                 Options opts)
      : ServerBase(id, net, cfg), opts_(opts) {
    // valuevector starts with the bottom value; under GC it carries
    // revision 1 so a reader that has acked nothing (rev 0) receives it.
    entry_for(kBottomTag).rev = ++rev_seq_;
    // Indexed by NodeId, so size to the end of the id space: in a re-based
    // keyspace group the reader ids sit far above total_nodes().
    watermark_.resize(static_cast<std::size_t>(cfg.id_end()));
  }

  [[nodiscard]] const TaggedValue& current() const { return vali_; }
  [[nodiscard]] std::size_t valuevector_size() const { return entries_.size(); }

  /// GC observables (zero / bottom while gc_enabled is false).
  [[nodiscard]] const Tag& gc_floor() const { return gc_floor_; }
  [[nodiscard]] std::uint64_t entries_pruned() const { return pruned_; }

  /// Batched delivery: one virtual dispatch per span, then a non-virtual
  /// per-frame loop through the request switch.
  void on_deliver_batch(FrameSpan frames) final {
    for (const Frame& f : frames) handle_request(f);
  }

 protected:
  void handle_request(const Frame& req) final {
    switch (req.type) {
      case kFrQueryReq:
        reply(req, kFrQueryAck, encode_tag(pool(), vali_.tag));
        break;
      case kFrWriteReq: {
        const TaggedValue v = decode_value(req.payload);
        update(v, req.src);
        reply(req, kFrWriteAck, {});
        break;
      }
      case kFrReadReq: {
        ByteReader r(req.payload);
        decode_value_list_into(r, req_queue_);
        for (const TaggedValue& v : req_queue_) update(v, req.src);
        confirm_all(req.src);
        // A full-ack read carries the same watermark information (the
        // valQueue maximum), so GC advances on it too — a cluster can mix
        // delta and full-ack readers.
        note_watermark(req.src);
        // The whole valuevector, streamed straight out of it.
        ByteWriter w(pool().acquire());
        w.put_span(entries_.data(), entries_.size(),
                   [](ByteWriter& bw, const Entry& e) {
                     put_fr_entry(bw, e.fr);
                   });
        reply(req, kFrReadAck, w.take());
        break;
      }
      case kFrReadDeltaReq:
        handle_delta_read(req);
        break;
      default:
        break;
    }
  }

 private:
  struct Entry {
    /// The value and its updated set (sorted), in wire form.
    FrEntry fr;
    /// Last server revision at which this entry changed (payload set,
    /// updated-set grew, or entry created). Only meaningful under GC.
    std::uint64_t rev = 0;
  };

  static bool tag_less(const Entry& e, const Tag& t) {
    return e.fr.value.tag < t;
  }

  /// The entry for `tag`, inserted in tag order (rev 0) when absent. A
  /// write's fresh tag is usually the largest, so it appends at the back. A
  /// new entry adopts an updated-set buffer GC retired, so a warmed
  /// valuevector stops allocating.
  Entry& entry_for(const Tag& tag) {
    auto it = entries_.end();
    if (!entries_.empty() && !(entries_.back().fr.value.tag < tag)) {
      it = std::lower_bound(entries_.begin(), entries_.end(), tag, tag_less);
      if (it->fr.value.tag == tag) return *it;
    }
    Entry e;
    e.fr.value.tag = tag;
    if (!spare_sets_.empty()) {
      e.fr.updated = std::move(spare_sets_.back());
      spare_sets_.pop_back();
    }
    return *entries_.insert(it, std::move(e));
  }

  /// Add `c` to a sorted updated set; false if it was already there.
  static bool add_client(std::vector<NodeId>& updated, NodeId c) {
    const auto it = std::lower_bound(updated.begin(), updated.end(), c);
    if (it != updated.end() && *it == c) return false;
    updated.insert(it, c);
    return true;
  }

  /// Algorithm 2's update(val, c).
  void update(const TaggedValue& val, NodeId c) {
    Entry& e = entry_for(val.tag);
    bool changed = e.rev == 0;  // freshly created (GC keeps revs >= 1)
    if (e.fr.value.payload != val.payload) {
      e.fr.value.payload = val.payload;
      changed = true;
    }
    changed |= add_client(e.fr.updated, c);
    if (changed) e.rev = ++rev_seq_;
    if (val.tag > vali_.tag) vali_ = val;
  }

  /// Confirm the reader on every value it is about to receive (see the
  /// header comment: required by Lemmas 5 and 8).
  void confirm_all(NodeId reader) {
    if (!opts_.confirm_reported) return;
    for (Entry& e : entries_) {
      if (add_client(e.fr.updated, reader)) e.rev = ++rev_seq_;
    }
  }

  /// The incremental read (Algorithm 2 + GC): record the reader's confirmed
  /// watermark, re-admit its watermark value, confirm it on every entry,
  /// advance the GC floor, then reply with only the entries newer than the
  /// revision the reader acknowledged.
  void handle_delta_read(const Frame& req) {
    ByteReader r(req.payload);
    const bool ok = decode_delta_read_req_into(r, req_queue_, req_acks_);
    assert(ok && "malformed kFrReadDeltaReq");
    if (!ok) {
      // Never reached in the simulator (payloads are self-produced), but
      // dropping the request would deadlock the reader's round: discard
      // the garbled queue and answer as if nothing were acked, which
      // resends the full state — always safe.
      req_queue_.clear();
      req_acks_.clear();
    }
    for (const TaggedValue& v : req_queue_) update(v, req.src);
    confirm_all(req.src);
    note_watermark(req.src);
    // Readers order the ack array by server index within the group, so a
    // re-based group (multi-key shards) must subtract its base; the classic
    // layout has server_base == 0 and is unchanged.
    const std::size_t self = static_cast<std::size_t>(id() - cfg().server_base);
    const std::uint64_t acked =
        self < req_acks_.size() ? req_acks_[self] : 0;

    FrDeltaHeader h;
    h.revision = rev_seq_;
    h.gc_floor = gc_floor_;
    for (const Entry& e : entries_) h.count += e.rev > acked;
    ByteWriter w(pool().acquire());
    put_delta_ack_header(w, h);
    for (const Entry& e : entries_) {
      if (e.rev > acked) put_fr_entry(w, e.fr);
    }
    reply(req, kFrReadAckDelta, w.take());
  }

  /// Record the confirmed watermark a reader carried in `req_queue_` and
  /// advance the GC floor. No-op unless GC is enabled and `src` is a
  /// reader.
  void note_watermark(NodeId src) {
    if (!opts_.gc_enabled || !cfg().is_reader(src)) return;
    Tag wm = watermark_[static_cast<std::size_t>(src)];
    for (const TaggedValue& v : req_queue_) wm = std::max(wm, v.tag);
    watermark_[static_cast<std::size_t>(src)] = wm;
    collect_garbage();
  }

  /// Prune entries strictly below the minimum confirmed watermark across
  /// all readers. Safety (DESIGN.md section 6.2): no reader can ever again
  /// return a tag below its own watermark (Lemma 3 lower-bounds every read
  /// by the max of the valQueue it sent), so nothing below the minimum is
  /// returnable by anyone and Lemmas 5/8 hold vacuously for pruned tags.
  void collect_garbage() {
    Tag floor = watermark_[static_cast<std::size_t>(cfg().reader_id(0))];
    for (int i = 1; i < cfg().r(); ++i) {
      const auto slot = static_cast<std::size_t>(cfg().reader_id(i));
      floor = std::min(floor, watermark_[slot]);
    }
    if (gc_floor_ < floor) gc_floor_ = floor;  // floors only advance
    // Prune below the floor even when it did not just advance: a full-ack
    // reader re-admits its whole valQueue via update(), and those stale
    // sub-floor entries must not survive into the reply built next. (In a
    // pure delta cluster requests only carry watermarks >= the floor, so
    // this erase finds nothing.) The watermark carrier's value was just
    // re-admitted, so the valuevector keeps at least the floor entry and vali_
    // survives.
    assert(gc_floor_ <= vali_.tag);
    const auto end =
        std::lower_bound(entries_.begin(), entries_.end(), gc_floor_, tag_less);
    for (auto it = entries_.begin(); it != end; ++it) {
      it->fr.updated.clear();
      spare_sets_.push_back(std::move(it->fr.updated));
    }
    pruned_ += static_cast<std::uint64_t>(end - entries_.begin());
    entries_.erase(entries_.begin(), end);
  }

  Options opts_;
  TaggedValue vali_{};
  /// The valuevector, sorted by tag (unique).
  std::vector<Entry> entries_;
  /// Updated-set buffers of pruned entries, kept for reuse.
  std::vector<std::vector<NodeId>> spare_sets_;
  std::uint64_t rev_seq_ = 0;
  /// Highest confirmed watermark carried on each reader's requests,
  /// indexed by NodeId (non-reader slots stay bottom).
  std::vector<Tag> watermark_;
  Tag gc_floor_{};
  std::uint64_t pruned_ = 0;
  /// Request decode scratch, reused across reads.
  std::vector<TaggedValue> req_queue_;
  std::vector<std::uint64_t> req_acks_;
};

}  // namespace mwreg
