// Server replica of the paper's Algorithm 2 (Appendix A).
//
// State: the current max value `vali` and a `valuevector` mapping every value
// ever received to the set of clients that updated/confirmed it. The
// valuevector is an FrRows sorted by tag: each entry's updated set is a
// bitset over the group's client ids, and both read-ack encodings stream
// the entries in that order, scanning the set bits, so a reply is one pass
// over it.
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
// pre-GC implementation (the ablation the benches compare against). The
// floor is kept incrementally: the minimum watermark over the reader slots
// and how many slots hold it, rescanned only when that count drains.
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
      : ServerBase(id, net, cfg),
        opts_(opts),
        rows_(cfg.first_client(), cfg.id_end() - cfg.first_client()),
        watermark_(static_cast<std::size_t>(cfg.r())),
        at_floor_(cfg.r()) {
    // valuevector starts with the bottom value; under GC it carries
    // revision 1 so a reader that has acked nothing (rev 0) receives it.
    revs_[entry_for(kBottomTag)] = ++rev_seq_;
  }

  [[nodiscard]] const TaggedValue& current() const { return vali_; }
  [[nodiscard]] std::size_t valuevector_size() const { return rows_.size(); }

  /// GC observables (zero / bottom while gc_enabled is false).
  [[nodiscard]] const Tag& gc_floor() const { return gc_floor_; }
  [[nodiscard]] std::uint64_t entries_pruned() const { return pruned_; }
  /// The highest confirmed watermark reader slot `i` (the group's i-th
  /// reader) has carried on its requests.
  [[nodiscard]] const Tag& slot_watermark(int i) const {
    return watermark_[static_cast<std::size_t>(i)];
  }

  /// Batched delivery: one virtual dispatch per span, then a non-virtual
  /// per-frame loop through the request switch.
  void on_deliver_batch(FrameSpan frames) final {
    for (const Frame& f : frames) handle_request(f);
  }

 protected:
  void handle_request(const Frame& req) final {
    switch (req.type) {
      case kFrQueryReq: {
        ByteWriter& w = out();
        w.put_tag(vali_.tag);
        reply(req, kFrQueryAck, w.bytes());
        break;
      }
      case kFrWriteReq: {
        const TaggedValue v = decode_value(req.payload);
        update(v, req.src);
        reply(req, kFrWriteAck);
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
        ByteWriter& w = out();
        w.put_varint(rows_.size());
        for (std::size_t i = 0; i < rows_.size(); ++i) rows_.put(w, i);
        reply(req, kFrReadAck, w.bytes());
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
  /// The row for `tag`, inserted in tag order (rev 0) when absent. A
  /// write's fresh tag is usually the largest, so it appends at the back.
  std::size_t entry_for(const Tag& tag) {
    std::size_t i = rows_.size();
    if (i > 0 && !(rows_.value(i - 1).tag < tag)) {
      i = rows_.lower_bound(tag);
      if (rows_.value(i).tag == tag) return i;
    }
    rows_.insert(i, TaggedValue{tag, 0});
    revs_.insert(revs_.begin() + static_cast<std::ptrdiff_t>(i), 0);
    return i;
  }

  /// Algorithm 2's update(val, c).
  void update(const TaggedValue& val, NodeId c) {
    const std::size_t i = entry_for(val.tag);
    bool changed = revs_[i] == 0;  // freshly created (GC keeps revs >= 1)
    TaggedValue& v = rows_.value(i);
    if (v.payload != val.payload) {
      v.payload = val.payload;
      changed = true;
    }
    changed |= rows_.set(i, c);
    if (changed) revs_[i] = ++rev_seq_;
    if (val.tag > vali_.tag) vali_ = val;
  }

  /// Confirm the reader on every value it is about to receive (see the
  /// header comment: required by Lemmas 5 and 8).
  void confirm_all(NodeId reader) {
    if (!opts_.confirm_reported) return;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (rows_.set(i, reader)) revs_[i] = ++rev_seq_;
    }
  }

  /// The incremental read (Algorithm 2 + GC): record the reader's confirmed
  /// watermark, re-admit its watermark value, confirm it on every entry,
  /// advance the GC floor, then reply with only the entries newer than the
  /// revision the reader acknowledged.
  void handle_delta_read(const Frame& req) {
    // Readers order the ack array by server index within the group, so a
    // re-based group (multi-key shards) must subtract its base; the classic
    // layout has server_base == 0 and is unchanged.
    const std::size_t self = static_cast<std::size_t>(id() - cfg().server_base);
    std::uint64_t acked = 0;
    ByteReader r(req.payload);
    const bool ok = decode_delta_read_req_for(r, req_queue_, self, acked);
    assert(ok && "malformed kFrReadDeltaReq");
    if (!ok) {
      // Never reached in the simulator (payloads are self-produced), but
      // dropping the request would deadlock the reader's round: discard
      // the garbled queue and answer as if nothing were acked (the decoder
      // leaves acked at 0), which resends the full state — always safe.
      req_queue_.clear();
    }
    for (const TaggedValue& v : req_queue_) update(v, req.src);
    confirm_all(req.src);
    note_watermark(req.src);

    FrDeltaHeader h;
    h.revision = rev_seq_;
    h.gc_floor = gc_floor_;
    for (const std::uint64_t rev : revs_) h.count += rev > acked;
    ByteWriter& w = out();
    put_delta_ack_header(w, h);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (revs_[i] > acked) rows_.put(w, i);
    }
    reply(req, kFrReadAckDelta, w.bytes());
  }

  /// Record the confirmed watermark a reader carried in `req_queue_`,
  /// advance the GC floor and prune below it. No-op unless GC is enabled
  /// and `src` is a reader.
  ///
  /// The floor is the minimum watermark over the reader slots (DESIGN.md
  /// section 6.2). Watermarks only rise, so only a slot at the minimum can
  /// raise it, and only once every slot at the minimum has moved: the
  /// count of slots holding it says when to rescan (O(R)); every other
  /// read costs O(1).
  void note_watermark(NodeId src) {
    if (!opts_.gc_enabled || !cfg().is_reader(src)) return;
    Tag& wm = watermark_[static_cast<std::size_t>(src - cfg().first_reader())];
    const Tag old = wm;
    for (const TaggedValue& v : req_queue_) wm = std::max(wm, v.tag);
    if (old < wm && old == gc_floor_ && --at_floor_ == 0) {
      gc_floor_ = *std::min_element(watermark_.begin(), watermark_.end());
      at_floor_ = static_cast<int>(
          std::count(watermark_.begin(), watermark_.end(), gc_floor_));
    }
    collect_garbage();
  }

  /// Prune entries strictly below the GC floor. Safety (DESIGN.md section
  /// 6.2): no reader can ever again return a tag below its own watermark
  /// (Lemma 3 lower-bounds every read by the max of the valQueue it sent),
  /// so nothing below the minimum is returnable by anyone and Lemmas 5/8
  /// hold vacuously for pruned tags.
  void collect_garbage() {
    // Prune below the floor even when it did not just advance: a full-ack
    // reader re-admits its whole valQueue via update(), and those stale
    // sub-floor entries must not survive into the reply built next. (In a
    // pure delta cluster requests only carry watermarks >= the floor, so
    // the front row stops the scan.) The watermark carrier's value was just
    // re-admitted, so the valuevector keeps at least the floor entry and
    // vali_ survives.
    assert(gc_floor_ <= vali_.tag);
    const std::size_t n = rows_.erase_below(gc_floor_);
    revs_.erase(revs_.begin(), revs_.begin() + static_cast<std::ptrdiff_t>(n));
    pruned_ += n;
  }

  Options opts_;
  TaggedValue vali_{};
  /// The valuevector, sorted by tag (unique).
  FrRows rows_;
  /// Per row: last server revision at which it changed (payload set,
  /// updated set grew, or row created). Only meaningful under GC.
  std::vector<std::uint64_t> revs_;
  std::uint64_t rev_seq_ = 0;
  /// Highest confirmed watermark carried on each reader's requests,
  /// indexed by reader slot (reader id - first_reader()).
  std::vector<Tag> watermark_;
  /// The minimum over watermark_ (floors only advance), and how many
  /// slots hold it.
  Tag gc_floor_{};
  int at_floor_ = 0;
  std::uint64_t pruned_ = 0;
  /// Request decode scratch, reused across reads.
  std::vector<TaggedValue> req_queue_;
};

}  // namespace mwreg
