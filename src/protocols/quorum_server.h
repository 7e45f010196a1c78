// Server replica for the ABD family: keeps the maximum tagged value.
#pragma once

#include "common/tag.h"
#include "core/server_base.h"
#include "protocols/messages.h"

namespace mwreg {

class QuorumServer final : public ServerBase {
 public:
  QuorumServer(NodeId id, Network& net, const ClusterConfig& cfg)
      : ServerBase(id, net, cfg) {}

  [[nodiscard]] const TaggedValue& stored() const { return value_; }

  /// Batched delivery: one virtual dispatch per span, then a non-virtual
  /// per-frame loop (the switch in handle_request is the whole handler).
  void on_deliver_batch(FrameSpan frames) final {
    for (const Frame& f : frames) handle_request(f);
  }

 protected:
  void handle_request(const Frame& req) final {
    switch (req.type) {
      case kAbdReadReq:
        reply(req, kAbdReadAck, encode_value(pool(), value_));
        break;
      case kAbdWriteReq: {
        const TaggedValue v = decode_value(req.payload);
        if (v.tag > value_.tag) value_ = v;
        reply(req, kAbdWriteAck, {});
        break;
      }
      default:
        break;  // not ours; a different protocol's message would be a bug
    }
  }

 private:
  TaggedValue value_{};  // starts at the bottom value
};

}  // namespace mwreg
