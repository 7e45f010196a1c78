// Base class for register server replicas: routes each request to a
// handler and offers a reply helper that mirrors rpc_id back to the caller.
#pragma once

#include "common/cluster.h"
#include "sim/network.h"

namespace mwreg {

class ServerBase : public Process {
 public:
  ServerBase(NodeId id, Network& net, const ClusterConfig& cfg)
      : Process(id, net), cfg_(cfg) {}

  void on_message(const Frame& m) final { handle_request(m); }

 protected:
  const ClusterConfig& cfg() const { return cfg_; }

  virtual void handle_request(const Frame& req) = 0;

  /// Ack/reply to `req`, mirroring its rpc_id; replies carry key 0. The
  /// network copies `payload`, usually out(), before this returns.
  void reply(const Frame& req, MsgType type, ByteSpan payload = {}) {
    net().send_bytes(id(), req.src, type, /*key=*/0, req.rpc_id, payload);
  }

 private:
  ClusterConfig cfg_;
};

}  // namespace mwreg
