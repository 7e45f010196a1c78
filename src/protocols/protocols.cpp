#include "protocols/protocols.h"

#include "protocols/fastread_server.h"
#include "protocols/quorum_server.h"

namespace mwreg {

// ---- MwAbd (W2R2) ----

std::unique_ptr<Process> MwAbdProtocol::make_server(
    NodeId id, Network& net, const ClusterConfig& cfg) const {
  return std::make_unique<QuorumServer>(id, net, cfg);
}

// ---- AbdSwmr (W1R2) ----

std::unique_ptr<Process> AbdSwmrProtocol::make_server(
    NodeId id, Network& net, const ClusterConfig& cfg) const {
  return std::make_unique<QuorumServer>(id, net, cfg);
}

// ---- NaiveFastWrite (W1R2 strawman) ----

std::unique_ptr<Process> NaiveFastWriteProtocol::make_server(
    NodeId id, Network& net, const ClusterConfig& cfg) const {
  return std::make_unique<QuorumServer>(id, net, cfg);
}

// ---- FastReadMw (W2R1, the paper's Algorithm 1 & 2; GC'd by default) ----

std::unique_ptr<Process> FastReadMwProtocol::make_server(
    NodeId id, Network& net, const ClusterConfig& cfg) const {
  FastReadServer::Options o;
  o.gc_enabled = true;
  return std::make_unique<FastReadServer>(id, net, cfg, o);
}

// ---- NoGcFastReadMw (W2R1 full-ack ablation, the O(ops^2) baseline) ----

std::unique_ptr<Process> NoGcFastReadMwProtocol::make_server(
    NodeId id, Network& net, const ClusterConfig& cfg) const {
  return std::make_unique<FastReadServer>(id, net, cfg);
}

// ---- LiteralFastReadMw (pseudocode-as-printed ablation) ----

std::unique_ptr<Process> LiteralFastReadMwProtocol::make_server(
    NodeId id, Network& net, const ClusterConfig& cfg) const {
  FastReadServer::Options o;
  o.confirm_reported = false;
  return std::make_unique<FastReadServer>(id, net, cfg, o);
}

// ---- RegularFastRead (W2R1, regular-only baseline) ----

std::unique_ptr<Process> RegularFastReadProtocol::make_server(
    NodeId id, Network& net, const ClusterConfig& cfg) const {
  return std::make_unique<QuorumServer>(id, net, cfg);
}

// ---- FastSwmr (W1R1) ----

std::unique_ptr<Process> FastSwmrProtocol::make_server(
    NodeId id, Network& net, const ClusterConfig& cfg) const {
  // GC + delta acks by default (PR 4's bounded-memory path): a single
  // writer still grows the valuevector with every write without it.
  FastReadServer::Options o;
  o.gc_enabled = true;
  return std::make_unique<FastReadServer>(id, net, cfg, o);
}

// ---- Registry ----

std::vector<const Protocol*> all_protocols() {
  static const MwAbdProtocol mw_abd;
  static const AbdSwmrProtocol abd_swmr;
  static const NaiveFastWriteProtocol naive;
  static const FastReadMwProtocol fast_read;
  static const NoGcFastReadMwProtocol fast_read_nogc;
  static const FastSwmrProtocol fast_swmr;
  static const RegularFastReadProtocol regular_fast;
  static const LiteralFastReadMwProtocol literal_fast_read;
  return {&mw_abd,    &abd_swmr,       &naive,
          &fast_read, &fast_read_nogc, &fast_swmr,
          &regular_fast, &literal_fast_read};
}

const Protocol* protocol_by_name(const std::string& name) {
  for (const Protocol* p : all_protocols()) {
    if (p->name() == name) return p;
  }
  return nullptr;
}

}  // namespace mwreg
