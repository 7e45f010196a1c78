#include "protocols/protocols.h"

#include "protocols/fastread_server.h"
#include "protocols/quorum_server.h"

namespace mwreg {

std::unique_ptr<Process> Protocol::make_server(NodeId id, Network& net,
                                               const ClusterConfig& cfg) const {
  if (!reader_key_affine(reader_)) {
    return std::make_unique<QuorumServer>(id, net, cfg);
  }
  // Fast readers. The server's GC mode is also its read-ack format (delta
  // acks against each reader's watermark, DESIGN.md section 6), so it
  // follows the reader program.
  FastReadServer::Options o;
  o.confirm_reported = confirm_reported_;
  o.gc_enabled = reader_ == TableReaderProgram::kFrDelta;
  return std::make_unique<FastReadServer>(id, net, cfg, o);
}

std::vector<const Protocol*> all_protocols() {
  using W = TableWriterProgram;
  using R = TableReaderProgram;
  using F = Feasibility;
  // Table 1, in registry order. The separate names make each ablation a
  // sweep axis: exp::cell_digest keys on the protocol name, so two rows
  // never share RNG streams.
  static const Protocol rows[] = {
      {"mw-abd(W2R2)", W::kAbdTwoRound, R::kAbdTwoRound, F::kMajority},
      {"abd-swmr(W1R2)", W::kAbdLocalTs, R::kAbdTwoRound,
       F::kMajorityOneWriter},
      // Theorem 1: no W1R2 implementation exists for W >= 2, R >= 2, t >= 1.
      {"naive-fast-write(W1R2)", W::kAbdLocalTs, R::kAbdTwoRound,
       F::kMajorityOneWriter},
      // The paper's Algorithm 1 & 2 with valuevector GC and delta read acks:
      // server memory and read-ack bytes stay O(active values). GC is
      // observationally invisible (tests/gc_safety_test.cpp pins it against
      // the no-GC row below).
      {"fast-read-mw(W2R1)", W::kFrQueryThenWrite, R::kFrDelta, F::kFastRead},
      // Full-ack ablation: valuevectors grow with every write, the O(ops^2)
      // baseline bench_valuevector measures GC against.
      {"fast-read-mw-nogc(W2R1)", W::kFrQueryThenWrite, R::kFrFull,
       F::kFastRead},
      // A single writer grows the valuevector too, so it runs GC'd as well.
      {"fast-swmr(W1R1)", W::kFrLocalTs, R::kFrDelta, F::kFastReadOneWriter},
      // Plain max-of-quorum reads: regular (no lost updates) but atomic for
      // no R -- the gap Algorithm 1 & 2 closes when R < S/t - 2.
      {"regular-fast-read(W2R1)", W::kAbdTwoRound, R::kAbdOneRoundMax,
       F::kNever},
      // Algorithm 2 exactly as printed: no reader confirmation on reported
      // values. bench_ablation_alg2_confirm shows it losing MWA2 under
      // reordering, which is why fast-read-mw deviates (DESIGN.md §5.1).
      {"fast-read-mw-literal(W2R1)", W::kFrQueryThenWrite, R::kFrFull,
       F::kNever, /*confirm_reported=*/false},
  };
  std::vector<const Protocol*> out;
  for (const Protocol& p : rows) out.push_back(&p);
  return out;
}

const Protocol* protocol_by_name(const std::string& name) {
  for (const Protocol* p : all_protocols()) {
    if (p->name() == name) return p;
  }
  return nullptr;
}

}  // namespace mwreg
