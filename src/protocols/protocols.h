// The design-space protocols (Table 1 / Fig. 2).
//
//  MwAbdProtocol        W2R2  multi-writer ABD (LS97). Atomic iff t < S/2.
//  AbdSwmrProtocol      W1R2  single-writer ABD'95. Atomic iff W == 1, t < S/2.
//  NaiveFastWriteProto  W1R2  multi-writer strawman with one-round writes.
//                             NEVER atomic with W >= 2, R >= 2, t >= 1
//                             (Theorem 1); kept as the baseline whose
//                             violations the checker exhibits.
//  FastReadMwProtocol   W2R1  the paper's Algorithm 1 & 2. Atomic iff
//                             R < S/t - 2.
//  FastSwmrProtocol     W1R1  single-writer fast protocol (Dutta et al.).
//                             Atomic iff W == 1 and R < S/t - 2.
#pragma once

#include <memory>
#include <vector>

#include "core/protocol.h"

namespace mwreg {

class MwAbdProtocol final : public Protocol {
 public:
  std::string name() const override { return "mw-abd(W2R2)"; }
  int write_round_trips() const override { return 2; }
  int read_round_trips() const override { return 2; }
  bool guarantees_atomicity(const ClusterConfig& cfg) const override {
    return cfg.supports_w2r2();
  }
  TableWriterProgram table_writer() const override {
    return TableWriterProgram::kAbdTwoRound;
  }
  TableReaderProgram table_reader() const override {
    return TableReaderProgram::kAbdTwoRound;
  }
  std::unique_ptr<Process> make_server(
      NodeId id, Network& net, const ClusterConfig& cfg) const override;
};

class AbdSwmrProtocol final : public Protocol {
 public:
  std::string name() const override { return "abd-swmr(W1R2)"; }
  int write_round_trips() const override { return 1; }
  int read_round_trips() const override { return 2; }
  bool guarantees_atomicity(const ClusterConfig& cfg) const override {
    return cfg.w() == 1 && cfg.supports_w2r2();
  }
  TableWriterProgram table_writer() const override {
    return TableWriterProgram::kAbdLocalTs;
  }
  TableReaderProgram table_reader() const override {
    return TableReaderProgram::kAbdTwoRound;
  }
  std::unique_ptr<Process> make_server(
      NodeId id, Network& net, const ClusterConfig& cfg) const override;
};

class NaiveFastWriteProtocol final : public Protocol {
 public:
  std::string name() const override { return "naive-fast-write(W1R2)"; }
  int write_round_trips() const override { return 1; }
  int read_round_trips() const override { return 2; }
  bool guarantees_atomicity(const ClusterConfig& cfg) const override {
    // Theorem 1: no W1R2 implementation exists for W>=2, R>=2, t>=1.
    return cfg.w() == 1 && cfg.supports_w2r2();
  }
  TableWriterProgram table_writer() const override {
    return TableWriterProgram::kAbdLocalTs;
  }
  TableReaderProgram table_reader() const override {
    return TableReaderProgram::kAbdTwoRound;
  }
  std::unique_ptr<Process> make_server(
      NodeId id, Network& net, const ClusterConfig& cfg) const override;
};

/// The paper's Algorithm 1 & 2, running (since PR 7, like fast-swmr since
/// PR 5) with valuevector garbage collection and incremental (delta) read
/// acks: servers prune entries strictly below the minimum confirmed reader
/// watermark and send only entries newer than the revision the reader
/// acknowledged (DESIGN.md section 6). Server memory and read-ack bytes
/// stay O(active values) instead of O(all writes ever). GC is
/// observationally invisible — same message counts, same returned values,
/// same verdicts (tests/gc_safety_test.cpp pins this against the no-GC
/// ablation below) — so flipping the default changed no digest.
class FastReadMwProtocol final : public Protocol {
 public:
  std::string name() const override { return "fast-read-mw(W2R1)"; }
  int write_round_trips() const override { return 2; }
  int read_round_trips() const override { return 1; }
  bool guarantees_atomicity(const ClusterConfig& cfg) const override {
    return cfg.supports_fast_read();
  }
  TableWriterProgram table_writer() const override {
    return TableWriterProgram::kFrQueryThenWrite;
  }
  TableReaderProgram table_reader() const override {
    return TableReaderProgram::kFrDelta;
  }
  std::unique_ptr<Process> make_server(
      NodeId id, Network& net, const ClusterConfig& cfg) const override;
};

/// Algorithm 1 & 2 WITHOUT garbage collection: valuevectors grow with
/// every write and read acks replay the full vector — the O(ops^2)
/// baseline the GC'd default is measured against (bench_valuevector) and
/// the reference side of the gc_safety observational-identity pin. Kept
/// registered as an ablation; the separate registry name makes the GC
/// toggle a sweep axis: exp::cell_digest keys on the protocol name, so
/// GC-on and GC-off cells never share RNG streams.
class NoGcFastReadMwProtocol final : public Protocol {
 public:
  std::string name() const override { return "fast-read-mw-nogc(W2R1)"; }
  int write_round_trips() const override { return 2; }
  int read_round_trips() const override { return 1; }
  bool guarantees_atomicity(const ClusterConfig& cfg) const override {
    return cfg.supports_fast_read();
  }
  TableWriterProgram table_writer() const override {
    return TableWriterProgram::kFrQueryThenWrite;
  }
  TableReaderProgram table_reader() const override {
    return TableReaderProgram::kFrFull;
  }
  std::unique_ptr<Process> make_server(
      NodeId id, Network& net, const ClusterConfig& cfg) const override;
};

/// Algorithm 1 & 2 with the server EXACTLY as printed in the paper (no
/// reader confirmation on reported values). Kept for the ablation in
/// bench_ablation_alg2: under heavy message reordering this variant
/// violates MWA2 (a read returns an older tag than a completed write),
/// which is why the repo's main FastReadMwProtocol deviates (DESIGN.md #5.1).
class LiteralFastReadMwProtocol final : public Protocol {
 public:
  std::string name() const override { return "fast-read-mw-literal(W2R1)"; }
  int write_round_trips() const override { return 2; }
  int read_round_trips() const override { return 1; }
  bool guarantees_atomicity(const ClusterConfig&) const override {
    return false;  // the ablation shows why
  }
  // The ablation only changes the server; the clients are the stock
  // Algorithm 1 programs.
  TableWriterProgram table_writer() const override {
    return TableWriterProgram::kFrQueryThenWrite;
  }
  TableReaderProgram table_reader() const override {
    return TableReaderProgram::kFrFull;
  }
  std::unique_ptr<Process> make_server(
      NodeId id, Network& net, const ClusterConfig& cfg) const override;
};

/// W2R1 with a plain max-of-quorum read and no admissibility machinery: the
/// pragmatic baseline the paper's introduction attributes to quorum stores.
/// Regular (no lost updates) but NOT atomic for any R -- exactly the gap
/// Algorithm 1 & 2 closes when R < S/t - 2.
class RegularFastReadProtocol final : public Protocol {
 public:
  std::string name() const override { return "regular-fast-read(W2R1)"; }
  int write_round_trips() const override { return 2; }
  int read_round_trips() const override { return 1; }
  bool guarantees_atomicity(const ClusterConfig&) const override {
    return false;  // regular only
  }
  TableWriterProgram table_writer() const override {
    return TableWriterProgram::kAbdTwoRound;
  }
  TableReaderProgram table_reader() const override {
    return TableReaderProgram::kAbdOneRoundMax;
  }
  std::unique_ptr<Process> make_server(
      NodeId id, Network& net, const ClusterConfig& cfg) const override;
};

/// Since PR 5 the W1R1 protocol runs with valuevector GC and delta read
/// acks by default — the same bounded-memory path as fast-read-mw, which
/// a single writer benefits from just as much (the valuevector otherwise
/// grows with every write). Observational behavior (round-trips, verdicts)
/// is unchanged; message *contents* differ from the pre-PR-5 full-ack wire
/// format, which is why bench baselines were refreshed alongside.
class FastSwmrProtocol final : public Protocol {
 public:
  std::string name() const override { return "fast-swmr(W1R1)"; }
  int write_round_trips() const override { return 1; }
  int read_round_trips() const override { return 1; }
  bool guarantees_atomicity(const ClusterConfig& cfg) const override {
    return cfg.w() == 1 && cfg.supports_fast_read();
  }
  TableWriterProgram table_writer() const override {
    return TableWriterProgram::kFrLocalTs;
  }
  TableReaderProgram table_reader() const override {
    return TableReaderProgram::kFrDelta;
  }
  std::unique_ptr<Process> make_server(
      NodeId id, Network& net, const ClusterConfig& cfg) const override;
};

/// All protocols, for benches and examples that sweep the design space.
std::vector<const Protocol*> all_protocols();

/// Lookup by the exact name() string; nullptr when unknown.
const Protocol* protocol_by_name(const std::string& name);

}  // namespace mwreg
