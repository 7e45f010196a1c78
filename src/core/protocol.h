// A Protocol is one row of the paper's Table 1 (one cell of the design
// space, Fig. 2): a name, the ClientTable state machines its writers and
// readers run (core/client_table.h), and the cluster condition under which
// it is atomic. Everything else follows from those: the round trips from
// the programs, the server replica from the reader program. The rows
// themselves are all_protocols() (protocols/protocols.h).
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "common/cluster.h"
#include "sim/network.h"

namespace mwreg {

/// Which table-driven writer state machine a protocol's writes run as
/// (core/client_table.h).
enum class TableWriterProgram {
  kAbdTwoRound,       ///< query max tag, then write (maxTS+1, wid)
  kAbdLocalTs,        ///< single-writer: one round with a local timestamp
  kFrQueryThenWrite,  ///< fast-read query (kFrQueryReq) then kFrWriteReq
  kFrLocalTs,         ///< single-writer kFrWriteReq with a local timestamp
};

/// Which table-driven reader state machine a protocol's reads run as.
enum class TableReaderProgram {
  kAbdTwoRound,     ///< query max value, then write-back
  kAbdOneRoundMax,  ///< max-of-quorum, no write-back (regular only)
  kFrFull,          ///< Algorithm 1 full-ack fast read
  kFrDelta,         ///< GC'd incremental (delta-ack) fast read
};

/// True for the fast-read reader programs, whose readers carry per-register
/// state (valQueues, server caches, watermarks) and serve exactly one key.
[[nodiscard]] inline bool reader_key_affine(TableReaderProgram p) {
  return p == TableReaderProgram::kFrFull || p == TableReaderProgram::kFrDelta;
}

/// Table 1's "atomic iff" column: the clusters on which a row guarantees
/// atomicity.
enum class Feasibility {
  kMajority,           ///< t < S/2 (LS97: majorities intersect)
  kMajorityOneWriter,  ///< W = 1 and t < S/2
  kFastRead,           ///< R < S/t - 2 (the paper's Section 5 bound)
  kFastReadOneWriter,  ///< W = 1 and R < S/t - 2
  kNever,              ///< no cluster: strawmen and ablations
};

class Protocol {
 public:
  /// A row names both programs and its feasibility, or it does not
  /// compile. `confirm_reported = false` runs the fast-read server exactly
  /// as the paper prints it (DESIGN.md §5.1): the one server difference no
  /// program implies.
  Protocol(std::string name, TableWriterProgram writer,
           TableReaderProgram reader, Feasibility atomic_iff,
           bool confirm_reported = true)
      : name_(std::move(name)),
        writer_(writer),
        reader_(reader),
        atomic_iff_(atomic_iff),
        confirm_reported_(confirm_reported) {}

  [[nodiscard]] std::string name() const { return name_; }

  /// Round-trips per write / read operation (the W#R# taxonomy): programs
  /// that query the servers before they write take two, the rest one.
  [[nodiscard]] int write_round_trips() const {
    const bool queries = writer_ == TableWriterProgram::kAbdTwoRound ||
                         writer_ == TableWriterProgram::kFrQueryThenWrite;
    return queries ? 2 : 1;
  }
  [[nodiscard]] int read_round_trips() const {
    return reader_ == TableReaderProgram::kAbdTwoRound ? 2 : 1;
  }

  /// Whether the protocol guarantees atomicity on this cluster (e.g. MW-ABD
  /// needs t < S/2; the paper's W2R1 needs R < S/t - 2; the fast-write
  /// strawman never does with W >= 2 — that is Theorem 1).
  [[nodiscard]] bool guarantees_atomicity(const ClusterConfig& cfg) const {
    switch (atomic_iff_) {
      case Feasibility::kMajority:
        return cfg.supports_w2r2();
      case Feasibility::kMajorityOneWriter:
        return cfg.w() == 1 && cfg.supports_w2r2();
      case Feasibility::kFastRead:
        return cfg.supports_fast_read();
      case Feasibility::kFastReadOneWriter:
        return cfg.w() == 1 && cfg.supports_fast_read();
      case Feasibility::kNever:
        return false;
    }
    return false;
  }

  /// The client programs the ClientTable runs for this protocol.
  [[nodiscard]] TableWriterProgram table_writer() const { return writer_; }
  [[nodiscard]] TableReaderProgram table_reader() const { return reader_; }

  /// The server replica the reader program talks to (protocols.cpp).
  [[nodiscard]] std::unique_ptr<Process> make_server(
      NodeId id, Network& net, const ClusterConfig& cfg) const;

 private:
  std::string name_;
  TableWriterProgram writer_;
  TableReaderProgram reader_;
  Feasibility atomic_iff_;
  bool confirm_reported_;
};

}  // namespace mwreg
