// A Protocol bundles the server factory, the client programs and the
// metadata of one register emulation (one cell of the paper's design space,
// Fig. 2). Clients are not objects: every protocol names the ClientTable
// state machines its writers and readers run (core/client_table.h).
#pragma once

#include <memory>
#include <string>

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

class Protocol {
 public:
  virtual ~Protocol() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Round-trips per write / read operation (the W#R# taxonomy).
  [[nodiscard]] virtual int write_round_trips() const = 0;
  [[nodiscard]] virtual int read_round_trips() const = 0;

  /// Whether the protocol guarantees atomicity on this cluster (e.g. MW-ABD
  /// needs t < S/2; the paper's W2R1 needs R < S/t - 2; the fast-write
  /// strawman never does — that is Theorem 1).
  [[nodiscard]] virtual bool guarantees_atomicity(
      const ClusterConfig& cfg) const = 0;

  /// The client programs the ClientTable runs for this protocol.
  [[nodiscard]] virtual TableWriterProgram table_writer() const = 0;
  [[nodiscard]] virtual TableReaderProgram table_reader() const = 0;

  [[nodiscard]] virtual std::unique_ptr<Process> make_server(
      NodeId id, Network& net, const ClusterConfig& cfg) const = 0;
};

}  // namespace mwreg
