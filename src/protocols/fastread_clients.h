// The read decision of the paper's Algorithm 1 (Appendix A), shared by the
// ClientTable's fast-read programs (core/client_table.h).
//
// A fast read is ONE round-trip: the reader sends its valQueue, collects
// READACKs from S - t servers, and returns the largest value that is
// admissible(v, rcvMsg, a) for some a in [1, R+1]. The GC'd program speaks
// the incremental protocol instead (kFrReadDeltaReq / kFrReadAckDelta): it
// carries its confirmed watermark and per-server acked revisions,
// reconstructs each server's valuevector in an FrServerCache, and runs the
// same admissibility decision over the reconstructed views — observationally
// identical to the full-ack protocol while keeping bytes-on-wire O(active
// values) (DESIGN.md section 6).
#pragma once

#include <cstdint>
#include <vector>

#include "common/cluster.h"
#include "protocols/messages.h"

namespace mwreg {

/// Decide admissibility: exists mu subset of the READACKs such that every
/// message in mu contains v, |mu| >= S - a*t, and at least `a` clients are in
/// every chosen message's updated set for v. Equivalently: exists a set T of
/// `a` clients with T contained in at least S - a*t of v's updated sets.
/// Messages are non-owning views so hot paths can back them with reusable
/// arenas or caches. `bit_base` rebases client NodeIds into the 64-bit
/// witness masks (updated sets hold ids in [bit_base, bit_base + 64)); the
/// verdict is shift-invariant, so any base covering the group's clients
/// gives identical answers.
bool admissible(const TaggedValue& v, const std::vector<FrView>& msgs, int a,
                int num_servers, int max_faulty, NodeId bit_base = 0);

/// Convenience overload over owning nested vectors (tests, offline tools).
bool admissible(const TaggedValue& v,
                const std::vector<std::vector<FrEntry>>& msgs, int a,
                int num_servers, int max_faulty, NodeId bit_base = 0);

/// Client ids one witness mask can hold.
inline constexpr int kFrWitnessMaskBits = 64;

/// Whether every client of quorum group `kc` fits the witness masks at
/// bit_base = kc.first_client(), i.e. id_end() - first_client() <= 64. A
/// wider fast-read group would shift past the mask (undefined behaviour),
/// so ExperimentSpec::validate and SimHarness refuse it.
[[nodiscard]] inline bool fr_witness_masks_fit(const ClusterConfig& kc) {
  return kc.id_end() - kc.first_client() <= kFrWitnessMaskBits;
}

/// Reconstructed view of one server's valuevector (delta/gc mode): the
/// entries the server held at its last reply, sorted by tag, plus the reply
/// revision the reader acknowledges on its next request.
struct FrServerCache {
  std::uint64_t rev = 0;
  std::vector<FrEntry> entries;
};

/// Apply one kFrReadAckDelta payload to `cache`: drop entries below the
/// server's GC floor, upsert the streamed entries, and ack the revision only
/// when the whole delta decoded. `scratch` is a caller-owned reusable decode
/// buffer (its vectors keep their capacity across calls). Returns false on
/// malformed input.
bool fr_apply_delta(FrServerCache& cache, ByteSpan payload, FrEntry& scratch);

/// Largest candidate admissible at some degree a in [1, r+1] — the shared
/// decision of the full and delta read paths. `cands` must be sorted
/// ascending, unique. Returns bottom if nothing is admissible (unreachable
/// in a correct configuration).
TaggedValue fr_pick_admissible(const std::vector<TaggedValue>& cands,
                               const std::vector<FrView>& views, int r, int s,
                               int t, NodeId bit_base = 0);

}  // namespace mwreg
