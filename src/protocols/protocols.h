// The design-space protocols (Table 1 / Fig. 2), one Protocol row each:
//
//  mw-abd               W2R2  multi-writer ABD (LS97). Atomic iff t < S/2.
//  abd-swmr             W1R2  single-writer ABD'95. Atomic iff W == 1, t < S/2.
//  naive-fast-write     W1R2  abd-swmr's row run with W >= 2: the strawman
//                             Theorem 1 rules out, kept as the baseline
//                             whose violations the checker exhibits.
//  fast-read-mw         W2R1  the paper's Algorithm 1 & 2. Atomic iff
//                             R < S/t - 2.
//  fast-read-mw-nogc    W2R1  the same without valuevector GC (ablation).
//  fast-swmr            W1R1  single-writer fast protocol (Dutta et al.).
//                             Atomic iff W == 1 and R < S/t - 2.
//  regular-fast-read    W2R1  max-of-quorum reads: regular, never atomic.
//  fast-read-mw-literal W2R1  Algorithm 2 as printed (ablation).
#pragma once

#include <string>
#include <vector>

#include "core/protocol.h"

namespace mwreg {

/// All protocols in Table 1 order, for benches and examples that sweep the
/// design space.
std::vector<const Protocol*> all_protocols();

/// Lookup by the exact name() string; nullptr when unknown.
const Protocol* protocol_by_name(const std::string& name);

}  // namespace mwreg
