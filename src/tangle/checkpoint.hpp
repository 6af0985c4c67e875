// Ledger checkpointing: saves/restores a (Tangle, ModelStore) pair to a
// file, so long experiments (e.g. the 200-round pre-training phase of the
// attack studies) can be snapshotted and resumed. The format is the binary
// serialization of both structures behind a magic/version header.
//
// The one format is version 3. Besides the tangle and the store (flat or
// chunked, released entries hash-only) it persists the prune frontier and
// (optionally) the incremental cone-state vectors, so a pruned ledger
// resumes with exactly the cone values — historical-floor approximations
// included — the saving run had. Any other version throws SerializeError.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tangle/model_store.hpp"
#include "tangle/tangle.hpp"

namespace tanglefl::tangle {

/// Sidecar for the incremental cone state (see tangle/incremental_cones
/// .hpp and ViewCache::cone_state_snapshot()). Both vectors are either
/// empty or sized to the tangle.
struct ConeStateCheckpoint {
  std::vector<std::uint32_t> past;
  std::vector<std::uint32_t> future;
};

/// Writes the ledger (including its prune frontier) to `path`; `cones`,
/// when non-null, rides along so a pruned run can resume bit-identically.
/// Throws std::runtime_error on I/O failure.
void save_ledger(const std::string& path, const Tangle& tangle,
                 const ModelStore& store,
                 const ConeStateCheckpoint* cones = nullptr);

/// Reads a ledger back: returns the tangle (prune frontier restored) and
/// refills `store` (which must be empty — the payload ids in the dump are
/// dense from zero). Every transaction's payload id is validated against
/// the restored store and its recorded hash — a truncated or hand-edited
/// dump fails here instead of deep inside a simulation. When `cones` is
/// non-null it receives the saved cone-state sidecar (empty vectors when
/// the dump carried none). Throws SerializeError on malformed content,
/// std::runtime_error on I/O failure.
Tangle load_ledger(const std::string& path, ModelStore& store,
                   ConeStateCheckpoint* cones = nullptr);

}  // namespace tanglefl::tangle
