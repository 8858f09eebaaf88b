/// \file page_token.h
/// \brief Opaque page tokens for resumable query cursors.
///
/// A token seals five things: the **plan fingerprint** (predicate,
/// chosen index bounds, order, limit, walk bound — hashed from the
/// planner's canonical rendering), the collection's **incarnation** (a
/// random lineage id minted when the collection is first created and
/// carried across snapshots), the **version id** of the immutable
/// storage version the page executed against, the **walk bound** the
/// stream's first page was planned with (its `limit`, or `page_size +
/// 1` for a paged request without one), and the operator tree's
/// **checkpoint** (executor.h). `FindPage` re-plans on resume with the
/// sealed walk bound — not the resumed request's page size, so a
/// client may change page size mid-stream without changing the plan —
/// and rejects the token with `kInvalidArgument` unless the
/// fingerprint and incarnation match and the version is still
/// reachable — either the currently published version or one the
/// collection has retained for resumption. A resumed query therefore
/// never silently skips or duplicates documents: it continues against
/// the *exact* version it started on, or fails cleanly once that
/// version has been reclaimed. The byte string is opaque to clients
/// and sealed with a checksum: any truncation or byte flip is detected
/// and rejected rather than decoded into a wrong position.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/docvalue.h"

namespace dt::query {

/// Seals (fingerprint, incarnation, version_id, walk_bound, checkpoint)
/// into an opaque token.
std::string EncodePageToken(uint64_t fingerprint, uint64_t incarnation,
                            uint64_t version_id, int64_t walk_bound,
                            const storage::DocValue& checkpoint);

/// Opens a token produced by `EncodePageToken`. Returns
/// `kInvalidArgument` for malformed, truncated or tampered bytes; the
/// caller still has to verify fingerprint, incarnation and version
/// reachability against the query re-planned with `*walk_bound`.
Status DecodePageToken(std::string_view token, uint64_t* fingerprint,
                       uint64_t* incarnation, uint64_t* version_id,
                       int64_t* walk_bound, storage::DocValue* checkpoint);

}  // namespace dt::query
