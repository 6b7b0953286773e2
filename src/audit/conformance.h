// Footprint conformance: does an operation's actual access set match its
// declared OpDesc?
//
// The explorer's sleep-set POR prunes interleavings using the declared
// footprint alone, so an op that touches an object it never declared
// (under-declaration) silently unsounds the reduction — schedules that
// could distinguish the hidden conflict are pruned as redundant.  The
// converse (declaring an object the op never touches) is harmless to
// soundness but wastes pruning and flags a declaration drifting away from
// the implementation, so it is reported too.
//
// A third rule keys off the commutation oracle's one special case: ops
// named "read" are assumed side-effect-free (read/read pairs on the same
// object commute), so an op declared "read" that *writes* its object is an
// under-declared conflict even though the object name matches.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "audit/ledger.h"
#include "runtime/trace.h"

namespace bss::audit {

/// What one granted window actually did, as reported by the tokens.
struct WindowFootprint {
  int pid = -1;
  std::uint64_t step = 0;   ///< global step of the grant (window serial)
  sim::OpDesc declared;     ///< the OpDesc the op synced with
  /// Every stamped access in program order (object, kind); may repeat.
  std::vector<std::pair<sim::ObjectName, AccessKind>> touched;
  bool aborted = false;     ///< op unwound with an exception mid-window
};

/// Diffs one window against its declaration.  Aborted windows are exempt
/// from the phantom rule only — an op that trapped before touching its
/// object is fine, but anything it DID touch must still have been declared.
/// Instrumentation-free windows (no touches at all, e.g. an emulated object
/// that performs no direct state access) are exempt entirely: an empty
/// ledger is "not instrumented", not "touched nothing".
std::vector<Violation> check_footprint(const WindowFootprint& window);

}  // namespace bss::audit
