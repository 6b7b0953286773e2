// BSS_FOOTPRINT — the machine-readable half of a register's OpDesc contract.
//
// Every register class stamps audit tokens (Ctx::access_token) and declares
// each operation to the scheduler via `ctx.sync({name, "op", …})`.  The POR
// sleep sets, the audit layer's footprint diff, and the commutation oracle
// all trust those declared op names, so the declaration and the
// implementation must never drift apart.  BSS_FOOTPRINT puts the declared
// op-name set next to the code that stamps it:
//
//   BSS_FOOTPRINT(SwmrRegister, read, write);
//
// The macro compiles to nothing; `tools/bss_lint` (rule `footprint-declared`)
// cross-checks, per file under src/registers/, the ops listed here against
// the op-name literals in the file's `ctx.sync({…})` calls.  A sync op with
// no BSS_FOOTPRINT entry, an entry with no sync op, a sync whose op is not
// a string literal, or a token-stamping file with no annotation at all is a
// lint error.
#pragma once

// Expands to a harmless declaration so the annotation can sit at class or
// namespace scope and still require its trailing semicolon.
#define BSS_FOOTPRINT(...) static_assert(true, "bss footprint annotation")
