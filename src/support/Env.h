//===- support/Env.h - Fail-fast environment configuration ------*- C++ -*-===//
///
/// \file
/// Strict parsing for the SPF_* environment knobs. A malformed value is a
/// configuration error, not a condition to paper over: silently falling
/// back to a default turns a typo ("SPF_CELL_TIMEOUT=3O") into an
/// experiment run under the wrong configuration. Every helper here either
/// returns a well-formed value or diagnoses the variable on stderr and
/// exits nonzero before any cell runs. The command-line twin of these
/// helpers is support/Flags.h; both share the value parsers below.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SUPPORT_ENV_H
#define SPF_SUPPORT_ENV_H

#include <cmath>
#include <cstdint>
#include <string>

namespace spf {
namespace support {

/// Exit code used for rejected environment/flag configuration.
inline constexpr int ConfigErrorExit = 2;

/// Diagnoses a rejected configuration value on stderr and exits with
/// ConfigErrorExit. \p Value may be null (variable unset).
[[noreturn]] void envConfigError(const char *Var, const char *Value,
                                 const std::string &Why);

/// Strict value parsers shared by environment knobs and flags: store the
/// value of \p S in \p Out and return "", or return why \p S was rejected
/// (malformed, trailing garbage, non-finite, or outside the range).
std::string parseDouble(const std::string &S, double &Out, double Min = 0.0,
                        bool MinExclusive = false, double Max = HUGE_VAL);
std::string parseU64(const std::string &S, uint64_t &Out, uint64_t Min = 0,
                     uint64_t Max = UINT64_MAX);

/// Finite double >= \p Min (> \p Min when \p MinExclusive) from \p Var;
/// \p Default when unset or empty. Anything else (trailing garbage, NaN,
/// out of range) fails fast.
double envDouble(const char *Var, double Default, double Min = 0.0,
                 bool MinExclusive = false);

/// Unsigned integer in [\p Min, \p Max] from \p Var; \p Default when
/// unset or empty.
uint64_t envU64(const char *Var, uint64_t Default, uint64_t Min = 0,
                uint64_t Max = UINT64_MAX);

/// True when \p Var is set to a non-empty value ("0" counts as set: the
/// knobs using this are presence switches, not booleans).
bool envFlagSet(const char *Var);

} // namespace support
} // namespace spf

#endif // SPF_SUPPORT_ENV_H
