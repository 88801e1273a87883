//===- support/Env.cpp ----------------------------------------------------===//

#include "support/Env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace spf;
using namespace spf::support;

void support::envConfigError(const char *Var, const char *Value,
                             const std::string &Why) {
  std::fprintf(stderr, "spf: invalid %s=\"%s\": %s\n", Var,
               Value ? Value : "", Why.c_str());
  std::exit(ConfigErrorExit);
}

std::string support::parseDouble(const std::string &S, double &Out,
                                  double Min, bool MinExclusive,
                                  double Max) {
  const char *Begin = S.c_str();
  char *End = nullptr;
  double V = std::strtod(Begin, &End);
  if (End == Begin || *End != '\0')
    return "expected a number";
  if (!std::isfinite(V))
    return "expected a finite number";
  char Buf[64];
  if (V < Min || (MinExclusive && V == Min)) {
    std::snprintf(Buf, sizeof(Buf), "must be %s %g",
                  MinExclusive ? ">" : ">=", Min);
    return Buf;
  }
  if (V > Max) {
    std::snprintf(Buf, sizeof(Buf), "must be <= %g", Max);
    return Buf;
  }
  Out = V;
  return "";
}

std::string support::parseU64(const std::string &S, uint64_t &Out,
                              uint64_t Min, uint64_t Max) {
  const char *Begin = S.c_str();
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Begin, &End, 10);
  if (End == Begin || *End != '\0' || S.find('-') != std::string::npos)
    return "expected a non-negative integer";
  if (errno == ERANGE || V < Min || V > Max)
    return "expected an integer >= " + std::to_string(Min) +
           (Max == UINT64_MAX ? "" : " and <= " + std::to_string(Max));
  Out = V;
  return "";
}

double support::envDouble(const char *Var, double Default, double Min,
                          bool MinExclusive) {
  const char *S = std::getenv(Var);
  if (!S || !*S)
    return Default;
  double V = 0;
  std::string Why = parseDouble(S, V, Min, MinExclusive);
  if (!Why.empty())
    envConfigError(Var, S, Why);
  return V;
}

uint64_t support::envU64(const char *Var, uint64_t Default, uint64_t Min,
                         uint64_t Max) {
  const char *S = std::getenv(Var);
  if (!S || !*S)
    return Default;
  uint64_t V = 0;
  std::string Why = parseU64(S, V, Min, Max);
  if (!Why.empty())
    envConfigError(Var, S, Why);
  return V;
}

bool support::envFlagSet(const char *Var) {
  const char *S = std::getenv(Var);
  return S && *S;
}
