//===- opt/ConstantFolding.cpp --------------------------------------------===//

#include "opt/ConstantFolding.h"

#include "ir/Module.h"
#include "ir/Semantics.h"

#include <optional>

using namespace spf;
using namespace spf::opt;
using namespace spf::ir;

/// Folds integer arithmetic through the shared Java semantics; a zero
/// divisor is left for the runtime to trap on.
static std::optional<uint64_t> foldBinary(const BinaryInst *B, uint64_t L,
                                          uint64_t R) {
  Type OpTy = B->lhs()->type();
  if (OpTy == Type::F64 || OpTy == Type::Ref)
    return std::nullopt; // Keep it simple: fold integers only.
  return sem::evalBinary(B->binOp(), OpTy, L, R);
}

unsigned opt::foldConstants(Method *M) {
  Module *Mod = M->parent();
  unsigned Folded = 0;
  bool Changed = true;

  while (Changed) {
    Changed = false;
    // Map from folded instruction to its replacement constant.
    std::vector<std::pair<Instruction *, Constant *>> Replacements;

    for (const auto &BB : M->blocks()) {
      for (const auto &IP : BB->instructions()) {
        auto *B = dyn_cast<BinaryInst>(IP.get());
        if (!B)
          continue;
        auto *L = dyn_cast<Constant>(B->lhs());
        auto *R = dyn_cast<Constant>(B->rhs());
        if (!L || !R)
          continue;
        auto V = foldBinary(B, L->raw(), R->raw());
        if (!V)
          continue;
        Replacements.emplace_back(
            B, Mod->intConst(B->type(), static_cast<int64_t>(*V)));
      }
    }

    if (Replacements.empty())
      break;

    for (auto &[Dead, Repl] : Replacements) {
      for (const auto &BB : M->blocks())
        for (const auto &IP : BB->instructions())
          for (unsigned I = 0, E = IP->numOperands(); I != E; ++I)
            if (IP->operand(I) == Dead)
              IP->setOperand(I, Repl);
      Dead->parent()->erase(Dead);
      ++Folded;
      Changed = true;
    }
  }
  return Folded;
}
