//===- ir/Semantics.cpp ---------------------------------------------------===//

#include "ir/Semantics.h"

#include "support/ErrorHandling.h"

using namespace spf;
using namespace spf::ir;
using namespace spf::ir::sem;

namespace {

template <Width W>
std::optional<uint64_t> evalAt(BinOp Op, uint64_t L, uint64_t R) {
  if (!isDefined(Op, W))
    return std::nullopt;
  if (canTrap(Op, W) && R == 0)
    return std::nullopt;
  switch (Op) {
#define SPF_SEM_CASE(NAME)                                                     \
  case BinOp::NAME:                                                            \
    if constexpr (isDefined(BinOp::NAME, W))                                   \
      return binary<BinOp::NAME, W>(L, R);                                     \
    break;
    SPF_SEM_CASE(Add)
    SPF_SEM_CASE(Sub)
    SPF_SEM_CASE(Mul)
    SPF_SEM_CASE(Div)
    SPF_SEM_CASE(Rem)
    SPF_SEM_CASE(And)
    SPF_SEM_CASE(Or)
    SPF_SEM_CASE(Xor)
    SPF_SEM_CASE(Shl)
    SPF_SEM_CASE(Shr)
    SPF_SEM_CASE(CmpEq)
    SPF_SEM_CASE(CmpNe)
    SPF_SEM_CASE(CmpLt)
    SPF_SEM_CASE(CmpLe)
    SPF_SEM_CASE(CmpGt)
    SPF_SEM_CASE(CmpGe)
#undef SPF_SEM_CASE
  }
  spf_unreachable("unknown binop");
}

} // namespace

std::optional<uint64_t> sem::evalBinary(BinOp Op, Type OpTy, uint64_t L,
                                        uint64_t R) {
  switch (widthOf(OpTy)) {
  case Width::I32: return evalAt<Width::I32>(Op, L, R);
  case Width::I64: return evalAt<Width::I64>(Op, L, R);
  case Width::F64: return evalAt<Width::F64>(Op, L, R);
  }
  spf_unreachable("unknown width");
}

uint64_t sem::evalConv(ConvOp Op, uint64_t S) {
  switch (Op) {
  case ConvOp::SExt32To64: return conv<ConvOp::SExt32To64>(S);
  case ConvOp::Trunc64To32: return conv<ConvOp::Trunc64To32>(S);
  case ConvOp::IToF: return conv<ConvOp::IToF>(S);
  case ConvOp::FToI: return conv<ConvOp::FToI>(S);
  }
  spf_unreachable("unknown conversion");
}
