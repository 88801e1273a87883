//===- ir/Decode.cpp ------------------------------------------------------===//

#include "ir/Decode.h"

#include "ir/Semantics.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace spf;
using namespace spf::ir;

const char *const ir::TrapMsgs[] = {
    "invalid f64 binary op",
    "call to unresolved method",
    "fell off the end of a block without a terminator",
    "phi has no incoming value for predecessor",
};

namespace {

OpKind binaryKind(BinaryInst::BinOp Op, sem::Width W) {
  using BinOp = BinaryInst::BinOp;
  switch (W) {
  case sem::Width::I32:
    switch (Op) {
#define SPF_KIND(N)                                                            \
  case BinOp::N: return OpKind::N##I32;
      SPF_INT_PURE_BINOPS(SPF_KIND)
#undef SPF_KIND
    case BinOp::Div: return OpKind::DivI32;
    case BinOp::Rem: return OpKind::RemI32;
    }
    break;
  case sem::Width::I64:
    switch (Op) {
#define SPF_KIND(N)                                                            \
  case BinOp::N: return OpKind::N##I64;
      SPF_INT_PURE_BINOPS(SPF_KIND)
#undef SPF_KIND
    case BinOp::Div: return OpKind::DivI64;
    case BinOp::Rem: return OpKind::RemI64;
    }
    break;
  case sem::Width::F64:
    switch (Op) {
#define SPF_KIND(N)                                                            \
  case BinOp::N: return OpKind::N##F64;
      SPF_F64_BINOPS(SPF_KIND)
#undef SPF_KIND
    default:
      break;
    }
    break;
  }
  spf_unreachable("binary op without a decoded kind");
}

/// Orders the parallel moves \p Pending (distinct destinations) into
/// sequential copies appended to \p Out, breaking cycles through \p Temp.
/// Consumes \p Pending.
void sequentializeMoves(std::vector<std::pair<uint32_t, uint32_t>> &Pending,
                        uint32_t Temp,
                        std::vector<std::pair<uint32_t, uint32_t>> &Out) {
  std::erase_if(Pending, [](const auto &Mv) { return Mv.first == Mv.second; });
  auto IsRead = [&](uint32_t Slot) {
    return std::any_of(Pending.begin(), Pending.end(),
                       [&](const auto &Mv) { return Mv.second == Slot; });
  };
  while (!Pending.empty()) {
    bool Progress = false;
    for (size_t I = 0; I < Pending.size();) {
      if (IsRead(Pending[I].first)) {
        ++I;
        continue;
      }
      Out.push_back(Pending[I]);
      Pending.erase(Pending.begin() + static_cast<ptrdiff_t>(I));
      Progress = true;
    }
    if (Progress)
      continue;
    // Only cycles remain: park one destination's old value in Temp and
    // let its readers take it from there.
    uint32_t Slot = Pending.front().first;
    Out.emplace_back(Temp, Slot);
    for (auto &Mv : Pending)
      if (Mv.second == Slot)
        Mv.second = Temp;
  }
}

} // namespace

std::unique_ptr<DecodedMethod> ir::decode(Method *M) {
  auto D = std::make_unique<DecodedMethod>();
  D->M = M;
  M->renumber();

  uint32_t NumValues = M->numArgs();
  for (const auto &Arg : M->arguments())
    if (Arg->type() == Type::Ref)
      D->RefSlots.push_back(Arg->id());
  for (const auto &BB : M->blocks())
    for (const auto &I : BB->instructions()) {
      ++NumValues;
      if (I->type() == Type::Ref)
        D->RefSlots.push_back(I->id());
    }
  D->NumValues = NumValues;
  const uint32_t Temp = NumValues;

  std::unordered_map<uint64_t, uint32_t> ConstSlot;
  auto ConstSlotOf = [&](uint64_t Raw) {
    auto [It, New] = ConstSlot.try_emplace(
        Raw, Temp + 1 + static_cast<uint32_t>(D->Consts.size()));
    if (New)
      D->Consts.push_back(Raw);
    return It->second;
  };
  auto SlotOf = [&](const Value *V) -> uint32_t {
    if (const auto *C = dyn_cast<Constant>(V))
      return ConstSlotOf(C->raw());
    return V->id(); // Arguments and instructions share the id space.
  };

  // Op index of each block's first op. A block contributes its non-phi
  // instructions up to the first terminator (nothing after it can run),
  // or a fall-off trap when it has none. One trailing op catches edges
  // whose phis lack an input for their predecessor.
  std::unordered_map<const BasicBlock *, uint32_t> BlockPC;
  BlockPC.reserve(M->numBlocks());
  uint32_t PC = 0;
  for (const auto &BB : M->blocks()) {
    BlockPC[BB.get()] = PC;
    bool Terminated = false;
    for (const auto &I : BB->instructions()) {
      if (isa<PhiInst>(I.get()))
        continue;
      ++PC;
      if (I->isTerminator()) {
        Terminated = true;
        break;
      }
    }
    if (!Terminated)
      ++PC;
  }
  const uint32_t MissingPhiPC = PC;
  D->Ops.reserve(MissingPhiPC + 1);

  std::vector<std::pair<uint32_t, uint32_t>> Parallel;
  auto AddEdge = [&](const BasicBlock *From, const BasicBlock *To) {
    DecodedMethod::Edge E;
    auto It = BlockPC.find(To);
    assert(It != BlockPC.end() && "branch to a block of another method");
    E.Target = It->second;
    Parallel.clear();
    for (const auto &IP : To->instructions()) {
      const auto *Phi = dyn_cast<PhiInst>(IP.get());
      if (!Phi)
        break;
      const Value *In = Phi->valueFor(From);
      if (!In) {
        E.Target = MissingPhiPC;
        Parallel.clear();
        break;
      }
      Parallel.emplace_back(Phi->id(), SlotOf(In));
    }
    E.MovesBegin = static_cast<uint32_t>(D->Moves.size());
    sequentializeMoves(Parallel, Temp, D->Moves);
    E.MovesEnd = static_cast<uint32_t>(D->Moves.size());
    D->Edges.push_back(E);
    return static_cast<uint32_t>(D->Edges.size() - 1);
  };

  auto TrapOp = [](OpKind K, TrapMsg Msg) {
    Op O;
    O.K = K;
    O.Imm = Msg;
    return O;
  };

  for (const auto &BB : M->blocks()) {
    bool Terminated = false;
    for (const auto &IP : BB->instructions()) {
      Instruction *I = IP.get();
      if (isa<PhiInst>(I))
        continue;
      Op O;
      O.I = I;
      switch (I->opcode()) {
      case Opcode::Binary: {
        auto *B = cast<BinaryInst>(I);
        sem::Width W = sem::widthOf(B->lhs()->type());
        if (!sem::isDefined(B->binOp(), W)) {
          O = TrapOp(OpKind::TrapInst, InvalidF64);
          break;
        }
        O.K = binaryKind(B->binOp(), W);
        O.Dst = I->id();
        O.A = SlotOf(B->lhs());
        O.B = SlotOf(B->rhs());
        break;
      }
      case Opcode::Conv: {
        auto *C = cast<ConvInst>(I);
        switch (C->convOp()) {
        case ConvInst::ConvOp::SExt32To64: O.K = OpKind::SExt; break;
        case ConvInst::ConvOp::Trunc64To32: O.K = OpKind::Trunc; break;
        case ConvInst::ConvOp::IToF: O.K = OpKind::IToF; break;
        case ConvInst::ConvOp::FToI: O.K = OpKind::FToI; break;
        }
        O.Dst = I->id();
        O.A = SlotOf(C->src());
        break;
      }
      case Opcode::GetField: {
        auto *G = cast<GetFieldInst>(I);
        O.K = G->type() == Type::I32 ? OpKind::GetField32 : OpKind::GetField64;
        O.Dst = I->id();
        O.A = SlotOf(G->object());
        O.Imm = G->field()->Offset;
        break;
      }
      case Opcode::PutField: {
        auto *P = cast<PutFieldInst>(I);
        O.K = P->field()->Ty == Type::I32 ? OpKind::PutField32
                                          : OpKind::PutField64;
        O.A = SlotOf(P->object());
        O.B = SlotOf(P->value());
        O.Imm = P->field()->Offset;
        break;
      }
      case Opcode::GetStatic: {
        auto *G = cast<GetStaticInst>(I);
        O.K = G->type() == Type::I32 ? OpKind::GetStatic32
                                     : OpKind::GetStatic64;
        O.Dst = I->id();
        O.Imm = static_cast<int64_t>(G->variable()->Address);
        break;
      }
      case Opcode::PutStatic: {
        auto *P = cast<PutStaticInst>(I);
        O.K = P->variable()->Ty == Type::I32 ? OpKind::PutStatic32
                                             : OpKind::PutStatic64;
        O.A = SlotOf(P->value());
        O.Imm = static_cast<int64_t>(P->variable()->Address);
        break;
      }
      case Opcode::ALoad: {
        auto *AL = cast<ALoadInst>(I);
        O.K = AL->type() == Type::I32 ? OpKind::ALoad32 : OpKind::ALoad64;
        O.Dst = I->id();
        O.A = SlotOf(AL->array());
        O.B = SlotOf(AL->index());
        O.Imm = storageSize(AL->type());
        break;
      }
      case Opcode::AStore: {
        auto *AS = cast<AStoreInst>(I);
        Type ElemTy = AS->value()->type();
        O.K = ElemTy == Type::I32 ? OpKind::AStore32 : OpKind::AStore64;
        O.A = SlotOf(AS->array());
        O.B = SlotOf(AS->index());
        O.C = SlotOf(AS->value());
        O.Imm = storageSize(ElemTy);
        break;
      }
      case Opcode::ArrayLength:
        O.K = OpKind::ArrayLength;
        O.Dst = I->id();
        O.A = SlotOf(cast<ArrayLengthInst>(I)->array());
        break;
      case Opcode::NewObject:
        O.K = OpKind::NewObject;
        O.Dst = I->id();
        break;
      case Opcode::NewArray:
        O.K = OpKind::NewArray;
        O.Dst = I->id();
        O.A = SlotOf(cast<NewArrayInst>(I)->length());
        break;
      case Opcode::Call: {
        auto *C = cast<CallInst>(I);
        if (!C->callee()) {
          O = TrapOp(OpKind::TrapInst, Unresolved);
          break;
        }
        O.K = OpKind::Call;
        O.Dst = I->type() != Type::Void ? I->id() : NoSlot;
        O.A = static_cast<uint32_t>(D->Calls.size());
        DecodedMethod::CallSite CS{C->callee(),
                                   static_cast<uint32_t>(D->ArgSlots.size()),
                                   C->numOperands()};
        for (Value *Arg : C->operands())
          D->ArgSlots.push_back(SlotOf(Arg));
        D->Calls.push_back(CS);
        break;
      }
      case Opcode::Phi:
        spf_unreachable("phis are lowered onto edges");
      case Opcode::Branch: {
        auto *B = cast<BranchInst>(I);
        O.K = OpKind::Branch;
        O.A = SlotOf(B->condition());
        O.B = AddEdge(BB.get(), B->trueSuccessor());
        O.C = AddEdge(BB.get(), B->falseSuccessor());
        break;
      }
      case Opcode::Jump:
        O.K = OpKind::Jump;
        O.B = AddEdge(BB.get(), cast<JumpInst>(I)->target());
        break;
      case Opcode::Ret: {
        auto *R = cast<RetInst>(I);
        O.K = OpKind::Ret;
        O.A = R->value() ? SlotOf(R->value()) : NoSlot;
        break;
      }
      case Opcode::Prefetch:
      case Opcode::SpecLoad: {
        auto *A = cast<AddressedInst>(I);
        if (const auto *P = dyn_cast<PrefetchInst>(A))
          O.K = P->isGuarded() ? OpKind::GuardedPrefetch : OpKind::Prefetch;
        else
          O.K = OpKind::SpecLoad;
        if (O.K == OpKind::SpecLoad)
          O.Dst = I->id();
        O.A = SlotOf(A->base());
        O.B = A->index() ? SlotOf(A->index()) : ConstSlotOf(0);
        O.C = A->index() ? A->scale() : 0;
        O.Imm = A->displacement();
        break;
      }
      }
      D->Ops.push_back(O);
      if (I->isTerminator()) {
        Terminated = true;
        break;
      }
    }
    if (!Terminated)
      D->Ops.push_back(TrapOp(OpKind::TrapEdge, FellOff));
  }
  assert(D->Ops.size() == MissingPhiPC && "block layout drifted");
  D->Ops.push_back(TrapOp(OpKind::TrapEdge, MissingPhiInput));
  D->NumSlots = Temp + 1 + static_cast<uint32_t>(D->Consts.size());
  return D;
}
