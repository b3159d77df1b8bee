//===- ir/StableHash.cpp --------------------------------------------------===//

#include "ir/StableHash.h"

#include "sexpr/Printer.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_map>

using namespace s1lisp;
using namespace s1lisp::ir;

uint64_t ir::hashCombine(uint64_t Seed, uint64_t V) {
  // splitmix64 finalizer over the xored accumulation; good diffusion and
  // byte-order independent.
  uint64_t X = Seed ^ (V + 0x9e3779b97f4a7c15ull + (Seed << 6) + (Seed >> 2));
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

uint64_t ir::hashString(uint64_t Seed, std::string_view S) {
  uint64_t H = hashCombine(Seed, S.size());
  for (char C : S)
    H = hashCombine(H, static_cast<uint8_t>(C));
  return H;
}

uint64_t ir::stableDatumHash(uint64_t Seed, sexpr::Value V) {
  // Eight bytes per mixing step: symbol names and strings dominate a
  // defun's datum, and this hash stands in for converting it.
  auto Chars = [](uint64_t H, std::string_view S) {
    H = hashCombine(H, S.size());
    for (size_t I = 0; I < S.size(); I += 8) {
      uint64_t W = 0;
      for (size_t J = I; J < S.size() && J < I + 8; ++J)
        W = (W << 8) | static_cast<uint8_t>(S[J]);
      H = hashCombine(H, W);
    }
    return H;
  };
  uint64_t H = Seed;
  for (;;) {
    H = hashCombine(H, static_cast<uint64_t>(V.kind()));
    switch (V.kind()) {
    case sexpr::ValueKind::Nil:
      return H;
    case sexpr::ValueKind::Symbol:
      return Chars(H, V.symbol()->name());
    case sexpr::ValueKind::Fixnum:
      return hashCombine(H, static_cast<uint64_t>(V.fixnum()));
    case sexpr::ValueKind::Flonum: {
      uint64_t Bits;
      double D = V.flonum();
      std::memcpy(&Bits, &D, sizeof(Bits));
      return hashCombine(H, Bits);
    }
    case sexpr::ValueKind::Ratio:
      H = hashCombine(H, static_cast<uint64_t>(V.ratio().Num));
      return hashCombine(H, static_cast<uint64_t>(V.ratio().Den));
    case sexpr::ValueKind::String:
      return Chars(H, V.stringValue());
    case sexpr::ValueKind::Cons:
      // Recurse into the car, iterate down the cdr: long lists stay flat.
      H = stableDatumHash(H, V.car());
      V = V.cdr();
      continue;
    }
    return H;
  }
}

namespace {

class Hasher {
public:
  uint64_t run(const LambdaNode *Root) {
    uint64_t H = 0x517cc1b727220a95ull;
    return hashNode(H, Root);
  }

private:
  /// Normalized ids in traversal order: binders number their parameters
  /// before the body, so consistently renamed locals normalize alike.
  /// Free variables are numbered at first reference (and their names are
  /// hashed separately — renaming a global IS a semantic change).
  std::unordered_map<const Variable *, uint64_t> VarId;
  std::unordered_map<const Node *, uint64_t> NodeId;
  uint64_t NextVar = 0;
  uint64_t NextNode = 0;

  uint64_t varRef(uint64_t H, const Variable *V) {
    auto [It, Fresh] = VarId.try_emplace(V, NextVar);
    if (Fresh)
      ++NextVar;
    H = hashCombine(H, It->second);
    H = hashCombine(H, V->isSpecial() ? 1 : 0);
    // Dynamic scoping and global references bind by symbol name.
    if (V->isSpecial() || !V->Binder)
      H = hashString(H, V->name()->name());
    return H;
  }

  uint64_t nodeId(const Node *N) {
    auto [It, Fresh] = NodeId.try_emplace(N, NextNode);
    if (Fresh)
      ++NextNode;
    return It->second;
  }

  uint64_t hashNode(uint64_t H, const Node *N) {
    if (!N)
      return hashCombine(H, 0xdeadull);
    H = hashCombine(H, nodeId(N));
    H = hashCombine(H, static_cast<uint64_t>(N->kind()));
    switch (N->kind()) {
    case NodeKind::Literal:
      return hashString(H, sexpr::toString(cast<LiteralNode>(N)->Datum));
    case NodeKind::VarRef:
      return varRef(H, cast<VarRefNode>(N)->Var);
    case NodeKind::Setq: {
      const auto *S = cast<SetqNode>(N);
      H = varRef(H, S->Var);
      return hashNode(H, S->ValueExpr);
    }
    case NodeKind::If: {
      const auto *I = cast<IfNode>(N);
      H = hashNode(H, I->Test);
      H = hashNode(H, I->Then);
      return hashNode(H, I->Else);
    }
    case NodeKind::Progn: {
      const auto *P = cast<PrognNode>(N);
      H = hashCombine(H, P->Forms.size());
      for (const Node *F : P->Forms)
        H = hashNode(H, F);
      return H;
    }
    case NodeKind::Lambda: {
      const auto *L = cast<LambdaNode>(N);
      H = hashCombine(H, L->Required.size());
      for (const Variable *V : L->Required)
        H = varRef(H, V);
      H = hashCombine(H, L->Optionals.size());
      for (const LambdaNode::OptionalParam &O : L->Optionals) {
        H = varRef(H, O.Var);
        H = hashNode(H, O.Default);
      }
      H = hashCombine(H, L->Rest ? 1 : 0);
      if (L->Rest)
        H = varRef(H, L->Rest);
      return hashNode(H, L->Body);
    }
    case NodeKind::Call: {
      const auto *C = cast<CallNode>(N);
      if (C->Name)
        H = hashString(hashCombine(H, 1), C->Name->name());
      else
        H = hashNode(hashCombine(H, 2), C->CalleeExpr);
      H = hashCombine(H, C->Args.size());
      for (const Node *A : C->Args)
        H = hashNode(H, A);
      return H;
    }
    case NodeKind::Caseq: {
      const auto *C = cast<CaseqNode>(N);
      H = hashNode(H, C->Key);
      H = hashCombine(H, C->Clauses.size());
      for (const CaseqNode::Clause &Cl : C->Clauses) {
        H = hashCombine(H, Cl.Keys.size());
        for (sexpr::Value K : Cl.Keys)
          H = hashString(H, sexpr::toString(K));
        H = hashNode(H, Cl.Body);
      }
      return hashNode(H, C->Default);
    }
    case NodeKind::Catcher: {
      const auto *C = cast<CatcherNode>(N);
      H = hashNode(H, C->TagExpr);
      return hashNode(H, C->Body);
    }
    case NodeKind::ProgBody: {
      const auto *P = cast<ProgBodyNode>(N);
      H = hashCombine(H, P->Items.size());
      for (const ProgBodyNode::Item &I : P->Items) {
        if (I.Tag) {
          // Tags normalize by position, so renamed tags hash alike; Go
          // sites hash the positional index they jump to.
          H = hashCombine(H, 0x7a6ull);
        } else {
          H = hashNode(hashCombine(H, 0x57ull), I.Stmt);
        }
      }
      return H;
    }
    case NodeKind::Go: {
      const auto *G = cast<GoNode>(N);
      // Targets are enclosing progbodys, already numbered by the preorder
      // walk; the tag's index within the target pins the jump position.
      H = hashCombine(H, nodeId(G->Target));
      uint64_t TagIdx = ~0ull;
      if (G->Target)
        for (size_t I = 0; I < G->Target->Items.size(); ++I)
          if (G->Target->Items[I].Tag == G->Tag) {
            TagIdx = I;
            break;
          }
      return hashCombine(H, TagIdx);
    }
    case NodeKind::Return: {
      const auto *R = cast<ReturnNode>(N);
      H = hashCombine(H, nodeId(R->Target));
      return hashNode(H, R->ValueExpr);
    }
    }
    return H;
  }
};

} // namespace

uint64_t ir::stableFunctionHash(const Function &F) {
  Hasher H;
  return H.run(F.Root);
}

std::vector<std::string> ir::referencedGlobalNames(const Function &F) {
  std::set<std::string> Names;
  forEachNode(static_cast<const Node *>(F.Root),
              [&](const Node *N) {
                if (const auto *C = dyn_cast<CallNode>(N)) {
                  if (C->Name)
                    Names.insert(C->Name->name());
                } else if (const auto *L = dyn_cast<LiteralNode>(N)) {
                  if (L->Datum.isSymbol())
                    Names.insert(L->Datum.symbol()->name());
                }
              });
  // The machine-trig rewrite can introduce these call names after the
  // hash is taken; pin their resolution into every signature.
  Names.insert("sinc$f");
  Names.insert("cosc$f");
  return {Names.begin(), Names.end()};
}
