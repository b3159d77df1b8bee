//===- ir/StableHash.cpp --------------------------------------------------===//

#include "ir/StableHash.h"

#include "sexpr/Printer.h"

#include <algorithm>
#include <bit>
#include <cstring>

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

namespace {

/// The \p N (1 to 8) bytes at \p P as a big-endian number: the first byte
/// is the most significant, on every host.
uint64_t loadBigEndian(const char *P, size_t N) {
  uint64_t W = 0;
  std::memcpy(&W, P, N);
  if constexpr (std::endian::native == std::endian::little)
    W = __builtin_bswap64(W);
  return W >> (8 * (8 - N));
}

} // namespace

uint64_t ir::hashString(uint64_t Seed, std::string_view S) {
  // Eight bytes per mixing step, packed in a fixed order so the hash is
  // the same on every host: a front key hashes a defun's whole text.
  uint64_t H = hashCombine(Seed, S.size());
  for (size_t I = 0; I < S.size(); I += 8)
    H = hashCombine(H, loadBigEndian(S.data() + I,
                                     std::min<size_t>(8, S.size() - I)));
  return H;
}

namespace {

class Hasher {
public:
  explicit Hasher(const Function &F)
      : VarSeq(F.variables().size(), Unnumbered) {}

  uint64_t run(const LambdaNode *Root) {
    uint64_t H = 0x517cc1b727220a95ull;
    return hashNode(H, Root);
  }

private:
  static constexpr uint64_t Unnumbered = ~0ull;

  /// Normalized ids in traversal order, indexed by Variable::id(): binders
  /// number their parameters before the body, so consistently renamed
  /// locals normalize alike. Free variables are numbered at first
  /// reference (and their names are hashed separately — renaming a global
  /// IS a semantic change).
  std::vector<uint64_t> VarSeq;
  uint64_t NextVar = 0;
  /// Nodes are numbered in preorder. Only a progbody is named again (by a
  /// go or a return inside it), so only progbodies keep their numbers.
  uint64_t NextNode = 0;
  std::vector<std::pair<const Node *, uint64_t>> ProgBodyIds;

  uint64_t varRef(uint64_t H, const Variable *V) {
    if (V->id() >= VarSeq.size())
      VarSeq.resize(V->id() + 1, Unnumbered);
    uint64_t &Seq = VarSeq[V->id()];
    if (Seq == Unnumbered)
      Seq = NextVar++;
    H = hashCombine(H, Seq);
    H = hashCombine(H, V->isSpecial() ? 1 : 0);
    // Dynamic scoping and global references bind by symbol name.
    if (V->isSpecial() || !V->Binder)
      H = hashString(H, V->name()->name());
    return H;
  }

  /// The number of \p Target, an enclosing progbody; a target the walk
  /// has not entered (a malformed tree) is numbered now.
  uint64_t targetId(const Node *Target) {
    for (size_t I = ProgBodyIds.size(); I > 0; --I)
      if (ProgBodyIds[I - 1].first == Target)
        return ProgBodyIds[I - 1].second;
    ProgBodyIds.push_back({Target, NextNode});
    return NextNode++;
  }

  uint64_t hashNode(uint64_t H, const Node *N) {
    if (!N)
      return hashCombine(H, 0xdeadull);
    const uint64_t Id = NextNode++;
    if (N->kind() == NodeKind::ProgBody)
      ProgBodyIds.push_back({N, Id});
    H = hashCombine(H, Id);
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
      H = hashCombine(H, targetId(G->Target));
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
      H = hashCombine(H, targetId(R->Target));
      return hashNode(H, R->ValueExpr);
    }
    }
    return H;
  }
};

} // namespace

uint64_t ir::stableFunctionHash(const Function &F) {
  Hasher H(F);
  return H.run(F.Root);
}

std::vector<std::string> ir::referencedGlobalNames(const Function &F) {
  std::vector<const sexpr::Symbol *> Syms;
  forEachNode(static_cast<const Node *>(F.Root),
              [&](const Node *N) {
                if (const auto *C = dyn_cast<CallNode>(N)) {
                  if (C->Name)
                    Syms.push_back(C->Name);
                } else if (const auto *L = dyn_cast<LiteralNode>(N)) {
                  if (L->Datum.isSymbol())
                    Syms.push_back(L->Datum.symbol());
                }
              });
  // One symbol per name, so identity dedupes them before any string.
  std::sort(Syms.begin(), Syms.end());
  Syms.erase(std::unique(Syms.begin(), Syms.end()), Syms.end());
  std::vector<std::string_view> Names;
  Names.reserve(Syms.size() + 2);
  for (const sexpr::Symbol *S : Syms)
    Names.push_back(S->name());
  // The machine-trig rewrite can introduce these call names after the
  // hash is taken; pin their resolution into every signature.
  Names.push_back("sinc$f");
  Names.push_back("cosc$f");
  std::sort(Names.begin(), Names.end());
  Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
  return {Names.begin(), Names.end()};
}
