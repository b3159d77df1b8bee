//===- tests/opt/FoldAgreementTest.cpp ------------------------------------===//
//
// META-COMPILE-TIME-EVAL applies the interpreter's own definition of each
// foldable primitive, so a fold must agree with the interpreter exactly.
// Every Foldable primitive is called at each legal arity up to three, on
// every combination of a fixed grid of literals; the folder either leaves
// the call alone or yields the interpreter's printed value for the
// program as written. Signed zeros are on the grid because they are where
// two definitions drift apart: (-$f 0.0) is -0.0, not 0.0.
//
//===----------------------------------------------------------------------===//

#include "opt/MetaEval.h"

#include "frontend/Convert.h"
#include "interp/Interp.h"
#include "ir/Primitives.h"
#include "sexpr/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace s1lisp;

namespace {

const char *const Grid[] = {"0",   "1", "-7",   "0.0",    "-0.0",    "0.5",
                            "1/3", "nil", "t", "'sym", "'(1 2)", "\"str\""};
constexpr size_t GridSize = std::size(Grid);

/// Every call of \p P at \p Arity over the grid, one defun each.
std::vector<std::string> callsOf(const ir::PrimInfo &P, int Arity) {
  std::vector<std::string> Calls;
  std::vector<size_t> Pick(Arity, 0);
  while (true) {
    std::string C = std::string("(") + P.Name;
    for (size_t I : Pick)
      C += std::string(" ") + Grid[I];
    Calls.push_back(C + ")");
    int J = Arity - 1;
    while (J >= 0 && ++Pick[J] == GridSize)
      Pick[J--] = 0;
    if (J < 0)
      return Calls;
  }
}

TEST(MetaEvalFold, FoldsToTheInterpretersValue) {
  opt::OptOptions FoldOnly;
  FoldOnly.Substitute = FoldOnly.IfDistribute = FoldOnly.AssocCommut =
      FoldOnly.IdentityElim = FoldOnly.RedundantTest = FoldOnly.MachineTrig =
          FoldOnly.DeadCode = false;

  unsigned Primitives = 0, Calls = 0, Folded = 0;
  for (unsigned Op = 0; Op <= static_cast<unsigned>(ir::Prim::Print); ++Op) {
    const ir::PrimInfo &P = ir::primInfo(static_cast<ir::Prim>(Op));
    if (!P.Foldable)
      continue;
    ++Primitives;
    unsigned FoldedHere = 0;
    const int MaxArity = P.MaxArgs < 0 ? std::max(P.MinArgs, 3) : P.MaxArgs;
    for (int Arity = P.MinArgs; Arity <= MaxArity; ++Arity) {
      std::vector<std::string> Exprs = callsOf(P, Arity);
      std::string Source;
      for (size_t I = 0; I < Exprs.size(); ++I)
        Source += "(defun c" + std::to_string(I) + " () " + Exprs[I] + ")\n";
      ir::Module M, AsWritten;
      DiagEngine Diags;
      ASSERT_TRUE(frontend::convertSource(M, Source, Diags)) << Diags.str();
      ASSERT_TRUE(frontend::convertSource(AsWritten, Source, Diags))
          << Diags.str();
      interp::Interpreter I(AsWritten);
      for (size_t K = 0; K < Exprs.size(); ++K) {
        ir::Function &F = *M.functions()[K];
        opt::metaEvaluate(F, FoldOnly);
        ++Calls;
        const auto *Lit = ir::dyn_cast<ir::LiteralNode>(F.Root->Body);
        if (!Lit)
          continue;
        ++FoldedHere;
        auto R = I.call(F.name(), {});
        EXPECT_TRUE(R.Ok && R.Value.str() == sexpr::toString(Lit->Datum))
            << Exprs[K] << " folds to " << sexpr::toString(Lit->Datum)
            << " but the interpreter answers "
            << (R.Ok ? R.Value.str() : "the error: " + R.Error);
      }
    }
    EXPECT_GT(FoldedHere, 0u) << P.Name << " never folds";
    Folded += FoldedHere;
  }
  EXPECT_GE(Primitives, 80u);
  EXPECT_GT(Folded, Calls / 20);
}

} // namespace
