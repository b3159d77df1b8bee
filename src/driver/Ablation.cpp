//===- driver/Ablation.cpp ------------------------------------------------===//

#include "driver/Ablation.h"

using namespace s1lisp;
using namespace s1lisp::driver;

namespace {

/// The single-pass ablations, each named by its matrix entry and its
/// s1lispc flag ("--" + name), with the one switch it turns off.
struct Ablation {
  std::string_view Name;
  void (*Off)(CompilerOptions &);
};

const Ablation Ablations[] = {
    {"no-substitute", [](CompilerOptions &O) { O.Opt.Substitute = false; }},
    {"no-if-distribute",
     [](CompilerOptions &O) { O.Opt.IfDistribute = false; }},
    {"no-constant-fold",
     [](CompilerOptions &O) { O.Opt.ConstantFold = false; }},
    {"no-assoc-commut", [](CompilerOptions &O) { O.Opt.AssocCommut = false; }},
    {"no-identity-elim",
     [](CompilerOptions &O) { O.Opt.IdentityElim = false; }},
    {"no-redundant-test",
     [](CompilerOptions &O) { O.Opt.RedundantTest = false; }},
    {"no-machine-trig", [](CompilerOptions &O) { O.Opt.MachineTrig = false; }},
    {"no-dead-code", [](CompilerOptions &O) { O.Opt.DeadCode = false; }},
    {"no-registers",
     [](CompilerOptions &O) { O.Codegen.TnBind.UseRegisters = false; }},
    {"no-register-temps",
     [](CompilerOptions &O) { O.Codegen.RegisterTemps = false; }},
    {"no-rep-analysis",
     [](CompilerOptions &O) { O.Codegen.Annotate.RepAnalysis = false; }},
    {"no-pdl-numbers",
     [](CompilerOptions &O) { O.Codegen.Annotate.PdlNumbers = false; }},
    {"no-special-cache",
     [](CompilerOptions &O) { O.Codegen.SpecialCache = false; }},
    {"no-tail-calls", [](CompilerOptions &O) { O.Codegen.TailCalls = false; }},
};

} // namespace

std::vector<AblationConfig> driver::ablationMatrix() {
  std::vector<AblationConfig> Out;
  auto Add = [&Out](std::string Name, std::string Flag) {
    CompilerOptions O;
    applyCompilerFlag(Flag, O);
    Out.push_back({std::move(Name), std::move(Flag), O});
  };
  Add("O2", "");
  Add("O0", "-O0");
  Add("O2+cse", "--cse");
  for (const Ablation &A : Ablations)
    Add(std::string(A.Name), "--" + std::string(A.Name));
  return Out;
}

std::optional<AblationConfig> driver::ablationByName(const std::string &Name) {
  for (AblationConfig &C : ablationMatrix())
    if (C.Name == Name)
      return std::move(C);
  return std::nullopt;
}

bool driver::applyCompilerFlag(std::string_view Flag, CompilerOptions &O) {
  if (Flag == "-O0") {
    O.Optimize = false;
    return true;
  }
  if (Flag == "-O2") {
    O.Optimize = true;
    return true;
  }
  if (Flag == "--cse") {
    O.Cse = true;
    return true;
  }
  if (Flag.rfind("--", 0) != 0)
    return false;
  for (const Ablation &A : Ablations)
    if (Flag.substr(2) == A.Name) {
      A.Off(O);
      return true;
    }
  return false;
}
