//===- tests/integration/PaperTablesTest.cpp ------------------------------===//
//
// The paper's worked artifacts as exact goldens: Tables 1, 3 and 4, and
// the claims of §2 (F1), §5 (F3), §6.1 (F5), §6.2 (F6), §6.3 (F7), §4.4
// (F8), §1/§8 (F9) and §4.3 (F10). Every simulator and interpreter
// counter here is deterministic, so each table row is pinned to the
// value EXPERIMENTS.md reports, and each table also states the paper's
// claim as an inequality between its rows. A regenerated golden can then
// move a number, but not silently break a claim.
//
// Each table compiles its programs under the named configuration (the
// defaults, or the defaults with one technique switched off) and counts
// one call on a fresh stats window. T1 and F10 drive the phases by hand,
// as their tables report per-phase results.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "annotate/Annotate.h"
#include "driver/Compiler.h"
#include "frontend/Convert.h"
#include "interp/Interp.h"
#include "opt/Cse.h"
#include "opt/MetaEval.h"
#include "sexpr/Printer.h"
#include "tnbind/TnBind.h"
#include "vm/Machine.h"

#include "gtest/gtest.h"

#include <memory>

using namespace s1lisp;
using sexpr::Value;

namespace {

Value fx(int64_t N) { return Value::fixnum(N); }
Value fl(double D) { return Value::flonum(D); }

//===----------------------------------------------------------------------===//
// Configurations: the defaults, or the defaults minus one technique.
//===----------------------------------------------------------------------===//

driver::CompilerOptions paper() { return {}; }

driver::CompilerOptions noOptimizer() {
  driver::CompilerOptions O;
  O.Optimize = false;
  return O;
}

driver::CompilerOptions naiveTnBind() {
  driver::CompilerOptions O;
  O.Codegen.TnBind.UseRegisters = false;
  O.Codegen.RegisterTemps = false;
  return O;
}

driver::CompilerOptions noRepAnalysis() {
  driver::CompilerOptions O;
  O.Codegen.Annotate.RepAnalysis = false;
  return O;
}

driver::CompilerOptions noPdlNumbers() {
  driver::CompilerOptions O;
  O.Codegen.Annotate.PdlNumbers = false;
  return O;
}

driver::CompilerOptions noSpecialCache() {
  driver::CompilerOptions O;
  O.Codegen.SpecialCache = false;
  return O;
}

driver::CompilerOptions noTailCalls() {
  driver::CompilerOptions O;
  O.Codegen.TailCalls = false;
  return O;
}

//===----------------------------------------------------------------------===//
// Compile once, call and count.
//===----------------------------------------------------------------------===//

struct Compiled {
  ir::Module M;
  s1::Program Program;
  std::unique_ptr<vm::Machine> VM;
};

std::unique_ptr<Compiled> compile(const std::string &Source,
                                  const driver::CompilerOptions &Opts) {
  auto C = std::make_unique<Compiled>();
  driver::CompileOutcome Out = driver::compileSource(C->M, Source, Opts);
  EXPECT_TRUE(Out.Ok) << Out.Error;
  C->Program = std::move(Out.Program);
  C->VM = std::make_unique<vm::Machine>(C->Program, C->M.Syms, C->M.DataHeap);
  return C;
}

/// Modules of hand-driven phases go straight to code generation.
std::unique_ptr<Compiled> link(std::unique_ptr<Compiled> C) {
  driver::CompilerOptions CodegenOnly;
  CodegenOnly.Optimize = false;
  driver::CompileOutcome Out = driver::compileModule(C->M, CodegenOnly);
  EXPECT_TRUE(Out.Ok) << Out.Error;
  C->Program = std::move(Out.Program);
  C->VM = std::make_unique<vm::Machine>(C->Program, C->M.Syms, C->M.DataHeap);
  return C;
}

struct Measured {
  bool Ok = false;
  std::string Text; ///< printed value, or the trap message
  vm::MachineStats Stats;
};

Measured call(Compiled &C, const std::string &Fn,
              const std::vector<Value> &Args) {
  C.VM->resetStats();
  vm::Machine::RunResult R = C.VM->call(Fn, Args);
  Measured Out;
  Out.Ok = R.Ok;
  Out.Text = R.Ok ? (R.Result ? sexpr::toString(*R.Result) : "#<undecodable>")
                  : R.Error;
  Out.Stats = C.VM->stats();
  return Out;
}

Measured callOk(Compiled &C, const std::string &Fn,
                const std::vector<Value> &Args) {
  Measured R = call(C, Fn, Args);
  EXPECT_TRUE(R.Ok) << Fn << ": " << R.Text;
  return R;
}

size_t treeNodes(const ir::Module &M) {
  size_t N = 0;
  for (const auto &F : M.functions())
    N += ir::treeSize(F->Root);
  return N;
}

//===----------------------------------------------------------------------===//
// T1: the Table 1 pipeline, one phase at a time over a 4-defun corpus.
//===----------------------------------------------------------------------===//

constexpr char T1Corpus[] =
    "(defun quadratic (a b c)"
    "  (let ((d (- (* b b) (* 4.0 a c))))"
    "    (cond ((< d 0) '()) ((= d 0) (list (/ (- b) (* 2.0 a))))"
    "          (t (let ((two-a (* 2.0 a)) (sd (sqrt d)))"
    "               (list (/ (+ (- b) sd) two-a) (/ (- (- b) sd) two-a)))))))"
    "(defun exptl (x n a)"
    "  (cond ((zerop n) a) ((oddp n) (exptl (* x x) (floor n 2) (* a x)))"
    "        (t (exptl (* x x) (floor n 2) a))))"
    "(defun testfn (a &optional (b 3.0) (c a))"
    "  (let ((d (+$f a b c)) (e (*$f a b c)))"
    "    (let ((q (sin$f e))) (exptl 2 3 1) q)))"
    "(defun walk (l acc)"
    "  (cond ((null l) acc) ((consp (car l)) (walk (cdr l) (walk (car l) acc)))"
    "        (t (walk (cdr l) (cons (car l) acc)))))";

TEST(PaperTables, T1PhaseStructure) {
  const driver::CompilerOptions Opts = paper();
  auto C = std::make_unique<Compiled>();
  DiagEngine Diags;
  ASSERT_TRUE(frontend::convertSource(C->M, T1Corpus, Diags)) << Diags.str();
  const size_t NodesBefore = treeNodes(C->M);

  for (const auto &F : C->M.functions())
    analysis::analyze(*F);
  unsigned Rewrites = 0;
  if (Opts.Optimize)
    for (const auto &F : C->M.functions())
      Rewrites += opt::metaEvaluate(*F, Opts.Opt);
  const size_t NodesAfter = treeNodes(C->M);

  annotate::AnnotateStats Ann{};
  for (const auto &F : C->M.functions()) {
    annotate::AnnotateStats S = annotate::annotate(*F, Opts.Codegen.Annotate);
    Ann.OpenLambdas += S.OpenLambdas;
    Ann.JumpLambdas += S.JumpLambdas;
    Ann.FullClosures += S.FullClosures;
    Ann.RawFloatVariables += S.RawFloatVariables;
    Ann.PdlSites += S.PdlSites;
  }
  for (const auto &F : C->M.functions())
    tnbind::allocateVariables(F->Root, Opts.Codegen.TnBind);

  C = link(std::move(C));
  size_t Instructions = 0;
  for (const auto &F : C->Program.Functions)
    Instructions += F.Code.size();

  EXPECT_EQ(NodesBefore, 119u);
  EXPECT_EQ(Rewrites, 17u);
  EXPECT_EQ(NodesAfter, 112u);
  EXPECT_EQ(Ann.OpenLambdas, 1u);
  EXPECT_EQ(Ann.JumpLambdas, 0u);
  EXPECT_EQ(Ann.FullClosures, 0u);
  EXPECT_EQ(Ann.RawFloatVariables, 0u);
  EXPECT_EQ(Ann.PdlSites, 0u);
  EXPECT_EQ(Instructions, 332u);
  // The source-level optimizer rewrites and shrinks the tree (§5).
  EXPECT_LT(NodesAfter, NodesBefore);
}

//===----------------------------------------------------------------------===//
// T3: Table 3's internal representations, in the paper's order.
//===----------------------------------------------------------------------===//

TEST(PaperTables, T3Representations) {
  const struct {
    ir::Rep R;
    const char *Name;
  } Rows[] = {
      {ir::Rep::SWFIX, "SWFIX"},   {ir::Rep::DWFIX, "DWFIX"},
      {ir::Rep::HWFLO, "HWFLO"},   {ir::Rep::SWFLO, "SWFLO"},
      {ir::Rep::DWFLO, "DWFLO"},   {ir::Rep::TWFLO, "TWFLO"},
      {ir::Rep::HWCPLX, "HWCPLX"}, {ir::Rep::SWCPLX, "SWCPLX"},
      {ir::Rep::DWCPLX, "DWCPLX"}, {ir::Rep::TWCPLX, "TWCPLX"},
      {ir::Rep::POINTER, "POINTER"}, {ir::Rep::BIT, "BIT"},
      {ir::Rep::JUMP, "JUMP"},     {ir::Rep::NONE, "NONE"},
  };
  for (size_t I = 0; I < std::size(Rows); ++I) {
    EXPECT_STREQ(ir::repName(Rows[I].R), Rows[I].Name);
    EXPECT_EQ(static_cast<size_t>(Rows[I].R), I) << Rows[I].Name;
  }
}

//===----------------------------------------------------------------------===//
// T4: the §7 testfn, per supplied-argument count (Table 4's dispatch).
//===----------------------------------------------------------------------===//

constexpr char TestfnSource[] =
    "(defun frotz (a b c) (if (eql a b) c a))"
    "(defun testfn (a &optional (b 3.0) (c a))"
    "  (let ((d (+$f a b c)) (e (*$f a b c)))"
    "    (let ((q (sin$f e)))"
    "      (frotz d e (max$f d e))"
    "      q)))";

TEST(PaperTables, T4TestfnDispatch) {
  const struct {
    std::vector<Value> Args;
    uint64_t Instructions;
    uint64_t HeapObjects;
    const char *Result;
  } Rows[] = {
      {{fl(0.25)}, 90, 2, "0.18640329549845658"},
      {{fl(0.25), fl(2.0)}, 91, 3, "0.12467473253434616"},
      {{fl(0.25), fl(2.0), fl(8.0)}, 92, 4, "-0.7568024773704285"},
  };
  auto P = compile(TestfnSource, paper());
  uint64_t OneArgBoxes = 0;
  for (const auto &Row : Rows) {
    SCOPED_TRACE(testing::Message() << Row.Args.size() << " args");
    Measured R = callOk(*P, "testfn", Row.Args);
    EXPECT_EQ(R.Stats.Instructions, Row.Instructions);
    EXPECT_EQ(R.Stats.HeapObjects, Row.HeapObjects);
    EXPECT_EQ(R.Text, Row.Result);
    if (Row.Args.size() == 1)
      OneArgBoxes = R.Stats.HeapObjects;
  }
  Measured NoArgs = call(*P, "testfn", {});
  EXPECT_FALSE(NoArgs.Ok);
  EXPECT_NE(NoArgs.Text.find("wrong number of arguments"), std::string::npos)
      << NoArgs.Text;

  // Pdl numbers off: the d and e boxes move to the heap.
  auto NoPdl = compile(TestfnSource, noPdlNumbers());
  Measured R = callOk(*NoPdl, "testfn", {fl(0.25)});
  EXPECT_EQ(R.Stats.HeapObjects, 5u);
  EXPECT_LT(OneArgBoxes, R.Stats.HeapObjects);
}

//===----------------------------------------------------------------------===//
// F1 (§2): tail-recursive calls are parameter-passing gotos.
//===----------------------------------------------------------------------===//

constexpr char TailSource[] =
    "(defun exptl (x n a)"
    "  (cond ((zerop n) a)"
    "        ((oddp n) (exptl (* x x) (floor n 2) (* a x)))"
    "        (t (exptl (* x x) (floor n 2) a))))"
    "(defun count-down (n) (if (zerop n) 'done (count-down (1- n))))";

TEST(PaperTables, F1TailCalls) {
  const struct {
    bool Tail;
    int64_t N;
    uint64_t StackHighWater;
    uint64_t TailCalls;
    uint64_t Calls;
  } Rows[] = {
      {true, 100, 6, 100, 0},         {true, 1000, 6, 1000, 0},
      {true, 10000, 6, 10000, 0},     {false, 100, 506, 0, 100},
      {false, 1000, 5006, 0, 1000},   {false, 10000, 50006, 0, 10000},
  };
  uint64_t Water[2][3] = {};
  for (size_t I = 0; I < std::size(Rows); ++I) {
    const auto &Row = Rows[I];
    SCOPED_TRACE(testing::Message() << (Row.Tail ? "tail calls" : "plain calls")
                                    << " n=" << Row.N);
    auto P = compile(TailSource, Row.Tail ? paper() : noTailCalls());
    Measured R = callOk(*P, "count-down", {fx(Row.N)});
    EXPECT_EQ(R.Text, "done");
    EXPECT_EQ(R.Stats.StackHighWater, Row.StackHighWater);
    EXPECT_EQ(R.Stats.TailCalls, Row.TailCalls);
    EXPECT_EQ(R.Stats.Calls, Row.Calls);
    Water[Row.Tail ? 0 : 1][I % 3] = R.Stats.StackHighWater;
  }
  // The tail-call stack is flat in n; the plain-call stack grows with n.
  EXPECT_EQ(Water[0][0], Water[0][1]);
  EXPECT_EQ(Water[0][1], Water[0][2]);
  EXPECT_LT(Water[1][0], Water[1][1]);
  EXPECT_LT(Water[1][1], Water[1][2]);

  auto P = compile(TailSource, paper());
  EXPECT_EQ(callOk(*P, "exptl", {fx(3), fx(7), fx(1)}).Text, "2187");
}

//===----------------------------------------------------------------------===//
// F3 (§5): boolean short-circuiting through the lambda transformations.
//===----------------------------------------------------------------------===//

TEST(PaperTables, F3ShortCircuit) {
  const char *Source =
      "(defun sc (a b c) (if (and a (or b c)) 'e1 'e2))"
      "(defun drive (n)"
      "  (let ((hits 0))"
      "    (dotimes (i n)"
      "      (when (eq (sc (oddp i) (zerop (mod i 3)) (zerop (mod i 5))) 'e1)"
      "        (setq hits (+ hits 1))))"
      "    hits))";
  const int64_t N = 3000;
  const struct {
    bool Optimized;
    uint64_t Instructions; ///< for all N evaluations
  } Rows[] = {{true, 192324}, {false, 203325}};
  uint64_t Instructions[2] = {};
  for (const auto &Row : Rows) {
    SCOPED_TRACE(Row.Optimized ? "optimized" : "unoptimized");
    auto P = compile(Source, Row.Optimized ? paper() : noOptimizer());
    Measured R = callOk(*P, "drive", {fx(N)});
    EXPECT_EQ(R.Stats.Instructions, Row.Instructions);
    // The thunks compile as jumps in both: no closure is allocated.
    EXPECT_EQ(R.Stats.HeapObjects, 0u);
    EXPECT_EQ(R.Text, "700");
    Instructions[Row.Optimized ? 0 : 1] = R.Stats.Instructions;
  }
  EXPECT_LT(Instructions[0], Instructions[1]);
}

//===----------------------------------------------------------------------===//
// F5 (§6.1): TNBIND and RT targeting remove data-movement MOVs.
//===----------------------------------------------------------------------===//

// Z[I,K] := A[I,J]*B[J,K] + C[I,K] (+ e) over all i,k for fixed j.
constexpr char KernelSource[] =
    "(defun update-easy (z a b c n e)"
    "  (dotimes (i n)"
    "    (dotimes (k n)"
    "      (aset$f z i k (+$f (*$f (aref$f a i 1) (aref$f b 1 k))"
    "                         (aref$f c i k) e))))"
    "  z)"
    "(defun update-hard (z a b c n)"
    "  (dotimes (i n)"
    "    (dotimes (k n)"
    "      (aset$f z i k (+$f (*$f (aref$f a i 1) (aref$f b 1 k))"
    "                         (aref$f c i k)))))"
    "  z)"
    "(defun setup (n)"
    "  (let ((m (make-array$f n n)))"
    "    (dotimes (i n) (dotimes (k n) (aset$f m i k (float (+ i k)))))"
    "    m))";

constexpr char KernelSetup[] =
    "  (let ((z (setup n)) (a (setup n)) (b (setup n)) (c (setup n)))";

unsigned staticMovs(const s1::Program &P) {
  unsigned N = 0;
  for (const auto &F : P.Functions)
    N += F.countOpcode(s1::Opcode::MOV);
  return N;
}

TEST(PaperTables, F5TnBindKernel) {
  // The kernel's counts are the whole run's minus a setup-only run's.
  const int64_t N = 24; // 576 elements
  const struct {
    bool Hard;
    bool TnBind;
    uint64_t Movs;         ///< executed in the kernel, all 576 elements
    uint64_t Instructions; ///< likewise
    unsigned StaticMovs;   ///< in the whole program
  } Rows[] = {
      {false, true, 8174, 27542, 105},
      {false, false, 15662, 35030, 141},
      {true, true, 6445, 24084, 105},
      {true, false, 15085, 32724, 141},
  };
  uint64_t Movs[2][2] = {};
  for (const auto &Row : Rows) {
    SCOPED_TRACE(testing::Message() << (Row.Hard ? "hard" : "easy") << ", "
                                    << (Row.TnBind ? "tnbind" : "naive"));
    const driver::CompilerOptions Opts = Row.TnBind ? paper() : naiveTnBind();
    std::string Update =
        Row.Hard ? "(update-hard z a b c n)" : "(update-easy z a b c n e)";
    auto Setup = compile(std::string(KernelSource) + "(defun drive (n e)" +
                             KernelSetup + " (aref$f z 0 0)))",
                         Opts);
    auto Full = compile(std::string(KernelSource) + "(defun drive (n e)" +
                            KernelSetup + Update + " (aref$f z 0 0)))",
                        Opts);
    Measured S = callOk(*Setup, "drive", {fx(N), fl(0.25)});
    Measured K = callOk(*Full, "drive", {fx(N), fl(0.25)});
    EXPECT_EQ(K.Stats.Movs - S.Stats.Movs, Row.Movs);
    EXPECT_EQ(K.Stats.Instructions - S.Stats.Instructions, Row.Instructions);
    EXPECT_EQ(staticMovs(Full->Program), Row.StaticMovs);
    Movs[Row.Hard][Row.TnBind] = K.Stats.Movs - S.Stats.Movs;
  }
  EXPECT_LT(Movs[0][1], Movs[0][0]);
  EXPECT_LT(Movs[1][1], Movs[1][0]);
}

TEST(PaperTables, F5TnBindStatement) {
  // The paper's unit of analysis: the straight-line statement alone.
  const char *Source =
      "(defun stmt-easy (z a b c i j k e)"
      "  (aset$f z i k (+$f (*$f (aref$f a i j) (aref$f b j k))"
      "                     (aref$f c i k) e)))"
      "(defun stmt-hard (z a b c i j k)"
      "  (aset$f z i k (+$f (*$f (aref$f a i j) (aref$f b j k))"
      "                     (aref$f c i k))))"
      "(defun drive (n which)"
      "  (let ((z (make-array$f n n)) (a (make-array$f n n))"
      "        (b (make-array$f n n)) (c (make-array$f n n)))"
      "    (if (zerop which)"
      "        (stmt-easy z a b c 1 0 1 0.5)"
      "        (stmt-hard z a b c 1 0 1))))";
  const struct {
    bool Hard;
    bool TnBind;
    unsigned StaticMovs;   ///< in the statement's function
    uint64_t Instructions; ///< for one call of drive
  } Rows[] = {
      {false, true, 27, 119},
      {false, false, 40, 132},
      {true, true, 24, 113},
      {true, false, 38, 127},
  };
  unsigned Movs[2][2] = {};
  for (const auto &Row : Rows) {
    SCOPED_TRACE(testing::Message() << (Row.Hard ? "hard" : "easy") << ", "
                                    << (Row.TnBind ? "tnbind" : "naive"));
    auto P = compile(Source, Row.TnBind ? paper() : naiveTnBind());
    const char *Fn = Row.Hard ? "stmt-hard" : "stmt-easy";
    unsigned Static = 0;
    for (const auto &F : P->Program.Functions)
      if (F.Name == Fn)
        Static = F.countOpcode(s1::Opcode::MOV);
    Measured R = callOk(*P, "drive", {fx(4), fx(Row.Hard ? 1 : 0)});
    EXPECT_EQ(Static, Row.StaticMovs);
    EXPECT_EQ(R.Stats.Instructions, Row.Instructions);
    Movs[Row.Hard][Row.TnBind] = Static;
  }
  EXPECT_LT(Movs[0][1], Movs[0][0]);
  EXPECT_LT(Movs[1][1], Movs[1][0]);
}

//===----------------------------------------------------------------------===//
// F6 (§6.2): representation analysis keeps float temporaries raw.
//===----------------------------------------------------------------------===//

constexpr char RepSource[] =
    "(defun horner (x)"
    "  (let ((acc 0.0))"
    "    (setq acc (+$f (*$f acc x) 1.0))"
    "    (setq acc (+$f (*$f acc x) 2.0))"
    "    (setq acc (+$f (*$f acc x) 3.0))"
    "    (setq acc (+$f (*$f acc x) 4.0))"
    "    acc))"
    "(defun drive (n x)"
    "  (let ((s 0.0))"
    "    (dotimes (i n) (setq s (+$f s (horner x))))"
    "    s))"
    // The §6.2 reconciliation example: one arm raw, one arm a pointer.
    "(defun reconcile (p q r) (+$f (if p (sqrt$f q) (car r)) 3.0))";

TEST(PaperTables, F6Representation) {
  const int64_t N = 2000;
  const struct {
    bool RepAnalysis;
    uint64_t HeapObjects;  ///< for all N iterations
    uint64_t Instructions; ///< likewise
  } Rows[] = {{true, 2003, 126028}, {false, 10002, 182025}};
  uint64_t Boxes[2] = {};
  for (const auto &Row : Rows) {
    SCOPED_TRACE(Row.RepAnalysis ? "rep analysis" : "everything boxed");
    auto P = compile(RepSource, Row.RepAnalysis ? paper() : noRepAnalysis());
    Measured R = callOk(*P, "drive", {fx(N), fl(1.5)});
    EXPECT_EQ(R.Stats.HeapObjects, Row.HeapObjects);
    EXPECT_EQ(R.Stats.Instructions, Row.Instructions);
    EXPECT_EQ(R.Text, "32750.0");
    Boxes[Row.RepAnalysis ? 0 : 1] = R.Stats.HeapObjects;
  }
  EXPECT_LT(Boxes[0], Boxes[1]);

  // Both if arms deliver SWFLO: the sqrt arm stays raw, the car arm
  // dereferences its pointer.
  auto P = compile(RepSource, paper());
  Value RList = P->M.DataHeap.list({fl(7.0)});
  Measured Sqrt = callOk(*P, "reconcile",
                    {Value::symbol(P->M.Syms.t()), fl(4.0), RList});
  EXPECT_EQ(Sqrt.Stats.Instructions, 28u);
  EXPECT_EQ(Sqrt.Text, "5.0");
  Measured Car = callOk(*P, "reconcile", {Value::nil(), fl(4.0), RList});
  EXPECT_EQ(Car.Stats.Instructions, 33u);
  EXPECT_EQ(Car.Text, "10.0");
}

//===----------------------------------------------------------------------===//
// F7 (§6.3): pdl numbers stack-allocate the boxes of bounded lifetimes.
//===----------------------------------------------------------------------===//

TEST(PaperTables, F7PdlNumbers) {
  const char *Source =
      "(defun frotz (a b c) (if (eql a b) c a))"
      "(defun testfn-shape (a b c)"
      "  (let ((d (+$f a b c)) (e (*$f a b c)))"
      "    (frotz d e (max$f d e))"
      "    (+$f d e)))"
      "(defun drive (n)"
      "  (dotimes (i n) (testfn-shape 1.0 2.0 3.0))"
      "  'done)";
  const int64_t N = 2000;
  const struct {
    bool Pdl;
    uint64_t HeapObjects; ///< for all N calls
    uint64_t StackHighWater;
  } Rows[] = {{true, 2001, 27}, {false, 8001, 24}};
  uint64_t Boxes[2] = {};
  for (const auto &Row : Rows) {
    SCOPED_TRACE(Row.Pdl ? "pdl numbers" : "heap-only");
    auto P = compile(Source, Row.Pdl ? paper() : noPdlNumbers());
    Measured R = callOk(*P, "drive", {fx(N)});
    EXPECT_EQ(R.Stats.HeapObjects, Row.HeapObjects);
    EXPECT_EQ(R.Stats.StackHighWater, Row.StackHighWater);
    Boxes[Row.Pdl ? 0 : 1] = R.Stats.HeapObjects;
  }
  EXPECT_LT(Boxes[0], Boxes[1]);

  // Returning is unsafe: a returned float is still certified into the heap.
  auto P = compile("(defun ret-float (x) (+$f x 1.0))", paper());
  Measured R = callOk(*P, "ret-float", {fl(2.0)});
  EXPECT_EQ(R.Text, "3.0");
  EXPECT_EQ(R.Stats.HeapObjects, 2u);
  EXPECT_GE(R.Stats.HeapObjects, 1u);
}

//===----------------------------------------------------------------------===//
// F8 (§4.4): a cached special lookup searches once, then goes indirect.
//===----------------------------------------------------------------------===//

TEST(PaperTables, F8SpecialCache) {
  // nest pushes depth unrelated dynamic bindings, then polls *v* n times.
  const char *Source =
      "(defvar *v*)"
      "(defvar *pad*)"
      "(defun poll (n)"
      "  (let ((s 0)) (dotimes (i n) (setq s (+ s *v*))) s))"
      "(defun nest (depth n)"
      "  (if (zerop depth)"
      "      (poll n)"
      "      (let ((*pad* depth)) (nest (1- depth) n))))";
  const int64_t N = 500;
  const struct {
    bool Cached;
    int64_t Depth;
    uint64_t Searches;
    uint64_t Steps; ///< for all N accesses
  } Rows[] = {
      {true, 0, 1, 0},       {true, 8, 1, 8},       {true, 64, 1, 64},
      {false, 0, 500, 0},    {false, 8, 500, 4000}, {false, 64, 500, 32000},
  };
  for (const auto &Row : Rows) {
    SCOPED_TRACE(testing::Message() << (Row.Cached ? "cached" : "uncached")
                                    << " depth=" << Row.Depth);
    auto P = compile(Source, Row.Cached ? paper() : noSpecialCache());
    P->VM->setGlobalSpecial(P->M.Syms.intern("*v*"), fx(1));
    Measured R = callOk(*P, "nest", {fx(Row.Depth), fx(N)});
    EXPECT_EQ(R.Text, "500");
    EXPECT_EQ(R.Stats.SpecialSearches, Row.Searches);
    EXPECT_EQ(R.Stats.SpecialSearchSteps, Row.Steps);
    // Cached: one search per entry, whatever the depth. Uncached: a
    // search, and the whole binding depth, per access.
    if (Row.Cached)
      EXPECT_EQ(R.Stats.SpecialSearches, 1u);
    else
      EXPECT_EQ(R.Stats.SpecialSearchSteps, uint64_t(N * Row.Depth));
  }
}

//===----------------------------------------------------------------------===//
// F9 (§1/§8): one kernel suite through the interpreter and compiled.
//===----------------------------------------------------------------------===//

TEST(PaperTables, F9CompiledVsInterp) {
  // An interpreter step evaluates one IR node; a compiled instruction is
  // one S-1 instruction. The units differ, so the two columns are pinned
  // separately; the wall-clock comparison is not a tier-1 measurement.
  const struct {
    const char *Name;
    const char *Source;
    const char *Fn;
    std::vector<Value> Args;
    uint64_t InterpSteps;
    uint64_t Instructions;
    const char *Result;
  } Rows[] = {
      {"fib",
       "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))", "fib",
       {fx(15)}, 17753, 60165, "610"},
      {"sum-floats",
       "(defun run (n) (let ((s 0.0)) (dotimes (i n) "
       "(setq s (+$f s (*$f 1.5 (float i))))) s))",
       "run", {fx(2000)}, 38016, 38027, "2998500.0"},
      {"list-build",
       "(defun run (n) (let ((l nil)) (dotimes (i n) (setq l (cons i l))) "
       "(length l)))",
       "run", {fx(2000)}, 32017, 30027, "2000"},
      {"tail-loop", "(defun run (n) (if (zerop n) 'done (run (1- n))))", "run",
       {fx(20000)}, 120004, 360018, "done"},
      {"array-kernel",
       "(defun run (n) (let ((a (make-array$f n)) (s 0.0))"
       " (dotimes (i n) (aset$f a i (float i)))"
       " (dotimes (i n) (setq s (+$f s (aref$f a i)))) s))",
       "run", {fx(1000)}, 35029, 35040, "499500.0"},
  };
  for (const auto &Row : Rows) {
    SCOPED_TRACE(Row.Name);
    ir::Module MI;
    DiagEngine Diags;
    ASSERT_TRUE(frontend::convertSource(MI, Row.Source, Diags)) << Diags.str();
    interp::Interpreter I(MI);
    std::vector<interp::RtValue> RtArgs;
    for (Value V : Row.Args)
      RtArgs.push_back(interp::RtValue::data(V));
    interp::Interpreter::Result RI = I.call(Row.Fn, RtArgs);
    ASSERT_TRUE(RI.Ok) << RI.Error;

    auto P = compile(Row.Source, paper());
    Measured RC = callOk(*P, Row.Fn, Row.Args);
    EXPECT_EQ(I.stats().Steps, Row.InterpSteps);
    EXPECT_EQ(RC.Stats.Instructions, Row.Instructions);
    EXPECT_EQ(RI.Value.str(), Row.Result);
    // Compiled code computes what the interpreter computes, in both the
    // number world and the pointer world.
    EXPECT_EQ(RC.Text, RI.Value.str());
  }
}

//===----------------------------------------------------------------------===//
// F10 (§4.3): CSE as source-level lambda introduction.
//===----------------------------------------------------------------------===//

TEST(PaperTables, F10Cse) {
  // A kernel with a fat, thrice-repeated pure subexpression.
  const char *Source =
      "(defun redundant (a b c)"
      "  (+ (* (+ (* a b) (* b c) (* a c)) 2)"
      "     (* (+ (* a b) (* b c) (* a c)) 3)"
      "     (* (+ (* a b) (* b c) (* a c)) 5)))"
      "(defun drive (n)"
      "  (let ((s 0)) (dotimes (i n) (setq s (+ s (redundant i 2 3)))) s))";
  const int64_t N = 500;
  const struct {
    bool Cse;
    unsigned Hoisted;
    uint64_t Instructions; ///< for all N calls
  } Rows[] = {{false, 0, 59524}, {true, 1, 40024}};
  uint64_t Instructions[2] = {};
  for (const auto &Row : Rows) {
    SCOPED_TRACE(Row.Cse ? "with cse" : "without");
    auto C = std::make_unique<Compiled>();
    DiagEngine Diags;
    ASSERT_TRUE(frontend::convertSource(C->M, Source, Diags)) << Diags.str();
    unsigned Hoisted = 0;
    for (const auto &F : C->M.functions()) {
      opt::metaEvaluate(*F);
      if (Row.Cse)
        Hoisted += opt::eliminateCommonSubexpressions(*F);
    }
    C = link(std::move(C));
    Measured R = callOk(*C, "drive", {fx(N)});
    EXPECT_EQ(Hoisted, Row.Hoisted);
    EXPECT_EQ(R.Stats.Instructions, Row.Instructions);
    EXPECT_EQ(R.Text, "6267500");
    Instructions[Row.Cse] = R.Stats.Instructions;
  }
  EXPECT_LT(Instructions[1], Instructions[0]);
}

} // namespace
