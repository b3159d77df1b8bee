//===- tests/integration/CompiledVsInterpTest.cpp -------------------------===//
//
// The end-to-end differential harness: every program is run through the
// interpreter (the semantic oracle) and through the full compiler + S-1/64
// simulator, across a grid of arguments and across optimization settings.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "frontend/Convert.h"
#include "interp/Interp.h"
#include "sexpr/Printer.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

using namespace s1lisp;
using sexpr::Value;

namespace {

std::string interpResult(const std::string &Src, const std::string &Fn,
                         const std::vector<Value> &Args) {
  ir::Module M;
  DiagEngine Diags;
  if (!frontend::convertSource(M, Src, Diags))
    return "CONVERT-ERROR: " + Diags.str();
  interp::Interpreter I(M);
  std::vector<interp::RtValue> RtArgs;
  for (Value V : Args)
    RtArgs.push_back(interp::RtValue::data(V));
  auto R = I.call(Fn, RtArgs);
  if (!R.Ok)
    return "ERROR";
  return R.Value.str();
}

std::string compiledResult(const std::string &Src, const std::string &Fn,
                           const std::vector<Value> &Args,
                           const driver::CompilerOptions &Opts,
                           std::string *FullError = nullptr) {
  ir::Module M;
  auto Out = driver::compileSource(M, Src, Opts);
  if (!Out.Ok)
    return "COMPILE-ERROR: " + Out.Error;
  vm::Machine VM(Out.Program, M.Syms, M.DataHeap);
  auto R = VM.call(Fn, Args);
  if (!R.Ok) {
    if (FullError)
      *FullError = R.Error;
    return "ERROR";
  }
  if (!R.Result)
    return "#<undecodable>";
  return sexpr::toString(*R.Result);
}

struct ProgramCase {
  const char *Name;
  const char *Source;
  const char *Fn;
  std::vector<std::vector<Value>> ArgSets;
};

Value fx(int64_t N) { return Value::fixnum(N); }
Value fl(double D) { return Value::flonum(D); }

std::vector<ProgramCase> corpus() {
  return {
      {"arith", "(defun fut (a b) (+ (* a a) (- b 1)))", "fut",
       {{fx(3), fx(4)}, {fx(-2), fx(0)}, {fx(0), fx(0)}}},
      {"float-arith", "(defun fut (a b) (+$f (*$f a a) (/$f b 2.0)))", "fut",
       {{fl(3.0), fl(4.0)}, {fl(-1.5), fl(1.0)}}},
      {"mixed-generic",
       "(defun fut (a b) (if (> a b) (/ a b) (list a b)))", "fut",
       {{fx(6), fx(4)}, {fx(1), fx(3)}, {fx(7), fx(2)}}},
      {"ratio", "(defun fut (a b) (/ a b))", "fut",
       {{fx(1), fx(3)}, {fx(4), fx(2)}, {fx(-6), fx(4)}}},
      {"let-nesting",
       "(defun fut (a b) (let ((x (+ a 1)) (y (* b 2))) (let ((z (+ x y))) "
       "(- z x))))",
       "fut",
       {{fx(5), fx(7)}, {fx(0), fx(0)}}},
      {"conditionals",
       "(defun fut (a b) (cond ((zerop a) 'zero) ((minusp a) (- b)) "
       "((oddp a) (+ b 1)) (t b)))",
       "fut",
       {{fx(0), fx(9)}, {fx(-3), fx(9)}, {fx(3), fx(9)}, {fx(4), fx(9)}}},
      {"short-circuit",
       "(defun fut (a b) (if (and (plusp a) (or (minusp b) (zerop b))) "
       "'yes 'no))",
       "fut",
       {{fx(1), fx(-1)}, {fx(1), fx(0)}, {fx(1), fx(1)}, {fx(0), fx(-1)}}},
      {"tail-recursion",
       "(defun fut (n acc) (if (zerop n) acc (fut (1- n) (+ acc n))))", "fut",
       {{fx(10), fx(0)}, {fx(0), fx(5)}, {fx(1000), fx(0)}}},
      {"exptl",
       "(defun fut (x n a) (cond ((zerop n) a) ((oddp n) "
       "(fut (* x x) (floor n 2) (* a x))) (t (fut (* x x) (floor n 2) a))))",
       "fut",
       {{fx(2), fx(10), fx(1)}, {fx(3), fx(5), fx(1)}, {fx(5), fx(0), fx(1)}}},
      {"lists",
       "(defun fut (a b) (let ((l (list a b (+ a b)))) "
       "(cons (length l) (reverse l))))",
       "fut",
       {{fx(1), fx(2)}, {fx(-1), fx(1)}}},
      {"car-cdr",
       "(defun fut (l) (if (consp l) (cons (car l) (cddr l)) 'atom))", "fut",
       {{fx(5)}}},
      {"member-assoc",
       "(defun fut (a) (list (member a '(1 2 3)) (assoc a '((1 . one) (2 . two)))))",
       "fut",
       {{fx(2)}, {fx(9)}}},
      {"setq-progn",
       "(defun fut (a) (let ((x 0)) (setq x (+ x a)) (setq x (* x 2)) x))",
       "fut",
       {{fx(5)}, {fx(-3)}}},
      {"prog-loop",
       "(defun fut (n) (prog ((i 0) (acc 0)) loop (when (> i n) (return acc))"
       " (setq acc (+ acc i)) (setq i (1+ i)) (go loop)))",
       "fut",
       {{fx(10)}, {fx(0)}}},
      {"do-loop",
       "(defun fut (n) (do ((i 0 (1+ i)) (a 0 b) (b 1 (+ a b))) ((= i n) a)))",
       "fut",
       {{fx(10)}, {fx(1)}, {fx(0)}}},
      {"case-dispatch",
       "(defun fut (x) (case x ((1 2) 'small) ((10) 'ten) (t 'other)))", "fut",
       {{fx(1)}, {fx(10)}, {fx(99)}}},
      {"catch-throw",
       "(defun fut (l) (catch 'found (dolist (x l) (when (minusp x) "
       "(throw 'found x))) 'none))",
       "fut",
       {{}}}, // arguments prepared specially below
      {"closures",
       "(defun make-adder (n) (lambda (x) (+ x n)))"
       "(defun fut (n v) (funcall (make-adder n) v))",
       "fut",
       {{fx(10), fx(5)}, {fx(-1), fx(1)}}},
      {"closure-mutation",
       "(defun fut () (let ((n 0)) (let ((inc (lambda () (setq n (+ n 1))))) "
       "(funcall inc) (funcall inc) n)))",
       "fut",
       {{}}},
      {"higher-order",
       "(defun twice (f x) (funcall f (funcall f x)))"
       "(defun fut (a) (twice (lambda (v) (* v v)) a))",
       "fut",
       {{fx(3)}, {fx(-2)}}},
      {"optionals",
       "(defun hdr (a &optional (b 3) (c (+ a b))) (list a b c))"
       "(defun fut (k) (case k ((1) (hdr 10)) ((2) (hdr 10 20)) "
       "(t (hdr 10 20 30))))",
       "fut",
       {{fx(1)}, {fx(2)}, {fx(3)}}},
      {"rest-args",
       "(defun gather (a &rest more) (cons a more))"
       "(defun fut (k) (case k ((0) (gather 1)) ((1) (gather 1 2)) "
       "(t (gather 1 2 3))))",
       "fut",
       {{fx(0)}, {fx(1)}, {fx(2)}}},
      {"specials",
       "(defvar *depth*)"
       "(defun probe () *depth*)"
       "(defun fut (*depth*) (+ (probe) 1))",
       "fut",
       {{fx(41)}}},
      {"special-setq",
       "(defvar *acc*)"
       "(defun bump (x) (setq *acc* (+ *acc* x)))"
       "(defun fut (a) (let ((*acc* 0)) (bump a) (bump a) *acc*))",
       "fut",
       {{fx(7)}}},
      {"float-arrays",
       "(defun fut (n) (let ((a (make-array$f n)) (s 0.0))"
       " (dotimes (i n) (aset$f a i (float (* i i))))"
       " (dotimes (i n) (setq s (+$f s (aref$f a i)))) s))",
       "fut",
       {{fx(6)}}},
      {"matrix",
       "(defun fut (i j k)"
       " (let ((a (make-array$f 2 2)) (b (make-array$f 2 2))"
       "       (c (make-array$f 2 2)) (z (make-array$f 2 2)))"
       "  (aset$f a i j 3.0) (aset$f b j k 4.0) (aset$f c i k 0.5)"
       "  (aset$f z i k (+$f (*$f (aref$f a i j) (aref$f b j k))"
       "                     (aref$f c i k)))"
       "  (aref$f z i k)))",
       "fut",
       {{fx(1), fx(0), fx(1)}, {fx(0), fx(1), fx(0)}}},
      {"quadratic",
       "(defun fut (a b c)"
       "  (let ((d (- (* b b) (* 4.0 a c))))"
       "    (cond ((< d 0) '()) ((= d 0) (list (/ (- b) (* 2.0 a))))"
       "          (t (let ((two-a (* 2.0 a)) (sd (sqrt d)))"
       "               (list (/ (+ (- b) sd) two-a) (/ (- (- b) sd) two-a)))))))",
       "fut",
       {{fl(1.0), fl(-3.0), fl(2.0)}, {fl(1.0), fl(2.0), fl(1.0)},
        {fl(1.0), fl(0.0), fl(1.0)}}},
      {"testfn",
       "(defun frotz (a b c) (list a b c))"
       "(defun fut (a &optional (b 3.0) (c a))"
       "  (let ((d (+$f a b c)) (e (*$f a b c)))"
       "    (let ((q (sin$f e))) (frotz d e (max$f d e)) q)))",
       "fut",
       {{fl(0.25)}, {fl(1.0), fl(2.0)}, {fl(1.0), fl(2.0), fl(0.125)}}},
      {"errors-div0", "(defun fut (a) (/ a 0))", "fut", {{fx(1)}}},
      {"errors-type", "(defun fut (a) (car a))", "fut", {{fx(1)}}},
      {"errors-unbound", "(defvar *nope*) (defun fut () *nope*)", "fut", {{}}},
      {"errors-throw", "(defun fut () (throw 'missing 1))", "fut", {{}}},
      // A parameter with a heap or special home must have it before any
      // later &optional default runs, and staging it must not clobber the
      // &rest argument base. keep makes p's closure escape, so p lives in
      // a heap environment.
      {"optional-default-reads-heap-param",
       "(defun keep (f) f)"
       "(defun h1 (p &optional (q p)) (keep (lambda () p)) q)"
       "(defun fut (k) (if (= k 1) (h1 7) (h1 7 k)))",
       "fut",
       {{fx(1)}, {fx(2)}}},
      {"optional-default-reads-special-param",
       "(proclaim '(special sp))"
       "(defun h2 (sp &optional (q sp)) q)"
       "(defun fut (k) (if (= k 1) (h2 7) (h2 7 k)))",
       "fut",
       {{fx(1)}, {fx(2)}}},
      {"rest-after-heap-param",
       "(defun keep (f) f)"
       "(defun h (p &rest r) (keep (lambda () p)) (list p r))"
       "(defun fut (k) (if (= k 0) (h 1) (h 1 2 3)))",
       "fut",
       {{fx(0)}, {fx(1)}}},
      {"rest-after-two-heap-params",
       "(defun keep (f) f)"
       "(defun h (p q &rest r) (keep (lambda () (list p q))) (list p q r))"
       "(defun fut (k) (if (= k 0) (h 1 2) (h 1 2 3 4)))",
       "fut",
       {{fx(0)}, {fx(1)}}},
      {"rest-after-special-param",
       "(proclaim '(special sp))"
       "(defun h (sp &rest r) (list sp r))"
       "(defun fut (k) (if (= k 0) (h 1) (h 1 2 3)))",
       "fut",
       {{fx(0)}, {fx(1)}}},
      // Unary + and * still type-check their argument: the interpreter
      // traps, and the optimizer must not fold the call away.
      {"unary-plus-nil", "(defun fut () (+ nil))", "fut", {{}}},
      {"unary-times-nil", "(defun fut () (* nil))", "fut", {{}}},
      {"unary-plus-symbol", "(defun fut () (+ 'a))", "fut", {{}}},
      {"unary-plus-param", "(defun f (x) (+ x))", "f",
       {{Value::nil()}, {fx(3)}}},
      // Without substitution, the nested-if distribution binds the thunk
      // (lambda () b) as a jump lambda: b must stay live to the thunk's
      // call, past the do loop whose variable would otherwise take its
      // register.
      {"jump-thunk-keeps-referents-live",
       "(defun fut (a b c) (if (and c (do ((acc5 0)) (0 acc5))) b))", "fut",
       {{fx(1), fx(7), fl(2.25)}, {fx(1), fx(7), Value::nil()}}},
      // Unary max and min type-check their argument like unary + and *.
      {"unary-max-nil", "(defun fut () (max nil))", "fut", {{}}},
      {"unary-min-symbol", "(defun fut () (min 'a))", "fut", {{}}},
      {"unary-max-param", "(defun f (x) (max x))", "f",
       {{Value::nil()}, {fx(3)}, {fl(-2.5)}}},
      {"unary-min-param", "(defun f (x) (min x))", "f",
       {{Value::nil()}, {fx(-4)}}},
  };
}

class CompiledVsInterp : public ::testing::TestWithParam<int> {};

TEST_P(CompiledVsInterp, Agree) {
  ProgramCase Case = corpus()[GetParam()];

  // The catch-throw case needs list arguments built in each module's heap,
  // so it gets a literal-based driver instead.
  if (std::string(Case.Name) == "catch-throw") {
    ir::Module Shared;
    Value L = Shared.DataHeap.list({fx(3), fx(-7), fx(2)});
    Value L2 = Shared.DataHeap.list({fx(1)});
    for (Value Arg : {L, L2, Value::nil()}) {
      std::string I = interpResult(Case.Source, Case.Fn, {Arg});
      std::string C = compiledResult(Case.Source, Case.Fn, {Arg}, {});
      EXPECT_EQ(I, C) << Case.Name;
    }
    return;
  }

  for (const auto &Args : Case.ArgSets) {
    std::string I = interpResult(Case.Source, Case.Fn, Args);
    ASSERT_EQ(I.find("CONVERT-ERROR"), std::string::npos) << I;

    // Full optimization, no optimization, optimization without
    // substitution, and ablated backends must all agree with the
    // interpreter.
    driver::CompilerOptions Full;
    driver::CompilerOptions NoOpt;
    NoOpt.Optimize = false;
    driver::CompilerOptions NoSubstitute;
    NoSubstitute.Opt.Substitute = false;
    driver::CompilerOptions Naive;
    Naive.Codegen.TnBind.UseRegisters = false;
    Naive.Codegen.RegisterTemps = false;
    Naive.Codegen.Annotate.RepAnalysis = false;
    Naive.Codegen.Annotate.PdlNumbers = false;
    Naive.Codegen.SpecialCache = false;
    Naive.Codegen.TailCalls = false;

    int Which = 0;
    for (const auto &Opts : {Full, NoOpt, NoSubstitute, Naive}) {
      std::string FullError;
      std::string C = compiledResult(Case.Source, Case.Fn, Args, Opts, &FullError);
      // Trigonometric results differ in the low bits: the compiler uses
      // the paper's truncated 0.159154942 cycles conversion (§5/§7), the
      // interpreter computes radians directly. Compare floats with a
      // tolerance when both results are plain numbers.
      char *EndI = nullptr, *EndC = nullptr;
      double DI = strtod(I.c_str(), &EndI);
      double DC = strtod(C.c_str(), &EndC);
      bool BothNumeric = EndI && *EndI == '\0' && EndC && *EndC == '\0' &&
                         !I.empty() && !C.empty();
      if (BothNumeric) {
        EXPECT_NEAR(DI, DC, 1e-6 * (1.0 + std::abs(DI)))
            << Case.Name << " (config " << Which << ") " << FullError;
      } else {
        EXPECT_EQ(I, C) << Case.Name << " (config " << Which << ") "
                        << FullError;
      }
      ++Which;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CompiledVsInterp,
                         ::testing::Range(0, static_cast<int>(corpus().size())),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           std::string N = corpus()[Info.param].Name;
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

//===----------------------------------------------------------------------===//
// Machine-level property checks
//===----------------------------------------------------------------------===//

TEST(CompiledProperties, TailCallsUseConstantStack) {
  ir::Module M;
  auto Out = driver::compileSource(
      M, "(defun count-down (n) (if (zerop n) 'done (count-down (1- n))))");
  ASSERT_TRUE(Out.Ok) << Out.Error;
  vm::Machine VM(Out.Program, M.Syms, M.DataHeap);
  auto R1 = VM.call("count-down", {fx(10)});
  ASSERT_TRUE(R1.Ok) << R1.Error;
  uint64_t Small = VM.stats().StackHighWater;
  VM.resetStats();
  auto R2 = VM.call("count-down", {fx(50000)});
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(VM.stats().StackHighWater, Small)
      << "stack must not grow with recursion depth (§2)";
  EXPECT_GE(VM.stats().TailCalls, 50000u);
}

// Regression: a tail call passing fewer arguments than the activation
// received (here h1 entered with 3 words thanks to a supplied &optional,
// tail-calling 2-arg h0) must not shift the return word — the caller pops
// exactly what it pushed, and a slid stack let the callee's argument
// words bleed into the caller's frame locals. Found by the seeded fuzzer.
TEST(CompiledProperties, TailCallFromWiderActivationKeepsStackDiscipline) {
  const char *Src = "(defun h0 (x y) 0)\n"
                    "(defun h1 (p q &optional (r 9)) (h0 -1 q))\n"
                    "(defun fut (a b) (let ((v (h1 (h1 a a 3) 0))) b))\n"
                    "(defun main () (fut 0 3))";
  EXPECT_EQ(interpResult(Src, "main", {}), "3");
  driver::CompilerOptions O2;
  EXPECT_EQ(compiledResult(Src, "main", {}, O2), "3");
  driver::CompilerOptions O0;
  O0.Optimize = false;
  EXPECT_EQ(compiledResult(Src, "main", {}, O0), "3");
}

TEST(CompiledProperties, NonTailRecursionOverflowsGracefully) {
  ir::Module M;
  auto Out = driver::compileSource(
      M, "(defun deep (n) (if (zerop n) 0 (+ 1 (deep (1- n)))))");
  ASSERT_TRUE(Out.Ok) << Out.Error;
  vm::Machine VM(Out.Program, M.Syms, M.DataHeap);
  auto ROk = VM.call("deep", {fx(1000)});
  ASSERT_TRUE(ROk.Ok) << ROk.Error;
  EXPECT_EQ(sexpr::toString(*ROk.Result), "1000");
  auto RBad = VM.call("deep", {fx(10000000)});
  EXPECT_FALSE(RBad.Ok);
  EXPECT_NE(RBad.Error.find("stack overflow"), std::string::npos) << RBad.Error;
}

TEST(CompiledProperties, ArityCheckedAtRuntime) {
  ir::Module M;
  auto Out = driver::compileSource(M, "(defun f2 (a b) (+ a b))");
  ASSERT_TRUE(Out.Ok) << Out.Error;
  vm::Machine VM(Out.Program, M.Syms, M.DataHeap);
  EXPECT_TRUE(VM.call("f2", {fx(1), fx(2)}).Ok);
  EXPECT_FALSE(VM.call("f2", {fx(1)}).Ok);
  EXPECT_FALSE(VM.call("f2", {fx(1), fx(2), fx(3)}).Ok);
}

TEST(CompiledProperties, SpecialCacheReducesSearchSteps) {
  const char *Src = "(defvar *v*)"
                    "(defun poll (n) (let ((s 0)) (dotimes (i n) "
                    "(setq s (+ s *v*))) s))";
  auto Measure = [&](bool Cache) {
    ir::Module M;
    driver::CompilerOptions Opts;
    Opts.Codegen.SpecialCache = Cache;
    auto Out = driver::compileSource(M, Src, Opts);
    EXPECT_TRUE(Out.Ok) << Out.Error;
    vm::Machine VM(Out.Program, M.Syms, M.DataHeap);
    VM.setGlobalSpecial(M.Syms.intern("*v*"), fx(2));
    auto R = VM.call("poll", {fx(100)});
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(sexpr::toString(*R.Result), "200");
    return VM.stats().SpecialSearches;
  };
  uint64_t Cached = Measure(true);
  uint64_t Uncached = Measure(false);
  EXPECT_LE(Cached, 4u) << "one search per entry (§4.4)";
  EXPECT_GE(Uncached, 100u) << "a search per access without the cache";
}

TEST(CompiledProperties, PdlNumbersAvoidHeapBoxing) {
  // Float temporaries bound in a let and passed to a safe generic op:
  // with pdl numbers their pointer forms live in the frame.
  const char *Src = "(defun use (p q) (if (eql p q) 1 2))"
                    "(defun fut (x) (let ((d (+$f x 1.0)) (e (*$f x 2.0)))"
                    " (use d e)))";
  auto Measure = [&](bool Pdl) {
    ir::Module M;
    driver::CompilerOptions Opts;
    Opts.Codegen.Annotate.PdlNumbers = Pdl;
    auto Out = driver::compileSource(M, Src, Opts);
    EXPECT_TRUE(Out.Ok) << Out.Error;
    vm::Machine VM(Out.Program, M.Syms, M.DataHeap);
    VM.resetStats();
    auto R = VM.call("fut", {fl(3.0)});
    EXPECT_TRUE(R.Ok) << R.Error;
    return VM.stats().HeapObjects;
  };
  uint64_t WithPdl = Measure(true);
  uint64_t WithoutPdl = Measure(false);
  EXPECT_LT(WithPdl, WithoutPdl)
      << "stack allocation must eliminate heap boxes (§6.3)";
}

TEST(CompiledProperties, ListingLooksLikeTable4) {
  ir::Module M;
  auto Out = driver::compileSource(
      M, "(defun testfn (a &optional (b 3.0) (c a)) (+$f a b c))");
  ASSERT_TRUE(Out.Ok) << Out.Error;
  std::string L = driver::listing(Out.Program);
  EXPECT_NE(L.find("Dispatch on number of arguments"), std::string::npos) << L;
  EXPECT_NE(L.find("FADD"), std::string::npos);
  EXPECT_NE(L.find("%RET"), std::string::npos);
}

} // namespace
