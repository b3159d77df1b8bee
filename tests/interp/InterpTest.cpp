//===- tests/interp/InterpTest.cpp - Evaluator tests ----------------------===//

#include "interp/Interp.h"

#include "frontend/Convert.h"
#include "sexpr/Printer.h"

#include <gtest/gtest.h>

using namespace s1lisp;
using namespace s1lisp::interp;
using sexpr::Value;

namespace {

class InterpTest : public ::testing::Test {
protected:
  ir::Module M;

  void load(const std::string &Src) {
    DiagEngine Diags;
    ASSERT_TRUE(frontend::convertSource(M, Src, Diags)) << Diags.str();
  }

  /// Calls \p Name and renders the result (or "ERROR: ...").
  std::string run(const std::string &Name, std::vector<RtValue> Args = {},
                  Interpreter *Ip = nullptr) {
    Interpreter Local(M);
    Interpreter &I = Ip ? *Ip : Local;
    auto R = I.call(Name, Args);
    if (!R.Ok)
      return "ERROR: " + R.Error;
    return R.Value.str();
  }

  static RtValue fx(int64_t N) { return RtValue::data(Value::fixnum(N)); }
  static RtValue fl(double D) { return RtValue::data(Value::flonum(D)); }
};

TEST_F(InterpTest, ArithmeticAndCalls) {
  load("(defun f (x y) (+ (* x x) y))");
  EXPECT_EQ(run("f", {fx(3), fx(4)}), "13");
}

TEST_F(InterpTest, IfAndPredicates) {
  load("(defun sign (x) (cond ((minusp x) -1) ((zerop x) 0) (t 1)))");
  EXPECT_EQ(run("sign", {fx(-5)}), "-1");
  EXPECT_EQ(run("sign", {fx(0)}), "0");
  EXPECT_EQ(run("sign", {fl(2.5)}), "1");
}

TEST_F(InterpTest, LexicalClosures) {
  load("(defun make-adder (n) (lambda (x) (+ x n)))"
       "(defun use-it (n v) (funcall (make-adder n) v))");
  EXPECT_EQ(run("use-it", {fx(10), fx(5)}), "15");
}

TEST_F(InterpTest, ClosureCapturesMutableState) {
  load("(defun counter-demo ()"
       "  (let ((n 0))"
       "    (let ((inc (lambda () (setq n (+ n 1)))))"
       "      (funcall inc) (funcall inc) (funcall inc) n)))");
  EXPECT_EQ(run("counter-demo"), "3");
}

TEST_F(InterpTest, OptionalDefaultsComputeOverEarlierParams) {
  // The paper's testfn defaulting rules (§7).
  load("(defun hdr (a &optional (b 3.0) (c a)) (list a b c))");
  EXPECT_EQ(run("hdr", {fx(1)}), "(1 3.0 1)");
  EXPECT_EQ(run("hdr", {fx(1), fx(2)}), "(1 2 1)");
  EXPECT_EQ(run("hdr", {fx(1), fx(2), fx(7)}), "(1 2 7)");
  EXPECT_EQ(run("hdr", {}), "ERROR: wrong number of arguments (0)");
  EXPECT_EQ(run("hdr", {fx(1), fx(2), fx(3), fx(4)}),
            "ERROR: wrong number of arguments (4)");
}

TEST_F(InterpTest, RestParameter) {
  load("(defun gather (a &rest more) (cons a more))");
  EXPECT_EQ(run("gather", {fx(1), fx(2), fx(3)}), "(1 2 3)");
  EXPECT_EQ(run("gather", {fx(1)}), "(1)");
}

TEST_F(InterpTest, TailRecursionIsIterative) {
  // §2's exptl: repeated squaring, tail calls only. 100000 iterations of a
  // simple countdown must not grow the C++ stack.
  load("(defun exptl (x n a)"
       "  (cond ((zerop n) a)"
       "        ((oddp n) (exptl (* x x) (floor n 2) (* a x)))"
       "        (t (exptl (* x x) (floor n 2) a))))"
       "(defun count-down (n) (if (zerop n) 'done (count-down (1- n))))");
  EXPECT_EQ(run("exptl", {fx(2), fx(10), fx(1)}), "1024");
  EXPECT_EQ(run("exptl", {fx(3), fx(5), fx(1)}), "243");

  Interpreter I(M);
  auto R = I.call("count-down", {fx(100000)});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.str(), "done");
  EXPECT_LT(I.stats().MaxApplyDepth, 10u)
      << "tail calls must reuse the frame, not recurse";
  EXPECT_GE(I.stats().TailTransfers, 100000u);
}

TEST_F(InterpTest, MutualTailRecursion) {
  load("(defun even? (n) (if (zerop n) t (odd? (1- n))))"
       "(defun odd? (n) (if (zerop n) nil (even? (1- n))))");
  Interpreter I(M);
  auto R = I.call("even?", {fx(50001)});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Value.str(), "nil");
  EXPECT_LT(I.stats().MaxApplyDepth, 10u);
}

TEST_F(InterpTest, ProgGoReturn) {
  load("(defun sum-to (n)"
       "  (prog ((i 0) (acc 0))"
       "   loop (when (> i n) (return acc))"
       "        (setq acc (+ acc i))"
       "        (setq i (1+ i))"
       "        (go loop)))");
  EXPECT_EQ(run("sum-to", {fx(10)}), "55");
  EXPECT_EQ(run("sum-to", {fx(0)}), "0");
}

TEST_F(InterpTest, DoLoopParallelStepping) {
  // Fibonacci via parallel do-stepping: b's step sees the OLD a.
  load("(defun fib (n)"
       "  (do ((i 0 (1+ i)) (a 0 b) (b 1 (+ a b)))"
       "      ((= i n) a)))");
  EXPECT_EQ(run("fib", {fx(10)}), "55");
  EXPECT_EQ(run("fib", {fx(1)}), "1");
  EXPECT_EQ(run("fib", {fx(0)}), "0");
}

TEST_F(InterpTest, CatchThrow) {
  load("(defun find-first-negative (l)"
       "  (catch 'found"
       "    (dolist (x l) (when (minusp x) (throw 'found x)))"
       "    'none))");
  ir::Module &Mod = M;
  Value L = Mod.DataHeap.list({Value::fixnum(3), Value::fixnum(-7), Value::fixnum(2)});
  EXPECT_EQ(run("find-first-negative", {RtValue::data(L)}), "-7");
  Value L2 = Mod.DataHeap.list({Value::fixnum(3)});
  EXPECT_EQ(run("find-first-negative", {RtValue::data(L2)}), "none");
}

TEST_F(InterpTest, UncaughtThrowIsAnError) {
  load("(defun oops () (throw 'missing 1))");
  EXPECT_EQ(run("oops"), "ERROR: uncaught throw");
}

TEST_F(InterpTest, CaseDispatch) {
  load("(defun classify (x) (case x ((1 2 3) 'small) ((10) 'ten) (t 'other)))");
  EXPECT_EQ(run("classify", {fx(2)}), "small");
  EXPECT_EQ(run("classify", {fx(10)}), "ten");
  EXPECT_EQ(run("classify", {fx(99)}), "other");
}

TEST_F(InterpTest, SpecialVariablesDeepBinding) {
  load("(defvar *depth*)"
       "(defun probe () *depth*)"
       "(defun with-depth (*depth*) (probe))");
  Interpreter I(M);
  I.setGlobalSpecial(M.Syms.intern("*depth*"), fx(0));
  EXPECT_EQ(run("probe", {}, &I), "0");
  // Dynamic binding: probe sees the caller's rebinding.
  EXPECT_EQ(run("with-depth", {fx(42)}, &I), "42");
  // And it is unwound afterwards.
  EXPECT_EQ(run("probe", {}, &I), "0");
  EXPECT_GT(I.stats().SpecialSearches, 0u);
}

TEST_F(InterpTest, SetqOfSpecialMutatesInnermostBinding) {
  load("(defvar *v*)"
       "(defun bump () (setq *v* (+ *v* 1)))"
       "(defun shadowed (*v*) (bump) (bump) *v*)");
  Interpreter I(M);
  I.setGlobalSpecial(M.Syms.intern("*v*"), fx(100));
  EXPECT_EQ(run("shadowed", {fx(0)}, &I), "2");
  EXPECT_EQ(run("bump", {}, &I), "101") << "global value was untouched by the shadow";
}

TEST_F(InterpTest, ListPrimitives) {
  load("(defun work (l) (list (length l) (reverse l) (nth 1 l) (member 2 l)))");
  Value L = M.DataHeap.list({Value::fixnum(1), Value::fixnum(2), Value::fixnum(3)});
  EXPECT_EQ(run("work", {RtValue::data(L)}), "(3 (3 2 1) 2 (2 3))");
}

TEST_F(InterpTest, CarChainsCheckEveryStep) {
  // As in compiled code, each step of c[ad]+r needs a list, and nth past
  // the end of a list (or of a non-list) is nil.
  load("(defun caar-of (l) (caar l)) (defun cadr-of (l) (cadr l))"
       "(defun nth-of (n l) (nth n l))");
  Value L = M.DataHeap.list({Value::fixnum(1), Value::fixnum(2)});
  EXPECT_EQ(run("caar-of", {RtValue::data(L)}),
            "ERROR: wrong type of argument to 'car/cdr'");
  EXPECT_EQ(run("cadr-of", {RtValue::data(L)}), "2");
  EXPECT_EQ(run("nth-of", {fx(5), RtValue::data(L)}), "nil");
  EXPECT_EQ(run("nth-of", {fx(0), fx(7)}), "nil");
  EXPECT_EQ(run("nth-of", {fx(-1), RtValue::data(L)}), "1");
}

TEST_F(InterpTest, RplacaMutation) {
  load("(defun smash (l) (rplaca l 'new) l)");
  Interpreter I(M);
  Value L = M.DataHeap.list({Value::fixnum(1), Value::fixnum(2)});
  auto R = I.call("smash", {RtValue::data(L)});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Value.str(), "(new 2)");
}

TEST_F(InterpTest, FloatWorld) {
  load("(defun hyp (a b) (sqrt$f (+$f (*$f a a) (*$f b b))))"
       "(defun sinc-check (x) (sinc$f x))");
  EXPECT_EQ(run("hyp", {fl(3.0), fl(4.0)}), "5.0");
  // sinc$f(0.25) = sin(pi/2) = 1.
  Interpreter I(M);
  auto R = I.call("sinc-check", {fl(0.25)});
  ASSERT_TRUE(R.Ok);
  EXPECT_NEAR(R.Value.dataValue().flonum(), 1.0, 1e-12);
}

TEST_F(InterpTest, FloatArrays) {
  load("(defun fill-and-sum (n)"
       "  (let ((a (make-array$f n)))"
       "    (dotimes (i n) (aset$f a i (float i)))"
       "    (let ((s 0.0))"
       "      (dotimes (i n) (setq s (+$f s (aref$f a i))))"
       "      s)))");
  EXPECT_EQ(run("fill-and-sum", {fx(5)}), "10.0");
}

TEST_F(InterpTest, TwoDimensionalArrays) {
  // The §6.1 statement: Z[I,K] := A[I,J]*B[J,K] + C[I,K].
  load("(defun update (z a b c i j k)"
       "  (aset$f z i k (+$f (*$f (aref$f a i j) (aref$f b j k))"
       "                     (aref$f c i k))))"
       "(defun read2 (z i k) (aref$f z i k))");
  Interpreter I(M);
  RtValue A = I.makeArray(2, 2), B = I.makeArray(2, 2), C = I.makeArray(2, 2),
          Z = I.makeArray(2, 2);
  A.arrayValue()->at(1, 0) = 3.0;
  B.arrayValue()->at(0, 1) = 4.0;
  C.arrayValue()->at(1, 1) = 0.5;
  auto R = I.call("update", {Z, A, B, C, fx(1), fx(0), fx(1)});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_DOUBLE_EQ(Z.arrayValue()->at(1, 1), 12.5);
  auto R2 = I.call("read2", {Z, fx(1), fx(1)});
  EXPECT_EQ(R2.Value.str(), "12.5");
}

TEST_F(InterpTest, ArrayBoundsChecked) {
  load("(defun peek (a i) (aref$f a i))");
  Interpreter I(M);
  RtValue A = I.makeArray(3);
  auto R = I.call("peek", {A, fx(3)});
  EXPECT_FALSE(R.Ok);
}

TEST_F(InterpTest, ApplySpreadsList) {
  load("(defun spread (l) (apply (function +) 1 l))");
  Value L = M.DataHeap.list({Value::fixnum(2), Value::fixnum(3)});
  EXPECT_EQ(run("spread", {RtValue::data(L)}), "6");
}

TEST_F(InterpTest, BuiltinsCheckTheirArgumentCount) {
  // A builtin reached through funcall is applied only to an argument
  // count it accepts, as a closure is.
  load("(defun no-args () (funcall (function car)))"
       "(defun one-arg () (funcall (function cons) 1))"
       "(defun two-args () (funcall (function cons) 1 2))"
       "(defun negate (x) (funcall (function -$f) x))");
  EXPECT_EQ(run("no-args"), "ERROR: wrong number of arguments (0)");
  EXPECT_EQ(run("one-arg"), "ERROR: wrong number of arguments (1)");
  EXPECT_EQ(run("two-args"), "(1 . 2)");
  EXPECT_EQ(run("negate", {fl(0.0)}), "-0.0");
}

TEST_F(InterpTest, FunctionObjectsOfApplyAndFunctionActAsTheirCalls) {
  // apply, funcall and function reached as function objects do what a
  // direct call of each does: apply spreads its last argument, and
  // function resolves a symbol to its function.
  load("(defun add (a b) (+ a b))"
       "(defun apply-object () (funcall (function apply) (lambda (a b) (+ a b)) (list 1 2)))"
       "(defun apply-object-leading () (funcall (function apply) (function add) 1 (list 2)))"
       "(defun apply-object-no-list () (funcall (function apply) (function add) 1 2))"
       "(defun funcall-object () (funcall (function funcall) (function add) 3 4))"
       "(defun function-object () (funcall (funcall (function function) 'car) (list 7 8)))"
       "(defun function-object-of-defun () (funcall (funcall (function function) 'add) 5 6))"
       "(defun function-object-of-number () (funcall (function function) 5))"
       "(defun function-object-undefined () (funcall (function function) 'no-such-fn))");
  EXPECT_EQ(run("apply-object"), "3");
  EXPECT_EQ(run("apply-object-leading"), "3");
  EXPECT_EQ(run("apply-object-no-list"),
            "ERROR: apply needs a trailing argument list");
  EXPECT_EQ(run("funcall-object"), "7");
  EXPECT_EQ(run("function-object"), "7");
  EXPECT_EQ(run("function-object-of-defun"), "11");
  EXPECT_EQ(run("function-object-of-number"),
            "ERROR: function needs a literal function name");
  EXPECT_EQ(run("function-object-undefined"),
            "ERROR: undefined function 'no-such-fn'");
}

TEST_F(InterpTest, ErrorsSurface) {
  load("(defun bad-call (x) (x-undefined x))"
       "(defun bad-type () (car 5))"
       "(defun div0 () (/ 1 0))"
       "(defun raise () (error \"boom\"))");
  EXPECT_EQ(run("bad-call", {fx(1)}), "ERROR: undefined function 'x-undefined'");
  EXPECT_EQ(run("bad-type"), "ERROR: wrong type of argument to 'car/cdr'");
  EXPECT_EQ(run("div0"), "ERROR: wrong type of argument to '/'");
  EXPECT_EQ(run("raise"), "ERROR: boom");
}

TEST_F(InterpTest, FuelBoundsRunawayLoops) {
  load("(defun spin () (spin))");
  Interpreter I(M);
  I.setFuel(10000);
  auto R = I.call("spin", {});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "evaluation fuel exhausted");
}

TEST_F(InterpTest, PrintWritesOutput) {
  load("(defun greet () (print 'hello) (print 42))");
  Interpreter I(M);
  ASSERT_TRUE(I.call("greet", {}).Ok);
  EXPECT_EQ(I.output(), "hello\n42\n");
}

TEST_F(InterpTest, QuadraticEndToEnd) {
  // §4.1's quadratic on (x-1)(x-2) = x^2 - 3x + 2.
  load("(defun quadratic (a b c)"
       "  (let ((d (- (* b b) (* 4.0 a c))))"
       "    (cond ((< d 0) '())"
       "          ((= d 0) (list (/ (- b) (* 2.0 a))))"
       "          (t (let ((two-a (* 2.0 a)) (sd (sqrt d)))"
       "               (list (/ (+ (- b) sd) two-a)"
       "                     (/ (- (- b) sd) two-a)))))))");
  EXPECT_EQ(run("quadratic", {fl(1.0), fl(-3.0), fl(2.0)}), "(2.0 1.0)");
  EXPECT_EQ(run("quadratic", {fl(1.0), fl(2.0), fl(1.0)}), "(-1.0)");
  EXPECT_EQ(run("quadratic", {fl(1.0), fl(0.0), fl(1.0)}), "nil");
}

} // namespace
