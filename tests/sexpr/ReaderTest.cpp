//===- tests/sexpr/ReaderTest.cpp - Reader tests --------------------------===//

#include "sexpr/Printer.h"
#include "sexpr/Reader.h"

#include "fuzz/Generator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <unordered_map>

using namespace s1lisp;
using namespace s1lisp::sexpr;

namespace {

class ReaderTest : public ::testing::Test {
protected:
  SymbolTable Syms;
  Heap H;

  Value read1(std::string_view Src) { return readOne(Syms, H, Src); }

  /// Read then print; the canonical round-trip check.
  std::string roundTrip(std::string_view Src) { return toString(read1(Src)); }

  bool failsToRead(std::string_view Src) {
    DiagEngine Diags;
    Reader R(Syms, H, Src, Diags);
    auto V = R.read();
    return !V || Diags.hasErrors();
  }

  /// Read expecting failure; return the diagnostic text so tests can pin
  /// down WHICH error fired, not just that one did.
  std::string readError(std::string_view Src) {
    DiagEngine Diags;
    Reader R(Syms, H, Src, Diags);
    (void)R.read();
    return Diags.str();
  }
};

TEST_F(ReaderTest, Atoms) {
  EXPECT_TRUE(read1("nil").isNil());
  EXPECT_EQ(read1("42").fixnum(), 42);
  EXPECT_EQ(read1("-7").fixnum(), -7);
  EXPECT_DOUBLE_EQ(read1("3.5").flonum(), 3.5);
  EXPECT_DOUBLE_EQ(read1("1e3").flonum(), 1000.0);
  EXPECT_DOUBLE_EQ(read1("-2.5e-2").flonum(), -0.025);
  EXPECT_DOUBLE_EQ(read1(".5").flonum(), 0.5);
  EXPECT_EQ(read1("2/4").ratio().Den, 2);
  EXPECT_EQ(read1("foo").symbol()->name(), "foo");
  EXPECT_EQ(read1("+").symbol()->name(), "+");
  EXPECT_EQ(read1("+$f").symbol()->name(), "+$f");
  EXPECT_EQ(read1("1+").symbol()->name(), "1+");
  EXPECT_EQ(read1("a.b").symbol()->name(), "a.b");
}

TEST_F(ReaderTest, Lists) {
  EXPECT_EQ(roundTrip("(a b c)"), "(a b c)");
  EXPECT_EQ(roundTrip("()"), "nil");
  EXPECT_EQ(roundTrip("(a (b c) d)"), "(a (b c) d)");
  EXPECT_EQ(roundTrip("(a . b)"), "(a . b)");
  EXPECT_EQ(roundTrip("(a b . c)"), "(a b . c)");
}

TEST_F(ReaderTest, QuoteSugar) {
  EXPECT_EQ(roundTrip("'x"), "(quote x)");
  EXPECT_EQ(roundTrip("'(1 2)"), "(quote (1 2))");
}

TEST_F(ReaderTest, Strings) {
  EXPECT_EQ(read1("\"hi\"").stringValue(), "hi");
  EXPECT_EQ(read1("\"a\\\"b\\\\c\\n\"").stringValue(), "a\"b\\c\n");
}

TEST_F(ReaderTest, Comments) {
  EXPECT_EQ(roundTrip("; header\n(a ; mid\n b)"), "(a b)");
  EXPECT_EQ(roundTrip("#| block #| nested |# |# (x)"), "(x)");
}

TEST_F(ReaderTest, MultipleForms) {
  DiagEngine Diags;
  auto Forms = readAll(Syms, H, "(a) 42 sym", Diags);
  ASSERT_EQ(Forms.size(), 3u);
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Forms[1].fixnum(), 42);
}

TEST_F(ReaderTest, SourceLocationsRecorded) {
  Value V = read1("\n  (f x)");
  ASSERT_TRUE(V.isCons());
  EXPECT_EQ(V.consCell()->Loc.Line, 2u);
  EXPECT_EQ(V.consCell()->Loc.Column, 3u);
}

TEST_F(ReaderTest, Errors) {
  EXPECT_TRUE(failsToRead("(a b"));
  EXPECT_TRUE(failsToRead(")"));
  EXPECT_TRUE(failsToRead("\"unterminated"));
  EXPECT_TRUE(failsToRead("(a . )"));
  EXPECT_TRUE(failsToRead("(. b)"));
  EXPECT_TRUE(failsToRead("(a . b c)"));
  EXPECT_TRUE(failsToRead("#| never closed"));
  EXPECT_TRUE(failsToRead(""));
}

TEST_F(ReaderTest, UnterminatedFormsNameTheConstruct) {
  EXPECT_NE(readError("\"no closing quote").find("unterminated string literal"),
            std::string::npos);
  EXPECT_NE(readError("\"escape at eof\\").find("unterminated string literal"),
            std::string::npos);
  EXPECT_NE(readError("(a (b c)").find("unterminated list"),
            std::string::npos);
  EXPECT_NE(readError("(").find("unterminated list"), std::string::npos);
}

TEST_F(ReaderTest, DottedListMisuseDiagnosed) {
  EXPECT_NE(readError("(. b)").find("dotted pair with no car"),
            std::string::npos);
  EXPECT_NE(readError("(a . b c)").find("expected ')' after dotted tail"),
            std::string::npos);
  EXPECT_NE(readError("(a . b . c)").find("expected ')' after dotted tail"),
            std::string::npos);
  // A dot INSIDE a symbol is not dotted-pair syntax.
  EXPECT_EQ(read1("(a.b)").car().symbol()->name(), "a.b");
}

TEST_F(ReaderTest, MalformedRatioDiagnosed) {
  EXPECT_NE(readError("1/0").find("ratio with zero denominator"),
            std::string::npos);
  EXPECT_NE(readError("(+ 1 3/0)").find("ratio with zero denominator"),
            std::string::npos);
  // Non-numeric slash tokens are ordinary symbols, not broken ratios.
  EXPECT_EQ(read1("a/b").symbol()->name(), "a/b");
}

TEST_F(ReaderTest, DeepNestingIsBoundedNotCrashing) {
  // One past the limit must produce a diagnostic rather than a stack
  // overflow; the reader recursion depth is capped at MaxNestingDepth.
  unsigned Deep = Reader::MaxNestingDepth + 1;
  std::string Src(Deep, '(');
  Src += "x";
  Src.append(Deep, ')');
  EXPECT_NE(readError(Src).find("expression nesting too deep"),
            std::string::npos);

  // Well inside the limit still reads fine.
  std::string Ok(100, '(');
  Ok += "x";
  Ok.append(100, ')');
  DiagEngine Diags;
  Reader R(Syms, H, Ok, Diags);
  auto V = R.read();
  ASSERT_TRUE(V.has_value());
  EXPECT_FALSE(Diags.hasErrors());
}

TEST_F(ReaderTest, PaperQuadraticReads) {
  const char *Src = "(defun quadratic (a b c)\n"
                    "  (let ((d (- (* b b) (* 4.0 a c))))\n"
                    "    (cond ((< d 0) '())\n"
                    "          ((= d 0) (list (/ (- b) (* 2.0 a))))\n"
                    "          (t (let ((two-a (* 2.0 a)) (sd (sqrt d)))\n"
                    "               (list (/ (+ (- b) sd) two-a)\n"
                    "                     (/ (- (- b) sd) two-a)))))))";
  Value V = read1(Src);
  EXPECT_TRUE(isProperList(V));
  EXPECT_EQ(V.car().symbol()->name(), "defun");
  EXPECT_EQ(listLength(V), 4u);
}

//===----------------------------------------------------------------------===//
// scan and seek: the spans of a source's top-level data, read one by one
//===----------------------------------------------------------------------===//

/// \p V printed, then the location of every cons in it, in preorder: two
/// reads agree on this only if they built the same datum from the same
/// places.
std::string located(Value V) {
  std::string Out = toString(V);
  std::vector<Value> Todo{V};
  while (!Todo.empty()) {
    Value X = Todo.back();
    Todo.pop_back();
    if (!X.isCons())
      continue;
    Out += ' ' + X.consCell()->Loc.str();
    Todo.push_back(X.cdr());
    Todo.push_back(X.car());
  }
  return Out;
}

/// The line and column of byte \p Offset of \p Src, counted afresh.
SourceLocation positionOf(std::string_view Src, size_t Offset) {
  SourceLocation L{1, 1};
  for (size_t I = 0; I < Offset; ++I) {
    if (Src[I] == '\n') {
      ++L.Line;
      L.Column = 1;
    } else {
      ++L.Column;
    }
  }
  return L;
}

/// Checks, against a recount of \p Src as positionOf counts, that every
/// cons of \p Data carries the location of the '(' or '\'' that opened
/// it: a list's spine conses share its opener (a quote's two conses its
/// '\''), and each opener comes after its list's and after the previous
/// element's. A dotted tail written as a list keeps its own opener.
void expectConsesAtTheirOpeners(std::string_view Src,
                                const std::vector<Value> &Data) {
  auto Key = [](SourceLocation L) { return uint64_t(L.Line) << 32 | L.Column; };
  std::unordered_map<uint64_t, size_t> OpenerAt;
  SourceLocation L{1, 1};
  for (size_t I = 0; I < Src.size(); ++I) {
    if (Src[I] == '(' || Src[I] == '\'')
      OpenerAt[Key(L)] = I;
    if (Src[I] == '\n') {
      ++L.Line;
      L.Column = 1;
    } else {
      ++L.Column;
    }
  }
  // Checks the list \p V, whose opener must lie past \p After; returns
  // its opener's offset.
  std::function<size_t(Value, size_t)> Check = [&](Value V, size_t After) {
    const SourceLocation Open = V.consCell()->Loc;
    auto It = OpenerAt.find(Key(Open));
    EXPECT_NE(It, OpenerAt.end()) << "cons at " << Open.str() << " opens nothing";
    if (It == OpenerAt.end())
      return After;
    const size_t Offset = It->second;
    EXPECT_TRUE(After == SIZE_MAX || Offset > After) << Open.str();
    EXPECT_EQ(positionOf(Src, Offset), Open);
    if (Src[Offset] == '\'') {
      EXPECT_TRUE(V.car().isSymbol() && V.car().symbol()->name() == "quote" &&
                  V.cdr().isCons() && V.cdr().cdr().isNil())
          << Open.str();
    }
    size_t Prev = Offset;
    Value Cur = V;
    while (true) {
      if (Cur.car().isCons())
        Prev = Check(Cur.car(), Prev);
      Value Next = Cur.cdr();
      if (!Next.isCons())
        break;
      if (!(Next.consCell()->Loc == Open)) {
        Check(Next, Prev); // a dotted tail written as a list
        break;
      }
      Cur = Next;
    }
    return Offset;
  };
  size_t Prev = SIZE_MAX;
  for (Value V : Data)
    if (V.isCons())
      Prev = Check(V, Prev);
}

/// Holds scan() to readAll() on \p Src. Where readAll reports no error,
/// the scan succeeds and each span, read after seek, prints the datum
/// readAll gave with the same locations; the span's text read alone is
/// that one datum. Where readAll fails, reading the spans in order stops
/// at the same diagnostics. Where the scan fails, readAll fails. Returns
/// whether the scan succeeded.
bool expectScanMatchesReadAll(std::string_view Src) {
  SymbolTable Syms;
  Heap H;
  DiagEngine WholeDiags;
  std::vector<Value> Whole = readAll(Syms, H, Src, WholeDiags);
  expectConsesAtTheirOpeners(Src, Whole);

  DiagEngine Diags;
  Reader R(Syms, H, Src, Diags);
  std::vector<FormSpan> Spans;
  const bool Scanned = R.scan(Spans);
  EXPECT_TRUE(Diags.diagnostics().empty()) << "the scan reported something";
  if (!Scanned) {
    EXPECT_TRUE(WholeDiags.hasErrors()) << "the scan gave up on good input";
    return false;
  }
  for (size_t I = 0; I < Spans.size(); ++I) {
    SCOPED_TRACE("span " + std::to_string(I));
    const FormSpan &S = Spans[I];
    EXPECT_EQ(S.Loc, positionOf(Src, S.Offset));
    R.seek(S);
    std::optional<Value> V = R.read();
    if (Diags.hasErrors()) {
      EXPECT_EQ(Diags.str(), WholeDiags.str());
      return true;
    }
    EXPECT_TRUE(V.has_value());
    EXPECT_LT(I, Whole.size());
    if (!V || I >= Whole.size())
      return true;
    EXPECT_EQ(located(*V), located(Whole[I]));

    DiagEngine AloneDiags;
    std::vector<Value> Alone =
        readAll(Syms, H, Src.substr(S.Offset, S.Length), AloneDiags);
    EXPECT_FALSE(AloneDiags.hasErrors());
    EXPECT_EQ(Alone.size(), 1u) << Src.substr(S.Offset, S.Length);
    if (!Alone.empty()) {
      EXPECT_EQ(toString(Alone[0]), toString(Whole[I]));
    }
  }
  EXPECT_FALSE(WholeDiags.hasErrors()) << WholeDiags.str();
  EXPECT_EQ(Spans.size(), Whole.size());
  return true;
}

std::string slurp(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TEST_F(ReaderTest, ScanMatchesReadAllOnExamples) {
  unsigned Files = 0;
  for (const char *Dir : {"", "/gc"})
    for (const auto &E : std::filesystem::directory_iterator(
             std::string(S1LISP_EXAMPLES_DIR) + Dir))
      if (E.path().extension() == ".lisp") {
        SCOPED_TRACE(E.path().string());
        std::string Src = slurp(E.path());
        ASSERT_FALSE(Src.empty());
        EXPECT_TRUE(expectScanMatchesReadAll(Src));
        ++Files;
      }
  EXPECT_GE(Files, 5u);
}

TEST_F(ReaderTest, ScanMatchesReadAllOnGeneratedPrograms) {
  for (uint32_t Seed = 1; Seed <= 500; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    EXPECT_TRUE(
        expectScanMatchesReadAll(fuzz::Generator(Seed).generate().Source));
  }
}

TEST_F(ReaderTest, ScanMatchesReadAllOnLexicalCorners) {
  const unsigned Limit = Reader::MaxNestingDepth;
  const std::string AtLimit =
      std::string(Limit, '(') + "x" + std::string(Limit, ')');
  const std::string QuotedAtLimit = "(a) ('" + std::string(Limit - 2, '(') +
                                    "x" + std::string(Limit - 1, ')');
  for (const std::string &Src : std::vector<std::string>{
           // Strings holding parens, a semicolon, and escaped quote and
           // backslash.
           "(f \"a(b\" \")\" \";\" \"q\\\"(\" \"s\\\\\") (g)",
           "\"(\" \")\" \"\\\"\" \"\\\\\"",
           // Line comments holding parens and quotes.
           "(a ; ) ( \" '\n b) ; (\n(c)",
           // Nested block comments, between forms and inside one.
           "#| outer #| inner ) |# ( \" |# (x) #|#||#|# y",
           "(a #|c|# b)(a#|c|#b)",
           // Quotes: of an atom, of a dotted pair, nested, and a quote
           // whose datum follows a comment.
           "'x '(a . b) ''y '('a ''b) ' ; c\n z '#|c|#w",
           "(a . b) (a b . c) (a .b) (a. b)",
           // Atoms containing #, | and ., and atoms that end at a
           // delimiter with no blank.
           "a#b |x| a|b x.y #foo .5 a#|b|# (a#|b c) 1.5e3 2/3",
           "a\"s\"b'c(d)e",
           // CRLF line ends, no trailing newline, a trailing comment.
           "(defun f (x)\r\n  x)\r\n(f 1)\r\n(g)",
           "(a b)",
           "(a) ; done",
           "(a) #| done |#",
           "",
           "  ; only a comment\n #| and a block |# \t\r\n",
           AtLimit,
           QuotedAtLimit,
           // Malformed data the scan passes: the read of the span fails
           // as readAll does.
           "(ok) (a . ) (b)",
           "(ok) (. b)",
           "(a . b c)",
           "(ok) (+ 1 3/0 4/0) (c)",
       }) {
    SCOPED_TRACE(Src.substr(0, 80));
    EXPECT_TRUE(expectScanMatchesReadAll(Src));
  }
}

TEST_F(ReaderTest, ConsesCarryTheirOpenersAcrossLineBreaks) {
  // Everything that moves the line or the column, between forms and
  // inside them: tabs, CRLF, line comments, nested block comments with
  // newlines, and strings holding newlines, escaped or not.
  for (const std::string &Src : std::vector<std::string>{
           "(a\t(b\t\t(c)))\t'(d)",
           "(defun f (x)\r\n\t(g \"one\ntwo\" (h x)))\r\n(k)",
           "(f \"a\\\nb\" (g)) (h \"\n\n\" '(i))",
           "(a ; comment (\n (b) #| block\n #| nested\n |# |# (c))\n'(d)",
           "#| lead\n|# (a \"s\n\" ; c\n\t(b)) '\n(e)",
       }) {
    SCOPED_TRACE(Src);
    EXPECT_TRUE(expectScanMatchesReadAll(Src));
  }
}

TEST_F(ReaderTest, ScanGivesUpOnlyWhereReadAllFails) {
  const unsigned Deep = Reader::MaxNestingDepth + 1;
  for (const std::string &Src : std::vector<std::string>{
           std::string(Deep, '(') + "x" + std::string(Deep, ')'),
           "(ok) " + std::string(Deep, '\'') + "x",
           // A quote nests like a list: one, between lists, one past the limit.
           "(a) ('" + std::string(Deep - 2, '(') + "x" +
               std::string(Deep - 1, ')'),
           "(a (b c)",
           "(f \"abc",
           "(f \"abc\\",
           "(a) #| never #| closed |#",
           "(a)) (b)",
           ")",
           "(a ')",
           "(a) '",
       }) {
    SCOPED_TRACE(Src.substr(0, 80));
    EXPECT_FALSE(expectScanMatchesReadAll(Src));
  }
}

// Property: print(read(print(read(s)))) == print(read(s)) over a corpus.
class RoundTripProperty : public ::testing::TestWithParam<const char *> {};

TEST_P(RoundTripProperty, Stable) {
  SymbolTable Syms;
  Heap H;
  Value V1 = readOne(Syms, H, GetParam());
  std::string P1 = toString(V1);
  Value V2 = readOne(Syms, H, P1);
  EXPECT_EQ(toString(V2), P1);
  EXPECT_TRUE(equal(V1, V2));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, RoundTripProperty,
    ::testing::Values("(lambda (x) (+ x 1))", "((a . b) (c . (d)))",
                      "(1 2.5 3/4 \"s\" sym (nested (deep (er))))",
                      "'(quote (quote x))", "(- -1 -2.0 -3/4)",
                      "(if p (f) (g))", "(progn)", "(((())))",
                      "(do ((i 0 (1+ i))) ((= i 10)) (f i))"));

} // namespace
