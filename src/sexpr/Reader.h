//===- sexpr/Reader.h - Lisp reader -----------------------------*- C++ -*-===//
///
/// \file
/// Converts program text into S-expression Values. Supports lists, dotted
/// pairs, 'quote, strings with escapes, ; line comments, #| block comments,
/// fixnums, flonums, and ratios (e.g. 2/3). Symbols are case-sensitive.
///
/// The reader can also split a source into the spans of its top-level
/// data without building any (scan), and read one span on its own
/// (seek, then read): the compile service keys each top-level form by
/// its text and reads only the forms it has not seen before. Both use
/// the same whitespace, comment, delimiter and string-escape rules as
/// read, and a span read after seek carries the same SourceLocations as
/// a read of the whole source.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_SEXPR_READER_H
#define S1LISP_SEXPR_READER_H

#include "sexpr/Value.h"
#include "support/Diag.h"

#include <optional>
#include <string_view>
#include <vector>

namespace s1lisp {
namespace sexpr {

/// Where one top-level datum lies in its source: the text
/// Source.substr(Offset, Length), starting at Loc.
struct FormSpan {
  size_t Offset = 0;
  size_t Length = 0;
  SourceLocation Loc;
};

/// A recursive-descent reader over one source buffer.
///
/// It pays once per list and once per symbol name: the items of every
/// open list share one stack, each list is built by one Heap::list call,
/// and a name read before skips the symbol table's lock. Only a newline
/// touches line state; a column is the offset from the line's start. On
/// a heap with GC on (at construction), the open lists' items and the
/// data readAll has read so far are roots, so a read keeps everything it
/// built.
class Reader {
public:
  /// Nesting bound for lists/quotes. The reader recurses per level, so a
  /// hostile "((((..." would otherwise exhaust the C++ stack; beyond this
  /// depth it reports "expression nesting too deep" instead.
  static constexpr unsigned MaxNestingDepth = 1000;

  Reader(SymbolTable &Symbols, Heap &H, std::string_view Source,
         DiagEngine &Diags);
  ~Reader();
  Reader(const Reader &) = delete;
  Reader &operator=(const Reader &) = delete;

  /// Reads the next datum; nullopt at end of input or on a syntax error
  /// (which is reported to the DiagEngine).
  std::optional<Value> read();

  /// Reads every remaining datum. Stops at the first syntax error.
  std::vector<Value> readAll();

  /// Appends the span of every remaining top-level datum to \p Spans,
  /// building nothing and reporting nothing. It is iterative, so any
  /// depth is safe. It gives up, returning false, only on input read()
  /// rejects: an unterminated list, string or block comment, a ')' with
  /// no list to close, a quote with no datum, or nesting past
  /// MaxNestingDepth. Other malformed data (a misplaced dot, a zero
  /// denominator) scan as spans and fail when read.
  bool scan(std::vector<FormSpan> &Spans);

  /// Places the reader at the start of \p S, a span scan() found in this
  /// source, as if it had just read everything before it.
  void seek(const FormSpan &S);

private:
  /// One step through a string literal's body (see stringChar).
  enum class StringStep { Char, Close, Unterminated };

  /// Makes the open lists' items roots of a heap with GC on.
  struct ItemRoots final : RootProvider {
    const std::vector<Value> *Items = nullptr; ///< null when not registered
    void visitRoots(const std::function<void(Value)> &Visit) override {
      for (Value V : *Items)
        Visit(V);
    }
  };

  bool atEnd() const { return Pos >= Src.size(); }
  char peek() const { return Src[Pos]; }
  char advance();
  /// Skips whitespace, ; comments and nested #| |# comments. At an
  /// unterminated block comment it consumes the rest of the input and
  /// returns where the comment began.
  std::optional<SourceLocation> skipBlanks();
  /// skipBlanks, reporting an unterminated block comment.
  void skipWhitespaceAndComments();
  /// Consumes one character of a string literal's body, after its
  /// opening quote, with escapes applied into \p C: a backslash takes
  /// the next character literally, except \n and \t.
  StringStep stringChar(char &C);
  /// Consumes an atom's characters: everything up to a delimiter.
  void skipAtom();
  SourceLocation here() const {
    return {Line, static_cast<uint32_t>(Pos - LineStart + 1)};
  }

  /// Reads the datum at Pos; the caller has skipped the blanks before it.
  std::optional<Value> readDatum();
  std::optional<Value> readList(SourceLocation Open);
  std::optional<Value> readString(SourceLocation Open);
  Value readAtom();
  /// The symbol named \p Name, from the cache when this reader has
  /// interned it before.
  const Symbol *symbolNamed(std::string_view Name);

  SymbolTable &Symbols;
  Heap &H;
  std::string_view Src;
  DiagEngine &Diags;
  size_t Pos = 0;
  size_t LineStart = 0; ///< offset of the current line's first character
  uint32_t Line = 1;
  unsigned Depth = 0; ///< current readDatum nesting, bounded by MaxNestingDepth
  /// The items read so far of every open list, outermost list first,
  /// above the data readAll has read.
  std::vector<Value> Items;
  ItemRoots Roots;
  /// Symbols this reader interned, direct-mapped by name hash.
  static constexpr size_t SymbolCacheSize = 512; ///< power of two
  const Symbol *SymbolCache[SymbolCacheSize] = {};
};

/// Convenience: reads all forms from \p Source.
std::vector<Value> readAll(SymbolTable &Symbols, Heap &H, std::string_view Source,
                           DiagEngine &Diags);

/// Convenience for tests: reads exactly one form; asserts on failure.
Value readOne(SymbolTable &Symbols, Heap &H, std::string_view Source);

} // namespace sexpr
} // namespace s1lisp

#endif // S1LISP_SEXPR_READER_H
