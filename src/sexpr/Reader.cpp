//===- sexpr/Reader.cpp ---------------------------------------------------===//

#include "sexpr/Reader.h"

#include <charconv>
#include <cstdlib>
#include <string>

using namespace s1lisp;
using namespace s1lisp::sexpr;

namespace {

bool isDelimiter(char C) {
  return C == '(' || C == ')' || C == '\'' || C == '"' || C == ';' || C == ' ' ||
         C == '\t' || C == '\n' || C == '\r';
}

/// Parses the decimal integer \p S, a sign allowed; false when it is out
/// of range.
bool parseInteger(std::string_view S, long long &N) {
  if (!S.empty() && S.front() == '+')
    S.remove_prefix(1);
  return std::from_chars(S.data(), S.data() + S.size(), N).ec == std::errc();
}

/// Classifies an atom's spelling: fixnum, ratio, flonum, or symbol.
enum class AtomClass { Fixnum, Ratio, Flonum, Symbol };

AtomClass classifyAtom(std::string_view S) {
  size_t I = 0;
  if (I < S.size() && (S[I] == '+' || S[I] == '-'))
    ++I;
  if (I == S.size())
    return AtomClass::Symbol; // bare "+" or "-"
  size_t Digits = 0;
  while (I < S.size() && isdigit(static_cast<unsigned char>(S[I]))) {
    ++I;
    ++Digits;
  }
  if (Digits == 0) {
    // Allow ".5" style flonums.
    if (I < S.size() && S[I] == '.' && I + 1 < S.size() &&
        isdigit(static_cast<unsigned char>(S[I + 1])))
      return AtomClass::Flonum;
    return AtomClass::Symbol;
  }
  if (I == S.size())
    return AtomClass::Fixnum;
  if (S[I] == '/') {
    ++I;
    size_t DenDigits = 0;
    while (I < S.size() && isdigit(static_cast<unsigned char>(S[I]))) {
      ++I;
      ++DenDigits;
    }
    return (DenDigits > 0 && I == S.size()) ? AtomClass::Ratio : AtomClass::Symbol;
  }
  if (S[I] == '.' || S[I] == 'e' || S[I] == 'E') {
    // Validate the float tail: [.digits][(e|E)[+-]digits]
    if (S[I] == '.') {
      ++I;
      while (I < S.size() && isdigit(static_cast<unsigned char>(S[I])))
        ++I;
    }
    if (I < S.size() && (S[I] == 'e' || S[I] == 'E')) {
      ++I;
      if (I < S.size() && (S[I] == '+' || S[I] == '-'))
        ++I;
      size_t ExpDigits = 0;
      while (I < S.size() && isdigit(static_cast<unsigned char>(S[I]))) {
        ++I;
        ++ExpDigits;
      }
      if (ExpDigits == 0)
        return AtomClass::Symbol;
    }
    return I == S.size() ? AtomClass::Flonum : AtomClass::Symbol;
  }
  return AtomClass::Symbol;
}

} // namespace

Reader::Reader(SymbolTable &Symbols, Heap &H, std::string_view Source,
               DiagEngine &Diags)
    : Symbols(Symbols), H(H), Src(Source), Diags(Diags) {
  if (H.gcEnabled()) {
    Roots.Items = &Items;
    H.registerRootProvider(&Roots);
  }
}

Reader::~Reader() {
  if (Roots.Items)
    H.unregisterRootProvider(&Roots);
}

char Reader::advance() {
  char C = Src[Pos++];
  if (C == '\n') {
    ++Line;
    LineStart = Pos;
  }
  return C;
}

std::optional<SourceLocation> Reader::skipBlanks() {
  while (!atEnd()) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\n' || C == '\r') {
      advance();
      continue;
    }
    if (C == ';') {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    if (C == '#' && Pos + 1 < Src.size() && Src[Pos + 1] == '|') {
      SourceLocation Open = here();
      advance();
      advance();
      unsigned Depth = 1;
      while (!atEnd() && Depth > 0) {
        char D = advance();
        if (D == '#' && !atEnd() && peek() == '|') {
          advance();
          ++Depth;
        } else if (D == '|' && !atEnd() && peek() == '#') {
          advance();
          --Depth;
        }
      }
      if (Depth > 0)
        return Open;
      continue;
    }
    break;
  }
  return std::nullopt;
}

void Reader::skipWhitespaceAndComments() {
  if (std::optional<SourceLocation> Open = skipBlanks())
    Diags.error(*Open, "unterminated block comment");
}

Reader::StringStep Reader::stringChar(char &C) {
  if (atEnd())
    return StringStep::Unterminated;
  C = advance();
  if (C == '"')
    return StringStep::Close;
  if (C != '\\')
    return StringStep::Char;
  if (atEnd())
    return StringStep::Unterminated;
  C = advance();
  if (C == 'n')
    C = '\n';
  else if (C == 't')
    C = '\t';
  // \" and \\ and anything else: literal.
  return StringStep::Char;
}

void Reader::skipAtom() {
  while (!atEnd() && !isDelimiter(peek()))
    advance();
}

std::optional<Value> Reader::read() {
  skipWhitespaceAndComments();
  if (atEnd())
    return std::nullopt;
  return readDatum();
}

std::vector<Value> Reader::readAll() {
  // The data read so far wait on the item stack, where a collection the
  // next read triggers sees them.
  const size_t Base = Items.size();
  while (true) {
    size_t Before = Diags.diagnostics().size();
    auto V = read();
    if (!V || Diags.diagnostics().size() != Before)
      break;
    Items.push_back(*V);
  }
  std::vector<Value> Out(Items.begin() + Base, Items.end());
  Items.resize(Base);
  return Out;
}

std::optional<Value> Reader::readDatum() {
  if (atEnd()) {
    Diags.error(here(), "unexpected end of input");
    return std::nullopt;
  }
  SourceLocation Loc = here();
  char C = peek();
  if (C == '(') {
    if (Depth >= MaxNestingDepth) {
      Diags.error(Loc, "expression nesting too deep");
      return std::nullopt;
    }
    advance();
    ++Depth;
    auto L = readList(Loc);
    --Depth;
    return L;
  }
  if (C == ')') {
    Diags.error(Loc, "unmatched ')'");
    advance();
    return std::nullopt;
  }
  if (C == '\'') {
    if (Depth >= MaxNestingDepth) {
      Diags.error(Loc, "expression nesting too deep");
      return std::nullopt;
    }
    advance();
    ++Depth;
    skipWhitespaceAndComments();
    auto Quoted = readDatum();
    --Depth;
    if (!Quoted)
      return std::nullopt;
    const Value Quote[] = {Value::symbol(Symbols.quote()), *Quoted};
    return H.list(Quote, Value::nil(), Loc);
  }
  if (C == '"') {
    advance();
    return readString(Loc);
  }
  return readAtom();
}

std::optional<Value> Reader::readList(SourceLocation Open) {
  // This list's items sit above Base on the shared stack until it closes.
  struct PopItems {
    std::vector<Value> &Items;
    const size_t Base;
    ~PopItems() { Items.resize(Base); }
  } Pop{Items, Items.size()};
  Value Tail = Value::nil();
  while (true) {
    skipWhitespaceAndComments();
    if (atEnd()) {
      Diags.error(Open, "unterminated list");
      return std::nullopt;
    }
    if (peek() == ')') {
      advance();
      break;
    }
    // Dotted tail: a lone "." followed by exactly one datum and ')'.
    if (peek() == '.' &&
        (Pos + 1 >= Src.size() || isDelimiter(Src[Pos + 1]))) {
      SourceLocation DotLoc = here();
      advance();
      if (Items.size() == Pop.Base) {
        Diags.error(DotLoc, "dotted pair with no car");
        return std::nullopt;
      }
      skipWhitespaceAndComments();
      auto TailDatum = readDatum();
      if (!TailDatum)
        return std::nullopt;
      Tail = *TailDatum;
      skipWhitespaceAndComments();
      if (atEnd() || peek() != ')') {
        Diags.error(DotLoc, "expected ')' after dotted tail");
        return std::nullopt;
      }
      advance();
      break;
    }
    auto Item = readDatum();
    if (!Item)
      return std::nullopt;
    Items.push_back(*Item);
  }
  return H.list(std::span<const Value>(Items).subspan(Pop.Base), Tail, Open);
}

std::optional<Value> Reader::readString(SourceLocation Open) {
  std::string Out;
  char C;
  for (StringStep S; (S = stringChar(C)) != StringStep::Close;) {
    if (S == StringStep::Unterminated) {
      Diags.error(Open, "unterminated string literal");
      return std::nullopt;
    }
    Out += C;
  }
  return H.string(std::move(Out));
}

Value Reader::readAtom() {
  SourceLocation Loc = here();
  size_t Start = Pos;
  skipAtom();
  std::string_view Text = Src.substr(Start, Pos - Start);
  assert(!Text.empty() && "readAtom with no characters");

  switch (classifyAtom(Text)) {
  case AtomClass::Fixnum: {
    long long N;
    if (!parseInteger(Text, N))
      break; // Out-of-range integers become symbols; no bignums here.
    return Value::fixnum(N);
  }
  case AtomClass::Ratio: {
    size_t Slash = Text.find('/');
    long long Num, Den;
    if (!parseInteger(Text.substr(0, Slash), Num) ||
        !parseInteger(Text.substr(Slash + 1), Den))
      break; // Out-of-range components become symbols, like fixnums.
    if (Den == 0) {
      Diags.error(Loc, "ratio with zero denominator: " + std::string(Text));
      return Value::nil();
    }
    return H.makeRatio(Num, Den);
  }
  case AtomClass::Flonum:
    return Value::flonum(strtod(std::string(Text).c_str(), nullptr));
  case AtomClass::Symbol:
    break;
  }
  if (Text == "nil")
    return Value::nil();
  return Value::symbol(symbolNamed(Text));
}

const Symbol *Reader::symbolNamed(std::string_view Name) {
  const Symbol *&Slot = SymbolCache[std::hash<std::string_view>{}(Name) &
                                    (SymbolCacheSize - 1)];
  if (!Slot || Slot->name() != Name)
    Slot = Symbols.intern(Name);
  return Slot;
}

bool Reader::scan(std::vector<FormSpan> &Spans) {
  // What read() would be nested in at this point, innermost last: '('
  // for an open list, '\'' for a quote waiting for its datum. read()
  // bounds the two together.
  char Open[MaxNestingDepth];
  unsigned Nesting = 0;
  FormSpan Span;
  while (true) {
    if (skipBlanks())
      return false;
    if (atEnd())
      return Nesting == 0;
    if (Nesting == 0) {
      Span.Offset = Pos;
      Span.Loc = here();
    }
    char C = peek();
    if (C == '(' || C == '\'') {
      if (Nesting >= MaxNestingDepth)
        return false;
      Open[Nesting++] = C;
      advance();
      continue;
    }
    if (C == ')') {
      if (Nesting == 0 || Open[Nesting - 1] != '(')
        return false;
      --Nesting;
      advance();
    } else if (C == '"') {
      advance();
      StringStep S;
      char Ignored;
      while ((S = stringChar(Ignored)) == StringStep::Char) {
      }
      if (S == StringStep::Unterminated)
        return false;
    } else {
      skipAtom();
    }
    // A datum just ended, and with it every quote that was waiting for it.
    while (Nesting > 0 && Open[Nesting - 1] == '\'')
      --Nesting;
    if (Nesting == 0) {
      Span.Length = Pos - Span.Offset;
      Spans.push_back(Span);
    }
  }
}

void Reader::seek(const FormSpan &S) {
  Pos = S.Offset;
  Line = S.Loc.Line;
  LineStart = S.Offset - (S.Loc.Column - 1);
}

std::vector<Value> sexpr::readAll(SymbolTable &Symbols, Heap &H,
                                  std::string_view Source, DiagEngine &Diags) {
  Reader R(Symbols, H, Source, Diags);
  return R.readAll();
}

Value sexpr::readOne(SymbolTable &Symbols, Heap &H, std::string_view Source) {
  DiagEngine Diags;
  Reader R(Symbols, H, Source, Diags);
  auto V = R.read();
  assert(V && !Diags.hasErrors() && "readOne: malformed input");
  return *V;
}
