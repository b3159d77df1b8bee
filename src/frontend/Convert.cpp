//===- frontend/Convert.cpp -----------------------------------------------===//

#include "frontend/Convert.h"

#include "ir/Primitives.h"
#include "sexpr/Printer.h"
#include "sexpr/Reader.h"
#include "stats/Stats.h"

#include <unordered_set>

S1_STAT(NumTopLevelForms, "frontend.forms", "top-level forms converted");
S1_STAT(NumDefuns, "frontend.defuns", "functions converted");
S1_STAT(NumSpecialsProclaimed, "frontend.specials",
        "special variables proclaimed");

using namespace s1lisp;
using namespace s1lisp::frontend;
using namespace s1lisp::ir;
using sexpr::Known;
using sexpr::Value;

namespace {

SourceLocation locOf(Value Form) {
  return Form.isCons() ? Form.consCell()->Loc : SourceLocation();
}

/// Whether Converter::convert expands \p S as an operator before it
/// considers a call. A function named after one could never be called,
/// nor could a lexical variable (a call through a variable names it in
/// function position).
bool namesSpecialForm(const sexpr::Symbol *S) {
  return S->known() >= sexpr::FirstSpecialForm &&
         S->known() <= sexpr::LastSpecialForm;
}

/// Whether \p V is the symbol \p K.
bool isKnown(Value V, Known K) {
  return V.isSymbol() && V.symbol()->known() == K;
}

/// Bound on Converter::Depth. let*, cond, and and or expand a flat list
/// into a nested tree, past the reader's nesting bound; every later phase
/// walks that tree recursively. At this bound the costliest mixes (a
/// let* chain around forms nested to the reader's bound) still compile,
/// interpret and run on an 8 MB thread stack.
constexpr unsigned MaxConvertDepth = 4000;

/// One defun's conversion state.
class Converter {
public:
  Converter(Module &M, Function &F, DiagEngine &Diags)
      : M(M), F(F), Diags(Diags), Syms(M.Syms) {}

  /// Converts (defun name lambda-list body...). Fills F.Root.
  bool convertDefunBody(Value LambdaList, Value BodyForms, SourceLocation Loc);

private:
  // --- scope management ---
  struct ScopeMark {
    size_t Depth;
  };
  ScopeMark markScope() const { return {Scope.size()}; }
  void popScope(ScopeMark Mark) { Scope.resize(Mark.Depth); }
  void bind(const sexpr::Symbol *Name, Variable *Var) { Scope.push_back({Name, Var}); }

  /// False, after one error, when a parameter or a let or prog variable
  /// is named after a special form: (when 5) would convert as the form,
  /// never as a call through the variable.
  bool bindable(const sexpr::Symbol *Name, SourceLocation Loc) {
    if (!namesSpecialForm(Name))
      return true;
    Diags.error(Loc, "cannot bind '" + Name->name() + "': it names a special form");
    return false;
  }

  Variable *lookupLexical(const sexpr::Symbol *Name) {
    for (size_t I = Scope.size(); I > 0; --I)
      if (Scope[I - 1].first == Name)
        return Scope[I - 1].second;
    return nullptr;
  }

  /// Special variables: one Variable per symbol per function, dynamic.
  Variable *specialVar(const sexpr::Symbol *Name) {
    auto It = SpecialVars.find(Name);
    if (It != SpecialVars.end())
      return It->second;
    Variable *V = F.makeVariable(Name, /*Special=*/true);
    SpecialVars.emplace(Name, V);
    return V;
  }

  bool isSpecialName(const sexpr::Symbol *Name) const {
    return M.isSpecial(Name) || LocalSpecials.count(Name);
  }

  // --- error helpers ---
  Node *errorAt(Value Form, const std::string &Msg) {
    Diags.error(locOf(Form), Msg);
    return F.makeNil();
  }

  /// RAII: one step of conversion that nests \p Levels tree levels below
  /// the enclosing one. Past MaxConvertDepth, tooDeep() reports the
  /// reader's error (once per defun) and the step converts to nil.
  class Nest {
  public:
    Nest(Converter &C, unsigned Levels) : C(C), Levels(Levels) { C.Depth += Levels; }
    ~Nest() { C.Depth -= Levels; }
    Nest(const Nest &) = delete;
    Nest &operator=(const Nest &) = delete;

    bool tooDeep(Value Form) {
      if (C.Depth <= MaxConvertDepth)
        return false;
      if (!C.ReportedTooDeep)
        C.Diags.error(locOf(Form), "expression nesting too deep");
      C.ReportedTooDeep = true;
      return true;
    }

  private:
    Converter &C;
    unsigned Levels;
  };

  Value sym(Known K) const { return Value::symbol(Syms.known(K)); }

  // --- conversion ---
  Node *convert(Value Form);
  Node *convertBody(Value Forms, SourceLocation Loc);
  Node *convertCall(Value Form);
  Node *convertLambdaForm(Value Form);
  bool parseLambdaList(LambdaNode *L, Value LambdaList, ScopeMark &BodyMark);

  /// Walks a let or prog binding list, converting each init form in the
  /// enclosing scope; false after reporting a malformed binding or a
  /// name that is not bindable.
  bool convertBindings(Value Form, Value Bindings, const char *What,
                       std::vector<const sexpr::Symbol *> &Names,
                       std::vector<Node *> &Inits);
  Node *convertLet(Value Form, bool Sequential);
  Node *convertCond(Value Form);
  Node *convertAnd(Value Rest);
  Node *convertOr(Value Rest);
  Node *convertProg(Value Form);
  Node *convertDo(Value Form);
  Node *convertDotimesDolist(Value Form, bool IsDotimes);
  Node *convertCase(Value Form);
  Node *convertCatch(Value Form);
  Node *convertSetq(Value Form);
  Node *convertProg1(Value Form, size_t KeepIndex);

  void scanDeclarations(Value &BodyForms);

  Module &M;
  Function &F;
  DiagEngine &Diags;
  sexpr::SymbolTable &Syms;

  std::vector<std::pair<const sexpr::Symbol *, Variable *>> Scope;
  std::unordered_map<const sexpr::Symbol *, Variable *> SpecialVars;
  std::unordered_set<const sexpr::Symbol *> LocalSpecials;

  /// Enclosing progbodies, innermost last, with their tag sets.
  struct ProgCtx {
    ProgBodyNode *Body;
    std::vector<const sexpr::Symbol *> Tags;
  };
  std::vector<ProgCtx> ProgStack;

  /// Tree levels the conversion in progress nests below the defun's
  /// lambda: one per convert() and per step of the cond and and
  /// expansions, two per step of or's (a call and a thunk).
  unsigned Depth = 0;
  bool ReportedTooDeep = false;
};

bool Converter::convertDefunBody(Value LambdaList, Value BodyForms,
                                 SourceLocation Loc) {
  LambdaNode *L = F.makeLambda();
  L->Loc = Loc;
  ScopeMark Outer = markScope();
  scanDeclarations(BodyForms);
  if (!parseLambdaList(L, LambdaList, Outer))
    return false;
  L->Body = convertBody(BodyForms, Loc);
  L->Body->Parent = L;
  popScope(Outer);
  F.Root = L;
  return !Diags.hasErrors();
}

/// Strips leading (declare ...) forms from a body, recording special
/// proclamations. Type declarations are accepted and ignored (the paper:
/// "treated as advice"; representation advice flows through the
/// type-specific operators instead).
void Converter::scanDeclarations(Value &BodyForms) {
  while (BodyForms.isCons()) {
    Value First = BodyForms.car();
    if (!First.isCons() || !isKnown(First.car(), Known::Declare))
      return;
    if (!sexpr::isProperList(First))
      Diags.error(locOf(First), "dotted list in declare");
    for (Value D = First.cdr(); D.isCons(); D = D.cdr()) {
      Value Decl = D.car();
      if (Decl.isCons() && !sexpr::isProperList(Decl))
        Diags.error(locOf(First), "dotted list in declaration");
      else if (Decl.isCons() && isKnown(Decl.car(), Known::Special)) {
        for (Value S = Decl.cdr(); S.isCons(); S = S.cdr())
          if (S.car().isSymbol())
            LocalSpecials.insert(S.car().symbol());
      }
      // Other declarations (type, ignore, ...) are advice; skip.
    }
    BodyForms = BodyForms.cdr();
  }
}

bool Converter::parseLambdaList(LambdaNode *L, Value LambdaList, ScopeMark &) {
  enum class Mode { Required, Optional, Rest, Done } Mode = Mode::Required;
  for (Value Cur = LambdaList; !Cur.isNil(); Cur = Cur.cdr()) {
    if (!Cur.isCons()) {
      Diags.error(locOf(LambdaList), "malformed lambda list");
      return false;
    }
    Value Item = Cur.car();
    if (isKnown(Item, Known::Optional)) {
      if (Mode != Mode::Required) {
        Diags.error(locOf(LambdaList), "&optional out of place");
        return false;
      }
      Mode = Mode::Optional;
      continue;
    }
    if (isKnown(Item, Known::Rest)) {
      if (Mode == Mode::Rest || Mode == Mode::Done) {
        Diags.error(locOf(LambdaList), "&rest out of place");
        return false;
      }
      Mode = Mode::Rest;
      continue;
    }

    // The parameter's name: the item, or the car of an &optional item.
    Value NameV = Item.isCons() ? Item.car() : Item;
    if (NameV.isSymbol() && !bindable(NameV.symbol(), locOf(LambdaList)))
      return false;

    auto makeParam = [&](const sexpr::Symbol *Name) {
      Variable *V = F.makeVariable(Name, isSpecialName(Name));
      V->Binder = L;
      bind(Name, V);
      return V;
    };

    switch (Mode) {
    case Mode::Required: {
      if (!Item.isSymbol()) {
        Diags.error(locOf(LambdaList), "required parameter must be a symbol");
        return false;
      }
      L->Required.push_back(makeParam(Item.symbol()));
      break;
    }
    case Mode::Optional: {
      const sexpr::Symbol *Name = nullptr;
      Node *Default = nullptr;
      if (Item.isSymbol()) {
        Name = Item.symbol();
      } else if (Item.isCons() && !sexpr::isProperList(Item)) {
        Diags.error(locOf(LambdaList), "dotted list in &optional parameter");
        return false;
      } else if (Item.isCons() && Item.car().isSymbol()) {
        Name = Item.car().symbol();
        if (Item.cdr().isCons())
          Default = convert(Item.cdr().car()); // sees earlier params
      }
      if (!Name) {
        Diags.error(locOf(LambdaList), "malformed &optional parameter");
        return false;
      }
      if (!Default)
        Default = F.makeNil();
      Variable *V = makeParam(Name);
      Default->Parent = L;
      L->Optionals.push_back({V, Default});
      break;
    }
    case Mode::Rest: {
      if (!Item.isSymbol()) {
        Diags.error(locOf(LambdaList), "&rest parameter must be a symbol");
        return false;
      }
      L->Rest = makeParam(Item.symbol());
      Mode = Mode::Done;
      break;
    }
    case Mode::Done:
      Diags.error(locOf(LambdaList), "parameters after &rest");
      return false;
    }
  }
  if (Mode == Mode::Rest) {
    Diags.error(locOf(LambdaList), "&rest with no parameter name");
    return false;
  }
  return true;
}

Node *Converter::convertBody(Value Forms, SourceLocation Loc) {
  scanDeclarations(Forms);
  std::vector<Node *> Converted;
  for (Value Cur = Forms; Cur.isCons(); Cur = Cur.cdr())
    Converted.push_back(convert(Cur.car()));
  if (Converted.empty())
    return F.makeNil();
  if (Converted.size() == 1)
    return Converted.front();
  PrognNode *P = F.makeProgn(std::move(Converted));
  P->Loc = Loc;
  return P;
}

Node *Converter::convert(Value Form) {
  Nest Level(*this, 1);
  if (Level.tooDeep(Form))
    return F.makeNil();
  // Self-evaluating atoms.
  if (Form.isNumber() || Form.isString() || Form.isNil()) {
    Node *N = F.makeLiteral(Form);
    return N;
  }
  if (Form.isSymbol()) {
    const sexpr::Symbol *S = Form.symbol();
    if (S == Syms.t())
      return F.makeLiteral(Value::symbol(S));
    if (isSpecialName(S))
      return F.makeVarRef(specialVar(S));
    if (Variable *V = lookupLexical(S))
      return F.makeVarRef(V);
    // Classic Lisp: a free reference is assumed to be a special variable.
    Diags.warning(SourceLocation(),
                  "free variable '" + S->name() + "' assumed special");
    return F.makeVarRef(specialVar(S));
  }

  assert(Form.isCons() && "unexpected value kind");
  Value Head = Form.car();
  // Code must be a proper list; quoted data may still be dotted.
  if (!sexpr::isProperList(Form))
    return errorAt(Form, Head.isSymbol()
                             ? "dotted list in '" + Head.symbol()->name() +
                                   "' form"
                             : std::string("dotted list in form"));

  // ((lambda ...) args): direct lambda application (LET after expansion).
  if (Head.isCons()) {
    if (isKnown(Head.car(), Known::Lambda)) {
      Node *Callee = convertLambdaForm(Head);
      std::vector<Node *> Args;
      for (Value A = Form.cdr(); A.isCons(); A = A.cdr())
        Args.push_back(convert(A.car()));
      CallNode *C = F.makeCallExpr(Callee, std::move(Args));
      C->Loc = locOf(Form);
      return C;
    }
    return errorAt(Form, "illegal function position");
  }
  if (!Head.isSymbol())
    return errorAt(Form, "illegal function position");

  const sexpr::Symbol *Op = Head.symbol();
  Value Rest = Form.cdr();

  switch (Op->known()) {
  // --- special forms of the basic set ---
  case Known::Quote:
    if (!Rest.isCons() || !Rest.cdr().isNil())
      return errorAt(Form, "quote takes exactly one form");
    return F.makeLiteral(Rest.car());
  case Known::If: {
    size_t N = sexpr::isProperList(Rest) ? sexpr::listLength(Rest) : 0;
    if (N < 2 || N > 3)
      return errorAt(Form, "if takes two or three forms");
    Node *Test = convert(Rest.car());
    Node *Then = convert(Rest.cdr().car());
    Node *Else = N == 3 ? convert(Rest.cdr().cdr().car()) : F.makeNil();
    IfNode *I = F.makeIf(Test, Then, Else);
    I->Loc = locOf(Form);
    return I;
  }
  case Known::Progn:
    return convertBody(Rest, locOf(Form));
  case Known::Lambda:
    return convertLambdaForm(Form);
  case Known::Setq:
    return convertSetq(Form);
  case Known::Go: {
    if (!Rest.isCons() || !Rest.car().isSymbol())
      return errorAt(Form, "go takes a tag symbol");
    const sexpr::Symbol *Tag = Rest.car().symbol();
    for (size_t I = ProgStack.size(); I > 0; --I) {
      ProgCtx &Ctx = ProgStack[I - 1];
      for (const sexpr::Symbol *T : Ctx.Tags)
        if (T == Tag)
          return F.makeGo(Tag, Ctx.Body);
    }
    return errorAt(Form, "go to unknown tag '" + Tag->name() + "'");
  }
  case Known::Return: {
    if (ProgStack.empty())
      return errorAt(Form, "return outside prog");
    Node *V = Rest.isCons() ? convert(Rest.car()) : F.makeNil();
    return F.makeReturn(V, ProgStack.back().Body);
  }

  // --- macros expanded into the basic set ---
  case Known::Let:
    return convertLet(Form, /*Sequential=*/false);
  case Known::LetStar:
    return convertLet(Form, /*Sequential=*/true);
  case Known::Cond:
    return convertCond(Form);
  case Known::And:
    return convertAnd(Rest);
  case Known::Or:
    return convertOr(Rest);
  case Known::When:
    if (!Rest.isCons())
      return errorAt(Form, "when needs a test");
    return F.makeIf(convert(Rest.car()), convertBody(Rest.cdr(), locOf(Form)),
                    F.makeNil());
  case Known::Unless:
    if (!Rest.isCons())
      return errorAt(Form, "unless needs a test");
    return F.makeIf(convert(Rest.car()), F.makeNil(),
                    convertBody(Rest.cdr(), locOf(Form)));
  case Known::Prog:
    return convertProg(Form);
  case Known::Do:
    return convertDo(Form);
  case Known::Dotimes:
    return convertDotimesDolist(Form, /*IsDotimes=*/true);
  case Known::Dolist:
    return convertDotimesDolist(Form, /*IsDotimes=*/false);
  case Known::Case:
  case Known::Caseq:
    return convertCase(Form);
  case Known::Catch:
  case Known::Catcher:
    return convertCatch(Form);
  case Known::Prog1:
    return convertProg1(Form, 0);
  case Known::Prog2:
    return convertProg1(Form, 1);
  case Known::Function: {
    // (function f) names a function; (function (lambda ...)) is the lambda.
    if (!Rest.isCons() || !Rest.cdr().isNil())
      return errorAt(Form, "function takes exactly one designator");
    Value Designator = Rest.car();
    if (Designator.isSymbol())
      return F.makeCall(Op, {F.makeLiteral(Designator)});
    if (Designator.isCons() && isKnown(Designator.car(), Known::Lambda))
      return convertLambdaForm(Designator);
    return errorAt(Form, "function needs a symbol or lambda");
  }
  default:
    return convertCall(Form);
  }
}

Node *Converter::convertCall(Value Form) {
  const sexpr::Symbol *Op = Form.car().symbol();
  std::vector<Node *> Args;
  for (Value A = Form.cdr(); A.isCons(); A = A.cdr())
    Args.push_back(convert(A.car()));

  // A lexically bound variable in function position is called through the
  // variable — the paper's dialect writes (f) for a let-bound function f
  // (see the §5 derivations).
  if (Variable *V = lookupLexical(Op)) {
    CallNode *C = F.makeCallExpr(F.makeVarRef(V), std::move(Args));
    C->Loc = locOf(Form);
    return C;
  }

  if (const PrimInfo *P = lookupPrim(Op)) {
    if (!P->acceptsArgCount(Args.size()))
      return errorAt(Form, std::string("wrong number of arguments to '") +
                               P->Name + "'");
  }
  CallNode *C = F.makeCall(Op, std::move(Args));
  C->Loc = locOf(Form);
  return C;
}

Node *Converter::convertLambdaForm(Value Form) {
  // (lambda lambda-list body...)
  Value Rest = Form.cdr();
  if (!Rest.isCons())
    return errorAt(Form, "lambda needs a parameter list");
  LambdaNode *L = F.makeLambda();
  L->Loc = locOf(Form);
  ScopeMark Outer = markScope();
  Value Body = Rest.cdr();
  scanDeclarations(Body);
  if (!parseLambdaList(L, Rest.car(), Outer))
    return F.makeNil();
  L->Body = convertBody(Body, locOf(Form));
  L->Body->Parent = L;
  popScope(Outer);
  return L;
}

bool Converter::convertBindings(Value Form, Value Bindings, const char *What,
                                std::vector<const sexpr::Symbol *> &Names,
                                std::vector<Node *> &Inits) {
  for (Value B = Bindings; !B.isNil(); B = B.cdr()) {
    if (!B.isCons()) {
      errorAt(Form, std::string("malformed ") + What + " binding list");
      return false;
    }
    Value Binding = B.car();
    if (Binding.isSymbol()) {
      Names.push_back(Binding.symbol());
      Inits.push_back(F.makeNil());
    } else if (Binding.isCons() && !sexpr::isProperList(Binding)) {
      errorAt(Form, std::string("dotted list in ") + What + " binding");
      return false;
    } else if (Binding.isCons() && Binding.car().isSymbol()) {
      Names.push_back(Binding.car().symbol());
      Inits.push_back(Binding.cdr().isCons() ? convert(Binding.cdr().car())
                                             : F.makeNil());
    } else {
      errorAt(Form, std::string("malformed ") + What + " binding");
      return false;
    }
  }
  for (const sexpr::Symbol *Name : Names)
    if (!bindable(Name, locOf(Form)))
      return false;
  return true;
}

Node *Converter::convertLet(Value Form, bool Sequential) {
  Value Rest = Form.cdr();
  if (!Rest.isCons())
    return errorAt(Form, "let needs a binding list");
  Value Bindings = Rest.car();
  Value Body = Rest.cdr();

  if (Sequential && Bindings.isCons() && Bindings.cdr().isCons()) {
    // (let* ((a x) more...) body) => (let ((a x)) (let* (more...) body))
    Value Inner = F.dataHeap().cons(
        sym(Known::LetStar),
        F.dataHeap().cons(Bindings.cdr(), Body, locOf(Form)), locOf(Form));
    Value Outer = F.dataHeap().list(
        {sym(Known::Let),
         F.dataHeap().cons(Bindings.car(), Value::nil()), Inner});
    return convert(Outer);
  }

  // (let ((v1 e1) (v2 e2) v3) body) => ((lambda (v1 v2 v3) body) e1 e2 nil)
  std::vector<const sexpr::Symbol *> Names;
  std::vector<Node *> Inits; // converted in the OUTER scope
  if (!convertBindings(Form, Bindings, "let", Names, Inits))
    return F.makeNil();

  LambdaNode *L = F.makeLambda();
  L->Loc = locOf(Form);
  ScopeMark Outer = markScope();
  for (const sexpr::Symbol *Name : Names) {
    Variable *V = F.makeVariable(Name, isSpecialName(Name));
    V->Binder = L;
    bind(Name, V);
    L->Required.push_back(V);
  }
  L->Body = convertBody(Body, locOf(Form));
  L->Body->Parent = L;
  popScope(Outer);
  CallNode *C = F.makeCallExpr(L, std::move(Inits));
  C->Loc = locOf(Form);
  return C;
}

Node *Converter::convertCond(Value Form) {
  // (cond) => nil ; (cond (test) rest) => (or test (cond rest...))
  // (cond (test body..) rest) => (if test (progn body..) (cond rest...))
  // (cond (t body..)) => (progn body..)
  Nest Level(*this, 1);
  if (Level.tooDeep(Form))
    return F.makeNil();
  Value Clauses = Form.cdr();
  if (Clauses.isNil())
    return F.makeNil();
  if (!Clauses.isCons())
    return errorAt(Form, "malformed cond");
  Value Clause = Clauses.car();
  if (!Clause.isCons())
    return errorAt(Form, "malformed cond clause");
  if (!sexpr::isProperList(Clause))
    return errorAt(Form, "dotted list in cond clause");
  Value Test = Clause.car();
  Value Body = Clause.cdr();
  Value RestClauses =
      F.dataHeap().cons(sym(Known::Cond), Clauses.cdr(), locOf(Form));

  bool TestIsT = Test.isSymbol() && Test.symbol() == Syms.t();
  if (Body.isNil()) {
    if (TestIsT)
      return F.makeLiteral(Value::symbol(Syms.t()));
    // Value-producing test: reuse the or-expansion to avoid double eval.
    return convertOr(F.dataHeap().list({Test, RestClauses}));
  }
  if (TestIsT)
    return convertBody(Body, locOf(Form));
  Node *Then = convertBody(Body, locOf(Form));
  // What convert() would do with the rest, minus its spine check, which
  // the whole form has passed: rechecking it per clause is quadratic.
  Node *Else = convertCond(RestClauses);
  IfNode *I = F.makeIf(convert(Test), Then, Else);
  I->Loc = locOf(Form);
  return I;
}

Node *Converter::convertAnd(Value Rest) {
  // (and) => t ; (and a) => a ; (and a more..) => (if a (and more..) nil)
  Nest Level(*this, 1);
  if (Level.tooDeep(Rest))
    return F.makeNil();
  if (Rest.isNil())
    return F.makeLiteral(Value::symbol(Syms.t()));
  if (Rest.cdr().isNil())
    return convert(Rest.car());
  Node *Test = convert(Rest.car());
  Node *Then = convertAnd(Rest.cdr());
  return F.makeIf(Test, Then, F.makeNil());
}

Node *Converter::convertOr(Value Rest) {
  // (or) => nil ; (or a) => a
  // (or a more..) => ((lambda (v f) (if v v (f))) a (lambda () (or more..)))
  // — the paper's expansion, avoiding double evaluation of a (§5).
  Nest Level(*this, 2);
  if (Level.tooDeep(Rest))
    return F.makeNil();
  if (Rest.isNil())
    return F.makeNil();
  if (Rest.cdr().isNil())
    return convert(Rest.car());

  Node *First = convert(Rest.car());

  LambdaNode *Thunk = F.makeLambda();
  Thunk->Body = convertOr(Rest.cdr());
  Thunk->Body->Parent = Thunk;

  LambdaNode *L = F.makeLambda();
  Variable *V = F.makeVariable(Syms.known(Known::V), false);
  Variable *Fv = F.makeVariable(Syms.known(Known::F), false);
  V->Binder = L;
  Fv->Binder = L;
  L->Required = {V, Fv};
  Node *Call = F.makeCallExpr(F.makeVarRef(Fv), {});
  L->Body = F.makeIf(F.makeVarRef(V), F.makeVarRef(V), Call);
  L->Body->Parent = L;

  return F.makeCallExpr(L, {First, Thunk});
}

Node *Converter::convertSetq(Value Form) {
  // (setq v1 e1 v2 e2 ...) — value of the last assignment.
  Value Rest = Form.cdr();
  if (Rest.isNil())
    return F.makeNil();
  std::vector<Node *> Assignments;
  while (Rest.isCons()) {
    if (!Rest.car().isSymbol() || !Rest.cdr().isCons())
      return errorAt(Form, "malformed setq");
    const sexpr::Symbol *Name = Rest.car().symbol();
    Node *E = convert(Rest.cdr().car());
    Variable *V;
    if (isSpecialName(Name)) {
      V = specialVar(Name);
    } else if ((V = lookupLexical(Name)) == nullptr) {
      Diags.warning(locOf(Form),
                    "setq of free variable '" + Name->name() + "' assumed special");
      V = specialVar(Name);
    }
    SetqNode *S = F.makeSetq(V, E);
    S->Loc = locOf(Form);
    Assignments.push_back(S);
    Rest = Rest.cdr().cdr();
  }
  if (Assignments.size() == 1)
    return Assignments.front();
  return F.makeProgn(std::move(Assignments));
}

Node *Converter::convertProg(Value Form) {
  // (prog (vars) stmt-or-tag ...) =>
  //   (let (vars) (progbody ...))   with an implicit (return nil) fall-off.
  Value Rest = Form.cdr();
  if (!Rest.isCons())
    return errorAt(Form, "prog needs a binding list");
  Value Bindings = Rest.car();
  Value Stmts = Rest.cdr();

  // Bind the prog variables exactly like let.
  std::vector<const sexpr::Symbol *> Names;
  std::vector<Node *> Inits;
  if (!convertBindings(Form, Bindings, "prog", Names, Inits))
    return F.makeNil();

  LambdaNode *L = F.makeLambda();
  L->Loc = locOf(Form);
  ScopeMark Outer = markScope();
  for (const sexpr::Symbol *Name : Names) {
    Variable *V = F.makeVariable(Name, isSpecialName(Name));
    V->Binder = L;
    bind(Name, V);
    L->Required.push_back(V);
  }

  // Collect tags first so forward gos resolve.
  std::vector<const sexpr::Symbol *> Tags;
  for (Value S = Stmts; S.isCons(); S = S.cdr())
    if (S.car().isSymbol())
      Tags.push_back(S.car().symbol());

  ProgBodyNode *PB = F.makeProgBody({});
  ProgStack.push_back({PB, Tags});
  std::vector<ProgBodyNode::Item> Items;
  for (Value S = Stmts; S.isCons(); S = S.cdr()) {
    Value Stmt = S.car();
    if (Stmt.isSymbol())
      Items.push_back({Stmt.symbol(), nullptr});
    else
      Items.push_back({nullptr, convert(Stmt)});
  }
  ProgStack.pop_back();
  PB->Items = std::move(Items);
  for (auto &I : PB->Items)
    if (I.Stmt)
      I.Stmt->Parent = PB;

  L->Body = PB;
  PB->Parent = L;
  popScope(Outer);
  return F.makeCallExpr(L, std::move(Inits));
}

Node *Converter::convertDo(Value Form) {
  // (do ((v init step)...) (end-test result...) body...) =>
  // (prog ((v init)...)
  //   loop (when end-test (return (progn result...)))
  //        body...
  //        <parallel step>
  //        (go loop))
  sexpr::Heap &H = F.dataHeap();
  Value Rest = Form.cdr();
  if (!Rest.isCons() || !Rest.cdr().isCons())
    return errorAt(Form, "malformed do");
  Value VarSpecs = Rest.car();
  Value EndClause = Rest.cdr().car();
  Value Body = Rest.cdr().cdr();
  if (!EndClause.isCons())
    return errorAt(Form, "do needs an (end-test result...) clause");
  if (!sexpr::isProperList(EndClause))
    return errorAt(Form, "dotted list in do end clause");

  std::vector<Value> Bindings;
  std::vector<std::pair<Value, Value>> Steps; // (var, step-expr)
  if (VarSpecs.isCons() && !sexpr::isProperList(VarSpecs))
    return errorAt(Form, "dotted list in do variable specs");
  for (Value VS = VarSpecs; VS.isCons(); VS = VS.cdr()) {
    Value Spec = VS.car();
    if (Spec.isSymbol()) {
      Bindings.push_back(Spec);
      continue;
    }
    if (!Spec.isCons() || !Spec.car().isSymbol())
      return errorAt(Form, "malformed do variable spec");
    if (!sexpr::isProperList(Spec))
      return errorAt(Form, "dotted list in do variable spec");
    Value Var = Spec.car();
    Value Init = Spec.cdr().isCons() ? Spec.cdr().car() : Value::nil();
    Bindings.push_back(H.list({Var, Init}));
    if (Spec.cdr().isCons() && Spec.cdr().cdr().isCons())
      Steps.push_back({Var, Spec.cdr().cdr().car()});
  }

  Value LoopTag = sym(Known::DoLoop);
  Value EndTest = EndClause.car();
  Value ResultForms = EndClause.cdr();
  Value ReturnForm = H.list(
      {sym(Known::Return),
       H.cons(sym(Known::Progn), ResultForms, locOf(Form))});
  Value WhenForm =
      H.list({sym(Known::When), EndTest, ReturnForm});

  std::vector<Value> Stmts{LoopTag, WhenForm};
  for (Value BodyForm = Body; BodyForm.isCons(); BodyForm = BodyForm.cdr())
    Stmts.push_back(BodyForm.car());

  // Parallel stepping: ((lambda (t1..tn) (setq v1 t1) ... ) step1 .. stepn)
  if (!Steps.empty()) {
    std::vector<Value> TempNames, SetqForms, StepExprs;
    for (size_t I = 0; I < Steps.size(); ++I) {
      Value Temp = Value::symbol(Syms.intern("do-step-" + std::to_string(I)));
      TempNames.push_back(Temp);
      SetqForms.push_back(H.list({sym(Known::Setq), Steps[I].first, Temp}));
      StepExprs.push_back(Steps[I].second);
    }
    std::vector<Value> LambdaForm{sym(Known::Lambda), H.list(TempNames)};
    for (Value SF : SetqForms)
      LambdaForm.push_back(SF);
    std::vector<Value> CallForm{H.list(LambdaForm)};
    for (Value SE : StepExprs)
      CallForm.push_back(SE);
    Stmts.push_back(H.list(CallForm));
  }
  Stmts.push_back(H.list({sym(Known::Go), LoopTag}));

  std::vector<Value> ProgForm{sym(Known::Prog), H.list(Bindings)};
  for (Value S : Stmts)
    ProgForm.push_back(S);
  return convert(H.list(ProgForm));
}

Node *Converter::convertDotimesDolist(Value Form, bool IsDotimes) {
  sexpr::Heap &H = F.dataHeap();
  Value Rest = Form.cdr();
  if (!Rest.isCons() || !Rest.car().isCons())
    return errorAt(Form, "malformed dotimes/dolist header");
  Value Header = Rest.car();
  if (!sexpr::isProperList(Header))
    return errorAt(Form, "dotted list in dotimes/dolist header");
  Value Var = Header.car();
  if (!Var.isSymbol())
    return errorAt(Form, "dotimes/dolist variable must be a symbol");
  Value Limit = Header.cdr().isCons() ? Header.cdr().car() : Value::nil();
  Value Result = Header.cdr().cdr().isCons() ? Header.cdr().cdr().car() : Value::nil();
  Value Body = Rest.cdr();

  if (IsDotimes) {
    // (do ((var 0 (1+ var)) (lim limit)) ((>= var lim) result) body...)
    Value LimVar = sym(Known::DotimesLimit);
    Value Do = H.list(
        {sym(Known::Do),
         H.list({H.list({Var, Value::fixnum(0),
                         H.list({sym(Known::OnePlus), Var})}),
                 H.list({LimVar, Limit})}),
         H.list({H.list({sym(Known::GreaterOrEqual), Var, LimVar}), Result})});
    std::vector<Value> Full = sexpr::listToVector(Do);
    for (Value BodyForm = Body; BodyForm.isCons(); BodyForm = BodyForm.cdr())
      Full.push_back(BodyForm.car());
    return convert(H.list(Full));
  }

  // (do ((tail list (cdr tail))) ((null tail) result)
  //   (let ((var (car tail))) body...))
  Value TailVar = sym(Known::DolistTail);
  std::vector<Value> LetBody{sym(Known::Let),
                             H.list({H.list({Var, H.list({sym(Known::Car), TailVar})})})};
  for (Value BodyForm = Body; BodyForm.isCons(); BodyForm = BodyForm.cdr())
    LetBody.push_back(BodyForm.car());
  Value Do = H.list({sym(Known::Do),
                     H.list({H.list({TailVar, Limit,
                                     H.list({sym(Known::Cdr), TailVar})})}),
                     H.list({H.list({sym(Known::Null), TailVar}), Result}),
                     H.list(LetBody)});
  return convert(Do);
}

Node *Converter::convertCase(Value Form) {
  Value Rest = Form.cdr();
  if (!Rest.isCons())
    return errorAt(Form, "case needs a key form");
  Node *Key = convert(Rest.car());
  std::vector<CaseqNode::Clause> Clauses;
  Node *Default = nullptr;
  for (Value C = Rest.cdr(); C.isCons(); C = C.cdr()) {
    Value Clause = C.car();
    if (!Clause.isCons())
      return errorAt(Form, "malformed case clause");
    Value Keys = Clause.car();
    if (!sexpr::isProperList(Clause) ||
        (Keys.isCons() && !sexpr::isProperList(Keys)))
      return errorAt(Form, "dotted list in case clause");
    Node *Body = convertBody(Clause.cdr(), locOf(Form));
    bool IsDefault =
        Keys.isSymbol() &&
        (Keys.symbol() == Syms.t() || Keys.symbol()->known() == Known::Otherwise);
    if (IsDefault) {
      if (Default)
        return errorAt(Form, "case has two default clauses");
      Default = Body;
      continue;
    }
    std::vector<Value> KeyList;
    if (Keys.isCons())
      KeyList = sexpr::listToVector(Keys);
    else
      KeyList.push_back(Keys);
    Clauses.push_back({std::move(KeyList), Body});
  }
  if (!Default)
    Default = F.makeNil();
  CaseqNode *N = F.makeCaseq(Key, std::move(Clauses), Default);
  N->Loc = locOf(Form);
  return N;
}

Node *Converter::convertCatch(Value Form) {
  // (catch tag body...) => catcher node.
  Value Rest = Form.cdr();
  if (!Rest.isCons())
    return errorAt(Form, "catch needs a tag");
  Node *Tag = convert(Rest.car());
  Node *Body = convertBody(Rest.cdr(), locOf(Form));
  CatcherNode *C = F.makeCatcher(Tag, Body);
  C->Loc = locOf(Form);
  return C;
}

Node *Converter::convertProg1(Value Form, size_t KeepIndex) {
  // (prog1 a b c) => ((lambda (v) b c v) a)
  // (prog2 a b c) => (progn a ((lambda (v) c v) b))
  Value Rest = Form.cdr();
  std::vector<Value> Forms = sexpr::listToVector(Rest);
  if (Forms.size() <= KeepIndex)
    return errorAt(Form, "too few forms for prog1/prog2");
  sexpr::Heap &H = F.dataHeap();
  Value KeepVar = sym(Known::Prog1Value);
  std::vector<Value> LambdaForm{sym(Known::Lambda), H.list({KeepVar})};
  for (size_t I = KeepIndex + 1; I < Forms.size(); ++I)
    LambdaForm.push_back(Forms[I]);
  LambdaForm.push_back(KeepVar);
  Value Call = H.list({H.list(LambdaForm), Forms[KeepIndex]});
  if (KeepIndex == 0)
    return convert(Call);
  std::vector<Value> Progn{sym(Known::Progn)};
  for (size_t I = 0; I < KeepIndex; ++I)
    Progn.push_back(Forms[I]);
  Progn.push_back(Call);
  return convert(H.list(Progn));
}

} // namespace

std::vector<const sexpr::Symbol *> frontend::proclaimedSpecials(Value Form) {
  std::vector<const sexpr::Symbol *> Out;
  if (!Form.isCons() || !Form.car().isSymbol())
    return Out;
  const Known Head = Form.car().symbol()->known();
  auto Second = [](Value L) {
    return L.isCons() && L.cdr().isCons() ? L.cdr().car() : Value::nil();
  };
  Value Arg = Second(Form);
  if (Head == Known::Defvar || Head == Known::Defparameter) {
    if (Arg.isSymbol())
      Out.push_back(Arg.symbol());
  } else if (Head == Known::Proclaim) {
    // (proclaim (special a b ...)) — we accept the quoted form too.
    if (Arg.isCons() && isKnown(Arg.car(), Known::Quote))
      Arg = Second(Arg);
    if (Arg.isCons() && isKnown(Arg.car(), Known::Special))
      for (Value S = Arg.cdr(); S.isCons(); S = S.cdr())
        if (S.car().isSymbol())
          Out.push_back(S.car().symbol());
  }
  return Out;
}

ir::Function *frontend::convertTopLevel(Module &M, Value Form, DiagEngine &Diags) {
  if (!Form.isCons() || !Form.car().isSymbol()) {
    Diags.error(locOf(Form), "top-level form must be defun, defvar, or proclaim");
    return nullptr;
  }
  const Known Head = Form.car().symbol()->known();
  ++NumTopLevelForms;

  if (Head == Known::Defvar || Head == Known::Defparameter ||
      Head == Known::Proclaim) {
    std::vector<const sexpr::Symbol *> Proclaimed = proclaimedSpecials(Form);
    if (Head != Known::Proclaim && Proclaimed.empty()) {
      Diags.error(locOf(Form), "defvar needs a symbol");
      return nullptr;
    }
    for (const sexpr::Symbol *S : Proclaimed) {
      M.Specials.push_back(S);
      ++NumSpecialsProclaimed;
    }
    return nullptr;
  }
  if (Head != Known::Defun) {
    Diags.error(locOf(Form), "unsupported top-level form '" +
                                 Form.car().symbol()->name() + "'");
    return nullptr;
  }
  if (!sexpr::isProperList(Form)) {
    Diags.error(locOf(Form), "dotted list in defun");
    return nullptr;
  }

  Value Rest = Form.cdr();
  if (!Rest.isCons() || !Rest.car().isSymbol()) {
    Diags.error(locOf(Form), "defun needs a function name");
    return nullptr;
  }
  const sexpr::Symbol *Name = Rest.car().symbol();
  // A call to such a name converts as the special form or the primitive,
  // never as a call to the defun.
  const char *Taken = namesSpecialForm(Name) ? "special form"
                      : lookupPrim(Name)       ? "primitive"
                                               : nullptr;
  if (Taken) {
    Diags.error(locOf(Form),
                "cannot define '" + Name->name() + "': it names a " + Taken);
    return nullptr;
  }
  if (!Rest.cdr().isCons()) {
    Diags.error(locOf(Form), "defun needs a lambda list");
    return nullptr;
  }
  Value LambdaList = Rest.cdr().car();
  Value Body = Rest.cdr().cdr();

  Function *F = M.addFunction(Name->name());
  Converter C(M, *F, Diags);
  if (!C.convertDefunBody(LambdaList, Body, locOf(Form)))
    return nullptr;

  recomputeVariableRefs(*F);
  if (!verifyAfter("frontend.convert", *F, &Diags))
    return nullptr;
  ++NumDefuns;
  return F;
}

bool frontend::convertSource(Module &M, std::string_view Source, DiagEngine &Diags) {
  std::vector<Value> Forms;
  {
    stats::PhaseTimer Timer("frontend.read");
    Forms = sexpr::readAll(M.Syms, M.DataHeap, Source, Diags);
  }
  if (Diags.hasErrors())
    return false;
  for (Value Form : Forms)
    convertTopLevel(M, Form, Diags);
  return !Diags.hasErrors();
}

ir::Function *frontend::convertDefun(Module &M, std::string_view Source) {
  DiagEngine Diags;
  auto Forms = sexpr::readAll(M.Syms, M.DataHeap, Source, Diags);
  Function *Result = nullptr;
  for (Value Form : Forms) {
    Function *F = convertTopLevel(M, Form, Diags);
    if (F)
      Result = F;
  }
  assert(Result && !Diags.hasErrors() && "convertDefun: conversion failed");
  return Result;
}
