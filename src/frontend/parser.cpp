#include "frontend/parser.h"

#include <cstdint>

#include "frontend/lexer.h"
#include "support/strings.h"

namespace cash {

Program
parseProgram(const std::string& source)
{
    Lexer lexer(source);
    Parser parser(lexer.lexAll());
    return parser.parse();
}

Parser::Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

const Token&
Parser::peek(int ahead) const
{
    size_t p = pos_ + ahead;
    if (p >= tokens_.size())
        p = tokens_.size() - 1;  // EOF token
    return tokens_[p];
}

Token
Parser::consume()
{
    Token t = current();
    if (pos_ + 1 < tokens_.size())
        pos_++;
    return t;
}

Token
Parser::expect(Tok kind, const std::string& what)
{
    if (!current().is(kind)) {
        fatalAt(current().loc, "expected " + std::string(tokName(kind)) +
                                   " " + what + ", found " +
                                   tokName(current().kind));
    }
    return consume();
}

bool
Parser::accept(Tok kind)
{
    if (!current().is(kind))
        return false;
    consume();
    return true;
}

bool
Parser::atTypeStart(int ahead) const
{
    switch (peek(ahead).kind) {
      case Tok::KwInt:
      case Tok::KwUnsigned:
      case Tok::KwChar:
      case Tok::KwLong:
      case Tok::KwVoid:
      case Tok::KwConst:
      case Tok::KwExtern:
      case Tok::KwStatic:
      case Tok::KwSigned:
        return true;
      default:
        return false;
    }
}

Program
Parser::parse()
{
    while (!current().is(Tok::EndOfFile))
        parseTopLevel();
    return std::move(program_);
}

void
Parser::parseTopLevel()
{
    if (current().is(Tok::Pragma)) {
        Token t = consume();
        parsePragma(t, "");
        return;
    }
    if (accept(Tok::Semicolon))
        return;

    bool isExtern = false, isConst = false;
    TypePtr base = parseDeclSpecifiers(&isExtern, &isConst);
    parseGlobalTail(base, isExtern, isConst);
}

void
Parser::parsePragma(const Token& tok, const std::string& scope)
{
    // tok.text holds everything after '#', e.g. "pragma independent p q".
    std::vector<std::string> words;
    for (const std::string& w : split(trim(tok.text), ' '))
        if (!w.empty())
            words.push_back(w);
    if (words.size() >= 1 && words[0] == "pragma") {
        if (words.size() == 4 && words[1] == "independent") {
            PragmaIndependent p;
            p.funcName = scope;
            p.first = words[2];
            p.second = words[3];
            p.loc = tok.loc;
            program_.pragmas.push_back(std::move(p));
            return;
        }
        warn(tok.loc.str() + ": ignoring unknown pragma '" + tok.text + "'");
        return;
    }
    fatalAt(tok.loc, "Mini-C has no preprocessor; only #pragma is allowed");
}

TypePtr
Parser::parseDeclSpecifiers(bool* isExtern, bool* isConst)
{
    *isExtern = false;
    *isConst = false;
    bool sawUnsigned = false, sawSigned = false;
    bool sawChar = false, sawIntish = false, sawVoid = false;

    for (;;) {
        switch (current().kind) {
          case Tok::KwExtern: consume(); *isExtern = true; continue;
          case Tok::KwStatic: consume(); continue;  // storage is irrelevant
          case Tok::KwConst: consume(); *isConst = true; continue;
          case Tok::KwUnsigned: consume(); sawUnsigned = true; continue;
          case Tok::KwSigned: consume(); sawSigned = true; continue;
          case Tok::KwInt:
          case Tok::KwLong: consume(); sawIntish = true; continue;
          case Tok::KwChar: consume(); sawChar = true; continue;
          case Tok::KwVoid: consume(); sawVoid = true; continue;
          default: break;
        }
        break;
    }

    (void)sawSigned;
    TypePtr t;
    if (sawVoid)
        t = Type::makeVoid();
    else if (sawChar)
        t = sawUnsigned ? Type::makeUChar() : Type::makeChar();
    else if (sawUnsigned)
        t = Type::makeUInt();
    else if (sawIntish || sawSigned)
        t = Type::makeInt();
    else
        fatalAt(current().loc, "expected a type specifier");

    if (*isConst)
        t = Type::makeConst(t);
    return t;
}

TypePtr
Parser::parsePointers(TypePtr base)
{
    while (accept(Tok::Star)) {
        // `T *const p` — const applies to the pointer; we don't model
        // pointer-constness separately, so just accept it.
        accept(Tok::KwConst);
        base = Type::makePointer(base);
    }
    return base;
}

int64_t
Parser::parseArraySize()
{
    // Inside '[' ... ']'.  Mini-C restricts sizes to integer literals
    // (possibly a product, e.g. [16*4]) to avoid a full const-expr pass.
    if (current().is(Tok::RBracket))
        return 0;  // unknown extent (extern int a[])
    Token first = expect(Tok::IntLiteral, "as array size");
    int64_t v = first.intValue;
    // Overflow-checked arithmetic: a hostile size like [1<<40 * ...]
    // must produce a diagnostic, not wrap into a bogus small extent.
    auto overflow = [&]() {
        fatalAt(first.loc, "array size overflows");
    };
    while (accept(Tok::Star)) {
        int64_t f =
            expect(Tok::IntLiteral, "in array size product").intValue;
        if (__builtin_mul_overflow(v, f, &v))
            overflow();
    }
    while (accept(Tok::Plus)) {
        int64_t f =
            expect(Tok::IntLiteral, "in array size sum").intValue;
        if (__builtin_add_overflow(v, f, &v))
            overflow();
    }
    // The simulated address space is 32-bit; anything that cannot
    // even be addressed is rejected here rather than overflowing the
    // layout arithmetic downstream.
    if (v < 0 || v > INT32_MAX)
        fatalAt(first.loc, "array size out of range: " +
                               std::to_string(v));
    return v;
}

void
Parser::parseGlobalTail(TypePtr base, bool isExtern, bool isConst)
{
    for (;;) {
        TypePtr type = parsePointers(base);
        Token nameTok = expect(Tok::Identifier, "in declaration");

        // Function definition or prototype?
        if (current().is(Tok::LParen)) {
            FuncDecl* fn =
                parseFunctionRest(type, nameTok.text, nameTok.loc);
            (void)fn;
            return;
        }

        VarDecl* var =
            parseVarDeclarator(type, nameTok, Storage::Global, isConst);
        var->isExtern = isExtern;
        program_.globals.push_back(var);

        if (accept(Tok::Comma))
            continue;
        expect(Tok::Semicolon, "after declaration");
        return;
    }
}

VarDecl*
Parser::parseVarDeclarator(TypePtr type, const Token& nameTok,
                           Storage storage, bool isConst)
{
    while (accept(Tok::LBracket)) {
        int64_t n = parseArraySize();
        expect(Tok::RBracket, "after array size");
        type = Type::makeArray(type, n);
    }
    if (isConst && !type->isConst)
        type = Type::makeConst(type);

    VarDecl* var = program_.arena->makeVar();
    var->name = nameTok.text;
    var->type = type;
    var->storage = storage;
    var->loc = nameTok.loc;

    if (accept(Tok::Assign)) {
        if (accept(Tok::LBrace)) {
            if (!current().is(Tok::RBrace)) {
                do {
                    var->initList.push_back(parseAssignment());
                } while (accept(Tok::Comma) &&
                         !current().is(Tok::RBrace));
            }
            expect(Tok::RBrace, "after initializer list");
        } else {
            var->init = parseAssignment();
        }
    }
    return var;
}

VarDecl*
Parser::parseParam()
{
    bool isExtern = false, isConst = false;
    TypePtr type = parseDeclSpecifiers(&isExtern, &isConst);
    type = parsePointers(type);
    Token nameTok = expect(Tok::Identifier, "as parameter name");
    // Array parameters decay to pointers.
    while (accept(Tok::LBracket)) {
        parseArraySize();
        expect(Tok::RBracket, "after parameter array extent");
        type = Type::makePointer(type);
    }
    VarDecl* p = program_.arena->makeVar();
    p->name = nameTok.text;
    p->type = type;
    p->storage = Storage::Param;
    p->loc = nameTok.loc;
    return p;
}

FuncDecl*
Parser::parseFunctionRest(TypePtr retType, const std::string& name,
                          SourceLoc loc)
{
    expect(Tok::LParen, "after function name");
    FuncDecl* fn = program_.arena->makeFunc();
    fn->name = name;
    fn->returnType = retType;
    fn->loc = loc;

    if (!current().is(Tok::RParen)) {
        if (current().is(Tok::KwVoid) && peek(1).is(Tok::RParen)) {
            consume();  // f(void)
        } else {
            do {
                fn->params.push_back(parseParam());
            } while (accept(Tok::Comma));
        }
    }
    expect(Tok::RParen, "after parameter list");

    if (accept(Tok::Semicolon)) {
        program_.functions.push_back(fn);  // prototype
        return fn;
    }

    currentFunc_ = name;
    fn->body = parseBlock();
    currentFunc_.clear();
    program_.functions.push_back(fn);
    return fn;
}

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

BlockStmt*
Parser::parseBlock()
{
    Token open = expect(Tok::LBrace, "to open block");
    auto* block = program_.arena->make<BlockStmt>();
    block->loc = open.loc;
    while (!current().is(Tok::RBrace)) {
        if (current().is(Tok::EndOfFile))
            fatalAt(open.loc, "unterminated block");
        block->stmts.push_back(parseStmt());
    }
    consume();  // '}'
    return block;
}

Parser::DepthGuard::DepthGuard(Parser& p) : parser(p)
{
    // Far deeper than any real program, far shallower than the host
    // stack: each level costs a few hundred bytes of parser frames.
    constexpr int kMaxDepth = 512;
    if (++parser.depth_ > kMaxDepth)
        fatalAt(parser.current().loc,
                "expression or statement nesting too deep (limit " +
                    std::to_string(kMaxDepth) + ")");
}

Stmt*
Parser::parseStmt()
{
    DepthGuard guard(*this);
    switch (current().kind) {
      case Tok::LBrace: return parseBlock();
      case Tok::KwIf: return parseIf();
      case Tok::KwWhile: return parseWhile();
      case Tok::KwDo: return parseDoWhile();
      case Tok::KwFor: return parseFor();
      case Tok::KwReturn: {
        Token t = consume();
        auto* s = program_.arena->make<ReturnStmt>();
        s->loc = t.loc;
        if (!current().is(Tok::Semicolon))
            s->value = parseExpr();
        expect(Tok::Semicolon, "after return");
        return s;
      }
      case Tok::KwBreak: {
        Token t = consume();
        expect(Tok::Semicolon, "after break");
        auto* s = program_.arena->make<BreakStmt>();
        s->loc = t.loc;
        return s;
      }
      case Tok::KwContinue: {
        Token t = consume();
        expect(Tok::Semicolon, "after continue");
        auto* s = program_.arena->make<ContinueStmt>();
        s->loc = t.loc;
        return s;
      }
      case Tok::Semicolon: {
        Token t = consume();
        auto* s = program_.arena->make<EmptyStmt>();
        s->loc = t.loc;
        return s;
      }
      case Tok::Pragma: {
        Token t = consume();
        parsePragma(t, currentFunc_);
        auto* s = program_.arena->make<EmptyStmt>();
        s->loc = t.loc;
        return s;
      }
      default:
        if (atTypeStart())
            return parseLocalDecl();
        {
            auto* s = program_.arena->make<ExprStmt>();
            s->loc = current().loc;
            s->expr = parseExpr();
            expect(Tok::Semicolon, "after expression");
            return s;
        }
    }
}

Stmt*
Parser::parseIf()
{
    Token t = consume();
    auto* s = program_.arena->make<IfStmt>();
    s->loc = t.loc;
    expect(Tok::LParen, "after if");
    s->cond = parseExpr();
    expect(Tok::RParen, "after if condition");
    s->thenStmt = parseStmt();
    if (accept(Tok::KwElse))
        s->elseStmt = parseStmt();
    return s;
}

Stmt*
Parser::parseWhile()
{
    Token t = consume();
    auto* s = program_.arena->make<WhileStmt>();
    s->loc = t.loc;
    expect(Tok::LParen, "after while");
    s->cond = parseExpr();
    expect(Tok::RParen, "after while condition");
    s->body = parseStmt();
    return s;
}

Stmt*
Parser::parseDoWhile()
{
    Token t = consume();
    auto* s = program_.arena->make<DoWhileStmt>();
    s->loc = t.loc;
    s->body = parseStmt();
    expect(Tok::KwWhile, "after do body");
    expect(Tok::LParen, "after while");
    s->cond = parseExpr();
    expect(Tok::RParen, "after do-while condition");
    expect(Tok::Semicolon, "after do-while");
    return s;
}

Stmt*
Parser::parseFor()
{
    Token t = consume();
    auto* s = program_.arena->make<ForStmt>();
    s->loc = t.loc;
    expect(Tok::LParen, "after for");
    if (!current().is(Tok::Semicolon)) {
        if (atTypeStart()) {
            s->init = parseLocalDecl();  // consumes the ';'
        } else {
            auto* es = program_.arena->make<ExprStmt>();
            es->loc = current().loc;
            es->expr = parseExpr();
            s->init = es;
            expect(Tok::Semicolon, "after for initializer");
        }
    } else {
        consume();
    }
    if (!current().is(Tok::Semicolon))
        s->cond = parseExpr();
    expect(Tok::Semicolon, "after for condition");
    if (!current().is(Tok::RParen))
        s->step = parseExpr();
    expect(Tok::RParen, "after for step");
    s->body = parseStmt();
    return s;
}

Stmt*
Parser::parseLocalDecl()
{
    bool isExtern = false, isConst = false;
    TypePtr base = parseDeclSpecifiers(&isExtern, &isConst);
    auto* ds = program_.arena->make<DeclStmt>();
    ds->loc = current().loc;
    do {
        TypePtr type = parsePointers(base);
        Token nameTok = expect(Tok::Identifier, "in declaration");
        ds->decls.push_back(
            parseVarDeclarator(type, nameTok, Storage::Local, isConst));
    } while (accept(Tok::Comma));
    expect(Tok::Semicolon, "after declaration");
    return ds;
}

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

Expr*
Parser::parseExpr()
{
    return parseAssignment();
}

namespace {

/** Map an assignment token to its AssignOp, or nullopt. */
bool
assignOpFor(Tok t, AssignOp* out)
{
    switch (t) {
      case Tok::Assign: *out = AssignOp::Assign; return true;
      case Tok::PlusAssign: *out = AssignOp::Add; return true;
      case Tok::MinusAssign: *out = AssignOp::Sub; return true;
      case Tok::StarAssign: *out = AssignOp::Mul; return true;
      case Tok::SlashAssign: *out = AssignOp::Div; return true;
      case Tok::PercentAssign: *out = AssignOp::Rem; return true;
      case Tok::AmpAssign: *out = AssignOp::And; return true;
      case Tok::PipeAssign: *out = AssignOp::Or; return true;
      case Tok::CaretAssign: *out = AssignOp::Xor; return true;
      case Tok::ShlAssign: *out = AssignOp::Shl; return true;
      case Tok::ShrAssign: *out = AssignOp::Shr; return true;
      default: return false;
    }
}

/** Binary operator precedence; higher binds tighter. 0 = not binary. */
int
binPrec(Tok t)
{
    switch (t) {
      case Tok::Star: case Tok::Slash: case Tok::Percent: return 10;
      case Tok::Plus: case Tok::Minus: return 9;
      case Tok::Shl: case Tok::Shr: return 8;
      case Tok::Lt: case Tok::Le: case Tok::Gt: case Tok::Ge: return 7;
      case Tok::EqEq: case Tok::NotEq: return 6;
      case Tok::Amp: return 5;
      case Tok::Caret: return 4;
      case Tok::Pipe: return 3;
      case Tok::AmpAmp: return 2;
      case Tok::PipePipe: return 1;
      default: return 0;
    }
}

BinaryOp
binOpFor(Tok t)
{
    switch (t) {
      case Tok::Star: return BinaryOp::Mul;
      case Tok::Slash: return BinaryOp::Div;
      case Tok::Percent: return BinaryOp::Rem;
      case Tok::Plus: return BinaryOp::Add;
      case Tok::Minus: return BinaryOp::Sub;
      case Tok::Shl: return BinaryOp::Shl;
      case Tok::Shr: return BinaryOp::Shr;
      case Tok::Lt: return BinaryOp::Lt;
      case Tok::Le: return BinaryOp::Le;
      case Tok::Gt: return BinaryOp::Gt;
      case Tok::Ge: return BinaryOp::Ge;
      case Tok::EqEq: return BinaryOp::Eq;
      case Tok::NotEq: return BinaryOp::Ne;
      case Tok::Amp: return BinaryOp::And;
      case Tok::Caret: return BinaryOp::Xor;
      case Tok::Pipe: return BinaryOp::Or;
      case Tok::AmpAmp: return BinaryOp::LogAnd;
      case Tok::PipePipe: return BinaryOp::LogOr;
      default: panic("not a binary operator token");
    }
}

} // namespace

Expr*
Parser::parseAssignment()
{
    Expr* lhs = parseConditional();
    AssignOp op;
    if (assignOpFor(current().kind, &op)) {
        Token t = consume();
        auto* a = program_.arena->make<AssignExpr>();
        a->loc = t.loc;
        a->op = op;
        a->lhs = lhs;
        a->rhs = parseAssignment();
        return a;
    }
    return lhs;
}

Expr*
Parser::parseConditional()
{
    Expr* cond = parseBinary(1);
    if (!current().is(Tok::Question))
        return cond;
    Token t = consume();
    auto* c = program_.arena->make<CondExpr>();
    c->loc = t.loc;
    c->cond = cond;
    c->thenExpr = parseExpr();
    expect(Tok::Colon, "in conditional expression");
    c->elseExpr = parseConditional();
    return c;
}

Expr*
Parser::parseBinary(int minPrec)
{
    Expr* lhs = parseUnary();
    for (;;) {
        int prec = binPrec(current().kind);
        if (prec < minPrec || prec == 0)
            return lhs;
        Token t = consume();
        Expr* rhs = parseBinary(prec + 1);
        auto* b = program_.arena->make<BinaryExpr>();
        b->loc = t.loc;
        b->op = binOpFor(t.kind);
        b->lhs = lhs;
        b->rhs = rhs;
        lhs = b;
    }
}

Expr*
Parser::parseUnary()
{
    DepthGuard guard(*this);
    switch (current().kind) {
      case Tok::Plus: {
        Token t = consume();
        auto* u = program_.arena->make<UnaryExpr>();
        u->loc = t.loc;
        u->op = UnaryOp::Plus;
        u->operand = parseUnary();
        return u;
      }
      case Tok::Minus: {
        Token t = consume();
        auto* u = program_.arena->make<UnaryExpr>();
        u->loc = t.loc;
        u->op = UnaryOp::Neg;
        u->operand = parseUnary();
        return u;
      }
      case Tok::Bang: {
        Token t = consume();
        auto* u = program_.arena->make<UnaryExpr>();
        u->loc = t.loc;
        u->op = UnaryOp::Not;
        u->operand = parseUnary();
        return u;
      }
      case Tok::Tilde: {
        Token t = consume();
        auto* u = program_.arena->make<UnaryExpr>();
        u->loc = t.loc;
        u->op = UnaryOp::BitNot;
        u->operand = parseUnary();
        return u;
      }
      case Tok::Star: {
        Token t = consume();
        auto* d = program_.arena->make<DerefExpr>();
        d->loc = t.loc;
        d->pointer = parseUnary();
        return d;
      }
      case Tok::Amp: {
        Token t = consume();
        auto* a = program_.arena->make<AddrOfExpr>();
        a->loc = t.loc;
        a->lvalue = parseUnary();
        return a;
      }
      case Tok::PlusPlus:
      case Tok::MinusMinus: {
        Token t = consume();
        auto* i = program_.arena->make<IncDecExpr>();
        i->loc = t.loc;
        i->isIncrement = t.is(Tok::PlusPlus);
        i->isPrefix = true;
        i->lvalue = parseUnary();
        return i;
      }
      case Tok::LParen:
        // Cast: '(' type-specifiers '*'* ')'
        if (atTypeStart(1)) {
            Token t = consume();  // '('
            bool isExtern = false, isConst = false;
            TypePtr type = parseDeclSpecifiers(&isExtern, &isConst);
            type = parsePointers(type);
            expect(Tok::RParen, "after cast type");
            auto* c = program_.arena->make<CastExpr>();
            c->loc = t.loc;
            c->target = type;
            c->operand = parseUnary();
            return c;
        }
        return parsePostfix();
      default:
        return parsePostfix();
    }
}

Expr*
Parser::parsePostfix()
{
    Expr* e = parsePrimary();
    for (;;) {
        if (current().is(Tok::LBracket)) {
            Token t = consume();
            auto* idx = program_.arena->make<IndexExpr>();
            idx->loc = t.loc;
            idx->base = e;
            idx->index = parseExpr();
            expect(Tok::RBracket, "after array index");
            e = idx;
        } else if (current().is(Tok::LParen)) {
            if (e->kind != ExprKind::VarRef)
                fatalAt(current().loc,
                        "only direct calls to named functions supported");
            Token t = consume();
            auto* call = program_.arena->make<CallExpr>();
            call->loc = t.loc;
            call->callee = static_cast<VarRefExpr*>(e)->name;
            if (!current().is(Tok::RParen)) {
                do {
                    call->args.push_back(parseAssignment());
                } while (accept(Tok::Comma));
            }
            expect(Tok::RParen, "after call arguments");
            e = call;
        } else if (current().is(Tok::PlusPlus) ||
                   current().is(Tok::MinusMinus)) {
            Token t = consume();
            auto* i = program_.arena->make<IncDecExpr>();
            i->loc = t.loc;
            i->isIncrement = t.is(Tok::PlusPlus);
            i->isPrefix = false;
            i->lvalue = e;
            e = i;
        } else {
            return e;
        }
    }
}

Expr*
Parser::parsePrimary()
{
    switch (current().kind) {
      case Tok::IntLiteral:
      case Tok::CharLiteral: {
        Token t = consume();
        auto* lit = program_.arena->make<IntLitExpr>();
        lit->loc = t.loc;
        lit->value = t.intValue;
        lit->isUnsignedLit = t.isUnsigned;
        return lit;
      }
      case Tok::StringLiteral: {
        Token t = consume();
        auto* lit = program_.arena->make<StrLitExpr>();
        lit->loc = t.loc;
        lit->value = t.text;
        return lit;
      }
      case Tok::Identifier: {
        Token t = consume();
        auto* ref = program_.arena->make<VarRefExpr>();
        ref->loc = t.loc;
        ref->name = t.text;
        return ref;
      }
      case Tok::LParen: {
        consume();
        Expr* e = parseExpr();
        expect(Tok::RParen, "after parenthesized expression");
        return e;
      }
      default:
        fatalAt(current().loc,
                std::string("expected expression, found ") +
                    tokName(current().kind));
    }
}

} // namespace cash
