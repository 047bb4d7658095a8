/**
 * @file
 * Recursive-descent parser for Mini-C.
 */
#ifndef CASH_FRONTEND_PARSER_H
#define CASH_FRONTEND_PARSER_H

#include <string>
#include <vector>

#include "frontend/ast.h"
#include "frontend/token.h"

namespace cash {

/**
 * Parses a Mini-C translation unit into a Program.
 *
 * Usage:
 * @code
 *   Program prog = parseProgram(source);
 * @endcode
 * Throws FatalError on syntax errors.
 */
Program parseProgram(const std::string& source);

/** Parser over a pre-lexed token stream (exposed for testing). */
class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens);

    Program parse();

  private:
    // Token stream handling.
    const Token& peek(int ahead = 0) const;
    const Token& current() const { return peek(0); }
    Token consume();
    Token expect(Tok kind, const std::string& what);
    bool accept(Tok kind);
    bool atTypeStart(int ahead = 0) const;

    // Declarations.
    void parseTopLevel();
    TypePtr parseDeclSpecifiers(bool* isExtern, bool* isConst);
    TypePtr parsePointers(TypePtr base);
    void parseGlobalTail(TypePtr base, bool isExtern, bool isConst);
    /** The rest of a variable declarator after its name: array
     *  extents, then an optional `= expr` or `= {list}`. */
    VarDecl* parseVarDeclarator(TypePtr type, const Token& nameTok,
                                Storage storage, bool isConst);
    FuncDecl* parseFunctionRest(TypePtr retType, const std::string& name,
                                SourceLoc loc);
    VarDecl* parseParam();
    void parsePragma(const Token& tok, const std::string& scope);
    int64_t parseArraySize();

    // Statements.
    Stmt* parseStmt();
    BlockStmt* parseBlock();
    Stmt* parseIf();
    Stmt* parseWhile();
    Stmt* parseDoWhile();
    Stmt* parseFor();
    Stmt* parseLocalDecl();

    // Expressions (precedence climbing).
    Expr* parseExpr();
    Expr* parseAssignment();
    Expr* parseConditional();
    Expr* parseBinary(int minPrec);
    Expr* parseUnary();
    Expr* parsePostfix();
    Expr* parsePrimary();

    /**
     * Recursion-depth guard: hostile inputs (thousands of nested
     * parens or `if`s) would otherwise overflow the host stack — a
     * crash, not a diagnostic.  Entered at the two points every
     * nesting level passes through (parseStmt, parseUnary).
     */
    struct DepthGuard
    {
        explicit DepthGuard(Parser& p);
        ~DepthGuard() { parser.depth_--; }
        Parser& parser;
    };

    std::vector<Token> tokens_;
    size_t pos_ = 0;
    Program program_;
    std::string currentFunc_;  ///< For pragma scoping.
    int depth_ = 0;
};

} // namespace cash

#endif // CASH_FRONTEND_PARSER_H
