#include "parser.hh"

#include <map>

#include "lang/lexer.hh"
#include "support/logging.hh"

namespace shift::minic
{

namespace
{

/** Binary operator precedence (higher binds tighter). */
const std::map<std::string, int> kBinPrec = {
    {"*", 10}, {"/", 10}, {"%", 10},
    {"+", 9}, {"-", 9},
    {"<<", 8}, {">>", 8},
    {"<", 7}, {"<=", 7}, {">", 7}, {">=", 7},
    {"==", 6}, {"!=", 6},
    {"&", 5},
    {"^", 4},
    {"|", 3},
    {"&&", 2},
    {"||", 1},
};

const char *kAssignOps[] = {
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
};

class Parser
{
  public:
    Parser(std::vector<Token> tokens, TypePool &pool)
        : tokens_(std::move(tokens)), pool_(pool)
    {}

    TranslationUnit
    parseUnit()
    {
        TranslationUnit unit;
        while (!cur().is(TokKind::End)) {
            const Type *base = parseBaseType();
            const Type *type = parsePointerSuffix(base);
            std::string name = expectIdent();
            if (cur().isPunct("(")) {
                bool isPrototype = false;
                FuncDecl fn = parseFunction(type, name, &isPrototype);
                // Prototypes are dropped: name resolution is two-pass,
                // so forward references need no declaration.
                if (!isPrototype)
                    unit.functions.push_back(std::move(fn));
            } else {
                unit.globals.push_back(parseGlobal(type, name));
            }
        }
        return unit;
    }

  private:
    const Token &cur() const { return tokens_[pos_]; }
    const Token &peek(size_t off = 1) const
    {
        size_t i = pos_ + off;
        return i < tokens_.size() ? tokens_[i] : tokens_.back();
    }
    void advance() { if (pos_ + 1 < tokens_.size()) ++pos_; }

    [[noreturn]] void
    error(const std::string &msg, int line = -1)
    {
        SHIFT_FATAL("parse error at line %d: %s (near '%s')",
                    line < 0 ? cur().line : line, msg.c_str(),
                    cur().text.c_str());
    }

    void
    expectPunct(const char *p)
    {
        // A missing ';' or ')' belongs after the previous token: report
        // its line, not the line of whatever follows.
        if (!cur().isPunct(p))
            error(std::string("expected '") + p + "'",
                  pos_ > 0 ? tokens_[pos_ - 1].line : cur().line);
        advance();
    }

    std::string
    expectIdent()
    {
        if (!cur().is(TokKind::Ident))
            error("expected identifier");
        std::string name = cur().text;
        advance();
        return name;
    }

    bool
    atTypeKeyword() const
    {
        return cur().isKeyword("void") || cur().isKeyword("char") ||
               cur().isKeyword("int") || cur().isKeyword("long");
    }

    const Type *
    parseBaseType()
    {
        if (cur().isKeyword("void")) { advance(); return pool_.voidType(); }
        if (cur().isKeyword("char")) { advance(); return pool_.charType(); }
        if (cur().isKeyword("int")) { advance(); return pool_.intType(); }
        if (cur().isKeyword("long")) { advance(); return pool_.longType(); }
        error("expected a type");
    }

    const Type *
    parsePointerSuffix(const Type *type)
    {
        while (cur().isPunct("*")) {
            advance();
            type = pool_.ptr(type);
        }
        return type;
    }

    // ----- declarations --------------------------------------------------

    FuncDecl
    parseFunction(const Type *retType, const std::string &name,
                  bool *isPrototype = nullptr)
    {
        FuncDecl fn;
        fn.name = name;
        fn.retType = retType;
        fn.line = cur().line;
        expectPunct("(");
        if (!cur().isPunct(")")) {
            for (;;) {
                if (cur().isKeyword("void") && peek().isPunct(")")) {
                    advance();
                    break;
                }
                Param param;
                param.type = parsePointerSuffix(parseBaseType());
                param.name = expectIdent();
                fn.params.push_back(std::move(param));
                if (!cur().isPunct(","))
                    break;
                advance();
            }
        }
        expectPunct(")");
        if (isPrototype && cur().isPunct(";")) {
            advance();
            *isPrototype = true;
            return fn;
        }
        fn.body = parseBlock();
        return fn;
    }

    GlobalVarDecl
    parseGlobal(const Type *type, const std::string &name)
    {
        GlobalVarDecl g;
        g.name = name;
        g.line = cur().line;
        g.type = parseArraySuffix(type);
        if (cur().isPunct("=")) {
            advance();
            g.init = parseAssignExpr();
        }
        expectPunct(";");
        return g;
    }

    const Type *
    parseArraySuffix(const Type *type)
    {
        // Multi-dimensional arrays read inner-to-outer; MiniC supports
        // one dimension, which covers all workloads.
        if (cur().isPunct("[")) {
            advance();
            if (!cur().is(TokKind::IntLit))
                error("array bound must be an integer literal");
            uint64_t count = static_cast<uint64_t>(cur().intVal);
            advance();
            expectPunct("]");
            type = pool_.array(type, count);
        }
        return type;
    }

    // ----- statements ----------------------------------------------------

    StmtPtr
    parseBlock()
    {
        expectPunct("{");
        auto block = std::make_unique<Stmt>();
        block->kind = StmtKind::Block;
        block->line = cur().line;
        while (!cur().isPunct("}")) {
            if (cur().is(TokKind::End))
                error("unterminated block");
            block->body.push_back(parseStatement());
        }
        expectPunct("}");
        return block;
    }

    StmtPtr
    parseVarDecl()
    {
        auto stmt = std::make_unique<Stmt>();
        stmt->kind = StmtKind::VarDecl;
        stmt->line = cur().line;
        const Type *type = parsePointerSuffix(parseBaseType());
        stmt->name = expectIdent();
        stmt->varType = parseArraySuffix(type);
        if (cur().isPunct("=")) {
            advance();
            stmt->value = parseAssignExpr();
        }
        expectPunct(";");
        return stmt;
    }

    StmtPtr
    parseStatement()
    {
        int line = cur().line;
        if (cur().isPunct("{"))
            return parseBlock();
        if (atTypeKeyword())
            return parseVarDecl();

        auto stmt = std::make_unique<Stmt>();
        stmt->line = line;

        if (cur().isKeyword("if")) {
            advance();
            stmt->kind = StmtKind::If;
            expectPunct("(");
            stmt->value = parseExpr();
            expectPunct(")");
            stmt->then = parseStatement();
            if (cur().isKeyword("else")) {
                advance();
                stmt->otherwise = parseStatement();
            }
            return stmt;
        }
        if (cur().isKeyword("while")) {
            advance();
            stmt->kind = StmtKind::While;
            expectPunct("(");
            stmt->value = parseExpr();
            expectPunct(")");
            stmt->body0 = parseStatement();
            return stmt;
        }
        if (cur().isKeyword("for")) {
            advance();
            stmt->kind = StmtKind::For;
            expectPunct("(");
            if (!cur().isPunct(";")) {
                if (atTypeKeyword())
                    stmt->declInit = parseVarDecl(); // consumes ';'
                else {
                    stmt->init = parseExpr();
                    expectPunct(";");
                }
            } else {
                expectPunct(";");
            }
            if (!cur().isPunct(";"))
                stmt->value = parseExpr();
            expectPunct(";");
            if (!cur().isPunct(")"))
                stmt->step = parseExpr();
            expectPunct(")");
            stmt->body0 = parseStatement();
            return stmt;
        }
        if (cur().isKeyword("return")) {
            advance();
            stmt->kind = StmtKind::Return;
            if (!cur().isPunct(";"))
                stmt->value = parseExpr();
            expectPunct(";");
            return stmt;
        }
        if (cur().isKeyword("break")) {
            advance();
            stmt->kind = StmtKind::Break;
            expectPunct(";");
            return stmt;
        }
        if (cur().isKeyword("continue")) {
            advance();
            stmt->kind = StmtKind::Continue;
            expectPunct(";");
            return stmt;
        }

        stmt->kind = StmtKind::ExprStmt;
        stmt->value = parseExpr();
        expectPunct(";");
        return stmt;
    }

    // ----- expressions ---------------------------------------------------

    ExprPtr
    makeExpr(ExprKind kind)
    {
        auto e = std::make_unique<Expr>();
        e->kind = kind;
        e->line = cur().line;
        return e;
    }

    ExprPtr
    parseExpr()
    {
        return parseAssignExpr();
    }

    ExprPtr
    parseAssignExpr()
    {
        ExprPtr lhs = parseCondExpr();
        for (const char *op : kAssignOps) {
            if (cur().isPunct(op)) {
                auto e = makeExpr(ExprKind::Assign);
                e->op = op;
                advance();
                e->a = std::move(lhs);
                e->b = parseAssignExpr(); // right-associative
                return e;
            }
        }
        return lhs;
    }

    ExprPtr
    parseCondExpr()
    {
        ExprPtr cond = parseBinaryExpr(1);
        if (cur().isPunct("?")) {
            auto e = makeExpr(ExprKind::Cond);
            advance();
            e->a = std::move(cond);
            e->b = parseExpr();
            expectPunct(":");
            e->c = parseCondExpr();
            return e;
        }
        return cond;
    }

    ExprPtr
    parseBinaryExpr(int minPrec)
    {
        ExprPtr lhs = parseUnaryExpr();
        for (;;) {
            if (!cur().is(TokKind::Punct))
                break;
            auto it = kBinPrec.find(cur().text);
            if (it == kBinPrec.end() || it->second < minPrec)
                break;
            // Don't greedily eat '=' family here: handled by caller.
            auto e = makeExpr(ExprKind::Binary);
            e->op = cur().text;
            int prec = it->second;
            advance();
            e->a = std::move(lhs);
            e->b = parseBinaryExpr(prec + 1);
            lhs = std::move(e);
        }
        return lhs;
    }

    ExprPtr
    parseUnaryExpr()
    {
        static const char *kUnaryOps[] = {"-", "!", "~", "*", "&"};
        for (const char *op : kUnaryOps) {
            if (cur().isPunct(op)) {
                auto e = makeExpr(ExprKind::Unary);
                e->op = op;
                advance();
                e->a = parseUnaryExpr();
                return e;
            }
        }
        if (cur().isPunct("++") || cur().isPunct("--")) {
            auto e = makeExpr(ExprKind::Unary);
            e->op = cur().text;
            advance();
            e->a = parseUnaryExpr();
            return e;
        }
        // Cast: '(' type-keyword ... ')'.
        if (cur().isPunct("(") && peek().is(TokKind::Keyword) &&
            (peek().isKeyword("void") || peek().isKeyword("char") ||
             peek().isKeyword("int") || peek().isKeyword("long"))) {
            auto e = makeExpr(ExprKind::Cast);
            advance();
            e->castType = parsePointerSuffix(parseBaseType());
            expectPunct(")");
            e->a = parseUnaryExpr();
            return e;
        }
        return parsePostfixExpr();
    }

    ExprPtr
    parsePostfixExpr()
    {
        ExprPtr e = parsePrimaryExpr();
        for (;;) {
            if (cur().isPunct("[")) {
                auto idx = makeExpr(ExprKind::Index);
                advance();
                idx->a = std::move(e);
                idx->b = parseExpr();
                expectPunct("]");
                e = std::move(idx);
            } else if (cur().isPunct("++") || cur().isPunct("--")) {
                auto post = makeExpr(ExprKind::Postfix);
                post->op = cur().text;
                advance();
                post->a = std::move(e);
                e = std::move(post);
            } else {
                break;
            }
        }
        return e;
    }

    ExprPtr
    parsePrimaryExpr()
    {
        if (cur().is(TokKind::IntLit) || cur().is(TokKind::CharLit)) {
            auto e = makeExpr(ExprKind::IntLit);
            e->intVal = cur().intVal;
            advance();
            return e;
        }
        if (cur().is(TokKind::StrLit)) {
            auto e = makeExpr(ExprKind::StrLit);
            // Adjacent string literals concatenate, as in C.
            while (cur().is(TokKind::StrLit)) {
                e->strVal += cur().strVal;
                advance();
            }
            return e;
        }
        if (cur().isPunct("(")) {
            advance();
            ExprPtr e = parseExpr();
            expectPunct(")");
            return e;
        }
        if (cur().is(TokKind::Ident)) {
            std::string name = cur().text;
            int line = cur().line;
            advance();
            if (cur().isPunct("(")) {
                auto call = makeExpr(ExprKind::Call);
                call->name = name;
                call->line = line;
                advance();
                if (!cur().isPunct(")")) {
                    for (;;) {
                        call->args.push_back(parseAssignExpr());
                        if (!cur().isPunct(","))
                            break;
                        advance();
                    }
                }
                expectPunct(")");
                return call;
            }
            auto e = makeExpr(ExprKind::Ident);
            e->name = name;
            e->line = line;
            return e;
        }
        error("expected an expression");
    }

    std::vector<Token> tokens_;
    size_t pos_ = 0;
    TypePool &pool_;
};

} // namespace

TranslationUnit
parse(const std::string &source, TypePool &pool)
{
    Parser parser(tokenize(source), pool);
    return parser.parseUnit();
}

} // namespace shift::minic
