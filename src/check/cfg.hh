/**
 * @file
 * Lightweight recursive parser for otcheck: token stream → per-function
 * control-flow trees.
 *
 * The lexical rules (banned names, include edges) stay on the flat
 * token stream, but the semantic rules need structure:
 *
 *   - hotpath propagation and the dataflow rules need the call sites
 *     of each function;
 *   - unreachable-statement detection needs statement sequencing;
 *   - the symbol graph needs the names a file declares.
 *
 * The parser is a recognizer, not a compiler front end: it never
 * rejects input, and constructs it cannot classify degrade to opaque
 * `Simple` statements, which makes every downstream rule conservative
 * (no diagnostics from unparsed code) rather than wrong.  Lambdas are
 * split out as anonymous functions — their bodies run at call time,
 * not where they are written, so their calls are attributed to the
 * lambda rather than to the enclosing function.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "check/lexer.hh"

namespace ot::check {

/** One call site: `name(` in call (not declaration) position. */
struct CallSite
{
    std::string name;
    int line = 1;
    bool member = false; ///< written as `obj.name(` / `p->name(`
};

/** One node of a function's structured statement tree. */
struct Stmt
{
    enum class Kind {
        Seq,      ///< children are the statements of a block
        Simple,   ///< expression/declaration statement
        If,       ///< children: [then] or [then, else]
        Loop,     ///< children: [body]; for/while/do
        Switch,   ///< children: one Seq per case section
        Try,      ///< children: [try block, handler blocks...]
        Return,   ///< return / co_return
        Exit,     ///< throw, goto, abort()-like call: leaves the flow
        Break,
        Continue,
    };

    Kind kind = Kind::Simple;
    int line = 1;
    bool hasElse = false;   ///< If: an else branch is present
    bool isDoWhile = false; ///< Loop: body runs at least once
    bool hasDefault = false; ///< Switch: a default section exists
    bool labeled = false;   ///< label target: exempt from unreachable
    std::size_t firstTok = 0; ///< token range (Simple and heads)
    std::size_t lastTok = 0;  ///< inclusive; 0 width when unused
    std::vector<CallSite> calls;   ///< calls in this stmt / head
    std::vector<Stmt> children;
};

/** One parsed function (or lambda) definition. */
struct FuncDef
{
    std::string name;      ///< bare name, "~X" for dtors, "" = lambda
    std::string className; ///< enclosing or qualifying class, or ""
    bool isCtor = false;
    bool isDtor = false;
    bool isVirtual = false;
    int line = 1;
    std::size_t bodyFirst = 0; ///< token index of the opening brace
    std::size_t bodyLast = 0;  ///< token index of the closing brace
    /** Token index of the parameter-list `(`; npos when the function
     *  has no recognizable parameter list (lambdas without one). */
    std::size_t paramOpen = static_cast<std::size_t>(-1);
    /** Lambdas only: token index of the capture-list `[`; npos for
     *  named functions. */
    std::size_t captureOpen = static_cast<std::size_t>(-1);
    Stmt body;                 ///< Kind::Seq
    std::vector<CallSite> calls; ///< flattened over the whole body
};

/** One declared name (feeds the symbol graph). */
struct DeclName
{
    std::string name;
    int line = 1;
};

/** Parse result for one file. */
struct ParsedFile
{
    std::vector<FuncDef> funcs;  ///< includes lambdas (name == "")
    std::vector<DeclName> decls; ///< namespace/class-scope names
};

/**
 * Is the identifier at `i` (known to be followed by `(`) a *call* in
 * free/static position?  Member calls (`x.time()`) are someone else's
 * method; declarations (`int time(...)`) are not calls.
 */
bool freeCallContext(const std::vector<Token> &toks, std::size_t i);

/** Parse one lexed file.  Never fails; unrecognized constructs are
 *  consumed as opaque statements. */
ParsedFile parseFile(const LexedFile &lexed);

} // namespace ot::check
