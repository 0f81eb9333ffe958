#include "src/lint/checks.hh"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>

namespace isim {
namespace lint {
namespace checks {

namespace {

using Tokens = std::vector<Token>;

/**
 * Index of the token matching the opener at `i` (counting nesting),
 * or tokens.size() when unbalanced.
 */
std::size_t
matchForward(const Tokens &t, std::size_t i, const char *open,
             const char *close)
{
    int depth = 0;
    for (std::size_t j = i; j < t.size(); ++j) {
        if (t[j].kind == TokKind::Punct) {
            if (t[j].is(open))
                ++depth;
            else if (t[j].is(close) && --depth == 0)
                return j;
        }
    }
    return t.size();
}

bool
isAccessSpecifier(const Token &tok)
{
    return tok.isIdent("public") || tok.isIdent("private") ||
           tok.isIdent("protected");
}

/** Qualifiers that sit between a method's `)` and its `{` body. */
bool
isFunctionTail(const Token &tok)
{
    return tok.isIdent("const") || tok.isIdent("override") ||
           tok.isIdent("noexcept") || tok.isIdent("final") ||
           tok.isIdent("volatile");
}

bool
isTypeIntroducer(const Token &tok)
{
    return tok.isIdent("class") || tok.isIdent("struct") ||
           tok.isIdent("enum") || tok.isIdent("union");
}

/**
 * Given the index of a method/function name token whose next token is
 * `(`, return the [lbrace, rbrace] extent of its body, or {0, 0} when
 * this is a declaration (or a call) rather than a definition.
 */
std::pair<std::size_t, std::size_t>
functionBodyAt(const Tokens &t, std::size_t name_idx)
{
    const std::size_t lparen = name_idx + 1;
    if (lparen >= t.size() || !t[lparen].is("("))
        return {0, 0};
    std::size_t j = matchForward(t, lparen, "(", ")");
    if (j >= t.size())
        return {0, 0};
    ++j;
    while (j < t.size() &&
           (isFunctionTail(t[j]) ||
            t[j].is("(") /* noexcept(...) argument */)) {
        if (t[j].is("(")) {
            j = matchForward(t, j, "(", ")");
            if (j >= t.size())
                return {0, 0};
        }
        ++j;
    }
    if (j >= t.size() || !t[j].is("{"))
        return {0, 0};
    const std::size_t close = matchForward(t, j, "{", "}");
    if (close >= t.size())
        return {0, 0};
    return {j, close};
}

/** True when the name token at `i` is a member/qualified access
 *  (`x.f`, `p->f`, `T::f`) rather than a plain reference. */
bool
qualifiedAccess(const Tokens &t, std::size_t i)
{
    if (i == 0)
        return false;
    return t[i - 1].is(".") || t[i - 1].is("->") || t[i - 1].is("::");
}

/**
 * Collect the identifier spellings inside every definition of
 * `cls::func` across `files` (out-of-line definitions only; inline
 * definitions are collected by the class scanner's caller).
 */
void
collectQualifiedBodyIdents(const std::vector<SourceFile> &files,
                           const std::string &cls,
                           const std::string &func,
                           std::set<std::string> &idents)
{
    for (const SourceFile &file : files) {
        const Tokens &t = file.tokens();
        for (std::size_t i = 0; i + 3 < t.size(); ++i) {
            if (!t[i].isIdent(cls.c_str()) || !t[i + 1].is("::") ||
                !t[i + 2].isIdent(func.c_str()) || !t[i + 3].is("("))
                continue;
            const auto [lb, rb] = functionBodyAt(t, i + 2);
            if (lb == 0 && rb == 0)
                continue;
            for (std::size_t j = lb + 1; j < rb; ++j)
                if (t[j].kind == TokKind::Identifier)
                    idents.insert(t[j].text);
        }
    }
}

struct Member
{
    std::string name;
    int line = 0;
};

struct ClassDecl
{
    std::string name;
    const SourceFile *file = nullptr;
    std::size_t bodyBegin = 0; //!< index of the opening `{`
    std::size_t bodyEnd = 0;   //!< index of the matching `}`
    int line = 0;
    std::vector<Member> members;
    //! Idents inside inline method bodies named `func` within the
    //! class body, for saveState/restoreState/registerStats.
    std::map<std::string, std::set<std::string>> inlineBodies;
    bool declares(const std::string &func) const
    {
        return declared.count(func) != 0;
    }
    std::set<std::string> declared;
};

/**
 * Parse one class-body statement (tokens between `;` boundaries at
 * class depth, with brace initializers elided) into a data-member
 * declaration, or return false for functions, nested types, aliases,
 * references, and const/static members.
 *
 * References, const and static members are skipped on purpose: none
 * of them can be assigned in restoreState, so the checkpoint- and
 * stats-coverage rules treat them as structural rather than state.
 */
bool
parseMemberStatement(const std::vector<const Token *> &stmt,
                     Member &out)
{
    if (stmt.empty())
        return false;
    const Token &first = *stmt.front();
    if (first.isIdent("using") || first.isIdent("typedef") ||
        first.isIdent("friend") || first.isIdent("static") ||
        first.isIdent("template") || first.isIdent("extern") ||
        first.isIdent("constexpr") || first.isIdent("const") ||
        isTypeIntroducer(first))
        return false;
    // Region before any initializer: the declared name lives there.
    std::size_t limit = stmt.size();
    for (std::size_t i = 0; i < stmt.size(); ++i) {
        if (stmt[i]->is("=")) {
            limit = i;
            break;
        }
    }
    const Token *name = nullptr;
    for (std::size_t i = 0; i < limit; ++i) {
        const Token &tok = *stmt[i];
        // A paren before the initializer means a function (or a
        // function-typed member, which has no restorable value).
        if (tok.is("("))
            return false;
        // Reference members are wiring, not state.
        if (tok.is("&"))
            return false;
        if (tok.isIdent("operator"))
            return false;
        if (tok.kind == TokKind::Identifier)
            name = &tok;
    }
    if (name == nullptr)
        return false;
    out.name = name->text;
    out.line = name->line;
    return true;
}

/**
 * Walk a class body and collect its data members and the inline
 * bodies of the methods named in `bodyFuncs`.
 */
void
parseClassBody(const Tokens &t, ClassDecl &cls,
               const std::vector<std::string> &bodyFuncs)
{
    std::vector<const Token *> stmt;
    bool poisoned = false;    // inside a nested-type statement
    bool elided_init = false; // just skipped a {...} initializer
    for (std::size_t i = cls.bodyBegin + 1; i < cls.bodyEnd; ++i) {
        const Token &tok = t[i];
        if (tok.is("{")) {
            const std::size_t close = matchForward(t, i, "{", "}");
            if (close >= t.size())
                return; // unbalanced; bail out of this class
            const bool type_body =
                std::any_of(stmt.begin(), stmt.end(),
                            [](const Token *s) {
                                return isTypeIntroducer(*s);
                            });
            const Token *prev = stmt.empty() ? nullptr : stmt.back();
            // A second `{` directly after an elided one is a ctor
            // body following a braced member initializer
            // (`Foo() : a_{1} { ... }`), not another initializer.
            const bool brace_init =
                !type_body && !elided_init && prev != nullptr &&
                (prev->is("=") || prev->is("]") || prev->is(">") ||
                 (prev->kind == TokKind::Identifier &&
                  !isFunctionTail(*prev)));
            if (brace_init) {
                i = close; // elide the initializer, keep the stmt
                elided_init = true;
                continue;
            }
            if (type_body) {
                poisoned = true; // nested class/struct/enum body
                i = close;
                continue;
            }
            // A method body: harvest it if it is one of the methods
            // the coverage rules care about, then reset.
            if (!stmt.empty() &&
                stmt.front()->kind == TokKind::Identifier) {
                for (const Token *s : stmt) {
                    if (s->kind != TokKind::Identifier)
                        continue;
                    if (std::find(bodyFuncs.begin(), bodyFuncs.end(),
                                  s->text) == bodyFuncs.end())
                        continue;
                    auto &idents = cls.inlineBodies[s->text];
                    for (std::size_t j = i + 1; j < close; ++j)
                        if (t[j].kind == TokKind::Identifier)
                            idents.insert(t[j].text);
                }
            }
            stmt.clear();
            poisoned = false;
            elided_init = false;
            i = close;
            continue;
        }
        if (tok.is(";")) {
            Member m;
            if (!poisoned && parseMemberStatement(stmt, m))
                cls.members.push_back(std::move(m));
            stmt.clear();
            poisoned = false;
            elided_init = false;
            continue;
        }
        if (isAccessSpecifier(tok) && i + 1 < cls.bodyEnd &&
            t[i + 1].is(":")) {
            stmt.clear();
            poisoned = false;
            elided_init = false;
            ++i;
            continue;
        }
        elided_init = false;
        // Method declarations: note the names this class declares
        // (direct `name(` at class level, not a qualified call).
        if (tok.kind == TokKind::Identifier && i + 1 < cls.bodyEnd &&
            t[i + 1].is("(") && !qualifiedAccess(t, i))
            cls.declared.insert(tok.text);
        stmt.push_back(&tok);
    }
}

/**
 * Find class/struct definitions in a file. Nested classes are
 * reported as their own entries; parseClassBody's nested-type
 * poisoning keeps a nested class's members out of its enclosing
 * class's member list.
 */
std::vector<ClassDecl>
scanClasses(const SourceFile &file,
            const std::vector<std::string> &bodyFuncs)
{
    const Tokens &t = file.tokens();
    std::vector<ClassDecl> out;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!t[i].isIdent("class") && !t[i].isIdent("struct"))
            continue;
        if (i > 0 && (t[i - 1].isIdent("enum") ||
                      t[i - 1].isIdent("friend") || t[i - 1].is("<") ||
                      t[i - 1].is(",")))
            continue; // enum class / friend class / template params
        std::size_t j = i + 1;
        // Attributes between the keyword and the name.
        while (j < t.size() && t[j].is("[")) {
            j = matchForward(t, j, "[", "]");
            if (j >= t.size())
                break;
            ++j;
        }
        if (j >= t.size() || t[j].kind != TokKind::Identifier)
            continue; // anonymous
        ClassDecl cls;
        cls.name = t[j].text;
        cls.file = &file;
        cls.line = t[i].line;
        std::size_t k = j + 1;
        if (k < t.size() && t[k].is("<")) { // explicit specialization
            k = matchForward(t, k, "<", ">");
            if (k >= t.size())
                continue;
            ++k;
        }
        if (k < t.size() && t[k].isIdent("final"))
            ++k;
        if (k < t.size() && t[k].is(":")) // base clause
            while (k < t.size() && !t[k].is("{") && !t[k].is(";"))
                ++k;
        if (k >= t.size() || !t[k].is("{"))
            continue; // forward declaration or variable declaration
        const std::size_t close = matchForward(t, k, "{", "}");
        if (close >= t.size())
            continue;
        cls.bodyBegin = k;
        cls.bodyEnd = close;
        parseClassBody(t, cls, bodyFuncs);
        out.push_back(std::move(cls));
    }
    return out;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

} // namespace

// --------------------------------------------------------------------
// Rule: determinism
// --------------------------------------------------------------------

namespace {

/** Identifiers banned on sight, with the rationale shown to the user. */
const std::map<std::string, const char *> &
bannedEntropyIdents()
{
    static const std::map<std::string, const char *> kBanned = {
        {"random_device", "hardware entropy breaks reproducibility"},
        {"random_shuffle", "unspecified source of randomness"},
        {"default_random_engine", "implementation-defined stream"},
        {"mt19937", "unseeded-by-convention std engine"},
        {"mt19937_64", "unseeded-by-convention std engine"},
        {"minstd_rand", "unseeded-by-convention std engine"},
        {"minstd_rand0", "unseeded-by-convention std engine"},
        {"system_clock", "reads the wall clock"},
        {"high_resolution_clock", "reads the wall clock"},
        {"gettimeofday", "reads the wall clock"},
        {"clock_gettime", "reads the wall clock"},
        {"localtime", "depends on the TZ environment"},
        {"localtime_r", "depends on the TZ environment"},
        {"rand_r", "C library RNG"},
        {"drand48", "C library RNG"},
        {"lrand48", "C library RNG"},
        {"srandom", "C library RNG"},
    };
    return kBanned;
}

/** C functions flagged only in call position (short, common names). */
const std::set<std::string> &
bannedEntropyCalls()
{
    static const std::set<std::string> kCalls = {
        "rand", "srand", "random", "time", "clock",
    };
    return kCalls;
}

} // namespace

void
determinism(const SourceFile &file, std::vector<Finding> &out)
{
    // The one sanctioned RNG implementation.
    if (file.isFile("src/base/random.cc") ||
        file.isFile("src/base/random.hh"))
        return;
    const Tokens &t = file.tokens();
    for (std::size_t i = 0; i < t.size(); ++i) {
        const Token &tok = t[i];
        if (tok.kind != TokKind::Identifier)
            continue;
        if (tok.text == "getenv") {
            if (file.isFile("src/config/run_options.cc"))
                continue;
            out.push_back(
                {file.path(), tok.line, "determinism",
                 "getenv() outside src/config/run_options.cc; "
                 "runtime configuration is resolved exactly once by "
                 "RunOptions so results cannot depend on ambient "
                 "environment"});
            continue;
        }
        const auto &banned = bannedEntropyIdents();
        const auto it = banned.find(tok.text);
        if (it != banned.end()) {
            out.push_back(
                {file.path(), tok.line, "determinism",
                 tok.text + " is banned (" + it->second +
                     "); draw from an explicitly seeded isim::Rng "
                     "(src/base/random.hh)"});
            continue;
        }
        if (bannedEntropyCalls().count(tok.text) &&
            i + 1 < t.size() && t[i + 1].is("(")) {
            if (i > 0 && (t[i - 1].is(".") || t[i - 1].is("->")))
                continue; // member call on some object
            if (i > 0 && t[i - 1].is("::") &&
                !(i > 1 && t[i - 2].isIdent("std")))
                continue; // qualified call on a non-std type
            out.push_back(
                {file.path(), tok.line, "determinism",
                 tok.text + "() is banned (nondeterministic C "
                            "library call); draw from an explicitly "
                            "seeded isim::Rng (src/base/random.hh)"});
        }
    }
}

// --------------------------------------------------------------------
// Rule: logging
// --------------------------------------------------------------------

void
logging(const SourceFile &file, std::vector<Finding> &out)
{
    // The rule constrains library code only: CLI mains (tools/,
    // examples/) and tests own their stdout.
    if (!file.under("src/"))
        return;
    if (file.isFile("src/base/logging.cc") ||
        file.isFile("src/base/logging.hh"))
        return;
    static const std::set<std::string> kStreams = {"cout", "cerr",
                                                   "clog"};
    static const std::set<std::string> kCalls = {
        "printf", "fprintf", "vprintf", "vfprintf",
        "puts",   "fputs",   "putchar", "fputc",
    };
    const Tokens &t = file.tokens();
    for (std::size_t i = 0; i < t.size(); ++i) {
        const Token &tok = t[i];
        if (tok.kind != TokKind::Identifier)
            continue;
        const bool stream = kStreams.count(tok.text) != 0;
        const bool call = kCalls.count(tok.text) != 0 &&
                          i + 1 < t.size() && t[i + 1].is("(") &&
                          !(i > 0 && (t[i - 1].is(".") ||
                                      t[i - 1].is("->")));
        if (!stream && !call)
            continue;
        out.push_back(
            {file.path(), tok.line, "logging",
             (stream ? "std::" + tok.text : tok.text + "()") +
                 " in library code; route diagnostics through "
                 "isim_inform/isim_warn (src/base/logging.hh) so "
                 "--quiet and test harnesses can silence them"});
    }
}

// --------------------------------------------------------------------
// Rule: suppression (meta)
// --------------------------------------------------------------------

namespace {

const std::set<std::string> &
knownRules()
{
    static const std::set<std::string> kRules = {
        "determinism", "ordered-output", "ckpt-coverage",
        "stats-coverage", "logging",
    };
    return kRules;
}

} // namespace

void
suppressions(const SourceFile &file, std::vector<Finding> &out)
{
    for (const Suppression &s : file.suppressions()) {
        if (s.malformed) {
            out.push_back({file.path(), s.line, "suppression",
                           "malformed isim-lint annotation; expected "
                           "`// isim-lint: allow(<rule>): <reason>`"});
            continue;
        }
        if (!knownRules().count(s.rule)) {
            out.push_back({file.path(), s.line, "suppression",
                           "allow(" + s.rule +
                               ") names an unknown rule; see "
                               "isim-lint --list-rules"});
            continue;
        }
        if (s.reason.empty()) {
            out.push_back({file.path(), s.line, "suppression",
                           "allow(" + s.rule +
                               ") without a reason; every "
                               "suppression must record why: "
                               "`allow(" + s.rule + "): <reason>`"});
        }
    }
    for (const CkptTransient &tr : file.transients()) {
        if (tr.malformed) {
            out.push_back({file.path(), tr.line, "suppression",
                           "malformed ckpt annotation; expected "
                           "`// ckpt: transient(<member>)`"});
        }
    }
}

// --------------------------------------------------------------------
// Rule: ordered-output
// --------------------------------------------------------------------

namespace {

/** Files whose entire contents are serialization/reporting paths. */
bool
isOutputPathFile(const SourceFile &file)
{
    return file.under("src/ckpt/") ||
           file.under("src/campaign/") ||
           file.isFile("src/core/report.cc") ||
           file.isFile("src/stats/manifest.cc") ||
           file.isFile("src/obs/export.cc");
}

/**
 * Names declared anywhere in the tree with an unordered container as
 * their outermost type (members, locals, or parameters). Nested uses
 * (std::vector<std::unordered_set<..>>) attribute the name to the
 * ordered outer container and are not collected.
 */
std::set<std::string>
collectUnorderedNames(const std::vector<SourceFile> &files)
{
    std::set<std::string> names;
    for (const SourceFile &file : files) {
        const Tokens &t = file.tokens();
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (!t[i].isIdent("unordered_map") &&
                !t[i].isIdent("unordered_set") &&
                !t[i].isIdent("unordered_multimap") &&
                !t[i].isIdent("unordered_multiset"))
                continue;
            std::size_t chain_start = i;
            if (i >= 2 && t[i - 1].is("::") && t[i - 2].isIdent("std"))
                chain_start = i - 2;
            if (chain_start > 0 && t[chain_start - 1].is("<"))
                continue; // nested template argument
            std::size_t j = i + 1;
            if (j >= t.size() || !t[j].is("<"))
                continue; // bare mention (e.g. a using-declaration)
            j = matchForward(t, j, "<", ">");
            if (j >= t.size())
                continue;
            ++j;
            while (j < t.size() &&
                   (t[j].is("&") || t[j].is("*") ||
                    t[j].isIdent("const")))
                ++j;
            if (j < t.size() && t[j].kind == TokKind::Identifier &&
                !(j + 1 < t.size() && t[j + 1].is("::")))
                names.insert(t[j].text);
        }
    }
    return names;
}

/** Token ranges of saveState/restoreState definitions in a file. */
std::vector<std::pair<std::size_t, std::size_t>>
serializerBodies(const SourceFile &file)
{
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    const Tokens &t = file.tokens();
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].isIdent("saveState") &&
            !t[i].isIdent("restoreState"))
            continue;
        const auto [lb, rb] = functionBodyAt(t, i);
        if (lb != 0 || rb != 0)
            ranges.emplace_back(lb, rb);
    }
    return ranges;
}

void
checkRangeFors(const SourceFile &file, std::size_t begin,
               std::size_t end, const std::set<std::string> &unordered,
               const char *context, std::vector<Finding> &out)
{
    const Tokens &t = file.tokens();
    for (std::size_t i = begin; i < end; ++i) {
        if (!t[i].isIdent("for") || i + 1 >= t.size() ||
            !t[i + 1].is("("))
            continue;
        const std::size_t close = matchForward(t, i + 1, "(", ")");
        if (close >= t.size() || close > end)
            continue;
        // Range-for: a `:` at parenthesis depth 1 (`::` is fused by
        // the lexer, so a bare `:` is unambiguous).
        std::size_t colon = 0;
        int depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
            if (t[j].is("(") || t[j].is("["))
                ++depth;
            else if (t[j].is(")") || t[j].is("]"))
                --depth;
            else if (t[j].is(":") && depth == 1) {
                colon = j;
                break;
            }
            else if (t[j].is(";"))
                break; // classic for
        }
        if (colon == 0)
            continue;
        for (std::size_t j = colon + 1; j < close; ++j) {
            if (t[j].kind != TokKind::Identifier ||
                !unordered.count(t[j].text))
                continue;
            // Inside nested parens the container is an *argument*
            // (e.g. `for (k : sortedKeys(pages_))` — the sanctioned
            // canonicalization idiom); only direct iteration of the
            // container object itself is flagged.
            int call_depth = 0;
            for (std::size_t k = colon + 1; k < j; ++k) {
                if (t[k].is("(") || t[k].is("["))
                    ++call_depth;
                else if (t[k].is(")") || t[k].is("]"))
                    --call_depth;
            }
            if (call_depth > 0)
                continue;
            out.push_back(
                {file.path(), t[i].line, "ordered-output",
                 "range-for over unordered container '" + t[j].text +
                     "' in " + context +
                     "; iteration order is not canonical — sort "
                     "keys first, use an ordered container, or "
                     "annotate with allow(ordered-output)"});
            break;
        }
    }
}

} // namespace

void
orderedOutput(const std::vector<SourceFile> &files,
              std::vector<Finding> &out)
{
    const std::set<std::string> unordered =
        collectUnorderedNames(files);
    for (const SourceFile &file : files) {
        const Tokens &t = file.tokens();
        if (isOutputPathFile(file)) {
            // Declaring an unordered container inside a
            // serialization/reporting file is itself a smell.
            for (const Token &tok : t) {
                if (tok.isIdent("unordered_map") ||
                    tok.isIdent("unordered_set") ||
                    tok.isIdent("unordered_multimap") ||
                    tok.isIdent("unordered_multiset")) {
                    out.push_back(
                        {file.path(), tok.line, "ordered-output",
                         "std::" + tok.text +
                             " in a serialization/reporting file; "
                             "use an ordered container so emitted "
                             "bytes are canonical"});
                }
            }
            checkRangeFors(file, 0, t.size(), unordered,
                           "a serialization/reporting path", out);
            continue;
        }
        for (const auto &[lb, rb] : serializerBodies(file))
            checkRangeFors(file, lb, rb, unordered,
                           "a saveState/restoreState body", out);
    }
}

// --------------------------------------------------------------------
// Rule: ckpt-coverage
// --------------------------------------------------------------------

void
ckptCoverage(const std::vector<SourceFile> &files,
             std::vector<Finding> &out)
{
    static const std::vector<std::string> kFuncs = {"saveState",
                                                    "restoreState"};
    for (const SourceFile &file : files) {
        if (!file.under("src/"))
            continue;
        for (const ClassDecl &cls : scanClasses(file, kFuncs)) {
            if (!cls.declares("saveState"))
                continue;
            std::set<std::string> idents;
            for (const auto &func : kFuncs) {
                const auto it = cls.inlineBodies.find(func);
                if (it != cls.inlineBodies.end())
                    idents.insert(it->second.begin(),
                                  it->second.end());
                collectQualifiedBodyIdents(files, cls.name, func,
                                           idents);
            }
            if (idents.empty())
                continue; // declaration only (interface); nothing to
                          // cross-reference against
            for (const Member &m : cls.members) {
                if (idents.count(m.name) || file.transient(m.name))
                    continue;
                out.push_back(
                    {file.path(), m.line, "ckpt-coverage",
                     "member '" + m.name + "' of " + cls.name +
                         " appears in neither saveState nor "
                         "restoreState; serialize it or mark it "
                         "`// ckpt: transient(" + m.name + ")`"});
            }
        }
    }
}

// --------------------------------------------------------------------
// Rule: stats-coverage
// --------------------------------------------------------------------

void
statsCoverage(const std::vector<SourceFile> &files,
              std::vector<Finding> &out)
{
    static const std::vector<std::string> kFuncs = {"registerStats"};
    std::set<std::string> machine_idents;
    collectQualifiedBodyIdents(files, "Machine", "buildRegistry",
                               machine_idents);
    for (const SourceFile &file : files) {
        if (!file.under("src/"))
            continue;
        for (const ClassDecl &cls : scanClasses(file, kFuncs)) {
            if (!endsWith(cls.name, "Stats") &&
                !endsWith(cls.name, "Counters"))
                continue;
            std::set<std::string> idents;
            const auto it = cls.inlineBodies.find("registerStats");
            if (it != cls.inlineBodies.end())
                idents.insert(it->second.begin(), it->second.end());
            collectQualifiedBodyIdents(files, cls.name,
                                       "registerStats", idents);
            for (const Member &m : cls.members) {
                if (idents.count(m.name) ||
                    machine_idents.count(m.name))
                    continue;
                out.push_back(
                    {file.path(), m.line, "stats-coverage",
                     "counter '" + m.name + "' of " + cls.name +
                         " is never registered; add it to " +
                         cls.name + "::registerStats (or register "
                         "it in Machine::buildRegistry)"});
            }
        }
    }
}

} // namespace checks
} // namespace lint
} // namespace isim
