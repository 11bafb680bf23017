/**
 * @file
 * MiniC compiler driver: source text -> linked, executable Program.
 */

#ifndef SHIFT_LANG_COMPILER_HH
#define SHIFT_LANG_COMPILER_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace shift::minic
{

/** Compilation options. */
struct CompileOptions
{
    bool requireMain = true;
};

/**
 * Compile one or more MiniC source modules into a single linked
 * Program. Modules share one global namespace (they are concatenated
 * into one translation unit, like a single link step). All symbolic
 * operands are resolved; the result can be handed to an
 * instrumentation pass and/or a Machine.
 */
Program compileProgram(const std::vector<std::string> &sources,
                       const CompileOptions &options = {});

/** Convenience overload for a single module. */
Program compileProgram(const std::string &source,
                       const CompileOptions &options = {});

/**
 * A MiniC module compiled once and linked ahead of many applications:
 * the runtime's prebuilt libc (docs/MINIC.md). Construction parses,
 * generates and register-allocates the module (it has no symbol left
 * to link); its functions then take program indices
 * [0, functions().size()) in every program built by
 * compileApplication. Only a self-contained module qualifies
 * (FatalError otherwise): no globals, no string literals, no direct
 * call to a function it does not define and no function address taken.
 * Its code then reads no symbol an application can define, so one
 * compile serves every application. Immutable after construction and
 * safe to share across threads.
 */
class Library
{
  public:
    explicit Library(const std::string &source);
    ~Library();

    Library(const Library &) = delete;
    Library &operator=(const Library &) = delete;

    /** The compiled functions, in definition order. */
    const std::vector<Function> &functions() const { return functions_; }

    /** Program index of a library function, nullopt if not defined. */
    std::optional<int> indexOf(const std::string &name) const;

  private:
    friend Program compileApplication(const Library &library,
                                      const std::vector<std::string> &,
                                      const CompileOptions &);

    /** Signatures applications compile against (parser-owned types). */
    struct Signatures;
    std::unique_ptr<const Signatures> signatures_;
    std::vector<Function> functions_;
};

/**
 * Compile application modules against a prebuilt library: only the
 * modules are parsed and generated; calls into the library resolve
 * through its retained signatures. Returns the application part of
 * the program — its functions, linked as if numbered from
 * library.functions().size(), and all globals. Prepending the
 * library's functions (or a pass-transformed copy of them, since every
 * pass works function by function) yields exactly the Program
 * compileProgram({librarySource, sources...}) builds. Error line
 * numbers count from the first line of `sources`.
 */
Program compileApplication(const Library &library,
                           const std::vector<std::string> &sources,
                           const CompileOptions &options = {});

/**
 * Resolve symbolic movl operands (globals, function descriptors) and
 * pointer-global initializers in place. Idempotent. compileProgram
 * calls this; exposed for passes that synthesize code.
 */
void linkProgram(Program &program);

} // namespace shift::minic

#endif // SHIFT_LANG_COMPILER_HH
