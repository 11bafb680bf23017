#include "compiler.hh"

#include "lang/codegen.hh"
#include "lang/parser.hh"
#include "lang/regalloc.hh"
#include "lang/type.hh"
#include "support/logging.hh"

namespace shift::minic
{

namespace
{

/** Modules share one namespace: concatenate them into one unit. */
std::string
mergeModules(const std::vector<std::string> &sources)
{
    std::string merged;
    for (const std::string &src : sources) {
        merged += src;
        merged += "\n";
    }
    return merged;
}

/** Register-allocate every generated function. */
void
allocateAll(GenOutput &gen)
{
    for (Function &fn : gen.program.functions) {
        auto it = gen.info.find(fn.name);
        SHIFT_ASSERT(it != gen.info.end());
        allocateRegisters(fn, it->second);
    }
}

/**
 * linkProgram with function indices supplied by `functionIndex`
 * (name -> optional<int>), so a program part can be linked at its
 * final position behind a prebuilt library.
 */
template <typename FunctionIndex>
void
linkWith(Program &program, FunctionIndex &&functionIndex)
{
    GlobalLayout layout = computeGlobalLayout(program);

    auto resolve = [&](const std::string &symbol) -> uint64_t {
        auto it = layout.addr.find(symbol);
        if (it != layout.addr.end())
            return it->second;
        if (std::optional<int> fn = functionIndex(symbol))
            return funcDescAddr(*fn);
        SHIFT_FATAL("link error: undefined symbol '%s'", symbol.c_str());
    };

    for (Function &fn : program.functions) {
        for (Instr &instr : fn.code) {
            if (instr.op == Opcode::Movi && !instr.callee.empty()) {
                instr.imm = static_cast<int64_t>(resolve(instr.callee));
                instr.callee.clear();
            }
        }
    }
    for (GlobalDef &g : program.globals) {
        if (!g.initSymbol.empty()) {
            uint64_t addr = resolve(g.initSymbol);
            g.init.assign(8, 0);
            for (int i = 0; i < 8; ++i)
                g.init[static_cast<size_t>(i)] =
                    static_cast<uint8_t>(addr >> (8 * i));
            g.initSymbol.clear();
        }
    }
}

} // namespace

void
linkProgram(Program &program)
{
    linkWith(program, [&](const std::string &name) {
        return program.findFunction(name);
    });
}

Program
compileProgram(const std::vector<std::string> &sources,
               const CompileOptions &options)
{
    TypePool pool;
    TranslationUnit unit = parse(mergeModules(sources), pool);
    GenOutput gen = generate(unit, pool);
    allocateAll(gen);

    if (options.requireMain && !gen.program.findFunction("main"))
        SHIFT_FATAL("program has no 'main' function");

    linkProgram(gen.program);
    return gen.program;
}

Program
compileProgram(const std::string &source, const CompileOptions &options)
{
    return compileProgram(std::vector<std::string>{source}, options);
}

/** The library's parsed signatures; bodies are dropped after codegen. */
struct Library::Signatures
{
    TypePool pool;
    std::vector<FuncDecl> decls;
    std::vector<const FuncDecl *> imports;
};

Library::Library(const std::string &source)
{
    auto sigs = std::make_unique<Signatures>();
    TranslationUnit unit = parse(source, sigs->pool);
    GenOutput gen = generate(unit, sigs->pool);
    allocateAll(gen);

    // Self-containment: anything the code would resolve by name
    // outside the library could resolve differently per application.
    if (!gen.program.globals.empty())
        SHIFT_FATAL("prebuilt library defines globals or string literals");
    for (const Function &fn : gen.program.functions) {
        for (const Instr &instr : fn.code) {
            if (instr.op == Opcode::Movi && !instr.callee.empty()) {
                SHIFT_FATAL("prebuilt library function '%s' takes the "
                            "address of '%s'",
                            fn.name.c_str(), instr.callee.c_str());
            }
            if (instr.op == Opcode::BrCall &&
                !gen.program.findFunction(instr.callee)) {
                SHIFT_FATAL("prebuilt library function '%s' calls '%s', "
                            "which it does not define",
                            fn.name.c_str(), instr.callee.c_str());
            }
        }
    }

    for (FuncDecl &decl : unit.functions) {
        decl.body.reset();
        sigs->decls.push_back(std::move(decl));
    }
    for (const FuncDecl &decl : sigs->decls)
        sigs->imports.push_back(&decl);
    signatures_ = std::move(sigs);
    functions_ = std::move(gen.program.functions);
}

Library::~Library() = default;

std::optional<int>
Library::indexOf(const std::string &name) const
{
    for (size_t i = 0; i < functions_.size(); ++i) {
        if (functions_[i].name == name)
            return static_cast<int>(i);
    }
    return std::nullopt;
}

Program
compileApplication(const Library &library,
                   const std::vector<std::string> &sources,
                   const CompileOptions &options)
{
    TypePool pool;
    TranslationUnit unit = parse(mergeModules(sources), pool);
    GenOutput gen = generate(unit, pool, library.signatures_->imports);
    allocateAll(gen);

    if (options.requireMain && !gen.program.findFunction("main") &&
        !library.indexOf("main"))
        SHIFT_FATAL("program has no 'main' function");

    int offset = static_cast<int>(library.functions().size());
    const Program &app = gen.program;
    linkWith(gen.program, [&](const std::string &name) {
        if (std::optional<int> lib = library.indexOf(name))
            return lib;
        std::optional<int> own = app.findFunction(name);
        return own ? std::optional<int>(*own + offset) : std::nullopt;
    });
    return gen.program;
}

} // namespace shift::minic
