#include "session.hh"

#include <deque>
#include <iterator>
#include <mutex>
#include <set>

#include "dift/annotate.hh"
#include "lang/compiler.hh"
#include "obs/trace.hh"
#include "runtime/minic_stdlib.hh"
#include "support/logging.hh"

namespace shift
{

namespace detail
{

namespace
{

/**
 * Fold the policy and CPU features into the pass options, exactly as
 * Session::build always did: granularity follows the policy so
 * instrumented code and native taint summaries agree on the bitmap
 * layout.
 */
void
resolvePassOptions(SessionOptions &options)
{
    switch (options.mode) {
      case TrackingMode::None:
        break;
      case TrackingMode::Shift:
        options.instr.granularity = options.policy.granularity;
        options.instr.natSetClear = options.features.natSetClear;
        options.instr.natAwareCompare = options.features.natAwareCompare;
        break;
      case TrackingMode::SoftwareDift:
        options.baseline.granularity = options.policy.granularity;
        break;
    }
}

/**
 * Async-tier option screening, shared so Session and SessionTemplate
 * reject bad combinations identically.
 */
void
screenAsyncOptions(const SessionOptions &options)
{
    if (!options.async.enabled)
        return;
    if (options.mode != TrackingMode::Shift)
        SHIFT_FATAL("async taint requires TrackingMode::Shift");
    if (options.engine != ExecEngine::Predecoded)
        SHIFT_FATAL("async taint requires the predecoded engine");
    if (options.fastPath) {
        SHIFT_FATAL("async taint is incompatible with the fast "
                    "path (both replace the inline taint tier)");
    }
    if (options.speculate) {
        SHIFT_FATAL("async taint is incompatible with control "
                    "speculation (ld.s defers faults into NaT "
                    "bits the replay does not model)");
    }
}

/**
 * The post-compile passes (speculation, instrumentation, optimizer)
 * over every function of `program`, with resolved options. Every pass
 * is a per-function loop, so running it over disjoint parts of a
 * program and summing their stats equals running it over the whole;
 * only the stats a mode produces are written.
 */
void
runPasses(Program &program, const SessionOptions &options,
          InstrumentStats &instrStats,
          minic::SpeculateStats &speculateStats, OptStats &optStats)
{
    // Optional compiler optimization: control speculation. Runs
    // before instrumentation, exactly as a speculating compiler would
    // emit ld.s/chk.s before SHIFT's GCC phase sees the code.
    if (options.speculate) {
        obs::ScopedPhase span(obs::Phase::Speculate);
        speculateStats = minic::speculateLoads(program,
                                               options.speculateOptions);
    }

    switch (options.mode) {
      case TrackingMode::None:
        break;
      case TrackingMode::Shift: {
        if (options.async.enabled) {
            // Async tier: no inline instrumentation at all. The
            // program is only annotated (load/store/compare scoping
            // recorded in Instr::p1, compare markers inserted) and the
            // tier's replay applies the instrumenter's semantics.
            dift::AnnotateOptions ann;
            ann.instrumentLoads = options.instr.instrumentLoads;
            ann.instrumentStores = options.instr.instrumentStores;
            ann.instrumentCompares = options.instr.instrumentCompares;
            ann.relaxLoadAddress = options.instr.relaxLoadAddress;
            ann.relaxLoadFunctions = options.instr.relaxLoadFunctions;
            ann.relaxStoreFunctions = options.instr.relaxStoreFunctions;
            ann.cmpTaintAlert = options.instr.cmpTaintAlert;
            ann.cmpTaintAlertFunctions =
                options.instr.cmpTaintAlertFunctions;
            obs::ScopedPhase span(obs::Phase::Instrument);
            dift::AnnotateStats astats = annotateForAsync(program, ann);
            instrStats.loads = astats.checkedLoads + astats.relaxedLoads;
            instrStats.stores = astats.trackedStores + astats.relaxedStores;
            instrStats.compares = astats.cmpMarkers;
            instrStats.purifies = astats.zeroIdioms;
            instrStats.added = astats.cmpMarkers;
            break;
        }
        {
            obs::ScopedPhase span(obs::Phase::Instrument);
            instrStats = instrumentProgram(program, options.instr);
        }
        // Post-instrumentation optimizer: deletes redundant taint
        // work the peephole instrumenter emitted (no-op unless
        // options.optimize.enable). SHIFT sequences only; the
        // software baseline keeps its literal instruction stream.
        {
            obs::ScopedPhase span(obs::Phase::Optimize);
            optStats = optimizeInstrumentation(program, options.optimize);
        }
        break;
      }
      case TrackingMode::SoftwareDift: {
        obs::ScopedPhase span(obs::Phase::Instrument);
        instrStats = instrumentSoftwareDift(program, options.baseline);
        break;
      }
    }
}

/** The MiniC libc, compiled once per process. */
const minic::Library &
libc()
{
    static const minic::Library library(kMiniCStdlib);
    return library;
}

/** Keep only the names of libc functions: no other name can matter. */
std::set<std::string>
libcNames(const std::set<std::string> &names)
{
    std::set<std::string> kept;
    for (const std::string &name : names) {
        if (libc().indexOf(name))
            kept.insert(name);
    }
    return kept;
}

/**
 * Exactly the option values the post-pass libc depends on: the option
 * groups a mode does not read are left at their defaults, and function
 * name lists are cut to libc names.
 */
struct LibcKey
{
    TrackingMode mode = TrackingMode::None;
    bool speculate = false;
    minic::SpeculateOptions speculateOptions;
    bool async = false;
    InstrumentOptions instr;
    OptimizerOptions optimize;
    BaselineOptions baseline;

    bool operator==(const LibcKey &) const = default;
};

LibcKey
libcKey(const SessionOptions &options)
{
    LibcKey key;
    key.mode = options.mode;
    key.speculate = options.speculate;
    if (options.speculate)
        key.speculateOptions = options.speculateOptions;
    switch (options.mode) {
      case TrackingMode::None:
        break;
      case TrackingMode::Shift:
        key.async = options.async.enabled;
        key.instr = options.instr;
        key.instr.relaxLoadFunctions =
            libcNames(options.instr.relaxLoadFunctions);
        key.instr.relaxStoreFunctions =
            libcNames(options.instr.relaxStoreFunctions);
        key.instr.cmpTaintAlertFunctions =
            libcNames(options.instr.cmpTaintAlertFunctions);
        if (!key.async && options.optimize.enable)
            key.optimize = options.optimize;
        break;
      case TrackingMode::SoftwareDift:
        key.baseline = options.baseline;
        break;
    }
    return key;
}

/** The libc after one key's passes, with its share of the stats. */
struct LibcEntry
{
    LibcKey key;
    std::vector<Function> functions;
    InstrumentStats instrStats;
    minic::SpeculateStats speculateStats;
    OptStats optStats;
};

/** Distinct option sets kept; a workload uses a handful. */
constexpr size_t kLibcMemoEntries = 32;

/**
 * The process-wide memo of post-pass libcs. Entries are immutable and
 * shared, so a caller keeps using its entry after eviction; a miss
 * runs the passes outside the lock (two threads missing on one key
 * both build, and the first insert wins).
 */
std::shared_ptr<const LibcEntry>
prebuiltLibc(const SessionOptions &options)
{
    static std::mutex mutex;
    static std::deque<std::shared_ptr<const LibcEntry>> memo;

    LibcKey key = libcKey(options);
    auto find = [&]() -> std::shared_ptr<const LibcEntry> {
        for (const auto &entry : memo) {
            if (entry->key == key)
                return entry;
        }
        return nullptr;
    };
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (auto hit = find())
            return hit;
    }

    auto entry = std::make_shared<LibcEntry>();
    entry->key = key;
    Program part;
    part.functions = libc().functions();
    runPasses(part, options, entry->instrStats, entry->speculateStats,
              entry->optStats);
    entry->functions = std::move(part.functions);

    std::lock_guard<std::mutex> lock(mutex);
    if (auto raced = find())
        return raced;
    if (memo.size() == kLibcMemoEntries)
        memo.pop_front();
    memo.push_back(entry);
    return entry;
}

} // namespace

Program
buildProgram(const std::vector<std::string> &sources,
             SessionOptions &options, InstrumentStats &instrStats,
             minic::SpeculateStats &speculateStats, OptStats &optStats)
{
    // 1. Compile. Without the libc the sources are the whole program;
    // with it only the application is compiled, against the libc's
    // retained signatures, and numbered behind its functions.
    Program program = [&] {
        obs::ScopedPhase span(obs::Phase::Compile);
        return options.includeStdlib
                   ? minic::compileApplication(libc(), sources)
                   : minic::compileProgram(sources);
    }();

    screenAsyncOptions(options);
    resolvePassOptions(options);

    // 2. Speculate / instrument / optimize the application's functions.
    runPasses(program, options, instrStats, speculateStats, optStats);
    if (!options.includeStdlib)
        return program;

    // 3. Splice in the libc after the same passes, from the memo, and
    // add its share of the stats the mode produced.
    std::shared_ptr<const LibcEntry> lib = prebuiltLibc(options);
    std::vector<Function> functions;
    functions.reserve(lib->functions.size() + program.functions.size());
    functions.insert(functions.end(), lib->functions.begin(),
                     lib->functions.end());
    std::move(program.functions.begin(), program.functions.end(),
              std::back_inserter(functions));
    program.functions = std::move(functions);
    if (options.speculate)
        speculateStats += lib->speculateStats;
    if (options.mode != TrackingMode::None)
        instrStats += lib->instrStats;
    if (options.mode == TrackingMode::Shift && !options.async.enabled)
        optStats += lib->optStats;
    return program;
}

void
wireRuntime(Machine &machine, Os &os, TaintMap *taint,
            PolicyEngine *policy, TrackingMode mode, RuntimeContext &ctx)
{
    bool tracking = taint != nullptr && policy != nullptr;

    ctx.os = &os;
    ctx.taint = taint;
    ctx.policy = policy;
    registerRuntimeBuiltins(machine, ctx);

    // Taint sources: OS input lands tainted per [sources].
    if (tracking) {
        os.setInputHook([taint, policy](Machine &m, uint64_t addr,
                                        uint64_t len,
                                        const std::string &channel) {
            if (policy->taintChannel(channel)) {
                taint->taint(addr, len);
                // Provenance chains start here: the syscall that let
                // tainted bytes into the address space.
                if (obs::TraceBuffer *b = m.observer())
                    b->emit(obs::Ev::TaintSource,
                            obs::packChannel(channel),
                            m.currentFunction(), m.currentPc(), addr,
                            len);
            } else {
                taint->clear(addr, len);
            }
        });
    }

    // Security monitor: NaT-consumption faults become L1-L3 alerts
    // (SHIFT mode; the software baseline traps through syscall 99).
    if (mode == TrackingMode::Shift && policy) {
        machine.setNatFaultHandler(
            [policy](Machine &, const Fault &fault) {
                return policy->natFaultAlert(fault);
            });
    }

    machine.setSyscallHandler([policy](Machine &m, int64_t number) {
        if (number == kDiftAlertSyscall) {
            if (!policy)
                return;
            Fault fault;
            fault.kind = FaultKind::NatConsumption;
            int64_t reason = static_cast<int64_t>(
                m.gprVal(kDiftAlertReasonReg));
            fault.context = reason == kDiftAlertStore
                                ? FaultContext::StoreAddress
                                : FaultContext::LoadAddress;
            fault.detail = "software DIFT address check";
            auto alert = policy->natFaultAlert(fault);
            if (alert)
                m.raiseAlert(std::move(*alert),
                             policy->config().alertKills);
            return;
        }
        SHIFT_FATAL("unknown system call %lld",
                    static_cast<long long>(number));
    });
}

} // namespace detail

Session::Session(const std::vector<std::string> &sources,
                 SessionOptions options)
    : options_(std::move(options))
{
    build(sources);
}

Session::Session(const std::string &source, SessionOptions options)
    : options_(std::move(options))
{
    build({source});
}

void
Session::build(const std::vector<std::string> &sources)
{
    program_ = detail::buildProgram(sources, options_, instrStats_,
                                    speculateStats_, optStats_);

    // Machine + runtime wiring.
    {
        obs::ScopedPhase span(obs::Phase::Decode);
        machine_ = std::make_unique<Machine>(program_, options_.features,
                                             options_.engine);
    }
    if (options_.async.enabled) {
        asyncTier_ = std::make_unique<dift::AsyncTaintTier>(
            machine_->memory(), options_.policy.granularity);
        machine_->setAsyncTier(asyncTier_.get());
    }
    machine_->setFastPathEnabled(options_.fastPath);
    machine_->setJitEnabled(options_.jit, options_.jitThreshold,
                            options_.jitCacheBytes);
    if (options_.profile) {
        profiler_ = std::make_unique<obs::Profiler>();
        machine_->setProfiler(profiler_.get());
    }
    if (obs::Recorder *rec = obs::Recorder::active()) {
        std::vector<std::string> names;
        for (const auto &fn : program_.functions)
            names.push_back(fn.name);
        rec->setFunctionNames(std::move(names));
        machine_->setObserver(rec->acquireBuffer(-1));
    }
    policy_ = std::make_unique<PolicyEngine>(options_.policy);
    bool tracking = options_.mode != TrackingMode::None;
    if (tracking) {
        taint_ = std::make_unique<TaintMap>(machine_->memory(),
                                            options_.policy.granularity);
        if (asyncTier_) {
            // Host-side taint writes (input hooks, wrap functions)
            // must reach the tier's shadow too; they only happen at
            // builtin/syscall fences.
            taint_->setMirror([tier = asyncTier_.get()](
                                  uint64_t tagAddr, unsigned bitIdx,
                                  bool value) {
                tier->mirrorTagWrite(tagAddr, bitIdx, value);
            });
        }
    }
    detail::wireRuntime(*machine_, os_, tracking ? taint_.get() : nullptr,
                        tracking ? policy_.get() : nullptr, options_.mode,
                        runtimeCtx_);
}

RunResult
Session::run()
{
    if (ran_) {
        SHIFT_FATAL("Session::run() called twice: the machine has been "
                    "consumed (use a SessionTemplate to run a program "
                    "more than once)");
    }
    ran_ = true;
    obs::ScopedPhase span(obs::Phase::Run);
    return machine_->run(options_.maxSteps);
}

} // namespace shift
