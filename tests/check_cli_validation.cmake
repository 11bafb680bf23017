# CLI flag validation for shiftc / shiftd: every malformed value must
# produce exit status 103 and a clear one-line error on stderr — never
# an uncaught std::invalid_argument, never a silent fallback. Invoked
# by ctest with -DSHIFTC=<path> -DSHIFTD=<path>.

if(NOT DEFINED SHIFTC OR NOT DEFINED SHIFTD)
    message(FATAL_ERROR "pass -DSHIFTC=... and -DSHIFTD=...")
endif()

set(failures 0)

# expect_usage_error(<regex> <binary> <args...>): the run must exit
# 103 with stderr matching <regex>.
function(expect_usage_error regex bin)
    execute_process(
        COMMAND ${bin} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        TIMEOUT 30)
    get_filename_component(name ${bin} NAME)
    if(NOT rc EQUAL 103)
        message(SEND_ERROR
            "${name} ${ARGN}: expected exit 103, got '${rc}'\n"
            "stderr: ${err}")
        math(EXPR failures "${failures}+1")
        set(failures ${failures} PARENT_SCOPE)
        return()
    endif()
    if(NOT err MATCHES "${regex}")
        message(SEND_ERROR
            "${name} ${ARGN}: stderr does not match '${regex}'\n"
            "stderr: ${err}")
        math(EXPR failures "${failures}+1")
        set(failures ${failures} PARENT_SCOPE)
    endif()
endfunction()

# expect_one_line_error(<regex> <binary> <args...>): like
# expect_usage_error, and stderr must be exactly one line.
function(expect_one_line_error regex bin)
    expect_usage_error("${regex}" ${bin} ${ARGN})
    set(failures ${failures} PARENT_SCOPE)
    execute_process(
        COMMAND ${bin} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        TIMEOUT 30)
    string(STRIP "${err}" stripped)
    if(stripped MATCHES "\n")
        get_filename_component(name ${bin} NAME)
        message(SEND_ERROR
            "${name} ${ARGN}: expected a one-line error\n"
            "stderr: ${err}")
        math(EXPR failures "${failures}+1")
        set(failures ${failures} PARENT_SCOPE)
    endif()
endfunction()

# expect_unknown_option(<binary> <args...>): the first argument is a
# flag the tools no longer accept; the run must exit 103 with exactly
# one stderr line naming it as an unknown option.
function(expect_unknown_option bin flag)
    string(REGEX REPLACE "([][+.*?^$()|\\])" "\\\\\\1" escaped "${flag}")
    expect_one_line_error("unknown option '${escaped}'" ${bin} ${flag} ${ARGN})
    set(failures ${failures} PARENT_SCOPE)
endfunction()

# --- shiftd: worker/clone counts, intervals ---------------------------
expect_usage_error("jobs and --requests must be positive"
    ${SHIFTD} --jobs 0)
expect_usage_error("jobs and --requests must be positive"
    ${SHIFTD} --requests -3)
expect_usage_error("expected an integer"
    ${SHIFTD} --jobs banana)
expect_usage_error("workers must be positive"
    ${SHIFTD} --workers 0)
expect_usage_error("expected a number of seconds"
    ${SHIFTD} --metrics-interval often)
expect_usage_error("metrics-interval must not be negative"
    ${SHIFTD} --metrics-interval -1)
expect_usage_error("max-steps must be positive"
    ${SHIFTD} --max-steps 0)
expect_usage_error("promotion threshold"
    ${SHIFTD} --jit=0)
expect_usage_error("promotion threshold"
    ${SHIFTD} --jit=-7)
expect_usage_error("expected an integer"
    ${SHIFTD} --jit=warm)
expect_usage_error("expected a file path"
    ${SHIFTD} --profile=)
expect_usage_error("expected a file path"
    ${SHIFTD} --jitdump=)

# --- shiftc -----------------------------------------------------------
expect_usage_error("max-steps must be positive"
    ${SHIFTC} --max-steps -5 prog.mc)
expect_usage_error("expected an integer"
    ${SHIFTC} --itrace xyz prog.mc)
expect_usage_error("itrace must not be negative"
    ${SHIFTC} --itrace -1 prog.mc)
expect_usage_error("unknown option"
    ${SHIFTC} --async prog.mc)
expect_usage_error("promotion threshold"
    ${SHIFTC} --jit=0 prog.mc)
expect_usage_error("promotion threshold"
    ${SHIFTC} --jit=2000000000 prog.mc)
expect_usage_error("expected an integer"
    ${SHIFTC} --jit=hot prog.mc)
expect_usage_error("expected a file path"
    ${SHIFTC} --profile= prog.mc)
expect_usage_error("expected a file path"
    ${SHIFTC} --jitdump= prog.mc)

# --- compile errors: lines count from the top of the user's file (the
# libc is compiled separately, so it never shifts them), and
# redefining a libc function is a one-line duplicate-function error
set(missing_semicolon "${CMAKE_CURRENT_BINARY_DIR}/cli_missing_semicolon.mc")
file(WRITE ${missing_semicolon}
    "int main() {\n  long x = 1\n  return (int)x; }\n")
expect_one_line_error("parse error at line 2: expected ';'"
    ${SHIFTC} ${missing_semicolon})
set(libc_redefined "${CMAKE_CURRENT_BINARY_DIR}/cli_libc_redefined.mc")
file(WRITE ${libc_redefined}
    "int main() { return 0; }\nlong strlen(char *s) { return 0; }\n")
expect_one_line_error("line 2: duplicate function 'strlen'"
    ${SHIFTC} ${libc_redefined})

# --- removed tier knobs: the async ring/batch/placement and the JIT
# compile-mode flags are gone, so every spelling is an unknown option
foreach(tool ${SHIFTD} ${SHIFTC})
    expect_unknown_option(${tool} --async-taint=65536 prog.mc)
    expect_unknown_option(${tool} --async-taint=big prog.mc)
    expect_unknown_option(${tool} --async-batch 32 prog.mc)
    expect_unknown_option(${tool} --async-batch)
    expect_unknown_option(${tool} --async-consumer inline prog.mc)
    expect_unknown_option(${tool} --async-consumer)
    expect_unknown_option(${tool} --jit-compile=bg prog.mc)
    expect_unknown_option(${tool} --jit-compile sync prog.mc)
    expect_unknown_option(${tool} --jit-compile)
    expect_unknown_option(${tool} --jit-lazy prog.mc)
endforeach()

if(failures GREATER 0)
    message(FATAL_ERROR "${failures} CLI validation case(s) failed")
endif()
message(STATUS "CLI validation: all cases rejected with clear errors")
