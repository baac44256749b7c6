# Compile one source file with the project's compiler, syntax only,
# and assert the outcome: the compile-time gates (e.g. phase balance
# as a type, see src/sim/time_accountant.hh) are proven by code that
# must not build.
#
#   cmake -DCXX=<compiler> -DINCLUDE=<dir> [-DDEFINES="<-D...>"]
#         -DSOURCE=<file> -DEXPECT=fail|pass [-DMATCH=<text>]
#         -P compile_expect.cmake
#
# EXPECT=fail asserts a nonzero exit and MATCH (a literal substring)
# in the diagnostics; EXPECT=pass asserts a clean compile, the
# positive control that keeps a broken command from passing the
# fail cases.

separate_arguments(defines UNIX_COMMAND "${DEFINES}")
execute_process(COMMAND "${CXX}" -std=c++20 -fsyntax-only
                        "-I${INCLUDE}" ${defines} "${SOURCE}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(EXPECT STREQUAL "pass")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${SOURCE}: expected to compile, exit '${rc}'")
  endif()
elseif(EXPECT STREQUAL "fail")
  if(rc EQUAL 0)
    message(FATAL_ERROR "${SOURCE}: compiled, expected an error")
  endif()
  string(FIND "${out}${err}" "${MATCH}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${SOURCE}: diagnostics lack '${MATCH}'")
  endif()
else()
  message(FATAL_ERROR "EXPECT must be fail or pass, not '${EXPECT}'")
endif()
