# Run otsim once and assert its exact exit status (ctest's WILL_FAIL
# cannot tell a diagnostic from an abort).
#
#   cmake -DOTSIM=<otsim> -DARGS="<args>" -DEXPECT=<code>
#         [-DMATCH=<text>] [-DTRACE=<file>] -P otsim_expect.cmake
#
# ARGS is split like a shell command line.  MATCH is a literal
# substring the standard output must contain.  TRACE names a
# --trace-out file the run must write with at least one event.

separate_arguments(args UNIX_COMMAND "${ARGS}")
if(TRACE)
  file(REMOVE "${TRACE}")
endif()
execute_process(COMMAND "${OTSIM}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT "${rc}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "otsim ${ARGS}: exit '${rc}', expected ${EXPECT}")
endif()
if(MATCH)
  string(FIND "${out}" "${MATCH}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "otsim ${ARGS}: output lacks '${MATCH}'")
  endif()
endif()
if(TRACE)
  if(NOT EXISTS "${TRACE}")
    message(FATAL_ERROR "otsim ${ARGS}: wrote no ${TRACE}")
  endif()
  file(READ "${TRACE}" trace)
  string(FIND "${trace}" "\"ph\":\"X\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "otsim ${ARGS}: ${TRACE} holds no event")
  endif()
endif()
