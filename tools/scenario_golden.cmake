# Run `otsim scenario --compare fifo,sjf,fair,edf --json` on one spec
# and require the JSON to match its golden file byte for byte.  The
# host-thread count comes from the test's OT_HOST_THREADS.
#
#   cmake -DOTSIM=<otsim> -DSPEC=<file.scn> -DGOLDEN=<file.json>
#         -DOUT=<scratch.json> -P scenario_golden.cmake
#
# Re-record a golden file only for a deliberate model-time change, and
# explain the diff.

file(REMOVE "${OUT}")
execute_process(COMMAND "${OTSIM}" scenario --file "${SPEC}"
                        --compare fifo,sjf,fair,edf --json "${OUT}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT "${rc}" STREQUAL "0")
  message(FATAL_ERROR "otsim scenario --file ${SPEC}: exit '${rc}'")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT}"
                        "${GOLDEN}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
