# Check that README.md's Quickstart block and the marked region of
# the test that builds it are the same text.
#
#   cmake -DREADME=<README.md> -DSOURCE=<readme_quickstart.cc>
#         -P readme_sync.cmake

file(READ "${README}" readme)
string(FIND "${readme}" "## Quickstart" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${README}: no '## Quickstart' section")
endif()
string(SUBSTRING "${readme}" ${at} -1 readme)
set(fence "```cpp\n")
string(FIND "${readme}" "${fence}" open)
if(open EQUAL -1)
  message(FATAL_ERROR "${README}: Quickstart has no C++ block")
endif()
string(LENGTH "${fence}" len)
math(EXPR open "${open} + ${len}")
string(SUBSTRING "${readme}" ${open} -1 readme)
string(FIND "${readme}" "```" close)
string(SUBSTRING "${readme}" 0 ${close} block)

file(READ "${SOURCE}" source)
set(begin "// README Quickstart begin\n")
string(FIND "${source}" "${begin}" open)
string(FIND "${source}" "// README Quickstart end" close)
if(open EQUAL -1 OR close EQUAL -1)
  message(FATAL_ERROR "${SOURCE}: Quickstart markers missing")
endif()
string(LENGTH "${begin}" len)
math(EXPR open "${open} + ${len}")
math(EXPR len "${close} - ${open}")
string(SUBSTRING "${source}" ${open} ${len} region)

if(NOT block STREQUAL region)
  message(FATAL_ERROR "README.md's Quickstart block differs from the "
                      "marked region of ${SOURCE}; edit both")
endif()
