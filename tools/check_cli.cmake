# Command-line contract check, run by ctest as `cmake -P`:
#
#   cmake -DCMD=<binary> "-DARGS=a;b" -DEXPECT_EXIT=<code>
#         [-DEXPECT_STDOUT=<regex>] [-DNAMES_FROM=<source file>]
#         -P tools/check_cli.cmake
#
# Passes iff CMD ARGS exits with EXPECT_EXIT, its stdout matches
# EXPECT_STDOUT (when given), and its stdout contains every `.name = "..."`
# string of NAMES_FROM (when given) — the scheme registry's canonical names.
if(NOT DEFINED CMD OR NOT DEFINED EXPECT_EXIT)
  message(FATAL_ERROR "check_cli.cmake needs CMD and EXPECT_EXIT")
endif()
execute_process(COMMAND ${CMD} ${ARGS}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "${CMD} ${ARGS}: exit ${code}, expected ${EXPECT_EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "${CMD} ${ARGS}: stdout does not match "
                      "'${EXPECT_STDOUT}':\n${out}")
endif()
if(DEFINED NAMES_FROM)
  file(STRINGS "${NAMES_FROM}" lines REGEX "\\.name = \"[^\"]+\"")
  if(NOT lines)
    message(FATAL_ERROR "no `.name = \"...\"` entries in ${NAMES_FROM}")
  endif()
  foreach(line IN LISTS lines)
    string(REGEX REPLACE ".*\\.name = \"([^\"]+)\".*" "\\1" name "${line}")
    # A whole word: "hypercube" must not pass on "hypercube/grouped".
    if(NOT out MATCHES "[ \n]${name}[ \n,]")
      message(FATAL_ERROR "${CMD} ${ARGS}: usage text lacks '${name}'")
    endif()
  endforeach()
endif()
