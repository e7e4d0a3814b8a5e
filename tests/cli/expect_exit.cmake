# Runs a binary with a bad command-line value. Passes only when it exits
# with the expected code and its output (stdout and stderr) names the bad
# option or file; a crash, a run that goes on to do the work, or a hang
# (the test's TIMEOUT) fails.
#
#   cmake -DCODE=<exit code> -DPATTERN=<regex> -P expect_exit.cmake \
#         -- <binary> <args>...
cmake_minimum_required(VERSION 3.16)

set(command)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()

execute_process(COMMAND ${command}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
if(NOT "${code}" STREQUAL "${CODE}")
  message(FATAL_ERROR "expected exit code ${CODE}, got '${code}':\n${output}")
endif()
if(NOT output MATCHES "${PATTERN}")
  message(FATAL_ERROR "output does not match '${PATTERN}':\n${output}")
endif()
