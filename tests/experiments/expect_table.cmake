# Runs one experiment binary and compares its stdout with a committed
# table. Passes only when the binary exits 0 and prints the table exactly.
# On a mismatch the output is written to ACTUAL and the first differing
# line is named; regenerate a table only for an intended change.
#
#   cmake -DTABLE=<table> -DACTUAL=<path> -P expect_table.cmake \
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
  OUTPUT_VARIABLE actual)
if(NOT "${code}" STREQUAL "0")
  message(FATAL_ERROR "expected exit code 0, got '${code}':\n${actual}")
endif()
file(READ "${TABLE}" expected)
if(actual STREQUAL expected)
  return()
endif()

file(WRITE "${ACTUAL}" "${actual}")
# Split both texts into lines; ';' would split a CMake list, so mask it.
foreach(side expected actual)
  string(REPLACE ";" "<semicolon>" masked "${${side}}")
  string(REPLACE "\n" ";" ${side}_lines "${masked}")
  list(LENGTH ${side}_lines ${side}_count)
endforeach()
set(line 0)
while(line LESS expected_count AND line LESS actual_count)
  list(GET expected_lines ${line} want)
  list(GET actual_lines ${line} got)
  if(NOT want STREQUAL got)
    break()
  endif()
  math(EXPR line "${line} + 1")
endwhile()
set(want "<end of table>")
set(got "<end of output>")
if(line LESS expected_count)
  list(GET expected_lines ${line} want)
endif()
if(line LESS actual_count)
  list(GET actual_lines ${line} got)
endif()
math(EXPR shown "${line} + 1")
message(FATAL_ERROR
  "stdout differs from ${TABLE} at line ${shown}:\n"
  "  table:  ${want}\n"
  "  stdout: ${got}\n"
  "The whole output is in ${ACTUAL}.")
