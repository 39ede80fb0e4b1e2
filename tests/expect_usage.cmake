# Runs one command line that must print the usage: exit status 0 and a
# "usage: <TOOL>" line on stdout, within 30 s.
#
# Usage: cmake -DTOOL=<name> -P expect_usage.cmake -- <program> [args...]
set(command "")
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(collect)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(collect ON)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status
  OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 30)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "expected exit status 0, got '${status}'\n${err}")
endif()
if(NOT out MATCHES "usage: ${TOOL} ")
  message(FATAL_ERROR "no 'usage: ${TOOL}' line on stdout:\n${out}")
endif()
