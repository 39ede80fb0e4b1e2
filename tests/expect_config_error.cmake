# Runs one command line that must fail closed: exit status 1 and a
# "config error:" line on stderr, within 30 s.
#
# Usage: cmake -P expect_config_error.cmake -- <program> [args...]
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
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'\n${err}")
endif()
if(NOT err MATCHES "config error:")
  message(FATAL_ERROR "no 'config error:' line on stderr:\n${err}")
endif()
