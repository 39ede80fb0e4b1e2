# Lists every test binary's tests twice and fails when the two listings
# differ. A test ID that changes from run to run (for example a parameter
# printed from uninitialized padding bytes) names a different test in every
# build, so results cannot be compared across builds.
#
# Usage: cmake -P stable_test_ids.cmake <test binary>...
set(problems "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 3 ${last})
  set(binary "${CMAKE_ARGV${i}}")
  execute_process(COMMAND "${binary}" --gtest_list_tests
    OUTPUT_VARIABLE first RESULT_VARIABLE first_rc)
  execute_process(COMMAND "${binary}" --gtest_list_tests
    OUTPUT_VARIABLE second RESULT_VARIABLE second_rc)
  if(NOT first_rc EQUAL 0 OR NOT second_rc EQUAL 0)
    string(APPEND problems "\n  ${binary}: --gtest_list_tests failed")
  elseif(NOT first STREQUAL second)
    string(APPEND problems "\n  ${binary}: two listings differ")
  endif()
endforeach()
if(problems)
  message(FATAL_ERROR "unstable test IDs:${problems}")
endif()
