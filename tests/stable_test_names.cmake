# Runs each test binary's --gtest_list_tests twice and fails when the two listings
# differ. Usage: cmake -DBINARIES=<bin>,<bin>,... -P stable_test_names.cmake
string(REPLACE "," ";" binaries "${BINARIES}")
foreach(bin IN LISTS binaries)
  execute_process(COMMAND ${bin} --gtest_list_tests OUTPUT_VARIABLE first
                  RESULT_VARIABLE first_rc)
  execute_process(COMMAND ${bin} --gtest_list_tests OUTPUT_VARIABLE second
                  RESULT_VARIABLE second_rc)
  if(NOT first_rc EQUAL 0 OR NOT second_rc EQUAL 0)
    message(FATAL_ERROR "${bin} --gtest_list_tests failed (${first_rc}, ${second_rc})")
  endif()
  if(NOT first STREQUAL second)
    message(FATAL_ERROR "${bin}: two listings differ\n${first}\n--- versus ---\n${second}")
  endif()
endforeach()
list(LENGTH binaries count)
message(STATUS "${count} test binaries list stable names")
