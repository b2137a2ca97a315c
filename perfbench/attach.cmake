# Included by the repository's project() call (run.py passes it as
# CMAKE_PROJECT_INCLUDE). The benchmark driver links the repository's own
# library targets, with their own flags and definitions, so its target
# file is read only after the root CMakeLists.txt has defined them all.
# Deferred arguments are expanded when the call runs, hence the variable.
include_guard(GLOBAL)
set(PERFBENCH_DRIVER_DIR "${CMAKE_CURRENT_LIST_DIR}/driver")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL include "${PERFBENCH_DRIVER_DIR}/driver.cmake")
