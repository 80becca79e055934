# Adds this directory's targets to the main build without editing it:
#
#   cmake -S . -B build \
#     -DCMAKE_PROJECT_pagen_INCLUDE=$PWD/bench/pagen_bench/pagen_bench.cmake
#   cmake --build build --target pagen_bench    # -> build/bench/pagen_bench
#
# CMake includes this file inside the top-level project() call. The
# targets are defined at the end of the top-level CMakeLists.txt instead,
# in its scope, so they get every flag it sets and can link every library.
if(CMAKE_VERSION VERSION_LESS 3.19)
  message(FATAL_ERROR "pagen_bench needs CMake 3.19 (cmake_language DEFER)")
endif()
# The deferred call expands its arguments when it runs, where
# CMAKE_CURRENT_LIST_DIR names the top-level directory.
set(PAGEN_BENCH_LISTS "${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt")
cmake_language(DEFER CALL include "${PAGEN_BENCH_LISTS}")
