# Out-of-range numeric flags must be usage errors (exit 2), never silently
# coerced: a non-finite --timeout, an --jobs/--sim-threads value outside
# int, and a negative --seed. Each case runs with --list, which would
# otherwise exit 0 without running anything. Runs as a ctest test:
#   cmake -DRUNALL=<fiveg_runall> -P runall_bad_flags.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED RUNALL)
  message(FATAL_ERROR "usage: cmake -DRUNALL=<fiveg_runall> -P "
    "runall_bad_flags.cmake")
endif()

# One "flag:value" pair per entry.
set(cases
  "--timeout:inf"
  "--timeout:nan"
  "--jobs:4294967297"
  "--sim-threads:4294967296"
  "--seed:-1")

foreach(pair IN LISTS cases)
  string(REPLACE ":" ";" argv "${pair}")
  string(REPLACE ":" " " shown "${pair}")
  execute_process(
    COMMAND ${RUNALL} ${argv} --list
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "fiveg_runall ${shown} --list exited '${rc}', "
      "want 2 (usage error); stderr: ${err}")
  endif()
  string(STRIP "${err}" err)
  message(STATUS "ok: ${shown} -> exit 2 (${err})")
endforeach()
