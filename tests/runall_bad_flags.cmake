# Out-of-range numeric flags must be usage errors (exit 2), never silently
# coerced: a non-finite --timeout, an --jobs/--sim-threads value outside
# int, and a negative --seed or --shard count. A campaign cell axis
# (--qdisc, --faults) given next to --manifest, which supplies its own,
# is a usage error too, and so are a flag that takes a value given twice
# (the error names the flag) and the removed --progress and --metrics
# flags (unknown options). Each fiveg_runall case runs with --list, which
# would otherwise exit 0 without running anything. The tools take the
# same strict parser: fiveg_trace_check --min-events and fiveg_prof --top
# run against an empty trace and an empty ledger, which both pass with
# valid flags. Runs as a ctest test:
#   cmake -DRUNALL=<fiveg_runall> -DTRACE_CHECK=<fiveg_trace_check>
#         -DPROF=<fiveg_prof> -DDATA_DIR=<tests/data> -DWORK_DIR=<dir>
#         -P runall_bad_flags.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED RUNALL OR NOT DEFINED TRACE_CHECK OR NOT DEFINED PROF OR
   NOT DEFINED DATA_DIR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DRUNALL=<fiveg_runall> "
    "-DTRACE_CHECK=<fiveg_trace_check> -DPROF=<fiveg_prof> "
    "-DDATA_DIR=<tests/data> -DWORK_DIR=<dir> -P runall_bad_flags.cmake")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
set(empty_trace ${WORK_DIR}/empty.trace.json)
set(empty_ledger ${WORK_DIR}/empty.jsonl)
file(WRITE ${empty_trace} "{\"traceEvents\":[]}")
file(WRITE ${empty_ledger} "")

# One "command|flag:value[|flag:value...]" entry per case (the value is
# everything after the flag's first ':'); the command's other arguments
# make it exit 0 once the last flag is dropped.
set(manifest "--manifest:${DATA_DIR}/campaign_smoke.json")
set(cases
  "RUNALL|--timeout:inf"
  "RUNALL|--timeout:nan"
  "RUNALL|--jobs:4294967297"
  "RUNALL|--sim-threads:4294967296"
  "RUNALL|--seed:-1"
  "RUNALL|--shard:0/-1"
  "RUNALL|${manifest}|--qdisc:codel"
  "RUNALL|${manifest}|--faults:${DATA_DIR}/chaos_plan.json"
  "RUNALL|--filter:ho_event_mix|--filter:fig23"
  "RUNALL|--seed:1|--seed:2"
  "RUNALL|--jobs:2|--jobs:2"
  "RUNALL|--timeout:5|--timeout:0"
  "TRACE_CHECK|--min-events:x"
  "PROF|--top:-1")

foreach(entry IN LISTS cases)
  string(REPLACE "|" ";" parts "${entry}")
  list(POP_FRONT parts tool)
  set(argv)
  foreach(pair IN LISTS parts)
    string(FIND "${pair}" ":" colon)
    string(SUBSTRING "${pair}" 0 ${colon} flag)
    math(EXPR value_at "${colon} + 1")
    string(SUBSTRING "${pair}" ${value_at} -1 value)
    list(APPEND argv ${flag} ${value})
  endforeach()
  list(JOIN argv " " shown)
  if(tool STREQUAL "RUNALL")
    set(rest --list)
  elseif(tool STREQUAL "TRACE_CHECK")
    set(rest ${empty_trace})
  else()
    set(rest ${empty_ledger})
  endif()
  execute_process(
    COMMAND ${${tool}} ${argv} ${rest}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  get_filename_component(name "${${tool}}" NAME)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${name} ${shown} exited '${rc}', "
      "want 2 (usage error); stderr: ${err}")
  endif()
  string(STRIP "${err}" err)
  # A repeated flag must be the error reported, by name.
  list(LENGTH argv argc)
  if(argc EQUAL 4)
    list(GET argv 0 first_flag)
    list(GET argv 2 second_flag)
    if(second_flag STREQUAL first_flag AND
       NOT err MATCHES "${first_flag} given more than once")
      message(FATAL_ERROR "${name} ${shown}: stderr does not name the "
        "repeated flag: ${err}")
    endif()
  endif()
  message(STATUS "ok: ${name} ${shown} -> exit 2 (${err})")
endforeach()

# Flags fiveg_runall no longer has: rejected as unknown, not ignored.
foreach(flag --progress --metrics)
  execute_process(
    COMMAND ${RUNALL} ${flag} --list
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "unknown option: ${flag}")
    message(FATAL_ERROR "fiveg_runall ${flag} --list exited '${rc}', "
      "want 2 (unknown option); stderr: ${err}")
  endif()
  message(STATUS "ok: fiveg_runall ${flag} --list -> exit 2 (unknown)")
endforeach()
