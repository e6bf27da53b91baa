# ctest script: a killed campaign must be resumable from its ledger with a
# byte-identical merged JSON document. The kill is simulated by truncating
# the reference run's ledger to half its records plus a torn partial line
# (exactly what a mid-append SIGKILL leaves behind); `--resume` must then
# skip the surviving runs, re-run the rest, and produce the same campaign
# JSON as the uninterrupted reference — at every worker count. A second
# resume from the now-complete ledger must execute nothing and leave the
# ledger file byte-unchanged. Finally, the clean ledger must not satisfy a
# run of another campaign cell: `--qdisc codel` and `--faults FAULTS` at
# the same --seed resume nothing and match the same run without --resume.
#
# Invoked as:
#   cmake -DRUNALL=<path-to-fiveg_runall> -DFAULTS=<fault plan>
#         -DWORK_DIR=<dir> -P runall_resume.cmake
if(NOT RUNALL OR NOT FAULTS OR NOT WORK_DIR)
  message(FATAL_ERROR "RUNALL, FAULTS and WORK_DIR must be set")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(common --smoke --seed 42 --timeout 300 --no-timing --quiet)

# Uninterrupted reference campaign (also produces the full ledger).
execute_process(
  COMMAND ${RUNALL} ${common} --jobs 2 --json ${WORK_DIR}/ref.json
          --ledger ${WORK_DIR}/full.jsonl
  OUTPUT_QUIET
  ERROR_VARIABLE ref_err
  RESULT_VARIABLE ref_rc)
if(NOT ref_rc EQUAL 0)
  message(FATAL_ERROR "reference run failed (rc=${ref_rc}): ${ref_err}")
endif()

# Simulate the kill: keep the first half of the records, then a torn
# partial line with no trailing newline. file(STRINGS) would mangle
# records containing semicolons, so the split walks newline offsets on the
# raw content instead.
file(READ ${WORK_DIR}/full.jsonl content)
string(REGEX MATCHALL "\n" newlines "${content}")
list(LENGTH newlines total_lines)
if(total_lines LESS 4)
  message(FATAL_ERROR "ledger has only ${total_lines} records")
endif()
math(EXPR keep "${total_lines} / 2")
string(LENGTH "${content}" content_len)
set(offset 0)
set(kept_lines 0)
while(kept_lines LESS keep)
  string(SUBSTRING "${content}" ${offset} -1 rest)
  string(FIND "${rest}" "\n" nl)
  if(nl EQUAL -1)
    message(FATAL_ERROR "ran out of newlines at line ${kept_lines}")
  endif()
  math(EXPR offset "${offset} + ${nl} + 1")
  math(EXPR kept_lines "${kept_lines} + 1")
endwhile()
string(SUBSTRING "${content}" 0 ${offset} kept)
file(WRITE ${WORK_DIR}/truncated.jsonl
     "${kept}{\"schema\":\"fiveg-ledger/v1\",\"checksum\":\"torn-mid-app")
message(STATUS "kept ${keep} of ${total_lines} records plus a torn line")

# Resume at several worker counts; each gets its own ledger copy (resume
# appends to it) and must merge to the byte-identical reference JSON.
foreach(jobs 1 2 8)
  set(ledger ${WORK_DIR}/resume_j${jobs}.jsonl)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E copy ${WORK_DIR}/truncated.jsonl ${ledger})
  execute_process(
    COMMAND ${RUNALL} ${common} --jobs ${jobs} --resume ${ledger}
            --json ${WORK_DIR}/resume_j${jobs}.json
    OUTPUT_QUIET
    ERROR_VARIABLE resume_err
    RESULT_VARIABLE resume_rc)
  if(NOT resume_rc EQUAL 0)
    message(FATAL_ERROR
            "--resume --jobs ${jobs} failed (rc=${resume_rc}): ${resume_err}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/ref.json ${WORK_DIR}/resume_j${jobs}.json
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "--resume --jobs ${jobs} JSON differs from the uninterrupted "
            "reference")
  endif()
endforeach()

# Second resume from the grown (now complete) ledger: nothing left to run,
# same JSON out, and the ledger file must not grow.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E copy ${WORK_DIR}/resume_j2.jsonl
          ${WORK_DIR}/second.jsonl)
execute_process(
  COMMAND ${RUNALL} ${common} --jobs 2 --resume ${WORK_DIR}/second.jsonl
          --json ${WORK_DIR}/second.json
  OUTPUT_QUIET
  ERROR_VARIABLE second_err
  RESULT_VARIABLE second_rc)
if(NOT second_rc EQUAL 0)
  message(FATAL_ERROR "second resume failed (rc=${second_rc}): ${second_err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/ref.json ${WORK_DIR}/second.json
  RESULT_VARIABLE second_diff)
if(NOT second_diff EQUAL 0)
  message(FATAL_ERROR "second resume JSON differs from the reference")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/resume_j2.jsonl ${WORK_DIR}/second.jsonl
  RESULT_VARIABLE ledger_diff)
if(NOT ledger_diff EQUAL 0)
  message(FATAL_ERROR
          "second resume modified the ledger (expected zero re-runs)")
endif()

# Another cell at the same --seed: the clean ledger (on a copy, so the
# checks above keep their ledger) must resume none of its runs.
set(cell_common --filter smoke_tcp_bulk --seed 42 --timeout 300 --no-timing
                --quiet --jobs 1)
set(cell_qdisc --qdisc codel)
set(cell_faults --faults ${FAULTS})
foreach(cell qdisc faults)
  execute_process(
    COMMAND ${RUNALL} ${cell_common} ${cell_${cell}}
            --json ${WORK_DIR}/cell_${cell}_ref.json
    OUTPUT_QUIET
    ERROR_VARIABLE cell_err
    RESULT_VARIABLE cell_rc)
  if(NOT cell_rc EQUAL 0)
    message(FATAL_ERROR "${cell} reference failed (rc=${cell_rc}): ${cell_err}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E copy ${WORK_DIR}/full.jsonl
            ${WORK_DIR}/cell_${cell}.jsonl)
  execute_process(
    COMMAND ${RUNALL} ${cell_common} ${cell_${cell}}
            --resume ${WORK_DIR}/cell_${cell}.jsonl
            --json ${WORK_DIR}/cell_${cell}_resume.json
    OUTPUT_QUIET
    ERROR_VARIABLE cell_err
    RESULT_VARIABLE cell_rc)
  if(NOT cell_rc EQUAL 0)
    message(FATAL_ERROR
            "${cell} resume failed (rc=${cell_rc}): ${cell_err}")
  endif()
  string(FIND "${cell_err}" ": 0 run(s) already complete" zero_at)
  if(zero_at EQUAL -1)
    message(FATAL_ERROR
            "a clean ledger resumed runs of the ${cell} cell: ${cell_err}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/cell_${cell}_ref.json
            ${WORK_DIR}/cell_${cell}_resume.json
    RESULT_VARIABLE cell_diff)
  if(NOT cell_diff EQUAL 0)
    message(FATAL_ERROR
            "${cell} run resumed from a clean ledger differs from the same "
            "run without --resume")
  endif()
endforeach()

message(STATUS "runall resume: byte-identical JSON at jobs 1/2/8 and on a "
               "no-op second resume; other cells resume nothing")
