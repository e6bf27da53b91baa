# ctest script: a sharded manifest campaign's columnar store must merge to
# the byte-identical fiveg_query export of the unsharded reference run —
# including after a mid-campaign kill. Three crash artifacts are simulated
# (one per worker count): a deleted shard file (every record backfilled
# from the ledger splice on resume), a torn trailing frame (sealed by the
# writer on reopen), and an intact store (pure key-dedup resume). In every
# case the resumed shard plus its sibling must export the same bytes as
# the uninterrupted reference, and fiveg_prof's ledger<->store audit must
# pass. The store's reader is checked too: a one-cell manifest's default
# cell exports the bytes of the plain `--seed` run, and fiveg_query's
# --filter/--list and --percentiles answer from the reference store.
#
# Invoked as:
#   cmake -DRUNALL=<fiveg_runall> -DQUERY=<fiveg_query> -DPROF=<fiveg_prof>
#         -DMANIFEST=<campaign.json> -DWORK_DIR=<dir> -P runall_store.cmake
if(NOT RUNALL OR NOT QUERY OR NOT PROF OR NOT MANIFEST OR NOT WORK_DIR)
  message(FATAL_ERROR "RUNALL, QUERY, PROF, MANIFEST and WORK_DIR must be set")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(common --manifest ${MANIFEST} --timeout 300 --quiet)

function(run_shard out_prefix shard jobs ledger store)
  execute_process(
    COMMAND ${RUNALL} ${common} --shard ${shard} --jobs ${jobs}
            --ledger ${ledger} --store ${store}
    OUTPUT_QUIET
    ERROR_VARIABLE run_err
    RESULT_VARIABLE run_rc)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
            "${out_prefix} shard ${shard} failed (rc=${run_rc}): ${run_err}")
  endif()
endfunction()

function(export_store store out)
  execute_process(
    COMMAND ${QUERY} ${store} --export-runall-json ${out}
    OUTPUT_QUIET
    ERROR_VARIABLE query_err
    RESULT_VARIABLE query_rc)
  if(NOT query_rc EQUAL 0)
    message(FATAL_ERROR
            "fiveg_query failed on ${store} (rc=${query_rc}): ${query_err}")
  endif()
endfunction()

# Truncates a ledger to half its lines plus a torn partial line — the
# exact artifact a mid-append SIGKILL leaves behind.
function(tear_ledger ledger)
  file(READ ${ledger} content)
  string(REGEX MATCHALL "\n" newlines "${content}")
  list(LENGTH newlines total_lines)
  if(total_lines LESS 2)
    message(FATAL_ERROR "ledger ${ledger} has only ${total_lines} records")
  endif()
  math(EXPR keep "${total_lines} / 2")
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
  file(WRITE ${ledger}
       "${kept}{\"schema\":\"fiveg-ledger/v1\",\"checksum\":\"torn-mid-app")
endfunction()

# --- Reference: the whole campaign as one shard. --------------------------
run_shard(ref 0/1 2 ${WORK_DIR}/ref.jsonl ${WORK_DIR}/ref_store)
export_store(${WORK_DIR}/ref_store ${WORK_DIR}/ref.json)

# --- fiveg_query answers from the reference store. ------------------------
function(query out_var rc_var)
  execute_process(
    COMMAND ${QUERY} ${WORK_DIR}/ref_store ${ARGN}
    OUTPUT_VARIABLE query_out
    ERROR_VARIABLE query_err
    RESULT_VARIABLE query_rc)
  set(${out_var} "${query_out}" PARENT_SCOPE)
  set(${rc_var} "${query_rc}" PARENT_SCOPE)
endfunction()

query(codel_list codel_rc --filter "{qdisc=codel}" --list)
string(REGEX MATCHALL "[^\n]+" codel_lines "${codel_list}")
list(LENGTH codel_lines codel_count)
if(NOT codel_rc EQUAL 0 OR codel_count EQUAL 0)
  message(FATAL_ERROR "fiveg_query --filter {qdisc=codel} --list "
                      "(rc=${codel_rc}) listed nothing")
endif()
foreach(line IN LISTS codel_lines)
  string(FIND "${line}" "qdisc=codel}" codel_at)
  if(codel_at EQUAL -1)
    message(FATAL_ERROR "--filter {qdisc=codel} listed \"${line}\"")
  endif()
endforeach()

query(pct_out pct_rc --percentiles "radio.rsrp_dbm{rat=nr}")
if(NOT pct_rc EQUAL 0 OR
   NOT pct_out MATCHES "merged [0-9]+ digest\\(s\\)")
  message(FATAL_ERROR "fiveg_query --percentiles failed (rc=${pct_rc}): "
                      "${pct_out}")
endif()
query(unknown_out unknown_rc --percentiles no.such.metric)
if(NOT unknown_rc EQUAL 1)
  message(FATAL_ERROR "--percentiles on an unknown metric exited "
                      "'${unknown_rc}', want 1")
endif()

# --- A one-cell manifest's default cell is the plain --seed run. ----------
file(WRITE ${WORK_DIR}/one_cell.json [=[
{"schema": "fiveg-campaign/v1", "name": "one-cell", "smoke": true,
 "filter": "fig2", "axes": {"seed": [42]}}
]=])
execute_process(
  COMMAND ${RUNALL} --manifest ${WORK_DIR}/one_cell.json --timeout 300
          --quiet --store ${WORK_DIR}/one_cell_store
  OUTPUT_QUIET
  ERROR_VARIABLE one_err
  RESULT_VARIABLE one_rc)
if(NOT one_rc EQUAL 0)
  message(FATAL_ERROR "one-cell manifest failed (rc=${one_rc}): ${one_err}")
endif()
export_store(${WORK_DIR}/one_cell_store ${WORK_DIR}/one_cell.export.json)
execute_process(
  COMMAND ${RUNALL} --smoke --filter fig2 --seed 42 --timeout 300 --quiet
          --no-timing --json ${WORK_DIR}/plain.json
  OUTPUT_QUIET
  ERROR_VARIABLE plain_err
  RESULT_VARIABLE plain_rc)
if(NOT plain_rc EQUAL 0)
  message(FATAL_ERROR "plain run failed (rc=${plain_rc}): ${plain_err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/plain.json ${WORK_DIR}/one_cell.export.json
  RESULT_VARIABLE one_diff)
if(NOT one_diff EQUAL 0)
  message(FATAL_ERROR "the one-cell manifest's default cell differs from "
                      "the plain --seed 42 run")
endif()

# --- Clean 2-way shard split must merge to the reference bytes. -----------
run_shard(clean 0/2 2 ${WORK_DIR}/clean_0.jsonl ${WORK_DIR}/clean_store)
run_shard(clean 1/2 2 ${WORK_DIR}/clean_1.jsonl ${WORK_DIR}/clean_store)
export_store(${WORK_DIR}/clean_store ${WORK_DIR}/clean.json)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/ref.json ${WORK_DIR}/clean.json
  RESULT_VARIABLE clean_diff)
if(NOT clean_diff EQUAL 0)
  message(FATAL_ERROR "2-shard store export differs from the unsharded one")
endif()

# --- Kill + resume at several worker counts. ------------------------------
# crash mode per jobs value: delete (backfill everything from the splice),
# tear (torn trailing frame sealed on reopen), keep (pure dedup).
set(modes_1 delete)
set(modes_2 tear)
set(modes_8 keep)
foreach(jobs 1 2 8)
  set(work ${WORK_DIR}/resume_j${jobs})
  set(store ${work}_store)
  set(ledger0 ${work}_0.jsonl)

  # Shard 0 runs to completion, then the "kill" mangles its artifacts.
  run_shard(resume_j${jobs} 0/2 ${jobs} ${ledger0} ${store})
  tear_ledger(${ledger0})
  set(mode ${modes_${jobs}})
  if(mode STREQUAL delete)
    file(REMOVE ${store}/shard-0-of-2.fgrs)
  elseif(mode STREQUAL tear)
    file(APPEND ${store}/shard-0-of-2.fgrs "FGRSxRtorn-frame-garbage")
  endif()

  # Resume shard 0 from the torn ledger (appends land back in it), then
  # run shard 1 cleanly into the same store directory.
  execute_process(
    COMMAND ${RUNALL} ${common} --shard 0/2 --jobs ${jobs}
            --resume ${ledger0} --store ${store}
    OUTPUT_QUIET
    ERROR_VARIABLE resume_err
    RESULT_VARIABLE resume_rc)
  if(NOT resume_rc EQUAL 0)
    message(FATAL_ERROR
            "resume (jobs ${jobs}, mode ${mode}) failed (rc=${resume_rc}): "
            "${resume_err}")
  endif()
  run_shard(resume_j${jobs} 1/2 ${jobs} ${work}_1.jsonl ${store})

  export_store(${store} ${work}.json)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/ref.json ${work}.json
    RESULT_VARIABLE resume_diff)
  if(NOT resume_diff EQUAL 0)
    message(FATAL_ERROR
            "resumed store export (jobs ${jobs}, mode ${mode}) differs "
            "from the reference")
  endif()

  # The audit must agree: one store record per ledgered run, no orphans.
  execute_process(
    COMMAND ${PROF} ${ledger0} ${work}_1.jsonl --store ${store} --json
    OUTPUT_QUIET
    ERROR_VARIABLE prof_err
    RESULT_VARIABLE prof_rc)
  if(NOT prof_rc EQUAL 0)
    message(FATAL_ERROR
            "fiveg_prof audit failed (jobs ${jobs}, mode ${mode}, "
            "rc=${prof_rc}): ${prof_err}")
  endif()
endforeach()

message(STATUS "runall store: sharded + killed-and-resumed campaigns merge "
               "to byte-identical exports at jobs 1/2/8")
