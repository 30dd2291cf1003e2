# CTest script driving the bgls_run CLI end to end:
#  1. sample the checked-in QASM circuit (automatic backend selection)
#     and require byte-identical output against the recorded expectation;
#  2. sample it again through the statevector backend at threads 1, 2
#     and 4, batched and --no-batch, and require the reports of each
#     mode to be byte-identical (the engine's determinism guarantee,
#     visible at the CLI surface).
#
# Variables: BGLS_RUN, QASM, EXPECTED, WORK_DIR.

function(run_bgls_run out_file)
  execute_process(
    COMMAND ${BGLS_RUN} ${ARGN} --out ${out_file} ${QASM}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "bgls_run ${ARGN} failed (exit ${rc}):\n${stdout}\n${stderr}")
  endif()
endfunction()

# 1. Round trip against the recorded expectation (auto-selected backend).
run_bgls_run(${WORK_DIR}/cli_auto.json --reps 4096 --seed 7)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/cli_auto.json ${EXPECTED}
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  file(READ ${WORK_DIR}/cli_auto.json actual)
  message(FATAL_ERROR
    "bgls_run output differs from ${EXPECTED}; got:\n${actual}")
endif()

# 2. Bitstring rendering follows the library convention (qubit 0
#    first, matching util/bits.h to_string and print_histogram): the
#    deterministic |10⟩ outcome of `x q[0]` must print as "10".
get_filename_component(data_dir ${QASM} DIRECTORY)
execute_process(
  COMMAND ${BGLS_RUN} --reps 16 --seed 1 --out ${WORK_DIR}/cli_x0.json
          ${data_dir}/x0.qasm
  RESULT_VARIABLE rc_x0)
if(NOT rc_x0 EQUAL 0)
  message(FATAL_ERROR "bgls_run on x0.qasm failed (exit ${rc_x0})")
endif()
file(READ ${WORK_DIR}/cli_x0.json x0_report)
string(FIND "${x0_report}" "\"bits\": \"10\"" bits_pos)
if(bits_pos EQUAL -1)
  message(FATAL_ERROR
    "bgls_run bit rendering broke the qubit-0-first convention; got:\n"
    "${x0_report}")
endif()

# 3. Thread-count invariance through the statevector engine, for both
#    decompositions: the one-dictionary batched path and the sharded
#    trajectory path (--no-batch).
foreach(mode batch no_batch)
  set(mode_flags "")
  if(mode STREQUAL "no_batch")
    set(mode_flags --no-batch)
  endif()
  foreach(threads 1 2 4)
    run_bgls_run(${WORK_DIR}/cli_sv_${mode}_t${threads}.json
                 --backend sv --threads ${threads} --streams 8 --reps 4096
                 --seed 11 ${mode_flags})
  endforeach()
  foreach(threads 2 4)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${WORK_DIR}/cli_sv_${mode}_t1.json
              ${WORK_DIR}/cli_sv_${mode}_t${threads}.json
      RESULT_VARIABLE diff_threads)
    if(NOT diff_threads EQUAL 0)
      message(FATAL_ERROR
        "bgls_run statevector output (${mode}) changed with the thread "
        "count (1 vs ${threads} workers) — the determinism contract is "
        "broken")
    endif()
  endforeach()
endforeach()
