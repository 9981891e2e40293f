# CLI fault-injection matrix (docs/robustness.md): deterministic faults
# across {reader, writer, queue, worker} x {strict, skip, repair} must
# produce stable diagnostics and exit codes for a fixed seed, and the
# disarmed binary must stay byte-identical to an un-instrumented run.
file(MAKE_DIRECTORY ${WORKDIR})

function(check_rc what expected actual)
  if(NOT actual EQUAL expected)
    message(FATAL_ERROR "${what}: expected exit ${expected}, got ${actual}")
  endif()
endfunction()

function(check_same what file_a file_b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${file_a} ${file_b}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what}: stdout differs (${file_a} vs ${file_b})")
  endif()
endfunction()

# -- Fixtures -----------------------------------------------------------------
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 512 --out ${WORKDIR}/good.out
  RESULT_VARIABLE rc)
check_rc("gtracer" 0 "${rc}")
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 512 --binary
          --out ${WORKDIR}/good.tdtb
  RESULT_VARIABLE rc)
check_rc("gtracer --binary" 0 "${rc}")

execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096
  OUTPUT_FILE ${WORKDIR}/baseline.stdout RESULT_VARIABLE rc)
check_rc("dinerosim baseline" 0 "${rc}")

# -- Control: an armed-but-silent spec changes nothing. -----------------------
# probability 0 exercises every injection hook (enabled() is true at each
# site) without firing once: stdout and exit code must match the baseline.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096
          --fault-spec "queue.push-delay:0;reader.read:0;writer.flush:0"
  OUTPUT_FILE ${WORKDIR}/control.stdout RESULT_VARIABLE rc)
check_rc("dinerosim silent fault spec" 0 "${rc}")
check_same("silent fault spec" ${WORKDIR}/baseline.stdout
           ${WORKDIR}/control.stdout)

# A malformed spec is a usage error.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out
          --fault-spec "no.such-site:1"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("bad fault spec" 2 "${rc}")
if(NOT err MATCHES "unknown site")
  message(FATAL_ERROR "bad fault spec missing diagnostic: ${err}")
endif()

# -- Reader row: the istream dies after the first refill. ---------------------
# The 512-record trace fits one 1 MiB read block, so every line is
# salvaged before the second refill fails: skip/repair still produce the
# full baseline report plus a trace-io-error diagnostic.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096
          --on-error=strict --fault-spec "seed=7;reader.read:1:1"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("reader fault strict" 2 "${rc}")
if(NOT err MATCHES "trace read failed")
  message(FATAL_ERROR "reader fault strict missing diagnostic: ${err}")
endif()

foreach(policy skip repair)
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096
            --on-error=${policy} --fault-spec "seed=7;reader.read:1:1"
    OUTPUT_FILE ${WORKDIR}/reader_${policy}.stdout
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  check_rc("reader fault ${policy}" 1 "${rc}")
  if(NOT err MATCHES "trace-io-error")
    message(FATAL_ERROR "reader fault ${policy} missing T004: ${err}")
  endif()
  check_same("reader fault ${policy} salvages everything"
             ${WORKDIR}/baseline.stdout ${WORKDIR}/reader_${policy}.stdout)
endforeach()

# Fixed seed -> identical run: same stdout, same exit code, same diag.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096
          --on-error=skip --fault-spec "seed=7;reader.read:1:1"
  OUTPUT_FILE ${WORKDIR}/reader_rerun.stdout
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("reader fault rerun" 1 "${rc}")
if(NOT err MATCHES "trace-io-error")
  message(FATAL_ERROR "reader fault rerun missing T004: ${err}")
endif()
check_same("reader fault determinism" ${WORKDIR}/reader_skip.stdout
           ${WORKDIR}/reader_rerun.stdout)

# -- Reader row x input kinds. ------------------------------------------------
# A regular file, stdin, a FIFO, gzip'd text and din all read through the
# same prefetching byte source and line splitter, so reader.read fires at
# the same read on each, and the salvage+T004 contract holds for each:
# strict exits 2; skip exits 1 with T004 and the clean run's report (each
# input fits one 1 MiB read block, so every line is salvaged first).
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 512 --out ${WORKDIR}/good.out.gz
  RESULT_VARIABLE rc ERROR_VARIABLE err)
set(have_gz OFF)
if(rc EQUAL 0)
  set(have_gz ON)
elseif(rc EQUAL 2 AND err MATCHES "gzip")
  message(STATUS "zlib not built in; the .gz reader row is skipped")
else()
  message(FATAL_ERROR "gtracer .gz: exit ${rc}: ${err}")
endif()
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 512 --din --out ${WORKDIR}/good.din
  RESULT_VARIABLE rc)
check_rc("gtracer --din" 0 "${rc}")

find_program(MKFIFO_TOOL mkfifo)
find_program(SH_TOOL sh)

# Runs dinerosim on ${WORKDIR}/<input>, handed over as `kind` (file,
# stdin or fifo). `policy` empty is the clean run; otherwise the run
# takes --on-error=<policy> and fails the second read. stdout lands in
# ${WORKDIR}/<tag>.stdout; rc and err are set in the caller.
function(run_reader kind input tag policy)
  set(trace ${WORKDIR}/${input})
  set(fault_args "")
  if(NOT policy STREQUAL "")
    set(fault_args --on-error=${policy} --fault-spec "seed=7\;reader.read:1:1")
  endif()
  if(kind STREQUAL "stdin")
    execute_process(
      COMMAND ${DINEROSIM} --trace - --size 4096 ${fault_args}
      INPUT_FILE ${trace}
      OUTPUT_FILE ${WORKDIR}/${tag}.stdout
      RESULT_VARIABLE rc ERROR_VARIABLE err)
  elseif(kind STREQUAL "fifo")
    # The FIFO's name carries the input's extension: the format is
    # picked from the name.
    get_filename_component(ext ${input} LAST_EXT)
    set(fifo ${WORKDIR}/reader_fifo${ext})
    file(REMOVE ${fifo})
    execute_process(COMMAND ${MKFIFO_TOOL} ${fifo} RESULT_VARIABLE rc)
    check_rc("mkfifo ${fifo}" 0 "${rc}")
    execute_process(
      COMMAND ${SH_TOOL} -c "cat \"$0\" > \"$1\"" ${trace} ${fifo}
      COMMAND ${DINEROSIM} --trace ${fifo} --size 4096 ${fault_args}
      TIMEOUT 30
      OUTPUT_FILE ${WORKDIR}/${tag}.stdout
      RESULT_VARIABLE rc ERROR_VARIABLE err)
    file(REMOVE ${fifo})
  else()
    execute_process(
      COMMAND ${DINEROSIM} --trace ${trace} --size 4096 ${fault_args}
      OUTPUT_FILE ${WORKDIR}/${tag}.stdout
      RESULT_VARIABLE rc ERROR_VARIABLE err)
  endif()
  set(rc "${rc}" PARENT_SCOPE)
  set(err "${err}" PARENT_SCOPE)
endfunction()

function(reader_fault_row kind input)
  set(what "reader fault (${kind} ${input})")
  string(MAKE_C_IDENTIFIER "reader_${kind}_${input}" tag)
  run_reader(${kind} ${input} ${tag}_clean "")
  check_rc("${what} clean run" 0 "${rc}")

  run_reader(${kind} ${input} ${tag}_strict strict)
  check_rc("${what} strict" 2 "${rc}")
  if(NOT err MATCHES "trace read failed")
    message(FATAL_ERROR "${what} strict missing diagnostic: ${err}")
  endif()

  run_reader(${kind} ${input} ${tag}_skip skip)
  check_rc("${what} skip" 1 "${rc}")
  if(NOT err MATCHES "trace-io-error")
    message(FATAL_ERROR "${what} skip missing T004: ${err}")
  endif()
  check_same("${what} salvages everything"
             ${WORKDIR}/${tag}_clean.stdout ${WORKDIR}/${tag}_skip.stdout)
endfunction()

reader_fault_row(file good.out)
reader_fault_row(stdin good.out)
if(UNIX AND MKFIFO_TOOL AND SH_TOOL)
  reader_fault_row(fifo good.out)
else()
  message(STATUS "mkfifo(1) or sh(1) not found; the FIFO reader row is skipped")
endif()
if(have_gz)
  reader_fault_row(file good.out.gz)
endif()
reader_fault_row(file good.din)

# Stdin ingest ("-" reads through the overlapped source) keeps the same
# report and exit code as the file-backed baseline.
execute_process(
  COMMAND ${DINEROSIM} --trace - --size 4096
  INPUT_FILE ${WORKDIR}/good.out
  OUTPUT_FILE ${WORKDIR}/stdin.stdout RESULT_VARIABLE rc)
check_rc("stdin ingest clean" 0 "${rc}")
check_same("stdin ingest bit-identity" ${WORKDIR}/baseline.stdout
           ${WORKDIR}/stdin.stdout)

# -- Writer row: the transformed-trace flush fails (ENOSPC). ------------------
# A write failure is fatal under every policy: skipping output corruption
# is never an option. The failed run removes the partial transformed
# trace, which would otherwise read back as a shorter, valid one.
function(check_no_output what file)
  if(EXISTS ${file})
    message(FATAL_ERROR "${what}: a failed write left ${file} behind")
  endif()
endfunction()

foreach(ext out din)
  foreach(policy strict skip repair)
    set(xform ${WORKDIR}/xform_${policy}.${ext})
    file(REMOVE ${xform})
    execute_process(
      COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096
              --rules ${RULES} --xform-out ${xform}
              --on-error=${policy} --fault-spec "writer.flush:1"
      RESULT_VARIABLE rc ERROR_VARIABLE err)
    check_rc("${ext} writer fault ${policy}" 2 "${rc}")
    if(NOT err MATCHES "trace write failed")
      message(FATAL_ERROR
        "${ext} writer fault ${policy} missing diagnostic: ${err}")
    endif()
    check_no_output("${ext} writer fault ${policy}" ${xform})
  endforeach()
endforeach()

# "-" names no file for --xform-out: dinerosim's standard output carries
# its report, so the run is refused before it reads a record.
file(REMOVE ${WORKDIR}/-)
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096
          --rules ${RULES} --xform-out -
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
check_rc("--xform-out -" 2 "${rc}")
if(NOT err MATCHES "standard output" OR EXISTS ${WORKDIR}/-)
  message(FATAL_ERROR "--xform-out - must be refused without a file: ${err}")
endif()

# The same failure on a TDTB save: plain v2, and a v3 zstd container,
# whose frames a writer thread compresses at --jobs 3. The fault is
# drawn on the evaluating thread at batch boundaries, so it fires at the
# same batch at any --jobs.
set(tdtb_formats v2)
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 64 --binary --compress zstd
          --out ${WORKDIR}/zstd_probe.tdtb
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  list(APPEND tdtb_formats v3)
else()
  message(STATUS "zstd not loadable here; v3 writer-fault rows skipped")
endif()
foreach(format ${tdtb_formats})
  set(compress_args "")
  if(format STREQUAL "v3")
    set(compress_args --compress zstd)
  endif()
  foreach(policy strict skip repair)
    set(xform ${WORKDIR}/xform_${format}_${policy}.tdtb)
    file(REMOVE ${xform})
    execute_process(
      COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096
              --rules ${RULES} --xform-out ${xform}
              ${compress_args} --jobs 3
              --on-error=${policy} --fault-spec "writer.flush:1"
      RESULT_VARIABLE rc ERROR_VARIABLE err)
    check_rc("${format} writer fault ${policy}" 2 "${rc}")
    if(NOT err MATCHES "trace write failed")
      message(FATAL_ERROR
        "${format} writer fault ${policy} missing diagnostic: ${err}")
    endif()
    check_no_output("${format} writer fault ${policy}" ${xform})
  endforeach()
endforeach()

# A flush that fails while the frame-compression thread runs: at LEN
# 16384 the T1 rewrite fills its first 65536-record frame at batch 16,
# and "writer.flush:1:20" passes 20 batch boundaries and fails the 21st,
# with that thread running. The stream is the calling thread's, so it is
# marked failed there without waiting for that thread.
list(FIND tdtb_formats v3 v3_index)
if(NOT v3_index EQUAL -1)
  execute_process(
    COMMAND ${GTRACER} --kernel t1_soa --len 16384 --out ${WORKDIR}/big.out
    RESULT_VARIABLE rc)
  check_rc("gtracer LEN 16384" 0 "${rc}")
  file(READ ${RULES} rules_text)
  string(REPLACE "1024" "16384" rules_text "${rules_text}")
  file(WRITE ${WORKDIR}/t1_16384.rules "${rules_text}")
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/big.out --size 4096
            --rules ${WORKDIR}/t1_16384.rules
            --xform-out ${WORKDIR}/xform_late.tdtb --compress zstd --jobs 3
            --fault-spec "writer.flush:1:20"
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  check_rc("late v3 writer fault" 2 "${rc}")
  if(NOT err MATCHES "trace write failed")
    message(FATAL_ERROR "late v3 writer fault missing diagnostic: ${err}")
  endif()
endif()

# -- gtracer writer rows: the trace is written while the kernel runs. ---------
# Records reach the writer in 4096-record batches, and writer.flush is
# drawn at each batch boundary. A failed flush stops the run (exit 2, an
# Io diagnostic) and removes the partial output, which would otherwise
# read as a shorter, valid trace. The 4096-record t1 kernel at LEN 512 is
# one batch, so the fault fires after the whole batch reached the writer.
set(gtracer_fault_rows "text|gw.out| " "din|gw.din|--din")
list(FIND tdtb_formats v3 v3_index)
if(NOT v3_index EQUAL -1)
  list(APPEND gtracer_fault_rows "v3 zstd|gw.tdtb|--binary --compress zstd")
endif()
foreach(row ${gtracer_fault_rows})
  string(REPLACE "|" ";" fields "${row}")
  list(GET fields 0 what)
  list(GET fields 1 file)
  list(GET fields 2 args)
  separate_arguments(format_args UNIX_COMMAND "${args}")
  file(REMOVE ${WORKDIR}/${file})
  execute_process(
    COMMAND ${GTRACER} --kernel t1_soa --len 512 ${format_args}
            --out ${WORKDIR}/${file} --fault-spec "writer.flush:1"
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  check_rc("gtracer ${what} writer fault" 2 "${rc}")
  if(NOT err MATCHES "io error: .*trace write failed")
    message(FATAL_ERROR "gtracer ${what} writer fault missing Io diagnostic: "
                        "${err}")
  endif()
  if(EXISTS ${WORKDIR}/${file})
    message(FATAL_ERROR "gtracer ${what} writer fault left ${file} behind")
  endif()
endforeach()

# A --source kernel that fails partway: 4096 stores fill more than one
# batch and several 64 KiB text blocks before the division by zero, so
# the file already holds a trace prefix when the run fails. The run
# exits 2 with the interpreter's message and leaves no output file.
file(WRITE ${WORKDIR}/fails_late.c [=[
#define LEN 4096
int main(int aArgc, char **aArgv) {
  int lA[LEN];
  int lZero = 0;
  GLEIPNIR_START_INSTRUMENTATION;
  for (int lI = 0; lI < LEN; lI++) {
    lA[lI] = lI;
  }
  lA[0] = LEN / lZero;
  GLEIPNIR_STOP_INSTRUMENTATION;
  return (0);
}
]=])
file(REMOVE ${WORKDIR}/fails_late.out)
execute_process(
  COMMAND ${GTRACER} --source ${WORKDIR}/fails_late.c
          --out ${WORKDIR}/fails_late.out
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("gtracer failing --source kernel" 2 "${rc}")
if(NOT err MATCHES "integer division by zero")
  message(FATAL_ERROR "failing --source kernel lost its diagnostic: ${err}")
endif()
if(EXISTS ${WORKDIR}/fails_late.out)
  message(FATAL_ERROR "failing --source kernel left a partial trace behind")
endif()

# -- Queue row: push/pop jitter must never change results. --------------------
foreach(policy strict skip repair)
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096 --jobs 2
            --on-error=${policy}
            --fault-spec "seed=3;queue.push-delay:0.5;queue.pop-delay:0.5"
    OUTPUT_FILE ${WORKDIR}/queue_${policy}.stdout RESULT_VARIABLE rc)
  check_rc("queue jitter ${policy}" 0 "${rc}")
  check_same("queue jitter ${policy}" ${WORKDIR}/baseline.stdout
             ${WORKDIR}/queue_${policy}.stdout)
endforeach()

# -- Worker row: throw / stall / exit under supervision. ----------------------
# A four-point sweep gives the fan-out four sinks, so --jobs 4 really
# spawns four workers. The sequential reference is the same sweep at
# --jobs 1 (inline mode).
set(SWEEP "assoc=1;assoc=2;assoc=4;assoc=8")
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096
          --sweep "${SWEEP}"
  OUTPUT_FILE ${WORKDIR}/sweep_baseline.stdout RESULT_VARIABLE rc)
check_rc("sweep baseline" 0 "${rc}")

# Recovery re-simulates the failed worker's batches sequentially: exit 1
# (recovered), report bit-identical to the sequential baseline. The
# --on-error policy governs input errors and is orthogonal.
foreach(policy strict skip repair)
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096
            --sweep "${SWEEP}" --jobs 4
            --worker-timeout 5 --on-error=${policy}
            --fault-spec "seed=5;worker.throw:1:1"
    OUTPUT_FILE ${WORKDIR}/worker_${policy}.stdout
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  check_rc("worker throw ${policy}" 1 "${rc}")
  # A thrown worker surfaces as P002 (caught at join) or P001 (flagged by
  # the watchdog when the reader blocked on its queue) depending on
  # timing; either way the recovery diagnostic must be present.
  if(NOT err MATCHES "pipe-worker")
    message(FATAL_ERROR "worker throw ${policy} missing P001/P002: ${err}")
  endif()
  check_same("worker throw ${policy} bit-identity"
             ${WORKDIR}/sweep_baseline.stdout
             ${WORKDIR}/worker_${policy}.stdout)
endforeach()

# The acceptance case: a deliberately stalled worker under --jobs 4 is
# detected within --worker-timeout, the run exits 1, and the recovered
# totals equal the sequential baseline bit-for-bit.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096
          --sweep "${SWEEP}" --jobs 4
          --worker-timeout 1 --fault-spec "seed=11;worker.stall:1:2"
  OUTPUT_FILE ${WORKDIR}/worker_stall.stdout
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("worker stall recovery" 1 "${rc}")
if(NOT err MATCHES "pipe-worker-stalled")
  message(FATAL_ERROR "worker stall missing P001: ${err}")
endif()
check_same("worker stall bit-identity" ${WORKDIR}/sweep_baseline.stdout
           ${WORKDIR}/worker_stall.stdout)

# Premature worker exit is recovered the same way.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096
          --sweep "${SWEEP}" --jobs 2
          --worker-timeout 5 --fault-spec "seed=13;worker.exit:1:1"
  OUTPUT_FILE ${WORKDIR}/worker_exit.stdout RESULT_VARIABLE rc)
check_rc("worker exit recovery" 1 "${rc}")
check_same("worker exit bit-identity" ${WORKDIR}/sweep_baseline.stdout
           ${WORKDIR}/worker_exit.stdout)

# A sink fault on one of a worker's two sinks, after the other took the
# batch: replay resumes each sink from its own count, so no point counts
# a batch twice. LEN 20000 gives 40 batches; --jobs 2 over four points
# gives each worker two sinks.
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 20000
          --out ${WORKDIR}/sink_fault.out
  RESULT_VARIABLE rc)
check_rc("gtracer sink fault trace" 0 "${rc}")
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/sink_fault.out --size 4096
          --sweep "${SWEEP}"
  OUTPUT_FILE ${WORKDIR}/sink_fault_baseline.stdout RESULT_VARIABLE rc)
check_rc("sink fault baseline" 0 "${rc}")
foreach(seed 1 2 3)
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/sink_fault.out --size 4096
            --sweep "${SWEEP}" --jobs 2 --worker-timeout 5
            --fault-spec "seed=${seed};sink.push-batch:1:1"
    OUTPUT_FILE ${WORKDIR}/sink_fault_${seed}.stdout
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  check_rc("sink fault seed ${seed}" 1 "${rc}")
  if(NOT err MATCHES "pipe-worker")
    message(FATAL_ERROR "sink fault seed ${seed} missing P002: ${err}")
  endif()
  check_same("sink fault seed ${seed} bit-identity"
             ${WORKDIR}/sink_fault_baseline.stdout
             ${WORKDIR}/sink_fault_${seed}.stdout)
endforeach()

# Without supervision the same worker fault is fatal (the original
# contract: exit 2, error on stderr).
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096 --jobs 2
          --fault-spec "seed=5;worker.throw:1:1"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("worker throw unsupervised" 2 "${rc}")
if(NOT err MATCHES "worker thread failure")
  message(FATAL_ERROR "unsupervised worker fault missing diagnostic: ${err}")
endif()

# -- Affinity worker row: the profiler's own worker is supervised too. --------
# With --jobs > 1 the --affinity-report profiler runs on a one-worker
# fan-out of its own beside the simulation worker. The fault sites are
# shared, so a spec can hit either worker (worker.throw:1:1 hits both);
# each is replayed the same way: exit 1, P001/P002 on stderr, stdout and
# affinity report byte-identical to the clean sequential run.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096
          --affinity-report ${WORKDIR}/affinity_baseline.txt
  OUTPUT_FILE ${WORKDIR}/affinity_baseline.stdout RESULT_VARIABLE rc)
check_rc("affinity baseline" 0 "${rc}")

function(affinity_fault_row name timeout spec code)
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096 --jobs 3
            --affinity-report ${WORKDIR}/affinity_${name}.txt
            --worker-timeout ${timeout} --fault-spec "${spec}"
    OUTPUT_FILE ${WORKDIR}/affinity_${name}.stdout
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  check_rc("affinity worker ${name}" 1 "${rc}")
  if(NOT err MATCHES "${code}" OR NOT err MATCHES "\naffinity: ")
    message(FATAL_ERROR "affinity worker ${name} missing ${code}: ${err}")
  endif()
  check_same("affinity worker ${name} stdout"
             ${WORKDIR}/affinity_baseline.stdout
             ${WORKDIR}/affinity_${name}.stdout)
  check_same("affinity worker ${name} report"
             ${WORKDIR}/affinity_baseline.txt ${WORKDIR}/affinity_${name}.txt)
endfunction()
affinity_fault_row(throw 5 "seed=5;worker.throw:1:1" "pipe-worker")
affinity_fault_row(stall 1 "seed=11;worker.stall:1:2" "pipe-worker-stalled")

# Unsupervised, the same throw is fatal whichever worker it hits.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096 --jobs 3
          --affinity-report ${WORKDIR}/affinity_fatal.txt
          --fault-spec "seed=5;worker.throw:1:1"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("affinity worker throw unsupervised" 2 "${rc}")
if(NOT err MATCHES "worker thread failure")
  message(FATAL_ERROR "unsupervised affinity fault missing diagnostic: ${err}")
endif()

# -- TDT_FAULT_SPEC environment wiring (flag-free arming). --------------------
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "TDT_FAULT_SPEC=seed=5;worker.throw:1:1"
          ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096 --jobs 2
          --worker-timeout 5
  OUTPUT_FILE ${WORKDIR}/env_worker.stdout RESULT_VARIABLE rc)
check_rc("TDT_FAULT_SPEC worker throw" 1 "${rc}")
check_same("TDT_FAULT_SPEC bit-identity" ${WORKDIR}/baseline.stdout
           ${WORKDIR}/env_worker.stdout)

# -- Binary-trace corruption sites (TDTB v2 integrity). -----------------------
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.tdtb --size 4096
          --fault-spec "binary.crc-flip:1:0"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("crc flip strict" 2 "${rc}")
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.tdtb --size 4096
          --on-error=skip --fault-spec "binary.crc-flip:1:0"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("crc flip skip" 1 "${rc}")
if(NOT err MATCHES "bin-crc-mismatch")
  message(FATAL_ERROR "crc flip skip missing B010: ${err}")
endif()

# A short read ends the v2 stream after 1000 entries: 994 records and the
# 6 string definitions among them. Strict is fatal; skip keeps exactly
# the records before the cut.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.tdtb --size 4096
          --fault-spec "binary.short-read:1:1000"
  RESULT_VARIABLE rc)
check_rc("short read strict" 2 "${rc}")
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.tdtb --size 4096
          --on-error=skip --fault-spec "binary.short-read:1:1000"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
check_rc("short read skip" 1 "${rc}")
if(NOT err MATCHES "bin-truncated")
  message(FATAL_ERROR "short read skip missing B003: ${err}")
endif()
if(NOT out MATCHES "accesses +621 +373 +994\n")
  message(FATAL_ERROR "short read skip salvaged the wrong prefix: ${out}")
endif()

execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.tdtb --size 4096
          --fault-spec "binary.bad-footer:1"
  RESULT_VARIABLE rc)
check_rc("bad footer strict" 2 "${rc}")
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.tdtb --size 4096
          --on-error=repair --fault-spec "binary.bad-footer:1"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("bad footer repair" 1 "${rc}")
if(NOT err MATCHES "bin-bad-footer")
  message(FATAL_ERROR "bad footer repair missing B009: ${err}")
endif()

# -- Frame-decode site (TDTB v3 shard isolation). -----------------------------
# The framed container degrades per frame: an injected frame-decode
# failure is fatal under strict, drops exactly the hit frames under
# repair, and the pre-sampled schedule makes --jobs 4 report the same
# diagnostics and records as the sequential decode.
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 512 --binary --compress none
          --out ${WORKDIR}/good_v3.tdtb
  RESULT_VARIABLE rc)
check_rc("gtracer v3 fixture" 0 "${rc}")
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good_v3.tdtb --size 4096
  OUTPUT_FILE ${WORKDIR}/v3_baseline.stdout RESULT_VARIABLE rc)
check_rc("v3 baseline" 0 "${rc}")
check_same("v3 container matches text baseline" ${WORKDIR}/baseline.stdout
           ${WORKDIR}/v3_baseline.stdout)

# Armed-but-silent: the FrameDecode hook costs nothing when it never fires.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good_v3.tdtb --size 4096
          --fault-spec "binary.frame-decode:0"
  OUTPUT_FILE ${WORKDIR}/frame_silent.stdout RESULT_VARIABLE rc)
check_rc("frame-decode silent" 0 "${rc}")
check_same("frame-decode silent spec" ${WORKDIR}/v3_baseline.stdout
           ${WORKDIR}/frame_silent.stdout)

execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good_v3.tdtb --size 4096
          --fault-spec "seed=9;binary.frame-decode:1"
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("frame-decode strict" 2 "${rc}")
if(NOT err MATCHES "frame")
  message(FATAL_ERROR "frame-decode strict missing diagnostic: ${err}")
endif()

foreach(jobs 1 4)
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/good_v3.tdtb --size 4096
            --jobs ${jobs} --on-error=repair
            --fault-spec "seed=9;binary.frame-decode:1"
    OUTPUT_FILE ${WORKDIR}/frame_repair_j${jobs}.stdout
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  check_rc("frame-decode repair jobs=${jobs}" 1 "${rc}")
  if(NOT err MATCHES "bin-frame-corrupt")
    message(FATAL_ERROR "frame-decode repair jobs=${jobs} missing B014: ${err}")
  endif()
endforeach()
check_same("frame-decode repair schedule parity (jobs 1 vs 4)"
           ${WORKDIR}/frame_repair_j1.stdout
           ${WORKDIR}/frame_repair_j4.stdout)

# -- Resource governance rides the same contract. -----------------------------
# tracediff must hold both traces: an absurdly small budget is a hard
# failure (exit 2, resource diagnostic), never a truncated diff.
execute_process(
  COMMAND ${TRACEDIFF} ${WORKDIR}/good.out ${WORKDIR}/good.out --summary
          --max-memory 4k
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("tracediff --max-memory exhaustion" 2 "${rc}")
if(NOT err MATCHES "memory budget exhausted")
  message(FATAL_ERROR "tracediff budget failure missing diagnostic: ${err}")
endif()
execute_process(
  COMMAND ${TRACEDIFF} ${WORKDIR}/good.out ${WORKDIR}/good.out --summary
          --max-memory 64m
  RESULT_VARIABLE rc)
check_rc("tracediff --max-memory ample" 0 "${rc}")

# An already-expired deadline still produces a partial report and exit 1.
# Expiry is checked at 4096-record batch boundaries, so the trace must be
# longer than one batch for the check to run at all.
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 4096 --out ${WORKDIR}/big.out
  RESULT_VARIABLE rc)
check_rc("gtracer big" 0 "${rc}")
execute_process(
  COMMAND ${TRACEINFO} ${WORKDIR}/big.out --deadline 0.000001
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_VARIABLE out)
check_rc("traceinfo --deadline expired" 1 "${rc}")
if(NOT err MATCHES "deadline expired")
  message(FATAL_ERROR "traceinfo deadline missing diagnostic: ${err}")
endif()
execute_process(
  COMMAND ${TRACEINFO} ${WORKDIR}/big.out --deadline 3600
  RESULT_VARIABLE rc)
check_rc("traceinfo --deadline ample" 0 "${rc}")
