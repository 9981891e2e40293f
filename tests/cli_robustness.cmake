# CLI robustness test: the shared exit-code contract (docs/robustness.md)
# end-to-end — 0 = clean, 1 = completed with recovered errors, 2 = fatal.
file(MAKE_DIRECTORY ${WORKDIR})

function(check_rc what expected actual)
  if(NOT actual EQUAL expected)
    message(FATAL_ERROR "${what}: expected exit ${expected}, got ${actual}")
  endif()
endfunction()

# -- Baseline: a clean trace exits 0 under every policy. ----------------------
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 64 --out ${WORKDIR}/good.out
  RESULT_VARIABLE rc)
check_rc("gtracer" 0 "${rc}")

foreach(policy strict skip repair)
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --size 4096
            --on-error=${policy}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  check_rc("dinerosim clean --on-error=${policy}" 0 "${rc}")
  if(NOT out MATCHES "miss ratio")
    message(FATAL_ERROR "dinerosim clean output missing stats: ${out}")
  endif()
endforeach()

# -- Corrupt text trace: garbage record lines injected. -----------------------
file(READ ${WORKDIR}/good.out trace_text)
string(APPEND trace_text
  "Z 7ff0001b0 8 main\n"
  "S nothex 8 main\n"
  "S 7ff0001b0 8 main XX 0 1 broken\n")
file(WRITE ${WORKDIR}/bad.out "${trace_text}")

execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/bad.out --size 4096
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("dinerosim corrupt (strict default)" 2 "${rc}")

execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/bad.out --size 4096 --on-error=skip
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
check_rc("dinerosim corrupt --on-error=skip" 1 "${rc}")
if(NOT out MATCHES "miss ratio")
  message(FATAL_ERROR "skip run must still produce stats: ${out}")
endif()
if(NOT err MATCHES "diagnostics:" OR NOT err MATCHES "trace-bad-line")
  message(FATAL_ERROR "skip run missing per-code summary on stderr: ${err}")
endif()

execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/bad.out --size 4096 --on-error=repair
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("dinerosim corrupt --on-error=repair" 1 "${rc}")
if(NOT err MATCHES "trace-repaired-line")
  message(FATAL_ERROR "repair run did not report salvaged lines: ${err}")
endif()

# --max-errors caps runaway streams: with a cap below the error count the
# run must abort fatally (exit 2) instead of grinding through the garbage.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/bad.out --size 4096
          --on-error=skip --max-errors 1
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("dinerosim --max-errors cap" 2 "${rc}")

execute_process(
  COMMAND ${TRACEINFO} ${WORKDIR}/bad.out
  RESULT_VARIABLE rc)
check_rc("traceinfo corrupt (strict default)" 2 "${rc}")
execute_process(
  COMMAND ${TRACEINFO} ${WORKDIR}/bad.out --on-error=skip
  RESULT_VARIABLE rc)
check_rc("traceinfo corrupt --on-error=skip" 1 "${rc}")

# A malformed variable reference names its line under strict, as every
# other bad record line does.
file(WRITE ${WORKDIR}/bad_var.out "START PID 1\nL 7ff000000 4 main GV a!\n")
execute_process(
  COMMAND ${TRACEINFO} ${WORKDIR}/bad_var.out
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("traceinfo bad variable (strict default)" 2 "${rc}")
if(NOT err MATCHES "parse error at 2:1: unexpected '!' in 'a!'")
  message(FATAL_ERROR "strict bad-variable error must name line 2: ${err}")
endif()

# tracediff: identical files but recovered errors -> exit 1, not 0.
execute_process(
  COMMAND ${TRACEDIFF} ${WORKDIR}/bad.out ${WORKDIR}/bad.out --summary
          --on-error=skip
  RESULT_VARIABLE rc)
check_rc("tracediff recovered-errors" 1 "${rc}")
execute_process(
  COMMAND ${TRACEDIFF} ${WORKDIR}/good.out ${WORKDIR}/good.out --summary
  RESULT_VARIABLE rc)
check_rc("tracediff identical clean" 0 "${rc}")

# -- Unknown policy is a usage error. -----------------------------------------
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --on-error=lenient
  RESULT_VARIABLE rc)
check_rc("dinerosim bad --on-error value" 2 "${rc}")

# -- The removed --ingest flag is an unknown flag. -----------------------------
# The byte source is picked from the input (docs/RULES.md); the old
# backend names are refused like any other unknown flag.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --ingest auto
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
check_rc("dinerosim --ingest auto" 2 "${rc}")
if(NOT err MATCHES "unknown flag --ingest")
  message(FATAL_ERROR "--ingest must be reported as unknown: ${err}")
endif()

# -- --worker-timeout belongs to dinerosim alone. ------------------------------
# It supervises dinerosim's fan-out workers; the other --jobs tools have
# no such worker, so they refuse the flag instead of ignoring its value.
foreach(tool TRACEINFO TDTUNE)
  execute_process(
    COMMAND ${${tool}} ${WORKDIR}/good.out --worker-timeout 1
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  check_rc("${tool} --worker-timeout 1" 2 "${rc}")
  if(NOT err MATCHES "unknown flag --worker-timeout")
    message(FATAL_ERROR "${tool} must refuse --worker-timeout: ${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${TRACEDIFF} ${WORKDIR}/good.out ${WORKDIR}/good.out
          --worker-timeout 1
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
check_rc("tracediff --worker-timeout 1" 2 "${rc}")
if(NOT err MATCHES "unknown flag --worker-timeout")
  message(FATAL_ERROR "tracediff must refuse --worker-timeout: ${err}")
endif()
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --worker-timeout abc
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
check_rc("dinerosim --worker-timeout abc" 2 "${rc}")

# -- Window flags wider than 32 bits are usage errors. -------------------------
# The profiler's window is 32-bit; 2^32 must not wrap to a window of 0 or 1.
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out
          --affinity-report ${WORKDIR}/wide.aff --affinity-window 4294967296
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("dinerosim --affinity-window 2^32" 2 "${rc}")
if(NOT err MATCHES "--affinity-window")
  message(FATAL_ERROR "--affinity-window 2^32 error must name the flag: ${err}")
endif()
execute_process(
  COMMAND ${TDTUNE} ${WORKDIR}/good.out --window 4294967296
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("tdtune --window 2^32" 2 "${rc}")
if(NOT err MATCHES "--window")
  message(FATAL_ERROR "tdtune --window 2^32 error must name the flag: ${err}")
endif()

# -- Way counts wider than 32 bits are usage errors. --------------------------
# CacheConfig holds 32-bit ways; 2^32 + 1 must not wrap to 1 way, nor 2^32
# to fully associative, nor 2^32 + 8 to an 8-way L2.
foreach(row "--assoc;4294967297;--assoc" "--assoc;4294967296;--assoc"
            "--l2-size;262144;--l2-assoc;4294967304;--l2-assoc")
  list(POP_BACK row flag)
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out ${row}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  check_rc("dinerosim ${row}" 2 "${rc}")
  if(NOT err MATCHES "${flag} must be at most 4294967295")
    message(FATAL_ERROR "dinerosim ${row} must name ${flag}: ${err}")
  endif()
endforeach()

# -- An L1 the single-config collectors cannot be sized from. -----------------
# The per-set and per-variable collectors are built from the L1 only after
# the hierarchy has validated it, so each geometry gets its config error
# (exit 2) instead of a SIGFPE or an internal error. A sweep never builds
# them, so one valid point runs whatever the base --assoc says.
foreach(row "--block;0;block_size 0 is not a power of two"
            "--size;0;size 0 must be a power of two"
            "--assoc;2048;associativity 2048 does not divide 1024 blocks")
  list(POP_BACK row want)
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out ${row}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  check_rc("dinerosim ${row}" 2 "${rc}")
  if(NOT err MATCHES "config error: cache 'L1': ${want}" OR
     err MATCHES "internal error")
    message(FATAL_ERROR "dinerosim ${row} must be an L1 config error: ${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --assoc 2048
          --sweep assoc=1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
check_rc("dinerosim --assoc 2048 --sweep assoc=1" 0 "${rc}")
if(NOT out MATCHES "sweep point 0: L1 32 KiB, 32 B blocks, 1-way")
  message(FATAL_ERROR "the one sweep point must run: ${out}${err}")
endif()

# -- A record that ends at the last byte of the address space. ----------------
# With 1-byte blocks its block is UINT64_MAX, where a `block <= last`
# loop never ends; TIMEOUT turns a hang into a failure. Each run
# simulates exactly one access.
file(WRITE ${WORKDIR}/top.out "START PID 1\nL ffffffffffffffff 1 main\n")
foreach(extra "" "--sweep;assoc=1" "--cores;2")
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/top.out --block 1 --size 1024
            ${extra}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 30)
  check_rc("dinerosim top-of-space record ${extra}" 0 "${rc}")
  if(extra MATCHES "cores")
    set(one_access "core 0: 0 hits, 1 misses")
  else()
    set(one_access "accesses +1 +0 +1\n")
  endif()
  if(NOT out MATCHES "${one_access}")
    message(FATAL_ERROR
      "top-of-space record ${extra} must be one access: ${out}${err}")
  endif()
endforeach()

# -- Bad rules file is fatal regardless of policy. ----------------------------
file(WRITE ${WORKDIR}/bad.rules "in:\nthis is not a rule file\nout:\nnope\n")
execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.out --rules ${WORKDIR}/bad.rules
          --on-error=skip
  RESULT_VARIABLE rc)
check_rc("dinerosim bad rules" 2 "${rc}")

# -- gtracer output flags that contradict each other are usage errors. -------
# --din and --binary each pick the format; a .gz name gzips text and din,
# while TDTB compresses its frames with --compress. Neither writes a file.
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 64 --din --binary
          --out ${WORKDIR}/conflict.din
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("gtracer --din --binary" 2 "${rc}")
if(NOT err MATCHES "--din" OR NOT err MATCHES "--binary")
  message(FATAL_ERROR "gtracer --din --binary must name both flags: ${err}")
endif()
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 64 --binary
          --out ${WORKDIR}/conflict.tdtb.gz
  RESULT_VARIABLE rc ERROR_VARIABLE err)
check_rc("gtracer --binary to a .gz name" 2 "${rc}")
foreach(f conflict.din conflict.tdtb.gz)
  if(EXISTS ${WORKDIR}/${f})
    message(FATAL_ERROR "a refused gtracer run left ${f} behind")
  endif()
endforeach()

# -- gtracer sizes that do not fit are usage errors. --------------------------
# --len below 1 names the flag. A kernel whose variables overflow the
# simulated stack, or whose sizes overflow 64 bits, stops with the
# limit (in hex) or the type. Each row exits 2 and leaves no file. A
# wrapped size that slipped past the checks would run on instead, and
# TIMEOUT turns that into a failure.
function(check_gtracer_size tag pattern)
  set(out ${WORKDIR}/size_${tag}.out)
  execute_process(
    COMMAND ${GTRACER} ${ARGN} --out ${out}
    RESULT_VARIABLE rc ERROR_VARIABLE err TIMEOUT 30)
  check_rc("gtracer ${ARGN}" 2 "${rc}")
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "gtracer ${ARGN} must say '${pattern}': ${err}")
  endif()
  if(EXISTS ${out})
    message(FATAL_ERROR "a refused gtracer ${ARGN} left ${out} behind")
  endif()
endfunction()
foreach(kernel linked_list t1_soa t2_inline t3_strided)
  check_gtracer_size(${kernel}_neg "--len must be at least 1 \\(got -1\\)"
                     --kernel ${kernel} --len -1)
endforeach()
check_gtracer_size(t1_soa_zero "--len must be at least 1 \\(got 0\\)"
                   --kernel t1_soa --len 0)
check_gtracer_size(t1_soa_huge
                   "simulated stack overflow \\(limit 0x7fe000000\\)"
                   --kernel t1_soa --len 5000000000)
check_gtracer_size(matmul_huge "does not fit in 64 bits"
                   --kernel matmul_ijk --len 5000000000)
# t3_strided's own flags: a cache line below one int and a set count
# below 1 name the flag, and LEN x SETS that overflows is refused before
# it wraps to a small array.
foreach(line 0 3 -8)
  check_gtracer_size(t3_line_${line}
                     "--cache-line must be at least 4 \\(got ${line}\\)"
                     --kernel t3_strided --cache-line ${line} --len 64)
endforeach()
foreach(sets 0 -3)
  check_gtracer_size(t3_sets_${sets}
                     "--sets must be at least 1 \\(got ${sets}\\)"
                     --kernel t3_strided --sets ${sets})
endforeach()
check_gtracer_size(t3_sets_wrap "does not fit in 64 bits"
                   --kernel t3_strided --len 400000
                   --sets 23058430092136940)
# The simulated heap ends where the stack's range begins: a block past it
# is refused, whether the sizes add up past the limit, one size wraps
# 64 bits once rounded, or a kernel would build a statement per node of
# a list that cannot fit.
file(WRITE ${WORKDIR}/two_mallocs.c
  "int main() {\n  int *a;\n  int *b;\n"
  "  a = malloc(5000000000 * sizeof(int));\n"
  "  b = malloc(5000000000 * sizeof(int));\n"
  "  GLEIPNIR_START_INSTRUMENTATION;\n  b[4999999999] = 1;\n"
  "  GLEIPNIR_STOP_INSTRUMENTATION;\n  return 0;\n}\n")
file(WRITE ${WORKDIR}/wrap_malloc.c
  "int main() {\n  double *a;\n  double *b;\n"
  "  a = malloc(2305843009213693951 * sizeof(double));\n"
  "  b = malloc(4 * sizeof(double));\n"
  "  GLEIPNIR_START_INSTRUMENTATION;\n  a[1] = 1.0;\n"
  "  GLEIPNIR_STOP_INSTRUMENTATION;\n  return 0;\n}\n")
set(heap_overflow "simulated heap overflow \\(limit 0x7fe000000\\)")
check_gtracer_size(heap_two_mallocs "${heap_overflow}"
                   --source ${WORKDIR}/two_mallocs.c)
check_gtracer_size(heap_wrap_malloc "${heap_overflow}"
                   --source ${WORKDIR}/wrap_malloc.c)
check_gtracer_size(linked_list_huge "${heap_overflow}"
                   --kernel linked_list --len 5000000000)

# -- Truncated binary trace: strict -> 2, skip salvages a prefix -> 1. --------
execute_process(
  COMMAND ${GTRACER} --kernel t1_soa --len 64 --binary
          --out ${WORKDIR}/good.tdtb
  RESULT_VARIABLE rc)
check_rc("gtracer --binary" 0 "${rc}")

execute_process(
  COMMAND ${DINEROSIM} --trace ${WORKDIR}/good.tdtb --size 4096
  RESULT_VARIABLE rc)
check_rc("dinerosim clean tdtb" 0 "${rc}")

# CMake cannot write arbitrary binary, so truncate with head(1) when
# available (the sanitizer/CI images are all Linux); otherwise skip.
find_program(HEAD_TOOL head)
if(HEAD_TOOL)
  file(SIZE ${WORKDIR}/good.tdtb blob_size)
  math(EXPR cut "${blob_size} - 21")
  execute_process(
    COMMAND ${HEAD_TOOL} -c ${cut} ${WORKDIR}/good.tdtb
    OUTPUT_FILE ${WORKDIR}/trunc.tdtb
    RESULT_VARIABLE rc)
  check_rc("head -c" 0 "${rc}")

  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/trunc.tdtb --size 4096
    RESULT_VARIABLE rc)
  check_rc("dinerosim truncated tdtb (strict default)" 2 "${rc}")

  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/trunc.tdtb --size 4096
            --on-error=skip
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  check_rc("dinerosim truncated tdtb --on-error=skip" 1 "${rc}")
  if(NOT out MATCHES "miss ratio")
    message(FATAL_ERROR "truncated-tdtb skip run must still simulate: ${out}")
  endif()
else()
  message(STATUS "head(1) not found; skipping binary truncation checks")
endif()

# -- A TDTB record of size 0 is a decode error. -------------------------------
# Two v2 records, the second of size 0, with a footer whose count and CRC
# hold. The text and din readers refuse that size, and so does TDTB:
# B005 names the field, strict exits 2 and skip keeps the first record.
# CMake cannot write NUL bytes, so printf(1) writes the file.
find_program(PRINTF_TOOL printf)
if(PRINTF_TOOL)
  string(CONCAT size0_bytes
    "TDTB\\002\\001"                           # magic, version 2, pid 1
    "\\001\\001\\004main"                      # string 1 is "main"
    "\\000\\000\\200\\100\\004\\001\\000\\001"  # L 0x2000, size 4, main
    "\\000\\000\\200\\100\\000\\001\\000\\001"  # L 0x2000, size 0, main
    "\\002"                                    # end tag
    "\\002\\000\\000\\000\\000\\000\\000\\000"  # footer: 2 records
    "\\073q\\272\\370")                        # footer: CRC-32 up to here
  execute_process(
    COMMAND ${PRINTF_TOOL} "${size0_bytes}"
    OUTPUT_FILE ${WORKDIR}/size0.tdtb
    RESULT_VARIABLE rc)
  check_rc("printf size0.tdtb" 0 "${rc}")
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/size0.tdtb
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  check_rc("dinerosim size-0 tdtb (strict default)" 2 "${rc}")
  if(NOT err MATCHES "access size" OR err MATCHES "internal error")
    message(FATAL_ERROR "size-0 record must be a decode error: ${err}")
  endif()
  execute_process(
    COMMAND ${DINEROSIM} --trace ${WORKDIR}/size0.tdtb --on-error=skip
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  check_rc("dinerosim size-0 tdtb --on-error=skip" 1 "${rc}")
  if(NOT err MATCHES "B005 \\(bin-field-overflow\\): access size" OR
     NOT out MATCHES "accesses +1 +0 +1\n")
    message(FATAL_ERROR "skip must keep the first record: ${out}${err}")
  endif()
else()
  message(STATUS "printf(1) not found; skipping the size-0 TDTB rows")
endif()

# -- Named pipes: a FIFO is read like the file it carries. --------------------
# A writer feeds the pipe while the tool reads it. Each tool opens the
# path once; closing and reopening it would cut the writer off and wait
# forever, which TIMEOUT turns into a failure. stdout must match the run
# on the regular file. traceinfo cannot probe a pipe without consuming
# it, so a pipe's run has no "== container ==" section.
find_program(MKFIFO_TOOL mkfifo)
find_program(SH_TOOL sh)
if(UNIX AND MKFIFO_TOOL AND SH_TOOL)
  execute_process(
    COMMAND ${GTRACER} --kernel t1_soa --len 64 --binary --compress zstd
            --out ${WORKDIR}/good_v3.tdtb
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)  # zstd is not loadable here: store the frames
    execute_process(
      COMMAND ${GTRACER} --kernel t1_soa --len 64 --binary --compress none
              --out ${WORKDIR}/good_v3.tdtb
      RESULT_VARIABLE rc)
  endif()
  check_rc("gtracer v3" 0 "${rc}")

  # Runs the command in ARGN, with @TRACE@ standing for the trace path,
  # on `input` and on a FIFO fed from it; both runs must print the same,
  # but for the container section when `strip_container` is set.
  function(check_fifo_run input fifo strip_container)
    string(REPLACE "@TRACE@" "${WORKDIR}/${input}" file_cmd "${ARGN}")
    string(REPLACE "@TRACE@" "${WORKDIR}/${fifo}" pipe_cmd "${ARGN}")
    execute_process(
      COMMAND ${file_cmd}
      RESULT_VARIABLE rc OUTPUT_VARIABLE file_out)
    check_rc("${input} as a file" 0 "${rc}")
    if(strip_container)
      string(REGEX REPLACE "^== container ==\n([^\n]+\n)*\n" "" file_out
             "${file_out}")
    endif()
    file(REMOVE ${WORKDIR}/${fifo})
    execute_process(COMMAND ${MKFIFO_TOOL} ${WORKDIR}/${fifo}
                    RESULT_VARIABLE rc)
    check_rc("mkfifo ${fifo}" 0 "${rc}")
    execute_process(
      COMMAND ${SH_TOOL} -c "cat \"$0\" > \"$1\"" ${WORKDIR}/${input}
              ${WORKDIR}/${fifo}
      COMMAND ${pipe_cmd}
      TIMEOUT 30
      RESULT_VARIABLE rc OUTPUT_VARIABLE pipe_out)
    check_rc("${input} through a FIFO" 0 "${rc}")
    if(NOT pipe_out STREQUAL file_out)
      message(FATAL_ERROR
        "${input} through a FIFO differs from the file:\n${pipe_out}\n"
        "want:\n${file_out}")
    endif()
    file(REMOVE ${WORKDIR}/${fifo})
  endfunction()

  foreach(input good.out good.tdtb good_v3.tdtb)
    get_filename_component(ext ${input} LAST_EXT)
    check_fifo_run(${input} fifo${ext} OFF
                   ${DINEROSIM} --trace @TRACE@ --size 4096)
  endforeach()
  check_fifo_run(good.tdtb fifo.tdtb ON ${TRACEINFO} @TRACE@)
else()
  message(STATUS "mkfifo(1) or sh(1) not found; skipping the FIFO rows")
endif()

# -- Report files: a write that fails is fatal and names the path. -----------
# /dev/full opens but takes no bytes. Each report a tool writes checks
# the whole write, so the run exits 2 with the path in the message
# instead of announcing a report that never reached the file.
if(EXISTS /dev/full)
  function(check_full_report what)
    execute_process(COMMAND ${ARGN}
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    check_rc("${what} /dev/full" 2 "${rc}")
    if(NOT err MATCHES "/dev/full")
      message(FATAL_ERROR "${what} /dev/full must name the path: ${err}")
    endif()
    if(err MATCHES "wrote ")
      message(FATAL_ERROR "${what} /dev/full claims a report: ${err}")
    endif()
  endfunction()
  check_full_report("dinerosim --affinity-report" ${DINEROSIM}
    --trace ${WORKDIR}/good.out --size 4096 --affinity-report /dev/full)
  check_full_report("dinerosim --metrics-json" ${DINEROSIM}
    --trace ${WORKDIR}/good.out --size 4096 --metrics-json /dev/full)
  check_full_report("dinerosim --trace-spans" ${DINEROSIM}
    --trace ${WORKDIR}/good.out --size 4096 --trace-spans /dev/full)
  check_full_report("traceinfo --metrics-json" ${TRACEINFO}
    ${WORKDIR}/good.out --metrics-json /dev/full)
  check_full_report("tdtune --json" ${TDTUNE}
    ${WORKDIR}/good.out --json /dev/full)
else()
  message(STATUS "/dev/full not found; the failed-report rows are skipped")
endif()
