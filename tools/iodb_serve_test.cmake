# CLI test for iodb_serve and iodb_replay, run via ctest as
#   cmake -DIODB_SERVE=<binary> -DIODB_REPLAY=<binary> -DWORK_DIR=<dir>
#         -P iodb_serve_test.cmake
#
# Drives a scripted LOAD/EVAL/BATCH/STATS session through iodb_serve and
# compares the full stdout against a golden transcript (the protocol is
# deterministic by design: verdicts, engine names, cache hit/miss states
# and counters are all scheduling-independent). Then replays an
# equivalent JSON trace through iodb_replay and checks the report's
# deterministic lines (request/verdict/cache counts; timings are not
# matched).

if(NOT DEFINED IODB_SERVE OR NOT DEFINED IODB_REPLAY OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "pass -DIODB_SERVE=<binary> -DIODB_REPLAY=<binary> -DWORK_DIR=<dir>")
endif()

# --- iodb_serve: golden session --------------------------------------------

set(session "${WORK_DIR}/iodb_serve_cli.session")
file(WRITE "${session}" "# scripted session (comments are ignored)
LOAD base
P(u)
Q(v)
u < v
END
EVAL base exists t1 t2: P(t1) & t1 < t2 & Q(t2)
EVAL base exists t1 t2: P(t1) & t1 < t2 & Q(t2)
EVAL base exists t1 t2: Q(t1) & t1 < t2 & P(t2)
BATCH 3
base exists t1 t2: P(t1) & t1 < t2 & Q(t2)
base exists t s: P(t) & t < s
nosuchdb exists t: P(t)
EVAL base exists t: P(t)
EVAL base --engine=brute-force exists t: P(t)
FROBNICATE everything
STATS
QUIT
")

# The second EVAL of an identical request line is the plan-cache hit; the
# BATCH reuses one cached plan (hit) and compiles one new one (miss); the
# unknown database fails only its own slot; a query with no order atom
# takes the order-free route; forcing a different engine is a different
# plan key, so it misses. An unrecognized verb answers the
# structured unknown-verb error and the session continues (the STATS
# after it still runs).
set(expected "OK db=base atoms=3
ENTAILED  [engine: bounded-width, cache: miss]
ENTAILED  [engine: bounded-width, cache: hit]
NOT ENTAILED  [engine: bounded-width, cache: miss]
ENTAILED  [engine: bounded-width, cache: hit]
ENTAILED  [engine: bounded-width, cache: miss]
ERR INVALID_ARGUMENT: unknown database 'nosuchdb'
ENTAILED  [engine: order-free, cache: miss]
ENTAILED  [engine: brute-force, cache: miss]
ERR unknown-verb 'FROBNICATE'
requests              8
batches               1
plans-compiled        5
databases             1
publishes             1
plan-cache-hits       2
plan-cache-misses     5
plan-cache-evictions  0
plan-cache-declined   0
plan-cache-entries    5
plan-cache-capacity   128
OK
")

execute_process(COMMAND ${IODB_SERVE}
  INPUT_FILE "${session}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "iodb_serve: exit ${rc}\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT "${out}" STREQUAL "${expected}")
  message(FATAL_ERROR "iodb_serve transcript mismatch\n"
    "--- got ---\n${out}\n--- want ---\n${expected}")
endif()

# A malformed request line aborts its batch but must still consume every
# batch payload line — otherwise the remainder would be re-interpreted as
# protocol commands. The "LOAD evil" line here is batch payload; if the
# server ran it as a command it would answer "OK db=evil ...".
set(desync_session "${WORK_DIR}/iodb_serve_cli.desync")
file(WRITE "${desync_session}" "LOAD base
P(u)
END
BATCH 2
base
LOAD evil
STATS
QUIT
")
execute_process(COMMAND ${IODB_SERVE}
  INPUT_FILE "${desync_session}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "iodb_serve desync session: exit ${rc}\n${out}\n${err}")
endif()
if("${out}" MATCHES "db=evil")
  message(FATAL_ERROR "batch payload executed as a command:\n${out}")
endif()
if(NOT "${out}" MATCHES "ERR request 0: INVALID_ARGUMENT"
   OR NOT "${out}" MATCHES "databases +1\n")
  message(FATAL_ERROR "iodb_serve desync transcript unexpected:\n${out}")
endif()

# Flag errors exit 2 before serving anything.
execute_process(COMMAND ${IODB_SERVE} --bogus
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT "${err}" MATCHES "usage:")
  message(FATAL_ERROR "iodb_serve --bogus: exit ${rc}, want 2 + usage\n${err}")
endif()

# --- durable registry: kill-and-restart golden test -------------------------
# Session 1 loads and mutates a database in a durable registry; session 2
# is a fresh process on the same directory. The restart must restore the
# database under its name with the SAME (uid, revision) identity and the
# same vocabulary uid (the plan-cache key component), and the appended
# facts must be visible — the WAL replayed.

set(store "${WORK_DIR}/iodb_serve_cli.store")
file(REMOVE_RECURSE "${store}")

set(restart1 "${WORK_DIR}/iodb_serve_cli.restart1")
file(WRITE "${restart1}" "LOAD base
P(u)
Q(v)
u < v
END
APPEND base
R(w)
v < w
END
EVAL base exists t1 t2: Q(t1) & t1 < t2 & R(t2)
INFO base
INFO
QUIT
")
execute_process(COMMAND ${IODB_SERVE} --data-dir=${store}
  INPUT_FILE "${restart1}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out1 ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "restart session 1: exit ${rc}\n${out1}\n${err}")
endif()
string(REGEX MATCH "OK db=base atoms=[0-9]+ uid=[0-9]+ revision=[0-9]+"
  identity1 "${out1}")
string(REGEX MATCH "OK databases=1 vocab-uid=[0-9]+" vocab1 "${out1}")
if(identity1 STREQUAL "" OR vocab1 STREQUAL ""
   OR NOT "${out1}" MATCHES "OK db=base atoms=5 revision="
   OR NOT "${out1}" MATCHES "ENTAILED")
  message(FATAL_ERROR "restart session 1 transcript unexpected:\n${out1}")
endif()

set(restart2 "${WORK_DIR}/iodb_serve_cli.restart2")
file(WRITE "${restart2}" "INFO base
INFO
EVAL base exists t1 t2: Q(t1) & t1 < t2 & R(t2)
SAVE base
QUIT
")
execute_process(COMMAND ${IODB_SERVE} --data-dir=${store}
  INPUT_FILE "${restart2}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out2 ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "restart session 2: exit ${rc}\n${out2}\n${err}")
endif()
# The identities must be byte-identical across the restart.
if(NOT "${out2}" MATCHES "${identity1}")
  message(FATAL_ERROR
    "restart lost the database identity: want '${identity1}'\n${out2}")
endif()
if(NOT "${out2}" MATCHES "${vocab1}")
  message(FATAL_ERROR
    "restart lost the vocabulary identity: want '${vocab1}'\n${out2}")
endif()
if(NOT "${out2}" MATCHES "ENTAILED" OR NOT "${out2}" MATCHES "OK db=base")
  message(FATAL_ERROR "restart session 2 transcript unexpected:\n${out2}")
endif()

# The OPEN verb opens the same registry mid-session.
set(restart3 "${WORK_DIR}/iodb_serve_cli.restart3")
file(WRITE "${restart3}" "OPEN ${store}
INFO base
QUIT
")
execute_process(COMMAND ${IODB_SERVE}
  INPUT_FILE "${restart3}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out3 ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT "${out3}" MATCHES "OK dir=.* databases=1"
   OR NOT "${out3}" MATCHES "${identity1}")
  message(FATAL_ERROR "OPEN verb session unexpected (exit ${rc}):\n${out3}")
endif()

# --- governance: exhaustion is a structured error --------------------------
# A zero step budget / already-expired deadline must answer a structured
# "ERR deadline-exceeded ..." line (with partial counters in the message)
# and keep serving — the QUIT after them still exits cleanly.

set(gov_session "${WORK_DIR}/iodb_serve_cli.governance")
file(WRITE "${gov_session}" "LOAD base
P(u)
Q(v)
u < v
END
EVAL base --step-budget=0 exists t1 t2: P(t1) & t1 < t2 & Q(t2)
EVAL base --deadline-ms=0 exists t1 t2: P(t1) & t1 < t2 & Q(t2)
EVAL base --step-budget=1000000 exists t1 t2: P(t1) & t1 < t2 & Q(t2)
QUIT
")
execute_process(COMMAND ${IODB_SERVE}
  INPUT_FILE "${gov_session}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "governance session: exit ${rc}\n${out}\n${err}")
endif()
if(NOT "${out}" MATCHES "ERR deadline-exceeded step budget exhausted"
   OR NOT "${out}" MATCHES "ERR deadline-exceeded deadline exceeded"
   OR NOT "${out}" MATCHES "ENTAILED")
  message(FATAL_ERROR "governance transcript unexpected:\n${out}")
endif()

# --- oversized request line: structured error, session continues ------------

string(REPEAT "x" 1048577 long_line)  # kMaxLineBytes + 1
set(long_session "${WORK_DIR}/iodb_serve_cli.longline")
file(WRITE "${long_session}" "${long_line}
STATS
QUIT
")
execute_process(COMMAND ${IODB_SERVE}
  INPUT_FILE "${long_session}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "long-line session: exit ${rc}\n${err}")
endif()
if(NOT "${out}" MATCHES "ERR line-too-long"
   OR NOT "${out}" MATCHES "requests +0")
  message(FATAL_ERROR "long-line transcript unexpected:\n${out}")
endif()

# --- SIGTERM: clean shutdown ------------------------------------------------
# The server must leave its blocking read, flush the registry, and exit 0
# when it receives SIGTERM mid-session. Driven through a fifo so stdin
# stays open (no EOF) while the signal arrives.
#
# The kill happens while the server is PROVABLY idle-blocked: the script
# waits until the last command has been acknowledged AND /proc shows the
# process sleeping in a read/poll wait. This is exactly the lost-wakeup
# window of the old serve loop (signal lands after the shutdown-flag
# check, before the blocking read) — the self-pipe wake must interrupt
# the wait that is ALREADY in progress. A watchdog turns a hang into a
# clean test failure instead of a stuck CI job.

find_program(BASH_PROGRAM bash)
if(BASH_PROGRAM)
  set(sigterm_script "${WORK_DIR}/iodb_serve_cli.sigterm.sh")
  file(WRITE "${sigterm_script}" "set -u
dir=\"$1\"; serve=\"$2\"
fifo=\"$dir/serve.fifo\"; out=\"$dir/serve.out\"
rm -f \"$fifo\" \"$out\"; rm -rf \"$dir/sigterm.store\"
mkfifo \"$fifo\" || exit 90
\"$serve\" --data-dir=\"$dir/sigterm.store\" --wal-sync=none \\
  < \"$fifo\" > \"$out\" &
pid=$!
exec 3>\"$fifo\"
printf 'LOAD base\\nP(u)\\nP(v)\\nu < v\\nEND\\nAPPEND base\\nQ(w)\\nv < w\\nEND\\n' >&3
ok=0
for i in $(seq 1 100); do
  grep -q 'OK db=base atoms=5' \"$out\" 2>/dev/null && ok=1 && break
  sleep 0.1
done
if [ \"$ok\" != 1 ]; then kill -9 $pid; exit 91; fi
# Provably idle-blocked: every command is acknowledged and the process
# is in an interruptible sleep (state S = blocked in its next read).
blocked=0
for i in $(seq 1 100); do
  state=$(awk '{print $3}' /proc/$pid/stat 2>/dev/null)
  [ \"$state\" = S ] && blocked=1 && break
  sleep 0.05
done
if [ \"$blocked\" != 1 ]; then kill -9 $pid; exit 92; fi
kill -TERM $pid
# Watchdog: the old serve loop could lose this wakeup and block until
# the next input line (forever, here) — bound the wait.
# Detached from stdout/stderr so an outliving sleep cannot hold the
# harness's output pipes open.
( sleep 20; kill -9 $pid ) >/dev/null 2>&1 &
watchdog=$!
wait $pid
rc=$?
kill $watchdog 2>/dev/null
exec 3>&-
if [ $rc -ge 128 ]; then exit 93; fi  # watchdog fired: shutdown hung
exit $rc
")
  execute_process(COMMAND ${BASH_PROGRAM} "${sigterm_script}"
    "${WORK_DIR}" "${IODB_SERVE}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "SIGTERM shutdown: exit ${rc} (want 0; 92 = never "
      "reached the blocked state, 93 = shutdown hung past the watchdog)"
      "\n${out}\n${err}")
  endif()
  # The appended group must have survived the shutdown flush: a fresh
  # session on the same directory sees all three atoms.
  set(after_sigterm "${WORK_DIR}/iodb_serve_cli.aftersigterm")
  file(WRITE "${after_sigterm}" "INFO base
QUIT
")
  execute_process(COMMAND ${IODB_SERVE} --data-dir=${WORK_DIR}/sigterm.store
    INPUT_FILE "${after_sigterm}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT "${out}" MATCHES "OK db=base atoms=5")
    message(FATAL_ERROR "post-SIGTERM state unexpected (exit ${rc}):\n${out}")
  endif()

  # The signal must interrupt ANY blocking wait, not just the top-level
  # command read: kill while the server is blocked mid-APPEND, waiting
  # for payload lines that never come. The half-read append must not be
  # applied (nothing was acknowledged).
  set(midpayload_script "${WORK_DIR}/iodb_serve_cli.midpayload.sh")
  file(WRITE "${midpayload_script}" "set -u
dir=\"$1\"; serve=\"$2\"
fifo=\"$dir/mid.fifo\"; out=\"$dir/mid.out\"
rm -f \"$fifo\" \"$out\"; rm -rf \"$dir/mid.store\"
mkfifo \"$fifo\" || exit 90
\"$serve\" --data-dir=\"$dir/mid.store\" --wal-sync=none \\
  < \"$fifo\" > \"$out\" &
pid=$!
exec 3>\"$fifo\"
printf 'LOAD base\\nP(u)\\nEND\\nAPPEND base\\nQ(v)\\n' >&3  # no END
ok=0
for i in $(seq 1 100); do
  grep -q 'OK db=base atoms=1' \"$out\" 2>/dev/null && ok=1 && break
  sleep 0.1
done
if [ \"$ok\" != 1 ]; then kill -9 $pid; exit 91; fi
blocked=0
for i in $(seq 1 100); do
  state=$(awk '{print $3}' /proc/$pid/stat 2>/dev/null)
  [ \"$state\" = S ] && blocked=1 && break
  sleep 0.05
done
if [ \"$blocked\" != 1 ]; then kill -9 $pid; exit 92; fi
kill -TERM $pid
# Detached from stdout/stderr so an outliving sleep cannot hold the
# harness's output pipes open.
( sleep 20; kill -9 $pid ) >/dev/null 2>&1 &
watchdog=$!
wait $pid
rc=$?
kill $watchdog 2>/dev/null
exec 3>&-
if [ $rc -ge 128 ]; then exit 93; fi
exit $rc
")
  execute_process(COMMAND ${BASH_PROGRAM} "${midpayload_script}"
    "${WORK_DIR}" "${IODB_SERVE}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "mid-payload SIGTERM: exit ${rc} (want 0)\n${out}\n${err}")
  endif()
  set(after_mid "${WORK_DIR}/iodb_serve_cli.aftermid")
  file(WRITE "${after_mid}" "INFO base
QUIT
")
  execute_process(COMMAND ${IODB_SERVE} --data-dir=${WORK_DIR}/mid.store
    INPUT_FILE "${after_mid}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT "${out}" MATCHES "OK db=base atoms=1")
    message(FATAL_ERROR
      "post-mid-payload state unexpected (exit ${rc}):\n${out}")
  endif()
endif()

# --- iodb_replay: deterministic report lines -------------------------------

set(trace "${WORK_DIR}/iodb_serve_cli.trace.json")
file(WRITE "${trace}" "[
  {\"op\": \"load\", \"db\": \"base\", \"text\": \"P(u)\\nQ(v)\\nu < v\"},
  {\"op\": \"eval\", \"db\": \"base\",
   \"query\": \"exists t1 t2: P(t1) & t1 < t2 & Q(t2)\"},
  {\"op\": \"eval\", \"db\": \"base\",
   \"query\": \"exists t1 t2: Q(t1) & t1 < t2 & P(t2)\"},
  {\"op\": \"eval\", \"db\": \"base\", \"query\": \"exists t: P(t)\",
   \"engine\": \"brute-force\"}
]
")

execute_process(COMMAND ${IODB_REPLAY} "${trace}" --repeat=3
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "iodb_replay: exit ${rc}\nstdout: ${out}\nstderr: ${err}")
endif()
foreach(pattern
    "replayed 9 request\\(s\\)"
    "verdicts: 6 entailed, 3 not entailed, 0 error\\(s\\)"
    "outcomes: 9 ok, 0 deadline-exceeded, 0 cancelled, 0 error\\(s\\)"
    "latency us: p50="
    "plan cache: 6 hit\\(s\\), 3 miss\\(es\\), 0 eviction\\(s\\), 3 compiled")
  if(NOT "${out}" MATCHES "${pattern}")
    message(FATAL_ERROR "iodb_replay output does not match '${pattern}'\n${out}")
  endif()
endforeach()

# A governed trace: the zero-step-budget request is counted per status
# code ("deadline-exceeded", excluded from latency percentiles) while the
# ungoverned request completes.
set(gov_trace "${WORK_DIR}/iodb_serve_cli.gov.json")
file(WRITE "${gov_trace}" "[
  {\"op\": \"load\", \"db\": \"base\", \"text\": \"P(u)\\nQ(v)\\nu < v\"},
  {\"op\": \"eval\", \"db\": \"base\",
   \"query\": \"exists t1 t2: P(t1) & t1 < t2 & Q(t2)\"},
  {\"op\": \"eval\", \"db\": \"base\", \"step_budget\": 0,
   \"query\": \"exists t1 t2: P(t1) & t1 < t2 & Q(t2)\"}
]
")
execute_process(COMMAND ${IODB_REPLAY} "${gov_trace}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "iodb_replay governed trace: exit ${rc}\n${out}\n${err}")
endif()
if(NOT "${out}" MATCHES "outcomes: 1 ok, 1 deadline-exceeded, 0 cancelled, 0 error\\(s\\)")
  message(FATAL_ERROR "iodb_replay governed outcomes mismatch\n${out}")
endif()

# Regression: when EVERY request is excluded from the latency population
# (here: all exhausted), the percentiles must print "n/a", not a
# fabricated 0.0 measurement.
set(empty_lat_trace "${WORK_DIR}/iodb_serve_cli.emptylat.json")
file(WRITE "${empty_lat_trace}" "[
  {\"op\": \"load\", \"db\": \"base\", \"text\": \"P(u)\\nQ(v)\\nu < v\"},
  {\"op\": \"eval\", \"db\": \"base\", \"step_budget\": 0,
   \"query\": \"exists t1 t2: P(t1) & t1 < t2 & Q(t2)\"},
  {\"op\": \"eval\", \"db\": \"base\", \"step_budget\": 0,
   \"query\": \"exists t1 t2: Q(t1) & t1 < t2 & P(t2)\"}
]
")
execute_process(COMMAND ${IODB_REPLAY} "${empty_lat_trace}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "iodb_replay empty-latency trace: exit ${rc}\n${err}")
endif()
if(NOT "${out}" MATCHES "outcomes: 0 ok, 2 deadline-exceeded, 0 cancelled, 0 error\\(s\\)"
   OR NOT "${out}" MATCHES "latency us: p50=n/a p90=n/a p99=n/a max=n/a")
  message(FATAL_ERROR "iodb_replay empty-latency report mismatch\n${out}")
endif()

# The batched path serves the same verdicts through the worker pool.
execute_process(COMMAND ${IODB_REPLAY} "${trace}" --batch=3 --workers=2
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "iodb_replay --batch: exit ${rc}\n${out}\n${err}")
endif()
if(NOT "${out}" MATCHES "verdicts: 2 entailed, 1 not entailed, 0 error\\(s\\)")
  message(FATAL_ERROR "iodb_replay --batch verdict mismatch\n${out}")
endif()

# A malformed trace is a usage error, not a crash.
set(bad_trace "${WORK_DIR}/iodb_serve_cli.bad.json")
file(WRITE "${bad_trace}" "{\"op\": \"eval\"}")
execute_process(COMMAND ${IODB_REPLAY} "${bad_trace}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT "${err}" MATCHES "trace must be a JSON array")
  message(FATAL_ERROR "iodb_replay bad trace: exit ${rc}, want 2\n${err}")
endif()

# ... including a malformed number (the scanner accepts it; stod rejects).
set(bad_number "${WORK_DIR}/iodb_serve_cli.badnum.json")
file(WRITE "${bad_number}" "[{\"op\": \"eval\", \"db\": \"a\", \"n\": -}]")
execute_process(COMMAND ${IODB_REPLAY} "${bad_number}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT "${err}" MATCHES "malformed number")
  message(FATAL_ERROR "iodb_replay bad number: exit ${rc}, want 2\n${err}")
endif()

message(STATUS "iodb_serve/iodb_replay CLI test passed")
