# Runs PROGRAM in WORKDIR (created if missing) and fails unless its standard
# output equals GOLDEN byte for byte; the run's output is left in
# WORKDIR/stdout.txt for a diff. Usage:
#   cmake -DPROGRAM=<binary> -DGOLDEN=<file> -DWORKDIR=<dir> \
#         -P compare_stdout.cmake
file(MAKE_DIRECTORY "${WORKDIR}")
set(OUTPUT "${WORKDIR}/stdout.txt")
execute_process(COMMAND "${PROGRAM}" OUTPUT_FILE "${OUTPUT}"
                WORKING_DIRECTORY "${WORKDIR}" RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUTPUT}"
                "${GOLDEN}" RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${GOLDEN}: "
                      "diff it against ${OUTPUT}")
endif()
