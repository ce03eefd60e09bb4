# Run one command and require an exact exit status and a message.
#
#   cmake -DEXE=<program> "-DARGS=<space-separated args>" \
#         -DEXPECT_CODE=1 "-DEXPECT_REGEX=<regex>" -P expect_exit.cmake
#
# The regex is matched against stdout and stderr together. A process
# killed by a signal (a crash, or std::terminate's abort) fails:
# execute_process then reports a message instead of a number.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR
          "exit status '${code}', expected ${EXPECT_CODE}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR
          "output does not match '${EXPECT_REGEX}':\n${out}${err}")
endif()
