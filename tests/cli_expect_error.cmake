# Runs the mvf CLI and expects a clean usage error: a nonzero exit code (not
# a signal) and stderr matching EXPECT.
#
#   cmake -DMVF=path/to/mvf -DARGS="run;--seed;abc" -DEXPECT=regex
#         [-DEXPECT_CODE=N] [-DSPEC_TEXT="..." -DSPEC_FILE=path]
#         -P cli_expect_error.cmake
#
# With EXPECT_CODE set, the exit code must be exactly N.
#
# With SPEC_TEXT set, the text is first written to SPEC_FILE (so a test can
# feed `mvf batch --spec` a malformed spec without a checked-in file).

if(DEFINED SPEC_TEXT)
  file(WRITE "${SPEC_FILE}" "${SPEC_TEXT}\n")
endif()

execute_process(COMMAND "${MVF}" ${ARGS}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)

if(NOT code MATCHES "^[0-9]+$")
  message(FATAL_ERROR "mvf ${ARGS} died instead of reporting an error: ${code}\n${err}")
endif()
if(code EQUAL 0)
  message(FATAL_ERROR "mvf ${ARGS} succeeded; expected a usage error\n${out}")
endif()
if(DEFINED EXPECT_CODE AND NOT code EQUAL EXPECT_CODE)
  message(FATAL_ERROR "mvf ${ARGS} exited ${code}; expected ${EXPECT_CODE}\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "mvf ${ARGS} exited ${code} but stderr lacks \"${EXPECT}\":\n${err}")
endif()
