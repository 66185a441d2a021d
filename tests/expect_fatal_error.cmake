# Run the command after `--`, then fail unless it exits 1 (the CLI's
# error exit, not a crash) and its stderr contains EXPECT. With DEPTH
# set, first writes DEPTH nested '[' to INPUT for the command to
# read. Usage:
#   cmake -DEXPECT=<text> [-DINPUT=<file> -DDEPTH=<n>]
#         -P expect_fatal_error.cmake -- <command...>

set(cmd)
set(seen FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(seen TRUE)
    endif()
endforeach()

if(DEFINED DEPTH)
    string(REPEAT "[" ${DEPTH} nested)
    file(WRITE "${INPUT}" "${nested}")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc ERROR_VARIABLE err
                OUTPUT_QUIET)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "command exited '${rc}', expected 1: ${cmd}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks '${EXPECT}':\n${err}")
endif()
