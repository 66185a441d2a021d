# Run the command after `--`, then fail unless it exits 0 and leaves
# OUTPUT behind as an empty file. Usage:
#   cmake -DOUTPUT=<file> -P expect_empty_output.cmake -- <command...>

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

file(REMOVE "${OUTPUT}")
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command exited ${rc}: ${cmd}")
endif()
if(NOT EXISTS "${OUTPUT}")
    message(FATAL_ERROR "${OUTPUT} was not written")
endif()
file(SIZE "${OUTPUT}" size)
if(NOT size EQUAL 0)
    message(FATAL_ERROR "${OUTPUT} holds ${size} bytes, expected none")
endif()
