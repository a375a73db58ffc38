#include "common/exit_codes.hh"

namespace prophet
{

const char *
exitCodesHelp()
{
    return "exit codes (shared by run, serve, and client):\n"
           "  0  success\n"
           "  2  usage error\n"
           "  3  spec parse/validation error\n"
           "  4  runtime failure (job, pipeline, sink, or server\n"
           "     request — including an overloaded or unreachable\n"
           "     serve daemon)\n"
           "  5  partial failure (--keep-going: some jobs failed,\n"
           "     the rest completed)\n"
           "  6  interrupted (SIGINT/SIGTERM drained the run or\n"
           "     daemon; completed jobs were journaled when\n"
           "     --resume was on)\n";
}

ExitCode
exitCodeForError(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Ok:
        return ExitCode::Success;
      case ErrorCode::SpecParse:
        return ExitCode::SpecInvalid;
      case ErrorCode::Cancelled:
        return ExitCode::Interrupted;
      default:
        return ExitCode::RuntimeFailure;
    }
}

} // namespace prophet
