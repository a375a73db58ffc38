/**
 * @file
 * Tests for the structured error model: code names are stable (the
 * CLI and sinks print them), the transient classification drives the
 * driver's retry policy, and what() renders the context block the
 * failure site attached.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/error.hh"

namespace prophet
{
namespace
{

TEST(Error, CodeNamesAreStableAndLowerCase)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
    EXPECT_STREQ(errorCodeName(ErrorCode::SpecParse), "spec-parse");
    EXPECT_STREQ(errorCodeName(ErrorCode::PipelineConfig),
                 "pipeline-config");
    EXPECT_STREQ(errorCodeName(ErrorCode::TraceIo), "trace-io");
    EXPECT_STREQ(errorCodeName(ErrorCode::Cancelled), "cancelled");
    EXPECT_STREQ(errorCodeName(ErrorCode::FaultInjected),
                 "fault-injected");
    EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "internal");
    EXPECT_STREQ(errorCodeName(ErrorCode::JournalCorrupt),
                 "journal-corrupt");
    EXPECT_STREQ(errorCodeName(ErrorCode::JobTimeout), "job-timeout");
    EXPECT_STREQ(errorCodeName(ErrorCode::ServerOverloaded),
                 "server-overloaded");
    EXPECT_STREQ(errorCodeName(ErrorCode::ProtocolError),
                 "protocol-error");
    EXPECT_STREQ(errorCodeName(ErrorCode::SocketBusy),
                 "socket-busy");
}

TEST(Error, OnlyIoTimeoutAndOverloadClassesAreTransient)
{
    // The retry policy keys off this: an I/O hiccup or a deadline
    // blown on an overloaded machine can clear on its own;
    // corruption, bad specs, and cancellation cannot.
    EXPECT_TRUE(isTransientError(ErrorCode::TraceIo));
    EXPECT_TRUE(isTransientError(ErrorCode::JobTimeout));
    // Overload clears as the daemon drains its queue — the error
    // frame even carries a retry_after_ms hint.
    EXPECT_TRUE(isTransientError(ErrorCode::ServerOverloaded));

    EXPECT_FALSE(isTransientError(ErrorCode::Ok));
    EXPECT_FALSE(isTransientError(ErrorCode::SpecParse));
    EXPECT_FALSE(isTransientError(ErrorCode::PipelineConfig));
    EXPECT_FALSE(isTransientError(ErrorCode::Cancelled));
    EXPECT_FALSE(isTransientError(ErrorCode::FaultInjected));
    EXPECT_FALSE(isTransientError(ErrorCode::Internal));
    EXPECT_FALSE(isTransientError(ErrorCode::JournalCorrupt));
    EXPECT_FALSE(isTransientError(ErrorCode::ProtocolError));
    EXPECT_FALSE(isTransientError(ErrorCode::SocketBusy));
}

TEST(Error, CarriesCodeContextAndTransience)
{
    ErrorContext ctx;
    ctx.workload = "mcf";
    ctx.path = "/tmp/x.journal";
    ctx.offset = 40;
    Error e(ErrorCode::JournalCorrupt, "entry payload truncated",
            std::move(ctx));
    EXPECT_EQ(e.code(), ErrorCode::JournalCorrupt);
    EXPECT_FALSE(e.transient());
    EXPECT_EQ(e.context().workload, "mcf");
    EXPECT_EQ(e.context().path, "/tmp/x.journal");
    EXPECT_EQ(e.context().offset, 40u);
    EXPECT_TRUE(e.context().pipeline.empty());

    Error t(ErrorCode::TraceIo, "short read");
    EXPECT_TRUE(t.transient());
}

TEST(Error, WhatRendersCodeMessageAndPopulatedContext)
{
    ErrorContext ctx;
    ctx.workload = "mcf";
    ctx.pipeline = "prophet";
    Error e(ErrorCode::FaultInjected, "injected job failure",
            std::move(ctx));
    std::string what = e.what();
    EXPECT_NE(what.find("fault-injected"), std::string::npos) << what;
    EXPECT_NE(what.find("injected job failure"), std::string::npos);
    EXPECT_NE(what.find("mcf"), std::string::npos);
    EXPECT_NE(what.find("prophet"), std::string::npos);
    // Unpopulated fields stay out of the rendering.
    EXPECT_EQ(what.find("offset"), std::string::npos) << what;

    Error bare(ErrorCode::Internal, "boom");
    std::string bare_what = bare.what();
    EXPECT_NE(bare_what.find("internal"), std::string::npos);
    EXPECT_NE(bare_what.find("boom"), std::string::npos);
    EXPECT_EQ(bare_what.find('['), std::string::npos) << bare_what;
}

TEST(Error, IsCatchableAsRuntimeError)
{
    // One `catch (const prophet::Error &)` at the CLI top sees every
    // structured failure; plain runtime_error handlers still work.
    try {
        throw Error(ErrorCode::Cancelled, "stop");
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("stop"),
                  std::string::npos);
    }
}

} // anonymous namespace
} // namespace prophet
