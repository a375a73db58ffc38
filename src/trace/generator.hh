/**
 * @file
 * Interfaces between workloads and the rest of the system: trace
 * generation and the indirect-access resolver RPG2-style software
 * prefetching needs.
 */

#ifndef PROPHET_TRACE_GENERATOR_HH
#define PROPHET_TRACE_GENERATOR_HH

#include <memory>
#include <optional>
#include <string>

#include "trace/trace.hh"

namespace prophet::trace
{

/**
 * Resolves the target of a stride-indexed indirect access, emulating
 * the address computation an inserted software-prefetch sequence
 * would perform (load b[i+d], then compute &a[b[i+d]]).
 *
 * Only workloads whose prefetch kernels follow stride patterns (the
 * subset RPG2 supports, Section 2.2 of the paper) provide a resolver;
 * pointer-chasing and complex-kernel workloads return std::nullopt,
 * which is exactly why RPG2 is ineffective on them.
 */
class IndirectResolver
{
  public:
    virtual ~IndirectResolver() = default;

    /**
     * Given the PC of an indirect load and the byte address of its
     * *kernel* access (e.g. &b[i]), return the byte address the
     * indirect access would touch if the kernel were advanced by
     * @p distance iterations (i.e. &a[b[i + distance]]), or
     * std::nullopt if this PC is not a supported kernel.
     */
    virtual std::optional<Addr>
    resolve(PC pc, Addr kernel_addr, std::int64_t distance) const = 0;
};

/**
 * A workload: produces a deterministic trace and, optionally, an
 * indirect resolver for RPG2. The @c input label distinguishes
 * multiple inputs of one application (gcc_166 vs gcc_expr, ...),
 * which drives Prophet's learning evaluation.
 */
class TraceGenerator
{
  public:
    virtual ~TraceGenerator() = default;

    /** Workload name as used in the paper's figures. */
    virtual std::string name() const = 0;

    /**
     * Generate the full access trace. Deterministic per instance.
     * Polls the calling thread's job token (cancellation::poll), so
     * it throws Error(ErrorCode::Cancelled) once that token fires.
     */
    virtual Trace generate() = 0;

    /**
     * Resolver for software indirect prefetching; nullptr when the
     * workload has no RPG2-supported kernels.
     */
    virtual const IndirectResolver *resolver() const { return nullptr; }
};

using GeneratorPtr = std::unique_ptr<TraceGenerator>;

} // namespace prophet::trace

#endif // PROPHET_TRACE_GENERATOR_HH
