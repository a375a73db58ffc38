#include "workloads/pattern_lib.hh"

#include "common/cancellation.hh"
#include "common/log.hh"

namespace prophet::workloads
{

namespace
{

/** Records between two cancellation polls of a generation. */
constexpr std::size_t kPollRecords = 4096;

/** Build a single-cycle successor permutation over n nodes. */
std::vector<std::uint32_t>
buildRing(std::size_t n, Rng &rng, std::vector<std::uint32_t> *order_out)
{
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    rng.shuffle(order);
    std::vector<std::uint32_t> next(n);
    for (std::size_t i = 0; i < n; ++i)
        next[order[i]] = order[(i + 1) % n];
    if (order_out)
        *order_out = std::move(order);
    return next;
}

} // anonymous namespace

// --------------------------------------------------------- ChaseStream

ChaseStream::ChaseStream(const StreamParams &params, std::size_t nodes,
                         double mutation_rate)
    : prm(params), mutationRate(mutation_rate), rng(params.seed)
{
    prophet_assert(nodes >= 2);
    next = buildRing(nodes, rng, nullptr);
    pos = 0;
}

void
ChaseStream::emit(trace::Trace &t)
{
    Addr addr = prm.regionBase
        + static_cast<Addr>(pos) * kLineSize;
    t.append(prm.pc, addr, prm.instGap, /*depends=*/true);
    pos = next[pos];
    ++steps;

    // After each full traversal, re-randomize a fraction of the
    // successor links: swapping the successors of two nodes keeps
    // the structure traversable while perturbing the pattern.
    if (mutationRate > 0.0 && steps % next.size() == 0) {
        auto swaps = static_cast<std::size_t>(
            mutationRate * static_cast<double>(next.size()) / 2.0);
        for (std::size_t s = 0; s < swaps; ++s) {
            auto a = static_cast<std::size_t>(rng.below(next.size()));
            auto b = static_cast<std::size_t>(rng.below(next.size()));
            std::swap(next[a], next[b]);
        }
    }
}

// --------------------------------------------------- AlternatingStream

AlternatingStream::AlternatingStream(const StreamParams &params,
                                     std::size_t nodes,
                                     unsigned useful_len,
                                     unsigned useless_len,
                                     std::size_t noise_lines)
    : prm(params), usefulLen(useful_len), uselessLen(useless_len),
      noiseLines(noise_lines), rng(params.seed)
{
    prophet_assert(nodes >= 2 && useful_len >= 1 && useless_len >= 1);
    next = buildRing(nodes, rng, nullptr);
}

void
AlternatingStream::emit(trace::Trace &t)
{
    if (inUseful) {
        Addr addr = prm.regionBase
            + static_cast<Addr>(pos) * kLineSize;
        t.append(prm.pc, addr, prm.instGap, /*depends=*/true);
        pos = next[pos]; // the ring position persists across bursts
        if (++phasePos >= usefulLen) {
            phasePos = 0;
            inUseful = false;
        }
    } else {
        // Useless burst: fresh random lines from a disjoint region;
        // no correlation ever repeats.
        Addr noise_base = prm.regionBase
            + static_cast<Addr>(next.size() + 4096) * kLineSize;
        Addr addr = noise_base
            + static_cast<Addr>(rng.below(noiseLines)) * kLineSize;
        t.append(prm.pc, addr, prm.instGap, /*depends=*/true);
        if (++phasePos >= uselessLen) {
            phasePos = 0;
            inUseful = true;
        }
    }
}

// ----------------------------------------------- BranchingChaseStream

BranchingChaseStream::BranchingChaseStream(const StreamParams &params,
                                           std::size_t nodes,
                                           double branch_fraction,
                                           double three_way_fraction)
    : prm(params)
{
    prophet_assert(nodes >= 4);
    Rng rng(params.seed);
    std::vector<std::uint32_t> next = buildRing(nodes, rng, nullptr);

    succ.resize(nodes);
    numSucc.assign(nodes, 1);
    visitCount.assign(nodes, 0);
    for (std::size_t v = 0; v < nodes; ++v) {
        succ[v][0] = next[v];
        // Alternative successors skip ahead on the ring, so the walk
        // always remains covering while the per-node target varies.
        succ[v][1] = next[next[v]];
        succ[v][2] = next[next[next[v]]];
        double draw = rng.uniform();
        if (draw < three_way_fraction)
            numSucc[v] = 3;
        else if (draw < three_way_fraction + branch_fraction)
            numSucc[v] = 2;
    }
}

void
BranchingChaseStream::emit(trace::Trace &t)
{
    Addr addr = prm.regionBase
        + static_cast<Addr>(pos) * kLineSize;
    t.append(prm.pc, addr, prm.instGap, /*depends=*/true);
    std::uint8_t k = visitCount[pos] % numSucc[pos];
    ++visitCount[pos];
    pos = succ[pos][k];
}

// ------------------------------------------------------ IndirectStream

IndirectStream::IndirectStream(const StreamParams &params,
                               std::size_t kernel_len,
                               std::size_t target_lines,
                               bool stride_kernel)
    : prm(params), strideMode(stride_kernel), targetLines(target_lines)
{
    prophet_assert(kernel_len >= 1 && target_lines >= 1);
    Rng rng(params.seed);
    indexArray.resize(kernel_len);
    for (auto &v : indexArray)
        v = static_cast<std::uint32_t>(rng.below(target_lines));
    order.resize(kernel_len);
    for (std::size_t i = 0; i < kernel_len; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    if (!strideMode)
        rng.shuffle(order);
}

Addr
IndirectStream::kernelAddr(std::size_t i) const
{
    return prm.regionBase + static_cast<Addr>(i) * 4;
}

Addr
IndirectStream::targetAddr(std::uint32_t index) const
{
    // Target region sits well past the index array.
    Addr target_base = prm.regionBase
        + (static_cast<Addr>(indexArray.size()) * 4 + (64u << 20));
    return target_base + static_cast<Addr>(index) * kLineSize;
}

void
IndirectStream::emit(trace::Trace &t)
{
    std::uint32_t i = order[pos];
    t.append(kernelPc(), kernelAddr(i), prm.instGap,
             /*depends=*/false);
    t.append(targetPc(), targetAddr(indexArray[i]), 2,
             /*depends=*/true);
    pos = (pos + 1) % order.size();
}

std::optional<Addr>
IndirectStream::resolve(Addr kernel_addr, std::int64_t distance) const
{
    if (!strideMode)
        return std::nullopt;
    if (kernel_addr < prm.regionBase)
        return std::nullopt;
    std::uint64_t i = (kernel_addr - prm.regionBase) / 4;
    if (i >= indexArray.size())
        return std::nullopt;
    std::uint64_t idx =
        (i + static_cast<std::uint64_t>(distance)) % indexArray.size();
    return targetAddr(indexArray[idx]);
}

// -------------------------------------------------------- StrideStream

StrideStream::StrideStream(const StreamParams &params,
                           std::size_t region_lines, unsigned stride)
    : prm(params), regionLines(region_lines), stride(stride)
{
    prophet_assert(region_lines >= 1 && stride >= 1);
}

void
StrideStream::emit(trace::Trace &t)
{
    Addr line = (static_cast<Addr>(pos) * stride) % regionLines;
    t.append(prm.pc, prm.regionBase + line * kLineSize, prm.instGap,
             /*depends=*/false);
    ++pos;
}

// --------------------------------------------------------- NoiseStream

NoiseStream::NoiseStream(const StreamParams &params,
                         std::size_t region_lines)
    : prm(params), regionLines(region_lines), rng(params.seed)
{
    prophet_assert(region_lines >= 1);
}

void
NoiseStream::emit(trace::Trace &t)
{
    Addr line = rng.below(regionLines);
    t.append(prm.pc, prm.regionBase + line * kLineSize, prm.instGap,
             /*depends=*/false);
}

// -------------------------------------------------- CompositeGenerator

CompositeGenerator::CompositeGenerator(std::string name,
                                       std::size_t total_records,
                                       std::uint64_t seed)
    : label(std::move(name)), totalRecords(total_records), rng(seed)
{}

void
CompositeGenerator::addStream(std::unique_ptr<Stream> stream,
                              double weight)
{
    prophet_assert(weight > 0.0);
    streams.push_back(std::move(stream));
    weights.push_back(weight);
}

trace::Trace
CompositeGenerator::generate()
{
    prophet_assert(!streams.empty());
    double total_w = 0.0;
    for (double w : weights)
        total_w += w;

    trace::Trace t;
    t.reserve(totalRecords + 8);
    std::size_t next_poll = 0;
    while (t.size() < totalRecords) {
        if (t.size() >= next_poll) {
            cancellation::poll();
            next_poll = t.size() + kPollRecords;
        }
        double draw = rng.uniform() * total_w;
        std::size_t pick = 0;
        for (; pick + 1 < streams.size(); ++pick) {
            if (draw < weights[pick])
                break;
            draw -= weights[pick];
        }
        streams[pick]->emit(t);
    }
    return t;
}

} // namespace prophet::workloads
