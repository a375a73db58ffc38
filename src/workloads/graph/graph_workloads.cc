#include "workloads/graph/graph_workloads.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/cancellation.hh"
#include "common/log.hh"

namespace prophet::workloads::graph
{

namespace
{

/** Per-vertex data element size in bytes (dist/rank/visited). */
constexpr Addr kDataElem = 64;

/** PC slot offsets within a kernel's PC block. */
enum PcSlot : unsigned
{
    PcQueue = 0,   ///< frontier/stack/queue accesses
    PcOffsets = 1, ///< rowOffsets[v]
    PcEdges = 2,   ///< colIndices[e] (the stride prefetch kernel)
    PcData = 3,    ///< vertexData[colIndices[e]] (indirect)
    PcUpdate = 4,  ///< vertexData[v] update
    PcWeights = 5, ///< edge weights
};

} // anonymous namespace

GraphWorkload::GraphWorkload(GraphKernel kernel, std::string label_in,
                             std::uint32_t vertices,
                             unsigned avg_degree, std::size_t records,
                             std::uint64_t seed)
    : kernel(kernel), label(std::move(label_in)), budget(records),
      seed(seed)
{
    bool skewed =
        kernel == GraphKernel::PageRank || kernel == GraphKernel::Bc;
    g = skewed ? makeSkewedGraph(vertices, avg_degree, seed)
               : makeUniformGraph(vertices, avg_degree, seed);

    // Distinct PC/address blocks per kernel type.
    auto kid = static_cast<unsigned>(kernel);
    pcBase = 0x800000 + static_cast<PC>(kid) * 0x1000;
    memBase = (Addr{1} << 40) + (static_cast<Addr>(kid) << 36);

    // RPG2 resolver: the colIndices scan is a stride kernel; the
    // indirect access it feeds is vertexData[colIndices[e]]. This is
    // the address computation RPG2's inserted code performs.
    resolverPtr = std::make_unique<PcResolver>();
    resolverPtr->registerKernel(
        edgeScanPc(),
        [this](Addr kernel_addr,
               std::int64_t distance) -> std::optional<Addr> {
            Addr base = edgeAddr(0);
            if (kernel_addr < base)
                return std::nullopt;
            std::uint64_t e = (kernel_addr - base) / 4;
            std::uint64_t target_e =
                e + static_cast<std::uint64_t>(distance);
            if (target_e >= g.numEdges())
                return std::nullopt;
            return dataAddr(g.colIndices[target_e]);
        });
}

const trace::IndirectResolver *
GraphWorkload::resolver() const
{
    return resolverPtr.get();
}

Addr
GraphWorkload::offAddr(std::uint32_t v) const
{
    return memBase + static_cast<Addr>(v) * 4;
}

Addr
GraphWorkload::edgeAddr(std::uint64_t e) const
{
    Addr base = memBase + (Addr{1} << 30);
    return base + e * 4;
}

Addr
GraphWorkload::dataAddr(std::uint32_t v, unsigned array) const
{
    Addr base = memBase + (Addr{2} << 30)
        + (static_cast<Addr>(array) << 28);
    return base + static_cast<Addr>(v) * kDataElem;
}

Addr
GraphWorkload::queueAddr(std::uint64_t slot) const
{
    Addr base = memBase + (Addr{3} << 30);
    return base + (slot % 65536) * 4;
}

trace::Trace
GraphWorkload::generate()
{
    trace::Trace t;
    t.reserve(budget + 64);
    while (t.size() < budget) {
        // One poll per traversal: under a million records on the
        // largest scaled graph.
        cancellation::poll();
        switch (kernel) {
          case GraphKernel::Bfs:
            emitBfs(t);
            break;
          case GraphKernel::Dfs:
            emitDfs(t);
            break;
          case GraphKernel::Sssp:
            emitSssp(t);
            break;
          case GraphKernel::PageRank:
            emitPageRank(t);
            break;
          case GraphKernel::Bc:
            emitBc(t);
            break;
        }
    }
    return t;
}

void
GraphWorkload::emitBfs(trace::Trace &t)
{
    // One full BFS; callers re-invoke from rotating roots until the
    // budget is filled, so traversals repeat and temporal patterns
    // form. Roots rotate deterministically.
    std::uint32_t &root_counter = rootCounter;
    std::uint32_t v_count = g.numVertices();
    std::uint32_t root = (root_counter++ % 4) * (v_count / 7) + 1;
    root %= v_count;

    std::vector<bool> visited(v_count, false);
    std::vector<std::uint32_t> queue;
    queue.reserve(v_count);
    queue.push_back(root);
    visited[root] = true;
    std::size_t head = 0;

    while (head < queue.size() && t.size() < budget) {
        std::uint32_t v = queue[head];
        t.append(pcBase + PcQueue * 0x40, queueAddr(head), 4);
        ++head;
        t.append(pcBase + PcOffsets * 0x40, offAddr(v), 5);
        for (std::uint32_t e = g.rowOffsets[v];
             e < g.rowOffsets[v + 1] && t.size() < budget; ++e) {
            t.append(pcBase + PcEdges * 0x40, edgeAddr(e), 5);
            std::uint32_t n = g.colIndices[e];
            t.append(pcBase + PcData * 0x40, dataAddr(n), 9,
                     /*depends=*/true);
            if (!visited[n]) {
                visited[n] = true;
                queue.push_back(n);
                t.append(pcBase + PcQueue * 0x40,
                         queueAddr(queue.size() - 1), 1, false,
                         /*write=*/true);
            }
        }
    }
}

void
GraphWorkload::emitDfs(trace::Trace &t)
{
    std::uint32_t &root_counter = rootCounter;
    std::uint32_t v_count = g.numVertices();
    std::uint32_t root = (root_counter++ % 4) * (v_count / 5) + 3;
    root %= v_count;

    std::vector<bool> visited(v_count, false);
    std::vector<std::uint32_t> stack;
    stack.push_back(root);

    while (!stack.empty() && t.size() < budget) {
        std::uint32_t v = stack.back();
        stack.pop_back();
        t.append(pcBase + PcQueue * 0x40, queueAddr(stack.size()), 4);
        if (visited[v])
            continue;
        visited[v] = true;
        t.append(pcBase + PcOffsets * 0x40, offAddr(v), 5);
        t.append(pcBase + PcUpdate * 0x40, dataAddr(v), 6, false,
                 /*write=*/true);
        for (std::uint32_t e = g.rowOffsets[v];
             e < g.rowOffsets[v + 1] && t.size() < budget; ++e) {
            t.append(pcBase + PcEdges * 0x40, edgeAddr(e), 5);
            std::uint32_t n = g.colIndices[e];
            t.append(pcBase + PcData * 0x40, dataAddr(n), 9,
                     /*depends=*/true);
            if (!visited[n])
                stack.push_back(n);
        }
    }
}

void
GraphWorkload::emitSssp(trace::Trace &t)
{
    // One Bellman-Ford relaxation round over every edge; rounds
    // repeat identically — dense temporal and stride structure.
    std::uint32_t v_count = g.numVertices();
    for (std::uint32_t v = 0; v < v_count && t.size() < budget; ++v) {
        t.append(pcBase + PcOffsets * 0x40, offAddr(v), 5);
        t.append(pcBase + PcUpdate * 0x40, dataAddr(v), 4);
        for (std::uint32_t e = g.rowOffsets[v];
             e < g.rowOffsets[v + 1] && t.size() < budget; ++e) {
            t.append(pcBase + PcEdges * 0x40, edgeAddr(e), 5);
            std::uint32_t n = g.colIndices[e];
            t.append(pcBase + PcData * 0x40, dataAddr(n), 9,
                     /*depends=*/true);
            t.append(pcBase + PcWeights * 0x40,
                     memBase + (Addr{5} << 30) + e * 4, 3);
        }
    }
}

void
GraphWorkload::emitPageRank(trace::Trace &t)
{
    // One iteration; the rank arrays double-buffer, so the indirect
    // targets alternate between two regions across iterations —
    // multi-target Markov entries (the MVB's pattern).

    unsigned src = iteration % 2;
    unsigned dst = 1 - src;
    ++iteration;

    std::uint32_t v_count = g.numVertices();
    for (std::uint32_t v = 0; v < v_count && t.size() < budget; ++v) {
        t.append(pcBase + PcOffsets * 0x40, offAddr(v), 5);
        for (std::uint32_t e = g.rowOffsets[v];
             e < g.rowOffsets[v + 1] && t.size() < budget; ++e) {
            t.append(pcBase + PcEdges * 0x40, edgeAddr(e), 5);
            std::uint32_t n = g.colIndices[e];
            t.append(pcBase + PcData * 0x40, dataAddr(n, src), 2,
                     /*depends=*/true);
        }
        t.append(pcBase + PcUpdate * 0x40, dataAddr(v, dst), 6, false,
                 /*write=*/true);
    }
}

void
GraphWorkload::emitBc(trace::Trace &t)
{
    // Brandes-style: forward BFS recording the visit order, then a
    // reverse accumulation pass over that order.
    std::uint32_t &root_counter = rootCounter;
    std::uint32_t v_count = g.numVertices();
    std::uint32_t root = (root_counter++ % 6) * (v_count / 11) + 5;
    root %= v_count;

    std::vector<bool> visited(v_count, false);
    std::vector<std::uint32_t> order;
    order.reserve(v_count);
    order.push_back(root);
    visited[root] = true;
    std::size_t head = 0;

    while (head < order.size() && t.size() < budget) {
        std::uint32_t v = order[head];
        t.append(pcBase + PcQueue * 0x40, queueAddr(head), 4);
        ++head;
        t.append(pcBase + PcOffsets * 0x40, offAddr(v), 5);
        for (std::uint32_t e = g.rowOffsets[v];
             e < g.rowOffsets[v + 1] && t.size() < budget; ++e) {
            t.append(pcBase + PcEdges * 0x40, edgeAddr(e), 5);
            std::uint32_t n = g.colIndices[e];
            t.append(pcBase + PcData * 0x40, dataAddr(n), 9,
                     /*depends=*/true);
            if (!visited[n]) {
                visited[n] = true;
                order.push_back(n);
            }
        }
    }

    // Reverse accumulation: dependency accumulation δ over the order.
    for (std::size_t i = order.size(); i-- > 0 && t.size() < budget;) {
        std::uint32_t v = order[i];
        t.append(pcBase + PcUpdate * 0x40, dataAddr(v, 1), 6);
        t.append(pcBase + PcOffsets * 0x40, offAddr(v), 3);
    }
}

trace::GeneratorPtr
makeGraphWorkload(const std::string &label, std::size_t records)
{
    // Parse "<kernel>_<vertices>_<degree>".
    auto first = label.find('_');
    auto second = label.find('_', first + 1);
    if (first == std::string::npos || second == std::string::npos)
        prophet_fatal("bad graph workload label");
    std::string kname = label.substr(0, first);
    auto vertices = static_cast<std::uint32_t>(
        std::strtoul(label.substr(first + 1,
                                  second - first - 1).c_str(),
                     nullptr, 10));
    auto degree = static_cast<unsigned>(
        std::strtoul(label.substr(second + 1).c_str(), nullptr, 10));

    GraphKernel kernel;
    if (kname == "bfs")
        kernel = GraphKernel::Bfs;
    else if (kname == "dfs")
        kernel = GraphKernel::Dfs;
    else if (kname == "sssp")
        kernel = GraphKernel::Sssp;
    else if (kname == "pagerank")
        kernel = GraphKernel::PageRank;
    else if (kname == "bc")
        kernel = GraphKernel::Bc;
    else
        prophet_fatal("unknown graph kernel");

    // Offline scaling (header comment): cap vertices and degree so
    // several traversal rounds fit the trace budget (temporal
    // patterns require re-traversal) while the data working set
    // still exceeds the LLC.
    std::uint64_t scaled_v = std::min<std::uint64_t>(vertices, 65536);
    unsigned scaled_d = std::min(degree, 5u);
    if (scaled_d == 0)
        scaled_d = 8;
    std::uint64_t seed = 0x6772617068ULL ^ (vertices * 2654435761ULL)
        ^ (degree * 40503ULL);

    return std::make_unique<GraphWorkload>(
        kernel, label, static_cast<std::uint32_t>(scaled_v), scaled_d,
        records, seed);
}

bool
isKnownGraphLabel(const std::string &label)
{
    auto first = label.find('_');
    auto second = label.find('_', first + 1);
    if (first == std::string::npos || second == std::string::npos
        || second + 1 >= label.size() || second == first + 1)
        return false;

    std::string kname = label.substr(0, first);
    if (kname != "bfs" && kname != "dfs" && kname != "sssp"
        && kname != "pagerank" && kname != "bc")
        return false;

    auto numeric = [&](std::size_t from, std::size_t to) {
        for (std::size_t i = from; i < to; ++i)
            if (label[i] < '0' || label[i] > '9')
                return false;
        return true;
    };
    if (!numeric(first + 1, second)
        || !numeric(second + 1, label.size()))
        return false;

    // The graph builders assert vertices >= 2, and the factory casts
    // through uint32 (so larger values would wrap). Degree needs no
    // bound: the factory clamps it to [1, 5] (0 maps to 8).
    errno = 0;
    unsigned long long vertices = std::strtoull(
        label.c_str() + first + 1, nullptr, 10);
    return errno == 0 && vertices >= 2 && vertices <= 0xffffffffull;
}

} // namespace prophet::workloads::graph
