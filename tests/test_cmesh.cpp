/**
 * @file
 * Tests of the electrical CMESH baseline: routing, wormhole/VC flow
 * control, backpressure, deadlock-free drainage under random traffic,
 * and the energy model.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "electrical/cmesh.hpp"

namespace pearl {
namespace electrical {
namespace {

using sim::CoherenceOp;
using sim::Cycle;
using sim::MsgClass;
using sim::Packet;

Packet
meshPacket(int src, int dst, CoherenceOp op = CoherenceOp::Read,
           int size = sim::kRequestBits)
{
    static std::uint64_t seq = 0;
    Packet p;
    p.id = ++seq;
    p.op = op;
    p.msgClass = op == CoherenceOp::Data ? MsgClass::RespCpuL2Down
                                         : MsgClass::ReqCpuL2Down;
    p.src = src;
    p.dst = dst;
    p.sizeBits = size;
    return p;
}

void
stepN(CmeshNetwork &net, int n)
{
    for (int i = 0; i < n; ++i)
        net.step();
}

TEST(Cmesh, Topology)
{
    CmeshNetwork net;
    EXPECT_EQ(net.numNodes(), 17);
    EXPECT_EQ(net.routerOf(0), 0);
    EXPECT_EQ(net.routerOf(15), 15);
    EXPECT_EQ(net.routerOf(16), CmeshConfig{}.l3Router);
}

TEST(Cmesh, DeliversSingleFlit)
{
    CmeshNetwork net;
    ASSERT_TRUE(net.inject(meshPacket(0, 15)));
    stepN(net, 60);
    ASSERT_EQ(net.delivered().size(), 1u);
    EXPECT_EQ(net.delivered()[0].dst, 15);
}

TEST(Cmesh, DeliversMultiFlitPacket)
{
    CmeshNetwork net;
    ASSERT_TRUE(
        net.inject(meshPacket(3, 12, CoherenceOp::Data,
                              sim::kResponseBits)));
    stepN(net, 80);
    ASSERT_EQ(net.delivered().size(), 1u);
    EXPECT_EQ(net.stats().deliveredFlits(), 5u);
}

TEST(Cmesh, LocalDelivery)
{
    // Endpoint 16 (MC) and endpoint 5 share router 5.
    CmeshNetwork net;
    ASSERT_TRUE(net.inject(meshPacket(5, 16)));
    stepN(net, 20);
    ASSERT_EQ(net.delivered().size(), 1u);
}

TEST(Cmesh, LatencyGrowsWithHops)
{
    CmeshNetwork near_net, far_net;
    near_net.inject(meshPacket(5, 6));   // 1 hop
    far_net.inject(meshPacket(0, 15));   // 6 hops
    stepN(near_net, 60);
    stepN(far_net, 60);
    ASSERT_EQ(near_net.delivered().size(), 1u);
    ASSERT_EQ(far_net.delivered().size(), 1u);
    EXPECT_LT(near_net.delivered()[0].latency(),
              far_net.delivered()[0].latency());
}

TEST(Cmesh, InjectionQueueBackpressure)
{
    CmeshConfig cfg;
    cfg.injectionQueueDepth = 4;
    CmeshNetwork net(cfg);
    int accepted = 0;
    while (net.inject(meshPacket(0, 15)) && accepted < 100)
        ++accepted;
    EXPECT_EQ(accepted, 4);
    EXPECT_FALSE(net.canInject(meshPacket(0, 15)));
}

TEST(Cmesh, RandomTrafficDrains)
{
    // Deadlock-freedom smoke test: a burst of mixed request/response
    // traffic between random endpoints must fully drain.
    CmeshNetwork net;
    Rng rng(17);
    int injected = 0;
    for (int i = 0; i < 400; ++i) {
        const int src = static_cast<int>(rng.below(17));
        int dst = static_cast<int>(rng.below(17));
        if (dst == src)
            dst = (dst + 1) % 17;
        const bool resp = rng.chance(0.5);
        Packet p = meshPacket(src, dst,
                              resp ? CoherenceOp::Data : CoherenceOp::Read,
                              resp ? sim::kResponseBits
                                   : sim::kRequestBits);
        if (net.inject(p))
            ++injected;
        net.step();
        // Flit conservation: every flit the fabric counts sits in an
        // input FIFO or a link register.
        ASSERT_EQ(net.flitsInFlight(), net.countBufferedFlits());
    }
    for (int i = 0; i < 3000 && !net.idle(); ++i)
        net.step();
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(net.stats().deliveredPackets(),
              static_cast<std::uint64_t>(injected));
}

TEST(Cmesh, RequestsAndResponsesUseSeparateVcClasses)
{
    // Saturate the request VCs between two endpoints; a response must
    // still get through (protocol-deadlock freedom by VC classes).
    CmeshNetwork net;
    for (int i = 0; i < 8; ++i)
        net.inject(meshPacket(0, 15));
    net.inject(meshPacket(0, 15, CoherenceOp::Data, sim::kResponseBits));
    stepN(net, 200);
    EXPECT_EQ(net.stats().deliveredPackets(), 9u);
}

TEST(Cmesh, ThroughputBoundedByLinkWidth)
{
    // A single source cannot push more than ~1 flit per cycle onto its
    // first mesh link.
    CmeshNetwork net;
    int injected = 0;
    for (int i = 0; i < 400; ++i) {
        if (net.inject(meshPacket(0, 15, CoherenceOp::Data,
                                  sim::kResponseBits)))
            ++injected;
        net.step();
    }
    const double flits_per_cycle =
        static_cast<double>(net.stats().deliveredFlits()) / 400.0;
    EXPECT_LE(flits_per_cycle, 1.05);
}

TEST(Cmesh, EnergyAccounting)
{
    CmeshNetwork net;
    const double dt = 0.5e-9;
    stepN(net, 100);
    EXPECT_GT(net.staticEnergyJ(dt), 0.0);
    const double before = net.dynamicEnergyJ();
    net.inject(meshPacket(0, 15, CoherenceOp::Data, sim::kResponseBits));
    stepN(net, 80);
    EXPECT_GT(net.dynamicEnergyJ(), before);
    // More hops cost more dynamic energy than fewer.
    CmeshNetwork near_net;
    near_net.inject(meshPacket(5, 6, CoherenceOp::Data,
                               sim::kResponseBits));
    stepN(near_net, 80);
    EXPECT_GT(net.dynamicEnergyJ(), near_net.dynamicEnergyJ());
}

TEST(Cmesh, SlowLinksStretchDelivery)
{
    CmeshConfig slow;
    slow.linkCyclesPerFlit = 4; // bandwidth-reduced CMESH (Figure 5)
    CmeshNetwork fast_net, slow_net(slow);
    fast_net.inject(meshPacket(0, 15, CoherenceOp::Data,
                               sim::kResponseBits));
    slow_net.inject(meshPacket(0, 15, CoherenceOp::Data,
                               sim::kResponseBits));
    stepN(fast_net, 300);
    stepN(slow_net, 300);
    ASSERT_EQ(fast_net.delivered().size(), 1u);
    ASSERT_EQ(slow_net.delivered().size(), 1u);
    EXPECT_GT(slow_net.delivered()[0].latency(),
              fast_net.delivered()[0].latency());
}

TEST(Cmesh, StatsCountInjectionsAndDeliveries)
{
    CmeshNetwork net;
    net.inject(meshPacket(2, 9));
    EXPECT_EQ(net.stats().injectedPackets(), 1u);
    stepN(net, 60);
    EXPECT_EQ(net.stats().deliveredPackets(), 1u);
    EXPECT_GT(net.stats().avgLatency(), 0.0);
}

} // namespace
} // namespace electrical
} // namespace pearl
