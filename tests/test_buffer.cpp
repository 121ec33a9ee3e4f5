/**
 * @file
 * Tests for the flit-slot-accounted buffers feeding the DBA occupancy
 * computation (Equations 1-3).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "sim/buffer.hpp"
#include "sim/ring_queue.hpp"

namespace pearl {
namespace sim {
namespace {

Packet
makePacket(int size_bits, MsgClass cls = MsgClass::ReqCpuL1D)
{
    Packet p;
    p.sizeBits = size_bits;
    p.msgClass = cls;
    return p;
}

TEST(FlitBuffer, StartsEmpty)
{
    FlitBuffer buf(16);
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.occupiedSlots(), 0);
    EXPECT_EQ(buf.freeSlots(), 16);
    EXPECT_DOUBLE_EQ(buf.occupancy(), 0.0);
}

TEST(FlitBuffer, PushAccountsFlits)
{
    FlitBuffer buf(16);
    ASSERT_TRUE(buf.push(makePacket(kResponseBits))); // 5 flits
    EXPECT_EQ(buf.occupiedSlots(), 5);
    EXPECT_DOUBLE_EQ(buf.occupancy(), 5.0 / 16.0);
    ASSERT_TRUE(buf.push(makePacket(kRequestBits))); // 1 flit
    EXPECT_EQ(buf.occupiedSlots(), 6);
    EXPECT_EQ(buf.packetCount(), 2u);
}

TEST(FlitBuffer, RejectsWhenFull)
{
    FlitBuffer buf(6);
    ASSERT_TRUE(buf.push(makePacket(kResponseBits))); // 5
    EXPECT_FALSE(buf.canAccept(5));
    EXPECT_FALSE(buf.push(makePacket(kResponseBits)));
    EXPECT_EQ(buf.occupiedSlots(), 5); // unchanged on failure
    EXPECT_TRUE(buf.push(makePacket(kRequestBits))); // exactly fits
    EXPECT_EQ(buf.freeSlots(), 0);
}

TEST(FlitBuffer, FifoOrder)
{
    FlitBuffer buf(16);
    Packet a = makePacket(kRequestBits);
    a.id = 1;
    Packet b = makePacket(kRequestBits);
    b.id = 2;
    buf.push(a);
    buf.push(b);
    EXPECT_EQ(buf.pop().id, 1u);
    EXPECT_EQ(buf.pop().id, 2u);
    EXPECT_TRUE(buf.empty());
}

TEST(FlitBuffer, PopReleasesSlots)
{
    FlitBuffer buf(8);
    buf.push(makePacket(kResponseBits));
    buf.push(makePacket(kRequestBits));
    buf.pop();
    EXPECT_EQ(buf.occupiedSlots(), 1);
    EXPECT_EQ(buf.freeSlots(), 7);
}

TEST(FlitBuffer, ClearEmpties)
{
    FlitBuffer buf(8);
    buf.push(makePacket(kResponseBits));
    buf.clear();
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.occupiedSlots(), 0);
}

TEST(FlitBuffer, FullOccupancyIsOne)
{
    FlitBuffer buf(5);
    buf.push(makePacket(kResponseBits));
    EXPECT_DOUBLE_EQ(buf.occupancy(), 1.0);
}

TEST(DualClassBuffer, ClassesAreIndependent)
{
    DualClassBuffer dual(8, 8);
    Packet cpu = makePacket(kResponseBits, MsgClass::ReqCpuL2Down);
    Packet gpu = makePacket(kRequestBits, MsgClass::ReqGpuL2Down);
    ASSERT_TRUE(dual.of(CoreType::CPU).push(cpu));
    ASSERT_TRUE(dual.of(CoreType::GPU).push(gpu));
    EXPECT_DOUBLE_EQ(dual.occupancy(CoreType::CPU), 5.0 / 8.0);
    EXPECT_DOUBLE_EQ(dual.occupancy(CoreType::GPU), 1.0 / 8.0);
}

TEST(DualClassBuffer, TotalOccupancyIsSum)
{
    // Buf_omega = beta_CPU + beta_GPU (Eq. 3): ranges to 2.0.
    DualClassBuffer dual(5, 5);
    dual.of(CoreType::CPU).push(makePacket(kResponseBits));
    dual.of(CoreType::GPU).push(makePacket(kResponseBits));
    EXPECT_DOUBLE_EQ(dual.totalOccupancy(), 2.0);
}

TEST(DualClassBuffer, GpuCannotBlockCpu)
{
    // The paper's requirement: GPU traffic never occupies CPU slots.
    DualClassBuffer dual(8, 5);
    dual.of(CoreType::GPU).push(makePacket(kResponseBits));
    EXPECT_FALSE(dual.of(CoreType::GPU).canAccept(5));
    EXPECT_TRUE(dual.of(CoreType::CPU).canAccept(5));
}

TEST(DualClassBuffer, EmptyAndClear)
{
    DualClassBuffer dual(4, 4);
    EXPECT_TRUE(dual.empty());
    dual.of(CoreType::CPU).push(makePacket(kRequestBits));
    EXPECT_FALSE(dual.empty());
    dual.clear();
    EXPECT_TRUE(dual.empty());
}

// RingQueue is the allocation-free FIFO under FlitBuffer and the MWSR
// VOQs; these tests pin the edge cases the hot loops rely on.

TEST(RingQueue, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(RingQueue<int>(1).capacity(), 1u);
    EXPECT_EQ(RingQueue<int>(2).capacity(), 2u);
    EXPECT_EQ(RingQueue<int>(3).capacity(), 4u);
    EXPECT_EQ(RingQueue<int>(5).capacity(), 8u);
    EXPECT_EQ(RingQueue<int>(64).capacity(), 64u);
}

TEST(RingQueue, CapacityOneWrapsCleanly)
{
    RingQueue<int> q(1);
    EXPECT_EQ(q.capacity(), 1u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(q.empty());
        q.push_back(i);
        EXPECT_TRUE(q.full());
        EXPECT_EQ(q.front(), i);
        EXPECT_EQ(q.back(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(RingQueue, FifoOrderSurvivesManyWraps)
{
    // A steady push/pop at partial fill walks head_ around the ring many
    // times; order and the head/tail views must never skew.
    RingQueue<int> q(4);
    int next_in = 0;
    int next_out = 0;
    for (int round = 0; round < 100; ++round) {
        while (q.size() < 3)
            q.push_back(next_in++);
        EXPECT_EQ(q.front(), next_out);
        EXPECT_EQ(q.back(), next_in - 1);
        q.pop_front();
        ++next_out;
    }
    while (!q.empty()) {
        EXPECT_EQ(q.front(), next_out++);
        q.pop_front();
    }
    EXPECT_EQ(next_out, next_in);
}

TEST(RingQueue, ClearMidWrapThenRefillToCapacity)
{
    RingQueue<int> q(4);
    for (int i = 0; i < 3; ++i)
        q.push_back(i);
    q.pop_front();
    q.pop_front(); // head_ is now mid-ring
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    for (int i = 0; i < 4; ++i)
        q.push_back(10 + i);
    EXPECT_TRUE(q.full());
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(q.front(), 10 + i);
        q.pop_front();
    }
}

TEST(RingQueue, MatchesDequeUnderRandomTraffic)
{
    // Differential test against std::deque (the container RingQueue
    // replaced): any divergence in size, order or head/tail views is a
    // bug in the ring arithmetic.
    RingQueue<int> ring(8);
    std::deque<int> ref;
    std::uint64_t lcg = 12345;
    int next = 0;
    for (int step = 0; step < 2000; ++step) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const bool push = (lcg >> 33) % 2 == 0;
        if (push && ring.size() < ring.capacity()) {
            ring.push_back(next);
            ref.push_back(next);
            ++next;
        } else if (!ref.empty()) {
            EXPECT_EQ(ring.front(), ref.front());
            ring.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(ring.size(), ref.size());
        ASSERT_EQ(ring.empty(), ref.empty());
        if (!ref.empty()) {
            ASSERT_EQ(ring.front(), ref.front());
            ASSERT_EQ(ring.back(), ref.back());
        }
    }
}

TEST(RingQueue, GrowKeepsOrderAcrossTheWrap)
{
    // Growing a wrapped ring must unroll it: the parked-arrival FIFOs
    // grow while their head sits mid-ring.
    RingQueue<int> q(4);
    for (int i = 0; i < 4; ++i)
        q.push_back(i);
    q.pop_front();
    q.pop_front();
    q.push_back(4);
    q.push_back(5); // full, head_ at slot 2
    ASSERT_TRUE(q.full());
    q.grow();
    EXPECT_EQ(q.capacity(), 8u);
    EXPECT_EQ(q.size(), 4u);
    for (int i = 6; i < 10; ++i)
        q.push_back(i);
    EXPECT_TRUE(q.full());
    for (int i = 2; i < 10; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(FlitBuffer, OccupancyMatchesDequeModelUnderRandomTraffic)
{
    // Differential model: the flit accounting must equal the sum of
    // queued packets' flits no matter how pushes, pops and rejections
    // interleave.
    FlitBuffer buf(32);
    std::deque<Packet> ref;
    int ref_occupied = 0;
    std::uint64_t lcg = 99;
    for (int step = 0; step < 2000; ++step) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint32_t r = static_cast<std::uint32_t>(lcg >> 33);
        if (r % 2 == 0) {
            // 64..640 bits: 1..5 flits at the 128-bit flit size.
            const Packet pkt =
                makePacket(64 + static_cast<int>(r % 5) * 128);
            const bool fits = pkt.numFlits() <= buf.freeSlots();
            EXPECT_EQ(buf.push(pkt), fits);
            if (fits) {
                ref.push_back(pkt);
                ref_occupied += pkt.numFlits();
            }
        } else if (!ref.empty()) {
            const Packet popped = buf.pop();
            EXPECT_EQ(popped.sizeBits, ref.front().sizeBits);
            ref_occupied -= ref.front().numFlits();
            ref.pop_front();
        }
        ASSERT_EQ(buf.packetCount(), ref.size());
        ASSERT_EQ(buf.occupiedSlots(), ref_occupied);
    }
}

TEST(FlitBuffer, ClearBetweenPhasesRestoresFullCapacity)
{
    FlitBuffer buf(8);
    ASSERT_TRUE(buf.push(makePacket(128 * 3)));
    ASSERT_TRUE(buf.push(makePacket(128 * 2)));
    buf.pop(); // head is mid-ring when the phase boundary clears
    buf.clear();
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.occupiedSlots(), 0);
    EXPECT_EQ(buf.freeSlots(), 8);
    // The freed slots must all be usable again.
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(buf.push(makePacket(128)));
    EXPECT_FALSE(buf.push(makePacket(128)));
    EXPECT_DOUBLE_EQ(buf.occupancy(), 1.0);
}

} // namespace
} // namespace sim
} // namespace pearl
