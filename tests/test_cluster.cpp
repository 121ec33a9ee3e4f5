/**
 * @file
 * Behavioural tests of the cluster node: L1 filtering, write-through
 * stores, MSHR merging, upgrades, probes, telemetry and the parking of
 * MSHR-full retries.
 */

#include <gtest/gtest.h>

#include "cache/cluster.hpp"
#include "fakes.hpp"
#include "traffic/suite.hpp"

namespace pearl {
namespace cache {
namespace {

using sim::CoherenceOp;
using sim::CoreType;
using sim::Cycle;
using sim::MsgClass;
using sim::NodeUnit;
using sim::Packet;
using test::CapturingSink;

/** A profile that never issues accesses on its own (we drive manually
 *  through deterministic single-access profiles instead). */
traffic::BenchmarkProfile
silentProfile(sim::CoreType type)
{
    traffic::BenchmarkProfile p;
    p.name = "silent";
    p.abbrev = "sil";
    p.coreType = type;
    p.accessRateOn = 0.0;
    p.accessRateOff = 0.0;
    p.instrFraction = 0.0;
    p.writeFraction = 0.0;
    p.sharedFraction = 0.0;
    return p;
}

/** A profile that issues a data access every cycle. */
traffic::BenchmarkProfile
firehoseProfile(sim::CoreType type, double write_fraction = 0.0,
                std::uint64_t ws = 1024)
{
    traffic::BenchmarkProfile p = silentProfile(type);
    p.name = "firehose";
    p.abbrev = "fh";
    p.accessRateOn = 1.0;
    p.accessRateOff = 1.0;
    p.writeFraction = write_fraction;
    p.workingSetLines = ws;
    p.streamFraction = 1.0;
    return p;
}

class ClusterTest : public ::testing::Test
{
  protected:
    ClusterTest()
    {
        cfg_.l1ToL2Cycles = 1;
        cfg_.l2AccessCycles = 1;
    }

    void
    makeCluster(const traffic::BenchmarkProfile &cpu,
                const traffic::BenchmarkProfile &gpu)
    {
        HomeMap map;
        cluster_ = std::make_unique<ClusterNode>(2, map, cfg_, cpu, gpu,
                                                 Rng(77));
        cluster_->attach(&sink_, &telemetry_);
    }

    /** Tick n cycles, recounting the parking state after each. */
    void
    runCycles(int n)
    {
        for (int i = 0; i < n; ++i, ++now_) {
            cluster_->tick(now_);
            const auto violation = cluster_->auditParking();
            ASSERT_FALSE(violation.has_value()) << *violation;
        }
    }

    /** Tick up to and including cycle `last`. */
    void runThrough(Cycle last) { runCycles(static_cast<int>(last + 1 - now_)); }

    /** Deliver the fill for one line at the last ticked cycle, as the
     *  system does after the cluster ticks. */
    void
    deliverFill(std::uint64_t addr, CoreType type)
    {
        Packet fill;
        fill.op = CoherenceOp::DataExcl;
        fill.msgClass = type == CoreType::CPU ? MsgClass::RespCpuL2Down
                                              : MsgClass::RespGpuL2Down;
        fill.dstUnit = NodeUnit::Cluster;
        fill.src = 0;
        fill.dst = 2;
        fill.addr = addr;
        fill.sizeBits = sim::kResponseBits;
        cluster_->deliver(fill, now_ - 1);
    }

    /** Network reads (Read or ReadExcl) sent for one line. */
    std::vector<Packet>
    readsFor(std::uint64_t addr) const
    {
        std::vector<Packet> out;
        for (const Packet &p : sink_.packets) {
            if (p.addr == addr && (p.op == CoherenceOp::Read ||
                                   p.op == CoherenceOp::ReadExcl))
                out.push_back(p);
        }
        return out;
    }

    /** First streamed line of CPU core `core` / GPU CU `cu` (cluster 2). */
    static std::uint64_t
    cpuLine0(int core)
    {
        return traffic::AddressSpace::privateBase(2 * 64 + core);
    }
    static std::uint64_t
    gpuLine0(int cu)
    {
        return traffic::AddressSpace::privateBase(2 * 64 + 32 + cu);
    }

    /** Respond to every outstanding network read with a fill. */
    void
    answerReads(CoherenceOp grant = CoherenceOp::DataExcl)
    {
        auto reads = sink_.packets;
        sink_.clear();
        for (const auto &req : reads) {
            if (req.op != CoherenceOp::Read &&
                req.op != CoherenceOp::ReadExcl) {
                sink_.packets.push_back(req); // keep non-reads
                continue;
            }
            Packet fill;
            // Coherent store misses (ReadExcl) must always be granted
            // exclusively; `grant` only selects the grant for plain reads.
            fill.op = req.op == CoherenceOp::ReadExcl
                          ? CoherenceOp::DataExcl
                          : grant;
            fill.msgClass = sim::coreTypeOf(req.msgClass) == CoreType::CPU
                                ? MsgClass::RespCpuL2Down
                                : MsgClass::RespGpuL2Down;
            fill.dstUnit = NodeUnit::Cluster;
            fill.src = req.dst;
            fill.dst = 2;
            fill.addr = req.addr;
            fill.sizeBits = sim::kResponseBits;
            cluster_->deliver(fill, now_);
        }
    }

    HierarchyConfig cfg_;
    CapturingSink sink_;
    sim::RouterTelemetry telemetry_;
    std::unique_ptr<ClusterNode> cluster_;
    Cycle now_ = 0;
};

TEST_F(ClusterTest, FirstTouchMissesGoToHomeBank)
{
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    runCycles(10);
    const auto reads = sink_.withOp(CoherenceOp::Read);
    ASSERT_GT(reads.size(), 0u);
    HomeMap map;
    for (const auto &r : reads) {
        EXPECT_EQ(r.dst, map.homeOf(r.addr));
        EXPECT_EQ(r.dstUnit, NodeUnit::L3Bank);
        EXPECT_EQ(r.msgClass, MsgClass::ReqCpuL2Down);
        EXPECT_EQ(r.sizeBits, sim::kRequestBits);
    }
}

TEST_F(ClusterTest, StreamingIsL1Filtered)
{
    // Eight word accesses per line: once the fill lands, the remaining
    // accesses to the line hit the L1.
    auto prof = firehoseProfile(CoreType::CPU);
    prof.accessRateOn = prof.accessRateOff = 0.2;
    makeCluster(prof, silentProfile(CoreType::GPU));
    for (int i = 0; i < 600; ++i) {
        runCycles(1);
        answerReads();
    }
    const auto &s = cluster_->stats();
    EXPECT_GT(s.l1Hits[0], s.l1Misses[0]);
}

TEST_F(ClusterTest, SecondaryMissesMergeInMshr)
{
    // All accesses stream through the same lines; with no responses the
    // requests pile onto existing MSHR entries instead of the network.
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    runCycles(30);
    const auto reads = sink_.withOp(CoherenceOp::Read);
    // Far fewer network reads than accesses: one per distinct line.
    EXPECT_LE(reads.size(), 10u);
    EXPECT_GT(cluster_->mshrOccupancy(CoreType::CPU), 0u);
}

TEST_F(ClusterTest, CpuStoreMissesUseReadExclusive)
{
    // Coherent CPU store misses must request ownership, not a plain read.
    makeCluster(firehoseProfile(CoreType::CPU, /*write=*/1.0),
                silentProfile(CoreType::GPU));
    runCycles(5);
    EXPECT_GT(sink_.countOp(CoherenceOp::ReadExcl), 0u);
    EXPECT_EQ(sink_.countOp(CoherenceOp::Read), 0u);
}

TEST_F(ClusterTest, MixedLoadStoreWaiters)
{
    // Loads and stores to the same streamed lines: loads create the MSHR
    // entry (op Read), stores join as waiters; a shared grant then forces
    // an upgrade ReadExcl for the stores.
    makeCluster(firehoseProfile(CoreType::CPU, /*write=*/0.5),
                silentProfile(CoreType::GPU));
    runCycles(20);
    answerReads(CoherenceOp::Data); // shared grants
    runCycles(5);
    EXPECT_GT(sink_.countOp(CoherenceOp::ReadExcl), 0u);
}

TEST_F(ClusterTest, GpuPrivateStoresAreNonCoherent)
{
    // GPU stores to private data use plain reads (N-state fill), not RFO.
    makeCluster(silentProfile(CoreType::CPU),
                firehoseProfile(CoreType::GPU, /*write=*/1.0));
    runCycles(10);
    EXPECT_GT(sink_.countOp(CoherenceOp::Read), 0u);
    EXPECT_EQ(sink_.countOp(CoherenceOp::ReadExcl), 0u);
}

TEST_F(ClusterTest, ProbeInvalidateAcksAndInvalidates)
{
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    runCycles(4);
    answerReads();
    runCycles(4);
    sink_.clear();

    // Probe an address the cluster now holds.
    Packet probe;
    probe.op = CoherenceOp::ProbeInv;
    probe.msgClass = MsgClass::ReqCpuL2Down;
    probe.src = 9; // bank node
    probe.dst = 2;
    probe.addr = traffic::AddressSpace::privateBase(2 * 64) + 0;
    cluster_->deliver(probe, now_);

    ASSERT_EQ(sink_.packets.size(), 1u);
    const Packet &reply = sink_.packets[0];
    EXPECT_EQ(reply.dst, 9); // back to the probing bank
    EXPECT_EQ(reply.dstUnit, NodeUnit::L3Bank);
    EXPECT_TRUE(reply.op == CoherenceOp::Ack ||
                reply.op == CoherenceOp::Data);
    EXPECT_EQ(cluster_->stats().probesReceived, 1u);

    // A second probe for a line we never had: plain Ack.
    sink_.clear();
    probe.addr = 0xDEAD0000;
    cluster_->deliver(probe, now_);
    ASSERT_EQ(sink_.packets.size(), 1u);
    EXPECT_EQ(sink_.packets[0].op, CoherenceOp::Ack);
}

TEST_F(ClusterTest, OutstandingLimitStallsCore)
{
    cfg_.cpuCoreMaxOutstanding = 2;
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    runCycles(50); // no responses -> outstanding saturates
    const auto &s = cluster_->stats();
    EXPECT_GT(s.stalled[0], 0u);
}

TEST_F(ClusterTest, TelemetryCountsLocalTraffic)
{
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    runCycles(10);
    // L1 miss requests were recorded as local core traffic.
    EXPECT_GT(telemetry_.incomingFromCores, 0u);
    EXPECT_GT(telemetry_.classCounts[static_cast<int>(
                  MsgClass::ReqCpuL1D)], 0u);
}

TEST_F(ClusterTest, FillDeliversToL1AndReleasesOutstanding)
{
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    runCycles(4);
    answerReads();
    runCycles(4);
    EXPECT_GT(telemetry_.packetsToCore, 0u); // L2->L1 fills happened
    EXPECT_EQ(cluster_->mshrOccupancy(CoreType::CPU), 0u);
}

TEST_F(ClusterTest, WritebacksOnCapacityEviction)
{
    // Tiny L2 so dirty lines get evicted quickly.
    cfg_.cpuL2Lines = 32;
    cfg_.l2Ways = 2;
    cfg_.cpuL2MshrEntries = 8;
    makeCluster(firehoseProfile(CoreType::CPU, /*write=*/1.0, 512),
                silentProfile(CoreType::GPU));
    for (int i = 0; i < 300; ++i) {
        runCycles(1);
        answerReads(CoherenceOp::DataExcl);
    }
    EXPECT_GT(sink_.countOp(CoherenceOp::Writeback), 0u);
    EXPECT_GT(cluster_->stats().writebacks[0], 0u);
}

TEST_F(ClusterTest, QuiescentWhenIdle)
{
    makeCluster(silentProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    runCycles(10);
    EXPECT_TRUE(cluster_->quiescent());
    EXPECT_EQ(sink_.packets.size(), 0u);
}

// MSHR-full retries -------------------------------------------------------
//
// The parking tests drive firehose cores (one load per cycle, eight per
// line) with one outstanding access per core, so each core issues its
// first load at cycle 0 and nothing more until that load completes.
// Loads that meet a full MSHR park in the phase slot of their cycle,
// modulo 2 * l2AccessCycles, and are looked at again only there.

TEST_F(ClusterTest, ParkedMissLeavesAtFirstPhaseSlotAfterTheFill)
{
    // Core 0's load takes the only MSHR entry at cycle 2; core 1's load
    // parks in slot 2 (period 8).  Whenever the fill arrives, core 1's
    // request leaves at the first cycle after it that is 2 mod 8 —
    // including when core 0's next miss is due that same cycle (fills
    // at 3 and 11), since parked retries run first.
    for (const Cycle fill_at : {3, 6, 9, 11, 14, 17}) {
        SCOPED_TRACE("fill at cycle " + std::to_string(fill_at));
        cfg_.l1ToL2Cycles = 2;
        cfg_.l2AccessCycles = 4;
        cfg_.cpuL2MshrEntries = 1;
        cfg_.cpuCoreMaxOutstanding = 1;
        sink_.clear();
        now_ = 0;
        makeCluster(firehoseProfile(CoreType::CPU),
                    silentProfile(CoreType::GPU));

        runThrough(2);
        ASSERT_EQ(readsFor(cpuLine0(0)).size(), 1u);
        EXPECT_EQ(cluster_->parkedRetries(), 1u);

        runThrough(fill_at);
        EXPECT_TRUE(readsFor(cpuLine0(1)).empty());
        deliverFill(cpuLine0(0), CoreType::CPU);
        const Cycle slot = fill_at < 10 ? 10 : 18;
        runThrough(slot + 1);

        const auto reads = readsFor(cpuLine0(1));
        ASSERT_EQ(reads.size(), 1u);
        EXPECT_EQ(reads[0].cycleCreated, slot);
        EXPECT_EQ(cluster_->peakParkedRetries(), 1u);
    }
}

TEST_F(ClusterTest, SecondParkedRetryToALineAttaches)
{
    // Two loads from core 1 to one line park in slots 2 and 3.  After
    // the fill frees the MSHR, the first inserts the line at cycle 10;
    // the second finds it in the full MSHR at cycle 11 and attaches
    // instead of sending a second request.
    cfg_.l1ToL2Cycles = 2;
    cfg_.l2AccessCycles = 4;
    cfg_.cpuL2MshrEntries = 1;
    cfg_.cpuCoreMaxOutstanding = 2;
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));

    runThrough(3);
    EXPECT_EQ(cluster_->parkedRetries(), 2u);
    runThrough(4);
    deliverFill(cpuLine0(0), CoreType::CPU);
    runThrough(11);

    const auto reads = readsFor(cpuLine0(1));
    ASSERT_EQ(reads.size(), 1u);
    EXPECT_EQ(reads[0].cycleCreated, 10u);
    EXPECT_EQ(cluster_->mshrOccupancy(CoreType::CPU), 1u);
    // One insert and one attach per line: both of core 1's loads count
    // as L2 misses, the parking itself as none.
    EXPECT_EQ(cluster_->stats().l2Misses[0], 4u);

    // The line's fill completes both loads.
    const std::uint64_t to_core = telemetry_.packetsToCore;
    deliverFill(cpuLine0(1), CoreType::CPU);
    runCycles(5);
    EXPECT_EQ(telemetry_.packetsToCore - to_core, 2u);
}

TEST_F(ClusterTest, ParkedRetryWhoseLineFilledMeanwhileHitsInL2)
{
    // As above, but the line's fill lands between the two wakes (after
    // cycle 10): the erase makes the second retry unattachable again,
    // and at cycle 11 it finds room and hits the freshly filled L2.
    cfg_.l1ToL2Cycles = 2;
    cfg_.l2AccessCycles = 4;
    cfg_.cpuL2MshrEntries = 1;
    cfg_.cpuCoreMaxOutstanding = 2;
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));

    runThrough(4);
    deliverFill(cpuLine0(0), CoreType::CPU);
    runThrough(10);
    EXPECT_EQ(cluster_->parkedRetries(), 1u);
    deliverFill(cpuLine0(1), CoreType::CPU);
    runThrough(11);

    EXPECT_EQ(readsFor(cpuLine0(1)).size(), 1u);
    EXPECT_EQ(cluster_->stats().l2Hits[0], 1u);
    // Core 0's line twice, core 1's once, core 0's next line (due 11).
    EXPECT_EQ(cluster_->stats().l2Misses[0], 4u);
}

TEST_F(ClusterTest, ParkedRetriesRunBeforeFreshEventsDueTheSameCycle)
{
    // l1ToL2Cycles = 9 is not a multiple of the parking period (8), so
    // fresh L2 accesses land on any phase.  CU 0 holds the one GPU MSHR
    // entry from cycle 9; CUs 1-3 park in slot 1.  CU 0's next miss
    // (issued at 16 after its fill at 11) is due at 25, the cycle the
    // parked CU 2 is next looked at with room: CU 2 goes first and CU
    // 0's access parks.
    cfg_.l1ToL2Cycles = 9;
    cfg_.l2AccessCycles = 4;
    cfg_.gpuL2MshrEntries = 1;
    cfg_.gpuCoreMaxOutstanding = 1;
    makeCluster(silentProfile(CoreType::CPU), firehoseProfile(CoreType::GPU));

    runThrough(11);
    EXPECT_EQ(cluster_->parkedRetries(), 3u);
    deliverFill(gpuLine0(0), CoreType::GPU);
    runThrough(20);
    ASSERT_EQ(readsFor(gpuLine0(1)).size(), 1u);
    EXPECT_EQ(readsFor(gpuLine0(1))[0].cycleCreated, 17u);
    deliverFill(gpuLine0(1), CoreType::GPU);
    runThrough(25);

    const auto reads = readsFor(gpuLine0(2));
    ASSERT_EQ(reads.size(), 1u);
    EXPECT_EQ(reads[0].cycleCreated, 25u);
    EXPECT_EQ(sink_.countOp(CoherenceOp::Read), 3u); // CU 0's new miss waits
    EXPECT_EQ(cluster_->parkedRetries(), 2u);        // CU 3 and CU 0
}

TEST_F(ClusterTest, NotQuiescentWhileARetryIsParked)
{
    // After core 0's fill completes (cycle 8) the MSHR and the event heap
    // are empty, but core 1's load is still parked until cycle 10.
    cfg_.l1ToL2Cycles = 2;
    cfg_.l2AccessCycles = 4;
    cfg_.cpuL2MshrEntries = 1;
    cfg_.cpuCoreMaxOutstanding = 1;
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));

    runThrough(4);
    deliverFill(cpuLine0(0), CoreType::CPU);
    runThrough(8);
    EXPECT_EQ(cluster_->mshrOccupancy(CoreType::CPU), 0u);
    EXPECT_EQ(cluster_->parkedRetries(), 1u);
    EXPECT_FALSE(cluster_->quiescent());
}

} // namespace
} // namespace cache
} // namespace pearl
