/**
 * @file
 * The cluster node: 2 CPU cores + 4 GPU compute units, their private L1s,
 * the per-type shared L2s, MSHRs and the local router-side traffic.
 *
 * A cluster is the unit the PEARL checkerboard attaches to one router
 * (Figure 1b).  Core demand comes from traffic::CoreDemandGenerator;
 * memory accesses flow L1 -> L2 -> (network) -> L3.  Local L1<->L2 packets
 * cross only the router crossbar and are recorded in the router telemetry
 * (they are features of the ML model) without occupying the optical link.
 */

#ifndef PEARL_CACHE_CLUSTER_HPP
#define PEARL_CACHE_CLUSTER_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/addr_map.hpp"
#include "cache/cache_array.hpp"
#include "cache/config.hpp"
#include "cache/home_map.hpp"
#include "cache/nmoesi.hpp"
#include "common/rng.hpp"
#include "sim/min_heap.hpp"
#include "sim/packet.hpp"
#include "sim/sink.hpp"
#include "sim/telemetry.hpp"
#include "traffic/generator.hpp"

namespace pearl {
namespace cache {

/** Aggregate hit/miss statistics for one cluster. */
struct ClusterStats
{
    std::uint64_t accesses[sim::kNumCoreTypes] = {};
    std::uint64_t stalled[sim::kNumCoreTypes] = {};
    std::uint64_t l1Hits[sim::kNumCoreTypes] = {};
    std::uint64_t l1Misses[sim::kNumCoreTypes] = {};
    std::uint64_t l2Hits[sim::kNumCoreTypes] = {};
    std::uint64_t l2Misses[sim::kNumCoreTypes] = {};
    std::uint64_t writebacks[sim::kNumCoreTypes] = {};
    std::uint64_t probesReceived = 0;

    double
    l1MissRate(sim::CoreType t) const
    {
        const auto i = static_cast<int>(t);
        const auto total = l1Hits[i] + l1Misses[i];
        return total ? static_cast<double>(l1Misses[i]) /
                           static_cast<double>(total)
                     : 0.0;
    }

    double
    l2MissRate(sim::CoreType t) const
    {
        const auto i = static_cast<int>(t);
        const auto total = l2Hits[i] + l2Misses[i];
        return total ? static_cast<double>(l2Misses[i]) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** One CPU+GPU cluster with its cache hierarchy. */
class ClusterNode
{
  public:
    /**
     * @param id       cluster id == network node id of its router.
     * @param home     address-to-L3-bank mapping.
     * @param cfg      hierarchy configuration.
     * @param cpu_prof benchmark profile for the CPU cores.
     * @param gpu_prof benchmark profile for the GPU compute units.
     * @param rng      forked stream owned by this cluster.
     * @param cpu_phase / gpu_phase optional chip-wide program phases.
     */
    ClusterNode(int id, const HomeMap &home, const HierarchyConfig &cfg,
                const traffic::BenchmarkProfile &cpu_prof,
                const traffic::BenchmarkProfile &gpu_prof, Rng rng,
                const traffic::GlobalPhase *cpu_phase = nullptr,
                const traffic::GlobalPhase *gpu_phase = nullptr);

    /** Wire the packet sink (network) and telemetry before running. */
    void
    attach(sim::PacketSink *sink, sim::RouterTelemetry *telemetry)
    {
        sink_ = sink;
        telemetry_ = telemetry;
    }

    /** Advance one network cycle: demand generation, parked MSHR-full
     *  retries whose phase is due, then due local events.  Call once per
     *  cycle while retries are parked: they wake by the cycle's phase. */
    void tick(sim::Cycle now);

    /** Handle a packet the network delivered to this cluster's router. */
    void deliver(const sim::Packet &pkt, sim::Cycle now);

    int id() const { return id_; }
    const ClusterStats &stats() const { return stats_; }

    /** Outstanding MSHR entries for one core type (tests). */
    std::size_t
    mshrOccupancy(sim::CoreType t) const
    {
        return mshr_[static_cast<int>(t)].size();
    }

    /** MSHR-full retries parked now, and the most parked at once. */
    std::size_t parkedRetries() const { return parkedCount_; }
    std::size_t peakParkedRetries() const { return peakParked_; }

    /** True when no local event, parked retry or outstanding miss is
     *  pending. */
    bool
    quiescent() const
    {
        return events_.empty() && parkedCount_ == 0 && mshr_[0].empty() &&
               mshr_[1].empty();
    }

    /**
     * Verification plane: recount the parking state.  @return a
     * description of the first mismatch between the counters
     * (parkedRetries(), the per-line park counts, the attachable
     * counts) and the parked retries themselves, or nullopt.
     */
    std::optional<std::string> auditParking() const;

  private:
    struct L2Meta
    {
        std::uint8_t l1Mask = 0; //!< which local L1s hold this line
    };

    using L1Array = CacheArray<NoMeta>;
    using L2Array = CacheArray<L2Meta>;

    /** A core request waiting on an outstanding miss. */
    struct Waiter
    {
        int l1Index;    //!< local L1 slot (see l1ArrayFor)
        int coreSlot;   //!< per-type core index for outstanding accounting
        bool write;
        bool instr;
    };

    /** One outstanding L2 miss. */
    struct MshrEntry
    {
        bool write = false;
        bool nonCoherent = false;
        std::vector<Waiter> waiters;
    };

    /** Deferred local work (L1->L2 hop, L2 array access, fills), also
     *  the record of a parked MSHR-full retry (due unused).  The heap
     *  pops by due cycle, then push order; seq is stamped by
     *  pushEvent() or park() from one counter.  Packed to 32 bytes:
     *  sift cost grows with element size. */
    struct LocalEvent
    {
        sim::Cycle due;
        std::uint64_t addr;
        sim::CoreType type;
        enum class Kind : std::uint8_t { L2Access, Fill } kind;
        std::int8_t l1Index;
        std::int8_t coreSlot;
        bool write;
        bool instr;
        std::uint64_t seq = 0;

        bool
        operator>(const LocalEvent &o) const
        {
            return due != o.due ? due > o.due : seq > o.seq;
        }
    };
    static_assert(sizeof(LocalEvent) <= 32,
                  "LocalEvent grew; the event heap is hot");

    // Demand + L1 ----------------------------------------------------------
    void coreAccess(sim::CoreType type, int core_slot,
                    const traffic::MemAccess &acc, sim::Cycle now);
    void l2Access(const LocalEvent &ev, sim::Cycle now);
    /** Queue a local event, stamping its push order. */
    void pushEvent(LocalEvent ev);
    /** Park an L2 access that found its type's MSHR full and its line
     *  absent; it wakes every parkPeriod_ cycles from now. */
    void park(const LocalEvent &ev, sim::Cycle now);
    /** Run the parked retries of this cycle's phase that can proceed. */
    void wakeParked(sim::Cycle now);
    bool mshrFull(int type_index) const;
    void completeFill(const LocalEvent &ev, sim::Cycle now);

    // Coherence ------------------------------------------------------------
    void handleFillResponse(const sim::Packet &pkt, sim::Cycle now);
    void handleProbe(const sim::Packet &pkt, sim::Cycle now);
    void evictL2Victim(sim::CoreType type, L2Array::Line &victim,
                       sim::Cycle now);

    // Helpers ----------------------------------------------------------
    L1Array &l1Array(int l1_index);
    L2Array &l2Array(sim::CoreType t);
    int l1IndexFor(sim::CoreType t, int core_slot, bool instr) const;
    sim::CoreType l1Type(int l1_index) const;
    bool isSharedAddr(std::uint64_t line_addr) const;
    void sendNetwork(sim::MsgClass cls, sim::CoherenceOp op,
                     std::uint64_t addr, sim::NodeId dst, sim::Cycle now);
    void noteLocalRequest(sim::MsgClass cls);
    void noteLocalResponse(sim::MsgClass cls);
    std::uint64_t nextPacketId();

    int id_;
    HomeMap home_;
    HierarchyConfig cfg_;
    sim::PacketSink *sink_ = nullptr;
    sim::RouterTelemetry *telemetry_ = nullptr;

    std::vector<traffic::CoreDemandGenerator> cpuCores_;
    std::vector<traffic::CoreDemandGenerator> gpuCores_;
    std::vector<int> outstanding_[sim::kNumCoreTypes];

    // L1 layout: [0..1] CPU L1I, [2..3] CPU L1D, [4..7] GPU L1.
    std::vector<L1Array> l1s_;
    L2Array cpuL2_;
    L2Array gpuL2_;

    AddrMap<MshrEntry> mshr_[sim::kNumCoreTypes];

    /** Local events due at a cycle; MSHR-full retries are parked
     *  instead (below). */
    sim::MinHeap<LocalEvent> events_;
    std::uint64_t eventSeq_ = 0; //!< next LocalEvent::seq

    /**
     * MSHR-full retries, parked by core type and phase (DESIGN.md,
     * "Cluster event order").  A retry parked at cycle t waits in
     * parked_[type][t % parkPeriod_], in park order, and is examined
     * at t + k * parkPeriod_ (parkPeriod_ = 2 * l2AccessCycles).  It
     * proceeds iff its type's MSHR is not full or already holds its
     * line; otherwise it keeps its place.
     */
    std::vector<std::vector<LocalEvent>> parked_[sim::kNumCoreTypes];
    sim::Cycle parkPeriod_;
    std::size_t parkedCount_ = 0;
    std::size_t peakParked_ = 0;
    /** Parked retries per line, by type (an insert's attach count). */
    AddrMap<std::uint32_t> parkedLines_[sim::kNumCoreTypes];
    /** Parked retries whose line is in their type's MSHR, by type: the
     *  ones that can proceed while the MSHR is full.  Rises on an MSHR
     *  insert, falls on an erase and when such a retry wakes. */
    std::uint32_t attachable_[sim::kNumCoreTypes] = {0, 0};
    sim::Cycle nextTick_ = 0; //!< tick() cadence check

    ClusterStats stats_;
    std::uint64_t packetSeq_ = 0;
};

} // namespace cache
} // namespace pearl

#endif // PEARL_CACHE_CLUSTER_HPP
