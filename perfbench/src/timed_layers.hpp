/**
 * @file
 * Decorators that time the calls into the simulator's layers from the
 * outside.  Nothing here reaches into src/: a TimedNetwork wraps any
 * sim::Network (core::PearlNetwork, electrical::CmeshNetwork) and a
 * TimedPolicy wraps any core::PowerPolicy, and both only add time and
 * call counts to a LayerClock.  HeteroSystem::run is then driven in
 * reservation-window chunks, one WindowSpan per chunk, whose children
 * are the clock deltas accumulated during the chunk.
 *
 * Per-call spans are deliberately not stored: an inject happens many
 * times per cycle, so the decorators aggregate into counters and only
 * the window chunk keeps a span.
 */

#ifndef PERFBENCH_TIMED_LAYERS_HPP
#define PERFBENCH_TIMED_LAYERS_HPP

#include <chrono>
#include <cstdint>

#include "core/power_policy.hpp"
#include "sim/network.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Time and call counts accumulated by the decorators of one run. */
struct LayerClock
{
    std::int64_t stepNs = 0;   //!< inside Network::step (policy incl.)
    std::int64_t injectNs = 0; //!< inside Network::inject
    std::int64_t policyNs = 0; //!< inside PowerPolicy::nextState
    std::uint64_t steps = 0;
    std::uint64_t idleCycles = 0; //!< cycles skipped by advanceIdle
    std::uint64_t injectAttempts = 0;
    std::uint64_t injectAccepted = 0;
    std::uint64_t decisions = 0;
};

/** Times step() and inject(); forwards everything else untimed. */
class TimedNetwork : public pearl::sim::Network
{
  public:
    TimedNetwork(pearl::sim::Network &inner, LayerClock &clock)
        : inner_(inner), clock_(clock)
    {}

    bool
    inject(const pearl::sim::Packet &pkt) override
    {
        const std::int64_t t0 = nowNs();
        const bool accepted = inner_.inject(pkt);
        clock_.injectNs += nowNs() - t0;
        ++clock_.injectAttempts;
        clock_.injectAccepted += accepted ? 1 : 0;
        return accepted;
    }

    bool
    canInject(const pearl::sim::Packet &pkt) const override
    {
        return inner_.canInject(pkt);
    }

    void
    step() override
    {
        const std::int64_t t0 = nowNs();
        inner_.step();
        clock_.stepNs += nowNs() - t0;
        ++clock_.steps;
    }

    std::vector<pearl::sim::Packet> &
    delivered() override
    {
        return inner_.delivered();
    }

    pearl::sim::Cycle cycle() const override { return inner_.cycle(); }
    int numNodes() const override { return inner_.numNodes(); }

    const pearl::sim::NetworkStats &
    stats() const override
    {
        return inner_.stats();
    }

    bool idle() const override { return inner_.idle(); }

    void
    describeState(std::ostream &os) const override
    {
        inner_.describeState(os);
    }

    pearl::sim::Cycle
    advanceIdle(pearl::sim::Cycle max_cycles) override
    {
        const pearl::sim::Cycle jumped = inner_.advanceIdle(max_cycles);
        clock_.idleCycles += jumped;
        return jumped;
    }

  private:
    pearl::sim::Network &inner_;
    LayerClock &clock_;
};

/** Times nextState() of the wrapped policy. */
class TimedPolicy : public pearl::core::PowerPolicy
{
  public:
    TimedPolicy(pearl::core::PowerPolicy &inner, LayerClock &clock)
        : inner_(inner), clock_(clock)
    {}

    pearl::photonic::WlState
    nextState(const pearl::core::WindowObservation &obs) override
    {
        const std::int64_t t0 = nowNs();
        const pearl::photonic::WlState s = inner_.nextState(obs);
        clock_.policyNs += nowNs() - t0;
        ++clock_.decisions;
        return s;
    }

    const char *name() const override { return inner_.name(); }

  private:
    pearl::core::PowerPolicy &inner_;
    LayerClock &clock_;
};

/**
 * One reservation-window chunk of HeteroSystem::run.  The children are
 * the LayerClock deltas of the chunk; the system's self time is the
 * duration minus those children.  The population samples are taken
 * after the chunk ends, outside its duration.
 */
struct WindowSpan
{
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;
    std::int64_t stepNs = 0;   //!< network step, policy included
    std::int64_t injectNs = 0;
    std::int64_t policyNs = 0;
    bool photonic = false;     //!< PearlNetwork (else CMESH)
    std::uint64_t inFlight = 0; //!< packets on waveguides (photonic)
    std::uint64_t buffered = 0; //!< packets in router buffers (photonic)
    std::uint64_t outboxDepth = 0; //!< packets waiting to inject
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_LAYERS_HPP
